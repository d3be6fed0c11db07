//! Persistent workload profiles: the `.mprof` format, merge, and diff.
//!
//! A [`WorkloadProfile`] is a [`MetricsRegistry`] snapshot promoted to a
//! first-class, versioned artifact: per-production memo probe/hit
//! counters, invocation counts, backtrack-depth histograms, and a
//! grammar fingerprint, serialized as JSON that the repo's own writer
//! emits and its own reader ([`crate::parse_json`]) loads back — no
//! dependencies either way.
//!
//! The format separates **deterministic counters** from **timing**: every
//! top-level line except the single `"timing"` line is a pure function of
//! (grammar, input, engine), so two recordings of the same workload are
//! byte-identical once that one line is dropped (`grep -v '"timing"'` in
//! the smoke script). This is what makes profiles diffable in CI and
//! committable as goldens: [`ProfileDiff`] compares only the
//! deterministic section, so a golden recorded on one machine gates
//! regressions on any other.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{escape_json, parse_json, JsonValue};
use crate::metrics::{MetricsRegistry, N_BUCKETS};

/// Version of the `.mprof` schema this build reads and writes.
pub const MPROF_VERSION: u32 = 1;

/// Deterministic per-production counters plus the timing summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProdProfile {
    /// Applications actually evaluated (memo misses and unmemoized).
    pub evals: u64,
    /// Evaluations that matched.
    pub matched: u64,
    /// Evaluations that failed.
    pub failed: u64,
    /// Memo-table lookups.
    pub memo_probes: u64,
    /// Lookups that served a stored answer.
    pub memo_hits: u64,
    /// Memo entries written.
    pub memo_stores: u64,
    /// Alternatives that failed after consuming input.
    pub backtracks: u64,
    /// Deepest production-nesting depth observed.
    pub max_depth: u32,
    /// Backtrack-depth histogram (same buckets as
    /// [`crate::BACKTRACK_BUCKET`]).
    pub backtrack_hist: [u64; N_BUCKETS],
    /// Total (inclusive) nanoseconds — timing section, not diffed.
    pub total_ns: u64,
    /// Exclusive nanoseconds — timing section, not diffed.
    pub self_ns: u64,
    /// Span-duration histogram — timing section, not diffed.
    pub time_hist: [u64; N_BUCKETS],
}

impl ProdProfile {
    /// Fraction of memo probes that hit, or 0.0 with no probes.
    pub fn memo_hit_rate(&self) -> f64 {
        if self.memo_probes == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.memo_probes as f64
        }
    }

    fn add(&mut self, other: &ProdProfile) {
        self.evals += other.evals;
        self.matched += other.matched;
        self.failed += other.failed;
        self.memo_probes += other.memo_probes;
        self.memo_hits += other.memo_hits;
        self.memo_stores += other.memo_stores;
        self.backtracks += other.backtracks;
        self.max_depth = self.max_depth.max(other.max_depth);
        for (a, b) in self.backtrack_hist.iter_mut().zip(&other.backtrack_hist) {
            *a += b;
        }
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        for (a, b) in self.time_hist.iter_mut().zip(&other.time_hist) {
            *a += b;
        }
    }
}

/// A recorded workload profile (`.mprof`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadProfile {
    /// FNV-1a fingerprint of the canonical grammar text (0 = unknown).
    pub fingerprint: u64,
    /// Grammar label (module name or path) for human consumption.
    pub grammar: String,
    /// Engine(s) that produced the profile (`interp`, `vm`, or `merged`
    /// when runs from different engines were combined).
    pub engine: String,
    /// Number of parse runs merged into this profile.
    pub runs: u64,
    /// Total input bytes across runs.
    pub input_bytes: u64,
    /// Telemetry events discarded by the buffer cap across runs; a
    /// nonzero value means the counters are lower bounds.
    pub dropped: u64,
    /// Wall-clock nanoseconds across runs (timing section).
    pub wall_ns: u64,
    /// Per-production counters, keyed by full production name (sorted —
    /// the map's iteration order IS the serialization order).
    pub prods: BTreeMap<String, ProdProfile>,
}

impl WorkloadProfile {
    /// Whether no events were discarded (counters are exact).
    pub fn complete(&self) -> bool {
        self.dropped == 0
    }

    /// Snapshots a metrics registry into a profile.
    ///
    /// `fingerprint`, `grammar`, and `engine` identify what was parsed
    /// and how; `input_bytes` is the document length.
    pub fn from_registry(
        registry: &MetricsRegistry,
        fingerprint: u64,
        grammar: &str,
        engine: &str,
        input_bytes: u64,
    ) -> WorkloadProfile {
        WorkloadProfile {
            fingerprint,
            grammar: grammar.to_string(),
            engine: engine.to_string(),
            runs: 1,
            input_bytes,
            dropped: registry.totals.dropped,
            wall_ns: registry.totals.wall_ns,
            prods: registry.active().cloned().collect(),
        }
    }

    /// Merges another profile into this one (counter sums, depth maxima).
    ///
    /// # Errors
    ///
    /// Refuses to merge profiles of different grammars (fingerprint
    /// mismatch) — summed counters across grammars are meaningless.
    pub fn merge(&mut self, other: &WorkloadProfile) -> Result<(), String> {
        if self.fingerprint != other.fingerprint {
            return Err(format!(
                "fingerprint mismatch: {} (grammar {}) vs {} (grammar {})",
                self.fingerprint, self.grammar, other.fingerprint, other.grammar
            ));
        }
        if self.engine != other.engine {
            self.engine = "merged".to_string();
        }
        self.runs += other.runs;
        self.input_bytes += other.input_bytes;
        self.dropped += other.dropped;
        self.wall_ns += other.wall_ns;
        for (name, p) in &other.prods {
            self.prods.entry(name.clone()).or_default().add(p);
        }
        Ok(())
    }

    /// Serializes as `.mprof` JSON.
    ///
    /// Layout contract: one top-level key per line, productions one per
    /// line sorted by name, and the entire timing section on the single
    /// line starting with `  "timing"` — so stripping that line yields
    /// the deterministic byte-identical section.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"mprof_version\": {MPROF_VERSION},");
        let _ = writeln!(out, "  \"fingerprint\": {},", self.fingerprint);
        let _ = writeln!(out, "  \"grammar\": \"{}\",", escape_json(&self.grammar));
        let _ = writeln!(out, "  \"engine\": \"{}\",", escape_json(&self.engine));
        let _ = writeln!(out, "  \"runs\": {},", self.runs);
        let _ = writeln!(out, "  \"input_bytes\": {},", self.input_bytes);
        let _ = writeln!(out, "  \"dropped\": {},", self.dropped);
        let _ = writeln!(out, "  \"complete\": {},", self.complete());
        out.push_str("  \"productions\": [\n");
        for (i, (name, p)) in self.prods.iter().enumerate() {
            let hist: Vec<String> = p.backtrack_hist.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"evals\": {}, \"matched\": {}, \"failed\": {}, \"memo_probes\": {}, \"memo_hits\": {}, \"memo_stores\": {}, \"backtracks\": {}, \"max_depth\": {}, \"backtrack_hist\": [{}]}}",
                escape_json(name),
                p.evals,
                p.matched,
                p.failed,
                p.memo_probes,
                p.memo_hits,
                p.memo_stores,
                p.backtracks,
                p.max_depth,
                hist.join(", ")
            );
            out.push_str(if i + 1 < self.prods.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        // Single-line timing section (see layout contract above).
        let _ = write!(
            out,
            "  \"timing\": {{\"wall_ns\": {}, \"productions\": [",
            self.wall_ns
        );
        for (i, (name, p)) in self.prods.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let hist: Vec<String> = p.time_hist.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"total_ns\": {}, \"self_ns\": {}, \"time_hist\": [{}]}}",
                escape_json(name),
                p.total_ns,
                p.self_ns,
                hist.join(", ")
            );
        }
        out.push_str("]}\n}\n");
        out
    }

    /// Parses an `.mprof` document.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem
    /// (malformed JSON, wrong version, missing or mistyped field).
    pub fn from_json(text: &str) -> Result<WorkloadProfile, String> {
        let root = parse_json(text)?;
        let version = root
            .get("mprof_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing mprof_version")?;
        if version != u64::from(MPROF_VERSION) {
            return Err(format!(
                "unsupported mprof_version {version} (this build reads {MPROF_VERSION})"
            ));
        }
        let u = |key: &str| -> Result<u64, String> {
            root.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or mistyped {key}"))
        };
        let s = |key: &str| -> Result<String, String> {
            root.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or mistyped {key}"))
        };
        let mut profile = WorkloadProfile {
            fingerprint: u("fingerprint")?,
            grammar: s("grammar")?,
            engine: s("engine")?,
            runs: u("runs")?,
            input_bytes: u("input_bytes")?,
            dropped: u("dropped")?,
            wall_ns: 0,
            prods: BTreeMap::new(),
        };
        let hist = |v: Option<&JsonValue>, what: &str| -> Result<[u64; N_BUCKETS], String> {
            let items = v
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("missing or mistyped {what}"))?;
            if items.len() != N_BUCKETS {
                return Err(format!(
                    "{what} has {} buckets, expected {N_BUCKETS}",
                    items.len()
                ));
            }
            let mut out = [0u64; N_BUCKETS];
            for (slot, item) in out.iter_mut().zip(items) {
                *slot = item
                    .as_u64()
                    .ok_or_else(|| format!("mistyped bucket in {what}"))?;
            }
            Ok(out)
        };
        let rows = root
            .get("productions")
            .and_then(JsonValue::as_arr)
            .ok_or("missing productions array")?;
        for row in rows {
            let name = row
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("production row missing name")?;
            let field = |key: &str| -> Result<u64, String> {
                row.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("production {name}: missing or mistyped {key}"))
            };
            let p = ProdProfile {
                evals: field("evals")?,
                matched: field("matched")?,
                failed: field("failed")?,
                memo_probes: field("memo_probes")?,
                memo_hits: field("memo_hits")?,
                memo_stores: field("memo_stores")?,
                backtracks: field("backtracks")?,
                max_depth: u32::try_from(field("max_depth")?)
                    .map_err(|_| format!("production {name}: max_depth out of range"))?,
                backtrack_hist: hist(row.get("backtrack_hist"), "backtrack_hist")?,
                ..ProdProfile::default()
            };
            if profile.prods.insert(name.to_string(), p).is_some() {
                return Err(format!("duplicate production {name}"));
            }
        }
        // The timing section is optional (a stripped deterministic
        // profile still loads) and never affects diffs.
        if let Some(timing) = root.get("timing") {
            profile.wall_ns = timing
                .get("wall_ns")
                .and_then(JsonValue::as_u64)
                .ok_or("timing missing wall_ns")?;
            for row in timing
                .get("productions")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
            {
                let name = row
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("timing row missing name")?;
                if let Some(p) = profile.prods.get_mut(name) {
                    p.total_ns = row
                        .get("total_ns")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("timing {name}: missing total_ns"))?;
                    p.self_ns = row
                        .get("self_ns")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("timing {name}: missing self_ns"))?;
                    p.time_hist = hist(row.get("time_hist"), "time_hist")?;
                }
            }
        }
        Ok(profile)
    }
}

/// One production's change between two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Production name.
    pub name: String,
    /// Counter field that changed (`evals`, `memo_probes`, …).
    pub field: &'static str,
    /// Value in the baseline profile.
    pub before: u64,
    /// Value in the candidate profile.
    pub after: u64,
    /// Signed relative delta, `(after - before) / max(before, 1)`.
    pub rel: f64,
    /// Whether this row counts as a regression (cost counter grew past
    /// the threshold).
    pub regression: bool,
}

/// Counter fields compared by [`ProfileDiff`]; cost fields (everything
/// except `memo_hits`) regress when they *grow*, `memo_hits` when it
/// *shrinks* while probes did not.
const DIFF_FIELDS: [&str; 5] = [
    "evals",
    "memo_probes",
    "memo_hits",
    "memo_stores",
    "backtracks",
];

/// Minimum absolute counter change for a row to count as a regression;
/// filters noise on near-zero counters (a 2→4 blip is not a signal).
const MIN_ABS_DELTA: u64 = 16;

/// A comparison of two profiles' deterministic counter sections.
#[derive(Debug, Clone, Default)]
pub struct ProfileDiff {
    /// Relative-change threshold the diff was computed with.
    pub threshold: f64,
    /// Rows whose relative change exceeds the threshold, ordered by
    /// descending |relative delta| (regressions and improvements both).
    pub rows: Vec<DiffRow>,
    /// Productions present in only one profile: `(name, in_after)`.
    pub only_in_one: Vec<(String, bool)>,
    /// Whether the two profiles' grammar fingerprints matched.
    pub same_grammar: bool,
}

impl ProfileDiff {
    /// Compares `before` and `after`, flagging counter changes whose
    /// relative delta exceeds `threshold` (e.g. `0.05` = 5%).
    pub fn compute(
        before: &WorkloadProfile,
        after: &WorkloadProfile,
        threshold: f64,
    ) -> ProfileDiff {
        let mut diff = ProfileDiff {
            threshold,
            same_grammar: before.fingerprint == after.fingerprint,
            ..ProfileDiff::default()
        };
        // Normalize per run so "merged 3 runs" vs "1 run" compares rates,
        // not raw sums. Integer division is fine at counter magnitudes.
        let (nb, na) = (before.runs.max(1), after.runs.max(1));
        for (name, b) in &before.prods {
            let Some(a) = after.prods.get(name) else {
                diff.only_in_one.push((name.clone(), false));
                continue;
            };
            let fields = |p: &ProdProfile| {
                [
                    p.evals,
                    p.memo_probes,
                    p.memo_hits,
                    p.memo_stores,
                    p.backtracks,
                ]
            };
            for (i, field) in DIFF_FIELDS.iter().enumerate() {
                let bv = fields(b)[i] / nb;
                let av = fields(a)[i] / na;
                if bv == av {
                    continue;
                }
                let rel = (av as f64 - bv as f64) / (bv.max(1) as f64);
                if rel.abs() < threshold {
                    continue;
                }
                let grew = av > bv;
                let big_enough = av.abs_diff(bv) >= MIN_ABS_DELTA;
                // memo_hits falling is the regression direction (work
                // that used to be served from the table no longer is).
                let regression = big_enough && (*field != "memo_hits") == grew;
                diff.rows.push(DiffRow {
                    name: name.clone(),
                    field,
                    before: bv,
                    after: av,
                    rel,
                    regression,
                });
            }
        }
        for name in after.prods.keys() {
            if !before.prods.contains_key(name) {
                diff.only_in_one.push((name.clone(), true));
            }
        }
        diff.rows.sort_by(|x, y| {
            y.rel
                .abs()
                .partial_cmp(&x.rel.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| x.name.cmp(&y.name))
                .then_with(|| x.field.cmp(y.field))
        });
        diff.only_in_one.sort();
        diff
    }

    /// Number of regression rows.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regression).count()
    }

    /// Human-readable rendering (one line per flagged change).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if !self.same_grammar {
            out.push_str("warning: profiles are from different grammars (fingerprint mismatch)\n");
        }
        if self.rows.is_empty() && self.only_in_one.is_empty() {
            let _ = writeln!(
                out,
                "no counter changes beyond {:.1}% threshold",
                self.threshold * 100.0
            );
            return out;
        }
        let _ = writeln!(
            out,
            "{:<28} {:<12} {:>12} {:>12} {:>8}  verdict",
            "production", "counter", "before", "after", "delta"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<28} {:<12} {:>12} {:>12} {:>+7.1}%  {}",
                r.name,
                r.field,
                r.before,
                r.after,
                r.rel * 100.0,
                if r.regression { "REGRESSION" } else { "ok" }
            );
        }
        for (name, in_after) in &self.only_in_one {
            let _ = writeln!(
                out,
                "{:<28} {}",
                name,
                if *in_after {
                    "only in candidate"
                } else {
                    "only in baseline"
                }
            );
        }
        let _ = writeln!(out, "{} regression(s)", self.regressions());
        out
    }

    /// JSON rendering of the same comparison.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"threshold\": {}, \"same_grammar\": {}, \"regressions\": {}, \"rows\": [",
            self.threshold,
            self.same_grammar,
            self.regressions()
        );
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"production\": \"{}\", \"counter\": \"{}\", \"before\": {}, \"after\": {}, \"rel\": {:.6}, \"regression\": {}}}",
                escape_json(&r.name),
                r.field,
                r.before,
                r.after,
                r.rel,
                r.regression
            );
        }
        out.push_str("], \"only_in_one\": [");
        for (i, (name, in_after)) in self.only_in_one.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"production\": \"{}\", \"in\": \"{}\"}}",
                escape_json(name),
                if *in_after { "candidate" } else { "baseline" }
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample_registry() -> MetricsRegistry {
        let t = Telemetry::collector(1024);
        t.set_names(vec!["m.Root".into(), "m.Leaf".into(), "m.Unused".into()]);
        t.set_input_len(10);
        let root = t.enter(0, 0, 0);
        let leaf = t.enter(1, 0, 1);
        t.memo_probe(1, 0);
        t.memo_store(1, 0, true);
        t.exit(leaf, 1, 0, 1, 4, true);
        t.memo_probe(1, 4);
        t.memo_hit(1, 4, 1, false);
        t.backtrack(0, 4, 0);
        t.exit(root, 0, 0, 0, 4, true);
        MetricsRegistry::from_report(&t.take_report())
    }

    fn sample_profile() -> WorkloadProfile {
        WorkloadProfile::from_registry(&sample_registry(), 7, "m", "interp", 10)
    }

    #[test]
    fn snapshot_keeps_active_productions_only() {
        let p = sample_profile();
        assert_eq!(p.prods.len(), 2, "m.Unused filtered out");
        let leaf = &p.prods["m.Leaf"];
        assert_eq!(leaf.memo_probes, 2);
        assert_eq!(leaf.memo_hits, 1);
        assert_eq!(p.fingerprint, 7);
        assert!(p.complete());
    }

    #[test]
    fn json_round_trips_counters_and_timing() {
        let p = sample_profile();
        let json = p.to_json();
        crate::validate_json(&json).expect("mprof must be valid JSON");
        let back = WorkloadProfile::from_json(&json).unwrap();
        assert_eq!(back, p);
        // Serialization is deterministic.
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn timing_lives_on_a_single_strippable_line() {
        let p = sample_profile();
        let json = p.to_json();
        let timing_lines: Vec<&str> = json.lines().filter(|l| l.contains("\"timing\"")).collect();
        assert_eq!(timing_lines.len(), 1, "timing must be one line");
        // A stripped profile still loads, with timing zeroed.
        let stripped: String = json
            .lines()
            .filter(|l| !l.contains("\"timing\""))
            .collect::<Vec<_>>()
            .join("\n")
            // The line before timing ends with ",\n" — fix the dangling comma.
            .replace("],\n}", "]\n}");
        let back = WorkloadProfile::from_json(&stripped).unwrap();
        assert_eq!(back.wall_ns, 0);
        assert_eq!(back.prods["m.Leaf"].memo_probes, 2);
        assert_eq!(back.prods["m.Leaf"].total_ns, 0);
    }

    #[test]
    fn merge_sums_counters_and_rejects_mismatched_grammars() {
        let mut a = sample_profile();
        let b = sample_profile();
        a.merge(&b).unwrap();
        assert_eq!(a.runs, 2);
        assert_eq!(a.prods["m.Leaf"].memo_probes, 4);
        assert_eq!(a.engine, "interp");
        let mut vm = sample_profile();
        vm.engine = "vm".into();
        a.merge(&vm).unwrap();
        assert_eq!(a.engine, "merged");
        let mut other = sample_profile();
        other.fingerprint = 8;
        assert!(a.merge(&other).is_err());
    }

    #[test]
    fn diff_flags_injected_regression_and_improvement() {
        let base = sample_profile();
        let mut worse = base.clone();
        {
            let leaf = worse.prods.get_mut("m.Leaf").unwrap();
            leaf.memo_probes += 100; // cost counter grows: regression
        }
        let diff = ProfileDiff::compute(&base, &worse, 0.05);
        assert_eq!(diff.regressions(), 1);
        assert!(diff.render_human().contains("REGRESSION"));
        crate::validate_json(&diff.to_json()).unwrap();
        // The reverse direction is an improvement, not a regression.
        let diff = ProfileDiff::compute(&worse, &base, 0.05);
        assert_eq!(diff.regressions(), 0);
        assert!(!diff.rows.is_empty());
    }

    #[test]
    fn diff_ignores_timing_and_small_noise() {
        let base = sample_profile();
        let mut noisy = base.clone();
        {
            let leaf = noisy.prods.get_mut("m.Leaf").unwrap();
            leaf.total_ns = leaf.total_ns.wrapping_add(999_999); // timing only
            leaf.memo_probes += 2; // below MIN_ABS_DELTA
        }
        let diff = ProfileDiff::compute(&base, &noisy, 0.05);
        assert_eq!(diff.regressions(), 0, "{:?}", diff.rows);
    }

    #[test]
    fn diff_normalizes_by_run_count() {
        let base = sample_profile();
        let mut merged = base.clone();
        merged.merge(&base).unwrap(); // 2 runs, doubled counters
        let diff = ProfileDiff::compute(&base, &merged, 0.05);
        assert_eq!(diff.regressions(), 0, "{:?}", diff.rows);
    }

    #[test]
    fn diff_reports_missing_productions() {
        let base = sample_profile();
        let mut extended = base.clone();
        extended.prods.insert(
            "m.New".into(),
            ProdProfile {
                evals: 5,
                ..ProdProfile::default()
            },
        );
        let diff = ProfileDiff::compute(&base, &extended, 0.05);
        assert_eq!(diff.only_in_one, vec![("m.New".to_string(), true)]);
    }

    #[test]
    fn memo_hits_falling_is_the_regression_direction() {
        let base = sample_profile();
        let mut worse = base.clone();
        {
            let leaf = worse.prods.get_mut("m.Leaf").unwrap();
            leaf.memo_hits += 100;
        }
        // More hits is an improvement…
        assert_eq!(ProfileDiff::compute(&base, &worse, 0.05).regressions(), 0);
        // …and losing them is a regression.
        assert_eq!(ProfileDiff::compute(&worse, &base, 0.05).regressions(), 1);
    }

    #[test]
    fn rejects_malformed_profiles() {
        for doc in [
            "",
            "{}",
            "{\"mprof_version\": 99}",
            "{\"mprof_version\": 1}",
            "{\"mprof_version\": 1, \"fingerprint\": 1, \"grammar\": \"g\", \"engine\": \"interp\", \"runs\": 1, \"input_bytes\": 0, \"dropped\": 0, \"productions\": [{\"name\": \"A\"}]}",
        ] {
            assert!(WorkloadProfile::from_json(doc).is_err(), "{doc:?}");
        }
    }

    #[test]
    fn dropped_events_mark_profile_incomplete() {
        let t = Telemetry::collector(1);
        t.set_names(vec!["m.Root".into()]);
        let tok = t.enter(0, 0, 0);
        t.exit(tok, 0, 0, 0, 3, true); // dropped by the cap
        let reg = MetricsRegistry::from_report(&t.take_report());
        let p = WorkloadProfile::from_registry(&reg, 1, "m", "interp", 3);
        assert!(!p.complete());
        let json = p.to_json();
        assert!(json.contains("\"dropped\": 1"));
        assert!(json.contains("\"complete\": false"));
    }
}
