//! Aggregation of a raw event stream into per-production metrics.
//!
//! The [`MetricsRegistry`] is the quantitative companion to the
//! chronological exporters: histograms of evaluation time and backtrack
//! depth, memo hit-rates, and run-level totals, with a human summary
//! and JSON exposition.

use std::fmt;

use crate::json::escape_json;
use crate::{EventKind, ProdProfile, TelemetryReport};

/// Number of histogram buckets (shared by time and backtrack-depth
/// histograms so exposition code is uniform).
pub const N_BUCKETS: usize = 16;

/// Upper bounds (inclusive, nanoseconds) of the evaluation-time histogram
/// buckets: ×4 geometric from 256 ns, final bucket open-ended.
pub const TIME_BUCKET_NS: [u64; N_BUCKETS] = {
    let mut b = [0u64; N_BUCKETS];
    let mut i = 0;
    let mut bound = 256u64;
    while i < N_BUCKETS - 1 {
        b[i] = bound;
        bound *= 4;
        i += 1;
    }
    b[N_BUCKETS - 1] = u64::MAX;
    b
};

/// Upper bounds (inclusive) of the backtrack-depth histogram buckets:
/// linear strides of 8 production levels, final bucket open-ended.
pub const BACKTRACK_BUCKET: [u32; N_BUCKETS] = {
    let mut b = [0u32; N_BUCKETS];
    let mut i = 0;
    while i < N_BUCKETS - 1 {
        b[i] = (i as u32 + 1) * 8;
        i += 1;
    }
    b[N_BUCKETS - 1] = u32::MAX;
    b
};

fn time_bucket(ns: u64) -> usize {
    let mut i = 0;
    while i < N_BUCKETS - 1 && ns > TIME_BUCKET_NS[i] {
        i += 1;
    }
    i
}

fn backtrack_bucket(depth: u32) -> usize {
    let mut i = 0;
    while i < N_BUCKETS - 1 && depth > BACKTRACK_BUCKET[i] {
        i += 1;
    }
    i
}

/// Run-level totals that are not per-production.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    /// Events collected.
    pub events: u64,
    /// Events discarded by the buffer cap.
    pub dropped: u64,
    /// Span sampling rate in effect (1 = every span).
    pub sample: u32,
    /// Wall-clock nanoseconds covered by the report.
    pub wall_ns: u64,
    /// Memo-budget eviction passes.
    pub evictions: u64,
    /// Memo columns freed by evictions.
    pub columns_evicted: u64,
    /// Governed aborts, by stable reason name.
    pub aborts: Vec<(&'static str, u64)>,
    /// Governor evaluation steps ticked.
    pub gov_ticks: u64,
    /// Governor stride refills.
    pub gov_refills: u64,
    /// Session memo columns reused across edits.
    pub session_reused: u64,
    /// Session memo columns invalidated by edits.
    pub session_invalidated: u64,
    /// Session memo entries shifted to post-edit coordinates.
    pub session_shifted: u64,
}

/// Per-production metrics aggregated from one [`TelemetryReport`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// One named row per production, dense by production index; the
    /// final row, `(repetition)`, aggregates the anonymous repetition
    /// helpers when they produced events.
    pub prods: Vec<(String, ProdProfile)>,
    /// Run-level totals.
    pub totals: Totals,
}

impl MetricsRegistry {
    /// Aggregates a report's event stream.
    ///
    /// Span pairing walks the stream with an explicit stack; an exit
    /// whose production does not match the open span (possible only when
    /// the cap truncated the stream) is ignored rather than mis-paired.
    pub fn from_report(report: &TelemetryReport) -> Self {
        let mut n = report.names.len();
        let rep_events = report.events.iter().any(|e| {
            matches!(
                e.kind,
                EventKind::Enter { prod, .. }
                | EventKind::Exit { prod, .. }
                | EventKind::MemoProbe { prod, .. }
                | EventKind::MemoHit { prod, .. }
                | EventKind::MemoStore { prod, .. }
                | EventKind::Backtrack { prod, .. }
                if prod == crate::REP_HELPER
            )
        });
        let rep_index = if rep_events {
            n += 1;
            Some(n - 1)
        } else {
            None
        };
        let mut prods: Vec<(String, ProdProfile)> = (0..n)
            .map(|i| {
                let name = if Some(i) == rep_index {
                    "(repetition)"
                } else {
                    report.name_of(i as u32)
                };
                (name.to_string(), ProdProfile::default())
            })
            .collect();
        let index = |prod: u32| -> Option<usize> {
            if prod == crate::REP_HELPER {
                rep_index
            } else if (prod as usize) < report.names.len() {
                Some(prod as usize)
            } else {
                None
            }
        };
        let mut totals = Totals {
            events: report.events.len() as u64,
            dropped: report.dropped,
            sample: report.sample,
            wall_ns: report.wall_ns,
            ..Totals::default()
        };
        // Open spans: (prod, start_ns, child_ns accumulated so far).
        let mut stack: Vec<(u32, u64, u64)> = Vec::new();
        for event in &report.events {
            match event.kind {
                EventKind::Enter {
                    prod,
                    pos: _,
                    depth,
                } => {
                    if let Some(i) = index(prod) {
                        prods[i].1.evals += 1;
                        prods[i].1.max_depth = prods[i].1.max_depth.max(depth);
                    }
                    stack.push((prod, event.at_ns, 0));
                }
                EventKind::Exit { prod, matched, .. } => {
                    if stack.last().map(|s| s.0) != Some(prod) {
                        continue; // truncated stream; never mis-pair
                    }
                    let (_, start, child_ns) = stack.pop().expect("matched above");
                    let dur = event.at_ns.saturating_sub(start);
                    if let Some((_, _, parent_child)) = stack.last_mut() {
                        *parent_child += dur;
                    }
                    if let Some(i) = index(prod) {
                        let p = &mut prods[i].1;
                        p.total_ns += dur;
                        p.self_ns += dur.saturating_sub(child_ns);
                        p.time_hist[time_bucket(dur)] += 1;
                        if matched {
                            p.matched += 1;
                        } else {
                            p.failed += 1;
                        }
                    }
                }
                EventKind::MemoProbe { prod, .. } => {
                    if let Some(i) = index(prod) {
                        prods[i].1.memo_probes += 1;
                    }
                }
                EventKind::MemoHit { prod, depth, .. } => {
                    if let Some(i) = index(prod) {
                        prods[i].1.memo_hits += 1;
                        prods[i].1.max_depth = prods[i].1.max_depth.max(depth);
                    }
                }
                EventKind::MemoStore { prod, .. } => {
                    if let Some(i) = index(prod) {
                        prods[i].1.memo_stores += 1;
                    }
                }
                EventKind::MemoEvict { columns, .. } => {
                    totals.evictions += 1;
                    totals.columns_evicted += u64::from(columns);
                }
                EventKind::Backtrack { prod, depth, .. } => {
                    if let Some(i) = index(prod) {
                        prods[i].1.backtracks += 1;
                        prods[i].1.backtrack_hist[backtrack_bucket(depth)] += 1;
                    }
                }
                EventKind::GovAbort { reason } => {
                    match totals.aborts.iter_mut().find(|(r, _)| *r == reason) {
                        Some((_, count)) => *count += 1,
                        None => totals.aborts.push((reason, 1)),
                    }
                }
                EventKind::GovTicks { ticks, refills } => {
                    totals.gov_ticks += ticks;
                    totals.gov_refills += refills;
                }
                EventKind::SessionReuse {
                    reused,
                    invalidated,
                    shifted,
                } => {
                    totals.session_reused += reused;
                    totals.session_invalidated += invalidated;
                    totals.session_shifted += shifted;
                }
            }
        }
        MetricsRegistry { prods, totals }
    }

    /// JSON exposition of the same aggregates (an object with a
    /// `productions` array and a `totals` object).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"productions\":[");
        for (i, (name, p)) in self.active().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"evals\":{},\"matched\":{},\"failed\":{},\"total_ns\":{},\"self_ns\":{},\"max_depth\":{},\"memo_probes\":{},\"memo_hits\":{},\"memo_hit_rate\":{:.4},\"memo_stores\":{},\"backtracks\":{}}}",
                escape_json(name),
                p.evals,
                p.matched,
                p.failed,
                p.total_ns,
                p.self_ns,
                p.max_depth,
                p.memo_probes,
                p.memo_hits,
                p.memo_hit_rate(),
                p.memo_stores,
                p.backtracks
            );
        }
        let t = &self.totals;
        let _ = write!(
            out,
            "],\"totals\":{{\"events\":{},\"dropped\":{},\"sample\":{},\"wall_ns\":{},\"evictions\":{},\"columns_evicted\":{},\"gov_ticks\":{},\"gov_refills\":{},\"session_reused\":{},\"session_invalidated\":{},\"session_shifted\":{},\"aborts\":[",
            t.events,
            t.dropped,
            t.sample,
            t.wall_ns,
            t.evictions,
            t.columns_evicted,
            t.gov_ticks,
            t.gov_refills,
            t.session_reused,
            t.session_invalidated,
            t.session_shifted
        );
        for (i, (reason, count)) in t.aborts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"reason\":\"{reason}\",\"count\":{count}}}");
        }
        out.push_str("]}}");
        out
    }

    /// Productions with any recorded activity, in production order.
    pub(crate) fn active(&self) -> impl Iterator<Item = &(String, ProdProfile)> {
        self.prods.iter().filter(|(_, p)| {
            p.evals > 0 || p.memo_probes > 0 || p.memo_stores > 0 || p.backtracks > 0
        })
    }
}

/// Compact human-readable summary: run totals plus the top productions
/// by inclusive time (what `--telemetry` prints after a parse).
impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = &self.totals;
        writeln!(
            f,
            "telemetry: {} events ({} dropped), sample 1/{}, {:.3} ms wall",
            t.events,
            t.dropped,
            t.sample,
            t.wall_ns as f64 / 1e6
        )?;
        if t.gov_ticks > 0 || !t.aborts.is_empty() {
            write!(
                f,
                "governor: {} ticks, {} refills",
                t.gov_ticks, t.gov_refills
            )?;
            for (reason, count) in &t.aborts {
                write!(f, ", {count} × {reason}")?;
            }
            writeln!(f)?;
        }
        if t.session_reused > 0 || t.session_invalidated > 0 {
            writeln!(
                f,
                "session: {} columns reused, {} invalidated, {} entries shifted",
                t.session_reused, t.session_invalidated, t.session_shifted
            )?;
        }
        let mut ranked: Vec<&(String, ProdProfile)> = self.active().collect();
        ranked.sort_by(|(_, a), (_, b)| b.total_ns.cmp(&a.total_ns).then(b.evals.cmp(&a.evals)));
        if ranked.is_empty() {
            return Ok(());
        }
        writeln!(
            f,
            "{:<24} {:>8} {:>10} {:>10} {:>9} {:>10}",
            "production", "evals", "total ms", "self ms", "memo hit%", "backtracks"
        )?;
        for (name, p) in ranked.iter().take(12) {
            writeln!(
                f,
                "{:<24} {:>8} {:>10.3} {:>10.3} {:>8.1}% {:>10}",
                name,
                p.evals,
                p.total_ns as f64 / 1e6,
                p.self_ns as f64 / 1e6,
                p.memo_hit_rate() * 100.0,
                p.backtracks
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample_report() -> TelemetryReport {
        let t = Telemetry::collector(1024);
        t.set_names(vec!["Root".into(), "Leaf".into()]);
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
        t.gov_ticks(100, 2);
        t.session_reuse(5, 1, 9);
        t.take_report()
    }

    #[test]
    fn aggregates_counts_and_pairing() {
        let r = MetricsRegistry::from_report(&sample_report());
        assert_eq!(r.prods.len(), 2);
        let root = &r.prods[0].1;
        let leaf = &r.prods[1].1;
        assert_eq!(root.evals, 1);
        assert_eq!(root.matched, 1);
        assert_eq!(root.backtracks, 1);
        assert_eq!(leaf.evals, 1);
        assert_eq!(leaf.memo_probes, 2);
        assert_eq!(leaf.memo_hits, 1);
        assert_eq!(leaf.memo_stores, 1);
        assert!((leaf.memo_hit_rate() - 0.5).abs() < 1e-9);
        // Child time is subtracted from the parent's self time.
        assert!(root.total_ns >= leaf.total_ns);
        assert_eq!(root.self_ns, root.total_ns - leaf.total_ns);
        assert_eq!(r.totals.gov_ticks, 100);
        assert_eq!(r.totals.session_reused, 5);
        assert_eq!(r.totals.session_shifted, 9);
    }

    #[test]
    fn tolerates_truncated_streams() {
        let t = Telemetry::collector(1); // only the first event fits
        let tok = t.enter(0, 0, 0);
        t.exit(tok, 0, 0, 0, 3, true); // dropped by the cap
        let report = t.take_report();
        assert_eq!(report.dropped, 1);
        let r = MetricsRegistry::from_report(&report);
        // The unclosed span contributes an eval but no duration.
        assert_eq!(r.prods.len(), 0); // no names were set
        assert_eq!(r.totals.dropped, 1);
    }

    #[test]
    fn repetition_helper_gets_its_own_row() {
        let t = Telemetry::collector(64);
        t.set_names(vec!["Root".into()]);
        t.memo_probe(crate::REP_HELPER, 0);
        t.memo_store(crate::REP_HELPER, 0, true);
        let r = MetricsRegistry::from_report(&t.take_report());
        assert_eq!(r.prods.len(), 2);
        assert_eq!(r.prods[1].0, "(repetition)");
        assert_eq!(r.prods[1].1.memo_probes, 1);
    }

    #[test]
    fn forced_drops_surface_in_both_expositions() {
        // A 2-event buffer under a 3-span load must drop events — and the
        // drop count must be visible to machine consumers as well as in
        // the human summary.
        let t = Telemetry::collector(2);
        t.set_names(vec!["Root".into()]);
        for _ in 0..3 {
            let tok = t.enter(0, 0, 0);
            t.exit(tok, 0, 0, 0, 1, true);
        }
        let report = t.take_report();
        assert!(report.dropped > 0, "tiny buffer must force drops");
        let r = MetricsRegistry::from_report(&report);
        let summary = r.to_string();
        assert!(
            summary.contains(&format!("({} dropped)", report.dropped)),
            "summary missing drop count:\n{summary}"
        );
        let json = r.to_json();
        crate::validate_json(&json).unwrap();
        assert!(
            json.contains(&format!("\"dropped\":{}", report.dropped)),
            "json missing drop count:\n{json}"
        );
    }

    #[test]
    fn json_exposition_is_valid_json() {
        let json = MetricsRegistry::from_report(&sample_report()).to_json();
        crate::validate_json(&json).expect("metrics JSON must validate");
        assert!(json.contains("\"name\":\"Leaf\""));
        assert!(json.contains("\"gov_ticks\":100"));
    }

    #[test]
    fn display_summary_mentions_top_production() {
        let r = MetricsRegistry::from_report(&sample_report());
        let s = r.to_string();
        assert!(s.contains("telemetry:"), "{s}");
        assert!(s.contains("Root"), "{s}");
        assert!(s.contains("governor: 100 ticks"), "{s}");
        assert!(s.contains("session: 5 columns reused"), "{s}");
    }

    #[test]
    fn histogram_bucket_bounds_are_monotonic() {
        for w in TIME_BUCKET_NS.windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in BACKTRACK_BUCKET.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(time_bucket(0), 0);
        assert_eq!(time_bucket(u64::MAX), N_BUCKETS - 1);
        assert_eq!(backtrack_bucket(u32::MAX), N_BUCKETS - 1);
    }
}
