//! # modpeg-bench
//!
//! The experiment harness: every table and figure of the paper's
//! evaluation has a binary here that regenerates it (see `EXPERIMENTS.md`
//! at the workspace root for the index and recorded results):
//!
//! | binary | experiment |
//! |--------|-----------|
//! | `table1` | E1 — grammar-modularity statistics |
//! | `fig_opts` | E2 — parse time vs cumulative optimizations |
//! | `fig_heap` | E3 — heap utilization vs cumulative optimizations |
//! | `table_compare` | E4 — parser throughput comparison |
//! | `fig_scaling` | E5 — linear-time scaling & backtracking blowup |
//! | `table_extend` | E6 — extensibility case study |
//! | `fig_incremental` | E8 — incremental reparse sessions |
//! | `fig_governor_overhead` | E10 — resource-governance guard overhead |
//! | `fig_telemetry_overhead` | E11 — telemetry hook overhead |
//! | `fig_vm` | E12 — bytecode machine vs interpreter vs generated parser |
//! | `fig_arena` | E13 — arena values: copy-out toll and peak heap |
//! | `fig_recovery` | E14 — recovery overhead and malformed-input throughput |
//! | `fig_pgo` | E15 — profile-guided optimization vs cumulative levels |
//! | `fig_simd` | E16 — bulk class scanning vs the scalar path |
//!
//! The `benches/` targets (E7, `cargo bench -p modpeg-bench`) are
//! micro-benchmarks on the same runner.
//!
//! Every binary prints its text report to stdout and drops a
//! machine-readable companion under `results/` via [`emit_results_json`].
//!
//! # How every number is timed
//!
//! Every timed number goes through [`paired`]. Configurations timed on
//! the same inputs are the *legs* of one call. After one warmup call per
//! leg, each run calls every leg once, in the order of one row of a
//! Williams-balanced Latin square: over a full cycle of rows every leg
//! takes every position, and follows every other leg, equally often. For
//! two legs the rows are the two alternating orders, for three legs all
//! six orders, for four legs four rows; an even number of legs `n` needs
//! `n` rows and an odd one `2n`. A run count that is a multiple of the
//! row count keeps the balance exact. Slow drift (frequency scaling,
//! thermal state) and the cache footprint a leg leaves for its successor
//! thus bias every leg alike.
//!
//! Each leg reports its median time, its minimum, and its *paired ratio*:
//! the median over runs of its time divided by leg 0's time in the same
//! run, which cancels noise that hits a whole run. The minimum is a
//! cross-check, since interference only ever adds time. With
//! `campaigns > 1` the measurement repeats with the heap layout shifted
//! in between, so one unlucky branch-alias or cache-placement layout
//! cannot decide the verdict; medians and paired ratios are then medians
//! over campaigns, and the minimum is the minimum over campaigns.
//!
//! Every leg is called from one `#[inline(never)]` call site, so the code
//! around each call is the same machine code and only the leg differs.

#![warn(missing_docs)]

use std::cmp::Ordering;
use std::time::{Duration, Instant};

use modpeg_runtime::{Engine, ParseRequest};
use modpeg_telemetry::escape_json;

/// One leg's summary from [`paired`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leg {
    /// Median time of one call.
    pub median: Duration,
    /// Fastest call.
    pub min: Duration,
    /// Median over runs of this leg's time / leg 0's time in the same run
    /// (1.0 for leg 0 itself).
    pub paired: f64,
}

/// Times every leg `runs` times per campaign over `campaigns` campaigns,
/// as described in the crate docs, and summarizes each leg.
///
/// # Panics
///
/// If `runs` or `campaigns` is 0 or `legs` is empty.
pub fn paired(runs: usize, campaigns: usize, legs: &mut [&mut dyn FnMut()]) -> Vec<Leg> {
    assert!(
        runs > 0,
        "need at least one timed run per leg: set MODPEG_BENCH_RUNS to 1 or more"
    );
    assert!(campaigns > 0, "need at least one campaign");
    assert!(!legs.is_empty(), "need at least one leg");
    let rows = schedule(legs.len());
    let per_campaign: Vec<Vec<Leg>> = (0..campaigns)
        .map(|c| {
            if campaigns > 1 {
                // Leaking an odd-sized block shifts every allocation the
                // next campaign makes.
                std::mem::forget(vec![0u8; 4096 * c + 1361]);
            }
            for leg in legs.iter_mut() {
                time(*leg); // warmup
            }
            let mut samples = vec![Vec::with_capacity(runs); legs.len()];
            for row in rows.iter().cycle().take(runs) {
                for &i in row {
                    samples[i].push(time(legs[i]));
                }
            }
            summarize(&samples)
        })
        .collect();
    combine(&per_campaign)
}

/// [`paired`] with one leg per engine, each parsing every input to a tree,
/// over one campaign.
pub fn paired_trees(runs: usize, engines: &[&dyn Engine], inputs: &[String]) -> Vec<Leg> {
    let mut legs: Vec<Box<dyn FnMut() + '_>> = engines
        .iter()
        .map(|&engine| Box::new(move || parse_all(engine, inputs)) as Box<dyn FnMut()>)
        .collect();
    let mut legs: Vec<&mut dyn FnMut()> = legs.iter_mut().map(|l| &mut **l as _).collect();
    paired(runs, 1, &mut legs)
}

/// Parses every input to a tree on `engine`.
///
/// # Panics
///
/// If an input does not parse.
pub fn parse_all(engine: &dyn Engine, inputs: &[String]) {
    for input in inputs {
        let (r, _) = engine.run(input, ParseRequest::tree());
        std::hint::black_box(r.expect("workload parses"));
    }
}

/// Asserts every engine builds the same tree as `engines[0]` on every
/// input: a faster wrong parser is no parser.
///
/// # Panics
///
/// If an input does not parse or two trees differ.
pub fn assert_same_trees(label: &str, engines: &[&dyn Engine], inputs: &[String]) {
    for input in inputs {
        let tree = |engine: &dyn Engine| {
            let (r, _) = engine.run(input, ParseRequest::tree());
            r.unwrap_or_else(|f| panic!("{label}/{}: {f}", engine.name()))
                .into_tree()
                .to_sexpr()
        };
        let reference = tree(engines[0]);
        for (k, &engine) in engines.iter().enumerate().skip(1) {
            assert_eq!(
                tree(engine),
                reference,
                "{label}: engine {k} ({}) built a different tree than engine 0 ({})",
                engine.name(),
                engines[0].name()
            );
        }
    }
}

/// The one place a leg is called and timed.
#[inline(never)]
fn time(leg: &mut dyn FnMut()) -> Duration {
    let t0 = Instant::now();
    leg();
    t0.elapsed()
}

/// The Williams-balanced Latin square over `n` legs: row `r` is the first
/// row `0, 1, n-1, 2, n-2, …` shifted by `r`, plus the reversed rows when
/// `n` is odd.
fn schedule(n: usize) -> Vec<Vec<usize>> {
    let first: Vec<usize> = (0..n)
        .map(|j| {
            if j % 2 == 1 {
                j.div_ceil(2)
            } else {
                (n - j / 2) % n
            }
        })
        .collect();
    let mut rows: Vec<Vec<usize>> = (0..n)
        .map(|r| first.iter().map(|&leg| (leg + r) % n).collect())
        .collect();
    if n % 2 == 1 {
        let reversed: Vec<Vec<usize>> = rows
            .iter()
            .map(|row| row.iter().rev().copied().collect())
            .collect();
        rows.extend(reversed);
    }
    rows
}

/// The middle element of `values` once sorted by `cmp` (the upper one of
/// an even count).
///
/// # Panics
///
/// If `values` is empty.
pub fn middle<T: Copy>(mut values: Vec<T>, cmp: fn(&T, &T) -> Ordering) -> T {
    values.sort_by(cmp);
    values[values.len() / 2]
}

/// Summarizes one campaign: `samples[leg][run]`.
fn summarize(samples: &[Vec<Duration>]) -> Vec<Leg> {
    samples
        .iter()
        .map(|times| Leg {
            median: middle(times.clone(), Duration::cmp),
            min: *times.iter().min().expect("runs > 0"),
            paired: middle(
                times
                    .iter()
                    .zip(&samples[0])
                    .map(|(t, base)| t.as_secs_f64() / base.as_secs_f64())
                    .collect(),
                f64::total_cmp,
            ),
        })
        .collect()
}

/// Aggregates campaigns: median of medians and of paired ratios, minimum
/// of minima.
fn combine(campaigns: &[Vec<Leg>]) -> Vec<Leg> {
    (0..campaigns[0].len())
        .map(|i| Leg {
            median: middle(
                campaigns.iter().map(|c| c[i].median).collect(),
                Duration::cmp,
            ),
            min: campaigns
                .iter()
                .map(|c| c[i].min)
                .min()
                .expect("campaigns > 0"),
            paired: middle(
                campaigns.iter().map(|c| c[i].paired).collect(),
                f64::total_cmp,
            ),
        })
        .collect()
}

/// Formats a ratio as a signed percentage change (`1.0123` → `+1.23%`).
pub fn pct(ratio: f64) -> String {
    format!("{:+.2}%", (ratio - 1.0) * 100.0)
}

/// Formats a duration as milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Formats a throughput in KiB/s given bytes and a duration.
pub fn kib_per_s(bytes: usize, d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs == 0.0 {
        return "inf".to_owned();
    }
    format!("{:.0}", bytes as f64 / 1024.0 / secs)
}

/// Prints an aligned text table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{:<w$}", cell, w = widths[i]));
            } else {
                out.push_str(&format!("{:>w$}", cell, w = widths[i]));
            }
        }
        out
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Writes the machine-readable companion of a figure's text report to
/// `results/<name>.json`: the same header/row grid as the printed table,
/// plus free-form metadata (knob settings, units).
///
/// The directory defaults to `results/` at the workspace root so the
/// file lands next to the committed `.txt` reports regardless of the
/// invocation directory; `MODPEG_RESULTS_DIR` overrides it. Failures to
/// write are reported on stderr but never fail the experiment — the
/// text report on stdout is the primary artifact.
pub fn emit_results_json(
    name: &str,
    meta: &[(&str, String)],
    headers: &[&str],
    rows: &[Vec<String>],
) {
    let dir = std::env::var("MODPEG_RESULTS_DIR")
        .unwrap_or_else(|_| format!("{}/../../results", env!("CARGO_MANIFEST_DIR")));
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"figure\": \"{}\",\n", escape_json(name)));
    out.push_str("  \"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": \"{}\"", escape_json(k), escape_json(v)));
    }
    out.push_str("},\n  \"columns\": [");
    for (i, h) in headers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape_json(h)));
    }
    out.push_str("],\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    [");
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape_json(cell)));
        }
        out.push(']');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let path = format!("{dir}/{name}.json");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("note: could not write {path}: {e}");
    } else {
        eprintln!("(json: {path})");
    }
}

/// Repeat-count and input-size knobs shared by the experiment binaries,
/// overridable via environment variables so quick runs and full runs use
/// the same code. `MODPEG_BENCH_BYTES`, `MODPEG_BENCH_SEEDS`,
/// `MODPEG_BENCH_RUNS`.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Workload size per seed, in bytes.
    pub bytes: usize,
    /// Number of workload seeds.
    pub seeds: u64,
    /// Timed runs per leg of each [`paired`] call.
    pub runs: usize,
}

impl Knobs {
    /// Reads knobs from the environment with the given defaults.
    pub fn from_env(bytes: usize, seeds: u64, runs: usize) -> Knobs {
        let get = |name: &str, dflt: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(dflt)
        };
        Knobs {
            bytes: get("MODPEG_BENCH_BYTES", bytes),
            seeds: get("MODPEG_BENCH_SEEDS", seeds as usize) as u64,
            runs: get("MODPEG_BENCH_RUNS", runs),
        }
    }

    /// `seeds` inputs of `bytes` bytes each, one per seed of `workload`.
    pub fn inputs(&self, workload: impl Fn(u64, usize) -> String) -> Vec<String> {
        (0..self.seeds)
            .map(|seed| workload(seed, self.bytes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_williams_balanced() {
        for n in 1..=19 {
            let rows = schedule(n);
            // at[leg][position], and follows[a][b]: b called right after a.
            let mut at = vec![vec![0usize; n]; n];
            let mut follows = vec![vec![0usize; n]; n];
            for row in &rows {
                let mut sorted = row.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n}: {row:?}");
                for (position, &leg) in row.iter().enumerate() {
                    at[leg][position] += 1;
                }
                for pair in row.windows(2) {
                    follows[pair[0]][pair[1]] += 1;
                }
            }
            // Each leg takes each position, and each ordered pair is
            // adjacent, once per n rows.
            let each = rows.len() / n;
            assert_eq!(rows.len(), each * n, "n={n}");
            assert!(at.iter().flatten().all(|&c| c == each), "n={n}: {at:?}");
            for (a, row) in follows.iter().enumerate() {
                for (b, &c) in row.iter().enumerate() {
                    assert_eq!(c, if a == b { 0 } else { each }, "n={n}: {a} then {b}");
                }
            }
        }
    }

    #[test]
    fn summary_of_fixed_samples() {
        let s = Duration::from_secs;
        let leg = |median, min, paired| Leg {
            median: s(median),
            min: s(min),
            paired,
        };
        // Leg 1's per-run ratios against leg 0 are 2.0, 1.5 and 3.0.
        let first = summarize(&[vec![s(10), s(12), s(11)], vec![s(20), s(18), s(33)]]);
        assert_eq!(first, [leg(11, 10, 1.0), leg(20, 18, 2.0)]);
        // An even count takes the upper middle.
        let even = summarize(&[vec![s(4), s(1), s(3), s(2)]]);
        assert_eq!(even, [leg(3, 1, 1.0)]);
        let combined = combine(&[
            first,
            vec![leg(13, 9, 1.0), leg(25, 24, 1.5)],
            vec![leg(12, 12, 1.0), leg(19, 17, 3.0)],
        ]);
        assert_eq!(combined, [leg(12, 9, 1.0), leg(20, 17, 2.0)]);
    }

    #[test]
    fn every_leg_runs_one_warmup_plus_runs_per_campaign() {
        let (mut a, mut b) = (0, 0);
        let legs = paired(4, 3, &mut [&mut || a += 1, &mut || b += 1]);
        assert_eq!((a, b), (15, 15));
        assert_eq!(legs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "set MODPEG_BENCH_RUNS to 1 or more")]
    fn zero_runs_is_rejected_by_name() {
        paired(0, 1, &mut [&mut || {}]);
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(Duration::from_millis(1)), "1.00");
        assert_eq!(kib_per_s(1024, Duration::from_secs(1)), "1");
        assert_eq!(pct(1.0123), "+1.23%");
        assert_eq!(pct(0.99), "-1.00%");
    }

    #[test]
    fn knobs_defaults() {
        let k = Knobs::from_env(1000, 3, 5);
        assert!(k.bytes >= 1);
        assert!(k.runs >= 1);
    }

    #[test]
    fn results_json_escapes_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("modpeg-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Env vars are process-global; this is the only test that sets it.
        std::env::set_var("MODPEG_RESULTS_DIR", &dir);
        emit_results_json(
            "fig_test",
            &[("runs", "5".into())],
            &["name", "quoted \"cell\""],
            &[vec!["a\nb".into(), "1.00".into()]],
        );
        std::env::remove_var("MODPEG_RESULTS_DIR");
        let text = std::fs::read_to_string(dir.join("fig_test.json")).unwrap();
        assert!(text.contains("\"figure\": \"fig_test\""), "{text}");
        assert!(text.contains("\\\"cell\\\""), "{text}");
        assert!(text.contains("a\\nb"), "{text}");
        assert!(
            modpeg_telemetry::validate_json(&text).is_ok(),
            "emitted report must be valid JSON: {text}"
        );
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
        );
    }
}
