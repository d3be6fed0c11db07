//! E10 — resource-governance guard overhead.
//!
//! Governed requests thread a fuel/deadline/depth/memo guard
//! through every production application and repetition iteration. This
//! experiment measures what those guards cost when nothing trips: the same
//! Java workload is parsed ungoverned and under (a) a fully unlimited
//! governor and (b) a governor with every limit set generously enough to
//! never fire — the realistic untrusted-input configuration (fuel
//! decrement + stride-polled deadline). The acceptance bar is <2% median
//! overhead on the 128 KiB Java workload.
//!
//! Methodology: the three variants are timed *interleaved* within each
//! iteration, with the execution order rotated every iteration, and each
//! engine is measured over several independent campaigns with the heap
//! layout perturbed in between. The reported overhead is the median over
//! campaigns of the per-campaign median paired ratio. Back-to-back blocks
//! would fold slow CPU-frequency drift into the comparison; pairing cancels
//! fast noise, rotation cancels within-iteration drift, and the campaign
//! median defends against sustained bias from one unlucky
//! allocation/alias layout. A best-time ratio (min governed / min
//! ungoverned across all campaigns) is reported alongside as a cross-check:
//! interference is strictly additive, so the minima converge on the true
//! costs even on a noisy machine.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 131072), `MODPEG_BENCH_SEEDS` (1),
//! `MODPEG_BENCH_RUNS` (21, per campaign).

use std::time::{Duration, Instant};

use modpeg_bench::{ms, Knobs};
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{Engine, Governor, ParseRequest};

fn generous() -> Governor {
    Governor::new()
        .with_fuel(u64::MAX / 2)
        .with_deadline(Duration::from_secs(3600))
        .with_max_depth(8192)
        .with_memo_budget(u64::MAX / 2)
}

/// Per-variant summary of one interleaved measurement campaign.
struct Measurement {
    /// Median times: [base, governed, all-limits].
    medians: [Duration; 3],
    /// Minimum times: [base, governed, all-limits].
    mins: [Duration; 3],
    /// Median paired ratios vs base: [governed, all-limits].
    paired: [f64; 2],
}

impl Measurement {
    /// Best-time ratio of variant `i` vs base.
    fn best(&self, i: usize) -> f64 {
        self.mins[i].as_secs_f64() / self.mins[0].as_secs_f64()
    }
}

/// Times the three variants interleaved, rotating the execution order every
/// iteration.
fn measure(
    runs: usize,
    mut base: impl FnMut(),
    mut governed: impl FnMut(),
    mut limited: impl FnMut(),
) -> Measurement {
    base();
    governed();
    limited(); // warmup
    let mut samples: [Vec<Duration>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut r_gov = Vec::with_capacity(runs);
    let mut r_lim = Vec::with_capacity(runs);
    let mut variants: [(usize, &mut dyn FnMut()); 3] =
        [(0, &mut base), (1, &mut governed), (2, &mut limited)];
    for i in 0..runs {
        let mut iter_times = [Duration::ZERO; 3];
        for k in 0..3 {
            let (slot, f) = &mut variants[(i + k) % 3];
            let t0 = Instant::now();
            f();
            iter_times[*slot] = t0.elapsed();
        }
        r_gov.push(iter_times[1].as_secs_f64() / iter_times[0].as_secs_f64());
        r_lim.push(iter_times[2].as_secs_f64() / iter_times[0].as_secs_f64());
        for (slot, t) in iter_times.iter().enumerate() {
            samples[slot].push(*t);
        }
    }
    for s in &mut samples {
        s.sort_unstable();
    }
    r_gov.sort_by(f64::total_cmp);
    r_lim.sort_by(f64::total_cmp);
    Measurement {
        medians: [
            samples[0][runs / 2],
            samples[1][runs / 2],
            samples[2][runs / 2],
        ],
        mins: [samples[0][0], samples[1][0], samples[2][0]],
        paired: [r_gov[runs / 2], r_lim[runs / 2]],
    }
}

const CAMPAIGNS: usize = 5;

/// Runs `CAMPAIGNS` independent campaigns, perturbing the heap layout in
/// between, and aggregates: median-of-medians for times and paired ratios,
/// min-of-mins for the best-time ratios.
fn campaign(
    runs: usize,
    mut base: impl FnMut(),
    mut governed: impl FnMut(),
    mut limited: impl FnMut(),
) -> Measurement {
    let mut all: Vec<Measurement> = Vec::with_capacity(CAMPAIGNS);
    for i in 0..CAMPAIGNS {
        // Leaking an odd-sized block shifts every allocation the next
        // campaign makes, so a branch-alias or cache-placement accident in
        // one layout cannot dominate the verdict.
        std::mem::forget(vec![0u8; 4096 * i + 1361]);
        all.push(measure(runs, &mut base, &mut governed, &mut limited));
    }
    let med_dur = |pick: &dyn Fn(&Measurement) -> Duration| {
        let mut v: Vec<Duration> = all.iter().map(pick).collect();
        v.sort_unstable();
        v[v.len() / 2]
    };
    let med_f64 = |pick: &dyn Fn(&Measurement) -> f64| {
        let mut v: Vec<f64> = all.iter().map(pick).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let min_dur = |i: usize| all.iter().map(|m| m.mins[i]).min().expect("campaigns");
    Measurement {
        medians: [
            med_dur(&|m| m.medians[0]),
            med_dur(&|m| m.medians[1]),
            med_dur(&|m| m.medians[2]),
        ],
        mins: [min_dur(0), min_dur(1), min_dur(2)],
        paired: [med_f64(&|m| m.paired[0]), med_f64(&|m| m.paired[1])],
    }
}

fn pct(ratio: f64) -> String {
    format!("{:+.2}%", (ratio - 1.0) * 100.0)
}

fn main() {
    let knobs = Knobs::from_env(131_072, 1, 21);
    let inputs: Vec<String> = (0..knobs.seeds)
        .map(|seed| modpeg_workload::java_program(seed, knobs.bytes))
        .collect();
    let total: usize = inputs.iter().map(String::len).sum();
    println!(
        "[governor overhead] java x {} inputs, {} bytes total, {} campaigns x {} paired runs",
        inputs.len(),
        total,
        CAMPAIGNS,
        knobs.runs
    );

    let grammar = modpeg_grammars::java_grammar().expect("java grammar elaborates");
    let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");

    let mut rows: Vec<Vec<String>> = Vec::new();
    let row = |name: &str, m: &Measurement| {
        vec![
            name.to_owned(),
            ms(m.medians[0]),
            ms(m.medians[1]),
            pct(m.paired[0]),
            pct(m.best(1)),
            ms(m.medians[2]),
            pct(m.paired[1]),
            pct(m.best(2)),
        ]
    };

    let m = campaign(
        knobs.runs,
        || {
            for input in &inputs {
                std::hint::black_box(interp.parse(input).expect("workload parses"));
            }
        },
        || {
            for input in &inputs {
                let gov = Governor::new();
                let (r, _) = interp.run(input, ParseRequest::tree().governed(&gov));
                std::hint::black_box(r.expect("workload parses governed"));
            }
        },
        || {
            for input in &inputs {
                let gov = generous();
                let (r, _) = interp.run(input, ParseRequest::tree().governed(&gov));
                std::hint::black_box(r.expect("workload parses under generous limits"));
            }
        },
    );
    rows.push(row("interp (all opts)", &m));

    let m = campaign(
        knobs.runs,
        || {
            for input in &inputs {
                std::hint::black_box(
                    modpeg_grammars::generated::java::parse(input).expect("workload parses"),
                );
            }
        },
        || {
            for input in &inputs {
                let gov = Governor::new();
                let (r, _) = modpeg_grammars::generated::java::run(
                    input,
                    ParseRequest::tree().governed(&gov),
                );
                std::hint::black_box(r.expect("workload parses governed"));
            }
        },
        || {
            for input in &inputs {
                let gov = generous();
                let (r, _) = modpeg_grammars::generated::java::run(
                    input,
                    ParseRequest::tree().governed(&gov),
                );
                std::hint::black_box(r.expect("workload parses under generous limits"));
            }
        },
    );
    rows.push(row("codegen", &m));

    let headers = [
        "engine",
        "ungoverned ms",
        "governed ms",
        "overhead",
        "best-ratio",
        "all-limits ms",
        "overhead",
        "best-ratio",
    ];
    modpeg_bench::print_table(&headers, &rows);
    println!("\nacceptance bar: <2% median paired overhead (governed vs ungoverned)");
    modpeg_bench::emit_results_json(
        "fig_governor_overhead",
        &[
            ("experiment", "E10".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
            ("campaigns", CAMPAIGNS.to_string()),
        ],
        &headers,
        &rows,
    );
}
