//! E11 — telemetry hook overhead.
//!
//! Every parse routes through telemetry hooks: a request without a
//! handle leaves the run's disabled [`Telemetry`] in place, whose hooks
//! reduce to a single branch on a cached `enabled` flag. This experiment
//! measures what that costs when telemetry is off, and what a user pays
//! when it is on: the same Java workload is parsed (a) through the
//! default path (no handle in the request), (b) with an explicitly
//! constructed disabled handle, (c) with a collector sampling 1-in-64
//! production spans, and (d) with a full collector recording every event
//! kind. The acceptance bar is <1% median paired overhead for the disabled
//! handle on the 128 KiB Java workload; (a) vs (b) also bounds the noise
//! floor of the harness itself since both compile to the same hook checks.
//!
//! Methodology (E10's pairing, hardened for four variants): the variants
//! are timed *interleaved* within each iteration, with the execution order
//! cycling through all 24 permutations of the four variants so every
//! variant sees every predecessor equally often — a fixed rotation would
//! give each variant a constant predecessor, and the full collector's
//! ~16 MiB of event traffic would then bias whichever variant always runs
//! in its cache shadow. All variants are dispatched through one shared
//! `#[inline(never)]` runner so per-variant closure code layout cannot
//! skew the comparison either. Campaigns repeat the measurement with the
//! heap layout perturbed in between; the reported overhead is the median
//! over campaigns of the per-campaign median paired ratio, with a
//! best-time ratio (min variant / min base across all campaigns) as a
//! cross-check, since interference is strictly additive and the minima
//! converge on true cost.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 131072), `MODPEG_BENCH_SEEDS` (1),
//! `MODPEG_BENCH_RUNS` (24, per campaign — a multiple of 24 keeps the
//! permutation schedule balanced).

use std::time::{Duration, Instant};

use modpeg_bench::{ms, Knobs};
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{Engine, ParseRequest};
use modpeg_telemetry::Telemetry;

/// Event-buffer cap for the enabled variants. Large enough that the
/// sampled variant never drops; the full variant may drop past this and
/// the drop counter path is itself part of the measured cost.
const TELEM_CAP: usize = 1 << 20;

const VARIANTS: usize = 4;
const CAMPAIGNS: usize = 5;

/// Per-campaign summary of one interleaved measurement.
struct Measurement {
    /// Median times per variant: [base, disabled, sampled, full].
    medians: [Duration; VARIANTS],
    /// Minimum times per variant.
    mins: [Duration; VARIANTS],
    /// Median paired ratios vs base: [disabled, sampled, full].
    paired: [f64; VARIANTS - 1],
}

impl Measurement {
    /// Best-time ratio of variant `i` vs base.
    fn best(&self, i: usize) -> f64 {
        self.mins[i].as_secs_f64() / self.mins[0].as_secs_f64()
    }
}

/// All permutations of `0..VARIANTS`, generated with Heap's algorithm.
/// Cycling through them gives every variant every predecessor equally
/// often, so one variant's cache footprint cannot systematically shadow
/// another.
fn permutations() -> Vec<[usize; VARIANTS]> {
    let mut out = Vec::new();
    let mut a: [usize; VARIANTS] = std::array::from_fn(|i| i);
    fn heap(k: usize, a: &mut [usize; VARIANTS], out: &mut Vec<[usize; VARIANTS]>) {
        if k == 1 {
            out.push(*a);
            return;
        }
        for i in 0..k {
            heap(k - 1, a, out);
            if k.is_multiple_of(2) {
                a.swap(i, k - 1);
            } else {
                a.swap(0, k - 1);
            }
        }
    }
    heap(VARIANTS, &mut a, &mut out);
    out
}

/// Times the variants interleaved, cycling the execution order through
/// every permutation.
fn measure(runs: usize, variants: &mut [&mut dyn FnMut(); VARIANTS]) -> Measurement {
    for f in variants.iter_mut() {
        f(); // warmup
    }
    let perms = permutations();
    let mut samples: [Vec<Duration>; VARIANTS] = std::array::from_fn(|_| Vec::new());
    let mut ratios: [Vec<f64>; VARIANTS - 1] = std::array::from_fn(|_| Vec::new());
    for i in 0..runs {
        let mut iter_times = [Duration::ZERO; VARIANTS];
        for &slot in &perms[i % perms.len()] {
            let t0 = Instant::now();
            variants[slot]();
            iter_times[slot] = t0.elapsed();
        }
        let base = iter_times[0].as_secs_f64();
        for v in 1..VARIANTS {
            ratios[v - 1].push(iter_times[v].as_secs_f64() / base);
        }
        for (slot, t) in iter_times.iter().enumerate() {
            samples[slot].push(*t);
        }
    }
    for s in &mut samples {
        s.sort_unstable();
    }
    for r in &mut ratios {
        r.sort_by(f64::total_cmp);
    }
    Measurement {
        medians: std::array::from_fn(|v| samples[v][runs / 2]),
        mins: std::array::from_fn(|v| samples[v][0]),
        paired: std::array::from_fn(|v| ratios[v][runs / 2]),
    }
}

/// Runs `CAMPAIGNS` independent campaigns, perturbing the heap layout in
/// between, and aggregates: median-of-medians for times and paired ratios,
/// min-of-mins for the best-time ratios.
fn campaign(runs: usize, variants: &mut [&mut dyn FnMut(); VARIANTS]) -> Measurement {
    let mut all: Vec<Measurement> = Vec::with_capacity(CAMPAIGNS);
    for i in 0..CAMPAIGNS {
        // Leaking an odd-sized block shifts every allocation the next
        // campaign makes, so a branch-alias or cache-placement accident in
        // one layout cannot dominate the verdict.
        std::mem::forget(vec![0u8; 4096 * i + 1361]);
        all.push(measure(runs, variants));
    }
    let med_dur = |v: usize| {
        let mut xs: Vec<Duration> = all.iter().map(|m| m.medians[v]).collect();
        xs.sort_unstable();
        xs[xs.len() / 2]
    };
    let med_f64 = |v: usize| {
        let mut xs: Vec<f64> = all.iter().map(|m| m.paired[v]).collect();
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let min_dur = |v: usize| all.iter().map(|m| m.mins[v]).min().expect("campaigns");
    Measurement {
        medians: std::array::from_fn(med_dur),
        mins: std::array::from_fn(min_dur),
        paired: std::array::from_fn(med_f64),
    }
}

fn pct(ratio: f64) -> String {
    format!("{:+.2}%", (ratio - 1.0) * 100.0)
}

fn main() {
    let knobs = Knobs::from_env(131_072, 1, 24);
    let inputs: Vec<String> = (0..knobs.seeds)
        .map(|seed| modpeg_workload::java_program(seed, knobs.bytes))
        .collect();
    let total: usize = inputs.iter().map(String::len).sum();
    println!(
        "[telemetry overhead] java x {} inputs, {} bytes total, {} campaigns x {} paired runs",
        inputs.len(),
        total,
        CAMPAIGNS,
        knobs.runs
    );

    let grammar = modpeg_grammars::java_grammar().expect("java grammar elaborates");
    let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");

    // Report how much a full collector actually sees on this workload, so
    // the "full" column can be read against its event volume.
    let probe = Telemetry::collector(TELEM_CAP);
    let _ = interp.run(&inputs[0], ParseRequest::tree().with_telemetry(&probe));
    let report = probe.take_report();
    println!(
        "full collector on input 0: {} events recorded, {} dropped (cap {})",
        report.events.len(),
        report.dropped,
        TELEM_CAP
    );

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
            ms(m.medians[3]),
            pct(m.paired[2]),
        ]
    };

    {
        // One runner shared by every variant: the parse-dominated body is
        // the same machine code regardless of variant, so only the handle
        // configuration differs.
        #[inline(never)]
        fn run_interp(interp: &CompiledGrammar, inputs: &[String], telem: Option<&Telemetry>) {
            for input in inputs {
                let mut req = ParseRequest::tree();
                req.telemetry = telem;
                let (r, _) = interp.run(input, req);
                std::hint::black_box(r.expect("workload parses"));
            }
        }
        let interp = &interp;
        let inputs = &inputs;
        // The default path (`parse_with_stats`) sends no handle at all.
        let mut base = || run_interp(interp, inputs, None);
        let mut disabled = || {
            let telem = Telemetry::disabled();
            run_interp(interp, inputs, Some(&telem));
        };
        let mut sampled = || {
            let telem = Telemetry::collector(TELEM_CAP).with_sampling(64);
            run_interp(interp, inputs, Some(&telem));
        };
        let mut full = || {
            let telem = Telemetry::collector(TELEM_CAP);
            run_interp(interp, inputs, Some(&telem));
        };
        let m = campaign(
            knobs.runs,
            &mut [&mut base, &mut disabled, &mut sampled, &mut full],
        );
        rows.push(row("interp (all opts)", &m));
    }

    {
        use modpeg_grammars::generated::java;
        #[inline(never)]
        fn run_codegen(inputs: &[String], telem: Option<&Telemetry>) {
            for input in inputs {
                let mut req = ParseRequest::tree();
                req.telemetry = telem;
                let (r, _) = java::run(input, req);
                std::hint::black_box(r.expect("workload parses"));
            }
        }
        let inputs = &inputs;
        let mut base = || run_codegen(inputs, None);
        let mut disabled = || {
            let telem = Telemetry::disabled();
            run_codegen(inputs, Some(&telem));
        };
        let mut sampled = || {
            let telem = Telemetry::collector(TELEM_CAP).with_sampling(64);
            run_codegen(inputs, Some(&telem));
        };
        let mut full = || {
            let telem = Telemetry::collector(TELEM_CAP);
            run_codegen(inputs, Some(&telem));
        };
        let m = campaign(
            knobs.runs,
            &mut [&mut base, &mut disabled, &mut sampled, &mut full],
        );
        rows.push(row("codegen", &m));
    }

    let headers = [
        "engine",
        "base ms",
        "disabled ms",
        "overhead",
        "best-ratio",
        "sampled/64 ms",
        "overhead",
        "full ms",
        "overhead",
    ];
    modpeg_bench::print_table(&headers, &rows);
    println!("\nacceptance bar: <1% median paired overhead (disabled telemetry vs default path)");
    modpeg_bench::emit_results_json(
        "fig_telemetry_overhead",
        &[
            ("experiment", "E11".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
            ("campaigns", CAMPAIGNS.to_string()),
        ],
        &headers,
        &rows,
    );
}
