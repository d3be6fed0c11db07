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
//! The three variants are the legs of one `modpeg_bench::paired` call
//! per engine over 5 heap-perturbed campaigns (the crate docs describe
//! the runner). The overhead is the median paired ratio against the
//! ungoverned leg; the best-ratio column (min governed / min ungoverned)
//! cross-checks it.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 131072), `MODPEG_BENCH_SEEDS` (1),
//! `MODPEG_BENCH_RUNS` (24 per campaign, a multiple of the 6 orders).

use std::time::Duration;

use modpeg_bench::{ms, paired, parse_all, pct, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{Engine, Governor, ParseRequest};

const CAMPAIGNS: usize = 5;

fn generous() -> Governor {
    Governor::new()
        .with_fuel(u64::MAX / 2)
        .with_deadline(Duration::from_secs(3600))
        .with_max_depth(8192)
        .with_memo_budget(u64::MAX / 2)
}

/// Parses every input on `engine` under a fresh governor from `governor`.
fn parse_governed(engine: &dyn Engine, inputs: &[String], governor: fn() -> Governor) {
    for input in inputs {
        let gov = governor();
        let (r, _) = engine.run(input, ParseRequest::tree().governed(&gov));
        std::hint::black_box(r.expect("workload parses governed"));
    }
}

fn main() {
    let knobs = Knobs::from_env(131_072, 1, 24);
    let inputs = knobs.inputs(modpeg_workload::java_program);
    let total: usize = inputs.iter().map(String::len).sum();
    println!(
        "[governor overhead] java x {} inputs, {} bytes total, {} campaigns x {} paired runs",
        inputs.len(),
        total,
        CAMPAIGNS,
        knobs.runs
    );

    let grammar = GrammarId::Java
        .elaborate()
        .expect("java grammar elaborates");
    let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, engine) in [
        ("interp (all opts)", &interp as &dyn Engine),
        ("codegen", GrammarId::Java.codegen()),
    ] {
        let legs = paired(
            knobs.runs,
            CAMPAIGNS,
            &mut [
                &mut || parse_all(engine, &inputs),
                &mut || parse_governed(engine, &inputs, Governor::new),
                &mut || parse_governed(engine, &inputs, generous),
            ],
        );
        let best = |i: usize| legs[i].min.as_secs_f64() / legs[0].min.as_secs_f64();
        rows.push(vec![
            name.to_owned(),
            ms(legs[0].median),
            ms(legs[1].median),
            pct(legs[1].paired),
            pct(best(1)),
            ms(legs[2].median),
            pct(legs[2].paired),
            pct(best(2)),
        ]);
    }

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
