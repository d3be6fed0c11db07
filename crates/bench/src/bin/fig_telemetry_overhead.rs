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
//! The four variants are the legs of one `modpeg_bench::paired` call per
//! engine over 5 heap-perturbed campaigns (the crate docs describe the
//! runner). Its schedule matters here: a fixed rotation would give each
//! variant a constant predecessor, and the full collector's ~16 MiB of
//! event traffic would then bias whichever variant always runs in its
//! cache shadow. Every variant also parses through the one shared
//! `#[inline(never)]` [`parse_with`], so only the handle differs.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 131072), `MODPEG_BENCH_SEEDS` (1),
//! `MODPEG_BENCH_RUNS` (24 per campaign, a multiple of the 4 orders).

use modpeg_bench::{ms, paired, pct, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{Engine, ParseRequest};
use modpeg_telemetry::Telemetry;

/// Event-buffer cap for the enabled variants. Large enough that the
/// sampled variant never drops; the full variant may drop past this and
/// the drop counter path is itself part of the measured cost.
const TELEM_CAP: usize = 1 << 20;

const CAMPAIGNS: usize = 5;

/// Parses every input on `engine`, with `telem` attached when given.
#[inline(never)]
fn parse_with(engine: &dyn Engine, inputs: &[String], telem: Option<&Telemetry>) {
    for input in inputs {
        let mut req = ParseRequest::tree();
        req.telemetry = telem;
        let (r, _) = engine.run(input, req);
        std::hint::black_box(r.expect("workload parses"));
    }
}

fn main() {
    let knobs = Knobs::from_env(131_072, 1, 24);
    let inputs = knobs.inputs(modpeg_workload::java_program);
    let total: usize = inputs.iter().map(String::len).sum();
    println!(
        "[telemetry overhead] java x {} inputs, {} bytes total, {} campaigns x {} paired runs",
        inputs.len(),
        total,
        CAMPAIGNS,
        knobs.runs
    );

    let grammar = GrammarId::Java
        .elaborate()
        .expect("java grammar elaborates");
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
    for (name, engine) in [
        ("interp (all opts)", &interp as &dyn Engine),
        ("codegen", GrammarId::Java.codegen()),
    ] {
        let legs = paired(
            knobs.runs,
            CAMPAIGNS,
            &mut [
                // The default path sends no handle at all.
                &mut || parse_with(engine, &inputs, None),
                &mut || parse_with(engine, &inputs, Some(&Telemetry::disabled())),
                &mut || {
                    let telem = Telemetry::collector(TELEM_CAP).with_sampling(64);
                    parse_with(engine, &inputs, Some(&telem));
                },
                &mut || parse_with(engine, &inputs, Some(&Telemetry::collector(TELEM_CAP))),
            ],
        );
        rows.push(vec![
            name.to_owned(),
            ms(legs[0].median),
            ms(legs[1].median),
            pct(legs[1].paired),
            pct(legs[1].min.as_secs_f64() / legs[0].min.as_secs_f64()),
            ms(legs[2].median),
            pct(legs[2].paired),
            ms(legs[3].median),
            pct(legs[3].paired),
        ]);
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
