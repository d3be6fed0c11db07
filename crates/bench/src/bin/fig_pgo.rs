//! E15 — profile-guided optimization closes the loop: record a workload
//! profile, derive a [`TuningPlan`], and race the tuned parser against
//! every hand-picked cumulative optimization level.
//!
//! Levels 0..=16, the tuned interpreter and the tuned bytecode machine
//! are the 19 legs of one `modpeg_bench::paired` call per grammar (the
//! crate docs describe the runner). Before timing, the tuned parsers'
//! trees are checked byte-identical to the untuned reference on every
//! input — a plan must never change what parses.
//!
//! The profile itself is recorded the way `modpeg profile --record`
//! does it: one telemetry-collected parse of the whole input set under
//! `OptConfig::incremental()` (every production memoized, so the tuner
//! sees full memo-table behavior).
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3),
//! `MODPEG_BENCH_RUNS` (5).

use modpeg_bench::{assert_same_trees, ms, paired_trees, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_core::transform::grammar_fingerprint;
use modpeg_interp::{derive_plan, CompiledGrammar, OptConfig, OPT_COUNT, OPT_NAMES};
use modpeg_runtime::{Engine, ParseRequest};
use modpeg_telemetry::{mask, MetricsRegistry, Telemetry, WorkloadProfile};
use modpeg_vm::VmProgram;

/// Records the whole input set through the `profile --record` path and
/// derives a plan from it.
fn record_and_tune(
    grammar: &modpeg_core::Grammar,
    name: &str,
    inputs: &[String],
) -> modpeg_core::transform::TuningPlan {
    let recorder = CompiledGrammar::compile(grammar, OptConfig::incremental()).expect("compiles");
    let telem = Telemetry::collector(1 << 24).with_mask(mask::ALL);
    for input in inputs {
        let _ = recorder.run(input, ParseRequest::tree().with_telemetry(&telem));
    }
    let registry = MetricsRegistry::from_report(&telem.take_report());
    let profile = WorkloadProfile::from_registry(
        &registry,
        grammar_fingerprint(grammar),
        name,
        "interp",
        inputs.iter().map(String::len).sum::<usize>() as u64,
    );
    assert!(profile.complete(), "{name}: recording collector overflowed");
    derive_plan(&profile, grammar).expect("tuner accepts its own recording")
}

fn main() {
    let knobs = Knobs::from_env(24_000, 3, 5);
    println!(
        "E15 — profile-guided optimization vs hand-picked cumulative levels\n\
         ({} inputs x {} bytes per grammar, median of {} paired runs;\n\
         tuned trees verified identical to the untuned reference)\n",
        knobs.seeds, knobs.bytes, knobs.runs
    );

    let mut rows = Vec::new();
    for g in GrammarId::ALL {
        let grammar = g.elaborate().expect("grammar elaborates");
        let inputs = knobs.inputs(|seed, bytes| g.workload(seed, bytes));

        let plan = record_and_tune(&grammar, g.name(), &inputs);
        let levels: Vec<CompiledGrammar> = (0..=OPT_COUNT)
            .map(|l| {
                CompiledGrammar::compile(&grammar, OptConfig::cumulative(l)).expect("compiles")
            })
            .collect();
        let tuned = CompiledGrammar::compile_with_plan(&grammar, OptConfig::all(), Some(&plan))
            .expect("plan compiles");
        let tuned_vm = VmProgram::compile_with_plan(&grammar, OptConfig::all(), Some(&plan))
            .expect("tuned bytecode assembles");

        assert_same_trees(g.name(), &[&levels[OPT_COUNT], &tuned, &tuned_vm], &inputs);
        let engines: Vec<&dyn Engine> = levels
            .iter()
            .map(|l| l as &dyn Engine)
            .chain([&tuned as &dyn Engine, &tuned_vm])
            .collect();
        let legs = paired_trees(knobs.runs, &engines, &inputs);

        let (best_level, best) = legs[..=OPT_COUNT]
            .iter()
            .map(|leg| leg.median)
            .enumerate()
            .min_by_key(|&(_, d)| d)
            .expect("levels nonempty");
        let full = legs[OPT_COUNT].median;
        let m_tuned = legs[OPT_COUNT + 1].median;
        let m_tuned_vm = legs[OPT_COUNT + 2].median;
        rows.push(vec![
            g.name().to_owned(),
            format!(
                "{best_level} ({})",
                if best_level == 0 {
                    "none"
                } else {
                    OPT_NAMES[best_level - 1]
                }
            ),
            ms(best),
            ms(full),
            ms(m_tuned),
            ms(m_tuned_vm),
            format!(
                "{:.2}x",
                best.as_secs_f64() / m_tuned.as_secs_f64().max(1e-9)
            ),
            format!(
                "{}m/{}t/{}i",
                plan.memoize.len(),
                plan.transient.len(),
                plan.inline.len()
            ),
        ]);
    }

    let headers = [
        "grammar",
        "best level",
        "best ms",
        "full ms",
        "tuned ms",
        "tuned-vm ms",
        "best/tuned",
        "plan",
    ];
    modpeg_bench::print_table(&headers, &rows);
    println!(
        "\n`best/tuned` >= 1 means the profile-derived plan matches or beats the\n\
         best hand-picked cumulative level for that grammar; `plan` counts the\n\
         productions forced memoized / transient / inlined by the tuner."
    );
    modpeg_bench::emit_results_json(
        "fig_pgo",
        &[
            ("experiment", "E15".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
        ],
        &headers,
        &rows,
    );
}
