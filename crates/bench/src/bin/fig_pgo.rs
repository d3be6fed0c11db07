//! E15 — profile-guided optimization closes the loop: record a workload
//! profile, derive a [`TuningPlan`], and race the tuned parser against
//! every hand-picked cumulative optimization level.
//!
//! Methodology: **paired-interleaved rounds**, as in E12. Each timed
//! round runs every configuration back-to-back over the whole input set
//! (levels 0..=16 in order, then the tuned interpreter, then the tuned
//! bytecode machine), so drift biases all configurations equally.
//! Medians are taken per configuration across rounds. Before timing,
//! the tuned parsers' trees are checked byte-identical to the untuned
//! reference on every input — a plan must never change what parses.
//!
//! The profile itself is recorded the way `modpeg profile --record`
//! does it: one telemetry-collected parse of the whole input set under
//! `OptConfig::incremental()` (every production memoized, so the tuner
//! sees full memo-table behavior).
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3),
//! `MODPEG_BENCH_RUNS` (5).

use std::time::Duration;

use modpeg_bench::{ms, time_once, Knobs};
use modpeg_core::transform::grammar_fingerprint;
use modpeg_interp::{derive_plan, CompiledGrammar, OptConfig, OPT_COUNT, OPT_NAMES};
use modpeg_runtime::{Engine, ParseRequest};
use modpeg_telemetry::{mask, MetricsRegistry, Telemetry, WorkloadProfile};
use modpeg_vm::VmProgram;

struct Family {
    name: &'static str,
    grammar: fn() -> Result<modpeg_core::Grammar, modpeg_core::Diagnostics>,
    workload: fn(u64, usize) -> String,
}

const FAMILIES: &[Family] = &[
    Family {
        name: "calc",
        grammar: modpeg_grammars::calc_grammar,
        workload: modpeg_workload::calc_expression,
    },
    Family {
        name: "json",
        grammar: modpeg_grammars::json_grammar,
        workload: modpeg_workload::json_document,
    },
    Family {
        name: "java",
        grammar: modpeg_grammars::java_grammar,
        workload: modpeg_workload::java_program,
    },
    Family {
        name: "c",
        grammar: modpeg_grammars::c_grammar,
        workload: modpeg_workload::c_program,
    },
];

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

/// Records the whole input set through the `profile --record` path and
/// derives a plan from it.
fn record_and_tune(
    grammar: &modpeg_core::Grammar,
    name: &str,
    inputs: &[String],
) -> modpeg_core::transform::TuningPlan {
    let recorder =
        CompiledGrammar::compile(grammar, OptConfig::incremental()).expect("compiles");
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
         ({} inputs x {} bytes per grammar, median of {} paired-interleaved rounds;\n\
         tuned trees verified identical to the untuned reference)\n",
        knobs.seeds, knobs.bytes, knobs.runs
    );

    let mut rows = Vec::new();
    for family in FAMILIES {
        let grammar = (family.grammar)().expect("grammar elaborates");
        let inputs: Vec<String> = (0..knobs.seeds)
            .map(|s| (family.workload)(s, knobs.bytes))
            .collect();

        let plan = record_and_tune(&grammar, family.name, &inputs);
        let levels: Vec<CompiledGrammar> = (0..=OPT_COUNT)
            .map(|l| {
                CompiledGrammar::compile(&grammar, OptConfig::cumulative(l)).expect("compiles")
            })
            .collect();
        let tuned = CompiledGrammar::compile_with_plan(&grammar, OptConfig::all(), Some(&plan))
            .expect("plan compiles");
        let tuned_vm = VmProgram::compile_with_plan(&grammar, OptConfig::all(), Some(&plan))
            .expect("tuned bytecode assembles");

        // Identical trees first; a faster wrong parser is no parser.
        for input in &inputs {
            let reference = levels[OPT_COUNT].parse(input).expect("parses").to_sexpr();
            assert_eq!(
                tuned.parse(input).expect("tuned parses").to_sexpr(),
                reference,
                "{}: tuned tree diverged",
                family.name
            );
            assert_eq!(
                tuned_vm.parse(input).expect("tuned vm parses").to_sexpr(),
                reference,
                "{}: tuned vm tree diverged",
                family.name
            );
        }

        // Paired-interleaved timing: one warmup round, then `runs`
        // rounds of every configuration over the whole input set.
        let mut t_levels: Vec<Vec<Duration>> = vec![Vec::new(); OPT_COUNT + 1];
        let mut t_tuned = Vec::with_capacity(knobs.runs);
        let mut t_tuned_vm = Vec::with_capacity(knobs.runs);
        for round in 0..=knobs.runs {
            for (level, compiled) in levels.iter().enumerate() {
                let (d, _) = time_once(|| {
                    for i in &inputs {
                        std::hint::black_box(compiled.parse(i).expect("parses"));
                    }
                });
                if round > 0 {
                    t_levels[level].push(d);
                }
            }
            let (dt, _) = time_once(|| {
                for i in &inputs {
                    std::hint::black_box(tuned.parse(i).expect("parses"));
                }
            });
            let (dv, _) = time_once(|| {
                for i in &inputs {
                    std::hint::black_box(tuned_vm.parse(i).expect("parses"));
                }
            });
            if round > 0 {
                t_tuned.push(dt);
                t_tuned_vm.push(dv);
            }
        }

        let level_medians: Vec<Duration> = t_levels.into_iter().map(median).collect();
        let (best_level, best) = level_medians
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| **d)
            .expect("levels nonempty");
        let full = level_medians[OPT_COUNT];
        let m_tuned = median(t_tuned);
        let m_tuned_vm = median(t_tuned_vm);
        rows.push(vec![
            family.name.to_owned(),
            format!(
                "{best_level} ({})",
                if best_level == 0 { "none" } else { OPT_NAMES[best_level - 1] }
            ),
            ms(*best),
            ms(full),
            ms(m_tuned),
            ms(m_tuned_vm),
            format!("{:.2}x", best.as_secs_f64() / m_tuned.as_secs_f64().max(1e-9)),
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
