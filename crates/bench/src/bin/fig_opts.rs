//! E2 — parse time versus cumulative optimizations.
//!
//! Reconstructs the paper's headline figure: starting from the naïve
//! packrat parser (no optimizations), enable the 16 optimizations one at a
//! time in the canonical order and measure parse latency on synthetic Java
//! and C workloads. The output is one row per optimization level with the
//! median latency and its value normalized to the fully optimized parser
//! (level 16 = 1.0). `MODPEG_BENCH_MODE=loo` runs the leave-one-out
//! ablation instead: all optimizations, then all minus each one,
//! normalized to all.
//!
//! The 17 configurations of a grammar are the legs of one
//! `modpeg_bench::paired` call (the crate docs describe the runner).
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3),
//! `MODPEG_BENCH_RUNS` (3).

use modpeg_bench::{ms, paired_trees, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig, OPT_COUNT, OPT_NAMES};
use modpeg_runtime::Engine;

fn main() {
    let knobs = Knobs::from_env(24_000, 3, 3);
    let loo = std::env::var("MODPEG_BENCH_MODE").is_ok_and(|m| m == "loo");
    println!(
        "E2 — parse time vs optimizations ({})",
        if loo {
            "leave-one-out ablation"
        } else {
            "cumulative"
        }
    );

    // Each leg's label and configuration, and the leg the others are
    // normalized to.
    let (configs, reference): (Vec<(String, OptConfig)>, usize) = if loo {
        let minus_one = OPT_NAMES.iter().map(|name| {
            (
                format!("-{name}"),
                OptConfig::all_except(name).expect("known name"),
            )
        });
        let all = std::iter::once(("(all)".to_owned(), OptConfig::all()));
        (all.chain(minus_one).collect(), 0)
    } else {
        let levels = (0..=OPT_COUNT).map(|level| {
            let label = match level {
                0 => "(none)".to_owned(),
                _ => format!("+{}", OPT_NAMES[level - 1]),
            };
            (label, OptConfig::cumulative(level))
        });
        (levels.collect(), OPT_COUNT)
    };
    let headers: &[&str] = if loo {
        &["grammar", "configuration", "ms", "vs all"]
    } else {
        &["grammar", "level", "optimization", "ms", "vs full"]
    };

    let mut all = Vec::new();
    for g in [GrammarId::Java, GrammarId::C] {
        let grammar = g.elaborate().expect("grammar elaborates");
        let inputs = knobs.inputs(|seed, bytes| g.workload(seed, bytes));
        let compiled: Vec<CompiledGrammar> = configs
            .iter()
            .map(|(_, cfg)| CompiledGrammar::compile(&grammar, *cfg).expect("compiles"))
            .collect();
        let engines: Vec<&dyn Engine> = compiled.iter().map(|c| c as &dyn Engine).collect();
        println!(
            "\n[{}] {} inputs x {} bytes, median of {} paired runs",
            g.name(),
            inputs.len(),
            knobs.bytes,
            knobs.runs
        );
        let legs = paired_trees(knobs.runs, &engines, &inputs);
        let base = legs[reference].median.as_secs_f64();
        let rows: Vec<Vec<String>> = configs
            .iter()
            .zip(&legs)
            .enumerate()
            .map(|(level, ((label, _), leg))| {
                let mut row = if loo { vec![] } else { vec![level.to_string()] };
                row.push(label.clone());
                row.push(ms(leg.median));
                row.push(format!("{:.2}x", leg.median.as_secs_f64() / base));
                row
            })
            .collect();
        modpeg_bench::print_table(&headers[1..], &rows);
        all.extend(rows.into_iter().map(|mut r| {
            r.insert(0, g.name().to_owned());
            r
        }));
    }

    modpeg_bench::emit_results_json(
        if loo { "fig_opts_loo" } else { "fig_opts" },
        &[
            ("experiment", "E2".to_owned()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
        ],
        headers,
        &all,
    );
}
