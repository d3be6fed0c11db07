//! E3 — heap utilization versus cumulative optimizations.
//!
//! The heap half of the paper's optimization study. For each cumulative
//! optimization level, report the tracked allocation bytes of one parse:
//! memo-table structure, semantic values, and failure records (the three
//! pools the optimizations attack), plus the memo-entry count.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3).

use modpeg_bench::Knobs;
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig, OPT_COUNT, OPT_NAMES};
use modpeg_runtime::Stats;

fn sweep(label: &str, grammar: &modpeg_core::Grammar, inputs: &[String]) -> Vec<Vec<String>> {
    println!(
        "\n[{label}] heap bytes per parse (averaged over {} inputs)",
        inputs.len()
    );
    let mut rows = Vec::new();
    let mut full_total = 1.0f64;
    let mut collected: Vec<(usize, Stats)> = Vec::new();
    for level in 0..=OPT_COUNT {
        let cfg = OptConfig::cumulative(level);
        let compiled = CompiledGrammar::compile(grammar, cfg).expect("compiles");
        let mut agg = Stats::default();
        for input in inputs {
            let (r, stats) = compiled.parse_with_stats(input);
            r.expect("workload parses");
            agg.absorb(&stats);
        }
        let n = inputs.len() as u64;
        agg.memo_bytes /= n;
        agg.value_bytes /= n;
        agg.failure_bytes /= n;
        agg.memo_stores /= n;
        if level == OPT_COUNT {
            full_total = agg.total_bytes() as f64;
        }
        collected.push((level, agg));
    }
    for (level, agg) in &collected {
        rows.push(vec![
            level.to_string(),
            if *level == 0 {
                "(none)".to_owned()
            } else {
                format!("+{}", OPT_NAMES[level - 1])
            },
            (agg.memo_bytes / 1024).to_string(),
            (agg.value_bytes / 1024).to_string(),
            (agg.failure_bytes / 1024).to_string(),
            (agg.total_bytes() / 1024).to_string(),
            format!("{:.2}x", agg.total_bytes() as f64 / full_total),
            agg.memo_stores.to_string(),
        ]);
    }
    modpeg_bench::print_table(
        &[
            "level",
            "optimization",
            "memo KiB",
            "values KiB",
            "failures KiB",
            "total KiB",
            "vs full",
            "memo stores",
        ],
        &rows,
    );
    rows.into_iter()
        .map(|mut r| {
            r.insert(0, label.to_owned());
            r
        })
        .collect()
}

fn main() {
    let knobs = Knobs::from_env(24_000, 3, 1);
    println!("E3 — heap utilization vs cumulative optimizations");

    let mut all = Vec::new();
    for g in [GrammarId::Java, GrammarId::C] {
        let grammar = g.elaborate().expect("grammar elaborates");
        let inputs = knobs.inputs(|seed, bytes| g.workload(seed, bytes));
        all.extend(sweep(g.name(), &grammar, &inputs));
    }

    modpeg_bench::emit_results_json(
        "fig_heap",
        &[
            ("experiment", "E3".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
        ],
        &[
            "grammar",
            "level",
            "optimization",
            "memo KiB",
            "values KiB",
            "failures KiB",
            "total KiB",
            "vs full",
            "memo stores",
        ],
        &all,
    );
}
