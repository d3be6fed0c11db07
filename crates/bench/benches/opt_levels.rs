//! Micro-benchmarks backing E2: parse latency at selected cumulative
//! optimization levels (0 = naive packrat, …, 16 = full) on small fixed
//! Java and C inputs, each grammar's levels the legs of one
//! `modpeg_bench::paired` call. Plain `std::time` harness
//! (`harness = false`), so no external benchmarking dependency is needed.

use modpeg_bench::{ms, paired_trees, print_table};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::Engine;

const RUNS: usize = 20;

fn main() {
    for (g, levels) in [
        (GrammarId::Java, &[0usize, 6, 10, 13, 16][..]),
        (GrammarId::C, &[0, 10, 16]),
    ] {
        let grammar = g.elaborate().expect("elaborates");
        let input = g.workload(1, 4_000);
        let compiled: Vec<CompiledGrammar> = levels
            .iter()
            .map(|&l| CompiledGrammar::compile(&grammar, OptConfig::cumulative(l)).unwrap())
            .collect();
        let engines: Vec<&dyn Engine> = compiled.iter().map(|c| c as &dyn Engine).collect();
        let legs = paired_trees(RUNS, &engines, std::slice::from_ref(&input));
        let rows: Vec<Vec<String>> = levels
            .iter()
            .zip(&legs)
            .map(|(level, leg)| vec![format!("O{level}"), ms(leg.median)])
            .collect();
        println!("opt_levels/{} ({} bytes)", g.name(), input.len());
        print_table(&["level", "median ms"], &rows);
        println!();
    }
}
