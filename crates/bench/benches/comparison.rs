//! Micro-benchmarks backing E4: the parser comparison on a small fixed
//! Java input, timed through `modpeg_bench::paired`. Plain `std::time`
//! harness (`harness = false`), so no external benchmarking dependency is
//! needed.

use modpeg_baseline::BacktrackParser;
use modpeg_bench::{ms, paired, parse_all, print_table};
use modpeg_interp::{CompiledGrammar, OptConfig};

const RUNS: usize = 20;

fn main() {
    let input = modpeg_workload::java_program(2, 4_000);
    let inputs = std::slice::from_ref(&input);
    let grammar = modpeg_grammars::java_grammar().expect("elaborates");
    let full = CompiledGrammar::compile(&grammar, OptConfig::all()).unwrap();
    let backtrack = BacktrackParser::new(&grammar);

    let legs = paired(
        RUNS,
        1,
        &mut [
            &mut || {
                std::hint::black_box(
                    modpeg_baseline::handwritten::parse_java(&input).expect("parses"),
                );
            },
            &mut || parse_all(&modpeg_grammars::generated::java::Generated, inputs),
            &mut || parse_all(&full, inputs),
            &mut || backtrack.recognize(&input).expect("parses"),
        ],
    );
    let rows: Vec<Vec<String>> = ["handwritten", "generated", "interp_full", "backtrack"]
        .iter()
        .zip(&legs)
        .map(|(name, leg)| vec![(*name).to_owned(), ms(leg.median)])
        .collect();
    println!("comparison/java ({} bytes)", input.len());
    print_table(&["parser", "median ms"], &rows);
}
