//! Benchmarks for the *generator* itself: module parsing, elaboration,
//! optimization/compilation, and Rust-code emission for the Java-subset
//! grammar — the toolchain-latency numbers a Rats! user experiences at
//! build time, timed through `modpeg_bench::paired`. Plain `std::time`
//! harness (`harness = false`), so no external benchmarking dependency is
//! needed.

use std::hint::black_box;

use modpeg_bench::{ms, paired, print_table};
use modpeg_interp::{CompiledGrammar, OptConfig};

const RUNS: usize = 20;

fn main() {
    let src = modpeg_grammars::sources::JAVA;
    let set = modpeg_syntax::parse_module_set([src]).unwrap();
    let grammar = modpeg_grammars::java_grammar().unwrap();

    let legs = paired(
        RUNS,
        1,
        &mut [
            &mut || {
                black_box(modpeg_syntax::parse_modules(src).expect("parses"));
            },
            &mut || {
                black_box(
                    set.elaborate("java.Program", Some("Program"))
                        .expect("elaborates"),
                );
            },
            &mut || {
                black_box(CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles"));
            },
            &mut || {
                black_box(modpeg_codegen::generate(&grammar, "bench").expect("emits"));
            },
        ],
    );
    let rows: Vec<Vec<String>> = [
        "parse_modules",
        "elaborate",
        "compile_all_opts",
        "codegen_emit",
    ]
    .iter()
    .zip(&legs)
    .map(|(stage, leg)| vec![(*stage).to_owned(), ms(leg.median)])
    .collect();
    println!("generation/java");
    print_table(&["stage", "median ms"], &rows);
}
