//! E4 — parser throughput comparison (the paper's Rats!-vs-ANTLR/JavaCC
//! table, with documented stand-ins).
//!
//! Comparators on the same Java-subset inputs:
//!
//! * `generated` — the parser emitted by `modpeg-codegen` (≈ Rats! output),
//! * `interp-full` — the interpreter with all optimizations,
//! * `interp-naive` — the interpreter with none (naïve packrat),
//! * `backtrack` — the memoization-free PEG recognizer,
//! * `handwritten` — the hand-coded lexer + recursive-descent parser
//!   (stand-in for the conventional generated parsers).
//!
//! The three fast parsers are the legs of one `modpeg_bench::paired`
//! call (the crate docs describe the runner); the two slow ones are timed
//! alone, with at most 2 runs each.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 32000), `MODPEG_BENCH_SEEDS` (4),
//! `MODPEG_BENCH_RUNS` (6).

use modpeg_baseline::BacktrackParser;
use modpeg_bench::{kib_per_s, ms, paired, parse_all, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};

fn main() {
    let knobs = Knobs::from_env(32_000, 4, 6);
    println!(
        "E4 — Java-subset parser comparison ({} inputs x {} bytes, median of {} runs)\n",
        knobs.seeds, knobs.bytes, knobs.runs
    );
    let inputs = knobs.inputs(modpeg_workload::java_program);
    let total_bytes: usize = inputs.iter().map(String::len).sum();

    let grammar = GrammarId::Java.elaborate().expect("java elaborates");
    let full = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
    let naive = CompiledGrammar::compile(&grammar, OptConfig::none()).expect("compiles");
    let backtrack = BacktrackParser::new(&grammar);

    let fast = paired(
        knobs.runs,
        1,
        &mut [
            &mut || {
                for i in &inputs {
                    std::hint::black_box(
                        modpeg_baseline::handwritten::parse_java(i).expect("parses"),
                    );
                }
            },
            &mut || parse_all(GrammarId::Java.codegen(), &inputs),
            &mut || parse_all(&full, &inputs),
        ],
    );
    let slow_runs = knobs.runs.min(2);
    let naive_leg = paired(slow_runs, 1, &mut [&mut || parse_all(&naive, &inputs)])[0];
    let backtrack_leg = paired(
        slow_runs,
        1,
        &mut [&mut || {
            for i in &inputs {
                backtrack.recognize(i).expect("parses");
            }
        }],
    )[0];

    let rows: Vec<Vec<String>> = [
        ("handwritten (lexer+RD)", fast[0]),
        ("generated (modpeg-codegen)", fast[1]),
        ("interp, all optimizations", fast[2]),
        ("interp, no optimizations", naive_leg),
        ("backtrack recognizer (no memo)", backtrack_leg),
    ]
    .into_iter()
    .map(|(name, leg)| {
        vec![
            name.to_owned(),
            ms(leg.median),
            kib_per_s(total_bytes, leg.median),
        ]
    })
    .collect();

    modpeg_bench::print_table(&["parser", "ms", "KiB/s"], &rows);
    println!(
        "\nNote: `backtrack` builds no trees (flattering it); `handwritten`\n\
         builds a typed AST; packrat parsers build generic syntax trees."
    );
    modpeg_bench::emit_results_json(
        "table_compare",
        &[
            ("experiment", "E4".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
        ],
        &["parser", "ms", "KiB/s"],
        &rows,
    );
}
