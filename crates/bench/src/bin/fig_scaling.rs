//! E5 — linear-time scaling and the backtracking blowup.
//!
//! Two series:
//!
//! 1. **Linearity.** Parse time of the fully optimized packrat parser on
//!    Java inputs of doubling size — the ratio column should hover around
//!    2.0 (linear) as the paper's packrat guarantee predicts.
//! 2. **Blowup.** The pathological grammar `S ← "a" S "b" / "a" S "c" / "a"`
//!    on inputs of growing length: the packrat parser rejects in linear
//!    time while the memoization-free recognizer's work doubles per
//!    character.
//!
//! Every time is one leg of its own `modpeg_bench::paired` call (the
//! crate docs describe the runner): each size is a different input.
//!
//! Knobs: `MODPEG_BENCH_RUNS` (default 3).

use modpeg_baseline::BacktrackParser;
use modpeg_bench::{ms, paired, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};

fn main() {
    let knobs = Knobs::from_env(0, 0, 3);
    println!("E5 — scaling\n");

    // Series 1: linear scaling on Java.
    let grammar = GrammarId::Java.elaborate().expect("java elaborates");
    let full = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut prev: Option<f64> = None;
    for kb in [8usize, 16, 32, 64, 128, 256] {
        let input = modpeg_workload::java_program(11, kb * 1024);
        let t = paired(
            knobs.runs,
            1,
            &mut [&mut || {
                std::hint::black_box(full.parse(&input).expect("parses"));
            }],
        )[0]
        .median;
        let secs = t.as_secs_f64();
        let ratio = prev
            .map(|p| format!("{:.2}", secs / p))
            .unwrap_or_else(|| "-".into());
        prev = Some(secs);
        rows.push(vec![format!("{} KiB", input.len() / 1024), ms(t), ratio]);
        json_rows.push(vec![
            "linear".to_owned(),
            format!("{} KiB", input.len() / 1024),
            ms(t),
            rows.last().expect("just pushed")[2].clone(),
            "-".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
        ]);
    }
    println!("packrat (all optimizations) on Java inputs of doubling size:");
    modpeg_bench::print_table(&["input", "ms", "x prev"], &rows);

    // Series 2: pathological blowup.
    let pset = modpeg_syntax::parse_module_set([modpeg_workload::PATHOLOGICAL_GRAMMAR])
        .expect("pathological grammar parses");
    let pgrammar = pset.elaborate("pathological", None).expect("elaborates");
    let packrat = CompiledGrammar::compile(&pgrammar, OptConfig::all()).expect("compiles");
    let naive = BacktrackParser::new(&pgrammar);
    let mut rows = Vec::new();
    for n in [12usize, 16, 20, 22, 24, 26] {
        let input = modpeg_workload::pathological_input(n);
        let (r, steps) = naive.recognize_counting(&input);
        assert!(r.is_err(), "pathological input is rejected");
        let (rp, pstats) = packrat.parse_with_stats(&input);
        assert!(rp.is_err());
        // Timed apart: next to a leg of seconds, a paired call would time
        // the microsecond packrat parse in the cache the naive leg leaves.
        let tn = paired(
            knobs.runs,
            1,
            &mut [&mut || {
                let (_, steps) = naive.recognize_counting(&input);
                std::hint::black_box(steps);
            }],
        )[0]
        .median;
        let tp = paired(
            knobs.runs,
            1,
            &mut [&mut || {
                std::hint::black_box(packrat.parse(&input).is_err());
            }],
        )[0]
        .median;
        rows.push(vec![
            n.to_string(),
            steps.to_string(),
            ms(tn),
            pstats.productions_evaluated.to_string(),
            ms(tp),
        ]);
        json_rows.push(vec![
            "blowup".to_owned(),
            n.to_string(),
            ms(tp),
            "-".to_owned(),
            steps.to_string(),
            ms(tn),
            pstats.productions_evaluated.to_string(),
        ]);
    }
    println!("\npathological grammar, rejecting inputs (naive work doubles per char):");
    modpeg_bench::print_table(
        &[
            "n",
            "naive steps",
            "naive ms",
            "packrat evals",
            "packrat ms",
        ],
        &rows,
    );
    modpeg_bench::emit_results_json(
        "fig_scaling",
        &[
            ("experiment", "E5".into()),
            ("runs", knobs.runs.to_string()),
        ],
        &[
            "series",
            "size",
            "packrat ms",
            "x prev",
            "naive steps",
            "naive ms",
            "packrat evals",
        ],
        &json_rows,
    );
}
