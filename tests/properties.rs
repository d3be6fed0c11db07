//! Randomized tests over the whole pipeline.
//!
//! The central invariant of the reproduction: **every optimization is
//! semantics-preserving** — any two optimization configurations accept the
//! same inputs and build structurally identical syntax trees. Plus: no
//! panics on arbitrary input, baseline/packrat agreement, and memoization
//! accounting invariants.
//!
//! Inputs are generated from a seeded PRNG (`modpeg_workload::rng`), so
//! every case reproduces exactly from its seed and the suite builds with
//! no external dependencies.

use modpeg::prelude::*;
use modpeg_workload::rng::StdRng;

fn calc_parser(cfg: OptConfig) -> CompiledGrammar {
    let g = modpeg::grammars::calc_grammar().expect("elaborates");
    CompiledGrammar::compile(&g, cfg).expect("compiles")
}

fn json_parser(cfg: OptConfig) -> CompiledGrammar {
    let g = modpeg::grammars::json_grammar().expect("elaborates");
    CompiledGrammar::compile(&g, cfg).expect("compiles")
}

fn digits(rng: &mut StdRng, min: usize, max: usize) -> String {
    (0..rng.gen_range(min..=max))
        .map(|_| rng.gen_range(b'0'..=b'9') as char)
        .collect()
}

fn lowercase(rng: &mut StdRng, min: usize, max: usize) -> String {
    (0..rng.gen_range(min..=max))
        .map(|_| rng.gen_range(b'a'..=b'z') as char)
        .collect()
}

/// Syntactically valid calculator expression.
fn calc_expr(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.gen_ratio(1, 3) {
        if rng.gen_ratio(1, 3) {
            format!("{}.{}", digits(rng, 1, 3), digits(rng, 1, 3))
        } else {
            digits(rng, 1, 4)
        }
    } else {
        match rng.gen_range(0u8..3) {
            0 => {
                let a = calc_expr(rng, depth - 1);
                let b = calc_expr(rng, depth - 1);
                let op = ["+", "-", "*", "/"][rng.gen_range(0..4usize)];
                format!("{a} {op} {b}")
            }
            1 => format!("({})", calc_expr(rng, depth - 1)),
            _ => format!("-{}", calc_expr(rng, depth - 1)),
        }
    }
}

/// Syntactically valid JSON document.
fn json_value(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.gen_ratio(1, 3) {
        match rng.gen_range(0u8..5) {
            0 => "true".to_owned(),
            1 => "false".to_owned(),
            2 => "null".to_owned(),
            3 => {
                let sign = if rng.gen_bool() { "-" } else { "" };
                format!("{sign}{}", digits(rng, 1, 5))
            }
            _ => format!("\"{}\"", lowercase(rng, 0, 8)),
        }
    } else if rng.gen_bool() {
        let vs: Vec<String> = (0..rng.gen_range(0usize..4))
            .map(|_| json_value(rng, depth - 1))
            .collect();
        format!("[{}]", vs.join(", "))
    } else {
        let ms: Vec<String> = (0..rng.gen_range(0usize..4))
            .map(|_| {
                let k = lowercase(rng, 1, 6);
                let v = json_value(rng, depth - 1);
                format!("\"{k}\": {v}")
            })
            .collect();
        format!("{{{}}}", ms.join(", "))
    }
}

/// Arbitrary printable text (the "never panic" fuzz alphabet): mostly
/// printable ASCII with occasional multi-byte characters.
fn fuzz_text(rng: &mut StdRng, max_len: usize) -> String {
    let n = rng.gen_range(0..=max_len);
    let mut s = String::new();
    for _ in 0..n {
        if rng.gen_ratio(1, 12) {
            let extras = ['é', 'λ', '→', '\u{1F600}', '中', '\u{00A0}'];
            s.push(extras[rng.gen_range(0..extras.len())]);
        } else {
            s.push(rng.gen_range(b' '..=b'~') as char);
        }
    }
    s
}

#[test]
fn calc_all_configs_agree() {
    let reference = calc_parser(OptConfig::none());
    let parsers: Vec<(usize, CompiledGrammar)> = [3usize, 6, 9, 11, 13, 16]
        .iter()
        .map(|&level| (level, calc_parser(OptConfig::cumulative(level))))
        .collect();
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCA1CA11);
        let input = calc_expr(&mut rng, 4);
        let expected = reference.parse(&input).map(|t| t.to_sexpr());
        for (level, parser) in &parsers {
            let got = parser.parse(&input).map(|t| t.to_sexpr());
            match (&expected, &got) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "level {level} diverged on {input:?}"),
                (Err(_), Err(_)) => {}
                _ => panic!("level {level} accept/reject diverged on {input:?}"),
            }
        }
    }
}

#[test]
fn json_all_configs_and_generated_agree() {
    let reference = json_parser(OptConfig::none());
    let full = json_parser(OptConfig::all());
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x15011);
        let input = json_value(&mut rng, 3);
        let expected = reference.parse(&input).map(|t| t.to_sexpr());
        let generated = modpeg::grammars::generated::json::parse(&input).map(|t| t.to_sexpr());
        match (&expected, &generated) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "generated diverged on {input:?}"),
            (Err(_), Err(_)) => {}
            _ => panic!("generated accept/reject diverged on {input:?}"),
        }
        let got = full.parse(&input).map(|t| t.to_sexpr());
        assert_eq!(expected.is_ok(), got.is_ok(), "on {input:?}");
        if let (Ok(a), Ok(b)) = (expected, got) {
            assert_eq!(a, b, "on {input:?}");
        }
    }
}

#[test]
fn arbitrary_input_never_panics() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF022);
        let input = fuzz_text(&mut rng, 120);
        // Rejection is fine; panics or hangs are not.
        let _ = modpeg::grammars::generated::json::parse(&input);
        let _ = modpeg::grammars::generated::calc::parse(&input);
        let _ = modpeg::grammars::generated::java::parse(&input);
        let _ = modpeg::grammars::generated::c::parse(&input);
    }
}

#[test]
fn arbitrary_grammar_text_never_panics() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6172B);
        let src = fuzz_text(&mut rng, 200);
        // The .mpeg parser must fail gracefully on garbage.
        let _ = modpeg::syntax::parse_modules(&src);
    }
}

#[test]
fn mutated_json_agrees_between_configs() {
    let none = json_parser(OptConfig::none());
    let all = json_parser(OptConfig::all());
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3107);
        let input = json_value(&mut rng, 3);
        // Mutate one byte; validity may change, but all parsers must agree.
        let mut bytes = input.into_bytes();
        if !bytes.is_empty() {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen_range(0u8..128);
        }
        if let Ok(mutated) = String::from_utf8(bytes) {
            let a = none.parse(&mutated).is_ok();
            let b = all.parse(&mutated).is_ok();
            let c = modpeg::grammars::generated::json::parse(&mutated).is_ok();
            assert_eq!(a, b, "on {mutated:?}");
            assert_eq!(a, c, "on {mutated:?}");
        }
    }
}

#[test]
fn backtrack_baseline_agrees_on_acceptance() {
    let g = modpeg::grammars::calc_grammar().unwrap();
    let naive = modpeg_baseline::BacktrackParser::new(&g);
    let packrat = calc_parser(OptConfig::all());
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAC2);
        let input = calc_expr(&mut rng, 3);
        assert_eq!(
            naive.recognize(&input).is_ok(),
            packrat.parse(&input).is_ok(),
            "on {input:?}"
        );
    }
}

#[test]
fn memo_accounting_is_consistent() {
    let parser = calc_parser(OptConfig::all());
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACC7);
        let input = calc_expr(&mut rng, 4);
        let (result, stats) = parser.parse_with_stats(&input);
        assert!(result.is_ok(), "on {input:?}");
        assert!(stats.memo_hits <= stats.memo_probes);
        // Under full optimization nothing records individual failures.
        assert_eq!(stats.failure_records, 0);
        assert_eq!(
            stats.strings_built, 0,
            "text-only mode allocates no strings"
        );
    }
}

#[test]
fn error_offsets_are_in_bounds() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0FF5);
        let input = fuzz_text(&mut rng, 80);
        if let Err(e) = modpeg::grammars::generated::json::parse(&input) {
            assert!(e.offset() as usize <= input.len(), "on {input:?}");
        }
    }
}

#[test]
fn trees_are_same_shape_across_text_representations() {
    // text-only off produces OwnedText; trees must still be same-shape.
    let g = modpeg::grammars::calc_grammar().unwrap();
    let spans = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
    let mut cfg = OptConfig::all();
    cfg.set("text-only", false);
    let owned = CompiledGrammar::compile(&g, cfg).unwrap();
    let input = "1 + 2 * (3 - 4)";
    let a = spans.parse(input).unwrap();
    let b = owned.parse(input).unwrap();
    assert_eq!(a.to_sexpr(), b.to_sexpr());
}
