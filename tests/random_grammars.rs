//! Randomized semantic-preservation testing: generate random well-formed
//! grammars, then check that every optimization configuration accepts the
//! same inputs and produces structurally identical trees on random inputs.
//!
//! The generated grammars are acyclic (production *i* only references
//! later productions) which sidesteps left-recursion and nullable-star
//! hazards by construction while still covering every expression operator
//! and value-kind combination. Grammar shapes come from a seeded PRNG
//! (`modpeg_workload::rng`) so every case reproduces from its seed.

use modpeg::core::{CharClass, Expr, GrammarBuilder, ProdKind};
use modpeg::prelude::*;
use modpeg_workload::rng::StdRng;

type E = Expr<String>;

const N_PRODS: usize = 5;

/// A guaranteed-consuming atom (safe inside repetitions).
fn consuming_atom(rng: &mut StdRng) -> E {
    match rng.gen_range(0u8..4) {
        0 => {
            let lits = ["a", "b", "c", "ab", "ba"];
            E::literal(lits[rng.gen_range(0..lits.len())])
        }
        1 => E::Class(CharClass::from_ranges(vec![('a', 'b')], false)),
        2 => E::Class(CharClass::from_ranges(vec![('c', 'c')], true)),
        _ => E::Any,
    }
}

/// An arbitrary expression usable in production `idx` (may reference
/// productions with larger indices only).
fn expr(rng: &mut StdRng, idx: usize, depth: u32) -> E {
    let leaf = |rng: &mut StdRng| {
        if idx + 1 < N_PRODS && rng.gen_ratio(1, 3) {
            E::Ref(format!("P{}", rng.gen_range(idx + 1..N_PRODS)))
        } else {
            consuming_atom(rng)
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    // Weighted: 4 parts leaf, 2 seq, 2 choice, 1 each of the rest (total 14).
    match rng.gen_range(0u8..14) {
        0..=3 => leaf(rng),
        4 | 5 => {
            let n = rng.gen_range(1usize..4);
            E::seq((0..n).map(|_| expr(rng, idx, depth - 1)).collect())
        }
        6 | 7 => {
            let n = rng.gen_range(1usize..4);
            E::choice((0..n).map(|_| expr(rng, idx, depth - 1)).collect())
        }
        8 => E::Opt(Box::new(expr(rng, idx, depth - 1))),
        9 => E::Star(Box::new(consuming_atom(rng))),
        10 => E::Plus(Box::new(consuming_atom(rng))),
        11 => E::Not(Box::new(expr(rng, idx, depth - 1))),
        12 => E::And(Box::new(expr(rng, idx, depth - 1))),
        _ => {
            if rng.gen_bool() {
                E::Capture(Box::new(expr(rng, idx, depth - 1)))
            } else {
                E::Void(Box::new(expr(rng, idx, depth - 1)))
            }
        }
    }
}

fn kind(rng: &mut StdRng) -> ProdKind {
    [ProdKind::Node, ProdKind::Text, ProdKind::Void][rng.gen_range(0..3usize)]
}

/// One alternative: an optional `<Label>` plus its expression.
type Alt = (Option<String>, E);

#[derive(Debug, Clone)]
struct RandGrammar {
    prods: Vec<(ProdKind, Vec<Alt>)>,
}

fn rand_grammar(rng: &mut StdRng) -> RandGrammar {
    let mut prods: Vec<(ProdKind, Vec<Alt>)> = (0..N_PRODS)
        .map(|idx| {
            let k = kind(rng);
            let n_alts = rng.gen_range(1usize..3);
            let alts = (0..n_alts)
                .map(|_| {
                    let label = if rng.gen_bool() {
                        Some(format!("L{idx}"))
                    } else {
                        None
                    };
                    (label, expr(rng, idx, 2))
                })
                .collect();
            (k, alts)
        })
        .collect();
    // Alternative labels must be unique per production; the generator
    // reuses one label name, so dedup by keeping only the first.
    for (_, alts) in prods.iter_mut() {
        let mut seen = false;
        for (label, _) in alts.iter_mut() {
            if label.is_some() {
                if seen {
                    *label = None;
                }
                seen = true;
            }
        }
    }
    // The root must be a Node production for LR friendliness (not
    // needed here, but keeps trees interesting).
    prods[0].0 = ProdKind::Node;
    RandGrammar { prods }
}

fn rand_input(rng: &mut StdRng, max_len: usize) -> String {
    (0..rng.gen_range(0..=max_len))
        .map(|_| rng.gen_range(b'a'..=b'c') as char)
        .collect()
}

fn build(rg: &RandGrammar) -> Option<Grammar> {
    let mut b = GrammarBuilder::new("rand");
    for (i, (kind, alts)) in rg.prods.iter().enumerate() {
        b.production(format!("P{i}"), *kind, alts.clone());
    }
    // Some random grammars are still rejected (e.g. a nullable repetition
    // introduced through a void reference chain); that's fine — skip them.
    b.build("P0").ok()
}

#[test]
fn optimizations_preserve_semantics_on_random_grammars() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x62A3);
        let rg = rand_grammar(&mut rng);
        let inputs: Vec<String> = (0..8).map(|_| rand_input(&mut rng, 10)).collect();
        let Some(grammar) = build(&rg) else {
            continue; // rejected by well-formedness checks
        };
        let reference = CompiledGrammar::compile(&grammar, OptConfig::none()).expect("compiles");
        let configs: Vec<CompiledGrammar> = [4usize, 8, 11, 14, 16]
            .iter()
            .map(|n| {
                CompiledGrammar::compile(&grammar, OptConfig::cumulative(*n)).expect("compiles")
            })
            .collect();
        for input in &inputs {
            // parse_prefix succeeds far more often than full-input parse on
            // random grammars, so compare both to avoid a vacuous test.
            let expected = reference.parse(input).map(|t| t.to_sexpr());
            let expected_prefix = reference
                .parse_prefix(input)
                .map(|(t, end)| (t.to_sexpr(), end))
                .ok();
            for (i, c) in configs.iter().enumerate() {
                let got = c.parse(input).map(|t| t.to_sexpr());
                match (&expected, &got) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "config #{i} diverged on {input:?} for grammar {rg:?}")
                    }
                    (Err(_), Err(_)) => {}
                    _ => {
                        panic!("config #{i} accept/reject diverged on {input:?} for grammar {rg:?}")
                    }
                }
                let got_prefix = c
                    .parse_prefix(input)
                    .map(|(t, end)| (t.to_sexpr(), end))
                    .ok();
                assert_eq!(
                    expected_prefix, got_prefix,
                    "config #{i} prefix-parse diverged on {input:?} for grammar {rg:?}"
                );
            }
        }
    }
}

#[test]
fn backtracker_agrees_with_packrat_on_random_grammars() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBACC);
        let rg = rand_grammar(&mut rng);
        let inputs: Vec<String> = (0..6).map(|_| rand_input(&mut rng, 8)).collect();
        let Some(grammar) = build(&rg) else {
            continue;
        };
        let packrat = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let naive = modpeg_baseline::BacktrackParser::new(&grammar);
        for input in &inputs {
            assert_eq!(
                naive.recognize(input).is_ok(),
                packrat.parse(input).is_ok(),
                "acceptance diverged on {input:?} for grammar {rg:?}"
            );
        }
    }
}
