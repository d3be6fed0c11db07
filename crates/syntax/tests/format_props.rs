//! Randomized test: the formatter is a fixpoint and preserves structure on
//! *randomized* modules, not just the shipped library.
//!
//! Modules are generated from a seeded PRNG (`modpeg_workload::rng`) so the
//! suite needs no external property-testing dependency; every case is
//! reproducible from its seed.

use modpeg_core::{
    AltAst, AnchorPos, Attrs, CharClass, ClauseOp, Decl, Expr, ModuleAst, ProdClause, ProdKind,
    SrcSpan,
};
use modpeg_workload::rng::StdRng;

type E = Expr<String>;

fn ident(rng: &mut StdRng) -> String {
    let mut s = String::new();
    s.push(rng.gen_range(b'A'..=b'Z') as char);
    for _ in 0..rng.gen_range(0usize..=5) {
        let c = match rng.gen_range(0u8..3) {
            0 => rng.gen_range(b'a'..=b'z'),
            1 => rng.gen_range(b'A'..=b'Z'),
            _ => rng.gen_range(b'0'..=b'9'),
        };
        s.push(c as char);
    }
    s
}

fn lower_ident(rng: &mut StdRng, max_extra: usize) -> String {
    let mut s = String::new();
    s.push(rng.gen_range(b'a'..=b'z') as char);
    for _ in 0..rng.gen_range(0usize..=max_extra) {
        let c = if rng.gen_ratio(3, 4) {
            rng.gen_range(b'a'..=b'z')
        } else {
            rng.gen_range(b'0'..=b'9')
        };
        s.push(c as char);
    }
    s
}

fn expr(rng: &mut StdRng, depth: u32) -> E {
    let leaf = |rng: &mut StdRng| match rng.gen_range(0u8..5) {
        0 => E::Ref(ident(rng)),
        1 => {
            let lits = ["a", "xy", "+", "\"", "\\", "\n"];
            E::literal(lits[rng.gen_range(0..lits.len())])
        }
        2 => E::Any,
        3 => E::Class(CharClass::from_ranges(vec![('a', 'z'), ('-', '-')], false)),
        _ => E::Class(CharClass::from_ranges(vec![('\n', '\n')], true)),
    };
    if depth == 0 {
        return leaf(rng);
    }
    // Weighted: 3 parts leaf, 1 part each combinator (total 11).
    match rng.gen_range(0u8..11) {
        0..=2 => leaf(rng),
        3 => {
            let n = rng.gen_range(1usize..3);
            E::seq((0..n).map(|_| expr(rng, depth - 1)).collect())
        }
        4 => {
            let n = rng.gen_range(2usize..4);
            E::choice((0..n).map(|_| expr(rng, depth - 1)).collect())
        }
        5 => E::Opt(Box::new(expr(rng, depth - 1))),
        6 => E::Star(Box::new(expr(rng, depth - 1))),
        7 => E::Not(Box::new(expr(rng, depth - 1))),
        8 => E::Capture(Box::new(expr(rng, depth - 1))),
        9 => E::Void(Box::new(expr(rng, depth - 1))),
        _ => E::StateIsDef(Box::new(expr(rng, depth - 1))),
    }
}

fn clause(rng: &mut StdRng) -> ProdClause {
    let name = ident(rng);
    let op = [
        ClauseOp::Define,
        ClauseOp::Override,
        ClauseOp::Append,
        ClauseOp::Remove,
    ][rng.gen_range(0..4usize)];
    let n_alts = rng.gen_range(1usize..3);
    let mut seen = std::collections::HashSet::new();
    let mut alts: Vec<AltAst> = (0..n_alts)
        .map(|_| {
            let label = if rng.gen_ratio(1, 2) {
                Some(ident(rng))
            } else {
                None
            };
            AltAst::Alt {
                // Deduplicate labels (parser requires uniqueness only at
                // elaboration, but keep modules sane).
                label: label.filter(|l| seen.insert(l.clone())),
                expr: expr(rng, 2),
            }
        })
        .collect();
    let removed: Vec<String> = (0..rng.gen_range(1usize..3)).map(|_| ident(rng)).collect();
    let anchor = if rng.gen_ratio(1, 2) {
        let pos = if rng.gen_bool() {
            AnchorPos::Before
        } else {
            AnchorPos::After
        };
        Some((pos, ident(rng)))
    } else {
        None
    };
    let recover: Vec<String> = if rng.gen_ratio(1, 4) {
        (0..rng.gen_range(1usize..3))
            .map(|_| [";", "}", ")", "end"][rng.gen_range(0..4usize)].to_owned())
            .collect()
    } else {
        vec![]
    };
    let transient = rng.gen_bool();
    let splice = rng.gen_bool();
    if splice && matches!(op, ClauseOp::Override | ClauseOp::Append) && anchor.is_none() {
        alts.push(AltAst::Splice);
    }
    ProdClause {
        attrs: Attrs {
            transient,
            ..Attrs::default()
        },
        kind: if op == ClauseOp::Define {
            Some(ProdKind::Node)
        } else {
            None
        },
        name,
        op,
        alts: if op == ClauseOp::Remove { vec![] } else { alts },
        removed: if op == ClauseOp::Remove {
            removed
        } else {
            vec![]
        },
        anchor: if op == ClauseOp::Append { anchor } else { None },
        recover,
        span: SrcSpan::none(),
    }
}

fn module(rng: &mut StdRng) -> ModuleAst {
    let mut name = lower_ident(rng, 5);
    for _ in 0..rng.gen_range(0u8..3) {
        name.push('.');
        name.push_str(&lower_ident(rng, 4));
    }
    let params: Vec<String> = (0..rng.gen_range(0usize..3)).map(|_| ident(rng)).collect();
    let is_mod = rng.gen_bool();
    let mut clauses: Vec<ProdClause> = (0..rng.gen_range(0usize..4)).map(|_| clause(rng)).collect();

    let mut m = ModuleAst::new(name);
    m.params = params;
    if is_mod {
        m.decls.push(Decl::Modify {
            target: "base".into(),
            span: SrcSpan::none(),
        });
    } else {
        // Non-modification modules may only define.
        for c in &mut clauses {
            c.op = ClauseOp::Define;
            c.kind = Some(ProdKind::Node);
            c.removed.clear();
            c.anchor = None;
            c.alts.retain(|a| !matches!(a, AltAst::Splice));
            if c.alts.is_empty() {
                c.alts.push(AltAst::Alt {
                    label: None,
                    expr: E::literal("x"),
                });
            }
        }
    }
    m.decls.push(Decl::Import {
        module: "other".into(),
        span: SrcSpan::none(),
    });
    m.productions = clauses;
    m
}

#[test]
fn format_parse_format_is_a_fixpoint() {
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x464D54);
        let m = module(&mut rng);
        let once = modpeg_syntax::format_module(&m);
        let reparsed = modpeg_syntax::parse_modules(&once)
            .unwrap_or_else(|e| panic!("formatted module does not reparse: {e}\n{once}"));
        assert_eq!(reparsed.len(), 1, "seed {seed}");
        let twice = modpeg_syntax::format_module(&reparsed[0]);
        assert_eq!(once, twice, "not a fixpoint (seed {seed}):\n{once}");
        // Structure is preserved (spans aside, which format discards).
        assert_eq!(
            reparsed[0].productions.len(),
            m.productions.len(),
            "seed {seed}"
        );
        assert_eq!(reparsed[0].name, m.name, "seed {seed}");
        assert_eq!(reparsed[0].params, m.params, "seed {seed}");
    }
}
