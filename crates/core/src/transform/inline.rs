//! Nonterminal inlining.
//!
//! Replaces references to small, non-recursive `void`/`String` productions
//! with their bodies. The win is twofold: the call (and its memo probe)
//! disappears, and the inlined terminals become visible to the later
//! `left-factor`/`merge-classes` passes and to the interpreter's
//! terminal-dispatch tables.
//!
//! A reference `P` to a `void` production becomes `%void(body)`; to a
//! `String` production, `$(body)` — both value-equivalent to the call.

use std::collections::{BTreeSet, HashMap};

use crate::diag::Diagnostics;
use crate::expr::Expr;
use crate::grammar::{Grammar, ProdId, ProdKind};

/// Size limit for inlined bodies (expression nodes); larger bodies are
/// inlined only if referenced exactly once.
const MAX_INLINE_SIZE: usize = 8;

fn body_of(grammar: &Grammar, id: ProdId) -> Expr<ProdId> {
    let p = grammar.production(id);
    Expr::choice(p.alts.iter().map(|a| a.expr.clone()).collect())
}

fn is_self_recursive(grammar: &Grammar, id: ProdId) -> bool {
    let mut hit = false;
    grammar.production(id).for_each_ref(&mut |r| {
        if r == id {
            hit = true;
        }
    });
    hit
}

/// Inlines trivial productions into their use sites, then removes the
/// now-dead definitions.
///
/// A production is inlinable when it is not the root, has kind `void` or
/// `String`, does not touch parser state, is not self-recursive, and is
/// small (or referenced only once).
///
/// # Errors
///
/// Propagates invariant violations from rebuilding (a bug if it happens).
pub fn inline_trivial(grammar: Grammar) -> Result<Grammar, Diagnostics> {
    inline_with_candidates(grammar, &BTreeSet::new())
}

/// [`inline_trivial`] with profile-guided extra candidates: productions
/// named in `extra` (full `module.Production` names, from a
/// [`TuningPlan`](super::TuningPlan)) bypass the size/reference-count
/// limit. Every *safety* check still applies — the plan can only widen
/// eligibility among productions whose inlining is value-preserving, so
/// a stale or hand-edited plan cannot change parse results.
///
/// # Errors
///
/// Propagates invariant violations from rebuilding (a bug if it happens).
pub fn inline_with_candidates(
    grammar: Grammar,
    extra: &BTreeSet<String>,
) -> Result<Grammar, Diagnostics> {
    let mut g = grammar;
    // Inlining can cascade (A uses B, both trivial); bounded fixpoint.
    for _ in 0..4 {
        let access = crate::analysis::state_access(&g);
        let counts = crate::analysis::reference_counts(&g);
        let mut bodies: HashMap<ProdId, Expr<ProdId>> = HashMap::new();
        for (id, p) in g.iter() {
            if id == g.root()
                || p.kind == ProdKind::Node
                || p.attrs.memo
                || access[id.index()].reads
                || access[id.index()].writes
                || access[id.index()].scopes
                || is_self_recursive(&g, id)
            {
                continue;
            }
            // A String production that contains a capture or reference
            // yields its *inner* textual value, not the whole match;
            // wrapping the body in `$(…)` would change that value. Only
            // inline String productions whose value is the whole match.
            if p.kind == ProdKind::Text && !p.alts.iter().all(|a| a.expr.is_statically_valueless())
            {
                continue;
            }
            let body = body_of(&g, id);
            if body.size() <= MAX_INLINE_SIZE || counts[id.index()] <= 1 || extra.contains(&p.name)
            {
                let wrapped = match p.kind {
                    ProdKind::Void => Expr::Void(Box::new(body)),
                    ProdKind::Text => Expr::Capture(Box::new(body)),
                    ProdKind::Node => unreachable!("filtered above"),
                };
                bodies.insert(id, wrapped);
            }
        }
        if bodies.is_empty() {
            return Ok(g);
        }
        let (mut productions, root) = g.into_parts();
        for p in productions.iter_mut() {
            for alt in &mut p.alts {
                let expr = std::mem::replace(&mut alt.expr, Expr::Empty);
                alt.expr = expr.rewrite(&mut |e| match e {
                    Expr::Ref(r) => match bodies.get(&r) {
                        Some(b) => b.clone(),
                        None => Expr::Ref(r),
                    },
                    other => other,
                });
            }
            p.lr = None;
        }
        g = super::rebuild(productions, root)?;
        g = super::eliminate_dead(g)?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::grammar::ProdKind;

    #[test]
    fn small_void_production_is_inlined() {
        let g = grammar(vec![
            (
                "Root",
                ProdKind::Node,
                vec![Expr::seq(vec![r(1), Expr::literal("x")])],
            ),
            (
                "Sp",
                ProdKind::Void,
                vec![Expr::Star(Box::new(Expr::literal(" ")))],
            ),
        ]);
        let out = inline_trivial(g).unwrap();
        assert_eq!(out.len(), 1);
        let root = out.production(out.root());
        assert!(
            root.alts[0].expr.to_string().contains("%void"),
            "{}",
            root.alts[0].expr
        );
    }

    #[test]
    fn text_production_inlines_as_capture() {
        let g = grammar(vec![
            ("Root", ProdKind::Node, vec![r(1)]),
            (
                "Op",
                ProdKind::Text,
                vec![Expr::literal("+"), Expr::literal("-")],
            ),
        ]);
        let out = inline_trivial(g).unwrap();
        assert_eq!(out.len(), 1);
        let e = &out.production(out.root()).alts[0].expr;
        assert_eq!(e.to_string(), "$(\"+\" / \"-\")");
    }

    #[test]
    fn node_productions_are_not_inlined() {
        let g = grammar(vec![
            ("Root", ProdKind::Node, vec![r(1)]),
            ("Leaf", ProdKind::Node, vec![Expr::literal("x")]),
        ]);
        let out = inline_trivial(g).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn recursive_production_is_not_inlined() {
        let g = grammar(vec![
            ("Root", ProdKind::Node, vec![r(1)]),
            (
                "Nest",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    Expr::literal("("),
                    Expr::Opt(Box::new(r(1))),
                    Expr::literal(")"),
                ])],
            ),
        ]);
        let out = inline_trivial(g).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn stateful_production_is_not_inlined() {
        let g = grammar(vec![
            ("Root", ProdKind::Node, vec![r(1)]),
            (
                "Def",
                ProdKind::Void,
                vec![Expr::StateDefine(Box::new(Expr::literal("t")))],
            ),
        ]);
        let out = inline_trivial(g).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn large_multiply_referenced_production_stays() {
        let big = Expr::seq(vec![
            Expr::literal("a"),
            Expr::literal("b"),
            Expr::literal("c"),
            Expr::literal("d"),
            Expr::literal("e"),
            Expr::literal("f"),
            Expr::literal("g"),
            Expr::literal("h"),
        ]);
        let g = grammar(vec![
            ("Root", ProdKind::Node, vec![Expr::seq(vec![r(1), r(1)])]),
            ("Big", ProdKind::Void, vec![big]),
        ]);
        let out = inline_trivial(g).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn text_production_with_inner_capture_is_not_inlined() {
        // Op yields only the operator text (its capture), not the trailing
        // spacing; inlining as $(body) would change the value.
        let g = grammar(vec![
            ("Root", ProdKind::Node, vec![r(1)]),
            (
                "Op",
                ProdKind::Text,
                vec![Expr::seq(vec![
                    Expr::Capture(Box::new(Expr::literal("+"))),
                    Expr::Star(Box::new(Expr::literal(" "))),
                ])],
            ),
        ]);
        let out = inline_trivial(g).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn plan_candidate_bypasses_size_limit_but_not_safety() {
        let big = Expr::seq(vec![
            Expr::literal("a"),
            Expr::literal("b"),
            Expr::literal("c"),
            Expr::literal("d"),
            Expr::literal("e"),
            Expr::literal("f"),
            Expr::literal("g"),
            Expr::literal("h"),
        ]);
        let g = grammar(vec![
            (
                "Root",
                ProdKind::Node,
                vec![Expr::seq(vec![r(1), r(1), r(2)])],
            ),
            ("Big", ProdKind::Void, vec![big]),
            ("Leaf", ProdKind::Node, vec![Expr::literal("x")]),
        ]);
        // Big is too large and referenced twice, so the static pass keeps
        // it — but a plan listing it gets it inlined.
        let extra: BTreeSet<String> = ["Big".to_string(), "Leaf".to_string()].into();
        let out = inline_with_candidates(g, &extra).unwrap();
        assert!(out.find("Big").is_none(), "plan candidate inlined");
        // Leaf is a Node production: the safety check still refuses it.
        assert!(out.find("Leaf").is_some(), "unsafe candidate kept");
    }

    #[test]
    fn cascading_inline_terminates() {
        let g = grammar(vec![
            ("Root", ProdKind::Node, vec![r(1)]),
            ("A", ProdKind::Void, vec![r(2)]),
            ("B", ProdKind::Void, vec![r(3)]),
            ("C", ProdKind::Void, vec![Expr::literal("c")]),
        ]);
        let out = inline_trivial(g).unwrap();
        assert_eq!(out.len(), 1);
    }
}
