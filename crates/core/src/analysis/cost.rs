//! Shortest-derivation-height analysis.
//!
//! For every production, the minimum *height* of a derivation tree that
//! produces some terminal string from it: a production whose cheapest
//! alternative is all terminals has height 1, a production that must go
//! through such a production has height 2, and so on. Productions that
//! cannot terminate (every alternative recurses forever) keep
//! [`UNBOUNDED_HEIGHT`]; elaborated grammars never contain them, but the
//! analysis stays total for hand-built ones.
//!
//! The conformance sentence generator uses these heights as its
//! termination budget: while walking the grammar it only commits to a
//! subexpression whose height fits the remaining depth, so generation is
//! guaranteed to bottom out regardless of how recursive the grammar is.

use crate::expr::Expr;
use crate::grammar::{Grammar, ProdId};

use super::solve::{solve, update, Flow, Graph};

/// Height assigned to productions with no terminating derivation.
pub const UNBOUNDED_HEIGHT: u32 = u32::MAX;

/// Minimum derivation height of `e`, given per-production heights.
///
/// Repetition and predicate operators take their zero-iteration /
/// zero-width reading (`e?`, `e*`, `&e`, `!e` all have height 0), matching
/// the generator, which may always skip them.
pub fn expr_height(e: &Expr<ProdId>, heights: &[u32]) -> u32 {
    match e {
        Expr::Empty | Expr::Any | Expr::Literal(_) | Expr::Class(_) => 0,
        Expr::Ref(r) => heights[r.index()],
        Expr::Seq(xs) => xs
            .iter()
            .map(|x| expr_height(x, heights))
            .max()
            .unwrap_or(0),
        Expr::Choice(xs) => xs
            .iter()
            .map(|x| expr_height(x, heights))
            .min()
            .unwrap_or(0),
        Expr::Opt(_) | Expr::Star(_) | Expr::And(_) | Expr::Not(_) => 0,
        Expr::Plus(inner) => expr_height(inner, heights),
        Expr::Capture(inner)
        | Expr::Void(inner)
        | Expr::StateDefine(inner)
        | Expr::StateIsDef(inner)
        | Expr::StateIsNotDef(inner)
        | Expr::StateScope(inner) => expr_height(inner, heights),
    }
}

/// Minimum derivation height of every production, indexed by
/// [`ProdId::index`](crate::grammar::ProdId::index).
///
/// Computed as the least fixpoint of
/// `h(P) = 1 + min over alternatives of expr_height(alt)`, starting from
/// [`UNBOUNDED_HEIGHT`] everywhere.
pub fn derivation_heights(grammar: &Grammar) -> Vec<u32> {
    let mut heights = vec![UNBOUNDED_HEIGHT; grammar.len()];
    let graph = Graph::references(grammar);
    solve(&graph, Flow::Up, &mut heights, |p, heights, changed| {
        let best = grammar
            .production(p)
            .alts
            .iter()
            .map(|a| expr_height(&a.expr, heights))
            .min()
            .unwrap_or(0);
        update(heights, p, best.saturating_add(1), changed);
    });
    heights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::grammar::ProdKind;

    #[test]
    fn terminal_production_has_height_one() {
        let g = grammar(vec![("A", ProdKind::Void, vec![Expr::literal("a")])]);
        assert_eq!(derivation_heights(&g), vec![1]);
    }

    #[test]
    fn chains_add_one_per_hop() {
        let g = grammar(vec![
            ("A", ProdKind::Void, vec![r(1)]),
            ("B", ProdKind::Void, vec![r(2)]),
            ("C", ProdKind::Void, vec![Expr::literal("c")]),
        ]);
        assert_eq!(derivation_heights(&g), vec![3, 2, 1]);
    }

    #[test]
    fn recursion_takes_the_cheapest_alternative() {
        // A = "(" A ")" / "x"  — recursive arm never bounds the height.
        let g = grammar(vec![(
            "A",
            ProdKind::Void,
            vec![
                Expr::seq(vec![Expr::literal("("), r(0), Expr::literal(")")]),
                Expr::literal("x"),
            ],
        )]);
        assert_eq!(derivation_heights(&g), vec![1]);
    }

    #[test]
    fn optional_and_star_cost_nothing() {
        // A = B* C?  with B, C expensive: the zero-iteration reading wins.
        let g = grammar(vec![
            (
                "A",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    Expr::Star(Box::new(r(1))),
                    Expr::Opt(Box::new(r(1))),
                ])],
            ),
            (
                "B",
                ProdKind::Void,
                vec![Expr::seq(vec![r(1), Expr::literal("b")])],
            ),
        ]);
        let h = derivation_heights(&g);
        assert_eq!(h[0], 1);
        // B only recurses into itself: unbounded.
        assert_eq!(h[1], UNBOUNDED_HEIGHT);
    }

    #[test]
    fn seq_takes_the_tallest_element() {
        let g = grammar(vec![
            ("A", ProdKind::Void, vec![Expr::seq(vec![r(1), r(2)])]),
            ("B", ProdKind::Void, vec![Expr::literal("b")]),
            ("C", ProdKind::Void, vec![r(1)]),
        ]);
        // A needs both B (1) and C (2): height 1 + max = 3.
        assert_eq!(derivation_heights(&g), vec![3, 1, 2]);
    }
}
