//! Nullability: can an expression/production match without consuming input?

use crate::expr::Expr;
use crate::grammar::{Grammar, ProdId};

use super::first::first_sets;

/// Whether `expr` can match the empty string, given per-production
/// nullability in `prods` (indexed by [`ProdId::index`]).
pub fn expr_nullable(expr: &Expr<ProdId>, prods: &[bool]) -> bool {
    match expr {
        Expr::Empty => true,
        Expr::Any | Expr::Class(_) => false,
        Expr::Literal(s) => s.is_empty(),
        Expr::Ref(r) => prods.get(r.index()).copied().unwrap_or(false),
        Expr::Seq(xs) => xs.iter().all(|e| expr_nullable(e, prods)),
        Expr::Choice(xs) => xs.iter().any(|e| expr_nullable(e, prods)),
        Expr::Opt(_) | Expr::Star(_) => true,
        Expr::Plus(e) => expr_nullable(e, prods),
        // Predicates never consume input.
        Expr::And(_) | Expr::Not(_) => true,
        Expr::Capture(e)
        | Expr::Void(e)
        | Expr::StateDefine(e)
        | Expr::StateIsDef(e)
        | Expr::StateIsNotDef(e)
        | Expr::StateScope(e) => expr_nullable(e, prods),
    }
}

/// Computes per-production nullability, indexed by [`ProdId::index`]: the
/// `matches_empty` bit of [`first_sets`]. Recursive productions get the
/// least solution (correct for PEGs, where a recursive expansion must
/// make progress to terminate).
pub fn nullable(grammar: &Grammar) -> Vec<bool> {
    first_sets(grammar)
        .iter()
        .map(|f| f.matches_empty)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::grammar::ProdKind;

    #[test]
    fn literals_and_classes() {
        let g = grammar(vec![
            ("Empty", ProdKind::Void, vec![Expr::literal("")]),
            ("NonEmpty", ProdKind::Void, vec![Expr::literal("x")]),
            (
                "Star",
                ProdKind::Void,
                vec![Expr::Star(Box::new(Expr::literal("x")))],
            ),
            (
                "Plus",
                ProdKind::Void,
                vec![Expr::Plus(Box::new(Expr::literal("x")))],
            ),
        ]);
        let n = nullable(&g);
        assert_eq!(n, vec![true, false, true, false]);
    }

    #[test]
    fn nullability_propagates_through_references() {
        let g = grammar(vec![
            ("A", ProdKind::Void, vec![Expr::seq(vec![r(1), r(2)])]),
            (
                "B",
                ProdKind::Void,
                vec![Expr::Opt(Box::new(Expr::literal("b")))],
            ),
            ("C", ProdKind::Void, vec![Expr::literal("")]),
        ]);
        let n = nullable(&g);
        assert!(n.iter().all(|&x| x), "{n:?}");
    }

    #[test]
    fn recursion_gets_least_fixpoint() {
        // A = "x" A — never nullable despite recursion.
        let g = grammar(vec![(
            "A",
            ProdKind::Void,
            vec![
                Expr::seq(vec![Expr::literal("x"), r(0)]),
                Expr::literal("y"),
            ],
        )]);
        assert_eq!(nullable(&g), vec![false]);
    }

    #[test]
    fn predicates_are_nullable() {
        let g = grammar(vec![(
            "A",
            ProdKind::Void,
            vec![Expr::seq(vec![
                Expr::Not(Box::new(Expr::literal("x"))),
                Expr::And(Box::new(Expr::literal("y"))),
            ])],
        )]);
        assert_eq!(nullable(&g), vec![true]);
    }

    #[test]
    fn choice_is_nullable_if_any_arm_is() {
        let g = grammar(vec![(
            "A",
            ProdKind::Void,
            vec![Expr::choice(vec![Expr::literal("x"), Expr::Empty])],
        )]);
        assert_eq!(nullable(&g), vec![true]);
    }
}
