//! Reachability from the root production.

use crate::grammar::{Grammar, ProdId};

/// Computes which productions are reachable from the grammar's root,
/// indexed by [`ProdId::index`]. Feeds the `dead-production` optimization
/// and the module-statistics tooling.
pub fn reachable(grammar: &Grammar) -> Vec<bool> {
    let mut seen = vec![false; grammar.len()];
    let mut stack = vec![grammar.root()];
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        grammar.production(id).for_each_ref(&mut |r: ProdId| {
            if !seen[r.index()] {
                stack.push(r);
            }
        });
    }
    seen
}

/// Counts references to each production from reachable productions
/// (the root gets one synthetic reference): every reference site in a
/// production's alternatives counts once. Feeds the `transient-auto`
/// optimization: a production referenced at most once cannot be re-parsed
/// at the same position by backtracking *through different call sites*, so
/// memoizing it never pays off.
pub fn reference_counts(grammar: &Grammar) -> Vec<u32> {
    let reach = reachable(grammar);
    let mut counts = vec![0u32; grammar.len()];
    counts[grammar.root().index()] += 1;
    for (id, prod) in grammar.iter() {
        if !reach[id.index()] {
            continue;
        }
        prod.for_each_ref(&mut |r: ProdId| {
            counts[r.index()] += 1;
        });
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::expr::Expr;
    use crate::grammar::ProdKind;

    #[test]
    fn unreferenced_production_is_unreachable() {
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![r(1)]),
            ("Used", ProdKind::Void, vec![Expr::literal("x")]),
            ("Dead", ProdKind::Void, vec![Expr::literal("y")]),
        ]);
        assert_eq!(reachable(&g), vec![true, true, false]);
    }

    #[test]
    fn reachability_is_transitive_and_handles_cycles() {
        let g = grammar(vec![
            (
                "A",
                ProdKind::Void,
                vec![Expr::seq(vec![Expr::literal("x"), r(1)])],
            ),
            (
                "B",
                ProdKind::Void,
                vec![Expr::seq(vec![Expr::literal("y"), r(0)])],
            ),
        ]);
        assert_eq!(reachable(&g), vec![true, true]);
    }

    #[test]
    fn reference_counts_ignore_dead_referrers() {
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![Expr::seq(vec![r(1), r(1)])]),
            ("Twice", ProdKind::Void, vec![Expr::literal("x")]),
            (
                "Dead",
                ProdKind::Void,
                vec![Expr::seq(vec![r(1), r(1), r(1)])],
            ),
        ]);
        let counts = reference_counts(&g);
        assert_eq!(counts[0], 1); // synthetic root reference
        assert_eq!(counts[1], 2); // only from Root, not from Dead
        assert_eq!(counts[2], 0);
    }
}
