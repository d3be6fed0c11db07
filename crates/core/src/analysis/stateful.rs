//! Stateful-production analysis.
//!
//! Memoizing a production whose result depends on parser state is unsound:
//! the memo key is `(production, position)`, but a stateful production's
//! outcome also depends on the state contents at evaluation time (think of
//! C's `TypedefName`, which matches an identifier only if it was previously
//! `%define`d). This analysis computes the transitive closure of "contains
//! a state operator", and the interpreter/code generator exclude those
//! productions from memoization.

use crate::expr::Expr;
use crate::grammar::Grammar;

/// How a production interacts with parser state (transitively).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateAccess {
    /// Tests state (`%isdef`/`%isndef`) somewhere in its expansion.
    /// Memoized results are only valid within one state epoch.
    pub reads: bool,
    /// Mutates state (`%define`) somewhere in its expansion. Memoizing
    /// such a production would replay its value but skip the mutation,
    /// so writers are never memoized.
    pub writes: bool,
}

impl StateAccess {
    /// Reads or writes.
    pub fn any(self) -> bool {
        self.reads || self.writes
    }
}

fn direct_access(expr: &Expr<crate::grammar::ProdId>) -> StateAccess {
    let mut acc = StateAccess::default();
    expr.walk(&mut |e| match e {
        Expr::StateIsDef(_) | Expr::StateIsNotDef(_) => acc.reads = true,
        Expr::StateDefine(_) => acc.writes = true,
        // %scope is balanced (its net visibility effect is zero), so it is
        // neither a read nor a write by itself.
        _ => {}
    });
    acc
}

/// Computes, per production, its transitive state access.
pub fn state_access(grammar: &Grammar) -> Vec<StateAccess> {
    let mut result: Vec<StateAccess> = grammar
        .productions()
        .iter()
        .map(|p| {
            let mut acc = StateAccess::default();
            if p.attrs.stateful {
                acc.writes = true; // explicit attribute: be conservative
            }
            for e in p.exprs() {
                let d = direct_access(e);
                acc.reads |= d.reads;
                acc.writes |= d.writes;
            }
            acc
        })
        .collect();
    loop {
        let mut changed = false;
        for (id, prod) in grammar.iter() {
            let mut acc = result[id.index()];
            prod.for_each_ref(&mut |r| {
                acc.reads |= result[r.index()].reads;
                acc.writes |= result[r.index()].writes;
            });
            if acc != result[id.index()] {
                result[id.index()] = acc;
                changed = true;
            }
        }
        if !changed {
            return result;
        }
    }
}

/// Computes, per production (indexed by [`ProdId::index`]), whether its
/// expansion can touch parser state — directly or through any reference.
///
/// [`ProdId::index`]: crate::grammar::ProdId::index
pub fn stateful(grammar: &Grammar) -> Vec<bool> {
    // %scope alone also counts here (it bumps scope structure), keeping
    // this coarse query conservative for callers like the inliner.
    let mut result: Vec<bool> = grammar
        .productions()
        .iter()
        .map(|p| p.attrs.stateful || p.uses_state_directly())
        .collect();
    loop {
        let mut changed = false;
        for (id, prod) in grammar.iter() {
            if result[id.index()] {
                continue;
            }
            let mut hit = false;
            prod.for_each_ref(&mut |r| {
                if result[r.index()] {
                    hit = true;
                }
            });
            if hit {
                result[id.index()] = true;
                changed = true;
            }
        }
        if !changed {
            return result;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::expr::Expr;
    use crate::grammar::ProdKind;

    #[test]
    fn direct_state_use_detected() {
        let g = grammar(vec![(
            "TypedefName",
            ProdKind::Text,
            vec![Expr::StateIsDef(Box::new(Expr::Capture(Box::new(
                Expr::literal("t"),
            ))))],
        )]);
        assert_eq!(stateful(&g), vec![true]);
    }

    #[test]
    fn statefulness_propagates_to_callers() {
        let g = grammar(vec![
            ("Top", ProdKind::Void, vec![r(1)]),
            ("Mid", ProdKind::Void, vec![r(2)]),
            (
                "Leaf",
                ProdKind::Void,
                vec![Expr::StateDefine(Box::new(Expr::literal("x")))],
            ),
            ("Clean", ProdKind::Void, vec![Expr::literal("y")]),
        ]);
        assert_eq!(stateful(&g), vec![true, true, true, false]);
    }

    #[test]
    fn reader_writer_split() {
        let g = grammar(vec![
            (
                "Reader",
                ProdKind::Text,
                vec![Expr::StateIsDef(Box::new(Expr::Capture(Box::new(
                    Expr::literal("t"),
                ))))],
            ),
            (
                "Writer",
                ProdKind::Void,
                vec![Expr::StateDefine(Box::new(Expr::literal("t")))],
            ),
            ("Both", ProdKind::Void, vec![Expr::seq(vec![r(0), r(1)])]),
            ("Clean", ProdKind::Void, vec![Expr::literal("x")]),
            (
                "Scoped",
                ProdKind::Void,
                vec![Expr::StateScope(Box::new(Expr::literal("x")))],
            ),
        ]);
        let acc = state_access(&g);
        assert!(acc[0].reads && !acc[0].writes);
        assert!(!acc[1].reads && acc[1].writes);
        assert!(acc[2].reads && acc[2].writes);
        assert!(!acc[3].any());
        // %scope by itself is neither.
        assert!(!acc[4].any());
    }

    #[test]
    fn explicit_attribute_counts() {
        let mut g = grammar(vec![("P", ProdKind::Void, vec![Expr::literal("x")])]);
        let (mut prods, root) = g.clone().into_parts();
        prods[0].attrs.stateful = true;
        g = Grammar::new(prods, root).unwrap();
        assert_eq!(stateful(&g), vec![true]);
    }
}
