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

use super::solve::{solve, update, Flow, Graph};

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
    /// Opens a `%scope` somewhere in its expansion. A scope is balanced
    /// (its net visibility effect is zero), so it is neither a read nor a
    /// write, but it still changes scope structure: the inliner keeps
    /// such productions as they are.
    pub scopes: bool,
}

impl StateAccess {
    /// Reads or writes.
    pub fn any(self) -> bool {
        self.reads || self.writes
    }

    fn join(self, other: StateAccess) -> StateAccess {
        StateAccess {
            reads: self.reads || other.reads,
            writes: self.writes || other.writes,
            scopes: self.scopes || other.scopes,
        }
    }
}

fn direct_access(expr: &Expr<crate::grammar::ProdId>) -> StateAccess {
    let mut acc = StateAccess::default();
    expr.walk(&mut |e| match e {
        Expr::StateIsDef(_) | Expr::StateIsNotDef(_) => acc.reads = true,
        Expr::StateDefine(_) => acc.writes = true,
        Expr::StateScope(_) => acc.scopes = true,
        _ => {}
    });
    acc
}

/// Computes, per production (indexed by [`ProdId::index`]), its transitive
/// state access: what its own expressions do, joined with what every
/// production it references does.
///
/// [`ProdId::index`]: crate::grammar::ProdId::index
pub fn state_access(grammar: &Grammar) -> Vec<StateAccess> {
    let mut access: Vec<StateAccess> = grammar
        .productions()
        .iter()
        .map(|p| {
            let own = StateAccess {
                // explicit attribute: be conservative
                writes: p.attrs.stateful,
                ..StateAccess::default()
            };
            p.exprs().map(direct_access).fold(own, StateAccess::join)
        })
        .collect();
    let graph = Graph::references(grammar);
    solve(&graph, Flow::Up, &mut access, |p, access, changed| {
        let acc = graph.edges[p.index()]
            .iter()
            .fold(access[p.index()], |acc, r| acc.join(access[r.index()]));
        update(access, p, acc, changed);
    });
    access
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::expr::Expr;
    use crate::grammar::ProdKind;

    /// What the inliner treats as stateful.
    fn stateful(g: &Grammar) -> Vec<bool> {
        state_access(g)
            .iter()
            .map(|a| a.reads || a.writes || a.scopes)
            .collect()
    }

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
        assert!(acc[4].scopes && !acc[0].scopes);
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
