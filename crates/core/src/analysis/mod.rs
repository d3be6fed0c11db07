//! Static analyses over the flat grammar.
//!
//! All analyses are whole-grammar fixpoints producing per-production
//! vectors indexed by [`ProdId::index`]:
//!
//! * [`nullable`] — can a production match the empty string?
//! * [`reachable`] — which productions are reachable from the root?
//! * [`stateful`] — which productions (transitively) touch parser state
//!   and therefore must never be memoized?
//! * [`first_sets`] — which first bytes can a production's match begin
//!   with? (feeds the `terminal-dispatch` optimization)
//! * [`sync_sets`] — FOLLOW and recovery-synchronization byte sets
//!   (feeds panic-mode error recovery).
//! * [`left_recursion_cycles`] — indirect left-recursion detection.
//! * [`derivation_heights`] — shortest derivation height per production
//!   (budgets the conformance harness's sentence generator).
//!
//! [`check_well_formed`] bundles the checks that make a grammar unusable
//! when violated; elaboration runs it automatically.
//!
//! [`ProdId::index`]: crate::grammar::ProdId::index

mod cost;
mod first;
mod leftrec;
mod lint;
mod nullable;
mod reach;
mod stateful;
mod sync;

pub use cost::{derivation_heights, expr_height, UNBOUNDED_HEIGHT};
pub use first::{expr_first, first_sets, FirstSet};
pub use leftrec::left_recursion_cycles;
pub use lint::lint;
pub use nullable::{expr_nullable, nullable};
pub use reach::{reachable, reference_counts};
pub use stateful::{state_access, stateful, StateAccess};
pub use sync::{sync_sets, SyncAnalysis};

use crate::diag::{Diagnostic, Diagnostics};
use crate::expr::Expr;
use crate::grammar::Grammar;

/// Runs the well-formedness checks a usable grammar must pass:
///
/// 1. no repetition (`e*`, `e+`) over a nullable `e` (would loop forever),
/// 2. no indirect left recursion (direct left recursion has been split by
///    elaboration; anything left is unsupported).
///
/// # Errors
///
/// Returns one diagnostic per violation.
pub fn check_well_formed(grammar: &Grammar) -> Result<(), Diagnostics> {
    let mut diags = Diagnostics::new();
    let nullable = nullable(grammar);

    for (_, prod) in grammar.iter() {
        for expr in prod.exprs() {
            expr.walk(&mut |e| {
                if let Expr::Star(inner) | Expr::Plus(inner) = e {
                    if expr_nullable(inner, &nullable) {
                        diags.push(Diagnostic::error(format!(
                            "in `{}`: repetition over nullable expression `{}`",
                            prod.name, inner
                        )));
                    }
                }
            });
        }
    }

    for cycle in left_recursion_cycles(grammar) {
        let names: Vec<&str> = cycle
            .iter()
            .map(|id| grammar.production(*id).name.as_str())
            .collect();
        diags.push(Diagnostic::error(format!(
            "unsupported (indirect) left recursion: {}",
            names.join(" -> ")
        )));
    }

    if diags.has_errors() {
        Err(diags)
    } else {
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for analysis tests.

    use crate::expr::Expr;
    use crate::grammar::{Alternative, Grammar, ProdId, ProdKind, Production};

    /// Builds a grammar from `(name, kind, alternatives)` triples with the
    /// first production as root. References are indices.
    pub fn grammar(prods: Vec<(&str, ProdKind, Vec<Expr<ProdId>>)>) -> Grammar {
        let productions = prods
            .into_iter()
            .map(|(name, kind, alts)| {
                Production::new(name, kind, alts.into_iter().map(Alternative::new).collect())
            })
            .collect();
        Grammar::new(productions, ProdId(0)).expect("test grammar is valid")
    }

    pub fn r(i: u32) -> Expr<ProdId> {
        Expr::Ref(ProdId(i))
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{grammar, r};
    use super::*;
    use crate::grammar::ProdKind;

    #[test]
    fn nullable_star_is_rejected() {
        let g = grammar(vec![(
            "A",
            ProdKind::Void,
            vec![Expr::Star(Box::new(Expr::Opt(Box::new(Expr::literal(
                "x",
            )))))],
        )]);
        let err = check_well_formed(&g).unwrap_err();
        assert!(
            err.to_string().contains("repetition over nullable"),
            "{err}"
        );
    }

    #[test]
    fn indirect_left_recursion_is_rejected() {
        let g = grammar(vec![
            ("A", ProdKind::Void, vec![r(1)]),
            (
                "B",
                ProdKind::Void,
                vec![Expr::seq(vec![r(0), Expr::literal("x")])],
            ),
        ]);
        let err = check_well_formed(&g).unwrap_err();
        assert!(err.to_string().contains("left recursion"), "{err}");
    }

    #[test]
    fn well_formed_grammar_passes() {
        let g = grammar(vec![
            (
                "A",
                ProdKind::Void,
                vec![Expr::seq(vec![Expr::literal("a"), r(1)])],
            ),
            (
                "B",
                ProdKind::Void,
                vec![Expr::Star(Box::new(Expr::literal("b")))],
            ),
        ]);
        assert!(check_well_formed(&g).is_ok());
    }
}
