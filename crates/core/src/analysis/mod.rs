//! Static analyses over the flat grammar.
//!
//! All analyses produce per-production vectors indexed by
//! [`ProdId::index`]:
//!
//! * [`first_sets`] — which first bytes can a production's match begin
//!   with, and can it match empty ([`nullable`])?
//! * [`reachable`] — which productions are reachable from the root?
//! * [`state_access`] — which productions (transitively) touch parser
//!   state and therefore must never be memoized?
//! * [`sync_sets`] — FOLLOW and recovery-synchronization byte sets.
//! * [`left_recursion_cycles`] — indirect left-recursion detection.
//! * [`derivation_heights`] — shortest derivation height per production.
//!
//! The fixpoints share one iterative SCC pass and one solver, which visits
//! the components in dependency order with a worklist inside each.
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
mod solve;
mod stateful;
mod sync;

pub use cost::{derivation_heights, expr_height, UNBOUNDED_HEIGHT};
pub use first::{expr_first, first_sets, FirstSet};
pub use leftrec::left_recursion_cycles;
pub use lint::lint;
pub use nullable::{expr_nullable, nullable};
pub use reach::{reachable, reference_counts};
pub use stateful::{state_access, StateAccess};
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

    for cycle in leftrec::cycles(grammar, &nullable) {
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

    /// `P0 = "a"? P1 ; P1 = "a"? P2 ; … ; P{n-1} = "z"`, declared caller
    /// first or callee first; production `k` of the chain is at index
    /// `at(k)`.
    fn chain(n: u32, callee_first: bool) -> (Grammar, impl Fn(u32) -> usize) {
        let at = move |k: u32| (if callee_first { n - 1 - k } else { k }) as usize;
        let mut prods: Vec<_> = (0..n)
            .map(|k| {
                let body = if k + 1 < n {
                    Expr::seq(vec![
                        Expr::Opt(Box::new(Expr::literal("a"))),
                        r(at(k + 1) as u32),
                    ])
                } else {
                    Expr::literal("z")
                };
                (format!("P{k}"), body)
            })
            .collect();
        if callee_first {
            prods.reverse();
        }
        let g = grammar(
            prods
                .iter()
                .map(|(name, body)| (name.as_str(), ProdKind::Void, vec![body.clone()]))
                .collect(),
        );
        (
            g.with_root(crate::grammar::ProdId(at(0) as u32)).unwrap(),
            at,
        )
    }

    #[test]
    fn a_chain_gives_the_same_facts_in_either_declaration_order() {
        let n = 50;
        let (down, at_down) = chain(n, false);
        let (up, at_up) = chain(n, true);
        let (fd, fu) = (first_sets(&down), first_sets(&up));
        let (hd, hu) = (derivation_heights(&down), derivation_heights(&up));
        let (sd, su) = (sync_sets(&down), sync_sets(&up));
        for k in 0..n {
            let (d, u) = (at_down(k), at_up(k));
            assert_eq!(fd[d], fu[u], "FIRST of P{k}");
            assert_eq!(hd[d], hu[u], "height of P{k}");
            assert_eq!(hd[d], n - k, "height of P{k}");
            assert_eq!(sd.follow[d], su.follow[u], "FOLLOW of P{k}");
        }
        assert!(fd[at_down(0)].contains(b'a') && fd[at_down(0)].contains(b'z'));
        assert!(check_well_formed(&down).is_ok() && check_well_formed(&up).is_ok());
    }
}
