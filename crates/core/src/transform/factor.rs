//! Prefix factoring of ordered choices.
//!
//! `a b / a c` re-parses `a` whenever `b` fails — memoization hides the
//! repeated work but not the memo probes. Factoring rewrites the choice to
//! `a (b / c)`, which parses `a` once. The rewrite is applied only where
//! semantic values cannot be affected: in `void` and `String` productions
//! (whose values ignore inner structure). For PEGs the rewrite always
//! preserves the recognized language because expression matching is
//! deterministic.

use crate::diag::Diagnostics;
use crate::expr::Expr;
use crate::grammar::{Alternative, Grammar, ProdId, ProdKind};

fn head_and_tail(e: &Expr<ProdId>) -> (Expr<ProdId>, Expr<ProdId>) {
    match e {
        Expr::Seq(xs) if !xs.is_empty() => (xs[0].clone(), Expr::seq(xs[1..].to_vec())),
        other => (other.clone(), Expr::Empty),
    }
}

/// Factors one list of choice arms; returns `None` when nothing changed.
fn factor_arms(arms: &[Expr<ProdId>]) -> Option<Vec<Expr<ProdId>>> {
    let mut out: Vec<Expr<ProdId>> = Vec::with_capacity(arms.len());
    let mut changed = false;
    let mut i = 0;
    while i < arms.len() {
        let (head, tail) = head_and_tail(&arms[i]);
        // Collect the run of arms sharing this head.
        let mut tails = vec![tail];
        let mut j = i + 1;
        while j < arms.len() {
            let (h2, t2) = head_and_tail(&arms[j]);
            if h2 == head && head != Expr::Empty {
                tails.push(t2);
                j += 1;
            } else {
                break;
            }
        }
        if tails.len() > 1 {
            changed = true;
            let grouped = tails
                .iter()
                .map(|t| factor_expr(t.clone()))
                .collect::<Vec<_>>();
            out.push(Expr::seq(vec![head, Expr::choice(grouped)]));
        } else {
            out.push(arms[i].clone());
        }
        i = j.max(i + 1);
    }
    if changed {
        Some(out)
    } else {
        None
    }
}

/// Recursively factors nested choices inside `e`.
fn factor_expr(e: Expr<ProdId>) -> Expr<ProdId> {
    e.rewrite(&mut |e| match e {
        Expr::Choice(arms) => match factor_arms(&arms) {
            Some(factored) => Expr::choice(factored),
            None => Expr::Choice(arms),
        },
        other => other,
    })
}

/// Applies prefix factoring to every `void`/`String` production (top-level
/// alternatives and nested choices alike).
///
/// # Errors
///
/// Propagates invariant violations from rebuilding (a bug if it happens).
pub fn left_factor(grammar: Grammar) -> Result<Grammar, Diagnostics> {
    let (mut productions, root) = grammar.into_parts();
    for p in productions.iter_mut() {
        if p.kind == ProdKind::Node {
            // Node alternatives choose node kinds; factoring across them
            // would have to track which original alternative matched.
            // Factor only the *nested* choices inside each alternative.
            for alt in &mut p.alts {
                let expr = std::mem::replace(&mut alt.expr, Expr::Empty);
                alt.expr = factor_expr(expr);
            }
            continue;
        }
        let arms: Vec<Expr<ProdId>> = p.alts.iter().map(|a| a.expr.clone()).collect();
        let factored = match factor_arms(&arms) {
            Some(f) => f,
            None => arms.into_iter().map(factor_expr).collect(),
        };
        p.alts = factored
            .into_iter()
            .map(|e| Alternative::new(factor_expr(e)))
            .collect();
    }
    Grammar::new(productions, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::grammar;
    use crate::grammar::ProdKind;

    fn seq2(a: &str, b: &str) -> Expr<ProdId> {
        Expr::seq(vec![Expr::literal(a), Expr::literal(b)])
    }

    #[test]
    fn shared_prefix_is_factored() {
        let g = grammar(vec![(
            "Kw",
            ProdKind::Void,
            vec![seq2("in", "t"), seq2("in", "line"), Expr::literal("if")],
        )]);
        let out = left_factor(g).unwrap();
        let p = out.production(out.root());
        assert_eq!(p.alts.len(), 2);
        assert_eq!(p.alts[0].expr.to_string(), "\"in\" (\"t\" / \"line\")");
        assert_eq!(p.alts[1].expr.to_string(), "\"if\"");
    }

    #[test]
    fn non_adjacent_prefixes_are_not_reordered() {
        // Ordered choice: factoring may only group *adjacent* arms, or it
        // would change match priority.
        let g = grammar(vec![(
            "P",
            ProdKind::Void,
            vec![seq2("a", "x"), Expr::literal("b"), seq2("a", "y")],
        )]);
        let out = left_factor(g).unwrap();
        assert_eq!(out.production(out.root()).alts.len(), 3);
    }

    #[test]
    fn node_production_top_level_untouched() {
        let g = grammar(vec![(
            "N",
            ProdKind::Node,
            vec![seq2("a", "x"), seq2("a", "y")],
        )]);
        let out = left_factor(g).unwrap();
        assert_eq!(out.production(out.root()).alts.len(), 2);
    }

    #[test]
    fn nested_choice_in_node_production_is_factored() {
        let nested = Expr::choice(vec![seq2("a", "x"), seq2("a", "y")]);
        let g = grammar(vec![(
            "N",
            ProdKind::Node,
            vec![Expr::Void(Box::new(nested))],
        )]);
        let out = left_factor(g).unwrap();
        let e = out.production(out.root()).alts[0].expr.to_string();
        assert!(e.contains("\"a\" (\"x\" / \"y\")"), "{e}");
    }

    #[test]
    fn recursive_factoring_inside_grouped_tails() {
        let g = grammar(vec![(
            "P",
            ProdKind::Void,
            vec![
                Expr::seq(vec![
                    Expr::literal("a"),
                    Expr::literal("b"),
                    Expr::literal("1"),
                ]),
                Expr::seq(vec![
                    Expr::literal("a"),
                    Expr::literal("b"),
                    Expr::literal("2"),
                ]),
                Expr::seq(vec![Expr::literal("a"), Expr::literal("c")]),
            ],
        )]);
        let out = left_factor(g).unwrap();
        let p = out.production(out.root());
        assert_eq!(p.alts.len(), 1);
        let s = p.alts[0].expr.to_string();
        assert_eq!(s, "\"a\" (\"b\" (\"1\" / \"2\") / \"c\")");
    }
}
