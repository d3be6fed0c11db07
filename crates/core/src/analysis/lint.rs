//! Composition lints: the "checks for conflicting rules" the paper lists
//! as future work, implemented as warnings.
//!
//! When independently written modules are composed, ordered choice makes
//! certain mistakes silent: an added alternative can be *unreachable*
//! because an earlier alternative always matches first. These lints catch
//! the decidable cases:
//!
//! * duplicate alternatives (structurally identical expressions),
//! * a nullable alternative followed by more alternatives (the nullable
//!   one always succeeds, so the rest are dead),
//! * a literal alternative that is a prefix of a later literal
//!   alternative (`"a" / "ab"` — the longer one never matches),
//! * productions unreachable from the root.

use std::collections::HashMap;

use crate::diag::Diagnostic;
use crate::expr::Expr;
use crate::grammar::{Alternative, Grammar, ProdId};

use super::first::{expr_first, first_sets};
use super::reach::reachable;

fn single_literal(alt: &Alternative) -> Option<&str> {
    match &alt.expr {
        Expr::Literal(s) => Some(s),
        _ => None,
    }
}

/// Per alternative `i`, the later alternatives it makes unreachable, in
/// order: equal ones, and literals that `i`'s literal is a proper prefix
/// of. Each alternative looks itself up among the earlier ones, and a
/// literal also each of its char-boundary prefixes, the empty one
/// included.
fn shadowed(alts: &[Alternative]) -> Vec<Vec<usize>> {
    let mut earlier: HashMap<&Expr<ProdId>, Vec<usize>> = HashMap::new();
    let mut later = vec![Vec::new(); alts.len()];
    for (j, b) in alts.iter().enumerate() {
        let q = single_literal(b).unwrap_or_default();
        let prefixes: Vec<_> = q
            .char_indices()
            .map(|(k, _)| Expr::literal(&q[..k]))
            .collect();
        for p in prefixes.iter().chain([&b.expr]) {
            for &i in earlier.get(p).into_iter().flatten() {
                later[i].push(j);
            }
        }
        earlier.entry(&b.expr).or_default().push(j);
    }
    later
}

/// Runs the composition lints, returning warnings (never errors).
pub fn lint(grammar: &Grammar) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let reach = reachable(grammar);
    let firsts = first_sets(grammar);

    for (id, prod) in grammar.iter() {
        if !reach[id.index()] {
            out.push(Diagnostic::warning(format!(
                "production `{}` is unreachable from the root",
                prod.name
            )));
            continue;
        }
        // First sets over-approximate, so an empty, non-nullable first set
        // proves the production can never match (e.g. every alternative was
        // removed by modifications).
        let pf = &firsts[id.index()];
        if pf.is_empty() && !pf.matches_empty {
            out.push(Diagnostic::warning(format!(
                "production `{}` can never match (its first set is empty)",
                prod.name
            )));
        }
        let alts = &prod.alts;
        let shadowed = shadowed(alts);
        for (i, a) in alts.iter().enumerate() {
            let f = expr_first(&a.expr, &firsts);
            if f.is_empty() && !f.matches_empty {
                out.push(Diagnostic::warning(format!(
                    "in `{}`: alternative {} can never match (its first set is empty)",
                    prod.name,
                    label_of(a, i)
                )));
            }
            // Nullable alternative shadowing everything after it.
            if i + 1 < alts.len() && f.matches_empty {
                out.push(Diagnostic::warning(format!(
                    "in `{}`: alternative {} can match the empty string, making {} later alternative(s) unreachable",
                    prod.name,
                    label_of(a, i),
                    alts.len() - i - 1
                )));
            }
            for &j in &shadowed[i] {
                let b = &alts[j];
                if a.expr == b.expr {
                    out.push(Diagnostic::warning(format!(
                        "in `{}`: alternative {} duplicates alternative {} and is unreachable",
                        prod.name,
                        label_of(b, j),
                        label_of(a, i)
                    )));
                } else if let (Some(p), Some(q)) = (single_literal(a), single_literal(b)) {
                    out.push(Diagnostic::warning(format!(
                        "in `{}`: literal alternative {} (\"{}\") is shadowed by the earlier prefix {} (\"{}\")",
                        prod.name,
                        label_of(b, j),
                        crate::expr::escape_literal(q),
                        label_of(a, i),
                        crate::expr::escape_literal(p)
                    )));
                }
            }
        }
    }
    out
}

fn label_of(alt: &Alternative, index: usize) -> String {
    match &alt.label {
        Some(l) => format!("<{l}>"),
        None => format!("#{}", index + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::grammar::ProdKind;

    fn messages(g: &Grammar) -> Vec<String> {
        lint(g)
            .into_iter()
            .map(|d| d.message().to_owned())
            .collect()
    }

    #[test]
    fn clean_grammar_has_no_warnings() {
        let g = grammar(vec![(
            "Root",
            ProdKind::Void,
            vec![Expr::literal("a"), Expr::literal("b")],
        )]);
        assert!(messages(&g).is_empty());
    }

    #[test]
    fn duplicate_alternative_detected() {
        let g = grammar(vec![(
            "P",
            ProdKind::Void,
            vec![Expr::literal("x"), Expr::literal("x")],
        )]);
        let msgs = messages(&g);
        assert!(msgs.iter().any(|m| m.contains("duplicates")), "{msgs:?}");
    }

    #[test]
    fn nullable_alternative_shadows_rest() {
        let g = grammar(vec![(
            "P",
            ProdKind::Void,
            vec![Expr::Opt(Box::new(Expr::literal("x"))), Expr::literal("y")],
        )]);
        let msgs = messages(&g);
        assert!(msgs.iter().any(|m| m.contains("empty string")), "{msgs:?}");
    }

    #[test]
    fn literal_prefix_shadowing_detected() {
        let g = grammar(vec![(
            "Op",
            ProdKind::Void,
            vec![Expr::literal("+"), Expr::literal("+=")],
        )]);
        let msgs = messages(&g);
        assert!(
            msgs.iter()
                .any(|m| m.contains("shadowed by the earlier prefix")),
            "{msgs:?}"
        );
        // The safe order produces no warning.
        let ok = grammar(vec![(
            "Op",
            ProdKind::Void,
            vec![Expr::literal("+="), Expr::literal("+")],
        )]);
        assert!(messages(&ok).is_empty());
    }

    #[test]
    fn emptied_production_detected() {
        // A modification can remove every alternative of a production; the
        // caller of such a production can then never match.
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![r(1)]),
            ("Emptied", ProdKind::Void, vec![]),
        ]);
        let msgs = messages(&g);
        assert!(
            msgs.iter().any(|m| m.contains("can never match")),
            "{msgs:?}"
        );
    }

    #[test]
    fn unreachable_production_detected() {
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![r(1)]),
            ("Used", ProdKind::Void, vec![Expr::literal("u")]),
            ("Dead", ProdKind::Void, vec![Expr::literal("d")]),
        ]);
        let msgs = messages(&g);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("`Dead` is unreachable"));
    }

    #[test]
    fn library_grammars_carry_no_accidental_dead_alternatives() {
        // The shipped grammars should be lint-clean apart from known
        // intentionally-unreachable helpers (none today).
        let g = grammar(vec![(
            "Kw",
            ProdKind::Void,
            vec![Expr::literal("in"), Expr::literal("if")],
        )]);
        assert!(messages(&g).is_empty());
    }
}
