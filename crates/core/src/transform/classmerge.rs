//! Terminal optimization: collapsing single-character choices into
//! character classes.
//!
//! `"+" / "-" / [0-9]` forces the parser to try alternatives one at a
//! time; `[+\-0-9]` is a single range test. The rewrite is sound for
//! single-character arms regardless of order (for one-character matches,
//! ordered choice and set membership recognize the same language) and is
//! applied only in value-irrelevant positions: `void`/`String` productions
//! and subexpressions already wrapped in `%void`/`$`.

use crate::diag::Diagnostics;
use crate::expr::{CharClass, Expr};
use crate::grammar::{Alternative, Grammar, ProdId, ProdKind};

/// A single-character arm's class, if it has one.
fn as_single_char_class(e: &Expr<ProdId>) -> Option<CharClass> {
    match e {
        Expr::Literal(s) => {
            let mut chars = s.chars();
            let c = chars.next()?;
            if chars.next().is_some() {
                return None;
            }
            Some(CharClass::single(c))
        }
        Expr::Class(c) if !c.is_negated() => Some(c.clone()),
        _ => None,
    }
}

fn merge_arms(arms: &[Expr<ProdId>]) -> Option<Vec<Expr<ProdId>>> {
    let mut out: Vec<Expr<ProdId>> = Vec::with_capacity(arms.len());
    let mut changed = false;
    let mut i = 0;
    while i < arms.len() {
        if let Some(mut acc) = as_single_char_class(&arms[i]) {
            let mut j = i + 1;
            while j < arms.len() {
                match as_single_char_class(&arms[j]) {
                    Some(c) => {
                        acc = acc.union(&c).expect("both classes are non-negated");
                        j += 1;
                    }
                    None => break,
                }
            }
            if j > i + 1 {
                changed = true;
                out.push(Expr::Class(acc));
                i = j;
                continue;
            }
        }
        out.push(arms[i].clone());
        i += 1;
    }
    if changed {
        Some(out)
    } else {
        None
    }
}

fn merge_expr(e: Expr<ProdId>) -> Expr<ProdId> {
    e.rewrite(&mut |e| match e {
        Expr::Choice(arms) => match merge_arms(&arms) {
            Some(merged) => Expr::choice(merged),
            None => Expr::Choice(arms),
        },
        other => other,
    })
}

/// Merges single-character choice arms across the grammar's
/// value-irrelevant positions.
///
/// # Errors
///
/// Propagates invariant violations from rebuilding (a bug if it happens).
pub fn merge_classes(grammar: Grammar) -> Result<Grammar, Diagnostics> {
    let (mut productions, root) = grammar.into_parts();
    for p in productions.iter_mut() {
        match p.kind {
            ProdKind::Node => {
                // Inside a Node production, merging is safe only under
                // value-discarding wrappers.
                for alt in &mut p.alts {
                    let expr = std::mem::replace(&mut alt.expr, Expr::Empty);
                    alt.expr = expr.rewrite(&mut |e| match e {
                        Expr::Void(inner) => Expr::Void(Box::new(merge_expr(*inner))),
                        Expr::Capture(inner) => Expr::Capture(Box::new(merge_expr(*inner))),
                        Expr::Not(inner) => Expr::Not(Box::new(merge_expr(*inner))),
                        Expr::And(inner) => Expr::And(Box::new(merge_expr(*inner))),
                        other => other,
                    });
                }
            }
            ProdKind::Void | ProdKind::Text => {
                let arms: Vec<Expr<ProdId>> =
                    p.alts.iter().map(|a| merge_expr(a.expr.clone())).collect();
                let merged = merge_arms(&arms).unwrap_or(arms);
                p.alts = merged.into_iter().map(Alternative::new).collect();
            }
        }
    }
    Grammar::new(productions, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::grammar;
    use crate::grammar::ProdKind;

    #[test]
    fn adjacent_single_chars_merge() {
        let g = grammar(vec![(
            "Op",
            ProdKind::Text,
            vec![
                Expr::literal("+"),
                Expr::literal("-"),
                Expr::Class(CharClass::from_ranges(vec![('0', '9')], false)),
            ],
        )]);
        let out = merge_classes(g).unwrap();
        let p = out.production(out.root());
        assert_eq!(p.alts.len(), 1);
        match &p.alts[0].expr {
            Expr::Class(c) => {
                assert!(c.matches('+') && c.matches('-') && c.matches('7'));
                assert!(!c.matches('x'));
            }
            other => panic!("expected class, got {other}"),
        }
    }

    #[test]
    fn multichar_literal_blocks_merge() {
        let g = grammar(vec![(
            "Op",
            ProdKind::Text,
            vec![Expr::literal("+"), Expr::literal("++"), Expr::literal("-")],
        )]);
        let out = merge_classes(g).unwrap();
        // "+" cannot merge past "++" (order matters for prefixes).
        assert_eq!(out.production(out.root()).alts.len(), 3);
    }

    #[test]
    fn negated_class_is_not_merged() {
        let g = grammar(vec![(
            "P",
            ProdKind::Void,
            vec![
                Expr::Class(CharClass::from_ranges(vec![('a', 'a')], true)),
                Expr::literal("b"),
            ],
        )]);
        let out = merge_classes(g).unwrap();
        assert_eq!(out.production(out.root()).alts.len(), 2);
    }

    #[test]
    fn nested_choice_in_capture_merges_inside_node_production() {
        let nested = Expr::choice(vec![Expr::literal("a"), Expr::literal("b")]);
        let g = grammar(vec![(
            "N",
            ProdKind::Node,
            vec![Expr::Capture(Box::new(nested))],
        )]);
        let out = merge_classes(g).unwrap();
        let s = out.production(out.root()).alts[0].expr.to_string();
        assert_eq!(s, "$[a-b]"); // adjacent singletons coalesce into a range
    }

    #[test]
    fn bare_choice_in_node_production_untouched() {
        // The arms produce (unit) values positionally; leave them alone.
        let nested = Expr::choice(vec![Expr::literal("a"), Expr::literal("b")]);
        let g = grammar(vec![("N", ProdKind::Node, vec![nested])]);
        let out = merge_classes(g).unwrap();
        let s = out.production(out.root()).alts[0].expr.to_string();
        assert_eq!(s, "\"a\" / \"b\"");
    }
}
