//! Grammar folding: merging structurally identical productions.
//!
//! Large composed grammars routinely end up with duplicate lexical
//! productions — every module that needs its own `Spacing` or `Digit`
//! contributes one. Folding merges `void` and `String` productions whose
//! alternatives are structurally identical, redirecting references to a
//! single representative. `Node` productions are never folded: their names
//! become node kinds, so merging would change parser output.

use std::collections::HashMap;

use crate::diag::Diagnostics;
use crate::grammar::{Grammar, ProdId, ProdKind, Production};

/// Canonical key of a production for folding purposes.
fn key(p: &Production) -> Option<(ProdKind, bool, String)> {
    if p.kind == ProdKind::Node {
        return None;
    }
    // The rendered alternatives (with resolved ids) identify the structure;
    // labels are irrelevant for non-Node kinds.
    let body = p
        .alts
        .iter()
        .map(|a| a.expr.to_string())
        .collect::<Vec<_>>()
        .join(" / ");
    Some((p.kind, p.attrs.stateful, body))
}

/// Merges duplicate `void`/`String` productions until fixpoint.
///
/// Attribute handling on merge: the representative stays memoizable unless
/// *all* duplicates were `transient`; `memo` and `public` are or-ed.
///
/// # Errors
///
/// Propagates invariant violations from rebuilding (a bug if it happens).
pub fn fold_duplicates(grammar: Grammar) -> Result<Grammar, Diagnostics> {
    let mut g = grammar;
    // Merging can expose further duplicates (bodies become equal after
    // reference remapping); iterate to fixpoint with a safety bound.
    for _ in 0..16 {
        let (mut productions, root) = g.into_parts();
        let mut representative: HashMap<(ProdKind, bool, String), ProdId> = HashMap::new();
        let mut map: Vec<ProdId> = (0..productions.len() as u32).map(ProdId).collect();
        let mut merged_any = false;
        for (i, p) in productions.iter().enumerate() {
            if ProdId(i as u32) == root {
                continue; // keep the root stable
            }
            let Some(k) = key(p) else { continue };
            match representative.get(&k) {
                Some(&rep) => {
                    map[i] = rep;
                    merged_any = true;
                }
                None => {
                    representative.insert(k, ProdId(i as u32));
                }
            }
        }
        if !merged_any {
            return Grammar::new(productions, root);
        }
        // Merge attributes into representatives.
        for (i, &target) in map.iter().enumerate() {
            if target.index() != i {
                let dup = productions[i].clone();
                let rep = &mut productions[target.index()];
                rep.attrs.transient &= dup.attrs.transient;
                rep.attrs.memo |= dup.attrs.memo;
                rep.attrs.public |= dup.attrs.public;
            }
        }
        // Redirect references, then drop now-dead duplicates via DCE-style
        // compaction.
        let mut compact: Vec<ProdId> = vec![ProdId(u32::MAX); productions.len()];
        let mut kept: Vec<Production> = Vec::with_capacity(productions.len());
        for (i, p) in productions.iter().enumerate() {
            if map[i].index() == i {
                compact[i] = ProdId(kept.len() as u32);
                kept.push(p.clone());
            }
        }
        let final_map: Vec<ProdId> = map.iter().map(|m| compact[m.index()]).collect();
        super::remap_refs(&mut kept, &final_map);
        let new_root = final_map[root.index()];
        g = Grammar::new(kept, new_root)?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::expr::Expr;
    use crate::grammar::Attrs;

    #[test]
    fn identical_text_productions_fold() {
        let g = grammar(vec![
            ("Root", ProdKind::Node, vec![Expr::seq(vec![r(1), r(2)])]),
            (
                "SpacingA",
                ProdKind::Void,
                vec![Expr::Star(Box::new(Expr::literal(" ")))],
            ),
            (
                "SpacingB",
                ProdKind::Void,
                vec![Expr::Star(Box::new(Expr::literal(" ")))],
            ),
        ]);
        let out = fold_duplicates(g).unwrap();
        assert_eq!(out.len(), 2);
        let mut refs = Vec::new();
        out.production(out.root())
            .for_each_ref(&mut |x| refs.push(x));
        assert_eq!(refs[0], refs[1]);
    }

    #[test]
    fn node_productions_never_fold() {
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![Expr::seq(vec![r(1), r(2)])]),
            ("A", ProdKind::Node, vec![Expr::literal("x")]),
            ("B", ProdKind::Node, vec![Expr::literal("x")]),
        ]);
        let out = fold_duplicates(g).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn different_kinds_do_not_fold() {
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![Expr::seq(vec![r(1), r(2)])]),
            ("V", ProdKind::Void, vec![Expr::literal("x")]),
            ("T", ProdKind::Text, vec![Expr::literal("x")]),
        ]);
        let out = fold_duplicates(g).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn folding_cascades_through_references() {
        // W1/W2 identical; D1 = W1, D2 = W2 become identical only after
        // the first merge.
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![Expr::seq(vec![r(1), r(2)])]),
            ("D1", ProdKind::Void, vec![r(3)]),
            ("D2", ProdKind::Void, vec![r(4)]),
            ("W1", ProdKind::Void, vec![Expr::literal("w")]),
            ("W2", ProdKind::Void, vec![Expr::literal("w")]),
        ]);
        let out = fold_duplicates(g).unwrap();
        assert_eq!(out.len(), 3); // Root, one D, one W
    }

    #[test]
    fn transient_attribute_merges_conservatively() {
        let mk = |name: &str, transient: bool| {
            let mut p = Production::new(
                name,
                ProdKind::Void,
                vec![crate::grammar::Alternative::new(Expr::literal("x"))],
            );
            p.attrs = Attrs {
                transient,
                ..Attrs::default()
            };
            p
        };
        let root = Production::new(
            "Root",
            ProdKind::Void,
            vec![crate::grammar::Alternative::new(Expr::seq(vec![
                r(1),
                r(2),
            ]))],
        );
        let g = Grammar::new(vec![root, mk("A", true), mk("B", false)], ProdId(0)).unwrap();
        let out = fold_duplicates(g).unwrap();
        assert_eq!(out.len(), 2);
        let merged = out.iter().find(|(_, p)| p.name != "Root").unwrap().1;
        assert!(!merged.attrs.transient, "one duplicate wanted memoization");
    }

    #[test]
    fn root_is_never_folded_away() {
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![Expr::literal("x")]),
            ("Copy", ProdKind::Void, vec![Expr::literal("x")]),
        ]);
        let out = fold_duplicates(g).unwrap();
        assert_eq!(out.production(out.root()).name, "Root");
    }
}
