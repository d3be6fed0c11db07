//! Dead-production elimination.

use crate::analysis::reachable;
use crate::diag::Diagnostics;
use crate::grammar::{Grammar, ProdId};

/// Removes productions unreachable from the root, remapping references.
///
/// # Errors
///
/// Propagates invariant violations from rebuilding (a bug if it happens).
pub fn eliminate_dead(grammar: Grammar) -> Result<Grammar, Diagnostics> {
    let reach = reachable(&grammar);
    if reach.iter().all(|&r| r) {
        return Ok(grammar);
    }
    let (productions, root) = grammar.into_parts();
    let mut map = vec![ProdId(u32::MAX); productions.len()];
    let mut kept = Vec::with_capacity(productions.len());
    for (i, p) in productions.into_iter().enumerate() {
        if reach[i] {
            map[i] = ProdId(kept.len() as u32);
            kept.push(p);
        }
    }
    let new_root = map[root.index()];
    super::remap_refs(&mut kept, &map);
    super::rebuild(kept, new_root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::expr::Expr;
    use crate::grammar::ProdKind;

    #[test]
    fn removes_unreachable_and_remaps() {
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![r(2)]),
            ("Dead", ProdKind::Void, vec![Expr::literal("d")]),
            ("Live", ProdKind::Void, vec![Expr::literal("l")]),
        ]);
        let out = eliminate_dead(g).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.find("Dead").is_none());
        let live = out.find("Live").unwrap();
        // Root's reference now points at the remapped Live.
        let mut refs = Vec::new();
        out.production(out.root())
            .for_each_ref(&mut |x| refs.push(x));
        assert_eq!(refs, vec![live]);
    }

    #[test]
    fn fully_live_grammar_unchanged() {
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![r(1)]),
            ("Leaf", ProdKind::Void, vec![Expr::literal("x")]),
        ]);
        let out = eliminate_dead(g.clone()).unwrap();
        assert_eq!(out, g);
    }

    #[test]
    fn dead_cycle_removed() {
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![Expr::literal("r")]),
            (
                "DeadA",
                ProdKind::Void,
                vec![Expr::seq(vec![Expr::literal("x"), r(2)])],
            ),
            (
                "DeadB",
                ProdKind::Void,
                vec![Expr::seq(vec![Expr::literal("y"), r(1)])],
            ),
        ]);
        let out = eliminate_dead(g).unwrap();
        assert_eq!(out.len(), 1);
    }
}
