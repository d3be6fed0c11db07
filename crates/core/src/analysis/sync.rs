//! Recovery synchronization sets, feeding panic-mode error recovery.
//!
//! When a parse fails, the recovery driver skips forward to the next
//! *synchronization byte* and restarts. This analysis computes, per
//! production, a conservative byte set at which a failed attempt of that
//! production could plausibly resynchronize:
//!
//! * **FOLLOW** — bytes that can legally appear immediately after a match
//!   of the production (fixpoint over every reference site), and
//! * **sync** — `FIRST ∪ FOLLOW ∪ @recover bytes`: a byte that can start
//!   the production, follow it, or was explicitly annotated is a sensible
//!   place to resume.
//!
//! The grammar-level **restart** set drives top-level recovery: after a
//! diagnostic, the driver skips to a byte that can start the root
//! production (or any explicitly annotated `@recover` token) and tries
//! again. All sets are over-approximations — recovery quality, never
//! correctness, depends on them.

use crate::expr::Expr;
use crate::grammar::{Grammar, ProdId};

use super::first::{expr_first, first_sets, FirstSet};
use super::solve::{solve, update, Flow, Graph};

/// The result of [`sync_sets`]: per-production FOLLOW and sync sets plus
/// the grammar-level restart set, all indexed by
/// [`ProdId::index`](crate::grammar::ProdId::index).
#[derive(Debug, Clone)]
pub struct SyncAnalysis {
    /// Per-production FIRST sets (same as [`first_sets`], recomputed here
    /// so callers get a consistent snapshot).
    pub first: Vec<FirstSet>,
    /// Per-production FOLLOW sets: bytes that can appear immediately
    /// after a match. `matches_empty` is always `false`.
    pub follow: Vec<FirstSet>,
    /// Per-production synchronization sets:
    /// `FIRST ∪ FOLLOW ∪ first bytes of the production's @recover tokens`.
    pub sync: Vec<FirstSet>,
    /// Grammar-level restart set: `FIRST(root)` plus the first bytes of
    /// every `@recover` token in the grammar. Empty-set degenerate cases
    /// (e.g. a root that can match empty on any byte) fall back to
    /// skip-to-end-of-input in the driver.
    pub restart: FirstSet,
    /// First bytes of every `@recover` token in the grammar (a subset of
    /// `restart`). Engines give these *terminator* semantics — consume
    /// the sync character and resume after it — unless the byte can also
    /// start the root production.
    pub annotated: FirstSet,
}

impl SyncAnalysis {
    /// The restart set as a plain byte list (for engines that serialize
    /// the set into generated code or bytecode).
    pub fn restart_bytes(&self) -> Vec<u8> {
        set_bytes(&self.restart)
    }

    /// A production's sync set as a plain byte list.
    pub fn sync_bytes(&self, id: ProdId) -> Vec<u8> {
        set_bytes(&self.sync[id.index()])
    }

    /// The restart bytes that get terminator (consume-on-resume)
    /// semantics: annotated `@recover` bytes that cannot also start the
    /// root production. Every engine derives its recovery policy from
    /// this same formula, which is what makes diagnostics engine-identical.
    pub fn consume_bytes(&self, root: ProdId) -> Vec<u8> {
        let first_root = self.first[root.index()];
        set_bytes(&self.annotated)
            .into_iter()
            .filter(|&b| !first_root.contains(b))
            .collect()
    }
}

fn set_bytes(s: &FirstSet) -> Vec<u8> {
    (0..=255).filter(|&b| s.contains(b)).collect()
}

fn strip_empty(mut s: FirstSet) -> FirstSet {
    s.matches_empty = false;
    s
}

/// Computes FOLLOW, sync and restart sets for `grammar`.
///
/// FOLLOW is the usual least fixpoint adapted to expression trees, solved
/// callers first: inside a sequence, an element's follow is the FIRST of
/// the remainder, plus the sequence's own follow while the remainder is
/// nullable; a repetition body can additionally be followed by another
/// iteration of itself; every alternative of a choice inherits the
/// choice's follow. Reference sites flow the context into the referenced
/// production's FOLLOW set.
pub fn sync_sets(grammar: &Grammar) -> SyncAnalysis {
    let first = first_sets(grammar);
    let mut follow = vec![FirstSet::none(); grammar.len()];
    let graph = Graph::references(grammar);
    solve(&graph, Flow::Down, &mut follow, |p, follow, changed| {
        let ctx = follow[p.index()];
        for expr in grammar.production(p).exprs() {
            flow(expr, ctx, &first, follow, changed);
        }
    });

    let mut sync = Vec::with_capacity(grammar.len());
    let mut restart = strip_empty(first[grammar.root().index()]);
    let mut annotated = FirstSet::none();
    for (id, prod) in grammar.iter() {
        let mut s = strip_empty(first[id.index()]).union(&follow[id.index()]);
        for tok in &prod.recover {
            if let Some(&b) = tok.as_bytes().first() {
                s.insert(b);
                restart.insert(b);
                annotated.insert(b);
            }
        }
        sync.push(s);
    }

    SyncAnalysis {
        first,
        follow,
        sync,
        restart,
        annotated,
    }
}

/// Propagates the follow context `ctx` through `expr`, unioning into
/// `follow` at every reference site and noting each set it grows in
/// `changed`.
fn flow(
    expr: &Expr<ProdId>,
    ctx: FirstSet,
    first: &[FirstSet],
    follow: &mut [FirstSet],
    changed: &mut Vec<ProdId>,
) {
    match expr {
        Expr::Empty | Expr::Any | Expr::Literal(_) | Expr::Class(_) => {}
        Expr::Ref(r) => {
            let merged = strip_empty(follow[r.index()].union(&ctx));
            update(follow, *r, merged, changed);
        }
        Expr::Seq(xs) => {
            // Right to left: an element's follow is the FIRST of the
            // remainder, plus the sequence's own follow while the
            // remainder stays nullable.
            let mut c = ctx;
            for x in xs.iter().rev() {
                flow(x, c, first, follow, changed);
                let fx = expr_first(x, first);
                c = strip_empty(if fx.matches_empty { fx.union(&c) } else { fx });
            }
        }
        Expr::Choice(xs) => {
            for x in xs {
                flow(x, ctx, first, follow, changed);
            }
        }
        Expr::Opt(e) => flow(e, ctx, first, follow, changed),
        Expr::Star(e) | Expr::Plus(e) => {
            // The body may be followed by another iteration of itself.
            let c = ctx.union(&strip_empty(expr_first(e, first)));
            flow(e, strip_empty(c), first, follow, changed);
        }
        // Predicates consume nothing: a reference inside one is not
        // followed by anything in particular. Flow an empty context so
        // reference sites still contribute their sub-structure.
        Expr::And(e) | Expr::Not(e) => flow(e, FirstSet::none(), first, follow, changed),
        Expr::Capture(e)
        | Expr::Void(e)
        | Expr::StateDefine(e)
        | Expr::StateIsDef(e)
        | Expr::StateIsNotDef(e)
        | Expr::StateScope(e) => flow(e, ctx, first, follow, changed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::grammar::ProdKind;

    #[test]
    fn follow_of_sequence_element_is_first_of_next() {
        // Root = A "b" ;  A = "a" ;
        let g = grammar(vec![
            (
                "Root",
                ProdKind::Void,
                vec![Expr::seq(vec![r(1), Expr::literal("b")])],
            ),
            ("A", ProdKind::Void, vec![Expr::literal("a")]),
        ]);
        let s = sync_sets(&g);
        assert!(s.follow[1].contains(b'b'));
        assert!(!s.follow[1].contains(b'a'));
    }

    #[test]
    fn nullable_remainder_flows_outer_follow_through() {
        // Root = B A? "c" ; B = A "x"? ";" — FOLLOW(A) ⊇ {x, ;} via B and
        // {c} via Root (the `A?` remainder "c").
        let g = grammar(vec![
            (
                "Root",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    r(2),
                    Expr::Opt(Box::new(r(1))),
                    Expr::literal("c"),
                ])],
            ),
            ("A", ProdKind::Void, vec![Expr::literal("a")]),
            (
                "B",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    r(1),
                    Expr::Opt(Box::new(Expr::literal("x"))),
                    Expr::literal(";"),
                ])],
            ),
        ]);
        let s = sync_sets(&g);
        assert!(s.follow[1].contains(b'x'));
        assert!(s.follow[1].contains(b';'));
        assert!(s.follow[1].contains(b'c'));
        assert!(!s.follow[1].contains(b'a'));
    }

    #[test]
    fn star_body_can_be_followed_by_itself() {
        // Root = A* "z" ;
        let g = grammar(vec![
            (
                "Root",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    Expr::Star(Box::new(r(1))),
                    Expr::literal("z"),
                ])],
            ),
            ("A", ProdKind::Void, vec![Expr::literal("a")]),
        ]);
        let s = sync_sets(&g);
        assert!(s.follow[1].contains(b'a'), "next iteration");
        assert!(s.follow[1].contains(b'z'), "after the star");
    }

    #[test]
    fn follow_propagates_transitively_to_tail_position() {
        // Root = A "!" ; A = B ; B = "b" ; — FOLLOW(B) inherits
        // FOLLOW(A) because B is in tail position of A.
        let g = grammar(vec![
            (
                "Root",
                ProdKind::Void,
                vec![Expr::seq(vec![r(1), Expr::literal("!")])],
            ),
            ("A", ProdKind::Void, vec![r(2)]),
            ("B", ProdKind::Void, vec![Expr::literal("b")]),
        ]);
        let s = sync_sets(&g);
        assert!(s.follow[2].contains(b'!'));
    }

    #[test]
    fn sync_is_first_union_follow_union_recover() {
        let mut g = grammar(vec![
            (
                "Root",
                ProdKind::Void,
                vec![Expr::seq(vec![r(1), Expr::literal("}")])],
            ),
            ("Stmt", ProdKind::Void, vec![Expr::literal("s")]),
        ]);
        *g.recover_mut(crate::grammar::ProdId(1)) = vec![";".to_owned()];
        let s = sync_sets(&g);
        let sync = &s.sync[1];
        assert!(sync.contains(b's'), "FIRST");
        assert!(sync.contains(b'}'), "FOLLOW");
        assert!(sync.contains(b';'), "@recover");
        assert_eq!(
            s.sync_bytes(crate::grammar::ProdId(1)),
            vec![b';', b's', b'}']
        );
    }

    #[test]
    fn restart_is_root_first_plus_recover_bytes() {
        let mut g = grammar(vec![
            ("Root", ProdKind::Void, vec![r(1)]),
            ("Stmt", ProdKind::Void, vec![Expr::literal("s")]),
        ]);
        *g.recover_mut(crate::grammar::ProdId(1)) = vec!["}".to_owned()];
        let s = sync_sets(&g);
        assert!(s.restart.contains(b's'), "FIRST(root)");
        assert!(s.restart.contains(b'}'), "annotated token");
        assert!(!s.restart.contains(b'q'));
        assert_eq!(s.restart_bytes(), vec![b's', b'}']);
        assert!(!s.restart.matches_empty);
        // `}` cannot start the root, so it gets terminator semantics;
        // a recover byte that can start the root would not.
        assert_eq!(s.consume_bytes(crate::grammar::ProdId(0)), vec![b'}']);
    }

    #[test]
    fn recover_byte_that_starts_root_is_not_consumed() {
        let mut g = grammar(vec![
            ("Root", ProdKind::Void, vec![r(1)]),
            ("Stmt", ProdKind::Void, vec![Expr::literal("s")]),
        ]);
        *g.recover_mut(crate::grammar::ProdId(1)) = vec!["s".to_owned(), ";".to_owned()];
        let s = sync_sets(&g);
        assert_eq!(s.consume_bytes(crate::grammar::ProdId(0)), vec![b';']);
    }

    #[test]
    fn predicate_interior_gets_no_follow_context() {
        // Root = !A "x" ; — A's follow should not pick up "x" through the
        // predicate (the predicate consumes nothing).
        let g = grammar(vec![
            (
                "Root",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    Expr::Not(Box::new(r(1))),
                    Expr::literal("x"),
                ])],
            ),
            ("A", ProdKind::Void, vec![Expr::literal("a")]),
        ]);
        let s = sync_sets(&g);
        assert!(s.follow[1].is_empty());
    }

    #[test]
    fn follow_flows_from_one_component_into_a_nested_one() {
        // Root = A "!" ; A = "(" B ")" / C ; B = A ("," A)* ;
        // C = "c" D? ; D = "[" C "]" — {A, B} and {C, D} are cycles, the
        // second reached from the first. Callees are declared first.
        let g = grammar(vec![
            (
                "Root",
                ProdKind::Void,
                vec![Expr::seq(vec![r(4), Expr::literal("!")])],
            ),
            (
                "D",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    Expr::literal("["),
                    r(2),
                    Expr::literal("]"),
                ])],
            ),
            (
                "C",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    Expr::literal("c"),
                    Expr::Opt(Box::new(r(1))),
                ])],
            ),
            (
                "B",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    r(4),
                    Expr::Star(Box::new(Expr::seq(vec![Expr::literal(","), r(4)]))),
                ])],
            ),
            (
                "A",
                ProdKind::Void,
                vec![
                    Expr::seq(vec![Expr::literal("("), r(3), Expr::literal(")")]),
                    r(2),
                ],
            ),
        ]);
        let s = sync_sets(&g);
        let bytes = |i: usize| set_bytes(&s.follow[i]);
        assert_eq!(bytes(4), b"!),".to_vec(), "A");
        assert_eq!(bytes(3), b")".to_vec(), "B");
        assert_eq!(bytes(2), b"!),]".to_vec(), "C");
        assert_eq!(bytes(1), b"!),]".to_vec(), "D");
    }
}
