//! Indirect left-recursion detection.
//!
//! Direct left recursion is split by elaboration into base/tail
//! alternatives (see [`crate::grammar::LrSplit`]); this analysis finds what
//! remains: cycles `A → B → … → A` in the *head-reference* graph, where an
//! edge `A → B` exists when matching `A` can invoke `B` at `A`'s own start
//! position.

use crate::expr::Expr;
use crate::grammar::{Alternative, Grammar, ProdId};

use super::nullable::{expr_nullable, nullable};
use super::solve::Graph;

/// Collects the productions `expr` can invoke at its start position.
fn head_refs(expr: &Expr<ProdId>, nullable: &[bool], out: &mut Vec<ProdId>) {
    match expr {
        Expr::Empty | Expr::Any | Expr::Literal(_) | Expr::Class(_) => {}
        Expr::Ref(r) => out.push(*r),
        Expr::Seq(xs) => {
            for x in xs {
                head_refs(x, nullable, out);
                if !expr_nullable(x, nullable) {
                    break;
                }
            }
        }
        Expr::Choice(xs) => {
            for x in xs {
                head_refs(x, nullable, out);
            }
        }
        Expr::Opt(e)
        | Expr::Star(e)
        | Expr::Plus(e)
        | Expr::And(e)
        | Expr::Not(e)
        | Expr::Capture(e)
        | Expr::Void(e)
        | Expr::StateDefine(e)
        | Expr::StateIsDef(e)
        | Expr::StateIsNotDef(e)
        | Expr::StateScope(e) => head_refs(e, nullable, out),
    }
}

/// Finds left-recursive cycles: the strongly connected components of the
/// head-reference graph that have more than one member or a self-edge.
/// Productions whose direct recursion has been split contribute their
/// split alternatives, so only *unsupported* recursion is reported.
///
/// There is one chain per component, in the order a depth-first search
/// in declaration order enters the components. A chain starts at the
/// member the search entered first and follows head edges back to it, so
/// a component that is one simple cycle reads as that cycle.
pub fn left_recursion_cycles(grammar: &Grammar) -> Vec<Vec<ProdId>> {
    cycles(grammar, &nullable(grammar))
}

/// [`left_recursion_cycles`] given per-production nullability.
pub(crate) fn cycles(grammar: &Grammar, nullable: &[bool]) -> Vec<Vec<ProdId>> {
    let edges = grammar.productions().iter().map(|prod| {
        // A split production's bases and tails have lost its leading
        // self-reference; a residual self-edge (say, through a nullable
        // prefix) is genuinely unsupported and stays.
        let (alts, tails): (&[Alternative], &[Alternative]) = match &prod.lr {
            Some(lr) => (&lr.bases, &lr.tails),
            None => (&prod.alts, &[]),
        };
        let mut heads = Vec::new();
        for alt in alts.iter().chain(tails) {
            head_refs(&alt.expr, nullable, &mut heads);
        }
        heads.sort_unstable();
        heads.dedup();
        heads
    });
    let graph = Graph::new(edges.collect());
    // A component's first member is the one the search entered first. Its
    // chain follows search-tree edges down to the first member with an
    // edge back; a component without one is acyclic.
    let mut cycles: Vec<Vec<ProdId>> = graph
        .comps
        .iter()
        .filter_map(|comp| {
            let start = comp[0];
            let mut p = *comp
                .iter()
                .find(|p| graph.edges[p.index()].contains(&start))?;
            let mut chain = vec![start];
            while p != start {
                chain.push(p);
                p = graph.parent[p.index()];
            }
            chain[1..].reverse();
            chain.push(start);
            Some(chain)
        })
        .collect();
    cycles.sort_by_key(|c| graph.entered[c[0].index()]);
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::grammar::{Alternative, ProdKind};

    #[test]
    fn no_cycles_in_right_recursion() {
        // A = "x" A / "y"  — right recursion is fine.
        let g = grammar(vec![(
            "A",
            ProdKind::Void,
            vec![
                Expr::seq(vec![Expr::literal("x"), r(0)]),
                Expr::literal("y"),
            ],
        )]);
        assert!(left_recursion_cycles(&g).is_empty());
    }

    #[test]
    fn direct_cycle_detected_when_unsplit() {
        let g = grammar(vec![(
            "A",
            ProdKind::Void,
            vec![
                Expr::seq(vec![r(0), Expr::literal("x")]),
                Expr::literal("y"),
            ],
        )]);
        let cycles = left_recursion_cycles(&g);
        assert_eq!(cycles.len(), 1);
        assert_eq!(
            cycles[0],
            vec![crate::grammar::ProdId(0), crate::grammar::ProdId(0)]
        );
    }

    #[test]
    fn split_production_reports_no_cycle() {
        let mut g = grammar(vec![
            (
                "E",
                ProdKind::Node,
                vec![Expr::seq(vec![r(0), Expr::literal("+"), r(1)]), r(1)],
            ),
            (
                "N",
                ProdKind::Text,
                vec![Expr::Capture(Box::new(Expr::literal("1")))],
            ),
        ]);
        // Simulate elaboration's split.
        let (mut prods, root) = g.clone().into_parts();
        prods[0].lr = Some(crate::grammar::LrSplit {
            bases: vec![Alternative::new(r(1))],
            tails: vec![Alternative::new(Expr::seq(vec![Expr::literal("+"), r(1)]))],
        });
        g = Grammar::new(prods, root).unwrap();
        assert!(left_recursion_cycles(&g).is_empty());
    }

    #[test]
    fn indirect_cycle_through_nullable_prefix() {
        // A = Opt("x") B ; B = A "y"  — B reaches A at start through the
        // nullable prefix? No: A's first element is nullable, so A's heads
        // include B; B's head is A. Cycle A -> B -> A.
        let g = grammar(vec![
            (
                "A",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    Expr::Opt(Box::new(Expr::literal("x"))),
                    r(1),
                ])],
            ),
            (
                "B",
                ProdKind::Void,
                vec![Expr::seq(vec![r(0), Expr::literal("y")])],
            ),
        ]);
        let cycles = left_recursion_cycles(&g);
        assert_eq!(cycles.len(), 1);
    }

    #[test]
    fn predicate_heads_count() {
        // A = !B "x" ; B = A — predicate invokes B at the same position.
        let g = grammar(vec![
            (
                "A",
                ProdKind::Void,
                vec![Expr::seq(vec![
                    Expr::Not(Box::new(r(1))),
                    Expr::literal("x"),
                ])],
            ),
            ("B", ProdKind::Void, vec![r(0)]),
        ]);
        assert_eq!(left_recursion_cycles(&g).len(), 1);
    }

    #[test]
    fn mutual_recursion_reads_from_the_first_member_entered() {
        // Root = B ; A = B "x" / "a" ; B = A "y" — the search enters B
        // first (through Root), so the chain is B -> A -> B.
        let g = grammar(vec![
            ("Root", ProdKind::Void, vec![r(2)]),
            (
                "A",
                ProdKind::Void,
                vec![
                    Expr::seq(vec![r(2), Expr::literal("x")]),
                    Expr::literal("a"),
                ],
            ),
            (
                "B",
                ProdKind::Void,
                vec![Expr::seq(vec![r(1), Expr::literal("y")])],
            ),
        ]);
        let id = crate::grammar::ProdId;
        assert_eq!(left_recursion_cycles(&g), vec![vec![id(2), id(1), id(2)]]);
    }

    #[test]
    fn component_with_two_cycles_is_reported_once() {
        // A = B "x" / C "y" ; B = A "z" ; C = A "w" — cycles A -> B -> A
        // and A -> C -> A share A, so they form one component.
        let g = grammar(vec![
            (
                "A",
                ProdKind::Void,
                vec![
                    Expr::seq(vec![r(1), Expr::literal("x")]),
                    Expr::seq(vec![r(2), Expr::literal("y")]),
                ],
            ),
            (
                "B",
                ProdKind::Void,
                vec![Expr::seq(vec![r(0), Expr::literal("z")])],
            ),
            (
                "C",
                ProdKind::Void,
                vec![Expr::seq(vec![r(0), Expr::literal("w")])],
            ),
        ]);
        let id = crate::grammar::ProdId;
        assert_eq!(left_recursion_cycles(&g), vec![vec![id(0), id(1), id(0)]]);
    }

    #[test]
    fn components_are_reported_in_entry_order() {
        // A = C / B ; C = C "c" ; B = A — the search enters A, then C's
        // self-loop, before it closes the cycle A -> B -> A.
        let g = grammar(vec![
            ("A", ProdKind::Void, vec![r(1), r(2)]),
            (
                "C",
                ProdKind::Void,
                vec![Expr::seq(vec![r(1), Expr::literal("c")])],
            ),
            ("B", ProdKind::Void, vec![r(0)]),
        ]);
        let id = crate::grammar::ProdId;
        assert_eq!(
            left_recursion_cycles(&g),
            vec![vec![id(0), id(2), id(0)], vec![id(1), id(1)]]
        );
    }
}
