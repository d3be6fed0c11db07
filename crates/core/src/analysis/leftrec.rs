//! Indirect left-recursion detection.
//!
//! Direct left recursion is split by elaboration into base/tail
//! alternatives (see [`crate::grammar::LrSplit`]); this analysis finds what
//! remains: cycles `A → B → … → A` in the *head-reference* graph, where an
//! edge `A → B` exists when matching `A` can invoke `B` at `A`'s own start
//! position.

use crate::expr::Expr;
use crate::grammar::{Grammar, ProdId};

use super::nullable::{expr_nullable, nullable};

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

/// Finds left-recursive cycles, each reported as the chain of productions
/// from the entry back to itself. Productions whose direct recursion has
/// been split contribute their split alternatives, so only *unsupported*
/// recursion is reported.
pub fn left_recursion_cycles(grammar: &Grammar) -> Vec<Vec<ProdId>> {
    let nullable = nullable(grammar);
    let n = grammar.len();

    // Head-edge adjacency.
    let mut edges: Vec<Vec<ProdId>> = vec![Vec::new(); n];
    for (id, prod) in grammar.iter() {
        let mut heads = Vec::new();
        match &prod.lr {
            Some(lr) => {
                for alt in lr.bases.iter().chain(lr.tails.iter()) {
                    head_refs(&alt.expr, &nullable, &mut heads);
                }
                // The split removed the leading self-reference; ignore any
                // residual self-edge from e.g. a nullable prefix followed
                // by self (that genuinely unsupported case keeps the edge).
            }
            None => {
                for alt in &prod.alts {
                    head_refs(&alt.expr, &nullable, &mut heads);
                }
            }
        }
        heads.sort_unstable();
        heads.dedup();
        edges[id.index()] = heads;
    }

    // DFS with colors; report each cycle once (at its entry point).
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut stack: Vec<ProdId> = Vec::new();
    let mut cycles = Vec::new();

    fn dfs(
        v: ProdId,
        edges: &[Vec<ProdId>],
        color: &mut [Color],
        stack: &mut Vec<ProdId>,
        cycles: &mut Vec<Vec<ProdId>>,
    ) {
        color[v.index()] = Color::Gray;
        stack.push(v);
        for &w in &edges[v.index()] {
            match color[w.index()] {
                Color::White => dfs(w, edges, color, stack, cycles),
                Color::Gray => {
                    let start = stack
                        .iter()
                        .position(|x| *x == w)
                        .expect("gray node is on the stack");
                    let mut cycle: Vec<ProdId> = stack[start..].to_vec();
                    cycle.push(w);
                    cycles.push(cycle);
                }
                Color::Black => {}
            }
        }
        stack.pop();
        color[v.index()] = Color::Black;
    }

    for (id, _) in grammar.iter() {
        if color[id.index()] == Color::White {
            dfs(id, &edges, &mut color, &mut stack, &mut cycles);
        }
    }
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
}
