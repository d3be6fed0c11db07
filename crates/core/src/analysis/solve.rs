//! The SCC pass and the fixpoint solver behind the whole-grammar analyses:
//! neither recurses per production, and along an acyclic chain each
//! production is evaluated once, whatever the declaration order.

use std::collections::VecDeque;

use crate::grammar::{Grammar, ProdId};

const NONE: u32 = u32::MAX;

/// A production graph split into strongly connected components.
pub(crate) struct Graph {
    /// Successors per production.
    pub edges: Vec<Vec<ProdId>>,
    /// The components, each after every one it has an edge into. Members
    /// are in entry order, so the first was entered first.
    pub comps: Vec<Vec<ProdId>>,
    /// Per production: the index of its component in `comps`.
    pub comp_of: Vec<u32>,
    /// Per production: its position in the search's entry order.
    pub entered: Vec<u32>,
    /// Per production: the one the search entered it from (a root: itself).
    pub parent: Vec<ProdId>,
}

impl Graph {
    /// The reference graph: `p → r` for every `r` that `p` refers to.
    pub fn references(grammar: &Grammar) -> Graph {
        let edges = grammar.productions().iter().map(|p| {
            let mut refs = Vec::new();
            p.for_each_ref(&mut |r| refs.push(r));
            refs
        });
        Graph::new(edges.collect())
    }

    /// Tarjan's algorithm on an explicit stack, searching from each
    /// unvisited production in index order and along edges in order.
    pub fn new(edges: Vec<Vec<ProdId>>) -> Graph {
        let n = edges.len();
        let mut g = Graph {
            comps: Vec::new(),
            comp_of: vec![NONE; n],
            entered: vec![NONE; n],
            parent: (0..n as u32).map(ProdId).collect(),
            edges,
        };
        let (mut low, mut stack, mut next) = (vec![0; n], Vec::new(), 0);
        // A production and the index of its next edge, per search level.
        let mut frames: Vec<(ProdId, usize)> = Vec::new();
        for root in (0..n as u32).map(ProdId) {
            if g.entered[root.index()] == NONE {
                frames.push((root, 0));
            }
            while let Some((v, i)) = frames.pop() {
                let vi = v.index();
                if i == 0 {
                    (g.entered[vi], low[vi], next) = (next, next, next + 1);
                    stack.push(v);
                }
                if let Some(&w) = g.edges[vi].get(i) {
                    frames.push((v, i + 1));
                    if g.entered[w.index()] == NONE {
                        g.parent[w.index()] = v;
                        frames.push((w, 0));
                    } else if g.comp_of[w.index()] == NONE {
                        // `w` is still on the stack.
                        low[vi] = low[vi].min(g.entered[w.index()]);
                    }
                } else {
                    if let Some(&(u, _)) = frames.last() {
                        low[u.index()] = low[u.index()].min(low[vi]);
                    }
                    if low[vi] == g.entered[vi] {
                        let at = stack.iter().rposition(|&x| x == v).expect("v is stacked");
                        for x in &stack[at..] {
                            g.comp_of[x.index()] = g.comps.len() as u32;
                        }
                        g.comps.push(stack.split_off(at));
                    }
                }
            }
        }
        g
    }
}

/// Which way an analysis' facts travel along the edges.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Successor to predecessor (FIRST, heights, state access).
    Up,
    /// Predecessor to successor (FOLLOW).
    Down,
}

/// Runs `transfer` until nothing changes: one component at a time, the
/// ones facts come from first, with a worklist inside each.
///
/// `transfer(p, values, changed)` evaluates `p`'s equations and notes in
/// `changed` every production whose value it changed: under [`Flow::Up`]
/// only `p`, from its successors' values; under [`Flow::Down`] only `p`'s
/// successors, from `p`'s value. From the bottom of a lattice, monotone
/// transfers reach the least fixpoint.
pub(crate) fn solve<T>(
    graph: &Graph,
    flow: Flow,
    values: &mut [T],
    mut transfer: impl FnMut(ProdId, &mut [T], &mut Vec<ProdId>),
) {
    // Who rereads a changed value within its component: under `Up` its
    // predecessors there, under `Down` the production itself.
    let mut preds = vec![Vec::new(); values.len()];
    for (v, succ) in graph.edges.iter().enumerate().filter(|_| flow == Flow::Up) {
        for w in succ
            .iter()
            .filter(|w| graph.comp_of[w.index()] == graph.comp_of[v])
        {
            preds[w.index()].push(ProdId(v as u32));
        }
    }
    let (mut queued, mut work, mut changed) = (vec![false; values.len()], VecDeque::new(), vec![]);
    let comps: Vec<_> = match flow {
        Flow::Up => graph.comps.iter().collect(),
        Flow::Down => graph.comps.iter().rev().collect(),
    };
    for comp in comps {
        for &p in comp {
            queued[p.index()] = true;
            work.push_back(p);
        }
        while let Some(p) = work.pop_front() {
            queued[p.index()] = false;
            transfer(p, values, &mut changed);
            for x in changed.drain(..) {
                let readers = match flow {
                    Flow::Up => &preds[x.index()][..],
                    Flow::Down => std::slice::from_ref(&x),
                };
                for &r in readers {
                    if graph.comp_of[r.index()] == graph.comp_of[p.index()] && !queued[r.index()] {
                        queued[r.index()] = true;
                        work.push_back(r);
                    }
                }
            }
        }
    }
}

/// Stores `v` as `p`'s value, noting `p` in `changed` if it differs.
pub(crate) fn update<T: PartialEq>(values: &mut [T], p: ProdId, v: T, changed: &mut Vec<ProdId>) {
    if values[p.index()] != v {
        values[p.index()] = v;
        changed.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[&[u32]]) -> Graph {
        Graph::new(
            edges
                .iter()
                .map(|succ| succ.iter().map(|&w| ProdId(w)).collect())
                .collect(),
        )
    }

    fn ids(comps: &[Vec<ProdId>]) -> Vec<Vec<u32>> {
        comps
            .iter()
            .map(|c| c.iter().map(|p| p.0).collect())
            .collect()
    }

    #[test]
    fn components_come_after_their_successors() {
        // 0 → 1 ⇄ 2 → 3, and 4 alone.
        let g = graph(&[&[1], &[2], &[1, 3], &[], &[]]);
        assert_eq!(ids(&g.comps), vec![vec![3], vec![1, 2], vec![0], vec![4]]);
        assert_eq!(g.comp_of, vec![2, 1, 1, 0, 3]);
        assert_eq!(g.entered, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_cycles_form_one_component() {
        // 0 → 1 → 2 → 0 and 1 → 3 → 1: two cycles through 1.
        let g = graph(&[&[1], &[2, 3], &[0], &[1]]);
        assert_eq!(ids(&g.comps), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn a_long_chain_needs_no_thread_stack() {
        let n = 200_000u32;
        let edges = (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![ProdId(i + 1)]
                } else {
                    vec![]
                }
            })
            .collect();
        let g = Graph::new(edges);
        assert_eq!(g.comps.len(), n as usize);
        assert_eq!(g.comps[0], vec![ProdId(n - 1)]);
    }

    #[test]
    fn up_and_down_reach_the_fixpoint_in_either_order() {
        // Distance to the sink 3 along 0 → 1 ⇄ 2 → 3 (Up), and
        // reachability from 0 (Down).
        let g = graph(&[&[1], &[2], &[1, 3], &[]]);
        let mut dist = vec![u32::MAX; 4];
        solve(&g, Flow::Up, &mut dist, |p, dist, changed| {
            let v = if p.0 == 3 {
                0
            } else {
                g.edges[p.index()]
                    .iter()
                    .map(|w| dist[w.index()].saturating_add(1))
                    .min()
                    .unwrap_or(u32::MAX)
            };
            update(dist, p, v, changed);
        });
        assert_eq!(dist, vec![3, 2, 1, 0]);

        let mut reached = vec![true, false, false, false];
        solve(&g, Flow::Down, &mut reached, |p, reached, changed| {
            if reached[p.index()] {
                for &w in &g.edges[p.index()] {
                    update(reached, w, true, changed);
                }
            }
        });
        assert_eq!(reached, vec![true; 4]);
    }
}
