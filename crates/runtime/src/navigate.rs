//! Syntax-tree navigation: visiting, querying, and locating nodes.
//!
//! Generic trees need generic plumbing. These helpers cover the access
//! patterns application code actually uses on parser output: walk every
//! node, collect nodes by kind, and find the innermost node covering a
//! source position (for tooling built on `withLocation` grammars).

use crate::span::Span;
use crate::value::{Node, SyntaxTree, Value};

impl Value {
    /// Visits every [`Node`] reachable from this value, preorder (parents
    /// before children), including through lists.
    pub fn walk_nodes<'v>(&'v self, f: &mut impl FnMut(&'v Node)) {
        match self {
            Value::Node(node) => {
                f(node);
                for child in node.children() {
                    child.walk_nodes(f);
                }
            }
            Value::List(items) => {
                for item in items.iter() {
                    item.walk_nodes(f);
                }
            }
            _ => {}
        }
    }

    /// Collects every node whose kind tag equals `kind`.
    pub fn find_kind<'v>(&'v self, kind: &str) -> Vec<&'v Node> {
        let mut out = Vec::new();
        self.walk_nodes(&mut |n| {
            if n.kind().as_str() == kind {
                out.push(n);
            }
        });
        out
    }

    /// Counts the nodes in the tree.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk_nodes(&mut |_| n += 1);
        n
    }
}

impl SyntaxTree {
    /// All nodes of the tree, preorder.
    pub fn nodes(&self) -> Vec<&Node> {
        let mut out = Vec::new();
        self.root().walk_nodes(&mut |n| out.push(n));
        out
    }

    /// The innermost node whose span contains byte `offset`.
    ///
    /// Only meaningful for trees parsed with spans (the grammar's
    /// `withLocation` option, or the `location-elision` optimization
    /// disabled); span-less nodes are transparent to the search.
    pub fn node_at(&self, offset: u32) -> Option<&Node> {
        let mut best: Option<(&Node, Span)> = None;
        self.root().walk_nodes(&mut |n| {
            if let Some(span) = n.span() {
                if span.contains(offset) && best.is_none_or(|(_, b)| span.len() <= b.len()) {
                    best = Some((n, span));
                }
            }
        });
        best.map(|(n, _)| n)
    }

    /// The chain of spanned nodes covering `offset`, outermost first.
    pub fn path_to(&self, offset: u32) -> Vec<&Node> {
        let mut out = Vec::new();
        fn descend<'v>(value: &'v Value, offset: u32, out: &mut Vec<&'v Node>) {
            match value {
                Value::Node(node) => {
                    if node.span().is_some_and(|s| s.contains(offset)) {
                        out.push(node);
                    }
                    // Even span-less nodes are traversed: their children
                    // may carry spans.
                    if node.span().is_none_or(|s| s.contains(offset)) {
                        for c in node.children() {
                            descend(c, offset, out);
                        }
                    }
                }
                Value::List(items) => {
                    for item in items.iter() {
                        descend(item, offset, out);
                    }
                }
                _ => {}
            }
        }
        descend(self.root(), offset, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::NodeKind;

    fn leaf(kind: &str, lo: u32, hi: u32) -> Value {
        Value::Node(std::rc::Rc::new(Node::with_span(
            NodeKind::new(kind),
            vec![],
            Span::new(lo, hi),
        )))
    }

    fn tree() -> SyntaxTree {
        // (Root 0..10 [(A 0..4) (B 4..10 [(C 5..7)])])
        let c = leaf("C", 5, 7);
        let b = Value::Node(std::rc::Rc::new(Node::with_span(
            NodeKind::new("B"),
            vec![Value::list(vec![c])],
            Span::new(4, 10),
        )));
        let a = leaf("A", 0, 4);
        let root = Value::Node(std::rc::Rc::new(Node::with_span(
            NodeKind::new("Root"),
            vec![a, b],
            Span::new(0, 10),
        )));
        SyntaxTree::new("0123456789", root)
    }

    #[test]
    fn walk_visits_preorder_through_lists() {
        let t = tree();
        let kinds: Vec<&str> = t.nodes().iter().map(|n| n.kind().as_str()).collect();
        assert_eq!(kinds, vec!["Root", "A", "B", "C"]);
        assert_eq!(t.root().node_count(), 4);
    }

    #[test]
    fn find_kind_collects_matches() {
        let t = tree();
        assert_eq!(t.root().find_kind("C").len(), 1);
        assert_eq!(t.root().find_kind("Zzz").len(), 0);
    }

    #[test]
    fn node_at_returns_innermost() {
        let t = tree();
        assert_eq!(t.node_at(5).unwrap().kind().as_str(), "C");
        assert_eq!(t.node_at(4).unwrap().kind().as_str(), "B");
        assert_eq!(t.node_at(1).unwrap().kind().as_str(), "A");
        assert!(t.node_at(10).is_none(), "offset past all spans");
    }

    #[test]
    fn path_to_is_outermost_first() {
        let t = tree();
        let path: Vec<&str> = t.path_to(6).iter().map(|n| n.kind().as_str()).collect();
        assert_eq!(path, vec!["Root", "B", "C"]);
    }

    #[test]
    fn spanless_trees_are_searchable_but_unlocatable() {
        let spanless = SyntaxTree::new("ab", Value::node("N", vec![Value::node("M", vec![])]));
        assert_eq!(spanless.nodes().len(), 2);
        assert!(spanless.node_at(0).is_none());
    }
}
