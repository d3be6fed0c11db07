//! Syntax-tree navigation: the one walk over detached trees, and the
//! queries built on it.
//!
//! [`Value::walk`] is the pre-order cursor over an `Rc` tree; it keeps
//! its own stack, since a left-recursive fold builds a tree as deep as
//! the input is long. Everything that reads a detached tree goes through
//! it: counting and collecting nodes, locating a source position (for
//! tooling built on `withLocation` grammars), rendering, event streaming
//! and counting error regions. Region walks stay with
//! [`Arena`](crate::Arena), and the drop is an owning walk of its own.

use crate::span::Span;
use crate::value::{Node, SyntaxTree, Value};

/// One step of a [`Walk`].
#[derive(Debug, Clone, Copy)]
pub enum Step<'v> {
    /// A [`Value::Node`] or [`Value::List`] opens: its children follow,
    /// then its [`Step::Exit`].
    Enter(&'v Value),
    /// Any other value: text, unit, absent, or an arena handle
    /// (resolvable only through its region).
    Leaf(&'v Value),
    /// The composite of the matching [`Step::Enter`] closes.
    Exit(&'v Value),
}

/// A borrowed pre-order cursor over a detached value; see
/// [`Value::walk`].
#[derive(Debug)]
pub struct Walk<'v> {
    /// The value still to visit first, until the first step.
    root: Option<&'v Value>,
    /// Per open composite: the composite and its children still to
    /// visit, innermost last.
    open: Vec<(&'v Value, std::slice::Iter<'v, Value>)>,
}

impl<'v> Walk<'v> {
    /// Skips the children still to visit of the innermost open
    /// composite: right after its [`Step::Enter`], its whole subtree. Its
    /// [`Step::Exit`] still follows.
    pub(crate) fn skip_children(&mut self) {
        if let Some((_, children)) = self.open.last_mut() {
            *children = [].iter();
        }
    }

    /// The nodes the rest of the walk enters, preorder.
    fn nodes(self) -> impl Iterator<Item = &'v Node> {
        self.filter_map(|step| match step {
            Step::Enter(Value::Node(n)) => Some(&**n),
            _ => None,
        })
    }
}

impl<'v> Iterator for Walk<'v> {
    type Item = Step<'v>;

    fn next(&mut self) -> Option<Step<'v>> {
        let v = match self.root.take() {
            Some(root) => root,
            None => {
                let (composite, children) = self.open.last_mut()?;
                match children.next() {
                    Some(child) => child,
                    None => {
                        let composite = *composite;
                        self.open.pop();
                        return Some(Step::Exit(composite));
                    }
                }
            }
        };
        let children = match v {
            Value::Node(n) => n.children(),
            Value::List(items) => items.as_slice(),
            _ => return Some(Step::Leaf(v)),
        };
        self.open.push((v, children.iter()));
        Some(Step::Enter(v))
    }
}

impl Value {
    /// Walks this value preorder — parents before children, through
    /// lists — with an explicit stack, so the depth of the tree costs
    /// heap, not call stack.
    pub fn walk(&self) -> Walk<'_> {
        Walk {
            root: Some(self),
            open: Vec::new(),
        }
    }

    /// Collects every node whose kind tag equals `kind`, preorder.
    pub fn find_kind<'v>(&'v self, kind: &str) -> Vec<&'v Node> {
        self.walk()
            .nodes()
            .filter(|n| n.kind().as_str() == kind)
            .collect()
    }

    /// Counts the nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.walk().nodes().count()
    }
}

impl SyntaxTree {
    /// All nodes of the tree, preorder.
    pub fn nodes(&self) -> Vec<&Node> {
        self.root().walk().nodes().collect()
    }

    /// The innermost node whose span contains byte `offset`.
    ///
    /// Only meaningful for trees parsed with spans (the grammar's
    /// `withLocation` option, or the `location-elision` optimization
    /// disabled); span-less nodes are transparent to the search.
    pub fn node_at(&self, offset: u32) -> Option<&Node> {
        let mut best: Option<(&Node, Span)> = None;
        for n in self.root().walk().nodes() {
            if let Some(span) = n.span() {
                if span.contains(offset) && best.is_none_or(|(_, b)| span.len() <= b.len()) {
                    best = Some((n, span));
                }
            }
        }
        best.map(|(n, _)| n)
    }

    /// The chain of spanned nodes covering `offset`, outermost first.
    pub fn path_to(&self, offset: u32) -> Vec<&Node> {
        let mut out = Vec::new();
        let mut walk = self.root().walk();
        while let Some(step) = walk.next() {
            let Step::Enter(Value::Node(n)) = step else {
                continue;
            };
            match n.span() {
                Some(s) if s.contains(offset) => out.push(&**n),
                Some(_) => walk.skip_children(),
                // Even span-less nodes are traversed: their children may
                // carry spans.
                None => {}
            }
        }
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
    fn walk_brackets_composites_around_their_children() {
        let v = Value::node("N", vec![Value::list(vec![Value::Unit]), Value::Absent]);
        let steps: Vec<&str> = v
            .walk()
            .map(|step| match step {
                Step::Enter(_) => "enter",
                Step::Leaf(_) => "leaf",
                Step::Exit(_) => "exit",
            })
            .collect();
        assert_eq!(steps, ["enter", "enter", "leaf", "exit", "leaf", "exit"]);
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

    /// `(Root 0..10 [(Wrap [(Inner 2..5 (Leaf 3..4))]) ($error 5..7)]
    /// (Tail 7..10 (Stray 0..1)))`: a spanned node under a span-less one,
    /// inside a list, next to an error node, and a child whose span
    /// escapes its parent's.
    fn mixed_tree() -> SyntaxTree {
        let spanned = |kind: &str, children: Vec<Value>, lo: u32, hi: u32| {
            Value::Node(std::rc::Rc::new(Node::with_span(
                NodeKind::new(kind),
                children,
                Span::new(lo, hi),
            )))
        };
        let inner = spanned("Inner", vec![spanned("Leaf", vec![], 3, 4)], 2, 5);
        let list = Value::list(vec![
            Value::node("Wrap", vec![inner]),
            spanned(crate::recover::ERROR_KIND, vec![], 5, 7),
        ]);
        let tail = spanned("Tail", vec![spanned("Stray", vec![], 0, 1)], 7, 10);
        SyntaxTree::new("0123456789", spanned("Root", vec![list, tail], 0, 10))
    }

    #[test]
    fn navigation_answers_on_a_mixed_tree() {
        let t = mixed_tree();
        let kinds = |nodes: Vec<&Node>| -> Vec<String> {
            nodes.iter().map(|n| n.kind().as_str().to_owned()).collect()
        };
        assert_eq!(
            kinds(t.nodes()),
            ["Root", "Wrap", "Inner", "Leaf", "$error", "Tail", "Stray"]
        );
        assert_eq!(t.root().node_count(), 7);
        assert_eq!(kinds(t.root().find_kind("Inner")), ["Inner"]);
        assert_eq!(kinds(t.root().find_kind("$error")), ["$error"]);
        let at = |offset| t.node_at(offset).map(|n| n.kind().as_str());
        assert_eq!(at(3), Some("Leaf"));
        assert_eq!(at(2), Some("Inner"));
        assert_eq!(at(5), Some("$error"));
        assert_eq!(at(8), Some("Tail"));
        // The search visits every node, so a stray span still answers.
        assert_eq!(at(0), Some("Stray"));
        assert_eq!(at(10), None);
        // The path never descends into a spanned node off the offset.
        assert_eq!(kinds(t.path_to(3)), ["Root", "Inner", "Leaf"]);
        assert_eq!(kinds(t.path_to(6)), ["Root", "$error"]);
        assert_eq!(kinds(t.path_to(0)), ["Root"]);
        assert!(t.path_to(10).is_empty());
    }

    #[test]
    fn spanless_trees_are_searchable_but_unlocatable() {
        let spanless = SyntaxTree::new("ab", Value::node("N", vec![Value::node("M", vec![])]));
        assert_eq!(spanless.nodes().len(), 2);
        assert!(spanless.node_at(0).is_none());
    }
}
