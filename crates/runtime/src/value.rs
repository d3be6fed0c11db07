//! Generic semantic values — the analogue of xtc's *GNode*s.
//!
//! Rather than generating a typed AST per grammar, modpeg parsers build
//! *generic* syntax trees: every `Node`-kinded production yields a [`Node`]
//! whose kind names the production (and, when present, the matched
//! alternative's label) and whose children are the meaningful component
//! values, in match order. This mirrors the Rats! generic-node mode and
//! keeps the toolkit language-agnostic.

use std::fmt;
use std::rc::Rc;

use crate::navigate::Step;
use crate::span::Span;

/// The kind tag of a [`Node`], e.g. `"Statement.While"` for the `<While>`
/// alternative of production `Statement`.
///
/// Kind tags are reference-counted strings so that cloning values (which
/// packrat memoization does freely) stays cheap.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeKind(Rc<str>);

impl NodeKind {
    /// Creates a kind tag from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        NodeKind(Rc::from(name.as_ref()))
    }

    /// The tag as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The production part of the tag (text before the first `.`).
    pub fn production(&self) -> &str {
        self.0.split('.').next().unwrap_or(&self.0)
    }

    /// The alternative label, when the tag has the `Prod.Label` form.
    pub fn label(&self) -> Option<&str> {
        let dot = self.0.find('.')?;
        Some(&self.0[dot + 1..])
    }

    /// The address of the shared tag string: equal addresses mean the
    /// same tag (engines clone one tag per alternative, so this is how
    /// compaction tells kinds apart without comparing strings).
    pub(crate) fn addr(&self) -> usize {
        Rc::as_ptr(&self.0) as *const u8 as usize
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for NodeKind {
    fn from(s: &str) -> Self {
        NodeKind::new(s)
    }
}

/// A generic syntax-tree node: a kind tag, child values, and (optionally)
/// the source span the node covers.
///
/// Spans are optional because span bookkeeping is itself one of the paper's
/// optimizations (`location-elision`): nodes only carry spans when the
/// grammar demands them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    kind: NodeKind,
    children: Vec<Value>,
    span: Option<Span>,
}

impl Node {
    /// Creates a node with the given kind and children.
    pub fn new(kind: NodeKind, children: Vec<Value>) -> Self {
        Node {
            kind,
            children,
            span: None,
        }
    }

    /// Creates a node that records the span it covers.
    pub fn with_span(kind: NodeKind, children: Vec<Value>, span: Span) -> Self {
        Node {
            kind,
            children,
            span: Some(span),
        }
    }

    /// The node's kind tag.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The node's children.
    pub fn children(&self) -> &[Value] {
        &self.children
    }

    /// The node's source span, if tracked.
    pub fn span(&self) -> Option<Span> {
        self.span
    }

    /// Child at `index`, if present.
    pub fn child(&self, index: usize) -> Option<&Value> {
        self.children.get(index)
    }
}

impl Drop for Node {
    /// Drops the subtree with an explicit stack: a left-recursive fold
    /// builds a left-deep tree, one level per operator, and the default
    /// drop would recurse once per level.
    fn drop(&mut self) {
        if !self.children.is_empty() {
            drop_deep(std::mem::take(&mut self.children));
        }
    }
}

/// Drops `values`, taking apart the composites they own alone with an
/// explicit stack. Composites shared with another owner are only
/// released, not descended into.
fn drop_deep(values: Vec<Value>) {
    let mut open = vec![values.into_iter()];
    while let Some(values) = open.last_mut() {
        let owned = match values.next() {
            Some(Value::Node(mut n)) => {
                Rc::get_mut(&mut n).map(|n| std::mem::take(&mut n.children))
            }
            Some(Value::List(mut l)) => Rc::get_mut(&mut l).map(std::mem::take),
            Some(_) => None,
            None => {
                open.pop();
                None
            }
        };
        open.extend(owned.map(Vec::into_iter));
    }
}

/// A semantic value produced by matching a parsing expression.
///
/// Cloning is O(1) for everything but small inline data: composite values
/// are reference-counted, which is what makes packrat memoization (where
/// the same result may be returned many times) affordable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Value {
    /// No value: produced by `void` productions, predicates, and literals.
    #[default]
    Unit,
    /// Borrowed text: a span into the parser input. Produced by
    /// `String`-kinded productions under the `text-only` optimization.
    Text(Span),
    /// Owned text. Produced by `String` productions when the `text-only`
    /// optimization is disabled (the expensive path the paper eliminates).
    OwnedText(Rc<str>),
    /// A generic syntax-tree node.
    Node(Rc<Node>),
    /// A list of values, from repetitions (`e*`, `e+`).
    List(Rc<Vec<Value>>),
    /// An absent optional (`e?` that did not match). A present optional
    /// yields the inner value directly.
    Absent,
    /// A node allocated in a parse [`Arena`](crate::Arena): an 8-byte
    /// handle instead of an `Rc` tree. Region-backed values must be
    /// resolved (rendered, copied out, compared) through the arena that
    /// allocated them.
    ArenaNode(crate::ArenaRef),
    /// A list allocated in a parse [`Arena`](crate::Arena).
    ArenaList(crate::ArenaRef),
}

impl Value {
    /// Builds a node value.
    pub fn node(kind: impl Into<NodeKind>, children: Vec<Value>) -> Self {
        Value::Node(Rc::new(Node::new(kind.into(), children)))
    }

    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Self {
        Value::List(Rc::new(items))
    }

    /// Whether this is [`Value::Unit`].
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }

    /// The node payload, if this value is a node.
    pub fn as_node(&self) -> Option<&Node> {
        match self {
            Value::Node(n) => Some(n),
            _ => None,
        }
    }

    /// The list payload, if this value is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Resolves this value to text given the original input, if it is
    /// textual ([`Value::Text`] or [`Value::OwnedText`]).
    pub fn as_text<'a>(&'a self, input: &'a str) -> Option<&'a str> {
        match self {
            Value::Text(span) => input.get(span.lo() as usize..span.hi() as usize),
            Value::OwnedText(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as an S-expression, resolving text spans against
    /// `input`. This is the canonical printable form used throughout the
    /// test suite to compare parser outputs.
    pub fn to_sexpr(&self, input: &str) -> String {
        let mut out = String::new();
        // A list's first item follows its `[` directly; every other value
        // but the root follows a space.
        let mut after: Option<Step<'_>> = None;
        for step in self.walk() {
            if !matches!(step, Step::Exit(_))
                && after.is_some_and(|a| !matches!(a, Step::Enter(Value::List(_))))
            {
                out.push(' ');
            }
            after = Some(step);
            match step {
                Step::Enter(Value::Node(n)) => {
                    out.push('(');
                    out.push_str(n.kind.as_str());
                }
                Step::Enter(_) => out.push('['),
                Step::Exit(Value::Node(_)) => out.push(')'),
                Step::Exit(_) => out.push(']'),
                Step::Leaf(Value::Unit) => out.push_str("()"),
                Step::Leaf(Value::Absent) => out.push('~'),
                Step::Leaf(Value::Text(span)) => {
                    out.push('"');
                    out.push_str(
                        input
                            .get(span.lo() as usize..span.hi() as usize)
                            .unwrap_or("<bad-span>"),
                    );
                    out.push('"');
                }
                Step::Leaf(Value::OwnedText(s)) => {
                    out.push('"');
                    out.push_str(s);
                    out.push('"');
                }
                // Unresolvable without the arena; engines copy out before
                // any value escapes to rendering, so this is reachable only
                // from misuse (render what `Arena::copy_out` returns
                // instead).
                Step::Leaf(_) => out.push_str("<arena>"),
            }
        }
        out
    }
}

/// A completed parse: the input text together with the root semantic value.
///
/// Owning a copy of the input lets textual leaves ([`Value::Text`]) stay as
/// spans while the tree remains self-contained.
///
/// # Examples
///
/// ```
/// use modpeg_runtime::{SyntaxTree, Value, Span};
///
/// let tree = SyntaxTree::new("abc", Value::Text(Span::new(0, 3)));
/// assert_eq!(tree.to_sexpr(), "\"abc\"");
/// ```
#[derive(Debug, Clone)]
pub struct SyntaxTree {
    input: Rc<str>,
    root: Value,
}

impl SyntaxTree {
    /// Pairs a root value with the input it was parsed from.
    pub fn new(input: impl AsRef<str>, root: Value) -> Self {
        SyntaxTree {
            input: Rc::from(input.as_ref()),
            root,
        }
    }

    /// The root value.
    pub fn root(&self) -> &Value {
        &self.root
    }

    /// The input text.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// Renders the whole tree as an S-expression.
    pub fn to_sexpr(&self) -> String {
        self.root.to_sexpr(&self.input)
    }
}

impl fmt::Display for SyntaxTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sexpr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_parts() {
        let k = NodeKind::new("Statement.While");
        assert_eq!(k.production(), "Statement");
        assert_eq!(k.label(), Some("While"));
        let plain = NodeKind::new("Expr");
        assert_eq!(plain.production(), "Expr");
        assert_eq!(plain.label(), None);
    }

    #[test]
    fn sexpr_rendering() {
        let input = "1+2";
        let v = Value::node(
            "Add",
            vec![Value::Text(Span::new(0, 1)), Value::Text(Span::new(2, 3))],
        );
        assert_eq!(v.to_sexpr(input), "(Add \"1\" \"2\")");
    }

    #[test]
    fn sexpr_list_unit_absent() {
        let v = Value::list(vec![Value::Unit, Value::Absent]);
        assert_eq!(v.to_sexpr(""), "[() ~]");
    }

    #[test]
    fn as_text_resolves_both_representations() {
        let input = "hello";
        let a = Value::Text(Span::new(0, 5));
        let b = Value::OwnedText(Rc::from("hello"));
        assert_eq!(a.as_text(input), Some("hello"));
        assert_eq!(b.as_text(input), Some("hello"));
        assert_eq!(Value::Unit.as_text(input), None);
    }

    #[test]
    fn sexpr_ignores_text_representation() {
        let input = "abc";
        let spanned = Value::node("N", vec![Value::Text(Span::new(0, 3))]);
        let owned = Value::node("N", vec![Value::OwnedText(Rc::from("abc"))]);
        assert_eq!(spanned.to_sexpr(input), owned.to_sexpr(input));
        let other = Value::node("N", vec![Value::OwnedText(Rc::from("abd"))]);
        assert_ne!(spanned.to_sexpr(input), other.to_sexpr(input));
    }

    #[test]
    fn sexpr_distinguishes_kind_and_arity() {
        let a = Value::node("A", vec![]);
        let b = Value::node("B", vec![]);
        let a2 = Value::node("A", vec![Value::Unit]);
        assert_eq!(a.to_sexpr(""), "(A)");
        assert_eq!(b.to_sexpr(""), "(B)");
        assert_eq!(a2.to_sexpr(""), "(A ())");
    }

    #[test]
    fn sexpr_nests_lists_and_empty_composites() {
        let v = Value::node(
            "N",
            vec![
                Value::list(vec![]),
                Value::list(vec![
                    Value::list(vec![Value::Unit]),
                    Value::node("M", vec![]),
                ]),
                Value::Absent,
            ],
        );
        assert_eq!(v.to_sexpr(""), "(N [] [[()] (M)] ~)");
    }

    #[test]
    fn tree_roundtrip() {
        let tree = SyntaxTree::new("xy", Value::node("P", vec![Value::Text(Span::new(0, 2))]));
        assert_eq!(tree.input(), "xy");
        assert_eq!(tree.to_sexpr(), "(P \"xy\")");
        assert_eq!(format!("{tree}"), "(P \"xy\")");
    }
}
