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

    /// Estimated heap bytes retained by this value, counting shared
    /// subtrees once per reference (an upper-bound estimate; packrat result
    /// sharing can make true retention smaller). Arena handles retain
    /// nothing themselves — the region's footprint is accounted by
    /// [`Arena::retained_bytes`](crate::Arena::retained_bytes).
    pub fn retained_bytes(&self) -> usize {
        match self {
            Value::Unit
            | Value::Absent
            | Value::Text(_)
            | Value::ArenaNode(_)
            | Value::ArenaList(_) => 0,
            Value::OwnedText(s) => s.len() + 16,
            Value::Node(n) => {
                let own = std::mem::size_of::<Node>()
                    + n.children.capacity() * std::mem::size_of::<Value>();
                own + n.children.iter().map(Value::retained_bytes).sum::<usize>()
            }
            Value::List(l) => {
                let own = std::mem::size_of::<Vec<Value>>()
                    + l.capacity() * std::mem::size_of::<Value>();
                own + l.iter().map(Value::retained_bytes).sum::<usize>()
            }
        }
    }

    fn write_sexpr(&self, input: &str, out: &mut String) {
        match self {
            Value::Unit => out.push_str("()"),
            Value::Absent => out.push('~'),
            Value::Text(span) => {
                out.push('"');
                out.push_str(input.get(span.lo() as usize..span.hi() as usize).unwrap_or("<bad-span>"));
                out.push('"');
            }
            Value::OwnedText(s) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            Value::Node(n) => {
                out.push('(');
                out.push_str(n.kind.as_str());
                for c in &n.children {
                    out.push(' ');
                    c.write_sexpr(input, out);
                }
                out.push(')');
            }
            Value::List(l) => {
                out.push('[');
                for (i, c) in l.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    c.write_sexpr(input, out);
                }
                out.push(']');
            }
            // Unresolvable without the arena; engines copy out before any
            // value escapes to rendering, so this is reachable only from
            // misuse (render through `Arena::to_sexpr` instead).
            Value::ArenaNode(_) | Value::ArenaList(_) => out.push_str("<arena>"),
        }
    }

    /// Renders the value as an S-expression, resolving text spans against
    /// `input`. This is the canonical printable form used throughout the
    /// test suite to compare parser outputs.
    pub fn to_sexpr(&self, input: &str) -> String {
        let mut out = String::new();
        self.write_sexpr(input, &mut out);
        out
    }

    /// Structural equality modulo text representation: `Text` spans and
    /// `OwnedText` compare equal when they denote the same characters of
    /// `input`, and node spans are ignored. Used to check that
    /// optimizations preserve semantics. Arena handles always compare
    /// unequal here — use [`Arena::same_shape`](crate::Arena::same_shape)
    /// to compare region-backed values.
    pub fn same_shape(&self, other: &Value, input: &str) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) | (Value::Absent, Value::Absent) => true,
            (a @ (Value::Text(_) | Value::OwnedText(_)), b @ (Value::Text(_) | Value::OwnedText(_))) => {
                a.as_text(input) == b.as_text(input)
            }
            (Value::Node(a), Value::Node(b)) => {
                a.kind == b.kind
                    && a.children.len() == b.children.len()
                    && a.children
                        .iter()
                        .zip(b.children.iter())
                        .all(|(x, y)| x.same_shape(y, input))
            }
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.same_shape(y, input))
            }
            _ => false,
        }
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

    /// Estimated heap bytes retained by the tree (excluding the input copy).
    pub fn retained_bytes(&self) -> usize {
        self.root.retained_bytes()
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
    fn same_shape_ignores_text_representation() {
        let input = "abc";
        let spanned = Value::node("N", vec![Value::Text(Span::new(0, 3))]);
        let owned = Value::node("N", vec![Value::OwnedText(Rc::from("abc"))]);
        assert!(spanned.same_shape(&owned, input));
        let other = Value::node("N", vec![Value::OwnedText(Rc::from("abd"))]);
        assert!(!spanned.same_shape(&other, input));
    }

    #[test]
    fn same_shape_distinguishes_kind_and_arity() {
        let a = Value::node("A", vec![]);
        let b = Value::node("B", vec![]);
        let a2 = Value::node("A", vec![Value::Unit]);
        assert!(!a.same_shape(&b, ""));
        assert!(!a.same_shape(&a2, ""));
        assert!(a.same_shape(&a.clone(), ""));
    }

    #[test]
    fn retained_bytes_grows_with_structure() {
        let leaf = Value::Text(Span::new(0, 1));
        let small = Value::node("N", vec![leaf.clone()]);
        let big = Value::node("N", vec![small.clone(), small.clone(), small.clone()]);
        assert_eq!(leaf.retained_bytes(), 0);
        assert!(big.retained_bytes() > small.retained_bytes());
    }

    #[test]
    fn tree_roundtrip() {
        let tree = SyntaxTree::new("xy", Value::node("P", vec![Value::Text(Span::new(0, 2))]));
        assert_eq!(tree.input(), "xy");
        assert_eq!(tree.to_sexpr(), "(P \"xy\")");
        assert_eq!(format!("{tree}"), "(P \"xy\")");
    }
}
