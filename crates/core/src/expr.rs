//! Parsing expressions — the body language of productions.
//!
//! [`Expr`] is generic over its nonterminal-reference type `R`: module-level
//! syntax uses `Expr<String>` (names still unresolved), while the flat,
//! elaborated grammar uses `Expr<ProdId>`. All structural helpers are
//! written once against the generic type.

use std::fmt;
use std::rc::Rc;

/// A set of character ranges, optionally negated, e.g. `[a-zA-Z_]` or
/// `[^"\\]`.
///
/// Ranges are kept sorted and coalesced so that structurally equal classes
/// compare equal (which the `fold-duplicates` optimization relies on).
///
/// # Examples
///
/// ```
/// use modpeg_core::CharClass;
///
/// let c = CharClass::from_ranges(vec![('a', 'z'), ('0', '9')], false);
/// assert!(c.matches('q'));
/// assert!(!c.matches('Q'));
/// assert_eq!(c.to_string(), "[0-9a-z]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CharClass {
    /// Sorted, coalesced inclusive ranges.
    ranges: Vec<(char, char)>,
    negated: bool,
}

impl CharClass {
    /// Builds a class from inclusive ranges; ranges are normalized (sorted,
    /// overlaps merged, empty ranges dropped).
    pub fn from_ranges(ranges: Vec<(char, char)>, negated: bool) -> Self {
        let mut ranges: Vec<(char, char)> = ranges.into_iter().filter(|(a, b)| a <= b).collect();
        ranges.sort_unstable();
        let mut merged: Vec<(char, char)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some((_, prev_hi)) if lo as u32 <= *prev_hi as u32 + 1 => {
                    if hi > *prev_hi {
                        *prev_hi = hi;
                    }
                }
                _ => merged.push((lo, hi)),
            }
        }
        CharClass {
            ranges: merged,
            negated,
        }
    }

    /// A class matching exactly one character.
    pub fn single(c: char) -> Self {
        CharClass::from_ranges(vec![(c, c)], false)
    }

    /// The normalized ranges.
    pub fn ranges(&self) -> &[(char, char)] {
        &self.ranges
    }

    /// Whether the class is negated (`[^...]`).
    pub fn is_negated(&self) -> bool {
        self.negated
    }

    /// Whether `c` is matched by the class.
    pub fn matches(&self, c: char) -> bool {
        let inside = self
            .ranges
            .binary_search_by(|&(lo, hi)| {
                if c < lo {
                    std::cmp::Ordering::Greater
                } else if c > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok();
        inside != self.negated
    }

    /// Merges another class into this one. Only defined when neither class
    /// is negated; returns `None` otherwise.
    pub fn union(&self, other: &CharClass) -> Option<CharClass> {
        if self.negated || other.negated {
            return None;
        }
        let mut ranges = self.ranges.clone();
        ranges.extend_from_slice(&other.ranges);
        Some(CharClass::from_ranges(ranges, false))
    }

    /// Number of characters matched, if the class is non-negated.
    pub fn count(&self) -> Option<u32> {
        if self.negated {
            return None;
        }
        Some(
            self.ranges
                .iter()
                .map(|(a, b)| *b as u32 - *a as u32 + 1)
                .sum(),
        )
    }
}

fn push_class_char(out: &mut String, c: char) {
    match c {
        '\\' => out.push_str("\\\\"),
        ']' => out.push_str("\\]"),
        '-' => out.push_str("\\-"),
        '^' => out.push_str("\\^"),
        '\n' => out.push_str("\\n"),
        '\r' => out.push_str("\\r"),
        '\t' => out.push_str("\\t"),
        c => out.push(c),
    }
}

impl fmt::Display for CharClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::from("[");
        if self.negated {
            out.push('^');
        }
        for &(lo, hi) in &self.ranges {
            push_class_char(&mut out, lo);
            if hi != lo {
                out.push('-');
                push_class_char(&mut out, hi);
            }
        }
        out.push(']');
        f.write_str(&out)
    }
}

/// Escapes a literal's text for display inside double quotes.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// A parsing expression over nonterminal references of type `R`.
///
/// The operator set is Ford's PEG core plus modpeg's extensions:
///
/// * `$e` ([`Expr::Capture`]) — match `e`, yield the matched text,
/// * `%void(e)` ([`Expr::Void`]) — match `e`, discard its value,
/// * the `%define`/`%isdef`/`%isndef`/`%scope` state operators used for
///   context-sensitive syntax such as C `typedef` names.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr<R> {
    /// `""` — the empty match, always succeeds without consuming.
    Empty,
    /// `.` — any single character.
    Any,
    /// `"text"` — a literal string.
    Literal(Rc<str>),
    /// `[a-z]` — a character class.
    Class(CharClass),
    /// A nonterminal reference.
    Ref(R),
    /// `e1 e2 …` — sequence.
    Seq(Vec<Expr<R>>),
    /// `e1 / e2 / …` — ordered choice (nested, unlabeled).
    Choice(Vec<Expr<R>>),
    /// `e?` — optional.
    Opt(Box<Expr<R>>),
    /// `e*` — zero or more.
    Star(Box<Expr<R>>),
    /// `e+` — one or more.
    Plus(Box<Expr<R>>),
    /// `&e` — and-predicate: succeeds iff `e` matches; consumes nothing.
    And(Box<Expr<R>>),
    /// `!e` — not-predicate: succeeds iff `e` does not match.
    Not(Box<Expr<R>>),
    /// `$e` — match `e` and yield its matched text as the value.
    Capture(Box<Expr<R>>),
    /// `%void(e)` — match `e` and discard its value.
    Void(Box<Expr<R>>),
    /// `%define(e)` — match `e` and add its matched text to the innermost
    /// state scope; passes `e`'s value through.
    StateDefine(Box<Expr<R>>),
    /// `%isdef(e)` — match `e` only if its matched text is defined in the
    /// parser state; passes `e`'s value through.
    StateIsDef(Box<Expr<R>>),
    /// `%isndef(e)` — match `e` only if its matched text is *not* defined.
    StateIsNotDef(Box<Expr<R>>),
    /// `%scope(e)` — match `e` inside a fresh nested state scope.
    StateScope(Box<Expr<R>>),
}

impl<R> Expr<R> {
    /// Convenience constructor for a literal.
    pub fn literal(s: impl AsRef<str>) -> Self {
        Expr::Literal(Rc::from(s.as_ref()))
    }

    /// Convenience constructor for a sequence, flattening the trivial cases.
    pub fn seq(mut items: Vec<Expr<R>>) -> Self {
        match items.len() {
            0 => Expr::Empty,
            1 => items.pop().expect("len checked"),
            _ => Expr::Seq(items),
        }
    }

    /// Convenience constructor for a choice, flattening the trivial case.
    pub fn choice(mut items: Vec<Expr<R>>) -> Self {
        match items.len() {
            0 => Expr::Empty,
            1 => items.pop().expect("len checked"),
            _ => Expr::Choice(items),
        }
    }

    /// Applies `f` to every direct child expression.
    pub fn children(&self) -> Vec<&Expr<R>> {
        match self {
            Expr::Empty | Expr::Any | Expr::Literal(_) | Expr::Class(_) | Expr::Ref(_) => vec![],
            Expr::Seq(xs) | Expr::Choice(xs) => xs.iter().collect(),
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
            | Expr::StateScope(e) => vec![e],
        }
    }

    /// Visits every subexpression (preorder), including `self`.
    pub fn walk(&self, f: &mut impl FnMut(&Expr<R>)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// Calls `f` on every nonterminal reference in the expression.
    pub fn for_each_ref(&self, f: &mut impl FnMut(&R)) {
        self.walk(&mut |e| {
            if let Expr::Ref(r) = e {
                f(r);
            }
        });
    }

    /// Number of expression nodes (used by inlining heuristics).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Whether this expression touches parser state anywhere.
    pub fn uses_state(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(
                e,
                Expr::StateDefine(_)
                    | Expr::StateIsDef(_)
                    | Expr::StateIsNotDef(_)
                    | Expr::StateScope(_)
            ) {
                found = true;
            }
        });
        found
    }

    /// Rewrites every reference with `f`, preserving structure.
    pub fn map_refs<S>(&self, f: &mut impl FnMut(&R) -> S) -> Expr<S> {
        match self {
            Expr::Empty => Expr::Empty,
            Expr::Any => Expr::Any,
            Expr::Literal(s) => Expr::Literal(s.clone()),
            Expr::Class(c) => Expr::Class(c.clone()),
            Expr::Ref(r) => Expr::Ref(f(r)),
            Expr::Seq(xs) => Expr::Seq(xs.iter().map(|e| e.map_refs(f)).collect()),
            Expr::Choice(xs) => Expr::Choice(xs.iter().map(|e| e.map_refs(f)).collect()),
            Expr::Opt(e) => Expr::Opt(Box::new(e.map_refs(f))),
            Expr::Star(e) => Expr::Star(Box::new(e.map_refs(f))),
            Expr::Plus(e) => Expr::Plus(Box::new(e.map_refs(f))),
            Expr::And(e) => Expr::And(Box::new(e.map_refs(f))),
            Expr::Not(e) => Expr::Not(Box::new(e.map_refs(f))),
            Expr::Capture(e) => Expr::Capture(Box::new(e.map_refs(f))),
            Expr::Void(e) => Expr::Void(Box::new(e.map_refs(f))),
            Expr::StateDefine(e) => Expr::StateDefine(Box::new(e.map_refs(f))),
            Expr::StateIsDef(e) => Expr::StateIsDef(Box::new(e.map_refs(f))),
            Expr::StateIsNotDef(e) => Expr::StateIsNotDef(Box::new(e.map_refs(f))),
            Expr::StateScope(e) => Expr::StateScope(Box::new(e.map_refs(f))),
        }
    }

    /// Rewrites the expression bottom-up: children first, then `f` on the
    /// rebuilt node. The workhorse of the grammar-transform passes.
    pub fn rewrite(self, f: &mut impl FnMut(Expr<R>) -> Expr<R>) -> Expr<R>
    where
        R: Clone,
    {
        let rebuilt = match self {
            Expr::Seq(xs) => Expr::Seq(xs.into_iter().map(|e| e.rewrite(f)).collect()),
            Expr::Choice(xs) => Expr::Choice(xs.into_iter().map(|e| e.rewrite(f)).collect()),
            Expr::Opt(e) => Expr::Opt(Box::new(e.rewrite(f))),
            Expr::Star(e) => Expr::Star(Box::new(e.rewrite(f))),
            Expr::Plus(e) => Expr::Plus(Box::new(e.rewrite(f))),
            Expr::And(e) => Expr::And(Box::new(e.rewrite(f))),
            Expr::Not(e) => Expr::Not(Box::new(e.rewrite(f))),
            Expr::Capture(e) => Expr::Capture(Box::new(e.rewrite(f))),
            Expr::Void(e) => Expr::Void(Box::new(e.rewrite(f))),
            Expr::StateDefine(e) => Expr::StateDefine(Box::new(e.rewrite(f))),
            Expr::StateIsDef(e) => Expr::StateIsDef(Box::new(e.rewrite(f))),
            Expr::StateIsNotDef(e) => Expr::StateIsNotDef(Box::new(e.rewrite(f))),
            Expr::StateScope(e) => Expr::StateScope(Box::new(e.rewrite(f))),
            leaf => leaf,
        };
        f(rebuilt)
    }

    /// Whether the expression can *statically never* contribute a semantic
    /// value, regardless of what its references produce. Conservative:
    /// `Ref` returns `false` because the answer depends on the referenced
    /// production's kind (the grammar-level query lives on `Grammar`).
    pub fn is_statically_valueless(&self) -> bool {
        match self {
            Expr::Empty | Expr::Any | Expr::Literal(_) | Expr::Class(_) => true,
            Expr::And(_) | Expr::Not(_) | Expr::Void(_) => true,
            Expr::Ref(_) | Expr::Capture(_) => false,
            Expr::Seq(xs) | Expr::Choice(xs) => xs.iter().all(Expr::is_statically_valueless),
            Expr::Opt(e) | Expr::Star(e) | Expr::Plus(e) => e.is_statically_valueless(),
            Expr::StateDefine(e)
            | Expr::StateIsDef(e)
            | Expr::StateIsNotDef(e)
            | Expr::StateScope(e) => e.is_statically_valueless(),
        }
    }
}

fn needs_parens_in_seq<R>(e: &Expr<R>) -> bool {
    matches!(e, Expr::Choice(_) | Expr::Seq(_))
}

impl<R: fmt::Display> fmt::Display for Expr<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Empty => f.write_str("\"\""),
            Expr::Any => f.write_str("."),
            Expr::Literal(s) => write!(f, "\"{}\"", escape_literal(s)),
            Expr::Class(c) => write!(f, "{c}"),
            Expr::Ref(r) => write!(f, "{r}"),
            Expr::Seq(xs) => {
                for (i, e) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    if needs_parens_in_seq(e) {
                        write!(f, "({e})")?;
                    } else {
                        write!(f, "{e}")?;
                    }
                }
                Ok(())
            }
            Expr::Choice(xs) => {
                for (i, e) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" / ")?;
                    }
                    if matches!(e, Expr::Choice(_)) {
                        write!(f, "({e})")?;
                    } else {
                        write!(f, "{e}")?;
                    }
                }
                Ok(())
            }
            Expr::Opt(e) => write_suffixed(f, e, "?"),
            Expr::Star(e) => write_suffixed(f, e, "*"),
            Expr::Plus(e) => write_suffixed(f, e, "+"),
            Expr::And(e) => write_prefixed(f, e, "&"),
            Expr::Not(e) => write_prefixed(f, e, "!"),
            Expr::Capture(e) => write_prefixed(f, e, "$"),
            Expr::Void(e) => write!(f, "%void({e})"),
            Expr::StateDefine(e) => write!(f, "%define({e})"),
            Expr::StateIsDef(e) => write!(f, "%isdef({e})"),
            Expr::StateIsNotDef(e) => write!(f, "%isndef({e})"),
            Expr::StateScope(e) => write!(f, "%scope({e})"),
        }
    }
}

fn write_suffixed<R: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    e: &Expr<R>,
    op: &str,
) -> fmt::Result {
    if e.children().is_empty() {
        write!(f, "{e}{op}")
    } else {
        write!(f, "({e}){op}")
    }
}

fn write_prefixed<R: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    e: &Expr<R>,
    op: &str,
) -> fmt::Result {
    if e.children().is_empty() {
        write!(f, "{op}{e}")
    } else {
        write!(f, "{op}({e})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type E = Expr<String>;

    fn r(name: &str) -> E {
        Expr::Ref(name.to_owned())
    }

    #[test]
    fn class_normalization_merges_overlaps() {
        let c = CharClass::from_ranges(vec![('c', 'f'), ('a', 'd'), ('h', 'h')], false);
        assert_eq!(c.ranges(), &[('a', 'f'), ('h', 'h')]);
        // Adjacent ranges coalesce.
        let d = CharClass::from_ranges(vec![('a', 'b'), ('c', 'd')], false);
        assert_eq!(d.ranges(), &[('a', 'd')]);
    }

    #[test]
    fn class_matching_and_negation() {
        let c = CharClass::from_ranges(vec![('0', '9')], true);
        assert!(!c.matches('5'));
        assert!(c.matches('x'));
        assert_eq!(c.count(), None);
        let p = CharClass::from_ranges(vec![('0', '9')], false);
        assert_eq!(p.count(), Some(10));
    }

    #[test]
    fn class_union() {
        let a = CharClass::from_ranges(vec![('a', 'z')], false);
        let b = CharClass::from_ranges(vec![('A', 'Z')], false);
        let u = a.union(&b).unwrap();
        assert!(u.matches('Q') && u.matches('q'));
        let n = CharClass::from_ranges(vec![('a', 'z')], true);
        assert!(a.union(&n).is_none());
    }

    #[test]
    fn class_display_escapes() {
        let c = CharClass::from_ranges(vec![('\n', '\n'), (']', ']')], false);
        assert_eq!(c.to_string(), "[\\n\\]]");
    }

    #[test]
    fn seq_and_choice_constructors_flatten() {
        assert_eq!(E::seq(vec![]), Expr::Empty);
        assert_eq!(E::seq(vec![r("A")]), r("A"));
        assert_eq!(E::choice(vec![r("A")]), r("A"));
        assert!(matches!(E::seq(vec![r("A"), r("B")]), Expr::Seq(_)));
    }

    #[test]
    fn display_roundtrips_structure() {
        let e = E::seq(vec![
            Expr::literal("if"),
            r("Spacing"),
            Expr::Opt(Box::new(E::choice(vec![r("Else"), Expr::literal("fi")]))),
        ]);
        assert_eq!(e.to_string(), "\"if\" Spacing (Else / \"fi\")?");
    }

    #[test]
    fn display_prefix_and_builtins() {
        let e = Expr::Not(Box::new(E::Any));
        assert_eq!(e.to_string(), "!.");
        let d = Expr::StateDefine(Box::new(r("Id")));
        assert_eq!(d.to_string(), "%define(Id)");
        let c = Expr::Capture(Box::new(E::seq(vec![r("A"), r("B")])));
        assert_eq!(c.to_string(), "$(A B)");
    }

    #[test]
    fn size_and_refs() {
        let e = E::seq(vec![
            r("A"),
            Expr::Star(Box::new(r("B"))),
            Expr::literal("x"),
        ]);
        assert_eq!(e.size(), 5);
        let mut names = Vec::new();
        e.for_each_ref(&mut |n| names.push(n.clone()));
        assert_eq!(names, vec!["A".to_owned(), "B".to_owned()]);
    }

    #[test]
    fn uses_state_detection() {
        let plain = E::seq(vec![r("A")]);
        assert!(!plain.uses_state());
        let stateful = E::seq(vec![Expr::StateScope(Box::new(r("A")))]);
        assert!(stateful.uses_state());
    }

    #[test]
    fn map_refs_changes_type() {
        let e = E::seq(vec![r("A"), r("B")]);
        let mapped: Expr<u32> = e.map_refs(&mut |n| if n == "A" { 0 } else { 1 });
        let mut ids = Vec::new();
        mapped.for_each_ref(&mut |i| ids.push(*i));
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn rewrite_bottom_up() {
        // Replace every literal with Any.
        let e = E::seq(vec![
            Expr::literal("a"),
            Expr::Opt(Box::new(Expr::literal("b"))),
        ]);
        let out = e.rewrite(&mut |e| match e {
            Expr::Literal(_) => Expr::Any,
            other => other,
        });
        assert_eq!(out.to_string(), ". .?");
    }

    #[test]
    fn statically_valueless() {
        assert!(E::literal("x").is_statically_valueless());
        assert!(Expr::Not(Box::new(r("A"))).is_statically_valueless());
        assert!(!r("A").is_statically_valueless());
        assert!(!Expr::Capture(Box::new(E::literal("x"))).is_statically_valueless());
        assert!(E::Star(Box::new(E::literal("x"))).is_statically_valueless());
    }
}
