//! The flat, elaborated grammar: what analyses, optimizers, the
//! interpreter, and the code generator all consume.

use std::collections::HashMap;
use std::fmt;

use crate::diag::{Diagnostic, Diagnostics};
use crate::expr::Expr;

/// Index of a production in a [`Grammar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProdId(pub u32);

impl ProdId {
    /// The index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The value kind of a production — what matching it yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProdKind {
    /// Yields nothing (spacing, punctuation, keywords).
    Void,
    /// Yields the matched text.
    Text,
    /// Yields a generic syntax-tree node (the default).
    #[default]
    Node,
}

impl fmt::Display for ProdKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProdKind::Void => "void",
            ProdKind::Text => "String",
            ProdKind::Node => "Node",
        })
    }
}

/// Boolean attributes a production may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Attrs {
    /// `transient` — never memoize this production.
    pub transient: bool,
    /// `memo` — always memoize, overriding heuristics.
    pub memo: bool,
    /// `inline` — hint that the production should be inlined.
    pub inline: bool,
    /// `stateful` — explicitly marked as touching parser state.
    pub stateful: bool,
    /// `withLocation` — nodes built by this production carry spans even
    /// under the `location-elision` optimization.
    pub with_location: bool,
    /// `public` — eligible as a start symbol and listed by tooling.
    pub public: bool,
}

impl Attrs {
    /// Renders the attributes in canonical keyword order.
    pub fn keywords(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.public {
            out.push("public");
        }
        if self.transient {
            out.push("transient");
        }
        if self.inline {
            out.push("inline");
        }
        if self.memo {
            out.push("memo");
        }
        if self.stateful {
            out.push("stateful");
        }
        if self.with_location {
            out.push("withLocation");
        }
        out
    }
}

/// One alternative of a production's top-level ordered choice.
///
/// Only top-level alternatives carry labels; labels name the node kind the
/// alternative constructs (`Prod.Label`) and address alternatives in module
/// modifications (`Prod -= <Label>`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Alternative<R = ProdId> {
    /// The label, if any.
    pub label: Option<String>,
    /// The alternative's expression.
    pub expr: Expr<R>,
}

impl<R> Alternative<R> {
    /// Creates an unlabeled alternative.
    pub fn new(expr: Expr<R>) -> Self {
        Alternative { label: None, expr }
    }

    /// Creates a labeled alternative.
    pub fn labeled(label: impl Into<String>, expr: Expr<R>) -> Self {
        Alternative {
            label: Some(label.into()),
            expr,
        }
    }
}

/// The left-recursion split of a directly left-recursive production.
///
/// Elaboration rewrites `P = P t₁ / … / b₁ / …` into base alternatives
/// `bⱼ` plus *tail* alternatives `tᵢ` (the original alternative minus its
/// leading self-reference). The optimized evaluation strategy matches a
/// base once, then folds tails leftward; the unoptimized strategy grows a
/// memoized seed over the *original* alternatives (Warth-style), which the
/// `left-recursion` optimization flag lets the benchmarks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrSplit {
    /// Alternatives that do not start with a self-reference.
    pub bases: Vec<Alternative>,
    /// Left-recursive alternatives with the leading self-reference removed.
    pub tails: Vec<Alternative>,
}

/// A single production of the flat grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct Production {
    /// Fully qualified, unique name (e.g. `java.Core.Statement`).
    pub name: String,
    /// The value kind.
    pub kind: ProdKind,
    /// Boolean attributes.
    pub attrs: Attrs,
    /// The ordered alternatives (original form, self-references intact).
    pub alts: Vec<Alternative>,
    /// Present iff the production is directly left-recursive.
    pub lr: Option<LrSplit>,
    /// `@recover(...)` annotation: literal synchronization tokens whose
    /// first bytes seed the recovery sync sets (`analysis::sync_sets`).
    pub recover: Vec<String>,
}

impl Production {
    /// Creates a production with the given name, kind and alternatives.
    pub fn new(name: impl Into<String>, kind: ProdKind, alts: Vec<Alternative>) -> Self {
        Production {
            name: name.into(),
            kind,
            attrs: Attrs::default(),
            alts,
            lr: None,
            recover: Vec::new(),
        }
    }

    /// The short (unqualified) name: text after the last `.`.
    pub fn short_name(&self) -> &str {
        self.name.rsplit('.').next().unwrap_or(&self.name)
    }

    /// Iterates over all expressions of the production, including the
    /// left-recursion split when present.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr<ProdId>> {
        self.alts.iter().map(|a| &a.expr).chain(
            self.lr
                .iter()
                .flat_map(|lr| lr.bases.iter().chain(lr.tails.iter()).map(|a| &a.expr)),
        )
    }

    /// Calls `f` for every production referenced from this one.
    pub fn for_each_ref(&self, f: &mut impl FnMut(ProdId)) {
        for e in self.exprs() {
            e.for_each_ref(&mut |r| f(*r));
        }
    }
}

/// A flat, elaborated grammar: a vector of productions plus a designated
/// root.
///
/// Invariants (checked by [`Grammar::validate`]):
/// * every [`ProdId`] stored in any expression is in bounds,
/// * production names are unique,
/// * the root is in bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Grammar {
    productions: Vec<Production>,
    by_name: HashMap<String, ProdId>,
    root: ProdId,
}

impl Grammar {
    /// Assembles a grammar from productions and a root.
    ///
    /// # Errors
    ///
    /// Returns diagnostics if names collide, the root is out of bounds, or
    /// any reference is out of bounds.
    pub fn new(productions: Vec<Production>, root: ProdId) -> Result<Self, Diagnostics> {
        let mut by_name = HashMap::with_capacity(productions.len());
        let mut diags = Diagnostics::new();
        for (i, p) in productions.iter().enumerate() {
            if by_name.insert(p.name.clone(), ProdId(i as u32)).is_some() {
                diags.push(Diagnostic::error(format!(
                    "duplicate production name `{}`",
                    p.name
                )));
            }
        }
        let g = Grammar {
            productions,
            by_name,
            root,
        };
        g.validate_into(&mut diags);
        if diags.has_errors() {
            Err(diags)
        } else {
            Ok(g)
        }
    }

    fn validate_into(&self, diags: &mut Diagnostics) {
        let n = self.productions.len() as u32;
        if self.root.0 >= n {
            diags.push(Diagnostic::error(format!(
                "root production {} out of bounds ({n} productions)",
                self.root
            )));
        }
        for p in &self.productions {
            p.for_each_ref(&mut |r| {
                if r.0 >= n {
                    diags.push(Diagnostic::error(format!(
                        "production `{}` references out-of-bounds {r}",
                        p.name
                    )));
                }
            });
        }
    }

    /// Re-checks the structural invariants (used by transform tests).
    ///
    /// # Errors
    ///
    /// Returns the violations found, if any.
    pub fn validate(&self) -> Result<(), Diagnostics> {
        let mut diags = Diagnostics::new();
        self.validate_into(&mut diags);
        if diags.has_errors() {
            Err(diags)
        } else {
            Ok(())
        }
    }

    /// The productions, indexable by [`ProdId::index`].
    pub fn productions(&self) -> &[Production] {
        &self.productions
    }

    /// Number of productions.
    pub fn len(&self) -> usize {
        self.productions.len()
    }

    /// Whether the grammar has no productions.
    pub fn is_empty(&self) -> bool {
        self.productions.is_empty()
    }

    /// The production for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds (cannot happen for ids obtained from
    /// this grammar).
    pub fn production(&self, id: ProdId) -> &Production {
        &self.productions[id.index()]
    }

    /// Mutable access to a production's `@recover` token list — the one
    /// per-production field that is safe to mutate after construction
    /// (names and references are mirrored in side tables, sync tokens are
    /// not).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds (cannot happen for ids obtained
    /// from this grammar).
    pub fn recover_mut(&mut self, id: ProdId) -> &mut Vec<String> {
        &mut self.productions[id.index()].recover
    }

    /// Looks a production up by its fully qualified name, or by unqualified
    /// short name when that is unambiguous.
    pub fn find(&self, name: &str) -> Option<ProdId> {
        if let Some(&id) = self.by_name.get(name) {
            return Some(id);
        }
        let mut found = None;
        for (i, p) in self.productions.iter().enumerate() {
            if p.short_name() == name {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some(ProdId(i as u32));
            }
        }
        found
    }

    /// The root (start) production.
    pub fn root(&self) -> ProdId {
        self.root
    }

    /// Returns a copy with a different root.
    ///
    /// # Errors
    ///
    /// Returns diagnostics if `root` is out of bounds.
    pub fn with_root(&self, root: ProdId) -> Result<Grammar, Diagnostics> {
        Grammar::new(self.productions.clone(), root)
    }

    /// Iterates `(id, production)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProdId, &Production)> {
        self.productions
            .iter()
            .enumerate()
            .map(|(i, p)| (ProdId(i as u32), p))
    }

    /// Decomposes the grammar for wholesale transformation.
    pub fn into_parts(self) -> (Vec<Production>, ProdId) {
        (self.productions, self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn lit_prod(name: &str, text: &str) -> Production {
        Production::new(
            name,
            ProdKind::Text,
            vec![Alternative::new(Expr::Capture(Box::new(Expr::literal(
                text,
            ))))],
        )
    }

    #[test]
    fn grammar_construction_and_lookup() {
        let g = Grammar::new(vec![lit_prod("m.A", "a"), lit_prod("m.B", "b")], ProdId(0)).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.find("m.A"), Some(ProdId(0)));
        assert_eq!(g.find("B"), Some(ProdId(1)));
        assert_eq!(g.find("C"), None);
        assert_eq!(g.production(ProdId(1)).short_name(), "B");
    }

    #[test]
    fn ambiguous_short_name_lookup_fails() {
        let g = Grammar::new(
            vec![lit_prod("m1.A", "a"), lit_prod("m2.A", "b")],
            ProdId(0),
        )
        .unwrap();
        assert_eq!(g.find("A"), None);
        assert_eq!(g.find("m2.A"), Some(ProdId(1)));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err =
            Grammar::new(vec![lit_prod("X", "a"), lit_prod("X", "b")], ProdId(0)).unwrap_err();
        assert!(err.to_string().contains("duplicate production name"));
    }

    #[test]
    fn out_of_bounds_root_rejected() {
        let err = Grammar::new(vec![lit_prod("X", "a")], ProdId(5)).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn out_of_bounds_reference_rejected() {
        let bad = Production::new(
            "Bad",
            ProdKind::Node,
            vec![Alternative::new(Expr::Ref(ProdId(9)))],
        );
        let err = Grammar::new(vec![bad], ProdId(0)).unwrap_err();
        assert!(err.to_string().contains("out-of-bounds"));
    }

    #[test]
    fn with_root_changes_root() {
        let g = Grammar::new(vec![lit_prod("A", "a"), lit_prod("B", "b")], ProdId(0)).unwrap();
        let g2 = g.with_root(ProdId(1)).unwrap();
        assert_eq!(g2.root(), ProdId(1));
        assert!(g.with_root(ProdId(9)).is_err());
    }

    #[test]
    fn production_ref_iteration_includes_lr_split() {
        let mut p = Production::new(
            "E",
            ProdKind::Node,
            vec![Alternative::new(Expr::Ref(ProdId(0)))],
        );
        p.lr = Some(LrSplit {
            bases: vec![Alternative::new(Expr::Ref(ProdId(1)))],
            tails: vec![Alternative::new(Expr::Ref(ProdId(2)))],
        });
        let mut refs = Vec::new();
        p.for_each_ref(&mut |r| refs.push(r.0));
        assert_eq!(refs, vec![0, 1, 2]);
    }

    #[test]
    fn attrs_keywords_order() {
        let a = Attrs {
            public: true,
            transient: true,
            with_location: true,
            ..Attrs::default()
        };
        assert_eq!(a.keywords(), vec!["public", "transient", "withLocation"]);
    }

    #[test]
    fn kind_display() {
        assert_eq!(ProdKind::Void.to_string(), "void");
        assert_eq!(ProdKind::Text.to_string(), "String");
        assert_eq!(ProdKind::Node.to_string(), "Node");
    }
}
