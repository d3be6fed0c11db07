//! Programmatic grammar construction.
//!
//! [`GrammarBuilder`] assembles a single-module grammar directly from
//! [`Expr`] values — handy for tests, examples, and embedding, where going
//! through the textual module language would be noise.

use crate::diag::Diagnostics;
use crate::elaborate::ModuleSet;
use crate::expr::Expr;
use crate::grammar::{Attrs, Grammar, ProdKind};

use crate::ast::{AltAst, ModuleAst, ProdClause};

/// Builds a one-module grammar incrementally.
///
/// # Examples
///
/// ```
/// use modpeg_core::{Expr, GrammarBuilder, ProdKind};
///
/// let mut b = GrammarBuilder::new("calc");
/// b.production(
///     "Sum",
///     ProdKind::Node,
///     vec![
///         (Some("Add".into()), Expr::seq(vec![
///             Expr::Ref("Digit".into()),
///             Expr::literal("+"),
///             Expr::Ref("Digit".into()),
///         ])),
///         (None, Expr::Ref("Digit".into())),
///     ],
/// );
/// b.production(
///     "Digit",
///     ProdKind::Text,
///     vec![(None, Expr::Capture(Box::new(Expr::Class(
///         modpeg_core::CharClass::from_ranges(vec![('0', '9')], false),
///     ))))],
/// );
/// let grammar = b.build("Sum")?;
/// assert_eq!(grammar.len(), 2);
/// # Ok::<(), modpeg_core::Diagnostics>(())
/// ```
#[derive(Debug, Clone)]
pub struct GrammarBuilder {
    module: ModuleAst,
}

impl GrammarBuilder {
    /// Starts a builder for a module called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        GrammarBuilder {
            module: ModuleAst::new(name),
        }
    }

    /// Adds a production with optional per-alternative labels.
    pub fn production(
        &mut self,
        name: impl Into<String>,
        kind: ProdKind,
        alts: Vec<(Option<String>, Expr<String>)>,
    ) -> &mut Self {
        self.production_with_attrs(name, kind, Attrs::default(), alts)
    }

    /// Adds a production with explicit attributes.
    pub fn production_with_attrs(
        &mut self,
        name: impl Into<String>,
        kind: ProdKind,
        attrs: Attrs,
        alts: Vec<(Option<String>, Expr<String>)>,
    ) -> &mut Self {
        let alts = alts
            .into_iter()
            .map(|(label, expr)| AltAst::Alt { label, expr })
            .collect();
        let mut clause = ProdClause::define(attrs, kind, name, alts);
        clause.attrs = attrs;
        self.module.productions.push(clause);
        self
    }

    /// Attaches `@recover(...)` synchronization tokens to the most
    /// recently added production. No-op on an empty builder.
    pub fn recover(&mut self, tokens: &[&str]) -> &mut Self {
        if let Some(clause) = self.module.productions.last_mut() {
            clause
                .recover
                .extend(tokens.iter().map(|t| (*t).to_owned()));
        }
        self
    }

    /// Elaborates the accumulated module with `start` as the start symbol.
    ///
    /// # Errors
    ///
    /// Returns the elaboration diagnostics on any error (unknown
    /// references, left-recursion problems, ill-formed repetitions, …).
    pub fn build(&self, start: &str) -> Result<Grammar, Diagnostics> {
        let mut set = ModuleSet::new();
        set.add(self.module.clone()).map_err(Diagnostics::from)?;
        set.elaborate(&self.module.name, Some(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CharClass;

    fn r(name: &str) -> Expr<String> {
        Expr::Ref(name.into())
    }

    #[test]
    fn builds_simple_grammar() {
        let mut b = GrammarBuilder::new("m");
        b.production("A", ProdKind::Node, vec![(None, r("B"))]);
        b.production(
            "B",
            ProdKind::Text,
            vec![(None, Expr::Capture(Box::new(Expr::literal("b"))))],
        );
        let g = b.build("A").unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.production(g.root()).name, "m.A");
    }

    #[test]
    fn reports_dangling_reference() {
        let mut b = GrammarBuilder::new("m");
        b.production("A", ProdKind::Node, vec![(None, r("Missing"))]);
        let err = b.build("A").unwrap_err();
        assert!(err.to_string().contains("undefined nonterminal"));
    }

    #[test]
    fn labels_flow_through() {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "S",
            ProdKind::Node,
            vec![
                (Some("X".into()), Expr::literal("x")),
                (Some("Y".into()), Expr::literal("y")),
            ],
        );
        let g = b.build("S").unwrap();
        let labels: Vec<_> = g
            .production(g.root())
            .alts
            .iter()
            .map(|a| a.label.clone().unwrap())
            .collect();
        assert_eq!(labels, vec!["X", "Y"]);
    }

    #[test]
    fn left_recursion_is_split_by_builder_path() {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "E",
            ProdKind::Node,
            vec![
                (
                    Some("Add".into()),
                    Expr::seq(vec![r("E"), Expr::literal("+"), r("D")]),
                ),
                (None, r("D")),
            ],
        );
        b.production(
            "D",
            ProdKind::Text,
            vec![(
                None,
                Expr::Capture(Box::new(Expr::Class(CharClass::from_ranges(
                    vec![('0', '9')],
                    false,
                )))),
            )],
        );
        let g = b.build("E").unwrap();
        assert!(g.production(g.root()).lr.is_some());
    }
}
