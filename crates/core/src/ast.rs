//! The module-level grammar AST: what the `.mpeg` parser produces and what
//! elaboration consumes.
//!
//! A [`ModuleAst`] is either an ordinary module (its productions *define*)
//! or a *modification* module (declared with `modify Target;`), whose
//! production clauses edit the target module's productions in place.

use crate::diag::SrcSpan;
use crate::expr::Expr;
use crate::grammar::{Attrs, ProdKind};

/// A dependency or option declaration in a module header.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `import X;` — bring `X`'s productions into scope. `X` is a module
    /// parameter, a local instantiation alias, or a plain module name.
    Import {
        /// The referenced module.
        module: String,
        /// Source location.
        span: SrcSpan,
    },
    /// `instantiate M(A, B) as N;` — instantiate parameterized module `M`
    /// with arguments and (optionally) bind the instance to alias `N`.
    /// Instantiating also imports the instance's productions.
    Instantiate {
        /// The parameterized module's name.
        module: String,
        /// Argument module references (params, aliases, or plain modules).
        args: Vec<String>,
        /// Optional local alias.
        alias: Option<String>,
        /// Source location.
        span: SrcSpan,
    },
    /// `modify X;` — this module is a modification of `X`.
    Modify {
        /// The target module reference.
        target: String,
        /// Source location.
        span: SrcSpan,
    },
    /// `option name;` or `option name("value");`
    Option {
        /// Option name.
        name: String,
        /// Optional string argument.
        value: Option<String>,
        /// Source location.
        span: SrcSpan,
    },
}

/// Placement of inserted alternatives relative to a labeled anchor in
/// `P += before <L> …` / `P += after <L> …` modifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnchorPos {
    /// Insert immediately before the anchor alternative.
    Before,
    /// Insert immediately after the anchor alternative.
    After,
}

/// How a production clause combines with an existing production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClauseOp {
    /// `Name = …;` — a fresh definition.
    Define,
    /// `Name := …;` — replace the production's choice (in a modification).
    Override,
    /// `Name += …;` — add alternatives (in a modification).
    Append,
    /// `Name -= <L>, …;` — remove labeled alternatives (in a modification).
    Remove,
}

impl ClauseOp {
    /// The concrete operator token.
    pub fn token(self) -> &'static str {
        match self {
            ClauseOp::Define => "=",
            ClauseOp::Override => ":=",
            ClauseOp::Append => "+=",
            ClauseOp::Remove => "-=",
        }
    }
}

/// One alternative as written in a module: either a real alternative or the
/// `...` splice marker standing for "the alternatives being modified".
#[derive(Debug, Clone, PartialEq)]
pub enum AltAst {
    /// A real alternative, optionally labeled.
    Alt {
        /// `<Label>`, if present.
        label: Option<String>,
        /// The alternative's expression (references are unresolved names).
        expr: Expr<String>,
    },
    /// The `...` splice marker (legal only in `:=`/`+=` clauses).
    Splice,
}

/// A production clause in a module body.
#[derive(Debug, Clone, PartialEq)]
pub struct ProdClause {
    /// Boolean attributes written before the kind.
    pub attrs: Attrs,
    /// The value kind; `None` means "inherit" (modifications) or the
    /// default `Node` (definitions).
    pub kind: Option<ProdKind>,
    /// The production's name.
    pub name: String,
    /// How the clause combines with an existing production.
    pub op: ClauseOp,
    /// The alternatives (empty for `Remove`).
    pub alts: Vec<AltAst>,
    /// Labels to remove (only for `Remove`).
    pub removed: Vec<String>,
    /// Insertion anchor (only for `Append`): place the new alternatives
    /// before/after the alternative with the given label.
    pub anchor: Option<(AnchorPos, String)>,
    /// `@recover("tok" ...)` annotation: literal synchronization tokens
    /// for error recovery. On `:=`/`+=` clauses the tokens are added to
    /// the modified production's existing set.
    pub recover: Vec<String>,
    /// Source location of the clause.
    pub span: SrcSpan,
}

impl ProdClause {
    /// Creates a plain definition clause.
    pub fn define(
        attrs: Attrs,
        kind: ProdKind,
        name: impl Into<String>,
        alts: Vec<AltAst>,
    ) -> Self {
        ProdClause {
            attrs,
            kind: Some(kind),
            name: name.into(),
            op: ClauseOp::Define,
            alts,
            removed: Vec::new(),
            anchor: None,
            recover: Vec::new(),
            span: SrcSpan::none(),
        }
    }
}

/// A parsed grammar module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleAst {
    /// The module's (possibly dotted) name.
    pub name: String,
    /// Module parameters (other modules this one abstracts over).
    pub params: Vec<String>,
    /// Header declarations in source order.
    pub decls: Vec<Decl>,
    /// Production clauses in source order.
    pub productions: Vec<ProdClause>,
    /// Source location of the `module` header.
    pub span: SrcSpan,
}

impl ModuleAst {
    /// Creates an empty module with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleAst {
            name: name.into(),
            params: Vec::new(),
            decls: Vec::new(),
            productions: Vec::new(),
            span: SrcSpan::none(),
        }
    }

    /// The `modify` target, if this is a modification module.
    pub fn modify_target(&self) -> Option<&str> {
        self.decls.iter().find_map(|d| match d {
            Decl::Modify { target, .. } => Some(target.as_str()),
            _ => None,
        })
    }

    /// Whether this module is a modification.
    pub fn is_modification(&self) -> bool {
        self.modify_target().is_some()
    }

    /// Iterates over the module's `option` declarations.
    pub fn options(&self) -> impl Iterator<Item = (&str, Option<&str>)> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Option { name, value, .. } => Some((name.as_str(), value.as_deref())),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modify_target_detection() {
        let mut m = ModuleAst::new("ext");
        assert!(!m.is_modification());
        m.decls.push(Decl::Modify {
            target: "base".into(),
            span: SrcSpan::none(),
        });
        assert!(m.is_modification());
        assert_eq!(m.modify_target(), Some("base"));
    }

    #[test]
    fn options_iteration() {
        let mut m = ModuleAst::new("m");
        m.decls.push(Decl::Option {
            name: "withLocation".into(),
            value: None,
            span: SrcSpan::none(),
        });
        m.decls.push(Decl::Option {
            name: "parser".into(),
            value: Some("java".into()),
            span: SrcSpan::none(),
        });
        let opts: Vec<_> = m.options().collect();
        assert_eq!(opts, vec![("withLocation", None), ("parser", Some("java"))]);
    }

    #[test]
    fn clause_op_tokens() {
        assert_eq!(ClauseOp::Define.token(), "=");
        assert_eq!(ClauseOp::Override.token(), ":=");
        assert_eq!(ClauseOp::Append.token(), "+=");
        assert_eq!(ClauseOp::Remove.token(), "-=");
    }
}
