//! Grammar-level optimization passes.
//!
//! These are the transformations from the paper's optimization battery that
//! rewrite the grammar itself (the runtime-strategy optimizations live in
//! the interpreter/code generator):
//!
//! * [`fold_duplicates`] — merge structurally identical `void`/`String`
//!   productions (the paper's *grammar folding*),
//! * [`eliminate_dead`] — drop productions unreachable from the root,
//! * [`inline_trivial`] — inline small non-recursive `void`/`String`
//!   productions into their use sites (*nonterminal inlining*),
//! * [`left_factor`] — factor common alternative prefixes in
//!   value-irrelevant productions (*prefix sharing*),
//! * [`merge_classes`] — collapse choices of single-character terminals
//!   into character classes (*terminal optimization*).
//!
//! Every pass preserves the recognized language and the semantic values of
//! `Node` productions; the property-based tests in `modpeg-interp` check
//! `parse(optimized) == parse(original)` on random inputs.

mod classmerge;
mod dce;
mod factor;
mod fold;
mod inline;
mod tuning;

pub use classmerge::merge_classes;
pub use dce::eliminate_dead;
pub use factor::left_factor;
pub use fold::fold_duplicates;
pub use inline::{inline_trivial, inline_with_candidates};
pub use tuning::{grammar_fingerprint, PlanParseError, TuningPlan, PLAN_VERSION};

use crate::diag::Diagnostics;
use crate::grammar::{Grammar, ProdId, Production};

/// Which grammar-level passes to run; see [`pipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformFlags {
    /// Run [`fold_duplicates`].
    pub fold_duplicates: bool,
    /// Run [`eliminate_dead`].
    pub eliminate_dead: bool,
    /// Run [`inline_trivial`].
    pub inline_trivial: bool,
    /// Run [`left_factor`].
    pub left_factor: bool,
    /// Run [`merge_classes`].
    pub merge_classes: bool,
}

impl TransformFlags {
    /// All passes enabled.
    pub fn all() -> Self {
        TransformFlags {
            fold_duplicates: true,
            eliminate_dead: true,
            inline_trivial: true,
            left_factor: true,
            merge_classes: true,
        }
    }

    /// No passes enabled.
    pub fn none() -> Self {
        TransformFlags::default()
    }
}

/// Runs the enabled passes in the canonical order
/// (fold → dead-code → inline → factor → class-merge), re-checking grammar
/// invariants between passes.
///
/// # Errors
///
/// Returns diagnostics if a pass produces an invalid grammar (which would
/// be a bug; the error is surfaced rather than swallowed).
pub fn pipeline(grammar: Grammar, flags: TransformFlags) -> Result<Grammar, Diagnostics> {
    pipeline_with_plan(grammar, flags, None)
}

/// [`pipeline`] with an optional profile-guided [`TuningPlan`]: the plan's
/// `inline` set widens the inlining pass's candidates (still subject to
/// every value-preservation safety check). The memoization and dispatch
/// halves of the plan are consumed later, by the engines' compilers —
/// this function only applies the grammar-rewriting part.
///
/// # Errors
///
/// Returns diagnostics if a pass produces an invalid grammar (which would
/// be a bug; the error is surfaced rather than swallowed).
pub fn pipeline_with_plan(
    grammar: Grammar,
    flags: TransformFlags,
    plan: Option<&TuningPlan>,
) -> Result<Grammar, Diagnostics> {
    let mut g = grammar;
    if flags.fold_duplicates {
        g = fold_duplicates(g)?;
    }
    if flags.eliminate_dead {
        g = eliminate_dead(g)?;
    }
    if flags.inline_trivial {
        g = match plan {
            Some(p) if !p.inline.is_empty() => inline_with_candidates(g, &p.inline)?,
            _ => inline_trivial(g)?,
        };
    }
    if flags.left_factor {
        g = left_factor(g)?;
    }
    if flags.merge_classes {
        g = merge_classes(g)?;
    }
    Ok(g)
}

/// Remaps every reference in `productions` through `map` (old index →
/// new id); productions whose map entry is `None` must already be
/// unreferenced.
pub(crate) fn remap_refs(productions: &mut [Production], map: &[ProdId]) {
    for p in productions.iter_mut() {
        for alt in &mut p.alts {
            let expr = std::mem::replace(&mut alt.expr, crate::expr::Expr::Empty);
            alt.expr = expr.map_refs(&mut |r: &ProdId| map[r.index()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::expr::Expr;
    use crate::grammar::ProdKind;

    #[test]
    fn pipeline_none_is_identity() {
        let g = grammar(vec![
            ("A", ProdKind::Void, vec![r(1)]),
            ("B", ProdKind::Void, vec![Expr::literal("b")]),
        ]);
        let out = pipeline(g.clone(), TransformFlags::none()).unwrap();
        assert_eq!(out, g);
    }

    #[test]
    fn pipeline_all_runs_clean_on_simple_grammar() {
        let g = grammar(vec![
            ("A", ProdKind::Void, vec![r(1)]),
            ("B", ProdKind::Void, vec![Expr::literal("b")]),
            ("Dead", ProdKind::Void, vec![Expr::literal("d")]),
        ]);
        let out = pipeline(g, TransformFlags::all()).unwrap();
        assert!(out.validate().is_ok());
        assert!(out.find("Dead").is_none());
    }
}
