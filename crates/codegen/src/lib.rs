//! # modpeg-codegen
//!
//! The parser *generator* half of the toolkit: emits a self-contained Rust
//! module implementing a packrat parser for an elaborated grammar, exactly
//! as Rats! emits Java classes. The generated module depends only on
//! `modpeg-runtime` and `modpeg-telemetry` and exposes:
//!
//! ```text
//! pub fn run(text: &str, req: ParseRequest<'_>) -> Outcome;
//! pub struct Generated;  // impl modpeg_runtime::Engine, forwarding to `run`
//! pub fn parse(text: &str) -> Result<SyntaxTree, ParseError>;
//! pub fn parse_with_stats(text: &str) -> (Result<SyntaxTree, ParseError>, Stats);
//! pub fn parse_events(text: &str, sink: &mut dyn EventSink) -> Result<(), ParseError>;
//! pub fn parse_resilient(text: &str, policy: &RecoverPolicy) -> Recovered<SyntaxTree>;
//! pub fn recover_policy() -> RecoverPolicy;
//! ```
//!
//! `run` answers every [`ParseRequest`](modpeg_runtime::ParseRequest) —
//! tree, events, resilient or resilient events, each optionally governed
//! and with telemetry — through the runtime's shared driver; the `parse*`
//! functions are one-line shorthands for the ungoverned modes. The
//! module's private `Parser` holds only the grammar-specific production
//! and expression functions over a
//! [`RunCtx`](modpeg_runtime::RunCtx): the governor guard, the memo
//! protocol and its budget ladder, the terminals, class runs and value
//! building all run in `modpeg-runtime`, not in code copied into each
//! module.
//!
//! Generated parsers always use the optimized runtime strategies (chunked
//! memoization, iterative repetitions, fold-based left recursion,
//! farthest-failure errors, span text); the interpreter in
//! `modpeg-interp` exists to measure the *unoptimized* ones. Equivalence between the two is enforced by
//! the integration tests in `modpeg-grammars`, whose build script runs
//! this generator and compiles its output.
//!
//! ## Example
//!
//! ```
//! let set = modpeg_syntax::parse_module_set([
//!     "module word; public Word = $[a-z]+ ;",
//! ])?;
//! let grammar = set.elaborate("word", None)?;
//! let source = modpeg_codegen::generate(&grammar, "word parser")?;
//! assert!(source.contains("pub fn parse"));
//! # Ok::<(), modpeg_core::Diagnostics>(())
//! ```

#![warn(missing_docs)]

mod emit;

use modpeg_core::{Diagnostics, Grammar};
use modpeg_interp::{CompiledGrammar, OptConfig};

/// Generates Rust source for a packrat parser recognizing `grammar`.
///
/// `doc` becomes the header comment of the generated file (typically the
/// grammar's name and provenance).
///
/// # Errors
///
/// Returns diagnostics if the grammar fails to compile (invalid after
/// transforms — a toolkit bug surfaced rather than swallowed).
pub fn generate(grammar: &Grammar, doc: &str) -> Result<String, Diagnostics> {
    let compiled = CompiledGrammar::compile(grammar, OptConfig::all())?;
    generate_from_compiled(&compiled, doc)
}

/// Generates Rust source for a parser tuned by a profile-guided
/// [`TuningPlan`](modpeg_core::transform::TuningPlan): the plan's
/// memoization, inlining, and dispatch decisions are baked into the
/// emitted code via the shared IR (see
/// [`CompiledGrammar::compile_with_plan`]).
///
/// # Errors
///
/// Returns diagnostics if the plan's fingerprint does not match
/// `grammar`, or if the grammar fails to compile.
pub fn generate_with_plan(
    grammar: &Grammar,
    plan: Option<&modpeg_core::transform::TuningPlan>,
    doc: &str,
) -> Result<String, Diagnostics> {
    let compiled = CompiledGrammar::compile_with_plan(grammar, OptConfig::all(), plan)?;
    generate_from_compiled(&compiled, doc)
}

/// Generates Rust source from an already compiled grammar.
///
/// The compiled grammar should use [`OptConfig::all`], and it must use
/// its `left-recursion` optimization: only then does the compiled IR hold
/// the base and tail alternatives the generated fold loop evaluates.
/// Other configurations are accepted: what `compiled` decided follows
/// them — the grammar transforms, which productions are memoized, the
/// dispatch tables, which values are built (value elision) and which
/// nodes carry spans. The remaining runtime strategies (chunked
/// memoization, iterative repetition, farthest-failure errors, span text,
/// slice-compared literals) are always the optimized ones.
///
/// # Errors
///
/// Returns a diagnostic if `compiled` was compiled without
/// `left-recursion` (Warth-style seed growing is interpreter-only, as on
/// the bytecode machine).
pub fn generate_from_compiled(
    compiled: &CompiledGrammar,
    doc: &str,
) -> Result<String, Diagnostics> {
    if !compiled.config().left_recursion_iter {
        return Err(Diagnostics::from(modpeg_core::Diagnostic::error(
            "the code generator requires the `left-recursion` optimization \
             (Warth-style seed growing is interpreter-only)",
        )));
    }
    Ok(emit::Emitter::new(compiled).emit(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modpeg_core::{CharClass, Expr as E, GrammarBuilder, ProdKind};

    fn calc() -> Grammar {
        let mut b = GrammarBuilder::new("calc");
        b.production(
            "Expr",
            ProdKind::Node,
            vec![
                (
                    Some("Add".into()),
                    E::seq(vec![
                        E::Ref("Expr".into()),
                        E::literal("+"),
                        E::Ref("Num".into()),
                    ]),
                ),
                (None, E::Ref("Num".into())),
            ],
        );
        b.production(
            "Num",
            ProdKind::Text,
            vec![(
                None,
                E::Capture(Box::new(E::Plus(Box::new(E::Class(
                    CharClass::from_ranges(vec![('0', '9')], false),
                ))))),
            )],
        );
        b.build("Expr").unwrap()
    }

    #[test]
    fn generates_complete_module() {
        let src = generate(&calc(), "calc").unwrap();
        assert!(src.contains("struct Parser<'i>"));
        assert!(src.contains("pub fn parse("));
        assert!(src.contains("pub fn parse_with_stats"));
        assert!(src.contains("fn p0"), "production functions present");
        assert!(src.contains("ChunkMemo::new(N_SLOTS"));
        // Left recursion compiled to the fold strategy.
        assert!(src.contains("'grow: loop"), "{src}");
        // Dispatch guards on bytes.
        assert!(src.contains("matches!(b, Some("), "{src}");
    }

    #[test]
    fn kind_and_desc_tables_are_interned() {
        let src = generate(&calc(), "calc").unwrap();
        assert!(src.contains("const K: &[&str]"));
        assert!(src.contains("\"Expr.Add\""));
        assert!(src.contains("const D: &[&str]"));
        assert!(src.contains("\"[0-9]\""));
        // Each table entry appears exactly once in its table.
        let count = src.matches("\"Expr.Add\"").count();
        assert_eq!(count, 1);
    }

    #[test]
    fn seed_growing_configurations_are_rejected() {
        let compiled =
            CompiledGrammar::compile(&calc(), OptConfig::all_except("left-recursion").unwrap())
                .unwrap();
        let err = generate_from_compiled(&compiled, "calc").unwrap_err();
        assert!(err.to_string().contains("`left-recursion`"), "{err}");
    }

    #[test]
    fn every_expression_function_is_called() {
        // Each emitted `e{n}` function is called from somewhere else in
        // the module (the left-recursive `Expr` included).
        let src = generate(&calc(), "calc").unwrap();
        let defined: Vec<&str> = src
            .match_indices("fn e")
            .filter_map(|(i, _)| src[i + 3..].split('(').next())
            .filter(|f| f[1..].bytes().all(|b| b.is_ascii_digit()))
            .collect();
        assert!(!defined.is_empty());
        for f in defined {
            let calls = src.matches(&format!("self.{f}(")).count();
            assert!(calls > 0, "`{f}` is never called");
        }
    }

    #[test]
    fn doc_header_included() {
        let src = generate(&calc(), "my calculator grammar").unwrap();
        assert!(src.starts_with("// GENERATED by modpeg-codegen"));
        assert!(src.contains("// my calculator grammar"));
    }

    #[test]
    fn state_operators_emit() {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "P",
            ProdKind::Node,
            vec![(
                Some("D".into()),
                E::seq(vec![
                    E::StateDefine(Box::new(E::Capture(Box::new(E::literal("t"))))),
                    E::StateIsDef(Box::new(E::Capture(Box::new(E::literal("t"))))),
                    E::StateScope(Box::new(E::literal("x"))),
                ]),
            )],
        );
        let g = b.build("P").unwrap();
        let src = generate(&g, "state").unwrap();
        assert!(src.contains("self.cx.state.define"));
        assert!(src.contains("self.cx.state.is_defined"));
        assert!(src.contains("self.cx.state.push_scope"));
    }
}
