//! # modpeg — modular PEG parser generator with practical packrat parsing
//!
//! A Rust reproduction of **"Better Extensibility through Modular Syntax"**
//! (Robert Grimm, PLDI 2006 — the *Rats!* parser generator). Grammars are
//! written as composable *modules* over parsing expression grammars:
//! modules can be parameterized, instantiated, imported, and — the paper's
//! signature move — **modified**, so a language extension is just another
//! module that adds, removes, or overrides alternatives in an existing
//! grammar. Parsing is packrat (linear time, unlimited lookahead,
//! scannerless), made practical by the paper's battery of 16 optimizations.
//!
//! ## The five-minute tour
//!
//! ```
//! use modpeg::prelude::*;
//!
//! // 1. Write grammar modules (usually in .mpeg files).
//! let base = r#"
//! module greet;
//! public Node Greeting = <Hi> "hello" Sp Name / <Bye> "goodbye" Sp Name ;
//! String Name = $[a-z]+ ;
//! void Sp = " "+ ;
//! "#;
//!
//! // 2. A language extension is a separate module: no edits to `greet`.
//! let extension = r#"
//! module greet.Hey;
//! modify greet;
//! Greeting += <Hey> "hey" Sp Name / ... ;
//! "#;
//!
//! let composed = r#"
//! module main;
//! import greet;
//! import greet.Hey;
//! public Node Main = Greeting !. ;
//! "#;
//!
//! // 3. Elaborate the composition and compile a packrat parser.
//! let parser = modpeg::compile([base, extension, composed], "main", None)?;
//! let tree = parser.parse("hey world").expect("extension construct parses");
//! assert_eq!(tree.to_sexpr(), "(Main (Greeting.Hey \"world\"))");
//!
//! // The base alternatives still work, of course.
//! assert!(parser.parse("hello world").is_ok());
//! # Ok::<(), modpeg_core::Diagnostics>(())
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] | grammar IR, module system, elaboration, analyses, grammar transforms |
//! | [`syntax`] | the `.mpeg` grammar-module language |
//! | [`runtime`] | packrat machinery: memoization, values, state, errors; the `ParseRequest` / `Engine` surface every engine answers |
//! | [`telemetry`] | span/event collection, metrics, profiles and their exporters |
//! | [`interp`] | optimization-flagged interpreter ([`OptConfig`]) |
//! | [`codegen`] | Rust parser generation (what `Rats!` does for Java) |
//! | [`grammars`] | grammar library: calc, JSON, Java subset + extensions, SQL, C subset |
//! | [`session`] | incremental parse sessions: memo reuse across edits and across documents |
//!
//! The evaluation harness lives in `modpeg-bench` (see `EXPERIMENTS.md`).

#![warn(missing_docs)]

pub use modpeg_codegen as codegen;
pub use modpeg_core as core;
pub use modpeg_grammars as grammars;
pub use modpeg_interp as interp;
pub use modpeg_runtime as runtime;
pub use modpeg_session as session;
pub use modpeg_syntax as syntax;
pub use modpeg_telemetry as telemetry;

pub use modpeg_core::{Diagnostic, Diagnostics, Grammar, GrammarBuilder, ModuleSet};
pub use modpeg_interp::{CompiledGrammar, OptConfig};
pub use modpeg_runtime::{Engine, ParseError, ParseRequest, Parsed, SyntaxTree, Value};
pub use modpeg_session::ParseSession;

/// One-call convenience: parse grammar-module sources, elaborate from
/// `root` (optionally with start production `start`), and compile a fully
/// optimized packrat parser.
///
/// # Errors
///
/// Returns the collected diagnostics if the sources fail to parse or the
/// composition fails to elaborate.
///
/// # Examples
///
/// ```
/// let parser = modpeg::compile(
///     ["module m; public Word = $[a-z]+ !. ;"],
///     "m",
///     None,
/// )?;
/// assert!(parser.parse("hello").is_ok());
/// # Ok::<(), modpeg_core::Diagnostics>(())
/// ```
pub fn compile<'a>(
    sources: impl IntoIterator<Item = &'a str>,
    root: &str,
    start: Option<&str>,
) -> Result<CompiledGrammar, Diagnostics> {
    compile_with(sources, root, start, OptConfig::all())
}

/// Like [`compile`], with an explicit optimization configuration.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with<'a>(
    sources: impl IntoIterator<Item = &'a str>,
    root: &str,
    start: Option<&str>,
    cfg: OptConfig,
) -> Result<CompiledGrammar, Diagnostics> {
    let set = modpeg_syntax::parse_module_set(sources)?;
    let grammar = set.elaborate(root, start)?;
    CompiledGrammar::compile(&grammar, cfg)
}

/// The usual imports for working with modpeg.
pub mod prelude {
    pub use crate::{compile, compile_with};
    pub use modpeg_core::{Diagnostics, Grammar, GrammarBuilder, ModuleSet, ProdKind};
    pub use modpeg_interp::{CompiledGrammar, OptConfig};
    pub use modpeg_runtime::{
        Engine, Governor, Node, NodeKind, ParseError, ParseRequest, Parsed, SyntaxTree, Value,
    };
    pub use modpeg_session::ParseSession;
}
