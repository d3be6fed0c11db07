//! # modpeg-interp
//!
//! The optimization-flagged packrat interpreter over elaborated modpeg
//! grammars. This crate is the workbench for the paper's evaluation: every
//! one of the 16 optimizations ([`OPT_NAMES`]) can be toggled in
//! [`OptConfig`], and [`CompiledGrammar::parse_with_stats`] reports the
//! memoization traffic and allocation accounting the heap-utilization
//! experiments are built on.
//!
//! The fully optimized configuration ([`OptConfig::all`]) is the parser
//! Rats! would generate; [`OptConfig::none`] is the naïve packrat parser
//! the paper starts from; [`OptConfig::cumulative`] walks between them.
//!
//! ## Example
//!
//! ```
//! use modpeg_interp::{CompiledGrammar, OptConfig};
//!
//! let set = modpeg_syntax::parse_module_set([
//!     "module greet; public Greeting = \"hello, \" $[a-z]+ \"!\" ;",
//! ])?;
//! let grammar = set.elaborate("greet", None)?;
//! let parser = CompiledGrammar::compile(&grammar, OptConfig::all())?;
//! let tree = parser.parse("hello, world!").expect("greeting matches");
//! assert_eq!(tree.to_sexpr(), "(Greeting \"world\")");
//! # Ok::<(), modpeg_core::Diagnostics>(())
//! ```

#![warn(missing_docs)]

mod compile;
mod config;
mod coverage;
mod eval;
mod tuner;

pub use compile::CompiledGrammar;
pub use config::{OptConfig, OPT_COUNT, OPT_NAMES};
pub use coverage::Coverage;
pub use tuner::derive_plan;

/// Internal compiled-grammar IR, exposed for `modpeg-codegen` only.
#[doc(hidden)]
pub mod ir {
    pub use crate::compile::{first_set_desc, CAlt, CExpr, CProd, EId, LeftRec};
}
