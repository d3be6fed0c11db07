//! # modpeg-runtime
//!
//! The runtime library that packrat parsers produced by the `modpeg` toolkit
//! link against. It supplies everything a scannerless parsing-expression
//! parser needs at parse time:
//!
//! * [`Input`] — a byte-oriented view of the source text with UTF-8 aware
//!   character decoding and line/column mapping,
//! * [`Span`] / [`LineCol`] — source locations,
//! * [`Value`], [`Node`], [`SyntaxTree`] — generic semantic values (the
//!   analogue of xtc's *GNode*s), read through the one pre-order cursor
//!   [`Walk`],
//! * [`Arena`] — the bump region backing zero-copy semantic values, with
//!   `copy_out` / one-operation `reset`, plus the SAX-style
//!   [`ParseEvent`] / [`EventSink`] surface for treeless parsing,
//! * [`MemoTable`] — the packrat memoization store, in both a naïve
//!   hash-map flavour and the *chunked column* flavour that is one of the
//!   paper's headline optimizations,
//! * [`ScopedState`] — lightweight, transactional parser state (used for
//!   context-sensitive corners such as C `typedef` names),
//! * [`ParseError`] / [`Failures`] — farthest-failure error tracking,
//! * [`Stats`] — allocation and memoization accounting used by the
//!   heap-utilization experiments,
//! * [`RunCtx`] — one parse run's context and the protocol every engine
//!   runs it by: governor guard and abort, depth ceiling, memo probe and
//!   store under the budget ladder, terminals, class runs and value
//!   building,
//! * [`ParseRequest`] / [`Engine`] / [`engine::drive`] — the one request
//!   shape every engine answers, and the shared driver that turns an
//!   engine's run into an [`Outcome`].
//!
//! The runtime's only dependency is `modpeg-telemetry` (itself
//! dependency-free), and it is free of panics on library paths.
//!
//! ## Example
//!
//! ```
//! use modpeg_runtime::{Input, Span};
//!
//! let input = Input::new("let x = 1;\nlet y = 2;");
//! let span = Span::new(4, 5);
//! assert_eq!(input.slice(span), "x");
//! assert_eq!(input.line_col(span.lo()).line(), 1);
//! ```

#![warn(missing_docs)]

mod arena;
pub mod engine;
mod error;
mod governor;
mod input;
mod memo;
mod navigate;
mod out;
pub mod recover;
mod run;
pub mod scan;
mod span;
mod state;
mod stats;
mod value;

pub use arena::{
    Arena, ArenaInvariants, ArenaRef, EventCounts, EventSink, ParseEvent, TreeBuilder,
};
pub use engine::{Engine, Mode, Outcome, ParseRequest, ParseRun, Parsed};
pub use error::{Failures, ParseError};
pub use governor::{
    CancelToken, Governor, GovernorLimits, ParseAbort, ParseFault, DEFAULT_MAX_DEPTH, POLL_STRIDE,
};
pub use input::Input;
pub use memo::{
    ChunkMemo, CompactReport, EditReport, EvictReport, HashMemo, MemoAnswer, MemoTable, CHUNK_SIZE,
};
pub use navigate::{Step, Walk};
pub use out::Out;
pub use recover::{
    Attempt, Diagnostic, Diagnostics, RecoverPolicy, Recovered, SyncSet, DEFAULT_MAX_ERRORS,
    ERROR_KIND, RECOVERED_KIND,
};
pub use run::RunCtx;
pub use scan::{ClassRun, ClassTable, WideVerdict};
pub use span::{LineCol, LineMap, Span};
pub use state::{ScopedState, StateMark};
pub use stats::Stats;
pub use value::{Node, NodeKind, SyntaxTree, Value};

/// The result of applying one parsing expression: on success, the input
/// offset after the match together with the semantic value; on failure, the
/// unit failure token (failure details are accumulated in [`Failures`]).
pub type PResult = Result<(u32, Value), Fail>;

/// The failure token carried by [`PResult`].
///
/// It is a zero-sized marker: all diagnostic information lives in the
/// parser's [`Failures`] accumulator, which (under the `errors`
/// optimization) tracks only the farthest failure offset and the terminals
/// expected there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fail;

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("parse failure")
    }
}
