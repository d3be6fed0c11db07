//! One parse request, one outcome, one driver.
//!
//! Every engine — the interpreter, the bytecode machine, and each
//! generated parser — answers the same question: parse this text in this
//! mode, optionally under a governor's limits and reporting to a
//! telemetry handle. [`ParseRequest`] is the question, [`Outcome`] the
//! answer, and [`Engine`] the object-safe trait all three implement.
//!
//! What every mode shares lives once, in [`drive`]: the 4 GiB guard, the
//! governor pre-poll, the rule that an abort overrides the nominal
//! outcome, full-consumption checking, the restart loop of the resilient
//! modes, and the governor's share of the statistics. The driver is
//! generic over an engine's per-run hooks ([`ParseRun`]) and so is
//! monomorphised per engine: `dyn Engine` dispatch happens once per
//! parse, never inside one.

use modpeg_telemetry::Telemetry;

use crate::recover::{self, Attempt, Diagnostic, Diagnostics, RecoverPolicy, Recovered};
use crate::{
    EventSink, Fail, Failures, Governor, Input, MemoTable, PResult, ParseError, ParseEvent,
    ParseFault, RunCtx, Span, Stats, SyntaxTree, Value,
};

/// What a parse produces.
pub enum Mode<'r> {
    /// An owned syntax tree; the first syntax error fails the parse.
    Tree,
    /// The tree streamed to the sink as [`ParseEvent`]s
    /// straight from the parse region — no owned tree is built, and no
    /// events are emitted for a failed parse.
    Events(&'r mut dyn EventSink),
    /// Panic-mode recovery under the policy: a tree spanning the whole
    /// input, with `$error` nodes over skipped regions, plus diagnostics.
    /// Syntax errors never fail the parse.
    Resilient(&'r RecoverPolicy),
    /// The resilient tree streamed as events, skipped regions bracketed by
    /// `ErrorStart`/`ErrorEnd`.
    ResilientEvents(&'r RecoverPolicy, &'r mut dyn EventSink),
}

/// One parse: a [`Mode`] plus the optional governor and telemetry handle.
///
/// # Examples
///
/// ```
/// use modpeg_runtime::{Governor, ParseRequest};
///
/// let gov = Governor::new().with_fuel(10_000);
/// let req = ParseRequest::tree().governed(&gov);
/// assert!(req.governor.is_some() && req.telemetry.is_none());
/// ```
pub struct ParseRequest<'r> {
    /// What the parse produces.
    pub mode: Mode<'r>,
    /// Resource limits (deadline, fuel, depth, memo budget, cancellation).
    /// Ungoverned runs never abort; a governor must not be reused without
    /// [`Governor::reset`] (a tripped governor is sticky).
    pub governor: Option<&'r Governor>,
    /// Where production spans, memo traffic and governor events go.
    pub telemetry: Option<&'r Telemetry>,
}

impl<'r> ParseRequest<'r> {
    fn of(mode: Mode<'r>) -> Self {
        ParseRequest {
            mode,
            governor: None,
            telemetry: None,
        }
    }

    /// A tree-mode request.
    pub fn tree() -> Self {
        Self::of(Mode::Tree)
    }

    /// An event-mode request streaming to `sink`.
    pub fn events(sink: &'r mut dyn EventSink) -> Self {
        Self::of(Mode::Events(sink))
    }

    /// A resilient request under `policy`.
    pub fn resilient(policy: &'r RecoverPolicy) -> Self {
        Self::of(Mode::Resilient(policy))
    }

    /// A resilient event-mode request under `policy`, streaming to `sink`.
    pub fn resilient_events(policy: &'r RecoverPolicy, sink: &'r mut dyn EventSink) -> Self {
        Self::of(Mode::ResilientEvents(policy, sink))
    }

    /// Puts the parse under `gov`'s limits.
    pub fn governed(mut self, gov: &'r Governor) -> Self {
        self.governor = Some(gov);
        self
    }

    /// Reports the parse to `telem`.
    pub fn with_telemetry(mut self, telem: &'r Telemetry) -> Self {
        self.telemetry = Some(telem);
        self
    }
}

/// What a successful parse produced.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// The tree; `None` in the event modes, whose product went to the sink.
    pub tree: Option<SyntaxTree>,
    /// Every error recovery skipped over; always clean in the strict modes.
    pub diagnostics: Diagnostics,
}

impl Parsed {
    /// The tree of a tree-mode or resilient parse.
    ///
    /// # Panics
    ///
    /// For an event-mode parse, which builds no tree.
    pub fn into_tree(self) -> SyntaxTree {
        self.tree.expect("event modes build no tree")
    }

    /// The tree and diagnostics of a resilient parse.
    ///
    /// # Panics
    ///
    /// For an event-mode parse, which builds no tree.
    pub fn into_recovered(self) -> Recovered<SyntaxTree> {
        Recovered {
            diagnostics: self.diagnostics,
            tree: self.tree.expect("event modes build no tree"),
        }
    }
}

/// One parse's answer: what it produced, or the [`ParseFault`] that
/// stopped it, plus the run's [`Stats`] (in every mode). Syntax errors
/// fail only the strict modes; aborts fail every mode.
pub type Outcome = (Result<Parsed, ParseFault>, Stats);

/// A parsing engine: anything that can answer a [`ParseRequest`].
pub trait Engine {
    /// Parses `text` as `req` asks.
    fn run(&self, text: &str, req: ParseRequest<'_>) -> Outcome;

    /// The engine-shared [`RecoverPolicy`] for the grammar: identical
    /// across engines for the same grammar.
    fn recover_policy(&self) -> RecoverPolicy;

    /// The engine's name (`interp`, `vm` or `codegen`).
    fn name(&self) -> &'static str;
}

/// One engine's run over one input, already under the request's governor
/// and telemetry: the walk that evaluates the root, and the [`RunCtx`]
/// [`drive`] shapes the outcome from.
pub trait ParseRun<'a> {
    /// The run's memo table.
    type Memo: MemoTable;

    /// Evaluates the root production at `pos`.
    fn eval_root(&mut self, pos: u32) -> PResult;

    /// The run's context.
    fn cx(&mut self) -> &mut RunCtx<'a, Self::Memo>;
}

/// Runs one request: checks the input size and the governor, opens the
/// engine's run with `open`, and shapes the outcome. The run comes back
/// too (unless no run was opened), for engine-specific state such as an
/// incremental memo table or coverage.
pub fn drive<'a, R: ParseRun<'a>>(
    text: &str,
    req: ParseRequest<'_>,
    open: impl FnOnce() -> R,
) -> (Outcome, Option<R>) {
    let ParseRequest { mode, governor, .. } = req;
    if text.len() > u32::MAX as usize {
        // Spans and memo positions are 32-bit; refuse cleanly instead of
        // wrapping.
        return ((oversize(mode), Stats::default()), None);
    }
    // A pre-cancelled or pre-expired governor aborts before any work.
    if let Some(Err(kind)) = governor.map(Governor::poll) {
        return ((Err(ParseFault::Abort(kind)), Stats::default()), None);
    }
    let mut run = open();
    let result = match mode {
        Mode::Tree => strict(&mut run, text).map(|value| Parsed {
            tree: Some(SyntaxTree::new(text, run.cx().materialize(value))),
            diagnostics: Diagnostics::default(),
        }),
        Mode::Events(sink) => strict(&mut run, text).map(|value| {
            run.cx().emit(&value, sink);
            Parsed::default()
        }),
        Mode::Resilient(policy) => {
            resilient(&mut run, text, policy).map(|(value, diagnostics)| Parsed {
                tree: Some(SyntaxTree::new(text, value)),
                diagnostics,
            })
        }
        // The fragments are assembled first and replayed, so every engine
        // emits the identical stream.
        Mode::ResilientEvents(policy, sink) => {
            resilient(&mut run, text, policy).map(|(value, diagnostics)| {
                run.cx().emit(&value, sink);
                Parsed {
                    tree: None,
                    diagnostics,
                }
            })
        }
    };
    let stats = run.cx().finish_stats();
    ((result, stats), Some(run))
}

/// The strict modes: the root must match all of `text`. The abort check
/// comes first and overrides the nominal result.
fn strict<'a>(run: &mut impl ParseRun<'a>, text: &str) -> Result<Value, ParseFault> {
    let result = run.eval_root(0);
    let cx = run.cx();
    if let Some(kind) = cx.aborted() {
        return Err(ParseFault::Abort(kind));
    }
    match result {
        Ok((end, value)) if end as usize == text.len() => Ok(value),
        Ok((end, _)) => {
            cx.failures.note(end, "end of input");
            Err(ParseFault::Syntax(cx.error()))
        }
        Err(Fail) => Err(ParseFault::Syntax(cx.error())),
    }
}

/// The resilient modes: the shared restart loop over root attempts, with
/// aborts threaded straight through. One run — and one memo table —
/// lives across all attempts, so a restart re-derives nothing already
/// memoized.
fn resilient<'a>(
    run: &mut impl ParseRun<'a>,
    text: &str,
    policy: &RecoverPolicy,
) -> Result<(Value, Diagnostics), ParseFault> {
    let input = Input::new(text);
    recover::drive(&input, policy, |pos, fresh| {
        // A diagnostic was just consumed: report only new failures.
        if fresh {
            run.cx().failures.reset();
        }
        let result = run.eval_root(pos);
        let cx = run.cx();
        let end = result.ok().map(|(end, value)| (end, cx.materialize(value)));
        match cx.aborted() {
            Some(kind) => Err(ParseFault::Abort(kind)),
            None => Ok(Attempt {
                end,
                error: cx.error(),
            }),
        }
    })
}

/// The error reported for inputs too large for 32-bit spans.
pub fn oversize_error() -> ParseError {
    let mut failures = Failures::new();
    failures.note(0, "input smaller than 4 GiB");
    failures.to_error(&Input::new(""))
}

/// The outcome for an input too large for 32-bit spans: a syntax error in
/// the strict modes; one truncated diagnostic and an empty tree in the
/// resilient ones.
fn oversize(mode: Mode<'_>) -> Result<Parsed, ParseFault> {
    let diagnostics = Diagnostics {
        errors: vec![Diagnostic {
            error: oversize_error(),
            skipped: Span::point(0),
        }],
        truncated: true,
        failures_dropped: 0,
    };
    match mode {
        Mode::Tree | Mode::Events(_) => Err(ParseFault::Syntax(oversize_error())),
        Mode::Resilient(_) => Ok(Parsed {
            tree: Some(SyntaxTree::new("", Value::Unit)),
            diagnostics,
        }),
        Mode::ResilientEvents(_, sink) => {
            sink.event(ParseEvent::Unit);
            Ok(Parsed {
                tree: None,
                diagnostics,
            })
        }
    }
}

/// The syntax error of an ungoverned run, which cannot abort.
fn syntax(fault: ParseFault) -> ParseError {
    match fault {
        ParseFault::Syntax(err) => err,
        ParseFault::Abort(kind) => unreachable!("an ungoverned run aborted: {kind}"),
    }
}

/// An ungoverned tree-mode outcome in the shape `parse_with_stats` returns.
pub fn tree_result((result, stats): Outcome) -> (Result<SyntaxTree, ParseError>, Stats) {
    let result = match result {
        Ok(parsed) => Ok(parsed.into_tree()),
        Err(fault) => Err(syntax(fault)),
    };
    (result, stats)
}

/// An ungoverned event-mode outcome in the shape `parse_events` returns.
pub fn events_result((result, _): Outcome) -> Result<(), ParseError> {
    result.map(drop).map_err(syntax)
}

/// An ungoverned resilient outcome in the shape `parse_resilient` returns.
pub fn recovered_result((result, _): Outcome) -> Recovered<SyntaxTree> {
    match result {
        Ok(parsed) => parsed.into_recovered(),
        Err(fault) => unreachable!("an ungoverned resilient run failed: {fault}"),
    }
}
