//! The shared error-recovery driver: panic-mode restarts over any engine.
//!
//! A plain parse answers one question — does the whole input match the
//! root production? — and on failure returns a single farthest-failure
//! [`ParseError`] with no tree. A *resilient* parse never answers "no":
//! it returns a partial tree plus a [`Diagnostics`] report covering every
//! error region it skipped.
//!
//! The strategy is restart-based panic mode, one loop shared by all three
//! engines (tree-walking interpreter, bytecode VM, generated parsers):
//!
//! 1. attempt the root production at the current position;
//! 2. a full match finishes; a *prefix* match contributes a fragment and
//!    the loop continues where it ended;
//! 3. a failure becomes one [`Diagnostic`] — the engine's farthest
//!    failure, exactly what a plain parse would have reported — and the
//!    driver skips forward to the next byte in the grammar's
//!    *synchronization set* (computed in `modpeg-core` from first/follow
//!    analysis, extended by `@recover(...)` annotations), synthesizing an
//!    [`ERROR_KIND`] node over the skipped region;
//! 4. repeat until end of input or the error budget is spent.
//!
//! Because each engine keeps its one parser (and thus its memo table)
//! alive across restarts, re-attempting after an error re-derives nothing
//! that already succeeded or failed — Ford's packrat linearity argument
//! carries over to multi-error parses. The skip scan advances at least
//! one character per diagnostic, so the driver terminates on every input:
//! the never-die guarantee is structural, not empirical.
//!
//! The engines differ only in the closure they hand [`drive`]; the
//! diagnostics, the restart schedule, and the recovered tree shape are
//! decided here, which is what makes cross-engine agreement checkable.

use std::rc::Rc;

use modpeg_telemetry::escape_json;

use crate::error::{ExpectedList, ParseError};
use crate::input::Input;
use crate::navigate::Step;
use crate::span::Span;
use crate::value::{Node, NodeKind, Value};

/// Node kind of a synthesized error region: a leafless node whose span
/// covers the bytes the driver skipped.
pub const ERROR_KIND: &str = "$error";

/// Node kind of the wrapper root when a parse recovered: its children are
/// the matched fragments and the [`ERROR_KIND`] regions, in input order.
/// A resilient parse of *valid* input returns the plain tree instead.
pub const RECOVERED_KIND: &str = "$recovered";

/// Default [`RecoverPolicy::max_errors`]: enough to be useful in an
/// editor, small enough that a hostile input cannot demand unbounded
/// diagnostics.
pub const DEFAULT_MAX_ERRORS: usize = 20;

/// A set of synchronization bytes: where panic-mode skipping may resume.
///
/// Byte-level (like the engines' first-set dispatch tables): membership
/// of a multibyte character is decided by its leading byte, and the skip
/// scan only ever tests characters' leading bytes, so recovery never
/// resumes inside a code point.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct SyncSet {
    bits: [u64; 4],
}

impl SyncSet {
    /// The empty set (skipping always runs to end of input).
    pub fn empty() -> Self {
        SyncSet::default()
    }

    /// Builds the set containing exactly `bytes`.
    pub fn from_bytes(bytes: impl IntoIterator<Item = u8>) -> Self {
        let mut s = SyncSet::empty();
        for b in bytes {
            s.insert(b);
        }
        s
    }

    /// Adds one byte.
    pub fn insert(&mut self, byte: u8) {
        self.bits[(byte >> 6) as usize] |= 1 << (byte & 63);
    }

    /// Whether `byte` is a synchronization point.
    #[inline]
    pub fn contains(&self, byte: u8) -> bool {
        self.bits[(byte >> 6) as usize] & (1 << (byte & 63)) != 0
    }

    /// Number of member bytes.
    pub fn len(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// The member bytes in ascending order.
    pub fn bytes(&self) -> Vec<u8> {
        (0..=255u8).filter(|b| self.contains(*b)).collect()
    }
}

impl std::fmt::Debug for SyncSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SyncSet(")?;
        for (i, b) in self.bytes().into_iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            if b.is_ascii_graphic() {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "{b:#04x}")?;
            }
        }
        write!(f, ")")
    }
}

/// How a resilient parse recovers: where it may resume and how many
/// errors it reports before giving up on the remainder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverPolicy {
    /// Diagnostics reported before the rest of the input is covered by
    /// one final unreported error region ([`Diagnostics::truncated`]).
    pub max_errors: usize,
    /// Bytes at which skipped regions end and parsing restarts.
    pub sync: SyncSet,
    /// The subset of sync bytes that are *terminators* rather than
    /// starters (typically `@recover` tokens like `";"` that end the
    /// damaged construct): the skip consumes the synchronization
    /// character and resumes after it, where a byte that can start the
    /// root production is resumed *at*.
    pub consume: SyncSet,
}

impl RecoverPolicy {
    /// A policy resuming at `sync` with the default error budget.
    pub fn new(sync: SyncSet) -> Self {
        RecoverPolicy {
            max_errors: DEFAULT_MAX_ERRORS,
            sync,
            consume: SyncSet::empty(),
        }
    }

    /// Same policy with a different error budget.
    pub fn with_max_errors(mut self, max_errors: usize) -> Self {
        self.max_errors = max_errors;
        self
    }

    /// Same policy, additionally consuming `consume` bytes on resume
    /// (terminator semantics). They are added to the sync set as well.
    pub fn with_consume(mut self, consume: SyncSet) -> Self {
        for b in consume.bytes() {
            self.sync.insert(b);
        }
        self.consume = consume;
        self
    }
}

/// One recovered error: what a plain parse of the remaining input would
/// have reported, plus the region the driver skipped to move past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The farthest-failure report for this restart attempt (offset,
    /// line/column, expected terminals, found description).
    pub error: ParseError,
    /// The byte region the synthesized [`ERROR_KIND`] node covers;
    /// parsing resumed at `skipped.hi()`.
    pub skipped: Span,
}

impl Diagnostic {
    /// Offset parsing resumed at (the end of the skipped region).
    pub fn resumed_at(&self) -> u32 {
        self.skipped.hi()
    }
}

/// Every error a resilient parse recovered from, in input order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    /// The recovered errors; offsets are non-decreasing and skipped
    /// regions are disjoint and ascending.
    pub errors: Vec<Diagnostic>,
    /// `true` when the error budget ran out: the tail of the input is
    /// covered by one final error region with no diagnostic of its own.
    pub truncated: bool,
    /// Failure records the engine's accumulator dropped at its retention
    /// cap (recording mode only); surfaced so the loss is never silent.
    pub failures_dropped: u64,
}

impl Diagnostics {
    /// Number of reported errors.
    pub fn error_count(&self) -> usize {
        self.errors.len()
    }

    /// `true` when the parse was clean: no errors, nothing truncated.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && !self.truncated
    }

    /// Renders the report the way compilers do, one `file:line:col:`
    /// line per error plus a summary line.
    pub fn render_human(&self, path: &str) -> String {
        let mut out = String::new();
        for d in &self.errors {
            let p = d.error.position();
            out.push_str(&format!(
                "{path}:{}:{}: error: expected {}, found {}",
                p.line(),
                p.col(),
                ExpectedList(d.error.expected()),
                d.error.found()
            ));
            if !d.skipped.is_empty() {
                out.push_str(&format!(
                    "; skipped {} byte(s) [{}]",
                    d.skipped.len(),
                    d.skipped
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!("{path}: {} error(s)", self.errors.len()));
        if self.truncated {
            out.push_str(" (error budget exhausted; remainder skipped)");
        }
        if self.failures_dropped > 0 {
            out.push_str(&format!(
                ", {} failure record(s) dropped",
                self.failures_dropped
            ));
        }
        out.push('\n');
        out
    }

    /// Renders the report as a JSON object (the `modpeg check --json`
    /// schema; see the README). The output is plain portable JSON — the
    /// repo's own JSON grammar parses it, which the recovery smoke test
    /// exploits.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"errors\": [");
        for (i, d) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let p = d.error.position();
            out.push_str(&format!(
                "{{\"offset\": {}, \"line\": {}, \"col\": {}, \"expected\": [",
                d.error.offset(),
                p.line(),
                p.col()
            ));
            for (j, e) in d.error.expected().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\"", escape_json(e)));
            }
            out.push_str(&format!(
                "], \"found\": \"{}\", \"skipped\": {{\"lo\": {}, \"hi\": {}}}, \"resumed_at\": {}}}",
                escape_json(d.error.found()),
                d.skipped.lo(),
                d.skipped.hi(),
                d.resumed_at()
            ));
        }
        out.push_str(&format!(
            "], \"error_count\": {}, \"truncated\": {}, \"failures_dropped\": {}}}",
            self.errors.len(),
            self.truncated,
            self.failures_dropped
        ));
        out
    }
}

/// The outcome of one restart attempt, reported by an engine closure.
///
/// `end` carries a match: the offset the root production reached and its
/// *detached* semantic value (owned, never an arena handle — the driver
/// stores it across further attempts, which may reset the arena's source
/// of truth). `error` is the engine's farthest-failure report for the
/// attempt; it is ignored when the match consumed input, and becomes the
/// diagnostic otherwise.
#[derive(Debug)]
pub struct Attempt {
    /// `Some((end, value))` when the root matched at the attempt position
    /// (possibly a prefix, possibly empty); `None` on outright failure.
    pub end: Option<(u32, Value)>,
    /// The farthest failure noted during the attempt.
    pub error: ParseError,
}

/// A resilient parse's result: the (possibly partial) tree and the report
/// of everything recovered from. `tree` is the plain parse tree when
/// `diagnostics` is clean, otherwise a [`RECOVERED_KIND`] wrapper.
#[derive(Debug, Clone)]
pub struct Recovered<T> {
    /// The recovered tree (engines instantiate `T = SyntaxTree`).
    pub tree: T,
    /// Every error recovered from (empty for a clean parse).
    pub diagnostics: Diagnostics,
}

/// Runs the restart loop over an engine's attempt closure.
///
/// `try_at(pos, fresh)` must attempt the root production at `pos` and
/// report the outcome; when `fresh` is true a diagnostic was just emitted
/// and the engine must reset its [`Failures`] accumulator first, so the
/// next report covers only new ground. The closure's error type threads
/// engine aborts (governed parses) straight through the driver.
///
/// Returns the root value — the fragment itself for a clean one-fragment
/// parse, a [`RECOVERED_KIND`] node otherwise — plus the diagnostics.
///
/// [`Failures`]: crate::Failures
///
/// # Errors
///
/// Only what `try_at` returns: the driver itself cannot fail.
pub fn drive<E>(
    input: &Input<'_>,
    policy: &RecoverPolicy,
    mut try_at: impl FnMut(u32, bool) -> Result<Attempt, E>,
) -> Result<(Value, Diagnostics), E> {
    let len = input.len();
    let mut pos: u32 = 0;
    let mut parts: Vec<Value> = Vec::new();
    let mut fragments = 0usize;
    let mut diags = Diagnostics::default();
    let mut fresh = false;

    loop {
        let attempt = try_at(pos, fresh)?;
        fresh = false;
        diags.failures_dropped = diags.failures_dropped.max(attempt.error.dropped());
        match attempt.end {
            Some((end, value)) if end == len => {
                parts.push(value);
                fragments += 1;
                break;
            }
            Some((end, value)) if end > pos => {
                // A prefix matched: keep the fragment, continue after it.
                // Not an error by itself — if the remainder is garbage the
                // next attempt will say so from exactly where it starts.
                parts.push(value);
                fragments += 1;
                pos = end;
                continue;
            }
            // Outright failure, or an empty match that made no progress:
            // recover. (An engine reporting end < pos would be a bug; it
            // lands here and is treated as a failure.)
            _ => {}
        }

        if diags.errors.len() >= policy.max_errors {
            // Budget spent: one final unreported error region covers the
            // remainder so the tree still spans the whole input.
            parts.push(error_node(Span::new(pos, len)));
            diags.truncated = true;
            break;
        }

        // The diagnostic points at the engine's farthest failure, clamped
        // into the unconsumed region (an empty match can leave the
        // accumulator behind `pos`).
        let at = attempt.error.offset().clamp(pos, len);
        let mut resume = scan_sync(input, pos, at, &policy.sync);
        // A terminator sync byte (e.g. an annotated `";"`) ends the
        // damaged construct: consume it and resume after, so the restart
        // begins where the next construct can actually start.
        if resume < len {
            if let Some((c, width)) = input.char_at(resume) {
                let mut lead = [0u8; 4];
                c.encode_utf8(&mut lead);
                if policy.consume.contains(lead[0]) {
                    resume += width;
                }
            }
        }
        let skipped = Span::new(pos, resume);
        diags.errors.push(Diagnostic {
            error: attempt.error,
            skipped,
        });
        parts.push(error_node(skipped));
        fresh = true;
        pos = resume;
        if pos >= len {
            break;
        }
    }

    let root = if diags.is_clean() && fragments == 1 && parts.len() == 1 {
        parts.pop().expect("one fragment")
    } else {
        Value::Node(Rc::new(Node::with_span(
            NodeKind::new(RECOVERED_KIND),
            parts,
            Span::new(0, len),
        )))
    };
    Ok((root, diags))
}

/// The panic-mode skip: the first character boundary `q` with
/// `q >= max(pos + 1, at)` whose byte is in the sync set, or end of
/// input. Starting past `pos` guarantees progress (the failed attempt
/// already proved `pos` itself is not a restart point); starting no
/// earlier than the failure offset `at` keeps the skipped region
/// covering everything the failed attempt could not turn into a tree.
fn scan_sync(input: &Input<'_>, pos: u32, at: u32, sync: &SyncSet) -> u32 {
    let len = input.len();
    let mut q = at.max(pos.saturating_add(1)).min(len);
    // Snap forward onto a character boundary so resumption (and the
    // synthesized error span) never splits a code point.
    while q < len && !input.text().is_char_boundary(q as usize) {
        q += 1;
    }
    while q < len {
        match input.char_at(q) {
            Some((c, width)) => {
                let mut lead = [0u8; 4];
                c.encode_utf8(&mut lead);
                if sync.contains(lead[0]) {
                    return q;
                }
                q += width;
            }
            None => break,
        }
    }
    len
}

/// Creates the synthesized node covering one skipped region.
fn error_node(span: Span) -> Value {
    Value::Node(Rc::new(Node::with_span(
        NodeKind::new(ERROR_KIND),
        Vec::new(),
        span,
    )))
}

/// Counts the [`ERROR_KIND`] nodes in a recovered tree (the structural
/// counterpart of [`Diagnostics::error_count`]; one more than the
/// diagnostic count when the report was truncated).
pub fn count_error_nodes(v: &Value) -> usize {
    v.walk()
        .filter(
            |step| matches!(step, Step::Enter(Value::Node(n)) if n.kind().as_str() == ERROR_KIND),
        )
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{Arena, EventSink, ParseEvent, TreeBuilder};
    use crate::error::Failures;

    /// A toy engine: the "grammar" matches one decimal-digit run.
    /// Failure semantics mirror the real engines: note the failure
    /// position and expected terminal in a `Failures` accumulator that
    /// survives across attempts until the driver says `fresh`.
    struct DigitRuns<'i> {
        input: Input<'i>,
        failures: Failures<'static>,
    }

    impl<'i> DigitRuns<'i> {
        fn new(text: &'i str) -> Self {
            DigitRuns {
                input: Input::new(text),
                failures: Failures::new(),
            }
        }

        fn attempt(&mut self, pos: u32, fresh: bool) -> Attempt {
            if fresh {
                self.failures.reset();
            }
            let mut end = pos;
            while self.input.byte_at(end).is_some_and(|b| b.is_ascii_digit()) {
                end += 1;
            }
            if end == pos {
                self.failures.note(pos, "digit");
                Attempt {
                    end: None,
                    error: self.failures.to_error(&self.input),
                }
            } else {
                Attempt {
                    end: Some((end, Value::Text(Span::new(pos, end)))),
                    error: self.failures.to_error(&self.input),
                }
            }
        }
    }

    fn digits_policy() -> RecoverPolicy {
        RecoverPolicy::new(SyncSet::from_bytes(b"0123456789".iter().copied()))
    }

    fn run(text: &str, policy: &RecoverPolicy) -> (Value, Diagnostics) {
        let mut eng = DigitRuns::new(text);
        let input = Input::new(text);
        match drive::<std::convert::Infallible>(&input, policy, |pos, fresh| {
            Ok(eng.attempt(pos, fresh))
        }) {
            Ok(r) => r,
        }
    }

    #[test]
    fn sync_set_membership_and_iteration() {
        let s = SyncSet::from_bytes([b';', b'}', 0xE2]);
        assert!(s.contains(b';') && s.contains(b'}') && s.contains(0xE2));
        assert!(!s.contains(b'a'));
        assert_eq!(s.len(), 3);
        assert_eq!(s.bytes(), vec![b';', b'}', 0xE2]);
        assert!(SyncSet::empty().is_empty());
        let dbg = format!("{s:?}");
        assert!(dbg.contains(';') && dbg.contains("0xe2"), "{dbg}");
    }

    #[test]
    fn clean_parse_returns_plain_tree() {
        let (v, d) = run("12345", &digits_policy());
        assert!(d.is_clean());
        assert_eq!(v, Value::Text(Span::new(0, 5)));
        assert_eq!(count_error_nodes(&v), 0);
    }

    #[test]
    fn single_error_recovers_and_reports() {
        let (v, d) = run("12ab34", &digits_policy());
        assert_eq!(d.error_count(), 1);
        assert!(!d.truncated);
        let diag = &d.errors[0];
        assert_eq!(diag.error.offset(), 2);
        assert_eq!(diag.error.expected(), ["digit".to_owned()]);
        assert_eq!(diag.skipped, Span::new(2, 4));
        assert_eq!(diag.resumed_at(), 4);
        // Tree: $recovered("12", $error, "34").
        let node = v.as_node().expect("wrapper");
        assert_eq!(node.kind().as_str(), RECOVERED_KIND);
        assert_eq!(node.children().len(), 3);
        assert_eq!(count_error_nodes(&v), 1);
    }

    #[test]
    fn consume_bytes_are_skipped_past_on_resume() {
        // `;` is a terminator-style sync token: the skip swallows it and
        // resumes after, so the restart lands on the next digit run.
        let policy = digits_policy().with_consume(SyncSet::from_bytes([b';']));
        let (v, d) = run("12xx;34", &policy);
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.errors[0].skipped, Span::new(2, 5), "terminator consumed");
        assert_eq!(d.errors[0].resumed_at(), 5);
        assert_eq!(count_error_nodes(&v), 1);
        // Without consume semantics, resuming *at* `;` costs an extra
        // cascading diagnostic.
        let (_, d) = run("12xx;34", &digits_policy().with_consume(SyncSet::empty()));
        assert_eq!(d.error_count(), 1, "digit-only sync skips straight to 3");
        let mut plain = digits_policy();
        plain.sync.insert(b';');
        let (_, d) = run("12xx;34", &plain);
        assert_eq!(d.error_count(), 2, "resume-at a terminator cascades");
    }

    #[test]
    fn consume_at_end_of_input_is_safe() {
        let policy = digits_policy().with_consume(SyncSet::from_bytes([b';']));
        let (_, d) = run("12xx;", &policy);
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.errors[0].skipped, Span::new(2, 5));
        assert_eq!(d.errors[0].resumed_at(), 5, "consumed final byte");
    }

    #[test]
    fn multiple_errors_in_order() {
        let (v, d) = run("x1y2z", &digits_policy());
        assert_eq!(d.error_count(), 3);
        let offsets: Vec<u32> = d.errors.iter().map(|e| e.error.offset()).collect();
        assert_eq!(offsets, vec![0, 2, 4]);
        let spans: Vec<Span> = d.errors.iter().map(|e| e.skipped).collect();
        assert_eq!(
            spans,
            vec![Span::new(0, 1), Span::new(2, 3), Span::new(4, 5)]
        );
        assert_eq!(count_error_nodes(&v), 3);
    }

    #[test]
    fn max_errors_truncates_with_final_region() {
        let policy = digits_policy().with_max_errors(1);
        let (v, d) = run("x1y2z", &policy);
        assert_eq!(d.error_count(), 1);
        assert!(d.truncated);
        // One reported error node plus the final covering region.
        assert_eq!(count_error_nodes(&v), 2);
        let node = v.as_node().expect("wrapper");
        let last = node.children().last().unwrap().as_node().unwrap();
        assert_eq!(last.kind().as_str(), ERROR_KIND);
        assert_eq!(last.span(), Some(Span::new(2, 5)));
    }

    #[test]
    fn max_errors_zero_never_reports() {
        let policy = digits_policy().with_max_errors(0);
        let (v, d) = run("abc", &policy);
        assert_eq!(d.error_count(), 0);
        assert!(d.truncated);
        assert_eq!(count_error_nodes(&v), 1);
        assert!(!d.is_clean());
        let node = v.as_node().unwrap();
        assert_eq!(node.kind().as_str(), RECOVERED_KIND);
    }

    #[test]
    fn all_garbage_is_one_region_when_no_sync_byte() {
        let (v, d) = run("abcdef", &digits_policy());
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.errors[0].skipped, Span::new(0, 6));
        assert_eq!(count_error_nodes(&v), 1);
    }

    #[test]
    fn empty_input_failure_is_one_empty_region() {
        // The toy grammar needs at least one digit, so "" fails at 0;
        // the skip scan cannot advance and the region is empty — but the
        // driver still terminates and reports.
        let (v, d) = run("", &digits_policy());
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.errors[0].skipped, Span::new(0, 0));
        assert_eq!(d.errors[0].error.found(), "end of input");
        assert_eq!(count_error_nodes(&v), 1);
    }

    #[test]
    fn multibyte_garbage_skips_whole_characters() {
        // "1", then "αβ" (4 bytes of non-sync garbage), then "2".
        let (v, d) = run("1αβ2", &digits_policy());
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.errors[0].skipped, Span::new(1, 5));
        assert_eq!(d.errors[0].error.position().to_string(), "1:2");
        assert_eq!(count_error_nodes(&v), 1);
        // Fragments surround the error region.
        let node = v.as_node().unwrap();
        assert_eq!(node.children().len(), 3);
    }

    #[test]
    fn progress_against_sync_byte_at_failure_point() {
        // A sync set containing the byte the attempt fails on must not
        // loop: the scan starts strictly past the attempt position.
        let policy = RecoverPolicy::new(SyncSet::from_bytes(b"a0123456789".iter().copied()));
        let (_, d) = run("aaa1", &policy);
        assert!(d.error_count() >= 1);
        // Each skipped region advances exactly one byte (to the next 'a').
        assert_eq!(d.errors[0].skipped, Span::new(0, 1));
    }

    #[test]
    fn diagnostics_render_human_and_json() {
        let (_, d) = run("12ab34", &digits_policy());
        let human = d.render_human("in.txt");
        assert!(
            human.contains("in.txt:1:3: error: expected digit, found a"),
            "{human}"
        );
        assert!(human.contains("skipped 2 byte(s)"), "{human}");
        assert!(human.contains("1 error(s)"), "{human}");
        let json = d.to_json();
        assert!(json.contains("\"offset\": 2"), "{json}");
        assert!(json.contains("\"expected\": [\"digit\"]"), "{json}");
        assert!(json.contains("\"resumed_at\": 4"), "{json}");
        assert!(json.contains("\"truncated\": false"), "{json}");
    }

    #[test]
    fn json_escapes_special_characters() {
        let (_, d) = run("1\"2\n3", &digits_policy());
        let json = d.to_json();
        assert!(json.contains("\"found\": \"\\\"\""), "{json}");
        assert!(json.contains("\"found\": \"\\n\""), "{json}");
        modpeg_telemetry::validate_json(&json).expect("check --json output is JSON");
    }

    #[test]
    fn recovered_events_round_trip_through_tree_builder() {
        let (v, d) = run("12ab34", &digits_policy());
        assert_eq!(d.error_count(), 1);
        let mut builder = TreeBuilder::new();
        Arena::new().emit_events(&v, &mut builder);
        let rebuilt = builder.finish().expect("balanced stream");
        assert_eq!(rebuilt.to_sexpr("12ab34"), v.to_sexpr("12ab34"));
        // And the error bracket arrives as ErrorStart/ErrorEnd.
        struct Seen(Vec<&'static str>);
        impl EventSink for Seen {
            fn event(&mut self, e: ParseEvent) {
                self.0.push(match e {
                    ParseEvent::ErrorStart { .. } => "error-start",
                    ParseEvent::ErrorEnd => "error-end",
                    ParseEvent::EnterNode { .. } => "enter",
                    ParseEvent::ExitNode => "exit",
                    _ => "leaf",
                });
            }
        }
        let mut seen = Seen(Vec::new());
        Arena::new().emit_events(&v, &mut seen);
        assert_eq!(
            seen.0,
            vec!["enter", "leaf", "error-start", "error-end", "leaf", "exit"]
        );
    }
}
