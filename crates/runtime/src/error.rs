//! Failure tracking and user-facing parse errors.
//!
//! A backtracking PEG parser generates an enormous number of *local*
//! failures — every ordered-choice alternative that does not match fails
//! before the next is tried. The paper's `errors` optimization replaces
//! per-failure error objects with a single *farthest failure* record: the
//! largest offset at which any expression failed, plus the set of terminals
//! expected there. [`Failures`] implements both strategies so the cost of
//! the unoptimized one is measurable.

use std::fmt;

use crate::input::Input;
use crate::span::LineCol;

/// Maximum number of failure records retained in the unoptimized
/// (per-failure) mode, to keep pathological inputs from exhausting memory.
const MAX_RECORDED: usize = 1 << 22;

/// Accumulator for parse failures.
///
/// In *farthest-only* mode (the optimized strategy) it keeps one offset and
/// the expected terminals there. In *recording* mode it additionally keeps
/// every individual failure, as an unoptimized parser would allocate error
/// objects.
///
/// The expected terminals are borrowed for `'a`, the run: every engine's
/// descriptions outlive it (the interpreter's compiled grammar, the VM's
/// constant pools, a generated parser's `static` table, string literals).
/// Farthest-only noting therefore never allocates once the set's `Vec`
/// has grown: a description already present is recognised by its address,
/// so the set holds at most one entry per distinct description site. It is
/// resolved to sorted, content-deduplicated strings only when read
/// ([`Failures::expected`], [`Failures::to_error`]).
#[derive(Debug, Clone)]
pub struct Failures<'a> {
    farthest: u32,
    expected: Vec<&'a str>,
    /// Individual failure records `(offset, expected)` in recording mode.
    recorded: Option<Vec<(u32, String)>>,
    dropped: u64,
}

impl<'a> Failures<'a> {
    /// Creates a farthest-only accumulator (the `errors` optimization on).
    pub fn new() -> Self {
        Failures {
            farthest: 0,
            expected: Vec::new(),
            recorded: None,
            dropped: 0,
        }
    }

    /// Creates a recording accumulator (the `errors` optimization off):
    /// every failure allocates a record, as in a naïve implementation.
    pub fn recording() -> Self {
        Failures {
            farthest: 0,
            expected: Vec::new(),
            recorded: Some(Vec::new()),
            dropped: 0,
        }
    }

    /// Notes that a terminal described by `desc` failed to match at
    /// `offset`.
    #[inline]
    pub fn note(&mut self, offset: u32, desc: &'a str) {
        if self.recorded.is_some() {
            self.record(offset, desc);
        }
        if offset < self.farthest {
            return;
        }
        if offset > self.farthest {
            self.farthest = offset;
            self.expected.clear();
        } else if self.expected.iter().any(|&d| std::ptr::eq(d, desc)) {
            return;
        }
        self.expected.push(desc);
    }

    /// Recording mode's per-failure record: the allocation the `errors`
    /// optimization removes.
    #[cold]
    fn record(&mut self, offset: u32, desc: &str) {
        let rec = self.recorded.as_mut().expect("recording mode");
        if rec.len() < MAX_RECORDED {
            rec.push((offset, desc.to_owned()));
        } else {
            self.dropped += 1;
        }
    }

    /// The farthest offset at which a failure was noted.
    pub fn farthest(&self) -> u32 {
        self.farthest
    }

    /// Number of individual failure records silently discarded because
    /// recording mode hit its retention cap (always 0 in farthest-only
    /// mode, where nothing is recorded to begin with).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forgets every failure noted so far while keeping the accumulator's
    /// mode (recording stays recording) and its `dropped` tally.
    ///
    /// The recovery driver calls this after converting the accumulated
    /// failures into a diagnostic, so the next restart attempt reports
    /// only its own failures.
    pub fn reset(&mut self) {
        self.farthest = 0;
        self.expected.clear();
        if let Some(rec) = &mut self.recorded {
            rec.clear();
        }
    }

    /// Terminals expected at the farthest failure offset, sorted in byte
    /// order with equal texts listed once.
    pub fn expected(&self) -> Vec<String> {
        let mut list = self.expected.clone();
        list.sort_unstable();
        list.dedup();
        list.into_iter().map(str::to_owned).collect()
    }

    /// Number of individual failures recorded (recording mode only).
    pub fn recorded_len(&self) -> usize {
        self.recorded.as_ref().map_or(0, Vec::len)
    }

    /// Estimated heap bytes held by recorded failures.
    pub fn retained_bytes(&self) -> usize {
        self.recorded.as_ref().map_or(0, |rec| {
            rec.capacity() * std::mem::size_of::<(u32, String)>()
                + rec.iter().map(|(_, s)| s.capacity()).sum::<usize>()
        })
    }

    /// Converts the accumulated failures into a user-facing error.
    pub fn to_error(&self, input: &Input<'_>) -> ParseError {
        ParseError {
            offset: self.farthest,
            position: input.line_col(self.farthest),
            expected: self.expected(),
            found: input
                .char_at(self.farthest)
                .map(|(c, _)| c.to_string())
                .unwrap_or_else(|| "end of input".to_owned()),
            dropped: self.dropped,
        }
    }
}

impl Default for Failures<'_> {
    fn default() -> Self {
        Failures::new()
    }
}

/// A user-facing parse error: where the parse got stuck, what was expected
/// there, and what was found instead.
///
/// # Examples
///
/// ```
/// use modpeg_runtime::{Failures, Input};
///
/// let input = Input::new("1 +");
/// let mut failures = Failures::new();
/// failures.note(3, "number");
/// let err = failures.to_error(&input);
/// assert_eq!(err.offset(), 3);
/// assert!(err.to_string().contains("expected number"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    offset: u32,
    position: LineCol,
    expected: Vec<String>,
    found: String,
    dropped: u64,
}

impl ParseError {
    /// Byte offset of the farthest failure.
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// Line/column of the farthest failure.
    pub fn position(&self) -> LineCol {
        self.position
    }

    /// Descriptions of the terminals expected at the failure point.
    pub fn expected(&self) -> &[String] {
        &self.expected
    }

    /// Description of what was actually found (a character, or
    /// `"end of input"`).
    pub fn found(&self) -> &str {
        &self.found
    }

    /// Number of individual failure records the accumulator discarded at
    /// its retention cap (recording mode only). Non-zero means the
    /// recorded failure list — *not* this farthest-failure summary — is
    /// incomplete; `Display` surfaces it so the loss is never silent.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}: expected {}, found {}",
            self.position,
            ExpectedList(&self.expected),
            self.found
        )?;
        if self.dropped > 0 {
            write!(f, " ({} failure record(s) dropped)", self.dropped)?;
        }
        Ok(())
    }
}

/// `a, b or c` — how every report phrases a list of expected terminals
/// (`nothing` when it is empty).
pub(crate) struct ExpectedList<'a>(pub(crate) &'a [String]);

impl fmt::Display for ExpectedList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            [] => f.write_str("nothing"),
            [last] => f.write_str(last),
            [init @ .., last] => write!(f, "{} or {last}", init.join(", ")),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farthest_failure_wins() {
        let mut f = Failures::new();
        f.note(3, "a");
        f.note(1, "b");
        f.note(3, "c");
        assert_eq!(f.farthest(), 3);
        assert_eq!(f.expected(), ["a", "c"]);
    }

    #[test]
    fn later_failure_clears_expected_set() {
        let mut f = Failures::new();
        f.note(2, "x");
        f.note(2, "z");
        f.note(5, "y");
        assert_eq!(f.farthest(), 5);
        assert_eq!(f.expected(), ["y"]);
        f.note(4, "w");
        assert_eq!((f.farthest(), f.expected()), (5, vec!["y".to_owned()]));
        f.note(5, "x");
        assert_eq!(f.expected(), ["x", "y"]);
    }

    #[test]
    fn equal_texts_from_distinct_sites_are_listed_once() {
        let (a, b) = (String::from("';'"), String::from("';'"));
        assert!(!std::ptr::eq(a.as_str(), b.as_str()));
        let mut f = Failures::new();
        f.note(2, &a);
        f.note(2, &b);
        let err = f.to_error(&Input::new("ab"));
        assert_eq!(err.expected(), ["';'"]);
        assert_eq!(f.expected(), ["';'"]);
    }

    #[test]
    fn expected_list_is_sorted_in_byte_order() {
        let mut f = Failures::new();
        for desc in ["identifier", "\"(\"", "Zeta", "'('", "digit", "é", "\"(\""] {
            f.note(0, desc);
        }
        // Byte order: quotes before capitals before lower case before
        // multi-byte characters, exactly as an ordered set of strings.
        let want = ["\"(\"", "'('", "Zeta", "digit", "identifier", "é"];
        assert_eq!(f.expected(), want);
        assert_eq!(f.to_error(&Input::new("")).expected(), want);
    }

    #[test]
    fn renoting_a_description_is_idempotent() {
        let mut f = Failures::new();
        let desc = "digit";
        f.note(4, desc);
        let once = f.clone();
        for _ in 0..100 {
            f.note(4, desc);
        }
        assert_eq!(f.expected, once.expected, "one entry per site");
        assert_eq!(f.farthest(), once.farthest());
        let input = Input::new("12345");
        assert_eq!(f.to_error(&input), once.to_error(&input));
    }

    #[test]
    fn recording_mode_keeps_every_failure() {
        let mut f = Failures::recording();
        f.note(0, "a");
        f.note(0, "a");
        f.note(1, "b");
        f.note(0, "c");
        assert_eq!(f.recorded_len(), 4, "behind the frontier and repeats too");
        assert_eq!(f.recorded.as_ref().unwrap()[3], (0, "c".to_owned()));
        assert!(f.retained_bytes() > 0);
        // Farthest tracking still works.
        assert_eq!(f.farthest(), 1);
        assert_eq!(f.expected(), ["b"]);
    }

    #[test]
    fn farthest_mode_retains_nothing() {
        let mut f = Failures::new();
        f.note(0, "a");
        assert_eq!(f.recorded_len(), 0);
        assert_eq!(f.retained_bytes(), 0);
    }

    #[test]
    fn error_display_lists_expectations() {
        let input = Input::new("ab");
        let mut f = Failures::new();
        f.note(1, "digit");
        f.note(1, "'('");
        f.note(1, "identifier");
        let err = f.to_error(&input);
        let msg = err.to_string();
        assert!(msg.contains("expected '(', digit or identifier"), "{msg}");
        assert!(msg.contains("found b"), "{msg}");
        assert_eq!(err.position().to_string(), "1:2");
    }

    #[test]
    fn expected_list_phrasing() {
        let phrase = |list: &[&str]| {
            let list: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            ExpectedList(&list).to_string()
        };
        assert_eq!(phrase(&[]), "nothing");
        assert_eq!(phrase(&["a"]), "a");
        assert_eq!(phrase(&["a", "b"]), "a or b");
        assert_eq!(phrase(&["a", "b", "c"]), "a, b or c");
    }

    #[test]
    fn error_at_eof_reports_end_of_input() {
        let input = Input::new("x");
        let mut f = Failures::new();
        f.note(1, "';'");
        let err = f.to_error(&input);
        assert_eq!(err.found(), "end of input");
        assert!(err.to_string().contains("found end of input"));
    }

    #[test]
    fn empty_failures_error_is_sensible() {
        let input = Input::new("");
        let err = Failures::new().to_error(&input);
        assert!(err.to_string().contains("expected nothing"));
    }

    #[test]
    fn reset_forgets_failures_but_keeps_mode() {
        for recording in [false, true] {
            let mut f = if recording {
                Failures::recording()
            } else {
                Failures::new()
            };
            f.dropped = 3;
            f.note(4, "x");
            f.note(7, "y");
            f.reset();
            assert_eq!((f.farthest(), f.dropped()), (0, 3));
            assert!(f.expected().is_empty());
            assert_eq!(f.recorded_len(), 0);
            // Still in the same mode after the reset.
            f.note(2, "z");
            assert_eq!(f.recorded_len(), usize::from(recording));
            assert_eq!(f.expected(), ["z"]);
        }
    }

    #[test]
    fn dropped_records_are_surfaced() {
        let mut f = Failures::recording();
        f.note(0, "a");
        assert_eq!(f.dropped(), 0);
        let input = Input::new("abc");
        assert!(!f.to_error(&input).to_string().contains("dropped"));

        // The cap itself (1 << 22 records) is too large to hit cheaply in
        // a unit test, so exercise the surfacing contract directly.
        let full = Failures {
            farthest: 1,
            expected: vec!["digit"],
            recorded: Some(Vec::new()),
            dropped: 7,
        };
        let err = full.to_error(&input);
        assert_eq!(err.dropped(), 7);
        let msg = err.to_string();
        assert!(msg.contains("7 failure record(s) dropped"), "{msg}");
        // A reset keeps the tally: the loss already happened.
        let mut full = full;
        full.reset();
        assert_eq!(full.dropped(), 7);
    }
}
