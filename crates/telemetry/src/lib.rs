//! # modpeg-telemetry
//!
//! Structured parse telemetry for every modpeg engine: a bounded
//! span/event collector behind a cheap [`Telemetry`] handle, a
//! per-production [`MetricsRegistry`], and exporters for Chrome
//! `trace_event` JSON, collapsed-stack flamegraphs, indented trace text,
//! and memo-table heatmaps.
//!
//! The design splits into two phases so the parser hot path stays hot:
//!
//! * **collection** — engines call the [`Telemetry`] hook methods at
//!   fixed points (production enter/exit, memo probe/hit/store/evict,
//!   governor aborts, session memo-reuse). A disabled handle reduces
//!   every hook to a single branch on a cached flag; an enabled handle
//!   appends a fixed-size [`TimedEvent`] to a pre-bounded buffer.
//! * **analysis** — after the parse, [`Telemetry::take_report`] yields a
//!   [`TelemetryReport`], from which [`MetricsRegistry::from_report`]
//!   aggregates histograms and the [`export`] functions render views.
//!
//! The disabled fast path is compile-time provably allocation-free:
//! [`Telemetry::disabled`] is a `const fn` (see the `const` assertion in
//! this crate), so a disabled handle cannot own heap state at all.
//!
//! ## Example
//!
//! ```
//! use modpeg_telemetry::{Telemetry, MetricsRegistry};
//!
//! let telem = Telemetry::collector(1024);
//! telem.set_names(vec!["Word".to_string()]);
//! let tok = telem.enter(0, 0, 0);
//! telem.memo_probe(0, 0);
//! telem.memo_store(0, 0, true);
//! telem.exit(tok, 0, 0, 0, 5, true);
//! let report = telem.take_report();
//! assert_eq!(report.events.len(), 4);
//! let registry = MetricsRegistry::from_report(&report);
//! assert_eq!(registry.prods[0].1.evals, 1);
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

mod json;
mod metrics;
mod profile;

pub mod export;

pub use json::{escape_json, parse_json, validate_json, JsonValue};
pub use metrics::{MetricsRegistry, Totals, BACKTRACK_BUCKET, N_BUCKETS, TIME_BUCKET_NS};
pub use profile::{DiffRow, ProdProfile, ProfileDiff, WorkloadProfile, MPROF_VERSION};

/// Production index used for the anonymous repetition/option helper
/// "productions" that the unoptimized desugarings memoize at expression
/// granularity. Reported as `(repetition)` by name lookups.
pub const REP_HELPER: u32 = u32::MAX;

/// Event-kind selection flags for [`Telemetry::with_mask`].
///
/// Collection filters let a caller that only needs a chronological trace
/// (spans + memo hits) keep its event cap for exactly those kinds instead
/// of spending it on memo traffic.
pub mod mask {
    /// Production enter/exit spans.
    pub const SPANS: u32 = 1 << 0;
    /// Memo-table hits (answer served).
    pub const MEMO_HITS: u32 = 1 << 1;
    /// Memo-table probes, stores, and evictions.
    pub const MEMO_TRAFFIC: u32 = 1 << 2;
    /// Backtracking events (an alternative failed after consuming input).
    pub const BACKTRACK: u32 = 1 << 3;
    /// Governor events (aborts, end-of-run tick accounting).
    pub const GOVERNOR: u32 = 1 << 4;
    /// Incremental-session events (memo reuse across edits).
    pub const SESSION: u32 = 1 << 5;
    /// Everything.
    pub const ALL: u32 = !0;
    /// What a chronological parse trace needs: spans and memo hits, the
    /// classic Rats! verbose mode.
    pub const TRACE: u32 = SPANS | MEMO_HITS;
}

/// What happened at one instant of a parse.
///
/// Positions are byte offsets into the input; `prod` indexes the compiled
/// grammar's production table ([`REP_HELPER`] for anonymous repetition
/// helpers); `depth` is the production-nesting depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A production application began evaluating (memo miss or unmemoized).
    Enter {
        /// Production index.
        prod: u32,
        /// Input offset.
        pos: u32,
        /// Production-nesting depth.
        depth: u32,
    },
    /// The matching end of an [`EventKind::Enter`].
    Exit {
        /// Production index.
        prod: u32,
        /// Input offset the application started at.
        pos: u32,
        /// Production-nesting depth (same as the matching enter).
        depth: u32,
        /// End offset of the match (equal to `pos` on failure).
        end: u32,
        /// Whether the application matched.
        matched: bool,
    },
    /// A memo-table lookup was performed.
    MemoProbe {
        /// Production index.
        prod: u32,
        /// Input offset.
        pos: u32,
    },
    /// A memo-table lookup found a valid stored answer.
    MemoHit {
        /// Production index.
        prod: u32,
        /// Input offset.
        pos: u32,
        /// Production-nesting depth.
        depth: u32,
        /// Whether the stored answer was a match.
        matched: bool,
    },
    /// A memo entry was written.
    MemoStore {
        /// Production index.
        prod: u32,
        /// Input offset.
        pos: u32,
        /// Whether the stored answer was a match.
        matched: bool,
    },
    /// A memo-budget eviction pass freed columns.
    MemoEvict {
        /// Input offset the eviction kept hot (columns left of it went).
        pos: u32,
        /// Memo columns freed.
        columns: u32,
    },
    /// An ordered-choice alternative failed after consuming input.
    Backtrack {
        /// Production whose alternatives were being tried.
        prod: u32,
        /// Input offset of the choice point.
        pos: u32,
        /// Production-nesting depth.
        depth: u32,
    },
    /// A governed parse aborted.
    GovAbort {
        /// Stable abort name (`ParseAbort::name`).
        reason: &'static str,
    },
    /// End-of-run governor accounting: evaluation steps ticked and
    /// stride-boundary refills (ticks are far too hot to record one by
    /// one, so the run reports its totals as a single event).
    GovTicks {
        /// Evaluation steps ticked.
        ticks: u64,
        /// Stride refills (budget-poll boundaries crossed).
        refills: u64,
    },
    /// An incremental session reused memo columns across an edit.
    SessionReuse {
        /// Columns carried over from the previous parse.
        reused: u64,
        /// Columns discarded because their lookahead overlapped the edit.
        invalidated: u64,
        /// Carried-over entries translated to post-edit coordinates.
        shifted: u64,
    },
}

impl EventKind {
    /// The [`mask`] bit this event kind is collected under.
    pub fn mask_bit(&self) -> u32 {
        match self {
            EventKind::Enter { .. } | EventKind::Exit { .. } => mask::SPANS,
            EventKind::MemoHit { .. } => mask::MEMO_HITS,
            EventKind::MemoProbe { .. }
            | EventKind::MemoStore { .. }
            | EventKind::MemoEvict { .. } => mask::MEMO_TRAFFIC,
            EventKind::Backtrack { .. } => mask::BACKTRACK,
            EventKind::GovAbort { .. } | EventKind::GovTicks { .. } => mask::GOVERNOR,
            EventKind::SessionReuse { .. } => mask::SESSION,
        }
    }
}

/// One collected event with its timestamp (nanoseconds since the
/// collector was created).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Nanoseconds since collection began.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Everything one collection run produced: the event stream plus the
/// context needed to interpret it (production names, input length,
/// sampling rate, and how many events the cap discarded).
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Production names, indexed by the events' `prod` fields.
    pub names: Vec<String>,
    /// Length of the parsed input in bytes.
    pub input_len: u32,
    /// The collected events, chronologically.
    pub events: Vec<TimedEvent>,
    /// Events discarded because the buffer cap was reached.
    pub dropped: u64,
    /// Span sampling rate that was in effect (1 = every span).
    pub sample: u32,
    /// Nanoseconds from collector creation to report extraction.
    pub wall_ns: u64,
}

impl TelemetryReport {
    /// The name of a production index ( `(repetition)` for the anonymous
    /// helper slots, `?` for out-of-range indices).
    pub fn name_of(&self, prod: u32) -> &str {
        if prod == REP_HELPER {
            return "(repetition)";
        }
        self.names
            .get(prod as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }
}

/// The mutable collection state behind an enabled [`Telemetry`] handle.
#[derive(Debug)]
struct Collector {
    epoch: Instant,
    events: Vec<TimedEvent>,
    cap: usize,
    dropped: u64,
    sample: u32,
    spans_seen: u64,
    names: Vec<String>,
    input_len: u32,
}

impl Collector {
    fn new(cap: usize) -> Self {
        Collector {
            epoch: Instant::now(),
            events: Vec::new(),
            cap,
            dropped: 0,
            sample: 1,
            spans_seen: 0,
            names: Vec::new(),
            input_len: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&mut self, kind: EventKind) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(TimedEvent {
            at_ns: self.now_ns(),
            kind,
        });
    }

    fn take_report(&mut self) -> TelemetryReport {
        let report = TelemetryReport {
            names: self.names.clone(),
            input_len: self.input_len,
            events: std::mem::take(&mut self.events),
            dropped: std::mem::take(&mut self.dropped),
            sample: self.sample,
            wall_ns: self.now_ns(),
        };
        self.spans_seen = 0;
        report
    }
}

/// Ticket returned by [`Telemetry::enter`] and consumed by
/// [`Telemetry::exit`], so that span sampling skips both ends of a span
/// as a unit (any subset of properly nested spans where each span keeps
/// or drops *both* ends is itself properly nested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "pass the token to Telemetry::exit so sampling stays paired"]
pub struct SpanToken(u8);

impl SpanToken {
    /// Token for a span that is not being recorded.
    pub const SKIP: SpanToken = SpanToken(0);
    const RECORD: SpanToken = SpanToken(1);
}

/// The engine-facing telemetry handle.
///
/// Cloning shares the underlying collector (it is reference-counted), so
/// the handle an engine keeps and the handle the caller extracts the
/// report from observe the same events. Handles are single-threaded by
/// design — a parse run is; cross-thread aggregation merges `Stats`
/// instead.
///
/// The disabled handle is `const`-constructible and therefore provably
/// allocation-free; every hook on it is a single branch on the cached
/// `enabled` flag.
#[derive(Debug, Clone)]
pub struct Telemetry {
    enabled: bool,
    mask: u32,
    inner: Option<Rc<RefCell<Collector>>>,
}

// Compile-time proof that the disabled fast path performs no allocation:
// a `const` item is evaluated at compile time, where heap allocation is
// impossible — so a disabled handle cannot own heap state.
const _: Telemetry = Telemetry::disabled();

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A handle that records nothing; every hook is a single branch.
    pub const fn disabled() -> Self {
        Telemetry {
            enabled: false,
            mask: 0,
            inner: None,
        }
    }

    /// A handle collecting up to `cap` events (further events are counted
    /// as dropped, never silently lost), all kinds, every span.
    pub fn collector(cap: usize) -> Self {
        Telemetry {
            enabled: true,
            mask: mask::ALL,
            inner: Some(Rc::new(RefCell::new(Collector::new(cap)))),
        }
    }

    /// Restricts collection to the event kinds in `mask` (see [`mask`]).
    pub fn with_mask(mut self, mask: u32) -> Self {
        self.mask = mask;
        self
    }

    /// Records only one in `n` production spans (point events — memo
    /// traffic, aborts, session reuse — are never sampled, so hit-rates
    /// and heatmaps stay exact). `n = 1` or `0` records every span.
    pub fn with_sampling(self, n: u32) -> Self {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().sample = n.max(1);
        }
        self
    }

    /// Whether this handle records events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Installs production names for the report (call once per run, only
    /// does work on an enabled handle).
    pub fn set_names(&self, names: Vec<String>) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().names = names;
        }
    }

    /// Records the input length for the report (heatmap bucketing).
    pub fn set_input_len(&self, len: u32) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().input_len = len;
        }
    }

    /// Extracts everything collected so far, leaving the collector empty
    /// (names and configuration are retained for further collection).
    pub fn take_report(&self) -> TelemetryReport {
        match &self.inner {
            None => TelemetryReport::default(),
            Some(inner) => inner.borrow_mut().take_report(),
        }
    }

    /// A production application began evaluating. Returns the token to
    /// hand back to [`Telemetry::exit`].
    #[inline]
    pub fn enter(&self, prod: u32, pos: u32, depth: u32) -> SpanToken {
        if !self.enabled {
            return SpanToken::SKIP;
        }
        self.enter_slow(prod, pos, depth)
    }

    #[cold]
    fn enter_slow(&self, prod: u32, pos: u32, depth: u32) -> SpanToken {
        if self.mask & mask::SPANS == 0 {
            return SpanToken::SKIP;
        }
        let Some(inner) = &self.inner else {
            return SpanToken::SKIP;
        };
        let mut c = inner.borrow_mut();
        c.spans_seen += 1;
        if c.sample > 1 && c.spans_seen % u64::from(c.sample) != 0 {
            return SpanToken::SKIP;
        }
        c.record(EventKind::Enter { prod, pos, depth });
        SpanToken::RECORD
    }

    /// The end of a production application whose [`Telemetry::enter`]
    /// returned `tok`.
    #[inline]
    pub fn exit(&self, tok: SpanToken, prod: u32, pos: u32, depth: u32, end: u32, matched: bool) {
        if !self.enabled {
            return;
        }
        self.exit_slow(tok, prod, pos, depth, end, matched);
    }

    #[cold]
    fn exit_slow(&self, tok: SpanToken, prod: u32, pos: u32, depth: u32, end: u32, matched: bool) {
        if tok != SpanToken::RECORD {
            return;
        }
        if let Some(inner) = &self.inner {
            inner.borrow_mut().record(EventKind::Exit {
                prod,
                pos,
                depth,
                end,
                matched,
            });
        }
    }

    /// A memo-table lookup was performed.
    #[inline]
    pub fn memo_probe(&self, prod: u32, pos: u32) {
        if !self.enabled {
            return;
        }
        self.point(EventKind::MemoProbe { prod, pos });
    }

    /// A memo-table lookup found a valid stored answer.
    #[inline]
    pub fn memo_hit(&self, prod: u32, pos: u32, depth: u32, matched: bool) {
        if !self.enabled {
            return;
        }
        self.point(EventKind::MemoHit {
            prod,
            pos,
            depth,
            matched,
        });
    }

    /// A memo entry was written.
    #[inline]
    pub fn memo_store(&self, prod: u32, pos: u32, matched: bool) {
        if !self.enabled {
            return;
        }
        self.point(EventKind::MemoStore { prod, pos, matched });
    }

    /// A memo-budget eviction pass freed `columns` columns.
    #[inline]
    pub fn memo_evict(&self, pos: u32, columns: u32) {
        if !self.enabled {
            return;
        }
        self.point(EventKind::MemoEvict { pos, columns });
    }

    /// An ordered-choice alternative failed after consuming input.
    #[inline]
    pub fn backtrack(&self, prod: u32, pos: u32, depth: u32) {
        if !self.enabled {
            return;
        }
        self.point(EventKind::Backtrack { prod, pos, depth });
    }

    /// A governed parse aborted with `reason` (`ParseAbort::name`).
    #[inline]
    pub fn gov_abort(&self, reason: &'static str) {
        if !self.enabled {
            return;
        }
        self.point(EventKind::GovAbort { reason });
    }

    /// End-of-run governor accounting (total ticks and stride refills).
    #[inline]
    pub fn gov_ticks(&self, ticks: u64, refills: u64) {
        if !self.enabled {
            return;
        }
        self.point(EventKind::GovTicks { ticks, refills });
    }

    /// An incremental session reused memo state across an edit.
    #[inline]
    pub fn session_reuse(&self, reused: u64, invalidated: u64, shifted: u64) {
        if !self.enabled {
            return;
        }
        self.point(EventKind::SessionReuse {
            reused,
            invalidated,
            shifted,
        });
    }

    #[cold]
    fn point(&self, kind: EventKind) {
        if self.mask & kind.mask_bit() == 0 {
            return;
        }
        if let Some(inner) = &self.inner {
            inner.borrow_mut().record(kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_const_and_inert() {
        const T: Telemetry = Telemetry::disabled();
        assert!(!T.is_enabled());
        let tok = T.enter(0, 0, 0);
        assert_eq!(tok, SpanToken::SKIP);
        T.exit(tok, 0, 0, 0, 5, true);
        T.memo_probe(0, 0);
        T.memo_hit(0, 0, 0, true);
        T.memo_store(0, 0, true);
        T.memo_evict(0, 3);
        T.backtrack(0, 0, 0);
        T.gov_abort("fuel-exhausted");
        T.gov_ticks(10, 1);
        T.session_reuse(1, 2, 3);
        let report = T.take_report();
        assert!(report.events.is_empty());
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn collector_records_in_order_with_timestamps() {
        let t = Telemetry::collector(16);
        let tok = t.enter(1, 0, 0);
        t.memo_store(1, 0, true);
        t.exit(tok, 1, 0, 0, 4, true);
        let report = t.take_report();
        assert_eq!(report.events.len(), 3);
        assert!(matches!(
            report.events[0].kind,
            EventKind::Enter { prod: 1, .. }
        ));
        assert!(matches!(
            report.events[2].kind,
            EventKind::Exit {
                matched: true,
                end: 4,
                ..
            }
        ));
        // Timestamps are monotonically non-decreasing.
        assert!(report.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn cap_counts_dropped_events() {
        let t = Telemetry::collector(2);
        for i in 0..5 {
            t.memo_probe(0, i);
        }
        let report = t.take_report();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.dropped, 3);
    }

    #[test]
    fn sampling_keeps_span_pairs_together() {
        let t = Telemetry::collector(1024).with_sampling(3);
        for i in 0..9 {
            let tok = t.enter(0, i, 0);
            t.exit(tok, 0, i, 0, i + 1, true);
        }
        let report = t.take_report();
        // One in three spans recorded, both ends each time.
        assert_eq!(report.events.len(), 6);
        let enters = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Enter { .. }))
            .count();
        assert_eq!(enters, 3);
        assert_eq!(report.sample, 3);
    }

    #[test]
    fn sampling_never_drops_point_events() {
        let t = Telemetry::collector(1024).with_sampling(1000);
        for i in 0..10 {
            t.memo_probe(0, i);
            t.memo_hit(0, i, 0, true);
        }
        let report = t.take_report();
        assert_eq!(report.events.len(), 20);
    }

    #[test]
    fn mask_filters_event_kinds() {
        let t = Telemetry::collector(1024).with_mask(mask::TRACE);
        let tok = t.enter(0, 0, 0);
        t.memo_probe(0, 0); // filtered
        t.memo_hit(0, 0, 1, false); // kept
        t.memo_store(0, 0, true); // filtered
        t.backtrack(0, 0, 0); // filtered
        t.exit(tok, 0, 0, 0, 0, false);
        let report = t.take_report();
        assert_eq!(report.events.len(), 3);
        // Filtered events are not "dropped" — they were never requested.
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn clones_share_the_collector() {
        let t = Telemetry::collector(16);
        let t2 = t.clone();
        t2.memo_probe(0, 0);
        assert_eq!(t.take_report().events.len(), 1);
    }

    #[test]
    fn take_report_drains_and_is_reusable() {
        let t = Telemetry::collector(2);
        t.set_names(vec!["A".into()]);
        t.set_input_len(7);
        t.memo_probe(0, 0);
        t.memo_probe(0, 1);
        t.memo_probe(0, 2);
        let first = t.take_report();
        assert_eq!(first.events.len(), 2);
        assert_eq!(first.dropped, 1);
        assert_eq!(first.input_len, 7);
        assert_eq!(first.name_of(0), "A");
        assert_eq!(first.name_of(REP_HELPER), "(repetition)");
        assert_eq!(first.name_of(99), "?");
        let second = t.take_report();
        assert!(second.events.is_empty());
        assert_eq!(second.dropped, 0);
        assert_eq!(second.names, vec!["A".to_string()]);
    }
}
