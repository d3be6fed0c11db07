//! Resource governance for parse runs.
//!
//! A production parsing service cannot let one pathological input pin a
//! worker: packrat parsing is linear in the input, but "linear" with a
//! large constant is still unbounded wall-clock on unbounded inputs, deep
//! nesting can exhaust the thread stack, and the memo table's appetite is
//! the paper's own headline problem. A [`Governor`] bounds all of these
//! *cooperatively*: the engines call [`Governor::tick`] at low-overhead
//! points (production application, repetition back-edges) and unwind with
//! a structured [`ParseAbort`] the moment any budget is exhausted.
//!
//! Five budgets are supported, all optional and all off by default:
//!
//! * **cancellation** — a [`CancelToken`] flipped from another thread;
//! * **deadline** — a wall-clock instant, polled every
//!   [`POLL_STRIDE`] ticks so `Instant::now()` stays off the hot path;
//! * **fuel** — a hard cap on evaluation steps, making abort points
//!   deterministic (the fault-injection harness is built on this);
//! * **depth** — a ceiling on recursion depth, enforced by the engines
//!   through [`Governor::max_depth`];
//! * **memo budget** — a cap on memo-table bytes, enforced by the engines
//!   with a degradation ladder (evict cold columns, then stop memoizing)
//!   before [`ParseAbort::MemoBudget`] is reported.
//!
//! A tripped governor is *sticky*: every subsequent tick fails immediately,
//! so abort unwinds through ordered choice in O(alternatives) without
//! re-exploring the grammar, and the engine's top level can trust
//! [`Governor::tripped`] over whatever partial outcome the unwind produced.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ticks between deadline/cancellation polls (checking a `Cell` countdown
/// is ~1ns; `Instant::now()` is tens of ns, so it runs once per stride).
pub const POLL_STRIDE: u32 = 512;

/// Recursion-depth ceiling applied by governed parses when no explicit
/// [`Governor::max_depth`] limit is set.
///
/// Depth counts *expression frames* held on the engine's call stack
/// (production bodies vary too much in size for production-level counting
/// to track machine-stack use). Measured empirically against a 2 MiB
/// thread stack (the Rust test-thread default): the recursive evaluators
/// overflow at roughly 1900 counted frames in release builds (~1.1 KiB of
/// machine stack per counted frame) and roughly 340 in debug builds
/// (~6 KiB per frame), so the default is profile-aware, keeping ~1.8×
/// headroom in both. The deepest legitimate 128 KiB benchmark workload
/// needs ~255 frames at the least-optimized configuration — pathological
/// nesting, not document size, is what trips this ceiling.
pub const DEFAULT_MAX_DEPTH: u32 = if cfg!(debug_assertions) { 192 } else { 1024 };

/// Why a governed parse stopped before producing a verdict on the input.
///
/// An abort is *not* a syntax error: the input was neither accepted nor
/// rejected, and retrying with a larger budget (or none) may succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParseAbort {
    /// The [`CancelToken`] was flipped.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The evaluation-step fuel ran out.
    FuelExhausted,
    /// The recursion-depth ceiling was hit.
    DepthExceeded,
    /// The memo-memory budget could not be met even after evicting cold
    /// columns and falling back to transient-only parsing.
    MemoBudget,
}

impl ParseAbort {
    /// Stable lower-case name (used by the CLI and the fault harness).
    pub fn name(self) -> &'static str {
        match self {
            ParseAbort::Cancelled => "cancelled",
            ParseAbort::DeadlineExceeded => "deadline-exceeded",
            ParseAbort::FuelExhausted => "fuel-exhausted",
            ParseAbort::DepthExceeded => "depth-exceeded",
            ParseAbort::MemoBudget => "memo-budget",
        }
    }
}

impl fmt::Display for ParseAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ParseAbort::Cancelled => "parse cancelled",
            ParseAbort::DeadlineExceeded => "parse deadline exceeded",
            ParseAbort::FuelExhausted => "parse fuel exhausted",
            ParseAbort::DepthExceeded => "parse recursion depth ceiling exceeded",
            ParseAbort::MemoBudget => "parse memo-memory budget exceeded",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ParseAbort {}

/// Failure of a governed parse: either the input is ill-formed
/// ([`ParseFault::Syntax`]) or a resource budget ran out before a verdict
/// was reached ([`ParseFault::Abort`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFault {
    /// The input does not match the grammar.
    Syntax(crate::ParseError),
    /// A resource budget was exhausted; the input got no verdict.
    Abort(ParseAbort),
}

impl ParseFault {
    /// The abort reason, when this fault is an abort.
    pub fn abort(&self) -> Option<ParseAbort> {
        match self {
            ParseFault::Abort(kind) => Some(*kind),
            ParseFault::Syntax(_) => None,
        }
    }

    /// The syntax error, when this fault is one.
    pub fn syntax(&self) -> Option<&crate::ParseError> {
        match self {
            ParseFault::Syntax(err) => Some(err),
            ParseFault::Abort(_) => None,
        }
    }
}

impl fmt::Display for ParseFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFault::Syntax(err) => err.fmt(f),
            ParseFault::Abort(kind) => kind.fmt(f),
        }
    }
}

impl std::error::Error for ParseFault {}

impl From<crate::ParseError> for ParseFault {
    fn from(err: crate::ParseError) -> Self {
        ParseFault::Syntax(err)
    }
}

impl From<ParseAbort> for ParseFault {
    fn from(kind: ParseAbort) -> Self {
        ParseFault::Abort(kind)
    }
}

/// A shareable cooperative-cancellation flag.
///
/// Clone it, hand a copy to another thread, and [`CancelToken::cancel`]
/// there: any governed parse polling this token aborts with
/// [`ParseAbort::Cancelled`] within [`POLL_STRIDE`] evaluation steps.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Plain-data resource limits, from which per-parse [`Governor`]s are
/// minted. `Default` is fully unlimited.
///
/// This is the form the CLI flags populate; [`GovernorLimits::governor`]
/// mints a fresh governor from it for each parse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GovernorLimits {
    /// Wall-clock budget per parse.
    pub deadline: Option<Duration>,
    /// Evaluation-step budget per parse.
    pub fuel: Option<u64>,
    /// Recursion-depth ceiling (production applications on the stack).
    pub max_depth: Option<u32>,
    /// Memo-table byte budget.
    pub memo_budget: Option<u64>,
}

impl GovernorLimits {
    /// No limits at all.
    pub fn none() -> Self {
        GovernorLimits::default()
    }

    /// Whether every limit is off.
    pub fn is_unlimited(&self) -> bool {
        *self == GovernorLimits::default()
    }

    /// Mints a governor enforcing these limits, with its deadline armed
    /// from now.
    pub fn governor(&self) -> Governor {
        let mut gov = Governor::new();
        if let Some(budget) = self.deadline {
            gov = gov.with_deadline(budget);
        }
        if let Some(fuel) = self.fuel {
            gov = gov.with_fuel(fuel);
        }
        if let Some(depth) = self.max_depth {
            gov = gov.with_max_depth(depth);
        }
        if let Some(bytes) = self.memo_budget {
            gov = gov.with_memo_budget(bytes);
        }
        gov
    }
}

/// Per-parse resource governor: the engines tick it as they evaluate and
/// unwind with a [`ParseAbort`] when a budget runs out.
///
/// A governor is single-threaded (interior counters are `Cell`s); only the
/// [`CancelToken`] crosses threads. Construct one per parse attempt — or
/// call [`Governor::reset`] between attempts to refill fuel while keeping
/// the original wall-clock deadline.
///
/// # Examples
///
/// ```
/// use modpeg_runtime::{Governor, ParseAbort};
///
/// let gov = Governor::new().with_fuel(2);
/// assert!(gov.tick().is_ok());
/// assert!(gov.tick().is_ok());
/// assert_eq!(gov.tick(), Err(ParseAbort::FuelExhausted));
/// // Sticky: once tripped, every tick aborts.
/// assert_eq!(gov.tick(), Err(ParseAbort::FuelExhausted));
/// assert_eq!(gov.tripped(), Some(ParseAbort::FuelExhausted));
/// ```
#[derive(Debug, Default)]
pub struct Governor {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    initial_fuel: Option<u64>,
    max_depth: Option<u32>,
    memo_budget: Option<u64>,
    /// Ticks remaining before the next [`Governor::refill`]. The only
    /// counter the hot path touches.
    countdown: Cell<u64>,
    /// Length of the stride `countdown` is counting down; `stride -
    /// countdown` is the number of steps taken inside the current stride.
    stride: Cell<u64>,
    /// Steps accounted at stride boundaries (excludes the current stride).
    steps_done: Cell<u64>,
    /// Fuel remaining at the start of the current stride.
    fuel_left: Cell<u64>,
    /// Stride-boundary refills performed (each one is a batched budget
    /// poll; surfaced by `parse --stats` as observability into how often
    /// the deadline/cancellation checks actually ran).
    refills: Cell<u64>,
    tripped: Cell<Option<ParseAbort>>,
}

impl Governor {
    /// An unlimited governor (every [`Governor::tick`] succeeds).
    pub fn new() -> Self {
        Governor::default()
    }

    /// Sets a wall-clock budget, armed from now.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the number of evaluation steps.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        // Close out any stride begun before the limit existed: it was
        // sized without fuel in mind and must not be charged against it.
        self.account_current_stride();
        self.initial_fuel = Some(fuel);
        self.fuel_left.set(fuel);
        self
    }

    /// Caps the recursion depth (checked by the engines via
    /// [`Governor::max_depth`], since the stack is theirs).
    pub fn with_max_depth(mut self, depth: u32) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Caps the memo-table bytes (enforced by the engines via
    /// [`Governor::memo_budget`], since the table is theirs).
    pub fn with_memo_budget(mut self, bytes: u64) -> Self {
        self.memo_budget = Some(bytes);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configured recursion-depth ceiling, if any.
    pub fn max_depth(&self) -> Option<u32> {
        self.max_depth
    }

    /// The configured memo-byte budget, if any.
    pub fn memo_budget(&self) -> Option<u64> {
        self.memo_budget
    }

    /// Evaluation steps ticked so far (across resets).
    pub fn steps(&self) -> u64 {
        self.steps_done.get() + (self.stride.get() - self.countdown.get())
    }

    /// Stride refills performed so far — how many times the batched
    /// deadline/cancellation poll actually ran (roughly
    /// [`Governor::steps`] / [`POLL_STRIDE`]).
    pub fn stride_refills(&self) -> u64 {
        self.refills.get()
    }

    /// The abort this governor has already signalled, if any.
    pub fn tripped(&self) -> Option<ParseAbort> {
        self.tripped.get()
    }

    /// Moves the steps consumed inside the current stride into the
    /// accounted totals and forces the next tick through
    /// [`Governor::refill`].
    fn account_current_stride(&self) {
        let consumed = self.stride.get() - self.countdown.get();
        self.steps_done.set(self.steps_done.get() + consumed);
        if self.initial_fuel.is_some() {
            // Strides never exceed the remaining fuel, so this cannot
            // underflow.
            self.fuel_left.set(self.fuel_left.get() - consumed);
        }
        self.stride.set(0);
        self.countdown.set(0);
    }

    /// Records one evaluation step; aborts if any budget is exhausted.
    ///
    /// The hot path is a single countdown decrement; all budget accounting
    /// is batched into the private `Governor::refill`, which runs at most every
    /// [`POLL_STRIDE`] calls (exactly at the configured fuel boundary when
    /// fuel runs lower than a stride).
    ///
    /// # Errors
    ///
    /// The exhausted budget, sticky across calls.
    #[inline]
    pub fn tick(&self) -> Result<(), ParseAbort> {
        let countdown = self.countdown.get();
        if countdown != 0 {
            self.countdown.set(countdown - 1);
            return Ok(());
        }
        self.refill()
    }

    /// Records `n` evaluation steps exactly as `n` consecutive
    /// [`Governor::tick`] calls would — the same stride boundaries, the
    /// same deadline/cancellation polls, and the same abort point — but
    /// in O(`n` / [`POLL_STRIDE`]) time. This is what lets bulk scanning
    /// charge fuel per consumed character without touching a counter per
    /// character.
    ///
    /// # Errors
    ///
    /// On abort: the number of steps that succeeded before the failing
    /// tick, paired with the abort kind. [`Governor::steps`] reflects
    /// exactly those successful steps, so an engine can place its
    /// position at the boundary the scalar loop would have aborted at.
    pub fn tick_many(&self, n: u64) -> Result<(), (u64, ParseAbort)> {
        let mut left = n;
        loop {
            let countdown = self.countdown.get();
            if countdown >= left {
                self.countdown.set(countdown - left);
                return Ok(());
            }
            // Drain the stride, then take the refill path for the step
            // that crosses the boundary — tick-for-tick with the scalar
            // loop.
            self.countdown.set(0);
            left -= countdown;
            match self.refill() {
                Ok(()) => left -= 1,
                Err(kind) => return Err((n - left, kind)),
            }
        }
    }

    /// Stride-boundary bookkeeping: accounts the finished stride, checks
    /// every budget, and (when all hold) starts a new stride with this call
    /// counted as its first step.
    #[cold]
    fn refill(&self) -> Result<(), ParseAbort> {
        if let Some(kind) = self.tripped.get() {
            return Err(kind);
        }
        self.refills.set(self.refills.get() + 1);
        self.account_current_stride();
        if self.initial_fuel.is_some() && self.fuel_left.get() == 0 {
            return Err(self.trip(ParseAbort::FuelExhausted));
        }
        self.poll()?;
        let mut stride = u64::from(POLL_STRIDE);
        if self.initial_fuel.is_some() {
            stride = stride.min(self.fuel_left.get());
        }
        self.stride.set(stride);
        self.countdown.set(stride - 1); // this call consumed one step
        Ok(())
    }

    /// Immediately checks deadline and cancellation (normally done every
    /// [`POLL_STRIDE`] ticks).
    ///
    /// # Errors
    ///
    /// The exhausted budget, sticky across calls.
    #[cold]
    pub fn poll(&self) -> Result<(), ParseAbort> {
        if let Some(kind) = self.tripped.get() {
            return Err(kind);
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(self.trip(ParseAbort::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(ParseAbort::DeadlineExceeded));
            }
        }
        Ok(())
    }

    /// Signals an abort decided by the engine (depth ceiling, memo budget):
    /// marks the governor tripped so every later tick aborts too.
    pub fn trip(&self, kind: ParseAbort) -> ParseAbort {
        if let Some(existing) = self.tripped.get() {
            return existing;
        }
        // Collapse the in-flight stride so the very next tick takes the
        // refill path and observes the trip.
        self.account_current_stride();
        self.tripped.set(Some(kind));
        kind
    }

    /// Clears a trip and refills fuel for a fresh attempt. The wall-clock
    /// deadline (if any) is deliberately kept: retries race the same
    /// deadline the original request did.
    pub fn reset(&self) {
        self.account_current_stride();
        self.tripped.set(None);
        if let Some(fuel) = self.initial_fuel {
            self.fuel_left.set(fuel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips() {
        let gov = Governor::new();
        for _ in 0..10_000 {
            assert_eq!(gov.tick(), Ok(()));
        }
        assert_eq!(gov.tripped(), None);
        assert_eq!(gov.steps(), 10_000);
        // 10_000 ticks cross ceil(10_000 / POLL_STRIDE) stride boundaries.
        assert_eq!(
            gov.stride_refills(),
            10_000_u64.div_ceil(POLL_STRIDE as u64)
        );
    }

    #[test]
    fn fuel_exhausts_exactly_and_sticks() {
        let gov = Governor::new().with_fuel(3);
        assert!(gov.tick().is_ok());
        assert!(gov.tick().is_ok());
        assert!(gov.tick().is_ok());
        assert_eq!(gov.tick(), Err(ParseAbort::FuelExhausted));
        assert_eq!(gov.tick(), Err(ParseAbort::FuelExhausted));
        // The failed ticks do not count as steps.
        assert_eq!(gov.steps(), 3);
    }

    /// `tick_many(n)` must be observationally identical to `n`
    /// sequential `tick`s: same steps, same refill count, same abort
    /// point — across stride boundaries and fuel edges.
    #[test]
    fn tick_many_equals_sequential_ticks() {
        for fuel in [
            None,
            Some(1u64),
            Some(511),
            Some(512),
            Some(513),
            Some(2000),
        ] {
            // Batch sizes chosen to land before, on, and past stride and
            // fuel boundaries, with interleaved single ticks.
            for batch in [1u64, 7, 511, 512, 513, 1024, 3000] {
                let make = || match fuel {
                    Some(f) => Governor::new().with_fuel(f),
                    None => Governor::new(),
                };
                let (a, b) = (make(), make());
                let mut seq_err = None;
                let mut seq_done = 0u64;
                for _ in 0..batch {
                    match a.tick() {
                        Ok(()) => seq_done += 1,
                        Err(kind) => {
                            seq_err = Some(kind);
                            break;
                        }
                    }
                }
                let bulk = b.tick_many(batch);
                match (seq_err, bulk) {
                    (None, Ok(())) => {}
                    (Some(kind), Err((done, bulk_kind))) => {
                        assert_eq!(kind, bulk_kind, "fuel {fuel:?} batch {batch}");
                        assert_eq!(seq_done, done, "fuel {fuel:?} batch {batch}");
                    }
                    other => panic!("fuel {fuel:?} batch {batch}: diverged: {other:?}"),
                }
                assert_eq!(a.steps(), b.steps(), "fuel {fuel:?} batch {batch}");
                assert_eq!(
                    a.stride_refills(),
                    b.stride_refills(),
                    "fuel {fuel:?} batch {batch}"
                );
                // And both governors keep agreeing on subsequent ticks.
                for _ in 0..600 {
                    assert_eq!(a.tick(), b.tick());
                }
                assert_eq!(a.steps(), b.steps());
            }
        }
    }

    #[test]
    fn tick_many_zero_is_free() {
        let gov = Governor::new().with_fuel(1);
        assert_eq!(gov.tick_many(0), Ok(()));
        assert_eq!(gov.steps(), 0);
        assert_eq!(gov.tick_many(1), Ok(()));
        assert_eq!(gov.tick_many(1), Err((0, ParseAbort::FuelExhausted)));
        assert_eq!(gov.steps(), 1);
    }

    #[test]
    fn tick_many_mixed_with_single_ticks() {
        let a = Governor::new().with_fuel(1000);
        let b = Governor::new().with_fuel(1000);
        let mut done_a = 0u64;
        for _ in 0..1000 {
            if a.tick().is_err() {
                break;
            }
            done_a += 1;
        }
        for chunk in [100u64, 300, 1, 299, 500] {
            match b.tick_many(chunk) {
                Ok(()) => {}
                Err((_, kind)) => {
                    assert_eq!(kind, ParseAbort::FuelExhausted);
                    break;
                }
            }
        }
        assert_eq!(done_a, 1000);
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn deadline_in_the_past_trips_within_a_stride() {
        let gov = Governor::new().with_deadline(Duration::from_secs(0));
        let mut outcome = Ok(());
        for _ in 0..=POLL_STRIDE as u64 + 1 {
            outcome = gov.tick();
            if outcome.is_err() {
                break;
            }
        }
        assert_eq!(outcome, Err(ParseAbort::DeadlineExceeded));
    }

    #[test]
    fn cancel_token_observed_across_clones() {
        let token = CancelToken::new();
        let gov = Governor::new().with_cancel(token.clone());
        assert!(gov.tick().is_ok());
        let remote = token.clone();
        std::thread::spawn(move || remote.cancel()).join().unwrap();
        assert!(token.is_cancelled());
        let mut outcome = Ok(());
        for _ in 0..=POLL_STRIDE as u64 + 1 {
            outcome = gov.tick();
            if outcome.is_err() {
                break;
            }
        }
        assert_eq!(outcome, Err(ParseAbort::Cancelled));
    }

    #[test]
    fn poll_checks_immediately() {
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::new().with_cancel(token);
        assert_eq!(gov.poll(), Err(ParseAbort::Cancelled));
    }

    #[test]
    fn trip_is_first_wins() {
        let gov = Governor::new();
        assert_eq!(
            gov.trip(ParseAbort::DepthExceeded),
            ParseAbort::DepthExceeded
        );
        assert_eq!(gov.trip(ParseAbort::MemoBudget), ParseAbort::DepthExceeded);
        assert_eq!(gov.tick(), Err(ParseAbort::DepthExceeded));
    }

    #[test]
    fn reset_refills_fuel_and_clears_trip() {
        let gov = Governor::new().with_fuel(2);
        let _ = gov.tick();
        let _ = gov.tick();
        assert!(gov.tick().is_err());
        gov.reset();
        assert!(gov.tick().is_ok());
        assert!(gov.tick().is_ok());
        assert_eq!(gov.tick(), Err(ParseAbort::FuelExhausted));
    }

    #[test]
    fn limits_roundtrip_into_governor() {
        let limits = GovernorLimits {
            deadline: None,
            fuel: Some(5),
            max_depth: Some(7),
            memo_budget: Some(1024),
        };
        assert!(!limits.is_unlimited());
        assert!(GovernorLimits::none().is_unlimited());
        let gov = limits.governor();
        assert_eq!(gov.max_depth(), Some(7));
        assert_eq!(gov.memo_budget(), Some(1024));
        for _ in 0..5 {
            assert!(gov.tick().is_ok());
        }
        assert_eq!(gov.tick(), Err(ParseAbort::FuelExhausted));
    }

    #[test]
    fn abort_names_and_displays_are_stable() {
        for (kind, name) in [
            (ParseAbort::Cancelled, "cancelled"),
            (ParseAbort::DeadlineExceeded, "deadline-exceeded"),
            (ParseAbort::FuelExhausted, "fuel-exhausted"),
            (ParseAbort::DepthExceeded, "depth-exceeded"),
            (ParseAbort::MemoBudget, "memo-budget"),
        ] {
            assert_eq!(kind.name(), name);
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn fault_conversions() {
        let fault: ParseFault = ParseAbort::Cancelled.into();
        assert_eq!(fault.abort(), Some(ParseAbort::Cancelled));
        assert!(fault.syntax().is_none());
        let input = crate::Input::new("x");
        let mut failures = crate::Failures::new();
        failures.note(1, "';'");
        let fault: ParseFault = failures.to_error(&input).into();
        assert!(fault.abort().is_none());
        assert!(fault.syntax().is_some());
        assert!(fault.to_string().contains("expected"));
    }
}
