//! One parse run's context: the run protocol every engine shares.
//!
//! The interpreter, the bytecode machine and each generated parser walk a
//! grammar in their own way, but what happens around that walk is one
//! contract, kept here once: the run's input, memo table, parser state,
//! farthest-failure record and statistics; the governor guard, the run's
//! first abort and the depth ceiling; the memo protocol (a probe with its
//! epoch check, a store under the memo-budget degradation ladder); the
//! terminals and the guarded class-run tail; the value builders; and the
//! hooks [`engine::drive`](crate::engine::drive) shapes an outcome from.
//!
//! [`RunCtx`] is generic over the [`MemoTable`], so the engines that only
//! ever use [`ChunkMemo`](crate::ChunkMemo) (the VM, generated parsers) compile it for that
//! table alone, while the interpreter also instantiates it over
//! [`HashMemo`](crate::HashMemo), the unoptimized reference the
//! `chunks` ablation measures.

use std::rc::Rc;

use modpeg_telemetry::{SpanToken, Telemetry};

use crate::scan::{self, ClassTable};
use crate::{
    EventSink, Fail, Failures, Governor, Input, MemoAnswer, MemoTable, Node, NodeKind, Out,
    PResult, ParseAbort, ParseError, ScopedState, Span, Stats, Value, DEFAULT_MAX_DEPTH,
};

/// The state of one parse run and the protocol every engine runs it by.
///
/// The engine-facing fields are public; the governor, the first abort,
/// the depth ceiling and the memo budget are private, so only the methods
/// here can decide when a run unwinds or stops memoizing.
///
/// # Examples
///
/// ```
/// use modpeg_runtime::{ChunkMemo, Failures, Governor, ParseAbort, RunCtx};
///
/// let gov = Governor::new().with_fuel(1);
/// let mut cx = RunCtx::open("ab", ChunkMemo::new(1, 2), Failures::new(), Some(&gov), None, Vec::new);
/// assert_eq!(cx.lit(0, "a", "\"a\""), Ok(1));
/// assert!(cx.guard().is_ok());
/// assert!(cx.guard().is_err());
/// assert_eq!(cx.aborted(), Some(ParseAbort::FuelExhausted));
/// ```
pub struct RunCtx<'a, M> {
    /// The text being parsed.
    pub input: Input<'a>,
    /// The packrat memo table (for [`ChunkMemo`](crate::ChunkMemo), also the region values
    /// are built in).
    pub memo: M,
    /// Transactional parser state (C `typedef` names and the like).
    pub state: ScopedState,
    /// The farthest-failure record, borrowing the run's descriptions.
    pub failures: Failures<'a>,
    /// The run's counters.
    pub stats: Stats,
    /// Predicate nesting: failures inside a predicate are not noted.
    pub suppress: u32,
    /// Telemetry hooks: disabled unless the run was opened with an enabled
    /// handle, and every hook is then a single branch on the handle's
    /// cached flag (the E11 bench holds that under 1% of parse time).
    pub telem: Telemetry,
    /// Production nesting depth, reported with telemetry spans.
    pub prod_depth: u32,
    gov: Option<&'a Governor>,
    /// The first abort. Once set, every guard fails and every memo store
    /// is suppressed, so the run unwinds without corrupting the table; the
    /// driver trusts this over the unwind's nominal outcome (a `!p`
    /// predicate can invert an abort-induced failure).
    aborted: Option<ParseAbort>,
    /// Frame ceiling ([`u32::MAX`] for ungoverned runs).
    max_depth: u32,
    /// Memo-byte budget ([`u64::MAX`] for ungoverned runs).
    memo_budget: u64,
    /// Set when the budget ladder fell back to transient-only parsing:
    /// stored answers are still served, but nothing new is stored.
    memo_frozen: bool,
}

impl<'a, M: MemoTable> RunCtx<'a, M> {
    /// Opens a run over `text` on `memo`, noting failures into `failures`.
    ///
    /// Under `gov`, an unset depth limit falls back to
    /// [`DEFAULT_MAX_DEPTH`] (stack safety is non-negotiable once a run is
    /// governed) and an unset memo budget is unlimited. An enabled `telem`
    /// is handed the production `names` and the input length, so its
    /// reports are self-describing; a disabled one is never touched.
    pub fn open(
        text: &'a str,
        memo: M,
        failures: Failures<'a>,
        gov: Option<&'a Governor>,
        telem: Option<&Telemetry>,
        names: impl FnOnce() -> Vec<String>,
    ) -> Self {
        let input = Input::new(text);
        let telem = match telem {
            Some(t) if t.is_enabled() => {
                t.set_names(names());
                t.set_input_len(input.len());
                t.clone()
            }
            _ => Telemetry::disabled(),
        };
        RunCtx {
            input,
            memo,
            state: ScopedState::new(),
            failures,
            stats: Stats::default(),
            suppress: 0,
            telem,
            prod_depth: 0,
            gov,
            aborted: None,
            max_depth: gov.map_or(u32::MAX, |g| g.max_depth().unwrap_or(DEFAULT_MAX_DEPTH)),
            memo_budget: gov.and_then(Governor::memo_budget).unwrap_or(u64::MAX),
            memo_frozen: false,
        }
    }

    // ----- governance -----

    /// The run's first abort, if any.
    #[inline]
    pub fn aborted(&self) -> Option<ParseAbort> {
        self.aborted
    }

    /// The frame ceiling [`RunCtx::check_depth`] enforces.
    #[inline]
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// One evaluation step: fails when the run has already aborted or the
    /// governor's fuel, deadline or cancellation trips. An ungoverned run
    /// pays one branch on the abort and one on the governor.
    #[inline]
    pub fn guard(&mut self) -> Result<(), Fail> {
        if self.aborted.is_some() {
            return Err(Fail);
        }
        if let Some(gov) = self.gov {
            if let Err(kind) = gov.tick() {
                self.aborted = Some(kind);
                return Err(Fail);
            }
        }
        Ok(())
    }

    /// Records `kind` as the run's abort unless one came first, and trips
    /// the governor so concurrent observers see it; returns the `Fail` to
    /// unwind with.
    #[cold]
    pub fn abort(&mut self, kind: ParseAbort) -> Fail {
        if let Some(gov) = self.gov {
            gov.trip(kind);
        }
        if self.aborted.is_none() {
            self.aborted = Some(kind);
            self.telem.gov_abort(kind.name());
        }
        Fail
    }

    /// Admits a frame on top of `depth` held ones, or aborts with
    /// [`ParseAbort::DepthExceeded`] at the ceiling.
    #[inline]
    pub fn check_depth(&mut self, depth: u32) -> Result<(), Fail> {
        if depth >= self.max_depth {
            return Err(self.abort(ParseAbort::DepthExceeded));
        }
        Ok(())
    }

    /// Notes that `desc` was expected at `pos`, unless inside a predicate.
    #[inline]
    pub fn note(&mut self, pos: u32, desc: &'a str) {
        if self.suppress == 0 {
            self.failures.note(pos, desc);
        }
    }

    // ----- the memo protocol -----

    /// Probes `slot` at `pos` for production `prod` (its telemetry id).
    /// A stored answer is a hit unless `epoch_check` finds it stale —
    /// recorded under another parser-state epoch — which counts
    /// `memo_stale` and misses. Callers guard before probing, so hits and
    /// misses cost the same fuel and fuel-based fault injection stays
    /// deterministic.
    #[inline(always)]
    pub fn lookup(&mut self, prod: u32, slot: u32, pos: u32, epoch_check: bool) -> Option<PResult> {
        self.stats.memo_probes += 1;
        self.telem.memo_probe(prod, pos);
        let ans = self.memo.lookup(slot, pos)?;
        if epoch_check && ans.epoch != self.state.epoch() {
            self.stats.memo_stale += 1;
            return None;
        }
        self.stats.memo_hits += 1;
        let hit = match &ans.outcome {
            None => Err(Fail),
            Some((end, value)) => Ok((*end, value.clone())),
        };
        self.telem.memo_hit(prod, pos, self.prod_depth, hit.is_ok());
        Some(hit)
    }

    /// Memoizes `result` for `prod` in `slot` at `pos` (stamped with the
    /// state epoch when `epoch_check`), unless the run has aborted — its
    /// in-flight results may be tainted — or fell back to transient-only
    /// parsing. Then enforces the memo budget: `retained_bytes` is O(1)
    /// for both tables, so budgeted runs afford the check on every store.
    #[inline(always)]
    pub fn store_answer(
        &mut self,
        prod: u32,
        slot: u32,
        pos: u32,
        epoch_check: bool,
        result: PResult,
    ) {
        if self.aborted.is_some() || self.memo_frozen {
            return;
        }
        let epoch = if epoch_check { self.state.epoch() } else { 0 };
        self.telem.memo_store(prod, pos, result.is_ok());
        let answer = match result {
            Ok((end, value)) => MemoAnswer::success(epoch, end, value),
            Err(Fail) => MemoAnswer::fail(epoch),
        };
        self.memo.store(slot, pos, answer);
        self.stats.memo_stores += 1;
        if self.memo_budget != u64::MAX && self.memo.retained_bytes() > self.memo_budget {
            self.enforce_memo_budget(pos);
        }
    }

    /// The memo-budget degradation ladder, for a run over budget at
    /// `hot_from`: evict the cold entries, then fall back to
    /// transient-only parsing, and abort only when even the empty table
    /// exceeds the budget.
    #[cold]
    fn enforce_memo_budget(&mut self, hot_from: u32) {
        // Rung 1: entries left of the current position can only be
        // re-probed by a far-left backtrack.
        self.stats.gov_evictions += 1;
        let freed = self.memo.evict_cold(hot_from).columns_freed;
        self.stats.gov_columns_evicted += freed;
        self.telem
            .memo_evict(hot_from, freed.min(u64::from(u32::MAX)) as u32);
        if self.memo.retained_bytes() <= self.memo_budget {
            return;
        }
        // Rung 2: stop memoizing and release everything; memoization is
        // transparent, so parsing continues correctly, just slower.
        self.memo_frozen = true;
        self.stats.gov_transient_fallbacks += 1;
        self.memo.evict_all();
        if self.memo.retained_bytes() <= self.memo_budget {
            return;
        }
        // Rung 3: the table's floor (the chunk table's column pointer
        // array) is itself over budget.
        self.abort(ParseAbort::MemoBudget);
    }

    // ----- production spans -----

    /// Opens production `prod`'s evaluation at `pos`: counts it and opens
    /// its telemetry span one level deeper.
    #[inline]
    pub fn enter(&mut self, prod: u32, pos: u32) -> SpanToken {
        self.stats.productions_evaluated += 1;
        let span = self.telem.enter(prod, pos, self.prod_depth);
        self.prod_depth += 1;
        span
    }

    /// Closes the span [`RunCtx::enter`] opened: matched up to `end`, or
    /// failed when `end` is `None`.
    #[inline]
    pub fn exit(&mut self, span: SpanToken, prod: u32, pos: u32, end: Option<u32>) {
        self.prod_depth -= 1;
        self.telem.exit(
            span,
            prod,
            pos,
            self.prod_depth,
            end.unwrap_or(pos),
            end.is_some(),
        );
    }

    /// Counts a failed alternative of production `prod` at `pos`.
    #[inline]
    pub fn backtrack(&mut self, prod: u32, pos: u32) {
        self.stats.backtracks += 1;
        self.telem.backtrack(prod, pos, self.prod_depth);
    }

    // ----- terminals -----

    /// Any one character at `pos`.
    #[inline]
    pub fn any(&mut self, pos: u32) -> Result<u32, Fail> {
        match self.input.char_at(pos) {
            Some((_, len)) => Ok(pos + len),
            None => {
                self.note(pos, "any character");
                Err(Fail)
            }
        }
    }

    /// The literal `text` at `pos`, compared as one string.
    #[inline]
    pub fn lit(&mut self, pos: u32, text: &str, desc: &'a str) -> Result<u32, Fail> {
        self.stats.terminal_comparisons += text.len() as u64;
        if self.input.starts_with(pos, text) {
            Ok(pos + text.len() as u32)
        } else {
            self.note(pos, desc);
            Err(Fail)
        }
    }

    /// The literal `text` at `pos`, compared byte by byte up to the first
    /// mismatch: the naive strategy the `string_match` ablation measures.
    pub fn lit_bytes(&mut self, pos: u32, text: &str, desc: &'a str) -> Result<u32, Fail> {
        let mut p = pos;
        for &b in text.as_bytes() {
            self.stats.terminal_comparisons += 1;
            if self.input.byte_at(p) != Some(b) {
                self.note(pos, desc);
                return Err(Fail);
            }
            p += 1;
        }
        Ok(p)
    }

    /// One character of `table`'s class at `pos`.
    #[inline(always)]
    pub fn cls(&mut self, pos: u32, table: &ClassTable, desc: &'a str) -> Result<u32, Fail> {
        self.stats.terminal_comparisons += 1;
        match self.input.char_at(pos) {
            Some((c, len)) if table.matches_char(c) => Ok(pos + len),
            _ => {
                self.note(pos, desc);
                Err(Fail)
            }
        }
    }

    /// The guarded tail of a class repetition from `pos` (`class*`, or
    /// `class+` after its mandatory first match), returning the run's end.
    ///
    /// One bulk [`scan::scan_class_run`] finds the whole run, then the
    /// governor is charged one tick per consumed character plus one for
    /// the final failing probe in a single [`Governor::tick_many`]. The
    /// observables are tick for tick those of the scalar loop that
    /// [`scan::force_scalar`] selects instead: the same guard ticks and
    /// `terminal_comparisons`, the same farthest-failure note at the
    /// run's end, and on an abort `Err` carrying the character boundary
    /// the scalar loop stopped at, with no note recorded.
    pub fn class_run(&mut self, pos: u32, table: &ClassTable, desc: &'a str) -> Result<u32, u32> {
        if scan::scalar_forced() {
            return self.class_run_scalar(pos, table, desc);
        }
        if self.aborted.is_some() {
            return Err(pos);
        }
        let text = self.input.text();
        let run = scan::scan_class_run(text, pos, table);
        let need = u64::from(run.chars) + 1;
        if let Some(gov) = self.gov {
            if let Err((done, kind)) = gov.tick_many(need) {
                self.stats.terminal_comparisons += done;
                self.aborted = Some(kind);
                return Err(scan::advance_chars(text, pos, done as u32));
            }
        }
        self.stats.terminal_comparisons += need;
        self.note(run.end, desc);
        Ok(run.end)
    }

    /// [`RunCtx::class_run`]'s per-character reference loop: one guard
    /// tick and one comparison per probe, the failing probe included.
    /// Kept out of line so the bulk path's callers stay small.
    #[inline(never)]
    fn class_run_scalar(
        &mut self,
        mut pos: u32,
        table: &ClassTable,
        desc: &'a str,
    ) -> Result<u32, u32> {
        loop {
            if self.guard().is_err() {
                return Err(pos);
            }
            match self.cls(pos, table, desc) {
                Ok(next) => pos = next,
                Err(Fail) => return Ok(pos),
            }
        }
    }

    // ----- values -----
    //
    // A chunked table builds in its region through the runtime's one
    // arena builder. A table without a region (`HashMemo`) gets
    // individually heap-allocated `Rc` values: the reference every other
    // engine is checked against (`OptConfig::cumulative(0)`) and the naive
    // value path the E2/E3 ablation measures below `chunks`.

    /// The text value of `lo..hi`: a span, or an owned copy when the
    /// `text_only` optimization is off.
    pub fn make_text(&mut self, lo: u32, hi: u32, text_only: bool) -> Value {
        let span = Span::new(lo, hi);
        if text_only {
            return Value::Text(span);
        }
        self.stats.strings_built += 1;
        self.stats.value_bytes += u64::from(hi - lo) + 16;
        Value::OwnedText(Rc::from(self.input.slice(span)))
    }

    /// A node of `kind` over `children`.
    pub fn make_node(
        &mut self,
        kind: &NodeKind,
        children: Vec<Value>,
        span: Option<Span>,
    ) -> Value {
        if let Some(m) = self.memo.chunks_mut() {
            return m
                .arena_mut()
                .make_node(&mut self.stats, kind.clone(), children, span);
        }
        self.stats.nodes_built += 1;
        self.stats.value_bytes += (std::mem::size_of::<Node>()
            + children.capacity() * std::mem::size_of::<Value>())
            as u64;
        let node = match span {
            Some(s) => Node::with_span(kind.clone(), children, s),
            None => Node::new(kind.clone(), children),
        };
        Value::Node(Rc::new(node))
    }

    /// A pass-through alternative's value: its single value as it is, or a
    /// node of `kind` over its values when it contributed none or several.
    #[inline]
    pub fn pass_through(&mut self, kind: &NodeKind, out: Out, span: Option<Span>) -> Value {
        match out {
            Out::One(v) => v,
            Out::Many(mut vs) if vs.len() == 1 => vs.pop().expect("len checked"),
            out => self.make_node(kind, out.into_values(), span),
        }
    }

    /// A text production's value when it takes its inner text: the
    /// alternative's first value if that is textual, otherwise the text
    /// of `lo..hi` (see [`RunCtx::make_text`]).
    #[inline]
    pub fn inner_text(&mut self, out: Out, lo: u32, hi: u32, text_only: bool) -> Value {
        let first = match out {
            Out::One(v) => Some(v),
            Out::Many(vs) => vs.into_iter().next(),
            Out::None => None,
        };
        match first {
            Some(v @ (Value::Text(_) | Value::OwnedText(_))) => v,
            _ => self.make_text(lo, hi, text_only),
        }
    }

    /// A list of `items`, splicing list-valued items in one level (see
    /// [`Arena::make_list`](crate::Arena::make_list)).
    pub fn make_list(&mut self, items: Vec<Value>) -> Value {
        if let Some(m) = self.memo.chunks_mut() {
            return m.arena_mut().make_list(&mut self.stats, items);
        }
        let items = if items.iter().any(|v| matches!(v, Value::List(_))) {
            let mut flat = Vec::with_capacity(items.len());
            for v in items {
                self.push_spliced(&mut flat, v);
            }
            flat
        } else {
            items
        };
        self.stats.lists_built += 1;
        self.stats.value_bytes += (std::mem::size_of::<Vec<Value>>()
            + items.capacity() * std::mem::size_of::<Value>())
            as u64;
        Value::list(items)
    }

    /// Appends `v` to `items`, splicing a list in as its items.
    pub fn push_spliced(&self, items: &mut Vec<Value>, v: Value) {
        match (self.memo.chunks(), v) {
            (Some(m), v) => m.arena().push_spliced(items, v),
            (None, Value::List(l)) => items.extend(l.iter().cloned()),
            (None, other) => items.push(other),
        }
    }

    /// A matched optional's contribution: passed through, except that
    /// several values collapse into one list (so it stays memoizable).
    pub fn normalize_opt(&mut self, out: Out) -> Out {
        match out {
            Out::Many(vs) => Out::One(self.make_list(vs)),
            other => other,
        }
    }

    /// The name a state operation over `pos..end` works with: the
    /// operand's `first` value when it is textual (an `Identifier`
    /// reference or a `$` capture, without its trailing spacing),
    /// otherwise the whole matched span.
    pub fn state_name<'s>(&'s self, first: Option<&'s Value>, pos: u32, end: u32) -> &'s str {
        let text = self.input.text();
        first
            .and_then(|v| v.as_text(text))
            .unwrap_or(&text[pos as usize..end as usize])
    }

    // ----- driver hooks -----

    /// The accumulated failures as an error against the run's input.
    pub fn error(&self) -> ParseError {
        self.failures.to_error(&self.input)
    }

    /// Detaches `value` from the run's region so it can outlive the run.
    /// `Rc` values are already detached and pass through.
    pub fn materialize(&self, value: Value) -> Value {
        // No whole-region invariant check here: an incremental run's
        // region carries orphaned nodes of earlier parses of a *different*
        // document. `copy_out` asserts the generation of every handle it
        // follows; whole-region checks live in the invariant suites.
        match self.memo.chunks() {
            Some(m) => m.arena().copy_out(&value),
            None => value,
        }
    }

    /// Streams `value` to `sink` as events straight from the run's region
    /// (or by walking an `Rc` tree), materializing nothing.
    pub fn emit(&self, value: &Value, sink: &mut dyn EventSink) {
        match self.memo.chunks() {
            Some(m) => m.arena().emit_events(value, sink),
            None => crate::arena::emit_detached(value, sink),
        }
    }

    /// Completes the memo, failure and governor accounting and hands over
    /// the run's statistics.
    pub fn finish_stats(&mut self) -> Stats {
        self.stats.memo_bytes = self.memo.retained_bytes();
        self.stats.failure_records = self.failures.recorded_len() as u64;
        self.stats.failure_bytes = self.failures.retained_bytes() as u64;
        if let Some(m) = self.memo.chunks_mut() {
            self.stats.memo_entries_shifted += m.take_entries_shifted();
        }
        if let Some(gov) = self.gov {
            self.stats.gov_ticks = gov.steps();
            self.stats.gov_stride_refills = gov.stride_refills();
            self.telem.gov_ticks(gov.steps(), gov.stride_refills());
        }
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChunkMemo, HashMemo};

    fn open<'a>(
        text: &'a str,
        memo: ChunkMemo,
        gov: Option<&'a Governor>,
    ) -> RunCtx<'a, ChunkMemo> {
        RunCtx::open(text, memo, Failures::new(), gov, None, Vec::new)
    }

    /// Bytes of an empty table over 100 positions, and of one column.
    fn floor_and_column() -> (u64, u64) {
        let mut m = ChunkMemo::new(1, 100);
        let floor = m.retained_bytes();
        m.store(0, 0, MemoAnswer::fail(0));
        (floor, m.retained_bytes() - floor)
    }

    #[test]
    fn ladder_rung_one_evicts_cold_columns_and_keeps_memoizing() {
        let (floor, col) = floor_and_column();
        let gov = Governor::new().with_memo_budget(floor + col + col / 2);
        let mut cx = open("", ChunkMemo::new(1, 100), Some(&gov));
        cx.store_answer(0, 0, 0, false, Err(Fail));
        assert_eq!(cx.stats.gov_evictions, 0);
        cx.store_answer(0, 0, 1, false, Err(Fail));
        assert_eq!(cx.stats.gov_evictions, 1);
        assert_eq!(cx.stats.gov_columns_evicted, 1);
        assert_eq!(cx.stats.gov_transient_fallbacks, 0);
        assert_eq!(cx.memo.probe(0, 0), None, "the cold column went");
        assert!(cx.memo.probe(0, 1).is_some(), "the hot one stayed");
        cx.store_answer(0, 0, 2, false, Ok((2, Value::Unit)));
        assert_eq!(cx.stats.memo_stores, 3);
        assert!(cx.memo.probe(0, 2).is_some());
        assert_eq!(cx.aborted(), None);
    }

    #[test]
    fn ladder_rung_two_freezes_the_table() {
        let (floor, col) = floor_and_column();
        let gov = Governor::new().with_memo_budget(floor + col - 1);
        let mut cx = open("", ChunkMemo::new(1, 100), Some(&gov));
        cx.store_answer(0, 0, 0, false, Err(Fail));
        assert_eq!(cx.stats.gov_evictions, 1);
        assert_eq!(cx.stats.gov_columns_evicted, 0, "nothing is left of 0");
        assert_eq!(cx.stats.gov_transient_fallbacks, 1);
        assert_eq!(cx.memo.entries(), 0);
        // Frozen: no more stores, no more ladder, no abort.
        cx.store_answer(0, 0, 5, false, Err(Fail));
        assert_eq!(cx.stats.memo_stores, 1);
        assert_eq!(cx.memo.entries(), 0);
        assert_eq!(cx.stats.gov_evictions, 1);
        assert_eq!(cx.aborted(), None);
        assert!(cx.guard().is_ok());
    }

    #[test]
    fn ladder_rung_three_aborts_on_the_floor() {
        let (floor, _) = floor_and_column();
        let gov = Governor::new().with_memo_budget(floor - 1);
        let mut cx = open("", ChunkMemo::new(1, 100), Some(&gov));
        cx.store_answer(0, 0, 0, false, Err(Fail));
        assert_eq!(cx.stats.gov_transient_fallbacks, 1);
        assert_eq!(cx.aborted(), Some(ParseAbort::MemoBudget));
        assert_eq!(gov.tripped(), Some(ParseAbort::MemoBudget));
        assert!(cx.guard().is_err());
    }

    #[test]
    fn hash_tables_walk_the_same_ladder() {
        let gov = Governor::new().with_memo_budget(1);
        let mut cx = RunCtx::open(
            "",
            HashMemo::new(),
            Failures::new(),
            Some(&gov),
            None,
            Vec::new,
        );
        cx.store_answer(0, 0, 0, false, Err(Fail));
        // Purging the map releases its capacity, so rung one suffices.
        assert_eq!(cx.stats.gov_evictions, 1);
        assert_eq!(cx.stats.gov_columns_evicted, 1);
        assert_eq!(cx.stats.gov_transient_fallbacks, 0);
        assert_eq!(cx.memo.entries(), 0);
        assert_eq!(cx.aborted(), None);
    }

    #[test]
    fn the_first_abort_wins_trips_the_governor_and_sticks() {
        let gov = Governor::new();
        let mut cx = open("x", ChunkMemo::new(1, 1), Some(&gov));
        assert!(cx.guard().is_ok());
        assert!(cx.check_depth(0).is_ok());
        assert_eq!(cx.abort(ParseAbort::Cancelled), Fail);
        assert_eq!(gov.tripped(), Some(ParseAbort::Cancelled));
        cx.abort(ParseAbort::DepthExceeded);
        assert_eq!(cx.aborted(), Some(ParseAbort::Cancelled));
        assert_eq!(gov.tripped(), Some(ParseAbort::Cancelled));
        assert!(cx.guard().is_err());
        assert!(cx.guard().is_err(), "sticky");
        assert_eq!(
            cx.class_run(0, &ClassTable::from_ranges(&[('x', 'x')], false), "x"),
            Err(0)
        );

        let fuel = Governor::new().with_fuel(1);
        let mut cx = open("x", ChunkMemo::new(1, 1), Some(&fuel));
        assert!(cx.guard().is_ok());
        assert!(cx.guard().is_err());
        assert_eq!(cx.aborted(), Some(ParseAbort::FuelExhausted));
        cx.abort(ParseAbort::MemoBudget);
        assert_eq!(cx.aborted(), Some(ParseAbort::FuelExhausted));
    }

    #[test]
    fn the_depth_ceiling_aborts_governed_runs_only() {
        let gov = Governor::new().with_max_depth(2);
        let mut cx = open("", ChunkMemo::new(1, 0), Some(&gov));
        assert_eq!(cx.max_depth(), 2);
        assert!(cx.check_depth(1).is_ok());
        assert_eq!(cx.check_depth(2), Err(Fail));
        assert_eq!(cx.aborted(), Some(ParseAbort::DepthExceeded));

        let unlimited = Governor::new();
        assert_eq!(
            open("", ChunkMemo::new(1, 0), Some(&unlimited)).max_depth(),
            DEFAULT_MAX_DEPTH
        );
        assert_eq!(open("", ChunkMemo::new(1, 0), None).max_depth(), u32::MAX);
    }

    #[test]
    fn no_store_after_an_abort() {
        let gov = Governor::new();
        let mut cx = open("", ChunkMemo::new(1, 4), Some(&gov));
        cx.store_answer(0, 0, 0, false, Ok((0, Value::Unit)));
        cx.abort(ParseAbort::Cancelled);
        cx.store_answer(0, 0, 1, false, Ok((1, Value::Unit)));
        assert_eq!(cx.stats.memo_stores, 1);
        assert_eq!(cx.memo.entries(), 1);
        assert!(cx.memo.probe(0, 1).is_none());
    }

    #[test]
    fn a_stale_epoch_probe_counts_and_misses() {
        let mut cx = open("ab", ChunkMemo::new(1, 2), None);
        cx.store_answer(0, 0, 0, true, Ok((1, Value::Unit)));
        assert_eq!(cx.lookup(0, 0, 0, true), Some(Ok((1, Value::Unit))));
        cx.state.define("T");
        assert_eq!(cx.lookup(0, 0, 0, true), None);
        assert_eq!(cx.stats.memo_stale, 1);
        // A production that ignores state still hits.
        assert_eq!(cx.lookup(0, 0, 0, false), Some(Ok((1, Value::Unit))));
        assert_eq!(
            (
                cx.stats.memo_probes,
                cx.stats.memo_hits,
                cx.stats.memo_stale
            ),
            (3, 2, 1)
        );
        // A stored failure is a hit too.
        cx.store_answer(0, 0, 1, false, Err(Fail));
        assert_eq!(cx.lookup(0, 0, 1, false), Some(Err(Fail)));
        assert_eq!(cx.lookup(0, 0, 2, false), None);
    }

    /// Runs `[a-zé]*` from 0 over `text` with `fuel`, on the bulk or the
    /// scalar path.
    fn class_run_with_fuel(text: &str, fuel: u64, scalar: bool) -> (Result<u32, u32>, Stats, u32) {
        let table = ClassTable::from_ranges(&[('a', 'z'), ('é', 'é')], false);
        let gov = Governor::new().with_fuel(fuel);
        let mut cx = open(text, ChunkMemo::new(1, text.len() as u32), Some(&gov));
        scan::force_scalar(scalar);
        let end = cx.class_run(0, &table, "letter");
        scan::force_scalar(false);
        let farthest = cx.failures.farthest();
        assert_eq!(
            !cx.failures.expected().is_empty(),
            end.is_ok(),
            "a note only without an abort"
        );
        (end, cx.finish_stats(), farthest)
    }

    #[test]
    fn an_aborted_class_run_parks_on_the_exact_character_boundary() {
        let text = "aébé!";
        for scalar in [false, true] {
            // Four characters match; the fifth probe fails on `!`.
            let (end, stats, farthest) = class_run_with_fuel(text, 5, scalar);
            assert_eq!(end, Ok(6), "scalar: {scalar}");
            assert_eq!(
                (stats.terminal_comparisons, stats.gov_ticks, farthest),
                (5, 5, 6)
            );
            // Fuel for three characters: parked after `aéb`, in bytes.
            let (end, stats, farthest) = class_run_with_fuel(text, 3, scalar);
            assert_eq!(end, Err(4), "scalar: {scalar}");
            assert_eq!(
                (stats.terminal_comparisons, stats.gov_ticks, farthest),
                (3, 3, 0)
            );
            let (end, stats, _) = class_run_with_fuel(text, 0, scalar);
            assert_eq!(end, Err(0), "scalar: {scalar}");
            assert_eq!(stats.terminal_comparisons, 0);
        }
    }

    #[test]
    fn terminals_note_only_outside_predicates() {
        let mut cx = open("ab", ChunkMemo::new(1, 2), None);
        assert_eq!(cx.lit(0, "ab", "\"ab\""), Ok(2));
        assert_eq!(cx.lit_bytes(0, "ax", "\"ax\""), Err(Fail));
        assert_eq!(
            cx.stats.terminal_comparisons, 4,
            "two bytes compared, up to the mismatch"
        );
        cx.suppress += 1;
        assert_eq!(cx.any(2), Err(Fail));
        cx.suppress -= 1;
        assert_eq!(cx.error().expected(), &["\"ax\"".to_owned()]);
    }

    #[test]
    fn both_tables_build_the_same_values() {
        fn build<M: MemoTable>(memo: M) -> (String, Stats) {
            let mut cx = RunCtx::open("k ab", memo, Failures::new(), None, None, Vec::new);
            let text = cx.make_text(2, 4, true);
            let inner = cx.make_list(vec![text, Value::Absent]);
            let list = cx.make_list(vec![Value::Unit, inner]);
            let node = cx.make_node(&NodeKind::new("K"), vec![list], Some(Span::new(0, 4)));
            let value = cx.materialize(node);
            (
                crate::SyntaxTree::new("k ab", value).to_sexpr(),
                cx.finish_stats(),
            )
        }
        let (chunked, chunk_stats) = build(ChunkMemo::new(1, 4));
        let (hashed, hash_stats) = build(HashMemo::new());
        assert_eq!(chunked, hashed);
        assert_eq!(
            (chunk_stats.nodes_built, chunk_stats.lists_built),
            (hash_stats.nodes_built, hash_stats.lists_built)
        );
    }
}
