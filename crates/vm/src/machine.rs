//! The dispatch loop: a register-light machine executing assembled
//! bytecode against an input.
//!
//! The machine mirrors the tree-walking interpreter *observationally*:
//! identical syntax trees, identical accept/reject verdicts, identical
//! farthest-failure positions, and identical memoization traffic per
//! production (the conformance harness asserts all four). What changes
//! is the execution substrate — three explicit stacks instead of the
//! Rust call stack:
//!
//! * the **value stack** accumulates in-flight semantic values; value
//!   marks bracket the regions each repetition/capture owns,
//! * the **backtrack stack** holds resume points (pc, position, value
//!   depth, parser-state mark, suppression depth) for ordered choice,
//! * the **call stack** holds production applications (return pc, memo
//!   slot, telemetry span, value base).
//!
//! Every production pushes its own `Catch` entry before its body, so the
//! backtrack stack above a call frame always belongs to that frame —
//! failure dispatch never needs to repair the call stack.

use modpeg_runtime::{
    ChunkMemo, EventSink, Fail, Failures, Governor, Input, MemoAnswer, MemoTable, NodeKind,
    ParseAbort, ParseError, ParseRun, ScopedState, Span, StateMark, Stats, Value,
    DEFAULT_MAX_DEPTH,
};
use modpeg_telemetry::{SpanToken, Telemetry};

use crate::ops::{ClassConst, Op, NO_SLOT};
use crate::VmProgram;

/// A backtrack entry: everything needed to resume at `pc` as if the
/// speculative region never ran.
struct BtFrame {
    pc: u32,
    pos: u32,
    vlen: u32,
    mlen: u32,
    state: StateMark,
    suppress: u32,
}

/// A production application in flight.
#[derive(Clone, Copy)]
struct CallFrame {
    ret_pc: u32,
    prod: u32,
    pos0: u32,
    /// Value-stack depth at entry: the finishers consume exactly the
    /// values above this base.
    vbase: u32,
    /// Memo slot, or [`NO_SLOT`].
    slot: u32,
    push: bool,
    epoch_check: bool,
    span: SpanToken,
}

/// A value-stack mark (repetition/capture bracket).
#[derive(Clone, Copy)]
struct Mark {
    vlen: u32,
    pos: u32,
}

pub(crate) struct Machine<'p, 'i> {
    p: &'p VmProgram,
    input: Input<'i>,
    pc: u32,
    pos: u32,
    /// The production-value register: finishers write it, `Ret` reads it.
    acc: Value,
    vstack: Vec<Value>,
    marks: Vec<Mark>,
    bts: Vec<BtFrame>,
    calls: Vec<CallFrame>,
    memo: ChunkMemo,
    state: ScopedState,
    failures: Failures,
    stats: Stats,
    suppress: u32,
    telem: Telemetry,
    prod_depth: u32,
    gov: Option<&'p Governor>,
    aborted: Option<ParseAbort>,
    max_depth: u32,
    memo_budget: u64,
    memo_frozen: bool,
}

impl<'p, 'i> Machine<'p, 'i> {
    /// Opens a machine over `text`, under `gov`'s limits and reporting to
    /// `telem` when given.
    pub(crate) fn new(
        p: &'p VmProgram,
        text: &'i str,
        gov: Option<&'p Governor>,
        telem: Option<&Telemetry>,
    ) -> Self {
        let input = Input::new(text);
        // Always the chunked table: which table backs the memo changes
        // only constant factors, never answers, and the VM has no
        // incremental entry point that would need table handoff.
        let memo = ChunkMemo::new(p.memo_slot_count(), input.len());
        let failures = if p.config().errors {
            Failures::new()
        } else {
            Failures::recording()
        };
        let mut m = Machine {
            p,
            input,
            pc: 0,
            pos: 0,
            acc: Value::Unit,
            vstack: Vec::with_capacity(64),
            marks: Vec::with_capacity(32),
            bts: Vec::with_capacity(64),
            calls: Vec::with_capacity(64),
            memo,
            state: ScopedState::new(),
            failures,
            stats: Stats::default(),
            suppress: 0,
            telem: Telemetry::disabled(),
            prod_depth: 0,
            gov: None,
            aborted: None,
            max_depth: u32::MAX,
            memo_budget: u64::MAX,
            memo_frozen: false,
        };
        if let Some(gov) = gov {
            m.install_governor(gov);
        }
        if let Some(telem) = telem {
            m.install_telemetry(telem);
        }
        m
    }

    /// Puts the run under `gov`'s limits (depth falls back to
    /// [`DEFAULT_MAX_DEPTH`] — stack safety is non-negotiable once a run
    /// is governed — and the memo budget to unlimited).
    fn install_governor(&mut self, gov: &'p Governor) {
        self.max_depth = gov.max_depth().unwrap_or(DEFAULT_MAX_DEPTH);
        self.memo_budget = gov.memo_budget().unwrap_or(u64::MAX);
        self.gov = Some(gov);
    }

    fn install_telemetry(&mut self, telem: &Telemetry) {
        if telem.is_enabled() {
            telem.set_names(self.p.production_names());
            telem.set_input_len(self.input.len());
            self.telem = telem.clone();
        }
    }

    fn note(&mut self, pos: u32, desc: &str) {
        if self.suppress == 0 {
            self.failures.note(pos, desc);
        }
    }

    /// One governed evaluation step; `true` means the run must unwind.
    #[inline]
    fn guard_fails(&mut self) -> bool {
        if self.aborted.is_some() {
            return true;
        }
        if let Some(gov) = self.gov {
            if let Err(kind) = gov.tick() {
                self.aborted = Some(kind);
                return true;
            }
        }
        false
    }

    /// The guarded tail of `ClassStar`/`ClassPlus` from `self.pos`,
    /// scalar flavour: the original per-character loop (one guard tick
    /// and one terminal comparison per probe, the failing probe noted).
    /// Kept verbatim as the differential reference for the vectorized
    /// path — `scan::force_scalar` / `MODPEG_SCAN=scalar` selects it.
    fn class_run_scalar(&mut self, c: &ClassConst) {
        loop {
            // A repetition over bare terminals never passes a call, so
            // it ticks on its own (the final failing probe included —
            // matching the interpreter).
            if self.guard_fails() {
                break;
            }
            self.stats.terminal_comparisons += 1;
            match self.input.char_at(self.pos) {
                Some((ch, len)) if c.table.matches_char(ch) => self.pos += len,
                _ => {
                    self.note(self.pos, &c.desc);
                    break;
                }
            }
        }
    }

    /// The guarded tail of `ClassStar`/`ClassPlus`, vectorized: one bulk
    /// scan finds the whole run, then the governor is charged for every
    /// consumed character plus the final failing probe in a single
    /// batched call. Observables are tick-for-tick identical to
    /// [`Machine::class_run_scalar`]: same `terminal_comparisons`, same
    /// farthest-failure note at the run's end, and on a governor abort
    /// `self.pos` lands on the exact character boundary the scalar loop
    /// would have aborted at (with no note recorded, as the scalar loop
    /// breaks before probing).
    fn class_run_vectorized(&mut self, c: &ClassConst) {
        if self.aborted.is_some() {
            return;
        }
        let text = self.input.text();
        let run = modpeg_runtime::scan::scan_class_run(text, self.pos, &c.table);
        // One tick per matched character + one for the failing probe.
        let need = u64::from(run.chars) + 1;
        if let Some(gov) = self.gov {
            if let Err((done, kind)) = gov.tick_many(need) {
                self.stats.terminal_comparisons += done;
                self.pos = modpeg_runtime::scan::advance_chars(text, self.pos, done as u32);
                self.aborted = Some(kind);
                return;
            }
        }
        self.stats.terminal_comparisons += need;
        self.pos = run.end;
        self.note(run.end, &c.desc);
    }

    #[cold]
    fn abort(&mut self, kind: ParseAbort) {
        if let Some(gov) = self.gov {
            gov.trip(kind);
        }
        if self.aborted.is_none() {
            self.aborted = Some(kind);
            self.telem.gov_abort(kind.name());
        }
    }

    /// Failure dispatch: restore the innermost backtrack entry and resume
    /// at its pc. `false` means the entry stacks are exhausted — the parse
    /// as a whole fails.
    fn fail(&mut self) -> bool {
        match self.bts.pop() {
            Some(f) => {
                self.pos = f.pos;
                self.vstack.truncate(f.vlen as usize);
                self.marks.truncate(f.mlen as usize);
                self.state.rollback(f.state);
                self.suppress = f.suppress;
                self.pc = f.pc;
                true
            }
            None => false,
        }
    }

    fn push_bt(&mut self, target: u32) {
        self.bts.push(BtFrame {
            pc: target,
            pos: self.pos,
            vlen: self.vstack.len() as u32,
            mlen: self.marks.len() as u32,
            state: self.state.mark(),
            suppress: self.suppress,
        });
    }

    fn begin_call(&mut self, prod: u32, target: u32, slot: u32, push: bool, epoch_check: bool) {
        self.stats.productions_evaluated += 1;
        let span = self.telem.enter(prod, self.pos, self.prod_depth);
        self.prod_depth += 1;
        self.calls.push(CallFrame {
            ret_pc: self.pc,
            prod,
            pos0: self.pos,
            vbase: self.vstack.len() as u32,
            slot,
            push,
            epoch_check,
            span,
        });
        self.pc = target;
    }

    /// Mirrors the interpreter's `store_answer`: suppressed after an abort
    /// (in-flight results may be tainted) or under transient-only
    /// fallback, budget-enforced on every store.
    fn store_answer(&mut self, prod: u32, slot: u32, pos: u32, ans: MemoAnswer) {
        if self.aborted.is_some() || self.memo_frozen {
            return;
        }
        self.telem.memo_store(prod, pos, ans.outcome.is_some());
        self.memo.store(slot, pos, ans);
        self.stats.memo_stores += 1;
        if self.memo_budget != u64::MAX && self.memo.retained_bytes() > self.memo_budget {
            self.enforce_memo_budget(pos);
        }
    }

    /// The memo-budget degradation ladder, rung for rung the
    /// interpreter's: evict cold columns, fall back to transient-only
    /// parsing, abort only when the empty table itself exceeds the budget.
    #[cold]
    fn enforce_memo_budget(&mut self, hot_from: u32) {
        if self.memo.retained_bytes() <= self.memo_budget {
            return;
        }
        self.stats.gov_evictions += 1;
        let freed = self.memo.evict_cold(hot_from).columns_freed;
        self.stats.gov_columns_evicted += freed;
        self.telem
            .memo_evict(hot_from, freed.min(u64::from(u32::MAX)) as u32);
        if self.memo.retained_bytes() <= self.memo_budget {
            return;
        }
        self.memo_frozen = true;
        self.stats.gov_transient_fallbacks += 1;
        self.memo.evict_all();
        if self.memo.retained_bytes() <= self.memo_budget {
            return;
        }
        self.abort(ParseAbort::MemoBudget);
    }

    // ----- value construction (the runtime's shared arena builder) -----

    fn make_text(&mut self, lo: u32, hi: u32) -> Value {
        if self.p.config().text_only {
            Value::Text(Span::new(lo, hi))
        } else {
            let s: std::rc::Rc<str> = std::rc::Rc::from(self.input.slice(Span::new(lo, hi)));
            self.stats.strings_built += 1;
            self.stats.value_bytes += (hi - lo) as u64 + 16;
            Value::OwnedText(s)
        }
    }

    fn make_node(&mut self, kind: &NodeKind, children: Vec<Value>, span: Option<Span>) -> Value {
        self.memo
            .arena_mut()
            .make_node(&mut self.stats, kind.clone(), children, span)
    }

    fn make_list(&mut self, items: Vec<Value>) -> Value {
        self.memo.arena_mut().make_list(&mut self.stats, items)
    }

    /// The name a state operation works with: the operand's first textual
    /// value when it has one, otherwise the whole matched span.
    fn state_operand(&self, m: Mark) -> &str {
        let text = self.input.text();
        self.vstack
            .get(m.vlen as usize)
            .and_then(|v| v.as_text(text))
            .unwrap_or(&text[m.pos as usize..self.pos as usize])
    }

    // ----- the dispatch loop -----

    /// Runs the program from the bootstrap sequence to `Halt` or overall
    /// failure, returning the end position and root value on success.
    fn run(&mut self) -> Result<(u32, Value), Fail> {
        let p = self.p;
        macro_rules! dispatch_fail {
            () => {{
                if !self.fail() {
                    return Err(Fail);
                }
                continue;
            }};
        }
        loop {
            let op = p.op_at(self.pc);
            self.pc += 1;
            match op {
                // ----- control flow -----
                Op::Jump(t) => self.pc = t,
                Op::Choice(t) | Op::Catch(t) => self.push_bt(t),
                Op::Commit(t) => {
                    self.bts.pop();
                    self.pc = t;
                }
                Op::BackCommit(t) => {
                    let f = self.bts.pop().expect("BackCommit under its Choice");
                    self.pos = f.pos;
                    self.vstack.truncate(f.vlen as usize);
                    self.marks.truncate(f.mlen as usize);
                    self.state.rollback(f.state);
                    self.suppress = f.suppress;
                    self.pc = t;
                }
                Op::FailTwice => {
                    self.bts.pop();
                    dispatch_fail!();
                }
                Op::Fail => dispatch_fail!(),
                Op::LoopCommitNZ(body) => {
                    // Pop the iteration's entry and loop back to the head,
                    // whose `GuardTick` then runs with no loop entry on
                    // the stack (an abort propagates outward, exactly like
                    // the interpreter's `?` on its per-iteration guard)
                    // and whose `Choice` re-arms a fresh entry.
                    let f = self.bts.pop().expect("loop entry under its Choice");
                    if self.pos > f.pos {
                        self.pc = body;
                    } else {
                        // Zero-width iteration: drop its values, keep its
                        // state changes (the interpreter's loop guard).
                        self.vstack.truncate(f.vlen as usize);
                        self.marks.truncate(f.mlen as usize);
                    }
                }
                Op::GuardTick => {
                    if self.guard_fails() {
                        dispatch_fail!();
                    }
                }
                Op::Recover => {
                    // Attempt prologue: clean per-attempt registers. Memo,
                    // failures, stats, and parser state survive restarts.
                    self.acc = Value::Unit;
                    self.vstack.clear();
                    self.marks.clear();
                    self.bts.clear();
                    self.calls.clear();
                    self.suppress = 0;
                    self.prod_depth = 0;
                }
                Op::Halt => {
                    let root = self.vstack.pop().expect("bootstrap pushed the root value");
                    return Ok((self.pos, root));
                }

                // ----- calls -----
                Op::Call { prod, target, push } => {
                    if self.calls.len() as u32 >= self.max_depth {
                        self.abort(ParseAbort::DepthExceeded);
                        dispatch_fail!();
                    }
                    if self.guard_fails() {
                        dispatch_fail!();
                    }
                    self.begin_call(prod, target, NO_SLOT, push, false);
                }
                Op::MemoCall {
                    prod,
                    target,
                    slot,
                    push,
                    epoch_check,
                } => {
                    if self.calls.len() as u32 >= self.max_depth {
                        self.abort(ParseAbort::DepthExceeded);
                        dispatch_fail!();
                    }
                    // Ticking before the probe keeps the fuel cost of a
                    // position uniform across hits and misses.
                    if self.guard_fails() {
                        dispatch_fail!();
                    }
                    self.stats.memo_probes += 1;
                    self.telem.memo_probe(prod, self.pos);
                    let mut hit: Option<Option<(u32, Value)>> = None;
                    if let Some(ans) = self.memo.probe_settled(slot, self.pos) {
                        if epoch_check && ans.epoch != self.state.epoch() {
                            self.stats.memo_stale += 1;
                        } else {
                            self.stats.memo_hits += 1;
                            hit = Some(ans.outcome.as_ref().map(|(e, v)| (*e, v.clone())));
                        }
                    }
                    match hit {
                        Some(outcome) => {
                            self.telem
                                .memo_hit(prod, self.pos, self.prod_depth, outcome.is_some());
                            match outcome {
                                Some((end, v)) => {
                                    self.pos = end;
                                    if push {
                                        self.vstack.push(v);
                                    }
                                }
                                None => dispatch_fail!(),
                            }
                        }
                        None => self.begin_call(prod, target, slot, push, epoch_check),
                    }
                }
                Op::Ret => {
                    let f = self.calls.pop().expect("Ret with a call in flight");
                    let catch = self.bts.pop();
                    debug_assert!(catch.is_some(), "production catch entry present at Ret");
                    debug_assert_eq!(self.vstack.len() as u32, f.vbase, "finisher consumed body");
                    self.prod_depth -= 1;
                    self.telem
                        .exit(f.span, f.prod, f.pos0, self.prod_depth, self.pos, true);
                    if f.slot != NO_SLOT {
                        let epoch = if f.epoch_check { self.state.epoch() } else { 0 };
                        let ans = MemoAnswer::success(epoch, self.pos, self.acc.clone());
                        self.store_answer(f.prod, f.slot, f.pos0, ans);
                    }
                    if f.push {
                        self.vstack
                            .push(std::mem::replace(&mut self.acc, Value::Unit));
                    }
                    self.pc = f.ret_pc;
                }
                Op::RetFail => {
                    // Reached via the production's catch entry, which
                    // already restored position/values/state/suppression.
                    let f = self.calls.pop().expect("RetFail with a call in flight");
                    self.prod_depth -= 1;
                    self.telem
                        .exit(f.span, f.prod, f.pos0, self.prod_depth, f.pos0, false);
                    if f.slot != NO_SLOT {
                        let epoch = if f.epoch_check { self.state.epoch() } else { 0 };
                        self.store_answer(f.prod, f.slot, f.pos0, MemoAnswer::fail(epoch));
                    }
                    dispatch_fail!();
                }

                // ----- terminals -----
                Op::Any => match self.input.char_at(self.pos) {
                    Some((_, len)) => self.pos += len,
                    None => {
                        self.note(self.pos, "any character");
                        dispatch_fail!();
                    }
                },
                Op::Lit(i) => {
                    let lit = p.lit(i);
                    self.stats.terminal_comparisons += lit.text.len() as u64;
                    if self.input.starts_with(self.pos, &lit.text) {
                        self.pos += lit.text.len() as u32;
                    } else {
                        self.note(self.pos, &lit.desc);
                        dispatch_fail!();
                    }
                }
                Op::LitBytes(i) => {
                    let lit = p.lit(i);
                    let start = self.pos;
                    let mut cur = start;
                    let mut ok = true;
                    for &b in lit.text.as_bytes() {
                        self.stats.terminal_comparisons += 1;
                        match self.input.byte_at(cur) {
                            Some(x) if x == b => cur += 1,
                            _ => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        self.pos = cur;
                    } else {
                        self.note(start, &lit.desc);
                        dispatch_fail!();
                    }
                }
                Op::Class(i) => {
                    let c = p.class(i);
                    self.stats.terminal_comparisons += 1;
                    match self.input.char_at(self.pos) {
                        Some((ch, len)) if c.table.matches_char(ch) => self.pos += len,
                        _ => {
                            self.note(self.pos, &c.desc);
                            dispatch_fail!();
                        }
                    }
                }

                // ----- superinstructions -----
                Op::ClassStar(i) => {
                    let c = p.class(i);
                    if modpeg_runtime::scan::scalar_forced() {
                        self.class_run_scalar(c);
                    } else {
                        self.class_run_vectorized(c);
                    }
                    if self.aborted.is_some() {
                        dispatch_fail!();
                    }
                }
                Op::ClassPlus(i) => {
                    let c = p.class(i);
                    // The mandatory first match carries no guard tick
                    // (the interpreter's `e+` evaluates `e` once before
                    // entering the guarded loop).
                    self.stats.terminal_comparisons += 1;
                    match self.input.char_at(self.pos) {
                        Some((ch, len)) if c.table.matches_char(ch) => self.pos += len,
                        _ => {
                            self.note(self.pos, &c.desc);
                            dispatch_fail!();
                        }
                    }
                    if modpeg_runtime::scan::scalar_forced() {
                        self.class_run_scalar(c);
                    } else {
                        self.class_run_vectorized(c);
                    }
                    if self.aborted.is_some() {
                        dispatch_fail!();
                    }
                }
                Op::NotClass(i) => {
                    let c = p.class(i);
                    self.stats.terminal_comparisons += 1;
                    if matches!(self.input.char_at(self.pos), Some((ch, _)) if c.table.matches_char(ch))
                    {
                        dispatch_fail!();
                    }
                }
                Op::NotLit(i) => {
                    let lit = p.lit(i);
                    self.stats.terminal_comparisons += lit.text.len() as u64;
                    if self.input.starts_with(self.pos, &lit.text) {
                        dispatch_fail!();
                    }
                }
                Op::NotAny => {
                    if self.input.char_at(self.pos).is_some() {
                        dispatch_fail!();
                    }
                }
                Op::AndClass(i) => {
                    let c = p.class(i);
                    self.stats.terminal_comparisons += 1;
                    if !matches!(self.input.char_at(self.pos), Some((ch, _)) if c.table.matches_char(ch))
                    {
                        dispatch_fail!();
                    }
                }

                // ----- dispatch and backtrack accounting -----
                Op::DispatchSkip { first, target } => {
                    let f = p.first(first);
                    if !f.set.admits(self.input.byte_at(self.pos)) {
                        self.note(self.pos, &f.desc);
                        self.pc = target;
                    }
                }
                Op::AltBacktrack(t) => {
                    let f = *self.calls.last().expect("alternative inside a production");
                    self.stats.backtracks += 1;
                    self.telem.backtrack(f.prod, f.pos0, self.prod_depth);
                    self.pc = t;
                }
                Op::ChoiceBacktrack(t) => {
                    self.stats.backtracks += 1;
                    self.pc = t;
                }

                // ----- value construction -----
                Op::MarkHere => {
                    self.marks.push(Mark {
                        vlen: self.vstack.len() as u32,
                        pos: self.pos,
                    });
                }
                Op::NormalizeOpt => {
                    self.bts.pop();
                    let m = self.marks.pop().expect("optional mark");
                    if self.vstack.len() - m.vlen as usize >= 2 {
                        let vs = self.vstack.split_off(m.vlen as usize);
                        let list = self.make_list(vs);
                        self.vstack.push(list);
                    }
                }
                Op::AbsentOpt { push_absent } => {
                    self.marks.pop();
                    if push_absent {
                        self.vstack.push(Value::Absent);
                    }
                }
                Op::StarFinish { make } => {
                    let m = self.marks.pop().expect("star mark");
                    if make {
                        let vs = self.vstack.split_off(m.vlen as usize);
                        let list = self.make_list(vs);
                        self.vstack.push(list);
                    }
                }
                Op::PlusFinish { collect } => {
                    let m1 = self.marks.pop().expect("plus rest mark");
                    let m0 = self.marks.pop().expect("plus first mark");
                    if collect {
                        // First match and rest together make one list —
                        // the interpreter's unmemoized `e+` shape.
                        debug_assert!(m0.vlen <= m1.vlen);
                        let items = self.vstack.split_off(m0.vlen as usize);
                        let list = self.make_list(items);
                        self.vstack.push(list);
                    } else {
                        self.vstack.truncate(m0.vlen as usize);
                    }
                }
                Op::CaptureFinish { push } => {
                    let m = self.marks.pop().expect("capture mark");
                    self.vstack.truncate(m.vlen as usize);
                    if push {
                        let text = self.make_text(m.pos, self.pos);
                        self.vstack.push(text);
                    }
                }
                Op::DropMark => {
                    let m = self.marks.pop().expect("void mark");
                    self.vstack.truncate(m.vlen as usize);
                }
                Op::PushAcc => {
                    self.vstack
                        .push(std::mem::replace(&mut self.acc, Value::Unit));
                }
                Op::PopAcc => {
                    self.acc = self.vstack.pop().expect("seed on the value stack");
                }
                Op::FoldNode { kind, with_span } => {
                    let f = *self.calls.last().expect("fold inside a production");
                    // The seed sits at the frame base; the tail's values
                    // are above it — together they are the new node's
                    // children, seed first.
                    let children = self.vstack.split_off(f.vbase as usize);
                    let span = with_span.then(|| Span::new(f.pos0, self.pos));
                    let node = self.make_node(p.kind(kind), children, span);
                    self.vstack.push(node);
                }
                Op::MakeNodeFinish {
                    kind,
                    passthrough,
                    with_span,
                } => {
                    let f = *self.calls.last().expect("finisher inside a production");
                    let mut children = self.vstack.split_off(f.vbase as usize);
                    self.acc = if passthrough && children.len() == 1 {
                        children.pop().expect("len checked")
                    } else {
                        let span = with_span.then(|| Span::new(f.pos0, self.pos));
                        self.make_node(p.kind(kind), children, span)
                    };
                }
                Op::MakeTextFinish { take_inner } => {
                    let f = *self.calls.last().expect("finisher inside a production");
                    let mut inner = None;
                    if take_inner {
                        if let Some(v @ (Value::Text(_) | Value::OwnedText(_))) =
                            self.vstack.get(f.vbase as usize)
                        {
                            inner = Some(v.clone());
                        }
                    }
                    self.vstack.truncate(f.vbase as usize);
                    self.acc = match inner {
                        Some(v) => v,
                        None => self.make_text(f.pos0, self.pos),
                    };
                }
                Op::UnitFinish => {
                    let f = *self.calls.last().expect("finisher inside a production");
                    self.vstack.truncate(f.vbase as usize);
                    self.acc = Value::Unit;
                }

                // ----- predicates and state -----
                Op::IncSuppress => self.suppress += 1,
                Op::StateDefine { keep } => {
                    let m = self.marks.pop().expect("state mark");
                    let name = self.state_operand(m).to_owned();
                    self.state.define(&name);
                    if !keep {
                        self.vstack.truncate(m.vlen as usize);
                    }
                }
                Op::StateIsDef { keep } => {
                    let m = self.marks.pop().expect("state mark");
                    let defined = self.state.is_defined(self.state_operand(m));
                    if defined {
                        if !keep {
                            self.vstack.truncate(m.vlen as usize);
                        }
                    } else {
                        self.note(m.pos, "defined name");
                        dispatch_fail!();
                    }
                }
                Op::StateIsNotDef { keep } => {
                    let m = self.marks.pop().expect("state mark");
                    let defined = self.state.is_defined(self.state_operand(m));
                    if defined {
                        self.note(m.pos, "undefined name");
                        dispatch_fail!();
                    } else if !keep {
                        self.vstack.truncate(m.vlen as usize);
                    }
                }
                Op::ScopePush => self.state.push_scope(),
                Op::ScopePopCommit => {
                    self.state.pop_scope();
                    self.bts.pop();
                }
            }
        }
    }

}

impl ParseRun for Machine<'_, '_> {
    /// Re-enters the bootstrap (whose `Recover` prologue cleans the
    /// per-attempt registers) at `pos`.
    fn eval_root(&mut self, pos: u32) -> Result<(u32, Value), Fail> {
        self.pc = 0;
        self.pos = pos;
        self.run()
    }

    fn aborted(&self) -> Option<ParseAbort> {
        self.aborted
    }

    fn failures(&mut self) -> &mut Failures {
        &mut self.failures
    }

    fn error(&self) -> ParseError {
        self.failures.to_error(&self.input)
    }

    /// Detaches `value` from the machine's arena before it escapes into a
    /// [`modpeg_runtime::SyntaxTree`].
    fn materialize(&self, value: Value) -> Value {
        self.memo.arena().copy_out(&value)
    }

    /// Streams `value` as SAX events straight from the machine's arena.
    fn emit(&self, value: &Value, sink: &mut dyn EventSink) {
        self.memo.arena().emit_events(value, sink);
    }

    fn finish_stats(&mut self) -> Stats {
        self.stats.memo_bytes = self.memo.retained_bytes();
        self.stats.failure_records = self.failures.recorded_len() as u64;
        self.stats.failure_bytes = self.failures.retained_bytes() as u64;
        std::mem::take(&mut self.stats)
    }
}
