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
    ChunkMemo, Fail, Failures, Governor, ParseRun, RunCtx, Span, StateMark, Value,
};
use modpeg_telemetry::{SpanToken, Telemetry};

use crate::ops::{Op, NO_SLOT};
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

pub(crate) struct Machine<'p: 'i, 'i> {
    p: &'p VmProgram,
    cx: RunCtx<'i, ChunkMemo>,
    pc: u32,
    pos: u32,
    /// The production-value register: finishers write it, `Ret` reads it.
    acc: Value,
    vstack: Vec<Value>,
    marks: Vec<Mark>,
    bts: Vec<BtFrame>,
    calls: Vec<CallFrame>,
}

impl<'p: 'i, 'i> Machine<'p, 'i> {
    /// Opens a machine over `text`, under `gov`'s limits and reporting to
    /// `telem` when given.
    pub(crate) fn new(
        p: &'p VmProgram,
        text: &'i str,
        gov: Option<&'i Governor>,
        telem: Option<&Telemetry>,
    ) -> Self {
        // Always the chunked table: which table backs the memo changes
        // only constant factors, never answers, and the VM has no
        // incremental entry point that would need table handoff.
        let memo = ChunkMemo::new(p.memo_slot_count(), text.len() as u32);
        let failures = if p.config().errors {
            Failures::new()
        } else {
            Failures::recording()
        };
        Machine {
            p,
            cx: RunCtx::open(text, memo, failures, gov, telem, || p.production_names()),
            pc: 0,
            pos: 0,
            acc: Value::Unit,
            vstack: Vec::with_capacity(64),
            marks: Vec::with_capacity(32),
            bts: Vec::with_capacity(64),
            calls: Vec::with_capacity(64),
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
                self.cx.state.rollback(f.state);
                self.cx.suppress = f.suppress;
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
            state: self.cx.state.mark(),
            suppress: self.cx.suppress,
        });
    }

    fn begin_call(&mut self, prod: u32, target: u32, slot: u32, push: bool, epoch_check: bool) {
        let span = self.cx.enter(prod, self.pos);
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

    /// The name a state operation bracketed by `m` works with.
    fn state_operand(&self, m: Mark) -> &str {
        self.cx
            .state_name(self.vstack.get(m.vlen as usize), m.pos, self.pos)
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
        // A terminal's match moves the position; its failure dispatches.
        macro_rules! advance {
            ($matched:expr) => {
                match $matched {
                    Ok(end) => self.pos = end,
                    Err(_) => dispatch_fail!(),
                }
            };
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
                    self.cx.state.rollback(f.state);
                    self.cx.suppress = f.suppress;
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
                    if self.cx.guard().is_err() {
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
                    self.cx.suppress = 0;
                    self.cx.prod_depth = 0;
                }
                Op::Halt => {
                    let root = self.vstack.pop().expect("bootstrap pushed the root value");
                    return Ok((self.pos, root));
                }

                // ----- calls -----
                Op::Call { prod, target, push } => {
                    if self.cx.check_depth(self.calls.len() as u32).is_err()
                        || self.cx.guard().is_err()
                    {
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
                    // Ticking before the probe keeps the fuel cost of a
                    // position uniform across hits and misses.
                    if self.cx.check_depth(self.calls.len() as u32).is_err()
                        || self.cx.guard().is_err()
                    {
                        dispatch_fail!();
                    }
                    match self.cx.lookup(prod, slot, self.pos, epoch_check) {
                        Some(Ok((end, v))) => {
                            self.pos = end;
                            if push {
                                self.vstack.push(v);
                            }
                        }
                        Some(Err(Fail)) => dispatch_fail!(),
                        None => self.begin_call(prod, target, slot, push, epoch_check),
                    }
                }
                Op::Ret => {
                    let f = self.calls.pop().expect("Ret with a call in flight");
                    let catch = self.bts.pop();
                    debug_assert!(catch.is_some(), "production catch entry present at Ret");
                    debug_assert_eq!(self.vstack.len() as u32, f.vbase, "finisher consumed body");
                    self.cx.exit(f.span, f.prod, f.pos0, Some(self.pos));
                    if f.slot != NO_SLOT {
                        let answer = Ok((self.pos, self.acc.clone()));
                        self.cx
                            .store_answer(f.prod, f.slot, f.pos0, f.epoch_check, answer);
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
                    self.cx.exit(f.span, f.prod, f.pos0, None);
                    if f.slot != NO_SLOT {
                        self.cx
                            .store_answer(f.prod, f.slot, f.pos0, f.epoch_check, Err(Fail));
                    }
                    dispatch_fail!();
                }

                // ----- terminals -----
                Op::Any => advance!(self.cx.any(self.pos)),
                Op::Lit(i) => {
                    let lit = p.lit(i);
                    advance!(self.cx.lit(self.pos, &lit.text, &lit.desc))
                }
                Op::LitBytes(i) => {
                    let lit = p.lit(i);
                    advance!(self.cx.lit_bytes(self.pos, &lit.text, &lit.desc))
                }
                Op::Class(i) => {
                    let c = p.class(i);
                    advance!(self.cx.cls(self.pos, &c.table, &c.desc))
                }

                // ----- superinstructions -----
                Op::ClassStar(i) => {
                    let c = p.class(i);
                    advance!(self.cx.class_run(self.pos, &c.table, &c.desc))
                }
                Op::ClassPlus(i) => {
                    let c = p.class(i);
                    // The mandatory first match carries no guard tick
                    // (the interpreter's `e+` evaluates `e` once before
                    // entering the guarded loop).
                    advance!(self.cx.cls(self.pos, &c.table, &c.desc));
                    advance!(self.cx.class_run(self.pos, &c.table, &c.desc))
                }
                Op::NotClass(i) => {
                    let c = p.class(i);
                    self.cx.stats.terminal_comparisons += 1;
                    if matches!(self.cx.input.char_at(self.pos), Some((ch, _)) if c.table.matches_char(ch))
                    {
                        dispatch_fail!();
                    }
                }
                Op::NotLit(i) => {
                    let lit = p.lit(i);
                    self.cx.stats.terminal_comparisons += lit.text.len() as u64;
                    if self.cx.input.starts_with(self.pos, &lit.text) {
                        dispatch_fail!();
                    }
                }
                Op::NotAny => {
                    if self.cx.input.char_at(self.pos).is_some() {
                        dispatch_fail!();
                    }
                }
                Op::AndClass(i) => {
                    let c = p.class(i);
                    self.cx.stats.terminal_comparisons += 1;
                    if !matches!(self.cx.input.char_at(self.pos), Some((ch, _)) if c.table.matches_char(ch))
                    {
                        dispatch_fail!();
                    }
                }

                // ----- dispatch and backtrack accounting -----
                Op::DispatchSkip { first, target } => {
                    let f = p.first(first);
                    if !f.set.admits(self.cx.input.byte_at(self.pos)) {
                        self.cx.note(self.pos, &f.desc);
                        self.pc = target;
                    }
                }
                Op::AltBacktrack(t) => {
                    let f = *self.calls.last().expect("alternative inside a production");
                    self.cx.backtrack(f.prod, f.pos0);
                    self.pc = t;
                }
                Op::ChoiceBacktrack(t) => {
                    self.cx.stats.backtracks += 1;
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
                        let list = self.cx.make_list(vs);
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
                        let list = self.cx.make_list(vs);
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
                        let list = self.cx.make_list(items);
                        self.vstack.push(list);
                    } else {
                        self.vstack.truncate(m0.vlen as usize);
                    }
                }
                Op::CaptureFinish { push } => {
                    let m = self.marks.pop().expect("capture mark");
                    self.vstack.truncate(m.vlen as usize);
                    if push {
                        let text = self.cx.make_text(m.pos, self.pos, p.config().text_only);
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
                    let node = self.cx.make_node(p.kind(kind), children, span);
                    self.vstack.push(node);
                }
                Op::MakeNodeFinish {
                    kind,
                    passthrough,
                    with_span,
                } => {
                    let f = *self.calls.last().expect("finisher inside a production");
                    self.acc = if passthrough && self.vstack.len() == f.vbase as usize + 1 {
                        self.vstack.pop().expect("len checked")
                    } else {
                        let children = self.vstack.split_off(f.vbase as usize);
                        let span = with_span.then(|| Span::new(f.pos0, self.pos));
                        self.cx.make_node(p.kind(kind), children, span)
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
                        None => self.cx.make_text(f.pos0, self.pos, p.config().text_only),
                    };
                }
                Op::UnitFinish => {
                    let f = *self.calls.last().expect("finisher inside a production");
                    self.vstack.truncate(f.vbase as usize);
                    self.acc = Value::Unit;
                }

                // ----- predicates and state -----
                Op::IncSuppress => self.cx.suppress += 1,
                Op::StateDefine { keep } => {
                    let m = self.marks.pop().expect("state mark");
                    let name = self.state_operand(m).to_owned();
                    self.cx.state.define(&name);
                    if !keep {
                        self.vstack.truncate(m.vlen as usize);
                    }
                }
                Op::StateIsDef { keep } => {
                    let m = self.marks.pop().expect("state mark");
                    let defined = self.cx.state.is_defined(self.state_operand(m));
                    if defined {
                        if !keep {
                            self.vstack.truncate(m.vlen as usize);
                        }
                    } else {
                        self.cx.note(m.pos, "defined name");
                        dispatch_fail!();
                    }
                }
                Op::StateIsNotDef { keep } => {
                    let m = self.marks.pop().expect("state mark");
                    let defined = self.cx.state.is_defined(self.state_operand(m));
                    if defined {
                        self.cx.note(m.pos, "undefined name");
                        dispatch_fail!();
                    } else if !keep {
                        self.vstack.truncate(m.vlen as usize);
                    }
                }
                Op::ScopePush => self.cx.state.push_scope(),
                Op::ScopePopCommit => {
                    self.cx.state.pop_scope();
                    self.bts.pop();
                }
            }
        }
    }
}

impl<'i> ParseRun<'i> for Machine<'_, 'i> {
    type Memo = ChunkMemo;

    /// Re-enters the bootstrap (whose `Recover` prologue cleans the
    /// per-attempt registers) at `pos`.
    fn eval_root(&mut self, pos: u32) -> Result<(u32, Value), Fail> {
        self.pc = 0;
        self.pos = pos;
        self.run()
    }

    fn cx(&mut self) -> &mut RunCtx<'i, ChunkMemo> {
        &mut self.cx
    }
}
