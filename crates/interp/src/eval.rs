//! The packrat evaluator: executes a [`CompiledGrammar`] against input.
//!
//! Every optimization flag changes *how* this module works, never *what*
//! it produces — the property tests assert that any two configurations
//! yield identical syntax trees on identical input.

use modpeg_core::{ProdId, ProdKind};
use modpeg_runtime::{
    engine, ChunkMemo, Engine, EventSink, Fail, Failures, Governor, HashMemo, MemoAnswer,
    MemoTable, Out, Outcome, PResult, ParseAbort, ParseError, ParseRequest, ParseRun,
    RecoverPolicy, Recovered, RunCtx, Span, Stats, SyntaxTree, Value,
};
use modpeg_telemetry::{Telemetry, REP_HELPER};

use crate::compile::{CAlt, CExpr, CompiledGrammar, EId, LeftRec};

type EvalResult = Result<(u32, Out), Fail>;

/// One interpreter run on a memo table of either flavour: the chunked one,
/// or the hash map the `chunks` ablation measures (each compiles its own
/// copy of the walk).
struct Run<'r, M> {
    g: &'r CompiledGrammar,
    cx: RunCtx<'r, M>,
    /// High-water mark of input offsets examined since the innermost
    /// memoized evaluation began: the basis of the per-column lookahead
    /// extents that incremental sessions use to invalidate soundly. A peek
    /// past the end of input counts as examining one byte beyond it.
    examined: u32,
    /// Alternative-coverage recording, when requested.
    coverage: Option<crate::Coverage>,
    /// Expression frames currently on the call stack.
    depth: u32,
}

/// Evaluates `$body` with `$memo` bound to a constructor of an empty memo
/// table of `$g`'s flavour for `$text`.
macro_rules! with_fresh_memo {
    ($g:expr, $text:expr, |$memo:ident| $body:expr) => {
        if $g.cfg.chunks {
            let $memo = || ChunkMemo::new($g.n_slots, $text.len() as u32);
            $body
        } else {
            let $memo = HashMemo::new;
            $body
        }
    };
}

impl CompiledGrammar {
    /// Opens a run over `text` on `memo`, under `gov`'s limits and
    /// reporting to `telem` when given.
    fn open<'r, M: MemoTable>(
        &'r self,
        text: &'r str,
        memo: M,
        gov: Option<&'r Governor>,
        telem: Option<&Telemetry>,
    ) -> Run<'r, M> {
        let failures = if self.cfg.errors {
            Failures::new()
        } else {
            Failures::recording()
        };
        let names = || self.prods.iter().map(|p| p.name.clone()).collect();
        Run {
            g: self,
            cx: RunCtx::open(text, memo, failures, gov, telem, names),
            examined: 0,
            coverage: None,
            depth: 0,
        }
    }
}

impl<'r, M: MemoTable> Run<'r, M> {
    // ----- input access (with lookahead accounting) -----
    //
    // Every read of the source text charges `examined`, so that it soundly
    // over-approximates the bytes a memoized result depends on. Reads that
    // fail at end of input still count one byte past the end: appending
    // text there must invalidate the result.

    fn peek_byte(&mut self, pos: u32) -> Option<u8> {
        self.examined = self.examined.max(pos.saturating_add(1));
        self.cx.input.byte_at(pos)
    }

    fn peek_char(&mut self, pos: u32) -> Option<(char, u32)> {
        match self.cx.input.char_at(pos) {
            Some((c, len)) => {
                self.examined = self.examined.max(pos + len);
                Some((c, len))
            }
            None => {
                self.examined = self.examined.max(pos.saturating_add(1));
                None
            }
        }
    }

    /// Charges what a one-character terminal at `pos` examined: the
    /// character it matched, or the one it rejected (one past EOF).
    fn charge_char(&mut self, pos: u32, matched: Result<u32, Fail>) -> EvalResult {
        match matched {
            Ok(end) => {
                self.examined = self.examined.max(end);
                Ok((end, Out::None))
            }
            Err(Fail) => {
                let _ = self.peek_char(pos);
                Err(Fail)
            }
        }
    }

    /// A memo hit at `pos` depends on the bytes its original evaluation
    /// examined: charges them to the enclosing memoized evaluation.
    fn charge_extent(&mut self, pos: u32) {
        let extent = self.cx.memo.chunks().map_or(0, |m| m.extent_at(pos));
        self.examined = self.examined.max(pos.saturating_add(extent));
    }

    /// Closes the memoized evaluation at `pos` that began with the
    /// watermark at `outer`: records its lookahead extent and folds it
    /// back into the enclosing evaluation's.
    fn close_extent(&mut self, pos: u32, outer: u32) {
        let high = self.examined;
        if let Some(m) = self.cx.memo.chunks_mut() {
            m.record_extent(pos, high.saturating_sub(pos));
        }
        self.examined = outer.max(high);
    }

    // ----- productions -----

    fn eval_prod(&mut self, id: ProdId, pos: u32) -> PResult {
        // Ticking before the memo probe keeps the fuel cost of a position
        // uniform across hits and misses, which is what makes fuel-based
        // fault injection deterministic.
        self.cx.guard()?;
        let g = self.g;
        let p = &g.prods[id.index()];
        if let Some(slot) = p.memo_slot {
            if let Some(hit) = self.cx.lookup(id.0, slot, pos, p.epoch_check) {
                self.charge_extent(pos);
                return hit;
            }
        }
        let span = self.cx.enter(id.0, pos);
        // Bracket memoized evaluations: reset the examined watermark to the
        // start position, so that afterwards `examined - pos` is exactly
        // this evaluation's lookahead extent.
        let outer_examined = self.examined;
        if p.memo_slot.is_some() {
            self.examined = pos;
        }
        let result = match p.lr {
            Some(LeftRec::Fold(bases)) => self.eval_lr_fold(id, bases, pos),
            Some(LeftRec::Seed) => self.eval_lr_seed(id, pos),
            None => self.eval_alts(id, &p.alts, pos),
        };
        self.cx
            .exit(span, id.0, pos, result.as_ref().ok().map(|&(end, _)| end));
        if let Some(slot) = p.memo_slot {
            // The seed-growing strategy stores its own final answer.
            if p.lr != Some(LeftRec::Seed) {
                self.cx
                    .store_answer(id.0, slot, pos, p.epoch_check, result.clone());
            }
            self.close_extent(pos, outer_examined);
        }
        result
    }

    /// Evaluates `alts`, a prefix of production `id`'s alternatives (all
    /// of them, or the bases of a split production), and builds the
    /// production-level value.
    fn eval_alts(&mut self, id: ProdId, alts: &'r [CAlt], pos: u32) -> PResult {
        let p = &self.g.prods[id.index()];
        let byte = self.peek_byte(pos);
        for (alt_idx, alt) in alts.iter().enumerate() {
            if let Some((first, desc)) = &alt.first {
                if !first.admits(byte) {
                    // Dispatch skips the alternative, but the farthest-
                    // failure record must still reflect what was expected.
                    self.cx.note(pos, desc);
                    continue;
                }
            }
            let mark = self.cx.state.mark();
            match self.eval(alt.expr, pos) {
                Ok((end, out)) => {
                    if let Some(cov) = &mut self.coverage {
                        cov.hit(id.index(), alt_idx);
                    }
                    let value = self.finish_alt(
                        p.kind,
                        p.with_span,
                        p.text_takes_inner,
                        alt,
                        out,
                        pos,
                        end,
                    );
                    return Ok((end, value));
                }
                Err(_) => {
                    self.cx.state.rollback(mark);
                    self.cx.backtrack(id.0, pos);
                }
            }
        }
        Err(Fail)
    }

    #[allow(clippy::too_many_arguments)] // one call site; a struct would obscure it
    fn finish_alt(
        &mut self,
        kind: ProdKind,
        with_span: bool,
        text_takes_inner: bool,
        alt: &CAlt,
        out: Out,
        pos: u32,
        end: u32,
    ) -> Value {
        match kind {
            ProdKind::Void => Value::Unit,
            ProdKind::Text if text_takes_inner => {
                self.cx.inner_text(out, pos, end, self.g.cfg.text_only)
            }
            ProdKind::Text => self.cx.make_text(pos, end, self.g.cfg.text_only),
            ProdKind::Node => {
                let span = with_span.then(|| Span::new(pos, end));
                if alt.passthrough {
                    self.cx.pass_through(&alt.node_kind, out, span)
                } else {
                    self.cx.make_node(&alt.node_kind, out.into_values(), span)
                }
            }
        }
    }

    /// Optimized left recursion: match one of the first `bases`
    /// alternatives once, then fold the remaining ones, the tails.
    fn eval_lr_fold(&mut self, id: ProdId, bases: usize, pos: u32) -> PResult {
        let g = self.g;
        let p = &g.prods[id.index()];
        let (mut end, mut seed) = self.eval_alts(id, &p.alts[..bases], pos)?;
        'grow: loop {
            self.cx.guard()?;
            let byte = self.peek_byte(end);
            for (alt_idx, tail) in p.alts.iter().enumerate().skip(bases) {
                if let Some((first, desc)) = &tail.first {
                    if !first.admits(byte) {
                        self.cx.note(end, desc);
                        continue;
                    }
                }
                let mark = self.cx.state.mark();
                match self.eval(tail.expr, end) {
                    Ok((e2, out)) => {
                        if let Some(cov) = &mut self.coverage {
                            cov.hit(id.index(), alt_idx);
                        }
                        let mut children = vec![seed];
                        out.push_into(&mut children);
                        let span = p.with_span.then(|| Span::new(pos, e2));
                        seed = self.cx.make_node(&tail.node_kind, children, span);
                        end = e2;
                        continue 'grow;
                    }
                    Err(_) => {
                        self.cx.state.rollback(mark);
                        self.cx.stats.backtracks += 1;
                    }
                }
            }
            return Ok((end, seed));
        }
    }

    /// Unoptimized left recursion: Warth-style seed growing over the
    /// original alternatives, re-parsing from scratch each round.
    fn eval_lr_seed(&mut self, id: ProdId, pos: u32) -> PResult {
        let g = self.g;
        let p = &g.prods[id.index()];
        let slot = p
            .memo_slot
            .expect("left-recursive productions always have a slot");
        // Seed stores are part of the left-recursion protocol, not a cache:
        // the nested self-application must find them or recurse forever
        // (until the depth ceiling). They therefore bypass the budget
        // ladder's transient-only fallback — but not an abort, whose
        // in-flight results may be tainted.
        let epoch = if p.epoch_check {
            self.cx.state.epoch()
        } else {
            0
        };
        if self.cx.aborted().is_none() {
            self.seed_store(id, slot, pos, MemoAnswer::fail(epoch));
        }
        let mut best: Option<(u32, Value)> = None;
        loop {
            if self.cx.aborted().is_some() {
                break;
            }
            let r = self.eval_alts(id, &p.alts, pos);
            match r {
                Ok((end, v)) if best.as_ref().is_none_or(|(b, _)| end > *b) => {
                    if self.cx.aborted().is_some() {
                        break;
                    }
                    self.seed_store(id, slot, pos, MemoAnswer::success(epoch, end, v.clone()));
                    best = Some((end, v));
                }
                _ => break,
            }
        }
        best.ok_or(Fail)
    }

    fn seed_store(&mut self, id: ProdId, slot: u32, pos: u32, answer: MemoAnswer) {
        self.cx
            .telem
            .memo_store(id.0, pos, answer.outcome.is_some());
        self.cx.memo.store(slot, pos, answer);
        self.cx.stats.memo_stores += 1;
    }

    // ----- expressions -----

    /// Depth-guarded expression evaluation. Depth counts *expression
    /// frames* rather than production applications: production bodies can
    /// be arbitrarily large (inlining makes them larger still), so only a
    /// per-`eval` count tracks actual machine-stack consumption closely
    /// enough to make a ceiling meaningful across grammars.
    fn eval(&mut self, eid: EId, pos: u32) -> EvalResult {
        self.cx.check_depth(self.depth)?;
        self.depth += 1;
        let r = self.eval_expr(eid, pos);
        self.depth -= 1;
        r
    }

    fn eval_expr(&mut self, eid: EId, pos: u32) -> EvalResult {
        let g = self.g;
        let keep = g.keep[eid as usize];
        match &g.exprs[eid as usize] {
            CExpr::Empty => Ok((pos, Out::None)),
            CExpr::Any => {
                let matched = self.cx.any(pos);
                self.charge_char(pos, matched)
            }
            CExpr::Lit { text, desc } => {
                // Both strategies are charged the literal's whole length,
                // however early a byte-wise comparison stops: a sound
                // over-approximation of what the match depends on.
                self.examined = self.examined.max(pos.saturating_add(text.len() as u32));
                let matched = if g.cfg.string_match {
                    self.cx.lit(pos, text, desc)
                } else {
                    self.cx.lit_bytes(pos, text, desc)
                };
                matched.map(|end| (end, Out::None))
            }
            CExpr::Class { table, desc, .. } => {
                let matched = self.cx.cls(pos, table, desc);
                self.charge_char(pos, matched)
            }
            CExpr::Ref(id) => {
                let (end, value) = self.eval_prod(*id, pos)?;
                Ok((end, if keep { Out::One(value) } else { Out::None }))
            }
            CExpr::Seq(items) => {
                let mut p = pos;
                let mut values: Vec<Value> = Vec::new();
                for &x in items {
                    let (np, out) = self.eval(x, p)?;
                    p = np;
                    if keep {
                        out.push_into(&mut values);
                    }
                }
                Ok((p, Out::from_values(values)))
            }
            CExpr::Choice { arms, first } => {
                let byte = self.peek_byte(pos);
                for (i, &arm) in arms.iter().enumerate() {
                    if let Some(sets) = first {
                        let (set, desc) = &sets[i];
                        if !set.admits(byte) {
                            self.cx.note(pos, desc);
                            continue;
                        }
                    }
                    let mark = self.cx.state.mark();
                    match self.eval(arm, pos) {
                        Ok(r) => return Ok(r),
                        Err(_) => {
                            self.cx.state.rollback(mark);
                            self.cx.stats.backtracks += 1;
                        }
                    }
                }
                Err(Fail)
            }
            CExpr::Opt { inner, slot } => {
                if let Some(slot) = *slot {
                    return self.eval_opt_memo(eid, *inner, slot, pos);
                }
                let mark = self.cx.state.mark();
                match self.eval(*inner, pos) {
                    Ok((end, out)) => Ok((end, self.cx.normalize_opt(out))),
                    Err(_) => {
                        self.cx.state.rollback(mark);
                        Ok((
                            pos,
                            if keep {
                                Out::One(Value::Absent)
                            } else {
                                Out::None
                            },
                        ))
                    }
                }
            }
            CExpr::Star { inner, slot } => {
                if let Some(slot) = *slot {
                    return self.eval_rep_memo(eid, *inner, slot, pos);
                }
                self.eval_star_loop(eid, *inner, pos, Vec::new())
            }
            CExpr::Plus { inner, slot } => {
                let (p1, first_out) = self.eval(*inner, pos)?;
                let Some(slot) = *slot else {
                    // One list for first + rest: the loop keeps collecting
                    // into the first match's values.
                    let first = if keep {
                        first_out.into_values()
                    } else {
                        Vec::new()
                    };
                    return self.eval_star_loop(eid, *inner, p1, first);
                };
                // A memoized rest is a list of its own (it is shared with
                // the memo table), spliced behind the first match.
                let (end, rest_out) = self.eval_rep_memo(eid, *inner, slot, p1)?;
                if !keep {
                    return Ok((end, Out::None));
                }
                let mut items = first_out.into_values();
                if let Out::One(rest) = rest_out {
                    self.cx.push_spliced(&mut items, rest);
                }
                let list = self.cx.make_list(items);
                Ok((end, Out::One(list)))
            }
            CExpr::And(inner) => {
                let mark = self.cx.state.mark();
                self.cx.suppress += 1;
                let r = self.eval(*inner, pos);
                self.cx.suppress -= 1;
                self.cx.state.rollback(mark);
                r.map(|_| (pos, Out::None))
            }
            CExpr::Not(inner) => {
                let mark = self.cx.state.mark();
                self.cx.suppress += 1;
                let r = self.eval(*inner, pos);
                self.cx.suppress -= 1;
                self.cx.state.rollback(mark);
                match r {
                    Ok(_) => Err(Fail),
                    Err(_) => Ok((pos, Out::None)),
                }
            }
            CExpr::Capture(inner) => {
                let (end, _) = self.eval(*inner, pos)?;
                if keep {
                    let text = self.cx.make_text(pos, end, g.cfg.text_only);
                    Ok((end, Out::One(text)))
                } else {
                    Ok((end, Out::None))
                }
            }
            CExpr::Void(inner) => {
                let (end, _) = self.eval(*inner, pos)?;
                Ok((end, Out::None))
            }
            CExpr::SDefine(inner) => {
                // The inner value is the name (always kept, even under
                // value elision — the state operation needs it).
                let (end, out) = self.eval(*inner, pos)?;
                let name = self.cx.state_name(out.first(), pos, end).to_owned();
                self.cx.state.define(&name);
                Ok((end, out))
            }
            CExpr::SIsDef(inner) => {
                let (end, out) = self.eval(*inner, pos)?;
                let name = self.cx.state_name(out.first(), pos, end);
                if self.cx.state.is_defined(name) {
                    Ok((end, out))
                } else {
                    self.cx.note(pos, "defined name");
                    Err(Fail)
                }
            }
            CExpr::SIsNotDef(inner) => {
                let (end, out) = self.eval(*inner, pos)?;
                let name = self.cx.state_name(out.first(), pos, end);
                if self.cx.state.is_defined(name) {
                    self.cx.note(pos, "undefined name");
                    Err(Fail)
                } else {
                    Ok((end, out))
                }
            }
            CExpr::SScope(inner) => {
                let mark = self.cx.state.mark();
                self.cx.state.push_scope();
                match self.eval(*inner, pos) {
                    Ok(r) => {
                        self.cx.state.pop_scope();
                        Ok(r)
                    }
                    Err(e) => {
                        self.cx.state.rollback(mark);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Iterative `e*` or `e+` (the `iterative-repetition` optimization)
    /// `eid` over `inner`. Collected items are appended to `items` (an
    /// `e+`'s first match, or empty).
    fn eval_star_loop(
        &mut self,
        eid: EId,
        inner: EId,
        pos: u32,
        mut items: Vec<Value>,
    ) -> EvalResult {
        let g = self.g;
        // Repetition over a bare class — the lexical hot shape — takes the
        // bulk scanner unless the scalar reference path is forced.
        if !modpeg_runtime::scan::scalar_forced() {
            if let CExpr::Class { table, desc, .. } = &g.exprs[inner as usize] {
                return self.eval_class_run(table, desc, pos);
            }
        }
        let keep = g.keep[eid as usize];
        let mut p = pos;
        loop {
            // A repetition over bare terminals never reaches `eval_prod`,
            // so it must tick on its own to stay interruptible.
            self.cx.guard()?;
            let mark = self.cx.state.mark();
            match self.eval(inner, p) {
                Ok((np, out)) => {
                    if np == p {
                        break; // defensive: well-formedness forbids this
                    }
                    p = np;
                    if keep {
                        out.push_into(&mut items);
                    }
                }
                Err(_) => {
                    self.cx.state.rollback(mark);
                    break;
                }
            }
        }
        if keep {
            let list = self.cx.make_list(items);
            Ok((p, Out::One(list)))
        } else {
            Ok((p, Out::None))
        }
    }

    /// Bulk-scanned `class*` through [`RunCtx::class_run`], which keeps
    /// the observables tick for tick those of the scalar loop in
    /// [`Run::eval_star_loop`]; this adds that loop's `examined`
    /// watermark (each matched character's end, plus the failing probe's
    /// decode, or one past EOF) — on an abort, up to the last character
    /// probed.
    fn eval_class_run(
        &mut self,
        table: &modpeg_runtime::ClassTable,
        desc: &'r str,
        pos: u32,
    ) -> EvalResult {
        // First-iteration prologue, in scalar order: the abort
        // short-circuit, then (`depth` is loop-invariant) the per-`eval`
        // depth ceiling — which in the scalar loop fails *after* that
        // iteration's guard tick.
        if self.cx.aborted().is_some() {
            return Err(Fail);
        }
        if self.depth >= self.cx.max_depth() {
            self.cx.guard()?;
            return Err(self.cx.abort(ParseAbort::DepthExceeded));
        }
        match self.cx.class_run(pos, table, desc) {
            Ok(end) => {
                let _ = self.peek_char(end);
                Ok((end, Out::None))
            }
            Err(parked) => {
                self.examined = self.examined.max(parked);
                Err(Fail)
            }
        }
    }

    /// Memoized recursive `e*` — the unoptimized desugaring into an
    /// anonymous right-recursive helper production, one memo entry per
    /// (helper, position), lists rebuilt by consing.
    fn eval_rep_memo(&mut self, eid: EId, inner: EId, slot: u32, pos: u32) -> EvalResult {
        self.cx.guard()?;
        let keep = self.g.keep[eid as usize];
        let epoch_check = self.g.reads_state[eid as usize];
        if let Some(hit) = self.cx.lookup(REP_HELPER, slot, pos, epoch_check) {
            self.charge_extent(pos);
            // A repetition always succeeds, so a stored failure is
            // impossible; it would map to failure anyway.
            return hit.map(|(end, value)| (end, decode_helper(value)));
        }
        self.cx.stats.productions_evaluated += 1;
        // The desugared helper recurses once per repetition item, so it
        // consumes call stack like any production chain and must respect
        // the same ceiling.
        self.cx.check_depth(self.depth)?;
        self.depth += 1;
        let outer_examined = self.examined;
        self.examined = pos;
        let mark = self.cx.state.mark();
        let result: (u32, Out) = match self.eval(inner, pos) {
            Ok((np, out)) if np > pos => {
                let rest = self.eval_rep_memo(eid, inner, slot, np);
                let (end, rest) = match rest {
                    Ok(r) => r,
                    Err(e) => {
                        self.depth -= 1;
                        self.examined = outer_examined.max(self.examined);
                        return Err(e);
                    }
                };
                if keep {
                    let mut items = out.into_values();
                    if let Out::One(rest) = rest {
                        self.cx.push_spliced(&mut items, rest);
                    }
                    let list = self.cx.make_list(items);
                    (end, Out::One(list))
                } else {
                    (end, Out::None)
                }
            }
            Ok((_, _)) | Err(_) => {
                self.cx.state.rollback(mark);
                if keep {
                    let list = self.cx.make_list(Vec::new());
                    (pos, Out::One(list))
                } else {
                    (pos, Out::None)
                }
            }
        };
        self.depth -= 1;
        let encoded = encode_helper(&result.1);
        self.cx
            .store_answer(REP_HELPER, slot, pos, epoch_check, Ok((result.0, encoded)));
        self.close_extent(pos, outer_examined);
        Ok(result)
    }

    /// Memoized `e?` — the unoptimized desugaring of options.
    fn eval_opt_memo(&mut self, eid: EId, inner: EId, slot: u32, pos: u32) -> EvalResult {
        self.cx.guard()?;
        let epoch_check = self.g.reads_state[eid as usize];
        if let Some(hit) = self.cx.lookup(REP_HELPER, slot, pos, epoch_check) {
            self.charge_extent(pos);
            return hit.map(|(end, value)| (end, decode_helper(value)));
        }
        self.cx.stats.productions_evaluated += 1;
        let outer_examined = self.examined;
        self.examined = pos;
        let mark = self.cx.state.mark();
        let (end, out) = match self.eval(inner, pos) {
            Ok((end, out)) => (end, self.cx.normalize_opt(out)),
            Err(_) => {
                self.cx.state.rollback(mark);
                let absent = if self.g.keep[eid as usize] {
                    Out::One(Value::Absent)
                } else {
                    Out::None
                };
                (pos, absent)
            }
        };
        let encoded = encode_helper(&out);
        self.cx
            .store_answer(REP_HELPER, slot, pos, epoch_check, Ok((end, encoded)));
        self.close_extent(pos, outer_examined);
        Ok((end, out))
    }
}

/// A repetition helper's memo value: its single output, or `Unit` for
/// none (repetitions and options never produce more than one).
fn encode_helper(out: &Out) -> Value {
    match out {
        Out::None => Value::Unit,
        Out::One(v) => v.clone(),
        Out::Many(_) => unreachable!("repetitions produce lists; normalize_opt removed Many"),
    }
}

fn decode_helper(value: Value) -> Out {
    if value == Value::Unit {
        Out::None
    } else {
        Out::One(value)
    }
}

impl<'r, M: MemoTable> ParseRun<'r> for Run<'r, M> {
    type Memo = M;

    fn eval_root(&mut self, pos: u32) -> PResult {
        self.eval_prod(self.g.root, pos)
    }

    fn cx(&mut self) -> &mut RunCtx<'r, M> {
        &mut self.cx
    }
}

impl Engine for CompiledGrammar {
    /// Parses `text` as `req` asks. Governed runs can never overflow the
    /// stack (a governor without an explicit depth limit gets
    /// [`DEFAULT_MAX_DEPTH`](modpeg_runtime::DEFAULT_MAX_DEPTH)), spin
    /// past their deadline or fuel, or outgrow their memo budget —
    /// over-budget runs first evict cold memo columns, then fall back to
    /// transient-only parsing, and only abort as a last resort.
    ///
    /// # Examples
    ///
    /// ```
    /// use modpeg_core::{CharClass, Expr, GrammarBuilder, ProdKind};
    /// use modpeg_interp::{CompiledGrammar, OptConfig};
    /// use modpeg_runtime::{Engine, Governor, ParseAbort, ParseRequest};
    ///
    /// let mut b = GrammarBuilder::new("m");
    /// b.production("Word", ProdKind::Text, vec![(None, Expr::Capture(Box::new(
    ///     Expr::Plus(Box::new(Expr::Class(CharClass::from_ranges(
    ///         vec![('a', 'z')], false)))))))]);
    /// let grammar = b.build("Word")?;
    /// let parser = CompiledGrammar::compile(&grammar, OptConfig::all())?;
    ///
    /// let generous = Governor::new().with_fuel(10_000);
    /// assert!(parser.run("hello", ParseRequest::tree().governed(&generous)).0.is_ok());
    ///
    /// let starved = Governor::new().with_fuel(0);
    /// let (result, _) = parser.run("hello", ParseRequest::tree().governed(&starved));
    /// assert_eq!(result.unwrap_err().abort(), Some(ParseAbort::FuelExhausted));
    /// # Ok::<(), modpeg_core::Diagnostics>(())
    /// ```
    fn run(&self, text: &str, req: ParseRequest<'_>) -> Outcome {
        let (gov, telem) = (req.governor, req.telemetry);
        with_fresh_memo!(self, text, |memo| {
            engine::drive(text, req, || self.open(text, memo(), gov, telem)).0
        })
    }

    fn recover_policy(&self) -> RecoverPolicy {
        CompiledGrammar::recover_policy(self)
    }

    fn name(&self) -> &'static str {
        "interp"
    }
}

impl CompiledGrammar {
    /// Parses `text`, requiring the root production to consume all of it.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the farthest failure when the
    /// input does not match (or does not match completely).
    ///
    /// # Examples
    ///
    /// ```
    /// use modpeg_core::{Expr, GrammarBuilder, ProdKind};
    /// use modpeg_interp::{CompiledGrammar, OptConfig};
    ///
    /// let mut b = GrammarBuilder::new("m");
    /// b.production("Word", ProdKind::Text, vec![(None, Expr::Capture(Box::new(
    ///     Expr::Plus(Box::new(Expr::Class(modpeg_core::CharClass::from_ranges(
    ///         vec![('a', 'z')], false)))))))]);
    /// let grammar = b.build("Word")?;
    /// let parser = CompiledGrammar::compile(&grammar, OptConfig::all())?;
    /// let tree = parser.parse("hello").expect("matches");
    /// assert_eq!(tree.to_sexpr(), "\"hello\"");
    /// assert!(parser.parse("hello!").is_err());
    /// # Ok::<(), modpeg_core::Diagnostics>(())
    /// ```
    pub fn parse(&self, text: &str) -> Result<SyntaxTree, ParseError> {
        self.parse_with_stats(text).0
    }

    /// Like [`CompiledGrammar::parse`], also returning the run's [`Stats`]
    /// (memoization traffic, allocation accounting, backtracking counts).
    pub fn parse_with_stats(&self, text: &str) -> (Result<SyntaxTree, ParseError>, Stats) {
        engine::tree_result(self.run(text, ParseRequest::tree()))
    }

    /// Parses `text` in SAX event mode (see [`Mode::Events`]).
    ///
    /// [`Mode::Events`]: modpeg_runtime::Mode::Events
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] exactly as [`CompiledGrammar::parse`]
    /// does; no events are emitted for a failed parse.
    pub fn parse_events(&self, text: &str, sink: &mut dyn EventSink) -> Result<(), ParseError> {
        engine::events_result(self.run(text, ParseRequest::events(sink)))
    }

    /// Parses `text` resiliently: a failed region becomes a synthesized
    /// `$error` node, parsing resumes at the next synchronization byte
    /// from `policy` (see [`CompiledGrammar::recover_policy`]), and the
    /// result is always a tree spanning the whole input plus the
    /// [`Diagnostics`](modpeg_runtime::Diagnostics) for everything
    /// recovered from — the never-die entry point for editors and batch
    /// checkers.
    ///
    /// # Examples
    ///
    /// ```
    /// use modpeg_core::{CharClass, Expr, GrammarBuilder, ProdKind};
    /// use modpeg_interp::{CompiledGrammar, OptConfig};
    ///
    /// let mut b = GrammarBuilder::new("m");
    /// b.production("Words", ProdKind::Node, vec![(None, Expr::Plus(Box::new(
    ///     Expr::Ref("Word".into()))))]);
    /// b.production("Word", ProdKind::Text, vec![(None, Expr::seq(vec![
    ///     Expr::Capture(Box::new(Expr::Plus(Box::new(Expr::Class(
    ///         CharClass::from_ranges(vec![('a', 'z')], false)))))),
    ///     Expr::literal(";")]))]);
    /// let grammar = b.build("Words")?;
    /// let parser = CompiledGrammar::compile(&grammar, OptConfig::all())?;
    ///
    /// let rec = parser.parse_resilient("ab;!!;cd;", &parser.recover_policy());
    /// assert_eq!(rec.diagnostics.error_count(), 1);
    /// assert!(rec.tree.to_sexpr().contains("$error"));
    /// # Ok::<(), modpeg_core::Diagnostics>(())
    /// ```
    pub fn parse_resilient(&self, text: &str, policy: &RecoverPolicy) -> Recovered<SyntaxTree> {
        engine::recovered_result(self.run(text, ParseRequest::resilient(policy)))
    }

    /// [`Engine::run`] with a caller-supplied [`ChunkMemo`], enabling
    /// incremental reparsing: columns carried over from an earlier parse
    /// of the same document — after [`ChunkMemo::apply_edit`] translated
    /// them past an edit — are served as memo hits instead of being
    /// re-evaluated. The memo table is left in `memo` for reuse whatever
    /// the outcome.
    ///
    /// The grammar must have been compiled with the `chunks` optimization
    /// (e.g. [`OptConfig::incremental`]); without it the call degrades to
    /// an ordinary run and `memo` is untouched. A memo table whose
    /// geometry does not match this grammar and `text` is reset rather
    /// than trusted. Grammars that use parser state must not carry memo
    /// tables across edits at all — check [`CompiledGrammar::uses_state`]
    /// and reparse from scratch.
    ///
    /// After an abort, the table holds only complete answers when the
    /// grammar was compiled with the `left-recursion` optimization (e.g.
    /// [`OptConfig::incremental`]), so a retry may reuse it; without it,
    /// Warth-style seed growing parks provisional answers in the table
    /// mid-evaluation, and an aborted run's memo must be reset first.
    ///
    /// [`OptConfig::incremental`]: crate::OptConfig::incremental
    ///
    /// # Examples
    ///
    /// ```
    /// use modpeg_core::{CharClass, Expr, GrammarBuilder, ProdKind};
    /// use modpeg_interp::{CompiledGrammar, OptConfig};
    /// use modpeg_runtime::{ChunkMemo, ParseRequest};
    ///
    /// let mut b = GrammarBuilder::new("m");
    /// b.production("Word", ProdKind::Text, vec![(None, Expr::Capture(Box::new(
    ///     Expr::Plus(Box::new(Expr::Class(CharClass::from_ranges(
    ///         vec![('a', 'z')], false)))))))]);
    /// let grammar = b.build("Word")?;
    /// let parser = CompiledGrammar::compile(&grammar, OptConfig::incremental())?;
    ///
    /// // Priming parse populates the memo table.
    /// let mut memo = ChunkMemo::new(parser.memo_slot_count(), 5);
    /// assert!(parser.run_incremental("hello", ParseRequest::tree(), &mut memo).0.is_ok());
    ///
    /// // Replace bytes 1..3 ("el") with one byte, then reparse the edited
    /// // text reusing whatever survived the edit.
    /// memo.apply_edit(1, 2, 1);
    /// let (result, _) = parser.run_incremental("halo", ParseRequest::tree(), &mut memo);
    /// let tree = result.expect("still a word").tree.expect("tree mode");
    /// assert_eq!(tree.to_sexpr(), "\"halo\"");
    /// # Ok::<(), modpeg_core::Diagnostics>(())
    /// ```
    pub fn run_incremental(
        &self,
        text: &str,
        req: ParseRequest<'_>,
        memo: &mut ChunkMemo,
    ) -> Outcome {
        if !self.cfg.chunks {
            return self.run(text, req);
        }
        let (gov, telem) = (req.governor, req.telemetry);
        let (outcome, run) = engine::drive(text, req, || {
            let mut table = std::mem::replace(memo, ChunkMemo::new(0, 0));
            if !table.fits(self.n_slots, text.len() as u32) {
                table.reset_for(self.n_slots, text.len() as u32);
            }
            self.open(text, table, gov, telem)
        });
        if let Some(run) = run {
            *memo = run.cx.memo;
        }
        outcome
    }

    /// Like [`CompiledGrammar::parse`], additionally recording
    /// alternative-level grammar coverage (which alternatives of which
    /// productions matched). For directly left-recursive productions the
    /// alternative indices cover base alternatives first, then tails.
    ///
    /// With the `left-recursion` optimization *disabled* (seed growing),
    /// left-recursive productions record hits against their original
    /// alternative list instead of the base/tail split.
    pub fn parse_with_coverage(
        &self,
        text: &str,
    ) -> (Result<SyntaxTree, ParseError>, crate::Coverage) {
        let (outcome, coverage) = with_fresh_memo!(self, text, |memo| {
            let (outcome, run) = engine::drive(text, ParseRequest::tree(), || {
                let mut run = self.open(text, memo(), None, None);
                run.coverage = Some(self.empty_coverage());
                run
            });
            (outcome, run.and_then(|r| r.coverage))
        });
        let coverage = coverage.unwrap_or_else(|| self.empty_coverage());
        (engine::tree_result(outcome).0, coverage)
    }

    /// A coverage record with no hits, shaped like this grammar.
    fn empty_coverage(&self) -> crate::Coverage {
        let names = self.prods.iter().map(|p| p.name.clone()).collect();
        let labels = self
            .prods
            .iter()
            .map(|p| {
                p.alts
                    .iter()
                    .map(|a| a.node_kind.label().map(str::to_owned))
                    .collect()
            })
            .collect();
        crate::Coverage::new(names, labels)
    }

    /// Parses a prefix of `text`: succeeds as soon as the root matches,
    /// returning the tree and the number of bytes consumed. Shares the
    /// run context and the size guard with [`Engine::run`], but not its
    /// full-consumption rule.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when the root does not match at offset 0.
    pub fn parse_prefix(&self, text: &str) -> Result<(SyntaxTree, u32), ParseError> {
        if text.len() > u32::MAX as usize {
            return Err(engine::oversize_error());
        }
        with_fresh_memo!(self, text, |memo| {
            let mut run = self.open(text, memo(), None, None);
            match run.eval_root(0) {
                Ok((end, value)) => Ok((SyntaxTree::new(text, run.cx.materialize(value)), end)),
                Err(_) => Err(run.cx.error()),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptConfig;
    use modpeg_core::{CharClass, Expr as E, Grammar, GrammarBuilder};
    use modpeg_runtime::{recover, ParseFault, Parsed};
    use modpeg_telemetry::export::trace_text;
    use modpeg_telemetry::{EventKind, TelemetryReport};

    fn r(name: &str) -> E<String> {
        E::Ref(name.into())
    }

    fn lc() -> E<String> {
        E::Class(CharClass::from_ranges(vec![('a', 'z')], false))
    }

    fn calc_grammar() -> Grammar {
        let mut b = GrammarBuilder::new("calc");
        b.production(
            "Expr",
            ProdKind::Node,
            vec![
                (
                    Some("Add".into()),
                    E::seq(vec![r("Expr"), E::literal("+"), r("Term")]),
                ),
                (
                    Some("Sub".into()),
                    E::seq(vec![r("Expr"), E::literal("-"), r("Term")]),
                ),
                (None, r("Term")),
            ],
        );
        b.production(
            "Term",
            ProdKind::Node,
            vec![
                (
                    Some("Mul".into()),
                    E::seq(vec![r("Term"), E::literal("*"), r("Atom")]),
                ),
                (None, r("Atom")),
            ],
        );
        b.production(
            "Atom",
            ProdKind::Node,
            vec![
                (
                    Some("Paren".into()),
                    E::seq(vec![E::literal("("), r("Expr"), E::literal(")")]),
                ),
                (None, r("Num")),
            ],
        );
        b.production(
            "Num",
            ProdKind::Text,
            vec![(
                None,
                E::Capture(Box::new(E::Plus(Box::new(E::Class(
                    CharClass::from_ranges(vec![('0', '9')], false),
                ))))),
            )],
        );
        b.build("Expr").unwrap()
    }

    /// Tree-mode [`Engine::run`] under `gov`, the tree taken out of the
    /// product.
    fn governed(
        c: &CompiledGrammar,
        text: &str,
        gov: &Governor,
    ) -> (Result<SyntaxTree, ParseFault>, Stats) {
        let (r, stats) = c.run(text, ParseRequest::tree().governed(gov));
        (r.map(Parsed::into_tree), stats)
    }

    /// Tree-mode [`CompiledGrammar::run_incremental`], optionally governed.
    fn incremental(
        c: &CompiledGrammar,
        text: &str,
        memo: &mut ChunkMemo,
        gov: Option<&Governor>,
    ) -> (Result<SyntaxTree, ParseFault>, Stats) {
        let mut req = ParseRequest::tree();
        req.governor = gov;
        let (r, stats) = c.run_incremental(text, req, memo);
        (r.map(Parsed::into_tree), stats)
    }

    /// A tree-mode run reporting to a trace-masked collector of `cap`
    /// events, as `modpeg parse --trace` runs it.
    fn traced(c: &CompiledGrammar, text: &str, cap: usize) -> (bool, TelemetryReport) {
        let telem = Telemetry::collector(cap).with_mask(modpeg_telemetry::mask::TRACE);
        let (r, _) = c.run(text, ParseRequest::tree().with_telemetry(&telem));
        (r.is_ok(), telem.take_report())
    }

    fn all_configs() -> Vec<OptConfig> {
        (0..=crate::OPT_COUNT).map(OptConfig::cumulative).collect()
    }

    #[test]
    fn literal_and_class_matching() {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "P",
            ProdKind::Text,
            vec![(
                None,
                E::Capture(Box::new(E::seq(vec![E::literal("ab"), lc()]))),
            )],
        );
        let g = b.build("P").unwrap();
        for cfg in all_configs() {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            assert_eq!(c.parse("abz").unwrap().to_sexpr(), "\"abz\"", "{cfg:?}");
            assert!(c.parse("abZ").is_err());
            assert!(c.parse("ab").is_err());
        }
    }

    #[test]
    fn node_building_with_labels_and_passthrough() {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "S",
            ProdKind::Node,
            vec![
                (
                    Some("Pair".into()),
                    E::seq(vec![r("W"), E::literal(","), r("W")]),
                ),
                (None, r("W")),
            ],
        );
        b.production(
            "W",
            ProdKind::Text,
            vec![(None, E::Capture(Box::new(E::Plus(Box::new(lc())))))],
        );
        let g = b.build("S").unwrap();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        assert_eq!(
            c.parse("ab,cd").unwrap().to_sexpr(),
            "(S.Pair \"ab\" \"cd\")"
        );
        // Unlabeled single-element alternative passes through.
        assert_eq!(c.parse("ab").unwrap().to_sexpr(), "\"ab\"");
    }

    #[test]
    fn repetition_values() {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "S",
            ProdKind::Node,
            vec![(Some("List".into()), E::Star(Box::new(r("W"))))],
        );
        b.production(
            "W",
            ProdKind::Text,
            vec![(
                None,
                E::Capture(Box::new(E::seq(vec![lc(), E::literal(";")]))),
            )],
        );
        let g = b.build("S").unwrap();
        for cfg in all_configs() {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            assert_eq!(
                c.parse("a;b;c;").unwrap().to_sexpr(),
                "(S.List [\"a;\" \"b;\" \"c;\"])",
                "{:?}",
                cfg
            );
            assert_eq!(c.parse("").unwrap().to_sexpr(), "(S.List [])");
        }
    }

    /// `S = (W ";")+` with text leaves: one `e+` list per match.
    fn plus_grammar() -> Grammar {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "S",
            ProdKind::Node,
            vec![(Some("List".into()), E::Plus(Box::new(r("W"))))],
        );
        b.production(
            "W",
            ProdKind::Text,
            vec![(
                None,
                E::Capture(Box::new(E::seq(vec![lc(), E::literal(";")]))),
            )],
        );
        b.build("S").unwrap()
    }

    #[test]
    fn plus_builds_one_list_for_first_and_rest() {
        let g = plus_grammar();
        for cfg in [OptConfig::all(), OptConfig::all_except("chunks").unwrap()] {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            let (tree, stats) = c.parse_with_stats("a;b;c;");
            assert_eq!(tree.unwrap().to_sexpr(), "(S.List [\"a;\" \"b;\" \"c;\"])");
            assert_eq!((stats.nodes_built, stats.lists_built), (1, 1), "{cfg:?}");
        }
    }

    #[test]
    fn unchunked_rc_tree_streams_through_emit_events() {
        // Without chunked memoization the run builds `Rc` trees, and event
        // mode walks that owned tree instead of an arena region.
        let g = plus_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all_except("chunks").unwrap()).unwrap();
        let text = "a;b;c;";
        let tree = c.parse(text).unwrap();
        assert!(matches!(tree.root(), Value::Node(_)), "an owned tree");
        let mut sink = modpeg_runtime::TreeBuilder::new();
        c.parse_events(text, &mut sink).unwrap();
        assert_eq!(&sink.finish().expect("balanced event stream"), tree.root());
    }

    #[test]
    fn optional_values_present_and_absent() {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "S",
            ProdKind::Node,
            vec![(
                Some("Decl".into()),
                E::seq(vec![
                    r("W"),
                    E::Opt(Box::new(E::seq(vec![E::literal("="), r("W")]))),
                ]),
            )],
        );
        b.production(
            "W",
            ProdKind::Text,
            vec![(None, E::Capture(Box::new(E::Plus(Box::new(lc())))))],
        );
        let g = b.build("S").unwrap();
        for cfg in all_configs() {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            assert_eq!(c.parse("x=y").unwrap().to_sexpr(), "(S.Decl \"x\" \"y\")");
            assert_eq!(c.parse("x").unwrap().to_sexpr(), "(S.Decl \"x\" ~)");
        }
    }

    #[test]
    fn predicates() {
        let mut b = GrammarBuilder::new("m");
        // Keyword = "if" !letter
        b.production(
            "S",
            ProdKind::Node,
            vec![
                (
                    Some("Kw".into()),
                    E::seq(vec![
                        E::literal("if"),
                        E::Not(Box::new(lc())),
                        E::Star(Box::new(E::Any)),
                    ]),
                ),
                (
                    Some("Id".into()),
                    E::Capture(Box::new(E::Plus(Box::new(lc())))),
                ),
            ],
        );
        let g = b.build("S").unwrap();
        for cfg in [OptConfig::none(), OptConfig::all()] {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            assert_eq!(
                c.parse("if(")
                    .unwrap()
                    .root()
                    .as_node()
                    .unwrap()
                    .kind()
                    .as_str(),
                "S.Kw"
            );
            assert_eq!(
                c.parse("iffy")
                    .unwrap()
                    .root()
                    .as_node()
                    .unwrap()
                    .kind()
                    .as_str(),
                "S.Id"
            );
        }
    }

    #[test]
    fn left_recursion_builds_left_leaning_tree_in_both_modes() {
        let g = calc_grammar();
        for cfg in all_configs() {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            let t = c.parse("1+2-3").unwrap();
            assert_eq!(
                t.to_sexpr(),
                "(Expr.Sub (Expr.Add \"1\" \"2\") \"3\")",
                "{:?}",
                cfg
            );
        }
    }

    #[test]
    fn precedence_via_grammar_layering() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        assert_eq!(
            c.parse("1+2*3").unwrap().to_sexpr(),
            "(Expr.Add \"1\" (Term.Mul \"2\" \"3\"))"
        );
        assert_eq!(
            c.parse("(1+2)*3").unwrap().to_sexpr(),
            "(Term.Mul (Atom.Paren (Expr.Add \"1\" \"2\")) \"3\")"
        );
    }

    #[test]
    fn all_configs_agree_on_calc() {
        let g = calc_grammar();
        let reference = CompiledGrammar::compile(&g, OptConfig::none()).unwrap();
        let inputs = ["7", "1+2", "1+2*3-4", "(1-2)*(3+4)", "((((5))))"];
        for cfg in all_configs() {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            for input in inputs {
                let a = reference.parse(input).unwrap().to_sexpr();
                let b = c.parse(input).unwrap().to_sexpr();
                assert_eq!(a, b, "config {:?} diverged on {input}", cfg);
            }
            for bad in ["", "1+", "x", "(1", "1++2"] {
                assert!(c.parse(bad).is_err(), "{cfg:?} accepted {bad:?}");
            }
        }
    }

    #[test]
    fn parse_error_reports_farthest_failure() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let err = c.parse("1+2*").unwrap_err();
        assert_eq!(err.offset(), 4);
        let msg = err.to_string();
        assert!(msg.contains("expected"), "{msg}");
    }

    #[test]
    fn incomplete_consumption_is_an_error() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let err = c.parse("1+2 ").unwrap_err();
        assert_eq!(err.offset(), 3);
        assert!(err.to_string().contains("end of input"), "{err}");
        // parse_prefix accepts the same input.
        let (tree, consumed) = c.parse_prefix("1+2 ").unwrap();
        assert_eq!(consumed, 3);
        assert_eq!(tree.to_sexpr(), "(Expr.Add \"1\" \"2\")");
    }

    #[test]
    fn state_typedef_style_disambiguation() {
        // Decl = "def" Name ";"  (defines Name)
        // Use  = TypeName ";"    (TypeName only matches defined names)
        let mut b = GrammarBuilder::new("m");
        b.production(
            "Prog",
            ProdKind::Node,
            vec![(Some("P".into()), E::Plus(Box::new(r("Item"))))],
        );
        b.production(
            "Item",
            ProdKind::Node,
            vec![
                (
                    Some("Decl".into()),
                    E::seq(vec![
                        E::literal("def "),
                        E::StateDefine(Box::new(r("Name"))),
                        E::literal(";"),
                    ]),
                ),
                (
                    Some("Use".into()),
                    E::seq(vec![E::StateIsDef(Box::new(r("Name"))), E::literal(";")]),
                ),
                (
                    Some("Other".into()),
                    E::seq(vec![
                        E::Capture(Box::new(E::Plus(Box::new(lc())))),
                        E::literal("!"),
                    ]),
                ),
            ],
        );
        b.production(
            "Name",
            ProdKind::Text,
            vec![(None, E::Capture(Box::new(E::Plus(Box::new(lc())))))],
        );
        let g = b.build("Prog").unwrap();
        for cfg in [OptConfig::none(), OptConfig::all()] {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            let t = c.parse("def foo;foo;bar!").unwrap();
            assert_eq!(
                t.to_sexpr(),
                "(Prog.P [(Item.Decl \"foo\") (Item.Use \"foo\") (Item.Other \"bar\")])",
                "{:?}",
                cfg
            );
            // `baz;` without a prior def must not parse as Use.
            assert!(c.parse("baz;").is_err());
        }
    }

    #[test]
    fn state_scope_limits_definitions() {
        // Block = "{" Item* "}" in a scope; defs inside don't leak out.
        let mut b = GrammarBuilder::new("m");
        b.production(
            "Prog",
            ProdKind::Node,
            vec![(Some("P".into()), E::Plus(Box::new(r("Item"))))],
        );
        b.production(
            "Item",
            ProdKind::Node,
            vec![
                (
                    Some("Block".into()),
                    E::StateScope(Box::new(E::seq(vec![
                        E::literal("{"),
                        E::Star(Box::new(r("Item"))),
                        E::literal("}"),
                    ]))),
                ),
                (
                    Some("Decl".into()),
                    E::seq(vec![
                        E::literal("def "),
                        E::StateDefine(Box::new(r("Name"))),
                        E::literal(";"),
                    ]),
                ),
                (
                    Some("Use".into()),
                    E::seq(vec![E::StateIsDef(Box::new(r("Name"))), E::literal(";")]),
                ),
            ],
        );
        b.production(
            "Name",
            ProdKind::Text,
            vec![(None, E::Capture(Box::new(E::Plus(Box::new(lc())))))],
        );
        let g = b.build("Prog").unwrap();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        assert!(c.parse("{def x;x;}").is_ok());
        // x defined inside the block is not visible after it.
        assert!(c.parse("{def x;}x;").is_err());
        // Outer defs visible inside.
        assert!(c.parse("def y;{y;}").is_ok());
    }

    #[test]
    fn stats_reflect_memoization_strategy() {
        let g = calc_grammar();
        let naive = CompiledGrammar::compile(&g, OptConfig::none()).unwrap();
        let optimized = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let input = vec!["(1+2)*(3-4)*(5+6)"; 60].join("+");
        let (r1, s1) = naive.parse_with_stats(&input);
        let (r2, s2) = optimized.parse_with_stats(&input);
        assert!(r1.is_ok() && r2.is_ok());
        assert!(
            s1.memo_stores > s2.memo_stores,
            "naive stores more: {s1:?} vs {s2:?}"
        );
        assert!(s1.total_bytes() > s2.total_bytes());
        assert!(s2.memo_probes > 0);
    }

    #[test]
    fn failure_recording_mode_allocates() {
        let g = calc_grammar();
        let mut cfg = OptConfig::all();
        cfg.set("errors", false);
        let recording = CompiledGrammar::compile(&g, cfg).unwrap();
        let (_, stats) = recording.parse_with_stats("(1+2)*(3-4)");
        assert!(stats.failure_records > 0);
        let optimized = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let (_, s2) = optimized.parse_with_stats("(1+2)*(3-4)");
        assert_eq!(s2.failure_records, 0);
    }

    #[test]
    fn owned_text_mode_allocates_strings() {
        let g = calc_grammar();
        let mut cfg = OptConfig::all();
        cfg.set("text-only", false);
        let c = CompiledGrammar::compile(&g, cfg).unwrap();
        let (r, stats) = c.parse_with_stats("1+2");
        assert!(r.is_ok());
        assert!(stats.strings_built > 0);
        let (r2, s2) = CompiledGrammar::compile(&g, OptConfig::all())
            .unwrap()
            .parse_with_stats("1+2");
        assert!(r2.is_ok());
        assert_eq!(s2.strings_built, 0);
    }

    #[test]
    fn location_elision_controls_spans() {
        let g = calc_grammar();
        let with_spans = {
            let mut cfg = OptConfig::all();
            cfg.set("location-elision", false);
            CompiledGrammar::compile(&g, cfg).unwrap()
        };
        let t = with_spans.parse("1+2").unwrap();
        assert_eq!(t.root().as_node().unwrap().span(), Some(Span::new(0, 3)));
        let without = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let t2 = without.parse("1+2").unwrap();
        assert_eq!(t2.root().as_node().unwrap().span(), None);
    }

    #[test]
    fn trace_records_entries_exits_and_memo_hits() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let (ok, report) = traced(&c, "1+2", 10_000);
        assert!(ok);
        assert_eq!(report.dropped, 0);
        let text = trace_text(&report);
        assert!(text.contains("> calc.Expr @0"), "{text}");
        assert!(text.contains("ok"), "{text}");
        // Entries and exits balance.
        let count = |is_kind: fn(&EventKind) -> bool| {
            report.events.iter().filter(|e| is_kind(&e.kind)).count()
        };
        let enters = count(|k| matches!(k, EventKind::Enter { .. }));
        let exits = count(|k| matches!(k, EventKind::Exit { .. }));
        assert_eq!(enters, exits);
    }

    #[test]
    fn trace_shows_memo_hits_on_backtracking() {
        // S = A "x" / A "y": the second alternative re-queries A at the
        // same position and must be served from the memo table.
        let mut b = GrammarBuilder::new("m");
        b.production(
            "S",
            ProdKind::Node,
            vec![
                (Some("X".into()), E::seq(vec![r("A"), E::literal("x")])),
                (Some("Y".into()), E::seq(vec![r("A"), E::literal("y")])),
            ],
        );
        b.production(
            "A",
            ProdKind::Text,
            vec![(
                None,
                E::Capture(Box::new(E::seq(vec![
                    E::Plus(Box::new(E::literal("a"))),
                    E::Opt(Box::new(E::literal("b"))),
                    E::Opt(Box::new(E::literal("c"))),
                    E::Opt(Box::new(E::literal("d"))),
                    E::Opt(Box::new(E::literal("e"))),
                ]))),
            )],
        );
        let g = b.build("S").unwrap();
        let mut cfg = OptConfig::all();
        cfg.set("terminal-dispatch", false); // keep both alternatives live
        let c = CompiledGrammar::compile(&g, cfg).unwrap();
        let (ok, report) = traced(&c, "aay", 10_000);
        assert!(ok);
        let has_memo = report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::MemoHit { prod, .. } if prod != REP_HELPER));
        assert!(has_memo, "{}", trace_text(&report));
    }

    #[test]
    fn trace_truncates_at_cap() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let (_, report) = traced(&c, "(1+2)*(3+4)", 8);
        assert!(report.dropped > 0);
        assert_eq!(report.events.len(), 8);
        assert!(trace_text(&report).ends_with(&format!("… {} events dropped\n", report.dropped)));
    }

    #[test]
    fn incremental_reparse_agrees_with_full_reparse_and_reuses_entries() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::incremental()).unwrap();
        let before = "1+2*3+(4-5)+6";
        let mut memo = ChunkMemo::new(c.memo_slot_count(), before.len() as u32);
        let (r1, _) = incremental(&c, before, &mut memo, None);
        assert!(r1.is_ok());
        // Replace the "3" at offset 4 with "33".
        let after = "1+2*33+(4-5)+6";
        memo.apply_edit(4, 1, 2);
        let (r2, stats) = incremental(&c, after, &mut memo, None);
        assert_eq!(r2.unwrap().to_sexpr(), c.parse(after).unwrap().to_sexpr());
        // The parenthesized group right of the edit is served from memo,
        // with its spans translated on first probe.
        assert!(stats.memo_hits > 0, "{stats:?}");
        assert!(stats.memo_entries_shifted > 0, "{stats:?}");
    }

    #[test]
    fn incremental_append_at_end_invalidates_eof_peeks() {
        // "1+2" -> "1+24": the Num that matched "2" peeked end of input,
        // so its column must not survive an append there.
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::incremental()).unwrap();
        let mut memo = ChunkMemo::new(c.memo_slot_count(), 3);
        let (r1, _) = incremental(&c, "1+2", &mut memo, None);
        assert!(r1.is_ok());
        memo.apply_edit(3, 0, 1);
        let (r2, _) = incremental(&c, "1+24", &mut memo, None);
        assert_eq!(r2.unwrap().to_sexpr(), c.parse("1+24").unwrap().to_sexpr());
    }

    #[test]
    fn incremental_deletion_agrees_with_full_reparse() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::incremental()).unwrap();
        let before = "(1+2)*(3+4)*(5+6)";
        let mut memo = ChunkMemo::new(c.memo_slot_count(), before.len() as u32);
        let (r1, _) = incremental(&c, before, &mut memo, None);
        assert!(r1.is_ok());
        // Delete "*(3+4)" (offsets 5..11).
        let after = "(1+2)*(5+6)";
        memo.apply_edit(5, 6, 0);
        let (r2, _) = incremental(&c, after, &mut memo, None);
        assert_eq!(r2.unwrap().to_sexpr(), c.parse(after).unwrap().to_sexpr());
    }

    #[test]
    fn incremental_records_root_extent() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::incremental()).unwrap();
        let text = "1+2*3";
        let mut memo = ChunkMemo::new(c.memo_slot_count(), text.len() as u32);
        let (r, _) = incremental(&c, text, &mut memo, None);
        assert!(r.is_ok());
        // The root evaluation examined the whole input (and peeked EOF).
        assert!(memo.extent_at(0) >= text.len() as u32);
    }

    #[test]
    fn incremental_with_mismatched_memo_resets_and_parses() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::incremental()).unwrap();
        let mut memo = ChunkMemo::new(1, 1); // deliberately wrong geometry
        let (r, _) = incremental(&c, "1+2*3", &mut memo, None);
        assert!(r.is_ok());
        assert!(memo.fits(c.memo_slot_count(), 5));
    }

    #[test]
    fn incremental_without_chunks_degrades_to_full_parse() {
        let g = calc_grammar();
        let cfg = OptConfig::all_except("chunks").unwrap();
        let c = CompiledGrammar::compile(&g, cfg).unwrap();
        let mut memo = ChunkMemo::new(3, 3);
        let (r, _) = incremental(&c, "1+2", &mut memo, None);
        assert!(r.is_ok());
    }

    #[test]
    fn uses_state_flags_stateful_grammars_only() {
        assert!(!CompiledGrammar::compile(&calc_grammar(), OptConfig::all())
            .unwrap()
            .uses_state());
        let mut b = GrammarBuilder::new("m");
        b.production(
            "S",
            ProdKind::Node,
            vec![(
                Some("D".into()),
                E::StateDefine(Box::new(E::Capture(Box::new(E::Plus(Box::new(lc())))))),
            )],
        );
        let g = b.build("S").unwrap();
        for cfg in [OptConfig::none(), OptConfig::incremental()] {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            assert!(c.uses_state(), "{cfg:?}");
        }
    }

    #[test]
    fn governed_parse_without_limits_matches_ungoverned() {
        let g = calc_grammar();
        for cfg in all_configs() {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            for input in ["7", "1+2*3-4", "(1-2)*(3+4)", "1+", ""] {
                let gov = Governor::new();
                let (governed, _) = governed(&c, input, &gov);
                match (c.parse(input), governed) {
                    (Ok(a), Ok(b)) => assert_eq!(a.to_sexpr(), b.to_sexpr(), "{cfg:?} {input}"),
                    (Err(a), Err(b)) => {
                        let fault = b.syntax().expect("no limits, so only syntax faults");
                        assert_eq!(a.offset(), fault.offset(), "{cfg:?} {input}");
                    }
                    (a, b) => panic!("{cfg:?} diverged on {input:?}: {a:?} vs {b:?}"),
                }
                assert!(gov.tripped().is_none());
            }
        }
    }

    #[test]
    fn fuel_abort_is_deterministic_then_retry_succeeds() {
        let g = calc_grammar();
        for cfg in [
            OptConfig::none(),
            OptConfig::all(),
            OptConfig::incremental(),
        ] {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            let input = "(1+2)*(3-4)+(5+6)*7";
            let probe = Governor::new();
            assert!(governed(&c, input, &probe).0.is_ok());
            let total = probe.steps();
            assert!(total > 10, "expected a nontrivial step count, got {total}");
            // Starving the parse at any point aborts with FuelExhausted...
            for fuel in [0, 1, total / 2, total - 1] {
                let gov = Governor::new().with_fuel(fuel);
                let (r, _) = governed(&c, input, &gov);
                assert_eq!(
                    r.unwrap_err().abort(),
                    Some(ParseAbort::FuelExhausted),
                    "{cfg:?} fuel={fuel}"
                );
                assert_eq!(gov.tripped(), Some(ParseAbort::FuelExhausted));
            }
            // ...exactly `total` steps suffice, and the result is identical.
            let gov = Governor::new().with_fuel(total);
            let (r, _) = governed(&c, input, &gov);
            assert_eq!(
                r.unwrap().to_sexpr(),
                c.parse(input).unwrap().to_sexpr(),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn depth_ceiling_aborts_instead_of_overflowing() {
        let g = calc_grammar();
        // 20_000 nested parens would overflow any test-thread stack; the
        // default ceiling must turn that into a structured abort.
        let deep = format!("{}1{}", "(".repeat(20_000), ")".repeat(20_000));
        for cfg in [OptConfig::none(), OptConfig::all()] {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            let gov = Governor::new();
            let (r, _) = governed(&c, &deep, &gov);
            assert_eq!(
                r.unwrap_err().abort(),
                Some(ParseAbort::DepthExceeded),
                "{cfg:?}"
            );
        }
        // A tight explicit ceiling rejects shallow nesting a generous one
        // accepts.
        let mild = format!("{}1{}", "(".repeat(50), ")".repeat(50));
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let tight = Governor::new().with_max_depth(40);
        assert_eq!(
            governed(&c, &mild, &tight).0.unwrap_err().abort(),
            Some(ParseAbort::DepthExceeded)
        );
        let roomy = Governor::new().with_max_depth(1_000);
        assert!(governed(&c, &mild, &roomy).0.is_ok());
    }

    #[test]
    fn pre_cancelled_and_pre_expired_governors_abort_immediately() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let token = modpeg_runtime::CancelToken::new();
        token.cancel();
        let gov = Governor::new().with_cancel(token);
        let (r, stats) = governed(&c, "1+2", &gov);
        assert_eq!(r.unwrap_err().abort(), Some(ParseAbort::Cancelled));
        assert_eq!(stats.productions_evaluated, 0);
        let gov = Governor::new().with_deadline(std::time::Duration::ZERO);
        let (r, _) = governed(&c, "1+2", &gov);
        assert_eq!(r.unwrap_err().abort(), Some(ParseAbort::DeadlineExceeded));
    }

    #[test]
    fn memo_budget_degrades_gracefully_before_aborting() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let input = vec!["(1+2)*(3-4)*(5+6)"; 80].join("+");
        let unbounded = Governor::new();
        let (r, full_stats) = governed(&c, &input, &unbounded);
        assert!(r.is_ok());
        assert!(full_stats.memo_bytes > 4_096, "{full_stats:?}");
        // A budget well below the natural footprint: the ladder evicts
        // and/or goes transient, but the parse still completes correctly.
        let budget = full_stats.memo_bytes / 4;
        let gov = Governor::new().with_memo_budget(budget);
        let (r, stats) = governed(&c, &input, &gov);
        assert_eq!(r.unwrap().to_sexpr(), c.parse(&input).unwrap().to_sexpr());
        assert!(
            stats.gov_evictions > 0 || stats.gov_transient_fallbacks > 0,
            "budget {budget} never triggered the ladder: {stats:?}"
        );
        assert!(stats.memo_bytes <= budget, "{stats:?}");
        // A budget below the irreducible floor aborts with MemoBudget.
        let gov = Governor::new().with_memo_budget(16);
        let (r, _) = governed(&c, &input, &gov);
        assert_eq!(r.unwrap_err().abort(), Some(ParseAbort::MemoBudget));
    }

    #[test]
    fn aborted_incremental_parse_leaves_memo_reusable() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::incremental()).unwrap();
        let text = "(1+2)*(3+4)+(5-6)*(7+8)";
        // Abort at various points; retrying with the surviving memo must
        // agree with a scratch parse (the `left-recursion` optimization is
        // on, so pre-abort entries are complete answers).
        let probe = Governor::new();
        let mut memo = ChunkMemo::new(c.memo_slot_count(), text.len() as u32);
        let (r, _) = incremental(&c, text, &mut memo, Some(&probe));
        assert!(r.is_ok());
        let total = probe.steps();
        memo.reset_for(c.memo_slot_count(), text.len() as u32);
        for fuel in [1, total / 3, 2 * total / 3] {
            let gov = Governor::new().with_fuel(fuel);
            let (r, _) = incremental(&c, text, &mut memo, Some(&gov));
            assert_eq!(r.unwrap_err().abort(), Some(ParseAbort::FuelExhausted));
            // Every surviving column still respects the extent invariant
            // that apply_edit relies on (extents are recorded alongside
            // the stores that happened, none after the abort).
            for (pos, extent, _) in memo.occupied_columns() {
                assert!(pos.saturating_add(extent) <= text.len() as u32 + 1);
            }
            let retry = Governor::new();
            let (r, _) = incremental(&c, text, &mut memo, Some(&retry));
            assert_eq!(
                r.unwrap().to_sexpr(),
                c.parse(text).unwrap().to_sexpr(),
                "retry after fuel={fuel} diverged"
            );
            memo.reset_for(c.memo_slot_count(), text.len() as u32);
        }
        // apply_edit after an abort stays sound: edit, then reparse.
        let gov = Governor::new().with_fuel(total / 2);
        let (r, _) = incremental(&c, text, &mut memo, Some(&gov));
        assert!(r.is_err());
        let edited = "(1+2)*(30+4)+(5-6)*(7+8)";
        memo.apply_edit(7, 1, 2);
        let (r, _) = incremental(&c, edited, &mut memo, Some(&Governor::new()));
        assert_eq!(r.unwrap().to_sexpr(), c.parse(edited).unwrap().to_sexpr());
    }

    #[test]
    fn linear_memo_growth_on_backtracking_grammar() {
        // S = A "x" / A "y" ; A = "a"+ — classic shared-prefix backtracking.
        let mut b = GrammarBuilder::new("m");
        b.production(
            "S",
            ProdKind::Node,
            vec![
                (Some("X".into()), E::seq(vec![r("A"), E::literal("x")])),
                (Some("Y".into()), E::seq(vec![r("A"), E::literal("y")])),
            ],
        );
        // A is deliberately large enough that the inliner leaves it alone
        // (inlining would duplicate the work instead of memoizing it).
        b.production(
            "A",
            ProdKind::Text,
            vec![(
                None,
                E::Capture(Box::new(E::seq(vec![
                    E::Plus(Box::new(E::literal("a"))),
                    E::Opt(Box::new(E::literal("b"))),
                    E::Opt(Box::new(E::literal("c"))),
                    E::Opt(Box::new(E::literal("d"))),
                    E::Opt(Box::new(E::literal("e"))),
                ]))),
            )],
        );
        let g = b.build("S").unwrap();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let input = format!("{}y", "a".repeat(100));
        let (r, stats) = c.parse_with_stats(&input);
        assert!(r.is_ok());
        // A is evaluated once at position 0 and served from memo for the
        // second alternative.
        assert!(stats.memo_hits >= 1, "{stats:?}");
    }

    /// `Stmts = Stmt+ ; Stmt = Word ";"` with `@recover(";")` on `Stmt`.
    fn stmts_grammar() -> Grammar {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "Stmts",
            ProdKind::Node,
            vec![(Some("Prog".into()), E::Plus(Box::new(r("Stmt"))))],
        );
        b.production(
            "Stmt",
            ProdKind::Node,
            vec![(Some("S".into()), E::seq(vec![r("Word"), E::literal(";")]))],
        );
        b.recover(&[";"]);
        b.production(
            "Word",
            ProdKind::Text,
            vec![(None, E::Capture(Box::new(E::Plus(Box::new(lc())))))],
        );
        b.build("Stmts").unwrap()
    }

    #[test]
    fn resilient_clean_input_matches_plain_parse() {
        let g = stmts_grammar();
        for cfg in all_configs() {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            let rec = c.parse_resilient("ab;cd;", &c.recover_policy());
            assert!(rec.diagnostics.is_clean(), "{cfg:?}");
            assert!(!rec.diagnostics.truncated);
            assert_eq!(
                rec.tree.to_sexpr(),
                c.parse("ab;cd;").unwrap().to_sexpr(),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn resilient_recovers_past_garbage_with_error_node() {
        let g = stmts_grammar();
        // The `;` terminator is not in FIRST(root), so the policy consumes
        // it on resume: one diagnostic, not a cascade.
        let mut reference: Option<(String, Vec<(u32, Span)>)> = None;
        for cfg in all_configs() {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            let policy = c.recover_policy();
            assert!(policy.consume.contains(b';'), "{cfg:?}");
            let rec = c.parse_resilient("ab;12;cd;", &policy);
            assert_eq!(rec.diagnostics.error_count(), 1, "{cfg:?}");
            let d = &rec.diagnostics.errors[0];
            assert_eq!(d.error.offset(), 3, "{cfg:?}");
            assert_eq!(d.skipped, Span::new(3, 6), "{cfg:?}");
            assert_eq!(d.resumed_at(), 6, "{cfg:?}");
            let sexpr = rec.tree.to_sexpr();
            assert!(sexpr.contains(recover::RECOVERED_KIND), "{cfg:?}: {sexpr}");
            assert_eq!(recover::count_error_nodes(rec.tree.root()), 1, "{cfg:?}");
            // Diagnostics and tree shape are identical across configs.
            let shape = (
                sexpr,
                rec.diagnostics
                    .errors
                    .iter()
                    .map(|d| (d.error.offset(), d.skipped))
                    .collect::<Vec<_>>(),
            );
            match &reference {
                None => reference = Some(shape),
                Some(want) => assert_eq!(&shape, want, "{cfg:?} diverged"),
            }
        }
    }

    #[test]
    fn resilient_truncates_at_max_errors() {
        let g = stmts_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let policy = c.recover_policy().with_max_errors(2);
        // Three seeded errors but a budget of two: the tail is swallowed
        // by one final unreported `$error` node.
        let rec = c.parse_resilient("1;ab;2;cd;3;ef;", &policy);
        assert_eq!(rec.diagnostics.error_count(), 2);
        assert!(rec.diagnostics.truncated);
        assert_eq!(recover::count_error_nodes(rec.tree.root()), 3);
    }

    #[test]
    fn resilient_governed_still_aborts_on_fuel() {
        let g = stmts_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let policy = c.recover_policy();
        let gov = Governor::new().with_fuel(3);
        let (r, _) = c.run("ab;12;cd;", ParseRequest::resilient(&policy).governed(&gov));
        assert_eq!(r.unwrap_err().abort(), Some(ParseAbort::FuelExhausted));
        // With ample fuel the governed path agrees with the plain one.
        let gov = Governor::new();
        let (r, _) = c.run("ab;12;cd;", ParseRequest::resilient(&policy).governed(&gov));
        let rec = r.unwrap();
        assert_eq!(rec.diagnostics.error_count(), 1);
        assert_eq!(
            rec.tree.unwrap().to_sexpr(),
            c.parse_resilient("ab;12;cd;", &c.recover_policy())
                .tree
                .to_sexpr()
        );
    }

    #[test]
    fn resilient_incremental_agrees_and_returns_reusable_memo() {
        let g = stmts_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::incremental()).unwrap();
        let text = "ab;12;cd;";
        let policy = c.recover_policy();
        let mut memo = ChunkMemo::new(c.memo_slot_count(), text.len() as u32);
        let resilient = |memo: &mut ChunkMemo| {
            let (r, stats) = c.run_incremental(text, ParseRequest::resilient(&policy), memo);
            (engine::recovered_result((r, Stats::default())), stats)
        };
        let (rec, _) = resilient(&mut memo);
        assert_eq!(rec.diagnostics.error_count(), 1);
        assert_eq!(
            rec.tree.to_sexpr(),
            c.parse_resilient(text, &policy).tree.to_sexpr()
        );
        // The surviving memo is reusable: a second resilient parse over the
        // same text hits it and agrees.
        let (again, stats) = resilient(&mut memo);
        assert_eq!(again.tree.to_sexpr(), rec.tree.to_sexpr());
        assert!(stats.memo_hits >= 1, "{stats:?}");
    }

    #[test]
    fn resilient_events_round_trip_to_same_tree() {
        let g = stmts_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let text = "ab;12;cd;";
        let policy = c.recover_policy();
        let mut sink = modpeg_runtime::TreeBuilder::new();
        let (r, _) = c.run(text, ParseRequest::resilient_events(&policy, &mut sink));
        assert_eq!(r.unwrap().diagnostics.error_count(), 1);
        let rebuilt = sink.finish().expect("balanced event stream");
        let rec = c.parse_resilient(text, &policy);
        assert_eq!(rebuilt.to_sexpr(text), rec.tree.root().to_sexpr(text));
    }

    #[test]
    fn coverage_labels_follow_the_evaluated_alternatives() {
        let set = modpeg_syntax::parse_module_set([r#"
            module s;
            public Node Sum = <Add> Sum "+" Word / Word ;
            String Word = $[a-z]+ ;
        "#])
        .unwrap();
        let g = set.elaborate("s", None).unwrap();
        // Seed growing indexes the original alternatives, the fold the
        // base and then the tail: either way `a` leaves `<Add>` uncovered.
        for cfg in [
            OptConfig::all_except("left-recursion").unwrap(),
            OptConfig::all(),
        ] {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            let (tree, cov) = c.parse_with_coverage("a");
            assert!(tree.is_ok());
            assert_eq!(
                cov.uncovered(),
                vec![("s.Sum".to_owned(), "<Add>".to_owned())]
            );
        }
    }
}
