//! The packrat evaluator: executes a [`CompiledGrammar`] against input.
//!
//! Every optimization flag changes *how* this module works, never *what*
//! it produces — the property tests assert that any two configurations
//! yield identical syntax trees on identical input.

use modpeg_core::{ProdId, ProdKind};
use modpeg_runtime::{
    engine, ChunkMemo, Engine, EventSink, Fail, Failures, Governor, HashMemo, Input, MemoAnswer,
    MemoTable, NodeKind, Out, Outcome, ParseAbort, ParseError, ParseRequest, ParseRun,
    RecoverPolicy, Recovered, ScopedState, Span, Stats, SyntaxTree, Value, DEFAULT_MAX_DEPTH,
};
use modpeg_telemetry::{Telemetry, REP_HELPER};

use crate::compile::{CAlt, CExpr, CompiledGrammar, EId};

enum Memo {
    Hash(HashMemo),
    Chunk(ChunkMemo),
}

impl Memo {
    fn probe(&mut self, slot: u32, pos: u32) -> Option<&MemoAnswer> {
        match self {
            Memo::Hash(m) => m.probe(slot, pos),
            // Settling is a no-op outside incremental sessions (bias 0),
            // and mandatory inside them — so always probe through it.
            Memo::Chunk(m) => m.probe_settled(slot, pos),
        }
    }

    fn record_extent(&mut self, pos: u32, len: u32) {
        if let Memo::Chunk(m) = self {
            m.record_extent(pos, len);
        }
    }

    fn extent_at(&self, pos: u32) -> u32 {
        match self {
            Memo::Hash(_) => 0,
            Memo::Chunk(m) => m.extent_at(pos),
        }
    }

    fn store(&mut self, slot: u32, pos: u32, ans: MemoAnswer) {
        match self {
            Memo::Hash(m) => m.store(slot, pos, ans),
            Memo::Chunk(m) => m.store(slot, pos, ans),
        }
    }

    fn retained_bytes(&self) -> u64 {
        match self {
            Memo::Hash(m) => m.retained_bytes(),
            Memo::Chunk(m) => m.retained_bytes(),
        }
    }
}

type EvalResult = Result<(u32, Out), Fail>;

struct Run<'g, 'i> {
    g: &'g CompiledGrammar,
    input: Input<'i>,
    memo: Memo,
    state: ScopedState,
    failures: Failures,
    stats: Stats,
    /// High-water mark of input offsets examined since the innermost
    /// memoized evaluation began: the basis of the per-column lookahead
    /// extents that incremental sessions use to invalidate soundly. A peek
    /// past the end of input counts as examining one byte beyond it.
    examined: u32,
    /// Failure recording is suppressed inside predicates.
    suppress: u32,
    /// Alternative-coverage recording, when requested.
    coverage: Option<crate::Coverage>,
    /// Telemetry hooks. Disabled by default; every hook is then a single
    /// branch on the handle's cached flag, which the E11 bench holds
    /// under 1% of parse time.
    telem: Telemetry,
    /// Production-nesting depth (for telemetry spans; distinct from
    /// `depth`, which counts expression frames for the stack ceiling).
    prod_depth: u32,
    /// Resource governor for this run, when the parse is governed.
    gov: Option<&'g Governor>,
    /// First abort observed. Once set, every memo store is suppressed and
    /// every guard fails, so the run unwinds without corrupting the table;
    /// the top level trusts this field over the unwind's nominal outcome
    /// (a `!p` predicate can invert an abort-induced failure).
    aborted: Option<ParseAbort>,
    /// Production applications currently on the call stack.
    depth: u32,
    /// Recursion ceiling ([`u32::MAX`] for ungoverned runs).
    max_depth: u32,
    /// Memo-byte budget ([`u64::MAX`] for ungoverned runs).
    memo_budget: u64,
    /// Set when the memo-budget ladder reached transient-only parsing:
    /// existing entries are still served, but nothing new is stored.
    memo_frozen: bool,
}

impl<'g, 'i> Run<'g, 'i> {
    /// Opens a run over `text` on `memo` (a fresh table of the configured
    /// flavour when `None`), under `gov`'s limits and reporting to `telem`
    /// when given.
    fn new(
        g: &'g CompiledGrammar,
        text: &'i str,
        memo: Option<ChunkMemo>,
        gov: Option<&'g Governor>,
        telem: Option<&Telemetry>,
    ) -> Self {
        let input = Input::new(text);
        let memo = match memo {
            Some(m) => Memo::Chunk(m),
            None if g.cfg.chunks => Memo::Chunk(ChunkMemo::new(g.n_slots, input.len())),
            None => Memo::Hash(HashMemo::new()),
        };
        let failures = if g.cfg.errors {
            Failures::new()
        } else {
            Failures::recording()
        };
        let mut run = Run {
            g,
            input,
            memo,
            state: ScopedState::new(),
            failures,
            stats: Stats::default(),
            examined: 0,
            suppress: 0,
            coverage: None,
            telem: Telemetry::disabled(),
            prod_depth: 0,
            gov: None,
            aborted: None,
            depth: 0,
            max_depth: u32::MAX,
            memo_budget: u64::MAX,
            memo_frozen: false,
        };
        if let Some(gov) = gov {
            run.install_governor(gov);
        }
        if let Some(telem) = telem {
            run.install_telemetry(telem);
        }
        run
    }

    /// Puts the run under `gov`'s limits. Unset governor limits fall back
    /// to [`DEFAULT_MAX_DEPTH`] (stack safety is non-negotiable once a run
    /// is governed) and an unlimited memo budget.
    fn install_governor(&mut self, gov: &'g Governor) {
        self.max_depth = gov.max_depth().unwrap_or(DEFAULT_MAX_DEPTH);
        self.memo_budget = gov.memo_budget().unwrap_or(u64::MAX);
        self.gov = Some(gov);
    }

    /// Attaches a telemetry handle; production names and the input length
    /// are installed on the collector so its reports are self-describing.
    /// A disabled handle is a no-op (the run keeps its inert default).
    fn install_telemetry(&mut self, telem: &Telemetry) {
        if telem.is_enabled() {
            telem.set_names(self.g.prods.iter().map(|p| p.name.clone()).collect());
            telem.set_input_len(self.input.len());
            self.telem = telem.clone();
        }
    }

    fn note(&mut self, pos: u32, desc: &str) {
        if self.suppress == 0 {
            self.failures.note(pos, desc);
        }
    }

    // ----- resource governance -----

    /// One evaluation step: fails when the run has already aborted or the
    /// governor's fuel/deadline/cancellation trips. Ungoverned runs pay one
    /// branch on `aborted` and one on `gov`.
    #[inline]
    fn guard(&mut self) -> Result<(), Fail> {
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

    /// Records the run's first abort (and trips the governor so concurrent
    /// observers see it), returning the `Fail` to unwind with.
    #[cold]
    fn abort(&mut self, kind: ParseAbort) -> Fail {
        if let Some(gov) = self.gov {
            gov.trip(kind);
        }
        if self.aborted.is_none() {
            self.aborted = Some(kind);
            self.telem.gov_abort(kind.name());
        }
        Fail
    }

    /// Stores a memo answer unless the run has aborted (in-flight results
    /// may be tainted) or fell back to transient-only parsing, then
    /// enforces the memo budget (`retained_bytes` is O(1) counter
    /// arithmetic for both table flavours, so budgeted runs can afford the
    /// check on every store).
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

    /// The memo-budget degradation ladder: evict cold columns first, fall
    /// back to transient-only parsing second, abort only when even the
    /// empty table exceeds the budget.
    #[cold]
    fn enforce_memo_budget(&mut self, hot_from: u32) {
        if self.memo.retained_bytes() <= self.memo_budget {
            return;
        }
        // Rung 1: memo entries are a pure cache, so dropping the cold ones
        // (strictly left of the current position) can never change the
        // result — only cost re-evaluation on a far-left backtrack.
        self.stats.gov_evictions += 1;
        let freed = match &mut self.memo {
            Memo::Hash(m) => m.purge(),
            Memo::Chunk(m) => m.evict_cold(hot_from).columns_freed,
        };
        self.stats.gov_columns_evicted += freed;
        self.telem.memo_evict(hot_from, freed.min(u64::from(u32::MAX)) as u32);
        if self.memo.retained_bytes() <= self.memo_budget {
            return;
        }
        // Rung 2: stop memoizing entirely and release everything; parsing
        // continues correctly (memoization is transparent), just slower.
        self.memo_frozen = true;
        self.stats.gov_transient_fallbacks += 1;
        if let Memo::Chunk(m) = &mut self.memo {
            m.evict_all();
        }
        if self.memo.retained_bytes() <= self.memo_budget {
            return;
        }
        // Rung 3: the irreducible floor (the chunk table's column pointer
        // array) is itself over budget.
        self.abort(ParseAbort::MemoBudget);
    }

    // ----- input access (with lookahead accounting) -----
    //
    // Every read of the source text goes through one of these wrappers so
    // that `examined` soundly over-approximates the bytes a memoized
    // result depends on. Reads that fail at end of input still count one
    // byte past the end: appending text there must invalidate the result.

    fn peek_byte(&mut self, pos: u32) -> Option<u8> {
        self.examined = self.examined.max(pos.saturating_add(1));
        self.input.byte_at(pos)
    }

    fn peek_char(&mut self, pos: u32) -> Option<(char, u32)> {
        match self.input.char_at(pos) {
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

    fn match_lit(&mut self, pos: u32, literal: &str) -> bool {
        self.examined = self
            .examined
            .max(pos.saturating_add(literal.len() as u32));
        self.input.starts_with(pos, literal)
    }

    // ----- value construction (with allocation accounting) -----

    fn make_text(&mut self, lo: u32, hi: u32) -> Value {
        if self.g.cfg.text_only {
            Value::Text(Span::new(lo, hi))
        } else {
            let s: std::rc::Rc<str> =
                std::rc::Rc::from(self.input.slice(Span::new(lo, hi)));
            self.stats.strings_built += 1;
            self.stats.value_bytes += (hi - lo) as u64 + 16;
            Value::OwnedText(s)
        }
    }

    // Composite values come from one of two builders, picked by the memo
    // flavour (hence by the `chunks` flag). Chunked runs — the default,
    // and what sessions, the VM and generated parsers all use — build in
    // the table's region through the runtime's shared builder. Unchunked
    // (`HashMemo`) runs build individually heap-allocated `Rc` trees:
    // that path is the reference every other engine is checked against
    // (`OptConfig::cumulative(0)`), and the naive value path the E2/E3
    // ablation measures below `chunks`, so it stays on purpose.

    fn make_node(&mut self, kind: &NodeKind, children: Vec<Value>, span: Option<Span>) -> Value {
        if let Memo::Chunk(m) = &mut self.memo {
            return m
                .arena_mut()
                .make_node(&mut self.stats, kind.clone(), children, span);
        }
        self.stats.nodes_built += 1;
        self.stats.value_bytes += (std::mem::size_of::<modpeg_runtime::Node>()
            + children.capacity() * std::mem::size_of::<Value>())
            as u64;
        let node = match span {
            Some(s) => modpeg_runtime::Node::with_span(kind.clone(), children, s),
            None => modpeg_runtime::Node::new(kind.clone(), children),
        };
        Value::Node(std::rc::Rc::new(node))
    }

    /// Builds a list value, splicing list-valued items in one level (see
    /// [`modpeg_runtime::Arena::make_list`], which the `Rc` branch mirrors).
    fn make_list(&mut self, items: Vec<Value>) -> Value {
        if let Memo::Chunk(m) = &mut self.memo {
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
        self.stats.value_bytes +=
            (std::mem::size_of::<Vec<Value>>() + items.capacity() * std::mem::size_of::<Value>())
                as u64;
        Value::list(items)
    }

    /// Appends `v` to `items`, splicing a list in as its items.
    fn push_spliced(&self, items: &mut Vec<Value>, v: Value) {
        match (&self.memo, v) {
            (Memo::Chunk(m), v) => m.arena().push_spliced(items, v),
            (Memo::Hash(_), Value::List(l)) => items.extend(l.iter().cloned()),
            (Memo::Hash(_), other) => items.push(other),
        }
    }

    // ----- productions -----

    fn eval_prod(&mut self, id: ProdId, pos: u32) -> Result<(u32, Value), Fail> {
        // Ticking before the memo probe keeps the fuel cost of a position
        // uniform across hits and misses, which is what makes fuel-based
        // fault injection deterministic.
        self.guard()?;
        let g = self.g;
        let p = &g.prods[id.index()];
        if let Some(slot) = p.memo_slot {
            self.stats.memo_probes += 1;
            self.telem.memo_probe(id.0, pos);
            if let Some(ans) = self.memo.probe(slot, pos) {
                if p.epoch_check && ans.epoch != self.state.epoch() {
                    self.stats.memo_stale += 1;
                } else {
                    self.stats.memo_hits += 1;
                    let hit = match &ans.outcome {
                        None => Err(Fail),
                        Some((end, value)) => Ok((*end, value.clone())),
                    };
                    // The stored result depends on the bytes its original
                    // evaluation examined; charge them to the enclosing
                    // memoized evaluation's extent.
                    let ext = self.memo.extent_at(pos);
                    self.examined = self.examined.max(pos.saturating_add(ext));
                    self.telem.memo_hit(id.0, pos, self.prod_depth, hit.is_ok());
                    return hit;
                }
            }
        }
        self.stats.productions_evaluated += 1;
        let span = self.telem.enter(id.0, pos, self.prod_depth);
        self.prod_depth += 1;
        // Bracket memoized evaluations: reset the examined watermark to the
        // start position, so that afterwards `examined - pos` is exactly
        // this evaluation's lookahead extent, then fold it back into the
        // enclosing bracket.
        let outer_examined = self.examined;
        if p.memo_slot.is_some() {
            self.examined = pos;
        }
        let result = if p.lr.is_some() {
            if g.cfg.left_recursion_iter {
                self.eval_lr_fold(id, pos)
            } else {
                self.eval_lr_seed(id, pos)
            }
        } else {
            self.eval_alts(id, false, pos)
        };
        self.prod_depth -= 1;
        let (span_end, span_matched) = match &result {
            Ok((end, _)) => (*end, true),
            Err(_) => (pos, false),
        };
        self.telem
            .exit(span, id.0, pos, self.prod_depth, span_end, span_matched);
        if let Some(slot) = p.memo_slot {
            // The seed-growing strategy stores its own final answer.
            if p.lr.is_none() || g.cfg.left_recursion_iter {
                let epoch = if p.epoch_check { self.state.epoch() } else { 0 };
                let ans = match &result {
                    Ok((end, v)) => MemoAnswer::success(epoch, *end, v.clone()),
                    Err(_) => MemoAnswer::fail(epoch),
                };
                self.store_answer(id.0, slot, pos, ans);
            }
            let high = self.examined;
            self.memo.record_extent(pos, high.saturating_sub(pos));
            self.examined = outer_examined.max(high);
        }
        result
    }

    /// The static "do we build inner values" decision for a production.
    fn inner_want(&self, kind: ProdKind, text_takes_inner: bool) -> bool {
        match kind {
            ProdKind::Node => true,
            // A String production that contains a capture (or textual
            // reference) must build it — that's its value.
            ProdKind::Text => text_takes_inner || !self.g.cfg.value_elision,
            ProdKind::Void => !self.g.cfg.value_elision,
        }
    }

    /// Evaluates a production's alternatives (either the original list or,
    /// for `lr_bases`, the base alternatives of a split production) and
    /// builds the production-level value.
    fn eval_alts(&mut self, id: ProdId, lr_bases: bool, pos: u32) -> Result<(u32, Value), Fail> {
        let g = self.g;
        let p = &g.prods[id.index()];
        let alts: &[CAlt] = if lr_bases {
            &p.lr.as_ref().expect("lr_bases implies split").bases
        } else {
            &p.alts
        };
        let want = self.inner_want(p.kind, p.text_takes_inner);
        let byte = self.peek_byte(pos);
        for (alt_idx, alt) in alts.iter().enumerate() {
            if let Some((first, desc)) = &alt.first {
                if !first.admits(byte) {
                    // Dispatch skips the alternative, but the farthest-
                    // failure record must still reflect what was expected.
                    self.note(pos, &desc.clone());
                    continue;
                }
            }
            let mark = self.state.mark();
            match self.eval(alt.expr, pos, want) {
                Ok((end, out)) => {
                    if let Some(cov) = &mut self.coverage {
                        cov.hit(id.index(), alt_idx);
                    }
                    let value =
                        self.finish_alt(p.kind, p.with_span, p.text_takes_inner, alt, out, pos, end);
                    return Ok((end, value));
                }
                Err(_) => {
                    self.state.rollback(mark);
                    self.stats.backtracks += 1;
                    self.telem.backtrack(id.0, pos, self.prod_depth);
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
            ProdKind::Text => {
                if text_takes_inner {
                    let mut values = out.into_values();
                    if matches!(
                        values.first(),
                        Some(Value::Text(_) | Value::OwnedText(_))
                    ) {
                        return values.swap_remove(0);
                    }
                }
                self.make_text(pos, end)
            }
            ProdKind::Node => {
                let mut children = out.into_values();
                if alt.passthrough && children.len() == 1 {
                    return children.pop().expect("len checked");
                }
                let span = with_span.then(|| Span::new(pos, end));
                self.make_node(&alt.node_kind.clone(), std::mem::take(&mut children), span)
            }
        }
    }

    /// Optimized left recursion: match a base once, then fold tails.
    fn eval_lr_fold(&mut self, id: ProdId, pos: u32) -> Result<(u32, Value), Fail> {
        let g = self.g;
        let p = &g.prods[id.index()];
        let (mut end, mut seed) = self.eval_alts(id, true, pos)?;
        let tails = &p.lr.as_ref().expect("caller checked").tails;
        'grow: loop {
            self.guard()?;
            let byte = self.peek_byte(end);
            for tail in tails {
                if let Some((first, desc)) = &tail.first {
                    if !first.admits(byte) {
                        self.note(end, &desc.clone());
                        continue;
                    }
                }
                let mark = self.state.mark();
                match self.eval(tail.expr, end, true) {
                    Ok((e2, out)) => {
                        if let Some(cov) = &mut self.coverage {
                            let bases = p.lr.as_ref().expect("caller checked").bases.len();
                            let tail_idx = p
                                .lr
                                .as_ref()
                                .expect("caller checked")
                                .tails
                                .iter()
                                .position(|t| std::ptr::eq(t, tail))
                                .unwrap_or(0);
                            cov.hit(id.index(), bases + tail_idx);
                        }
                        let mut children = vec![seed];
                        out.push_into(&mut children);
                        let span = p.with_span.then(|| Span::new(pos, e2));
                        seed = self.make_node(&tail.node_kind.clone(), children, span);
                        end = e2;
                        continue 'grow;
                    }
                    Err(_) => {
                        self.state.rollback(mark);
                        self.stats.backtracks += 1;
                    }
                }
            }
            return Ok((end, seed));
        }
    }

    /// Unoptimized left recursion: Warth-style seed growing over the
    /// original alternatives, re-parsing from scratch each round.
    fn eval_lr_seed(&mut self, id: ProdId, pos: u32) -> Result<(u32, Value), Fail> {
        let g = self.g;
        let p = &g.prods[id.index()];
        let slot = p
            .memo_slot
            .expect("left-recursive productions always have a slot");
        // Seed stores are part of the left-recursion protocol, not a cache:
        // the nested self-application must find them or recurse forever
        // (until the depth ceiling). They therefore bypass the transient-
        // only `memo_frozen` fallback — but not an abort, whose in-flight
        // results may be tainted.
        let epoch = if p.epoch_check { self.state.epoch() } else { 0 };
        if self.aborted.is_none() {
            self.telem.memo_store(id.0, pos, false);
            self.memo.store(slot, pos, MemoAnswer::fail(epoch));
            self.stats.memo_stores += 1;
        }
        let mut best: Option<(u32, Value)> = None;
        loop {
            if self.aborted.is_some() {
                break;
            }
            let r = self.eval_alts(id, false, pos);
            match r {
                Ok((end, v)) if best.as_ref().is_none_or(|(b, _)| end > *b) => {
                    if self.aborted.is_some() {
                        break;
                    }
                    self.telem.memo_store(id.0, pos, true);
                    self.memo
                        .store(slot, pos, MemoAnswer::success(epoch, end, v.clone()));
                    self.stats.memo_stores += 1;
                    best = Some((end, v));
                }
                _ => break,
            }
        }
        best.ok_or(Fail)
    }

    // ----- expressions -----

    /// Depth-guarded expression evaluation. Depth counts *expression
    /// frames* rather than production applications: production bodies can
    /// be arbitrarily large (inlining makes them larger still), so only a
    /// per-`eval` count tracks actual machine-stack consumption closely
    /// enough to make a ceiling meaningful across grammars.
    fn eval(&mut self, eid: EId, pos: u32, want: bool) -> EvalResult {
        if self.depth >= self.max_depth {
            return Err(self.abort(ParseAbort::DepthExceeded));
        }
        self.depth += 1;
        let r = self.eval_expr(eid, pos, want);
        self.depth -= 1;
        r
    }

    fn eval_expr(&mut self, eid: EId, pos: u32, want: bool) -> EvalResult {
        let g = self.g;
        match &g.exprs[eid as usize] {
            CExpr::Empty => Ok((pos, Out::None)),
            CExpr::Any => match self.peek_char(pos) {
                Some((_, len)) => Ok((pos + len, Out::None)),
                None => {
                    self.note(pos, "any character");
                    Err(Fail)
                }
            },
            CExpr::Lit { text, desc } => {
                let bytes = text.as_bytes();
                if g.cfg.string_match {
                    self.stats.terminal_comparisons += bytes.len() as u64;
                    if self.match_lit(pos, text) {
                        Ok((pos + bytes.len() as u32, Out::None))
                    } else {
                        self.note(pos, desc);
                        Err(Fail)
                    }
                } else {
                    let mut p = pos;
                    for &b in bytes {
                        self.stats.terminal_comparisons += 1;
                        match self.peek_byte(p) {
                            Some(x) if x == b => p += 1,
                            _ => {
                                self.note(pos, &desc.clone());
                                return Err(Fail);
                            }
                        }
                    }
                    Ok((p, Out::None))
                }
            }
            CExpr::Class { table, desc, .. } => {
                self.stats.terminal_comparisons += 1;
                match self.peek_char(pos) {
                    Some((c, len)) if table.matches_char(c) => Ok((pos + len, Out::None)),
                    _ => {
                        self.note(pos, &desc.clone());
                        Err(Fail)
                    }
                }
            }
            CExpr::Ref(id) => {
                let kind = g.prods[id.index()].kind;
                let (end, value) = self.eval_prod(*id, pos)?;
                let out = if !want || kind == ProdKind::Void {
                    Out::None
                } else {
                    Out::One(value)
                };
                Ok((end, out))
            }
            CExpr::Seq(items) => {
                let mut p = pos;
                let mut values: Vec<Value> = Vec::new();
                for &x in items {
                    let (np, out) = self.eval(x, p, want)?;
                    p = np;
                    if want {
                        out.push_into(&mut values);
                    }
                }
                Ok((p, seq_out(values)))
            }
            CExpr::Choice { arms, first } => {
                let byte = self.peek_byte(pos);
                for (i, &arm) in arms.iter().enumerate() {
                    if let Some(sets) = first {
                        let (set, desc) = &sets[i];
                        if !set.admits(byte) {
                            self.note(pos, &desc.clone());
                            continue;
                        }
                    }
                    let mark = self.state.mark();
                    match self.eval(arm, pos, want) {
                        Ok(r) => return Ok(r),
                        Err(_) => {
                            self.state.rollback(mark);
                            self.stats.backtracks += 1;
                        }
                    }
                }
                Err(Fail)
            }
            CExpr::Opt { inner, slot } => {
                let yields = g.yields[eid as usize];
                if let Some(slot) = *slot {
                    return self.eval_opt_memo(eid, *inner, slot, yields, pos, want);
                }
                let mark = self.state.mark();
                match self.eval(*inner, pos, want) {
                    Ok((end, out)) => Ok((end, normalize_opt(self, out))),
                    Err(_) => {
                        self.state.rollback(mark);
                        Ok((pos, absent(yields, want)))
                    }
                }
            }
            CExpr::Star { inner, slot } => {
                let yields = g.yields[eid as usize];
                if let Some(slot) = *slot {
                    return self.eval_rep_memo(eid, *inner, slot, yields, pos, want);
                }
                self.eval_star_loop(*inner, yields, pos, want, Vec::new())
            }
            CExpr::Plus { inner, slot } => {
                let yields = g.yields[eid as usize];
                let (p1, first_out) = self.eval(*inner, pos, want)?;
                let collect = want && yields;
                let Some(slot) = *slot else {
                    // One list for first + rest: the loop keeps collecting
                    // into the first match's values.
                    let first = if collect {
                        first_out.into_values()
                    } else {
                        Vec::new()
                    };
                    return self.eval_star_loop(*inner, yields, p1, want, first);
                };
                // A memoized rest is a list of its own (it is shared with
                // the memo table), spliced behind the first match.
                let (end, rest_out) = self.eval_rep_memo(eid, *inner, slot, yields, p1, want)?;
                if !collect {
                    return Ok((end, Out::None));
                }
                let mut items = first_out.into_values();
                if let Out::One(rest) = rest_out {
                    self.push_spliced(&mut items, rest);
                }
                let list = self.make_list(items);
                Ok((end, Out::One(list)))
            }
            CExpr::And(inner) => {
                let mark = self.state.mark();
                self.suppress += 1;
                let r = self.eval(*inner, pos, false);
                self.suppress -= 1;
                self.state.rollback(mark);
                r.map(|_| (pos, Out::None))
            }
            CExpr::Not(inner) => {
                let mark = self.state.mark();
                self.suppress += 1;
                let r = self.eval(*inner, pos, false);
                self.suppress -= 1;
                self.state.rollback(mark);
                match r {
                    Ok(_) => Err(Fail),
                    Err(_) => Ok((pos, Out::None)),
                }
            }
            CExpr::Capture(inner) => {
                let inner_want = !g.cfg.value_elision;
                let (end, _) = self.eval(*inner, pos, inner_want)?;
                if want {
                    let text = self.make_text(pos, end);
                    Ok((end, Out::One(text)))
                } else {
                    Ok((end, Out::None))
                }
            }
            CExpr::Void(inner) => {
                let inner_want = !g.cfg.value_elision;
                let (end, _) = self.eval(*inner, pos, inner_want)?;
                Ok((end, Out::None))
            }
            CExpr::SDefine(inner) => {
                // The inner value is the name (always built, even under
                // value elision — the state operation needs it).
                let (end, out) = self.eval(*inner, pos, true)?;
                let name = state_name(&out, self.input.text(), pos, end).to_owned();
                self.state.define(&name);
                Ok((end, out))
            }
            CExpr::SIsDef(inner) => {
                let (end, out) = self.eval(*inner, pos, true)?;
                let name = state_name(&out, self.input.text(), pos, end);
                if self.state.is_defined(name) {
                    Ok((end, out))
                } else {
                    self.note(pos, "defined name");
                    Err(Fail)
                }
            }
            CExpr::SIsNotDef(inner) => {
                let (end, out) = self.eval(*inner, pos, true)?;
                let name = state_name(&out, self.input.text(), pos, end);
                if self.state.is_defined(name) {
                    self.note(pos, "undefined name");
                    Err(Fail)
                } else {
                    Ok((end, out))
                }
            }
            CExpr::SScope(inner) => {
                let mark = self.state.mark();
                self.state.push_scope();
                match self.eval(*inner, pos, want) {
                    Ok(r) => {
                        self.state.pop_scope();
                        Ok(r)
                    }
                    Err(e) => {
                        self.state.rollback(mark);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Iterative `e*` (the `iterative-repetition` optimization). Collected
    /// items are appended to `items` (an `e+`'s first match, or empty).
    fn eval_star_loop(
        &mut self,
        inner: EId,
        yields: bool,
        pos: u32,
        want: bool,
        mut items: Vec<Value>,
    ) -> EvalResult {
        // Repetition over a bare class — the lexical hot shape — takes the
        // bulk scanner unless the scalar reference path is forced. A class
        // never yields values, so the collecting arm below can't apply.
        if !(want && yields || modpeg_runtime::scan::scalar_forced()) {
            let g = self.g;
            if let CExpr::Class { table, desc, .. } = &g.exprs[inner as usize] {
                return self.eval_class_run(table, desc, pos);
            }
        }
        let mut p = pos;
        loop {
            // A repetition over bare terminals never reaches `eval_prod`,
            // so it must tick on its own to stay interruptible.
            self.guard()?;
            let mark = self.state.mark();
            match self.eval(inner, p, want) {
                Ok((np, out)) => {
                    if np == p {
                        break; // defensive: well-formedness forbids this
                    }
                    p = np;
                    if want && yields {
                        out.push_into(&mut items);
                    }
                }
                Err(_) => {
                    self.state.rollback(mark);
                    break;
                }
            }
        }
        if want && yields {
            let list = self.make_list(items);
            Ok((p, Out::One(list)))
        } else {
            Ok((p, Out::None))
        }
    }

    /// Bulk-scanned `class*`: one [`modpeg_runtime::scan::scan_class_run`]
    /// finds the whole run, then the governor is charged for every
    /// consumed character plus the final failing probe in a single
    /// batched call. Observables are tick-for-tick identical to the
    /// scalar loop in [`Run::eval_star_loop`]: same guard-tick count and
    /// abort point, same `terminal_comparisons`, same `examined`
    /// watermark (each matched character's end, plus the failing probe's
    /// decode — or one past EOF), and the same farthest-failure note at
    /// the run's end. On a governor abort, no note is recorded and the
    /// watermark stops at the last successfully probed character, exactly
    /// as the scalar loop leaves them.
    fn eval_class_run(
        &mut self,
        table: &modpeg_runtime::ClassTable,
        desc: &str,
        pos: u32,
    ) -> EvalResult {
        // First-iteration prologue, in scalar order: the abort
        // short-circuit, then (`depth` is loop-invariant) the per-`eval`
        // depth ceiling — which in the scalar loop fails *after* that
        // iteration's guard tick.
        if self.aborted.is_some() {
            return Err(Fail);
        }
        if self.depth >= self.max_depth {
            self.guard()?;
            return Err(self.abort(ParseAbort::DepthExceeded));
        }
        let text = self.input.text();
        let run = modpeg_runtime::scan::scan_class_run(text, pos, table);
        // One tick per matched character + one for the failing probe.
        let need = u64::from(run.chars) + 1;
        if let Some(gov) = self.gov {
            if let Err((done, kind)) = gov.tick_many(need) {
                self.stats.terminal_comparisons += done;
                if done > 0 {
                    let end = modpeg_runtime::scan::advance_chars(text, pos, done as u32);
                    self.examined = self.examined.max(end);
                }
                self.aborted = Some(kind);
                return Err(Fail);
            }
        }
        self.stats.terminal_comparisons += need;
        if run.end > pos {
            self.examined = self.examined.max(run.end);
        }
        // The final failing probe: `peek_char` reproduces the scalar
        // loop's watermark for the rejected character (or one past EOF).
        let _ = self.peek_char(run.end);
        self.note(run.end, desc);
        Ok((run.end, Out::None))
    }

    /// Memoized recursive `e*` — the unoptimized desugaring into an
    /// anonymous right-recursive helper production, one memo entry per
    /// (helper, position), lists rebuilt by consing.
    fn eval_rep_memo(
        &mut self,
        eid: EId,
        inner: EId,
        slot: u32,
        yields: bool,
        pos: u32,
        want: bool,
    ) -> EvalResult {
        self.guard()?;
        let epoch_check = self.g.reads_state[eid as usize];
        self.stats.memo_probes += 1;
        self.telem.memo_probe(REP_HELPER, pos);
        if let Some(ans) = self.memo.probe(slot, pos) {
            if epoch_check && ans.epoch != self.state.epoch() {
                self.stats.memo_stale += 1;
            } else {
                self.stats.memo_hits += 1;
                // Star always succeeds, so a failure entry (`None`) is
                // impossible; the arm below maps it to failure anyway.
                let hit = ans.outcome.as_ref().map(|(end, value)| (*end, value.clone()));
                let ext = self.memo.extent_at(pos);
                self.examined = self.examined.max(pos.saturating_add(ext));
                self.telem
                    .memo_hit(REP_HELPER, pos, self.prod_depth, hit.is_some());
                return match hit {
                    None => Err(Fail),
                    Some((end, value)) => {
                        Ok((end, decode_helper(value == Value::Unit, value)))
                    }
                };
            }
        }
        self.stats.productions_evaluated += 1;
        // The desugared helper recurses once per repetition item, so it
        // consumes call stack like any production chain and must respect
        // the same ceiling.
        if self.depth >= self.max_depth {
            return Err(self.abort(ParseAbort::DepthExceeded));
        }
        self.depth += 1;
        let outer_examined = self.examined;
        self.examined = pos;
        let mark = self.state.mark();
        let result: (u32, Out) = match self.eval(inner, pos, want) {
            Ok((np, out)) if np > pos => {
                let rest = self.eval_rep_memo(eid, inner, slot, yields, np, want);
                let (end, rest) = match rest {
                    Ok(r) => r,
                    Err(e) => {
                        self.depth -= 1;
                        self.examined = outer_examined.max(self.examined);
                        return Err(e);
                    }
                };
                if want && yields {
                    let mut items = out.into_values();
                    if let Out::One(rest) = rest {
                        self.push_spliced(&mut items, rest);
                    }
                    let list = self.make_list(items);
                    (end, Out::One(list))
                } else {
                    (end, Out::None)
                }
            }
            Ok((_, _)) | Err(_) => {
                self.state.rollback(mark);
                if want && yields {
                    let list = self.make_list(Vec::new());
                    (pos, Out::One(list))
                } else {
                    (pos, Out::None)
                }
            }
        };
        self.depth -= 1;
        let encoded = match &result.1 {
            Out::None => Value::Unit,
            Out::One(v) => v.clone(),
            Out::Many(_) => unreachable!("repetitions produce lists"),
        };
        let epoch = if epoch_check { self.state.epoch() } else { 0 };
        self.store_answer(
            REP_HELPER,
            slot,
            pos,
            MemoAnswer::success(epoch, result.0, encoded),
        );
        let high = self.examined;
        self.memo.record_extent(pos, high.saturating_sub(pos));
        self.examined = outer_examined.max(high);
        Ok(result)
    }

    /// Memoized `e?` — the unoptimized desugaring of options.
    fn eval_opt_memo(
        &mut self,
        eid: EId,
        inner: EId,
        slot: u32,
        yields: bool,
        pos: u32,
        want: bool,
    ) -> EvalResult {
        self.guard()?;
        let epoch_check = self.g.reads_state[eid as usize];
        self.stats.memo_probes += 1;
        self.telem.memo_probe(REP_HELPER, pos);
        let mut hit: Option<(u32, Value)> = None;
        if let Some(ans) = self.memo.probe(slot, pos) {
            if !epoch_check || ans.epoch == self.state.epoch() {
                if let Some((end, value)) = &ans.outcome {
                    hit = Some((*end, value.clone()));
                }
            }
        }
        if let Some((end, value)) = hit {
            self.stats.memo_hits += 1;
            let ext = self.memo.extent_at(pos);
            self.examined = self.examined.max(pos.saturating_add(ext));
            self.telem.memo_hit(REP_HELPER, pos, self.prod_depth, true);
            return Ok((end, decode_helper(value == Value::Unit, value)));
        }
        self.stats.productions_evaluated += 1;
        let outer_examined = self.examined;
        self.examined = pos;
        let mark = self.state.mark();
        let (end, out) = match self.eval(inner, pos, want) {
            Ok((end, out)) => (end, normalize_opt(self, out)),
            Err(_) => {
                self.state.rollback(mark);
                (pos, absent(yields, want))
            }
        };
        let encoded = match &out {
            Out::None => Value::Unit,
            Out::One(v) => v.clone(),
            Out::Many(_) => unreachable!("normalize_opt removed Many"),
        };
        let epoch = if epoch_check { self.state.epoch() } else { 0 };
        self.store_answer(
            REP_HELPER,
            slot,
            pos,
            MemoAnswer::success(epoch, end, encoded),
        );
        let high = self.examined;
        self.memo.record_extent(pos, high.saturating_sub(pos));
        self.examined = outer_examined.max(high);
        Ok((end, out))
    }
}

fn seq_out(values: Vec<Value>) -> Out {
    Out::from_values(values)
}

/// The name a state operation works with: the operand's first textual
/// value when it has one (an `Identifier` reference or a `$` capture —
/// excluding its trailing spacing), otherwise the whole matched span.
fn state_name<'a>(out: &'a Out, input: &'a str, pos: u32, end: u32) -> &'a str {
    let first = match out {
        Out::One(v) => Some(v),
        Out::Many(vs) => vs.first(),
        Out::None => None,
    };
    first
        .and_then(|v| v.as_text(input))
        .unwrap_or(&input[pos as usize..end as usize])
}

/// A matched optional passes its contribution through, except that several
/// values collapse into one list (so the contribution stays memoizable).
fn normalize_opt(run: &mut Run<'_, '_>, out: Out) -> Out {
    match out {
        Out::Many(vs) => {
            let list = run.make_list(vs);
            Out::One(list)
        }
        other => other,
    }
}

fn absent(yields: bool, want: bool) -> Out {
    if yields && want {
        Out::One(Value::Absent)
    } else {
        Out::None
    }
}

fn decode_helper(is_unit: bool, value: Value) -> Out {
    if is_unit {
        Out::None
    } else {
        Out::One(value)
    }
}

impl ParseRun for Run<'_, '_> {
    fn eval_root(&mut self, pos: u32) -> Result<(u32, Value), Fail> {
        self.eval_prod(self.g.root, pos)
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

    /// Detaches `value` from the run's region before it escapes into a
    /// [`SyntaxTree`]: region-backed trees are copied out (the returned
    /// tree shares nothing with the memo table); the unchunked path's `Rc`
    /// trees are already detached and pass through.
    fn materialize(&self, value: Value) -> Value {
        match &self.memo {
            // No whole-arena invariant check here: on incremental runs the
            // region carries orphaned nodes from earlier parses of a
            // *different* document, whose spans are meaningless against the
            // current input. `copy_out` itself asserts generation validity
            // of every handle it follows; whole-arena checks live in the
            // dedicated invariant suites where the input is known.
            Memo::Chunk(m) => m.arena().copy_out(&value),
            Memo::Hash(_) => value,
        }
    }

    /// Streams `value` as SAX events straight from the run's region (or
    /// by walking the `Rc` tree, for unchunked runs) — no owned tree is
    /// materialized.
    fn emit(&self, value: &Value, sink: &mut dyn EventSink) {
        match &self.memo {
            Memo::Chunk(m) => m.arena().emit_events(value, sink),
            Memo::Hash(_) => modpeg_runtime::Arena::new().emit_events(value, sink),
        }
    }

    fn finish_stats(&mut self) -> Stats {
        self.stats.memo_bytes = self.memo.retained_bytes();
        self.stats.failure_records = self.failures.recorded_len() as u64;
        self.stats.failure_bytes = self.failures.retained_bytes() as u64;
        if let Memo::Chunk(m) = &mut self.memo {
            self.stats.memo_entries_shifted += m.take_entries_shifted();
        }
        std::mem::take(&mut self.stats)
    }
}

impl Engine for CompiledGrammar {
    /// Parses `text` as `req` asks. Governed runs can never overflow the
    /// stack (a governor without an explicit depth limit gets
    /// [`DEFAULT_MAX_DEPTH`]), spin past their deadline or fuel, or
    /// outgrow their memo budget — over-budget runs first evict cold memo
    /// columns, then fall back to transient-only parsing, and only abort
    /// as a last resort.
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
        engine::drive(text, req, || Run::new(self, text, None, gov, telem)).0
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
            Run::new(self, text, Some(table), gov, telem)
        });
        if let Some(Run {
            memo: Memo::Chunk(table),
            ..
        }) = run
        {
            *memo = table;
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
        let (outcome, run) = engine::drive(text, ParseRequest::tree(), || {
            let mut run = Run::new(self, text, None, None, None);
            run.coverage = Some(self.empty_coverage());
            run
        });
        let coverage = run
            .and_then(|r| r.coverage)
            .unwrap_or_else(|| self.empty_coverage());
        (engine::tree_result(outcome).0, coverage)
    }

    /// A coverage record with no hits, shaped like this grammar.
    fn empty_coverage(&self) -> crate::Coverage {
        let names = self.prods.iter().map(|p| p.name.clone()).collect();
        let labels = self
            .prods
            .iter()
            .map(|p| {
                let alts: Vec<&CAlt> = match &p.lr {
                    Some(lr) => lr.bases.iter().chain(lr.tails.iter()).collect(),
                    None => p.alts.iter().collect(),
                };
                alts.iter()
                    .map(|a| a.node_kind.label().map(str::to_owned))
                    .collect()
            })
            .collect();
        crate::Coverage::new(names, labels)
    }

    /// Parses a prefix of `text`: succeeds as soon as the root matches,
    /// returning the tree and the number of bytes consumed. Shares the
    /// run hooks and the size guard with [`Engine::run`], but not its
    /// full-consumption rule.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when the root does not match at offset 0.
    pub fn parse_prefix(&self, text: &str) -> Result<(SyntaxTree, u32), ParseError> {
        if text.len() > u32::MAX as usize {
            return Err(engine::oversize_error());
        }
        let mut run = Run::new(self, text, None, None, None);
        match run.eval_root(0) {
            Ok((end, value)) => Ok((SyntaxTree::new(text, run.materialize(value)), end)),
            Err(_) => Err(run.error()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptConfig;
    use modpeg_core::{CharClass, Expr as E, Grammar, GrammarBuilder};
    use modpeg_runtime::{recover, ParseFault, Parsed};

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
                E::Capture(Box::new(E::Plus(Box::new(E::Class(CharClass::from_ranges(
                    vec![('0', '9')],
                    false,
                )))))),
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
    fn traced(c: &CompiledGrammar, text: &str, cap: usize) -> (bool, crate::Trace) {
        let telem = Telemetry::collector(cap).with_mask(modpeg_telemetry::mask::TRACE);
        let (r, _) = c.run(text, ParseRequest::tree().with_telemetry(&telem));
        (r.is_ok(), crate::Trace::from_report(&telem.take_report()))
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
            vec![(None, E::Capture(Box::new(E::seq(vec![E::literal("ab"), lc()]))))],
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
                (Some("Pair".into()), E::seq(vec![r("W"), E::literal(","), r("W")])),
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
        assert_eq!(c.parse("ab,cd").unwrap().to_sexpr(), "(S.Pair \"ab\" \"cd\")");
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
            vec![(None, E::Capture(Box::new(E::seq(vec![lc(), E::literal(";")]))))],
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
            vec![(None, E::Capture(Box::new(E::seq(vec![lc(), E::literal(";")]))))],
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
                E::seq(vec![r("W"), E::Opt(Box::new(E::seq(vec![E::literal("="), r("W")])))]),
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
                (Some("Kw".into()), E::seq(vec![E::literal("if"), E::Not(Box::new(lc())), E::Star(Box::new(E::Any))])),
                (Some("Id".into()), E::Capture(Box::new(E::Plus(Box::new(lc()))))),
            ],
        );
        let g = b.build("S").unwrap();
        for cfg in [OptConfig::none(), OptConfig::all()] {
            let c = CompiledGrammar::compile(&g, cfg).unwrap();
            assert_eq!(c.parse("if(").unwrap().root().as_node().unwrap().kind().as_str(), "S.Kw");
            assert_eq!(c.parse("iffy").unwrap().root().as_node().unwrap().kind().as_str(), "S.Id");
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
                    E::seq(vec![E::literal("def "), E::StateDefine(Box::new(r("Name"))), E::literal(";")]),
                ),
                (
                    Some("Use".into()),
                    E::seq(vec![E::StateIsDef(Box::new(r("Name"))), E::literal(";")]),
                ),
                (
                    Some("Other".into()),
                    E::seq(vec![E::Capture(Box::new(E::Plus(Box::new(lc())))), E::literal("!")]),
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
                    E::seq(vec![E::literal("def "), E::StateDefine(Box::new(r("Name"))), E::literal(";")]),
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
        assert!(s1.memo_stores > s2.memo_stores, "naive stores more: {s1:?} vs {s2:?}");
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
        let (ok, trace) = traced(&c, "1+2", 10_000);
        assert!(ok);
        assert!(!trace.is_truncated());
        let text = trace.to_string();
        assert!(text.contains("> calc.Expr @0"), "{text}");
        assert!(text.contains("ok"), "{text}");
        // Entries and exits balance.
        let enters = trace
            .events()
            .iter()
            .filter(|e| matches!(e.outcome, crate::TraceOutcome::Enter))
            .count();
        let exits = trace
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.outcome,
                    crate::TraceOutcome::Matched { .. } | crate::TraceOutcome::Failed
                )
            })
            .count();
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
        let (ok, trace) = traced(&c, "aay", 10_000);
        assert!(ok);
        let has_memo = trace
            .events()
            .iter()
            .any(|e| matches!(e.outcome, crate::TraceOutcome::MemoHit { .. }));
        assert!(has_memo, "{trace}");
    }

    #[test]
    fn trace_truncates_at_cap() {
        let g = calc_grammar();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let (_, trace) = traced(&c, "(1+2)*(3+4)", 8);
        assert!(trace.is_truncated());
        assert_eq!(trace.events().len(), 8);
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
        assert_eq!(
            r2.unwrap().to_sexpr(),
            c.parse(after).unwrap().to_sexpr()
        );
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
        assert_eq!(
            r2.unwrap().to_sexpr(),
            c.parse("1+24").unwrap().to_sexpr()
        );
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
        assert_eq!(
            r2.unwrap().to_sexpr(),
            c.parse(after).unwrap().to_sexpr()
        );
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
        for cfg in [OptConfig::none(), OptConfig::all(), OptConfig::incremental()] {
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
                assert_eq!(r.unwrap_err().abort(), Some(ParseAbort::FuelExhausted), "{cfg:?} fuel={fuel}");
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
            assert_eq!(r.unwrap_err().abort(), Some(ParseAbort::DepthExceeded), "{cfg:?}");
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
        assert_eq!(
            r.unwrap().to_sexpr(),
            c.parse(&input).unwrap().to_sexpr()
        );
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
        assert_eq!(
            r.unwrap().to_sexpr(),
            c.parse(edited).unwrap().to_sexpr()
        );
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
            c.parse_resilient("ab;12;cd;", &c.recover_policy()).tree.to_sexpr()
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
}
