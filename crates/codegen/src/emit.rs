//! The Rust source emitter.
//!
//! Walks the interpreter's compiled IR and prints one parse function per
//! production and per composite expression. The emitted parser implements
//! the *fully optimized* strategy set (iterative repetitions, chunked
//! memoization, farthest-failure errors, span text, first-byte dispatch,
//! fold-based left recursion) — exactly what Rats! generates; the
//! interpreter exists to measure the unoptimized strategies.

use std::collections::HashMap;
use std::fmt::Write as _;

use modpeg_core::analysis::FirstSet;
use modpeg_core::ProdKind;
use modpeg_interp::ir::{CAlt, CExpr, EId};
use modpeg_interp::CompiledGrammar;

/// Interns strings into a constant table, emitting each once.
#[derive(Default)]
struct Interner {
    items: Vec<String>,
    index: HashMap<String, usize>,
}

impl Interner {
    fn get(&mut self, s: &str) -> usize {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.items.len();
        self.items.push(s.to_owned());
        self.index.insert(s.to_owned(), i);
        i
    }
}

pub(crate) struct Emitter<'g> {
    g: &'g CompiledGrammar,
    /// Static `want` per expression node (each node has one context).
    want: Vec<bool>,
    kinds: Interner,
    descs: Interner,
    /// Precompiled class scan tables, deduplicated by content; baked
    /// into the generated module as `static CT`.
    tables: Vec<modpeg_runtime::ClassTable>,
    out: String,
}

fn rust_str(s: &str) -> String {
    format!("{s:?}")
}

/// The `const`-constructible source form of a scan table: the ASCII
/// bitmap words plus the non-ASCII verdict, re-deriving the SIMD runs in
/// `ClassTable::from_bitmap` at compile time.
fn table_literal(t: &modpeg_runtime::ClassTable) -> String {
    use modpeg_runtime::WideVerdict;
    let bits = t.bits();
    let wide = match t.wide() {
        WideVerdict::MatchNone => "scan::WideVerdict::MatchNone".to_owned(),
        WideVerdict::MatchAll => "scan::WideVerdict::MatchAll".to_owned(),
        WideVerdict::Check { ranges, negated } => {
            let rs = ranges
                .iter()
                .map(|&(lo, hi)| format!("({lo}, {hi})"))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "scan::WideVerdict::Check {{ ranges: std::borrow::Cow::Borrowed(&[{rs}]), negated: {negated} }}"
            )
        }
    };
    format!(
        "scan::ClassTable::from_bitmap([{:#018x}, {:#018x}, {:#018x}, {:#018x}], {wide})",
        bits[0], bits[1], bits[2], bits[3]
    )
}

/// A guard expression over `b: Option<u8>` implementing
/// `FirstSet::admits`; `None` when the set admits everything.
fn first_guard(set: &FirstSet) -> Option<String> {
    if set.matches_empty {
        return None;
    }
    let ranges = set.byte_ranges();
    if ranges.len() == 1 && ranges[0] == (0, 255) {
        return None;
    }
    if ranges.is_empty() {
        return Some("false".to_owned());
    }
    let pats: Vec<String> = ranges
        .iter()
        .map(|&(lo, hi)| {
            if lo == hi {
                format!("{lo}u8")
            } else {
                format!("{lo}u8..={hi}u8")
            }
        })
        .collect();
    Some(format!("matches!(b, Some({}))", pats.join(" | ")))
}

impl<'g> Emitter<'g> {
    pub(crate) fn new(g: &'g CompiledGrammar) -> Self {
        let mut want = vec![false; g.ir_exprs().len()];
        // Propagate static `want` from each production's alternatives.
        fn mark(g: &CompiledGrammar, want: &mut [bool], eid: EId, w: bool) {
            want[eid as usize] = w;
            match &g.ir_exprs()[eid as usize] {
                CExpr::Seq(xs) | CExpr::Choice { arms: xs, .. } => {
                    for &x in xs {
                        mark(g, want, x, w);
                    }
                }
                CExpr::Opt { inner, .. }
                | CExpr::Star { inner, .. }
                | CExpr::Plus { inner, .. }
                | CExpr::SScope(inner) => mark(g, want, *inner, w),
                // State operands are the *name* the operation works with:
                // always built, whatever the context wants.
                CExpr::SDefine(inner) | CExpr::SIsDef(inner) | CExpr::SIsNotDef(inner) => {
                    mark(g, want, *inner, true)
                }
                // Value-discarding wrappers: children never need values
                // (the generated parser always runs with value elision).
                CExpr::And(inner) | CExpr::Not(inner) | CExpr::Capture(inner)
                | CExpr::Void(inner) => mark(g, want, *inner, false),
                _ => {}
            }
        }
        for p in g.ir_prods() {
            let w = match p.kind {
                ProdKind::Node => true,
                ProdKind::Text => p.text_takes_inner,
                ProdKind::Void => false,
            };
            for alt in p
                .alts
                .iter()
                .chain(p.lr.iter().flat_map(|lr| lr.bases.iter().chain(lr.tails.iter())))
            {
                mark(g, &mut want, alt.expr, w);
            }
        }
        Emitter {
            g,
            want,
            kinds: Interner::default(),
            descs: Interner::default(),
            tables: Vec::new(),
            out: String::new(),
        }
    }

    /// Interns the scan table for `class`, returning its `CT` index.
    fn table(&mut self, class: &modpeg_core::CharClass) -> usize {
        let t = modpeg_runtime::ClassTable::from_ranges(class.ranges(), class.is_negated());
        if let Some(i) = self.tables.iter().position(|x| *x == t) {
            return i;
        }
        self.tables.push(t);
        self.tables.len() - 1
    }

    /// An expression snippet of type `Result<(u32, Out), Fail>` evaluating
    /// `eid` at position `{pos}`.
    fn snippet(&mut self, eid: EId, pos: &str) -> String {
        let want = self.want[eid as usize];
        match &self.g.ir_exprs()[eid as usize] {
            CExpr::Empty => format!("Ok::<(u32, Out), Fail>(({pos}, Out::None))"),
            CExpr::Any => format!("self.any({pos}).map(|np| (np, Out::None))"),
            CExpr::Lit { text, desc } => {
                let d = self.descs.get(desc);
                format!(
                    "self.lit({pos}, {}, D[{d}]).map(|np| (np, Out::None))",
                    rust_str(text)
                )
            }
            CExpr::Class { class, desc, .. } => {
                let d = self.descs.get(desc);
                let t = self.table(class);
                format!("self.cls({pos}, D[{d}], &CT[{t}]).map(|np| (np, Out::None))")
            }
            CExpr::Ref(id) => {
                let kind = self.g.ir_prods()[id.index()].kind;
                if want && kind != ProdKind::Void {
                    format!("self.p{}({pos}).map(|(np, v)| (np, Out::One(v)))", id.0)
                } else {
                    format!("self.p{}({pos}).map(|(np, _)| (np, Out::None))", id.0)
                }
            }
            _ => format!("self.e{eid}({pos})"),
        }
    }

    fn is_composite(&self, eid: EId) -> bool {
        !matches!(
            self.g.ir_exprs()[eid as usize],
            CExpr::Empty | CExpr::Any | CExpr::Lit { .. } | CExpr::Class { .. } | CExpr::Ref(_)
        )
    }

    fn emit_expr_fns(&mut self, eid: EId) {
        if !self.is_composite(eid) {
            return;
        }
        // Children first (defined before use is irrelevant in Rust, but
        // deterministic ordering keeps the output reviewable).
        let children: Vec<EId> = match &self.g.ir_exprs()[eid as usize] {
            CExpr::Seq(xs) | CExpr::Choice { arms: xs, .. } => xs.clone(),
            CExpr::Opt { inner, .. }
            | CExpr::Star { inner, .. }
            | CExpr::Plus { inner, .. }
            | CExpr::And(inner)
            | CExpr::Not(inner)
            | CExpr::Capture(inner)
            | CExpr::Void(inner)
            | CExpr::SDefine(inner)
            | CExpr::SIsDef(inner)
            | CExpr::SIsNotDef(inner)
            | CExpr::SScope(inner) => vec![*inner],
            _ => vec![],
        };
        for c in children {
            self.emit_expr_fns(c);
        }
        self.emit_one_expr_fn(eid);
    }

    fn emit_one_expr_fn(&mut self, eid: EId) {
        let want = self.want[eid as usize];
        let yields = self.g.ir_yields()[eid as usize];
        let mut body = String::new();
        match self.g.ir_exprs()[eid as usize].clone() {
            CExpr::Seq(xs) => {
                let _ = writeln!(body, "        let mut p = pos;");
                if want {
                    let _ = writeln!(body, "        let mut vals: Vec<Value> = Vec::new();");
                }
                for x in xs {
                    let snip = self.snippet(x, "p");
                    if want && self.g.ir_yields()[x as usize] {
                        let _ = writeln!(
                            body,
                            "        {{ let (np, o) = {snip}?; p = np; o.push_into(&mut vals); }}"
                        );
                    } else {
                        let _ = writeln!(body, "        {{ let (np, _o) = {snip}?; p = np; }}");
                    }
                }
                if want {
                    let _ = writeln!(body, "        Ok((p, Out::from_values(vals)))");
                } else {
                    let _ = writeln!(body, "        Ok((p, Out::None))");
                }
            }
            CExpr::Choice { arms, first } => {
                if first.is_some() {
                    let _ = writeln!(body, "        let b = self.input.byte_at(pos);");
                }
                for (i, arm) in arms.iter().enumerate() {
                    let snip = self.snippet(*arm, "pos");
                    let attempt = format!(
                        "        {{ let m = self.state.mark();\n          match {snip} {{\n            Ok(r) => return Ok(r),\n            Err(_) => {{ self.state.rollback(m); self.stats.backtracks += 1; }}\n          }} }}"
                    );
                    match first.as_ref().and_then(|f| {
                        let (set, desc) = &f[i];
                        first_guard(set).map(|g| (g, desc.clone()))
                    }) {
                        Some((guard, desc)) => {
                            let d = self.descs.get(&desc);
                            let _ = writeln!(
                                body,
                                "        if {guard} {{\n{attempt}\n        }} else {{ self.note(pos, D[{d}]); }}"
                            );
                        }
                        None => {
                            let _ = writeln!(body, "{attempt}");
                        }
                    }
                }
                let _ = writeln!(body, "        Err(Fail)");
            }
            CExpr::Opt { inner, .. } => {
                let snip = self.snippet(inner, "pos");
                let absent = if yields && want {
                    "Out::One(Value::Absent)"
                } else {
                    "Out::None"
                };
                let _ = writeln!(
                    body,
                    "        let m = self.state.mark();\n        match {snip} {{\n            Ok((np, o)) => Ok((np, self.normalize_opt(o))),\n            Err(_) => {{ self.state.rollback(m); Ok((pos, {absent})) }}\n        }}"
                );
            }
            CExpr::Star { inner, .. } if !(want && yields) && self.is_class(inner) => {
                // Lexical hot shape: `class*` takes the bulk scanner
                // (scalar fallback inside `class_star`). Classes never
                // yield values, so the collecting loop below can't apply.
                let (t, d) = self.class_args(inner).expect("guard checked");
                let _ = writeln!(
                    body,
                    "        self.class_star(pos, &CT[{t}], D[{d}]).map(|np| (np, Out::None))"
                );
            }
            CExpr::Plus { inner, .. } if !(want && yields) && self.is_class(inner) => {
                let (t, d) = self.class_args(inner).expect("guard checked");
                // The mandatory first match carries no guard tick, like
                // every other first `Plus` iteration.
                let _ = writeln!(body, "        let p = self.cls(pos, D[{d}], &CT[{t}])?;");
                let _ = writeln!(
                    body,
                    "        self.class_star(p, &CT[{t}], D[{d}]).map(|np| (np, Out::None))"
                );
            }
            CExpr::Star { inner, .. } => {
                let snip = self.snippet(inner, "p");
                let collect = want && yields;
                let _ = writeln!(body, "        let mut p = pos;");
                if collect {
                    let _ = writeln!(body, "        let mut items: Vec<Value> = Vec::new();");
                }
                let push = if collect {
                    "o.push_into(&mut items);"
                } else {
                    "let _ = o;"
                };
                let _ = writeln!(
                    body,
                    "        loop {{\n            self.guard()?;\n            let m = self.state.mark();\n            match {snip} {{\n                Ok((np, o)) => {{ if np == p {{ break; }} p = np; {push} }}\n                Err(_) => {{ self.state.rollback(m); break; }}\n            }}\n        }}"
                );
                if collect {
                    let _ = writeln!(body, "        let list = self.make_list(items);");
                    let _ = writeln!(body, "        Ok((p, Out::One(list)))");
                } else {
                    let _ = writeln!(body, "        Ok((p, Out::None))");
                }
            }
            CExpr::Plus { inner, .. } => {
                let first_snip = self.snippet(inner, "pos");
                let snip = self.snippet(inner, "p");
                let collect = want && yields;
                let _ = writeln!(body, "        let (mut p, first) = {first_snip}?;");
                if collect {
                    let _ = writeln!(body, "        let mut items: Vec<Value> = first.into_values();");
                } else {
                    let _ = writeln!(body, "        let _ = first;");
                }
                let push = if collect {
                    "o.push_into(&mut items);"
                } else {
                    "let _ = o;"
                };
                let _ = writeln!(
                    body,
                    "        loop {{\n            self.guard()?;\n            let m = self.state.mark();\n            match {snip} {{\n                Ok((np, o)) => {{ if np == p {{ break; }} p = np; {push} }}\n                Err(_) => {{ self.state.rollback(m); break; }}\n            }}\n        }}"
                );
                if collect {
                    let _ = writeln!(body, "        let list = self.make_list(items);");
                    let _ = writeln!(body, "        Ok((p, Out::One(list)))");
                } else {
                    let _ = writeln!(body, "        Ok((p, Out::None))");
                }
            }
            CExpr::And(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(
                    body,
                    "        let m = self.state.mark();\n        self.suppress += 1;\n        let r = {snip};\n        self.suppress -= 1;\n        self.state.rollback(m);\n        r.map(|_| (pos, Out::None))"
                );
            }
            CExpr::Not(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(
                    body,
                    "        let m = self.state.mark();\n        self.suppress += 1;\n        let r = {snip};\n        self.suppress -= 1;\n        self.state.rollback(m);\n        match r {{ Ok(_) => Err(Fail), Err(_) => Ok((pos, Out::None)) }}"
                );
            }
            CExpr::Capture(inner) => {
                let snip = self.snippet(inner, "pos");
                if want {
                    let _ = writeln!(
                        body,
                        "        let (end, _o) = {snip}?;\n        Ok((end, Out::One(Value::Text(Span::new(pos, end)))))"
                    );
                } else {
                    let _ = writeln!(body, "        let (end, _o) = {snip}?;\n        Ok((end, Out::None))");
                }
            }
            CExpr::Void(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(body, "        let (end, _o) = {snip}?;\n        Ok((end, Out::None))");
            }
            CExpr::SDefine(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(
                    body,
                    "        let (end, o) = {snip}?;\n        let name = state_name(&o, self.input.text(), pos, end).to_owned();\n        self.state.define(&name);\n        Ok((end, o))"
                );
            }
            CExpr::SIsDef(inner) => {
                let snip = self.snippet(inner, "pos");
                let d = self.descs.get("defined name");
                let _ = writeln!(
                    body,
                    "        let (end, o) = {snip}?;\n        let name = state_name(&o, self.input.text(), pos, end);\n        if self.state.is_defined(name) {{ Ok((end, o)) }} else {{ self.note(pos, D[{d}]); Err(Fail) }}"
                );
            }
            CExpr::SIsNotDef(inner) => {
                let snip = self.snippet(inner, "pos");
                let d = self.descs.get("undefined name");
                let _ = writeln!(
                    body,
                    "        let (end, o) = {snip}?;\n        let name = state_name(&o, self.input.text(), pos, end);\n        if self.state.is_defined(name) {{ self.note(pos, D[{d}]); Err(Fail) }} else {{ Ok((end, o)) }}"
                );
            }
            CExpr::SScope(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(
                    body,
                    "        let m = self.state.mark();\n        self.state.push_scope();\n        match {snip} {{\n            Ok(r) => {{ self.state.pop_scope(); Ok(r) }}\n            Err(e) => {{ self.state.rollback(m); Err(e) }}\n        }}"
                );
            }
            CExpr::Empty | CExpr::Any | CExpr::Lit { .. } | CExpr::Class { .. } | CExpr::Ref(_) => {
                unreachable!("terminals are inlined at use sites")
            }
        }
        // The public e-fn counts held expression frames (the same depth
        // model as the interpreter: machine stack is proportional to
        // composite-expression frames, not to production applications).
        let _ = writeln!(
            self.out,
            "    fn e{eid}(&mut self, pos: u32) -> Result<(u32, Out), Fail> {{\n        if self.depth >= self.max_depth {{\n            return Err(self.abort(ParseAbort::DepthExceeded));\n        }}\n        self.depth += 1;\n        let r = self.e{eid}_body(pos);\n        self.depth -= 1;\n        r\n    }}\n\n    fn e{eid}_body(&mut self, pos: u32) -> Result<(u32, Out), Fail> {{\n{body}    }}\n"
        );
    }

    fn is_class(&self, eid: EId) -> bool {
        matches!(self.g.ir_exprs()[eid as usize], CExpr::Class { .. })
    }

    /// When `eid` is a bare class, interns its scan table and failure
    /// description and returns their (`CT`, `D`) indices.
    fn class_args(&mut self, eid: EId) -> Option<(usize, usize)> {
        if let CExpr::Class { class, desc, .. } = &self.g.ir_exprs()[eid as usize] {
            let d = self.descs.get(desc);
            let t = self.table(class);
            Some((t, d))
        } else {
            None
        }
    }

    /// Emits the code for trying one production alternative, ending in
    /// `return Ok((end, value))` on success.
    fn emit_alt_attempt(&mut self, p_idx: usize, alt: &CAlt, lr_tail: bool) -> String {
        let p = &self.g.ir_prods()[p_idx];
        let kind = p.kind;
        let with_span = p.with_span;
        let pos_var = if lr_tail { "end" } else { "pos" };
        let snip = self.snippet(alt.expr, pos_var);
        let p_text_inner = p.text_takes_inner;
        let build = match kind {
            ProdKind::Void => "let value = Value::Unit;".to_owned(),
            ProdKind::Text if p_text_inner => format!(
                "let mut vs = o.into_values(); let value = if matches!(vs.first(), Some(Value::Text(_) | Value::OwnedText(_))) {{ vs.swap_remove(0) }} else {{ Value::Text(Span::new({pos_var}, e2)) }};"
            ),
            ProdKind::Text => format!("let value = Value::Text(Span::new({pos_var}, e2));"),
            ProdKind::Node => {
                let k = self.kinds.get(alt.node_kind.as_str());
                let span_expr = if with_span {
                    "Some(Span::new(pos, e2))"
                } else {
                    "None"
                };
                if lr_tail {
                    format!(
                        "let mut ch = vec![seed.clone()]; o.push_into(&mut ch); let value = self.make_node({k}, ch, {span_expr});"
                    )
                } else if alt.passthrough {
                    format!(
                        "let mut ch = o.into_values(); let value = if ch.len() == 1 {{ ch.pop().expect(\"len checked\") }} else {{ self.make_node({k}, ch, {span_expr}) }};"
                    )
                } else {
                    format!("let ch = o.into_values(); let value = self.make_node({k}, ch, {span_expr});")
                }
            }
        };
        let success = if lr_tail {
            format!("{{ {build} seed = value; end = e2; continue 'grow; }}")
        } else {
            format!("{{ {build} return Ok((e2, value)); }}")
        };
        let o_pat = if kind == ProdKind::Node || (kind == ProdKind::Text && p_text_inner) {
            "o"
        } else {
            "_o"
        };
        let attempt = format!(
            "        {{ let m = self.state.mark();\n          match {snip} {{\n            Ok((e2, {o_pat})) => {success}\n            Err(_) => {{ self.state.rollback(m); self.stats.backtracks += 1; self.telem.backtrack({p_idx}, {pos_var}, self.prod_depth); }}\n          }} }}"
        );
        match alt.first.as_ref().and_then(|(set, desc)| {
            first_guard(set).map(|g| (g, desc.clone()))
        }) {
            Some((guard, desc)) => {
                let d = self.descs.get(&desc);
                format!(
                    "        if {guard} {{\n{attempt}\n        }} else {{ self.note({pos_var}, D[{d}]); }}"
                )
            }
            None => attempt,
        }
    }

    fn emit_production(&mut self, p_idx: usize) {
        let p = self.g.ir_prods()[p_idx].clone();
        let _ = writeln!(self.out, "    /// Production `{}` ({}).", p.name, p.kind);
        let _ = writeln!(
            self.out,
            "    fn p{p_idx}(&mut self, pos: u32) -> Result<(u32, Value), Fail> {{"
        );
        // The span bracket around the production body: enter/exit are
        // single-branch no-ops when telemetry is disabled, so this is the
        // whole per-production telemetry cost on the fast path.
        let span_open = format!(
            "        let span = self.telem.enter({p_idx}, pos, self.prod_depth);\n        self.prod_depth += 1;\n        let r = self.p{p_idx}_impl(pos);\n        self.prod_depth -= 1;\n        let (s_end, s_matched) = match &r {{ Ok((end, _)) => (*end, true), Err(_) => (pos, false) }};\n        self.telem.exit(span, {p_idx}, pos, self.prod_depth, s_end, s_matched);"
        );
        if let Some(slot) = p.memo_slot {
            let (valid, epoch_expr) = if p.epoch_check {
                ("ans.epoch == self.state.epoch()", "self.state.epoch()")
            } else {
                ("true", "0")
            };
            // The guard ticks *before* the probe so memo hits and misses
            // cost the same fuel — fault injection relies on step counts
            // being deterministic across cache states.
            let _ = writeln!(
                self.out,
                "        self.guard()?;\n        self.stats.memo_probes += 1;\n        self.telem.memo_probe({p_idx}, pos);\n        if let Some(ans) = self.memo.probe({slot}, pos) {{\n            if {valid} {{\n                self.stats.memo_hits += 1;\n                self.telem.memo_hit({p_idx}, pos, self.prod_depth, ans.outcome.is_some());\n                return match &ans.outcome {{\n                    None => Err(Fail),\n                    Some((end, value)) => Ok((*end, value.clone())),\n                }};\n            }}\n        }}\n        self.stats.productions_evaluated += 1;\n{span_open}\n        if self.aborted.is_none() && !self.memo_frozen {{\n            self.stats.memo_stores += 1;\n            self.telem.memo_store({p_idx}, pos, r.is_ok());\n            let epoch = {epoch_expr};\n            let ans = match &r {{\n                Ok((end, v)) => MemoAnswer::success(epoch, *end, v.clone()),\n                Err(_) => MemoAnswer::fail(epoch),\n            }};\n            self.memo.store({slot}, pos, ans);\n            if self.memo_budget != u64::MAX && self.memo.retained_bytes() > self.memo_budget {{\n                self.enforce_memo_budget(pos);\n            }}\n        }}\n        r\n    }}\n"
            );
        } else {
            let _ = writeln!(
                self.out,
                "        self.guard()?;\n        self.stats.productions_evaluated += 1;\n{span_open}\n        r\n    }}\n"
            );
        }
        let _ = writeln!(
            self.out,
            "    fn p{p_idx}_impl(&mut self, pos: u32) -> Result<(u32, Value), Fail> {{"
        );
        match &p.lr {
            Some(lr) => {
                // Base: first matching base alternative becomes the seed.
                let _ = writeln!(self.out, "        let (mut end, mut seed) = self.p{p_idx}_base(pos)?;");
                let _ = writeln!(self.out, "        'grow: loop {{");
                // One guard tick per growth round: unbounded growth is
                // otherwise invisible to fuel and deadline accounting.
                let _ = writeln!(self.out, "            self.guard()?;");
                let has_dispatch = lr.tails.iter().any(|t| t.first.is_some());
                if has_dispatch {
                    let _ = writeln!(self.out, "            let b = self.input.byte_at(end);");
                }
                for tail in lr.tails.clone() {
                    let attempt = self.emit_alt_attempt(p_idx, &tail, true);
                    let _ = writeln!(self.out, "{attempt}");
                }
                let _ = writeln!(self.out, "            return Ok((end, seed));");
                let _ = writeln!(self.out, "        }}");
                let _ = writeln!(self.out, "    }}\n");
                // Base alternatives as their own function.
                let _ = writeln!(
                    self.out,
                    "    fn p{p_idx}_base(&mut self, pos: u32) -> Result<(u32, Value), Fail> {{"
                );
                let has_dispatch = lr.bases.iter().any(|a| a.first.is_some());
                if has_dispatch {
                    let _ = writeln!(self.out, "        let b = self.input.byte_at(pos);");
                }
                for alt in lr.bases.clone() {
                    let attempt = self.emit_alt_attempt(p_idx, &alt, false);
                    let _ = writeln!(self.out, "{attempt}");
                }
                let _ = writeln!(self.out, "        Err(Fail)");
                let _ = writeln!(self.out, "    }}\n");
            }
            None => {
                let has_dispatch = p.alts.iter().any(|a| a.first.is_some());
                if has_dispatch {
                    let _ = writeln!(self.out, "        let b = self.input.byte_at(pos);");
                }
                for alt in p.alts.clone() {
                    let attempt = self.emit_alt_attempt(p_idx, &alt, false);
                    let _ = writeln!(self.out, "{attempt}");
                }
                let _ = writeln!(self.out, "        Err(Fail)");
                let _ = writeln!(self.out, "    }}\n");
            }
        }
        // Expression functions for this production's composites.
        let alts: Vec<EId> = p
            .alts
            .iter()
            .chain(p.lr.iter().flat_map(|lr| lr.bases.iter().chain(lr.tails.iter())))
            .map(|a| a.expr)
            .collect();
        for e in alts {
            self.emit_expr_fns(e);
        }
    }

    pub(crate) fn emit(mut self, doc: &str) -> String {
        let root = self.g.ir_root();
        let n_prods = self.g.ir_prods().len();
        for i in 0..n_prods {
            self.emit_production(i);
        }
        let fns = std::mem::take(&mut self.out);

        let kinds = self
            .kinds
            .items
            .iter()
            .map(|k| rust_str(k))
            .collect::<Vec<_>>()
            .join(", ");
        let descs = self
            .descs
            .items
            .iter()
            .map(|k| rust_str(k))
            .collect::<Vec<_>>()
            .join(", ");
        let tables = self
            .tables
            .iter()
            .map(table_literal)
            .collect::<Vec<_>>()
            .join(",\n    ");
        let prod_names = self
            .g
            .ir_prods()
            .iter()
            .map(|p| rust_str(&p.name))
            .collect::<Vec<_>>()
            .join(", ");

        let n_slots = self.g.memo_slot_count();
        let policy = self.g.recover_policy();
        let byte_list = |bytes: Vec<u8>| {
            bytes
                .into_iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let restart = byte_list(policy.sync.bytes());
        let consume = byte_list(policy.consume.bytes());
        format!(
            r#"// GENERATED by modpeg-codegen — do not edit.
//
// {doc}
//
// Include this file inside a dedicated module, e.g.
// `pub mod parser {{ include!(concat!(env!("OUT_DIR"), "/x_parser.rs")); }}`.

use modpeg_runtime::{{
    engine, scan, ChunkMemo, EventSink, Fail, Failures, Governor, Input, MemoAnswer, MemoTable,
    NodeKind, Out, Outcome, ParseAbort, ParseError, ParseRequest, RecoverPolicy, Recovered,
    ScopedState, Span, Stats, SyncSet, SyntaxTree, Value, DEFAULT_MAX_DEPTH,
}};
use modpeg_telemetry::Telemetry;

/// Node-kind table.
const K: &[&str] = &[{kinds}];
/// Expected-input descriptions for diagnostics.
const D: &[&str] = &[{descs}];
/// Precompiled character-class scan tables: ASCII membership bitmap +
/// non-ASCII verdict, baked at generation time.
static CT: &[scan::ClassTable] = &[{tables}];
/// Production names (telemetry reports index into this table).
const PN: &[&str] = &[{prod_names}];
/// Memoization slots.
const N_SLOTS: u32 = {n_slots};

/// The generated packrat parser over one input.
pub struct Parser<'i> {{
    input: Input<'i>,
    memo: ChunkMemo,
    state: ScopedState,
    failures: Failures,
    stats: Stats,
    suppress: u32,
    /// Whether semantic values are built in the memo's arena (default)
    /// or as individually heap-allocated trees (the legacy entry points).
    use_arena: bool,
    kinds: Vec<NodeKind>,
    gov: Option<&'i Governor>,
    aborted: Option<ParseAbort>,
    depth: u32,
    max_depth: u32,
    memo_budget: u64,
    memo_frozen: bool,
    telem: Telemetry,
    prod_depth: u32,
}}

impl<'i> Parser<'i> {{
    /// Creates a parser over `text`.
    pub fn new(text: &'i str) -> Self {{
        let input = Input::new(text);
        let len = input.len();
        Parser {{
            input,
            memo: ChunkMemo::new(N_SLOTS, len),
            state: ScopedState::new(),
            failures: Failures::new(),
            stats: Stats::default(),
            suppress: 0,
            use_arena: true,
            kinds: K.iter().map(NodeKind::new).collect(),
            gov: None,
            aborted: None,
            depth: 0,
            max_depth: u32::MAX,
            memo_budget: u64::MAX,
            memo_frozen: false,
            telem: Telemetry::disabled(),
            prod_depth: 0,
        }}
    }}

    /// Creates a parser over `text` under `gov`'s limits and reporting to
    /// `telem`, when given.
    fn open(text: &'i str, gov: Option<&'i Governor>, telem: Option<&Telemetry>) -> Self {{
        let mut parser = Parser::new(text);
        if let Some(gov) = gov {{
            parser.max_depth = gov.max_depth().unwrap_or(DEFAULT_MAX_DEPTH);
            parser.memo_budget = gov.memo_budget().unwrap_or(u64::MAX);
            parser.gov = Some(gov);
        }}
        if let Some(telem) = telem.filter(|t| t.is_enabled()) {{
            telem.set_names(PN.iter().map(|s| (*s).to_owned()).collect());
            telem.set_input_len(parser.input.len());
            parser.telem = telem.clone();
        }}
        parser
    }}

    #[inline]
    fn guard(&mut self) -> Result<(), Fail> {{
        if self.aborted.is_some() {{
            return Err(Fail);
        }}
        if let Some(gov) = self.gov {{
            if let Err(kind) = gov.tick() {{
                self.aborted = Some(kind);
                return Err(Fail);
            }}
        }}
        Ok(())
    }}

    #[cold]
    fn abort(&mut self, kind: ParseAbort) -> Fail {{
        if let Some(gov) = self.gov {{
            gov.trip(kind);
        }}
        if self.aborted.is_none() {{
            self.aborted = Some(kind);
            self.telem.gov_abort(kind.name());
        }}
        Fail
    }}

    /// Graceful degradation when retained memo bytes exceed the budget:
    /// evict cold columns first, then fall back to transient-only parsing,
    /// and only abort when even an empty table is over budget.
    #[cold]
    fn enforce_memo_budget(&mut self, hot_from: u32) {{
        if self.memo.retained_bytes() <= self.memo_budget {{
            return;
        }}
        self.stats.gov_evictions += 1;
        let freed = self.memo.evict_cold(hot_from).columns_freed;
        self.stats.gov_columns_evicted += freed;
        self.telem.memo_evict(hot_from, freed.min(u64::from(u32::MAX)) as u32);
        if self.memo.retained_bytes() <= self.memo_budget {{
            return;
        }}
        self.memo_frozen = true;
        self.stats.gov_transient_fallbacks += 1;
        self.memo.evict_all();
        if self.memo.retained_bytes() <= self.memo_budget {{
            return;
        }}
        let _ = self.abort(ParseAbort::MemoBudget);
    }}

    fn note(&mut self, pos: u32, desc: &str) {{
        if self.suppress == 0 {{
            self.failures.note(pos, desc);
        }}
    }}

    fn lit(&mut self, pos: u32, text: &str, desc: &'static str) -> Result<u32, Fail> {{
        self.stats.terminal_comparisons += text.len() as u64;
        if self.input.starts_with(pos, text) {{
            Ok(pos + text.len() as u32)
        }} else {{
            self.note(pos, desc);
            Err(Fail)
        }}
    }}

    fn cls(&mut self, pos: u32, desc: &'static str, t: &scan::ClassTable) -> Result<u32, Fail> {{
        self.stats.terminal_comparisons += 1;
        match self.input.char_at(pos) {{
            Some((c, len)) if t.matches_char(c) => Ok(pos + len),
            _ => {{
                self.note(pos, desc);
                Err(Fail)
            }}
        }}
    }}

    /// The guarded tail of a class repetition (`class*`, or `class+`
    /// after its mandatory first match): one bulk scan, then the
    /// governor charged per consumed character plus the final failing
    /// probe in a single batched call. When the scalar path is forced,
    /// the original per-character loop runs instead; observables (guard
    /// ticks, `terminal_comparisons`, the farthest-failure note, the
    /// abort point) are identical either way.
    fn class_star(
        &mut self,
        pos: u32,
        t: &scan::ClassTable,
        desc: &'static str,
    ) -> Result<u32, Fail> {{
        if scan::scalar_forced() {{
            let mut p = pos;
            loop {{
                // A repetition over a bare terminal never reaches a
                // production's guard, so it ticks on its own (the final
                // failing probe included).
                self.guard()?;
                match self.cls(p, desc, t) {{
                    Ok(np) => p = np,
                    Err(_) => return Ok(p),
                }}
            }}
        }}
        if self.aborted.is_some() {{
            return Err(Fail);
        }}
        let run = scan::scan_class_run(self.input.text(), pos, t);
        let need = u64::from(run.chars) + 1;
        if let Some(gov) = self.gov {{
            if let Err((done, kind)) = gov.tick_many(need) {{
                self.stats.terminal_comparisons += done;
                self.aborted = Some(kind);
                return Err(Fail);
            }}
        }}
        self.stats.terminal_comparisons += need;
        self.note(run.end, desc);
        Ok(run.end)
    }}

    fn any(&mut self, pos: u32) -> Result<u32, Fail> {{
        match self.input.char_at(pos) {{
            Some((_, len)) => Ok(pos + len),
            None => {{
                self.note(pos, "any character");
                Err(Fail)
            }}
        }}
    }}

    fn make_node(&mut self, kind: usize, children: Vec<Value>, span: Option<Span>) -> Value {{
        self.stats.nodes_built += 1;
        let k = self.kinds[kind].clone();
        if self.use_arena {{
            self.stats.value_bytes += (modpeg_runtime::Arena::NODE_BYTES
                + children.len() * std::mem::size_of::<Value>()) as u64;
            return Value::ArenaNode(self.memo.arena_mut().alloc_node(k, children, span));
        }}
        self.stats.value_bytes += (std::mem::size_of::<modpeg_runtime::Node>()
            + children.capacity() * std::mem::size_of::<Value>()) as u64;
        match span {{
            Some(s) => Value::Node(std::rc::Rc::new(modpeg_runtime::Node::with_span(k, children, s))),
            None => Value::Node(std::rc::Rc::new(modpeg_runtime::Node::new(k, children))),
        }}
    }}

    fn make_list(&mut self, items: Vec<Value>) -> Value {{
        if self.use_arena {{
            let items = if items
                .iter()
                .any(|v| matches!(v, Value::List(_) | Value::ArenaList(_)))
            {{
                let arena = self.memo.arena();
                let mut flat = Vec::with_capacity(items.len());
                for v in items {{
                    match v {{
                        Value::List(l) => flat.extend(l.iter().cloned()),
                        Value::ArenaList(r) => flat.extend(arena.children(r).iter().cloned()),
                        other => flat.push(other),
                    }}
                }}
                flat
            }} else {{
                items
            }};
            self.stats.lists_built += 1;
            self.stats.value_bytes += (modpeg_runtime::Arena::NODE_BYTES
                + items.len() * std::mem::size_of::<Value>()) as u64;
            return Value::ArenaList(self.memo.arena_mut().alloc_list(items));
        }}
        let items = if items.iter().any(|v| matches!(v, Value::List(_))) {{
            let mut flat = Vec::with_capacity(items.len());
            for v in items {{
                match v {{
                    Value::List(l) => flat.extend(l.iter().cloned()),
                    other => flat.push(other),
                }}
            }}
            flat
        }} else {{
            items
        }};
        self.stats.lists_built += 1;
        self.stats.value_bytes += (std::mem::size_of::<Vec<Value>>()
            + items.capacity() * std::mem::size_of::<Value>()) as u64;
        Value::list(items)
    }}

    fn normalize_opt(&mut self, o: Out) -> Out {{
        match o {{
            Out::Many(vs) => {{
                let list = self.make_list(vs);
                Out::One(list)
            }}
            other => other,
        }}
    }}

{fns}}}

/// The name a state operation works with: the operand's first textual
/// value when it has one, otherwise the whole matched span.
fn state_name<'a>(o: &'a Out, input: &'a str, pos: u32, end: u32) -> &'a str {{
    let first = match o {{
        Out::One(v) => Some(v),
        Out::Many(vs) => vs.first(),
        Out::None => None,
    }};
    first
        .and_then(|v| v.as_text(input))
        .unwrap_or(&input[pos as usize..end as usize])
}}

impl modpeg_runtime::ParseRun for Parser<'_> {{
    fn eval_root(&mut self, pos: u32) -> Result<(u32, Value), Fail> {{
        self.p{root}(pos)
    }}

    fn aborted(&self) -> Option<ParseAbort> {{
        self.aborted
    }}

    fn failures(&mut self) -> &mut Failures {{
        &mut self.failures
    }}

    fn error(&self) -> ParseError {{
        self.failures.to_error(&self.input)
    }}

    /// Detaches `value` from the parser's arena before it escapes into a
    /// [`SyntaxTree`]. Legacy trees pass through as-is.
    fn materialize(&self, value: Value) -> Value {{
        if self.use_arena {{
            self.memo.arena().copy_out(&value)
        }} else {{
            value
        }}
    }}

    fn emit(&self, value: &Value, sink: &mut dyn EventSink) {{
        self.memo.arena().emit_events(value, sink);
    }}

    fn finish_stats(&mut self) -> Stats {{
        self.stats.memo_bytes = self.memo.retained_bytes();
        std::mem::take(&mut self.stats)
    }}
}}

/// Parses `text` as `req` asks: a tree, events, or a resilient parse,
/// optionally governed and reporting to a telemetry handle.
pub fn run(text: &str, req: ParseRequest<'_>) -> Outcome {{
    let (gov, telem) = (req.governor, req.telemetry);
    engine::drive(text, req, || Parser::open(text, gov, telem)).0
}}

/// This parser as a [`modpeg_runtime::Engine`].
pub struct Generated;

impl modpeg_runtime::Engine for Generated {{
    fn run(&self, text: &str, req: ParseRequest<'_>) -> Outcome {{
        run(text, req)
    }}

    fn recover_policy(&self) -> RecoverPolicy {{
        recover_policy()
    }}

    fn name(&self) -> &'static str {{
        "codegen"
    }}
}}

/// Parses `text`, requiring full input consumption.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the farthest failure.
pub fn parse(text: &str) -> Result<SyntaxTree, ParseError> {{
    parse_with_stats(text).0
}}

/// Like [`parse`], also returning runtime statistics.
pub fn parse_with_stats(text: &str) -> (Result<SyntaxTree, ParseError>, Stats) {{
    engine::tree_result(run(text, ParseRequest::tree()))
}}

/// Parses `text` in SAX event mode: on a full match the semantic tree is
/// streamed to `sink` straight from the parser's arena. No events are
/// delivered for failing parses.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the farthest failure.
pub fn parse_events(text: &str, sink: &mut dyn EventSink) -> Result<(), ParseError> {{
    engine::events_result(run(text, ParseRequest::events(sink)))
}}

/// Parses `text` with panic-mode error recovery: never fails on
/// malformed input, returning a partial tree (skipped regions become
/// `$error` nodes) plus the diagnostics report.
pub fn parse_resilient(text: &str, policy: &RecoverPolicy) -> Recovered<SyntaxTree> {{
    engine::recovered_result(run(text, ParseRequest::resilient(policy)))
}}

/// Like [`parse`], but building legacy heap-allocated values instead of
/// arena-backed ones. Produces structurally identical trees — the entry
/// exists for the equivalence tests and the heap experiments.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the farthest failure.
pub fn parse_legacy(text: &str) -> Result<SyntaxTree, ParseError> {{
    let legacy = || {{
        let mut parser = Parser::new(text);
        parser.use_arena = false;
        parser
    }};
    engine::tree_result(engine::drive(text, ParseRequest::tree(), legacy).0).0
}}

// ----- the recovery policy resilient parses run under -----

/// Restart synchronization bytes: FIRST(root) plus every `@recover`
/// byte, computed from the *source* grammar before any transform (so
/// the set is byte-identical across engines).
const RESTART: &[u8] = &[{restart}];
/// The terminator subset of [`RESTART`] consumed on resume (`@recover`
/// bytes that cannot start the root production).
const CONSUME: &[u8] = &[{consume}];

/// The engine-shared [`RecoverPolicy`] for this grammar, with the
/// default error budget. Identical to the interpreter's and the VM's
/// for the same grammar.
pub fn recover_policy() -> RecoverPolicy {{
    RecoverPolicy::new(SyncSet::from_bytes(RESTART.iter().copied()))
        .with_consume(SyncSet::from_bytes(CONSUME.iter().copied()))
}}
"#,
            root = root.0,
            restart = restart,
            consume = consume,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rust_str_escapes() {
        assert_eq!(rust_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn table_literal_is_const_source() {
        let c = modpeg_core::CharClass::from_ranges(vec![('a', 'z'), ('_', '_')], false);
        let t = modpeg_runtime::ClassTable::from_ranges(c.ranges(), c.is_negated());
        let src = table_literal(&t);
        assert!(src.starts_with("scan::ClassTable::from_bitmap(["), "{src}");
        assert!(src.ends_with("scan::WideVerdict::MatchNone)"), "{src}");

        let neg = modpeg_core::CharClass::from_ranges(vec![('"', '"')], true);
        let tn = modpeg_runtime::ClassTable::from_ranges(neg.ranges(), neg.is_negated());
        assert!(table_literal(&tn).contains("MatchAll"));

        let wide = modpeg_core::CharClass::from_ranges(vec![('a', 'é')], false);
        let tw = modpeg_runtime::ClassTable::from_ranges(wide.ranges(), wide.is_negated());
        let srcw = table_literal(&tw);
        assert!(srcw.contains("Cow::Borrowed(&[(128, 233)])"), "{srcw}");
        assert!(srcw.contains("negated: false"), "{srcw}");
    }

    #[test]
    fn first_guard_shapes() {
        let mut s = FirstSet::none();
        s.insert(b'a');
        s.insert(b'b');
        s.insert(b'x');
        assert_eq!(
            first_guard(&s).unwrap(),
            "matches!(b, Some(97u8..=98u8 | 120u8))"
        );
        assert_eq!(first_guard(&FirstSet::all()), None);
        assert_eq!(first_guard(&FirstSet::none()).unwrap(), "false");
    }
}
