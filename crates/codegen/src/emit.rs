//! The Rust source emitter.
//!
//! Walks the interpreter's compiled IR and prints one parse function per
//! production and per composite expression. The emitted parser implements
//! the optimized runtime strategies (iterative repetitions, chunked
//! memoization, farthest-failure errors, span text, fold-based left
//! recursion) — exactly what Rats! generates; the interpreter exists to
//! measure the unoptimized strategies. Dispatch tables, memo slots and
//! which values are built come from the compiled IR.

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
        Emitter {
            g,
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
        match &self.g.ir_exprs()[eid as usize] {
            CExpr::Empty => format!("Ok::<(u32, Out), Fail>(({pos}, Out::None))"),
            CExpr::Any => format!("self.cx.any({pos}).map(|np| (np, Out::None))"),
            CExpr::Lit { text, desc } => {
                let d = self.descs.get(desc);
                format!(
                    "self.cx.lit({pos}, {}, D[{d}]).map(|np| (np, Out::None))",
                    rust_str(text)
                )
            }
            CExpr::Class { class, desc, .. } => {
                let d = self.descs.get(desc);
                let t = self.table(class);
                format!("self.cx.cls({pos}, &CT[{t}], D[{d}]).map(|np| (np, Out::None))")
            }
            CExpr::Ref(id) => {
                if self.g.ir_keep()[eid as usize] {
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
        let keep = self.g.ir_keep()[eid as usize];
        let mut body = String::new();
        match self.g.ir_exprs()[eid as usize].clone() {
            CExpr::Seq(xs) => {
                let _ = writeln!(body, "        let mut p = pos;");
                if keep {
                    let _ = writeln!(body, "        let mut vals: Vec<Value> = Vec::new();");
                }
                for x in xs {
                    let snip = self.snippet(x, "p");
                    if self.g.ir_keep()[x as usize] {
                        let _ = writeln!(
                            body,
                            "        {{ let (np, o) = {snip}?; p = np; o.push_into(&mut vals); }}"
                        );
                    } else {
                        let _ = writeln!(body, "        {{ let (np, _o) = {snip}?; p = np; }}");
                    }
                }
                if keep {
                    let _ = writeln!(body, "        Ok((p, Out::from_values(vals)))");
                } else {
                    let _ = writeln!(body, "        Ok((p, Out::None))");
                }
            }
            CExpr::Choice { arms, first } => {
                if first.is_some() {
                    let _ = writeln!(body, "        let b = self.cx.input.byte_at(pos);");
                }
                for (i, arm) in arms.iter().enumerate() {
                    let snip = self.snippet(*arm, "pos");
                    let attempt = format!(
                        "        {{ let m = self.cx.state.mark();\n          match {snip} {{\n            Ok(r) => return Ok(r),\n            Err(_) => {{ self.cx.state.rollback(m); self.cx.stats.backtracks += 1; }}\n          }} }}"
                    );
                    match first.as_ref().and_then(|f| {
                        let (set, desc) = &f[i];
                        first_guard(set).map(|g| (g, desc.clone()))
                    }) {
                        Some((guard, desc)) => {
                            let d = self.descs.get(&desc);
                            let _ = writeln!(
                                body,
                                "        if {guard} {{\n{attempt}\n        }} else {{ self.cx.note(pos, D[{d}]); }}"
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
                let absent = if keep {
                    "Out::One(Value::Absent)"
                } else {
                    "Out::None"
                };
                let _ = writeln!(
                    body,
                    "        let m = self.cx.state.mark();\n        match {snip} {{\n            Ok((np, o)) => Ok((np, self.cx.normalize_opt(o))),\n            Err(_) => {{ self.cx.state.rollback(m); Ok((pos, {absent})) }}\n        }}"
                );
            }
            CExpr::Star { inner, .. } if self.is_class(inner) => {
                // Lexical hot shape: `class*` takes the runtime's class run.
                let (t, d) = self.class_args(inner).expect("guard checked");
                let _ = writeln!(
                    body,
                    "        self.cx.class_run(pos, &CT[{t}], D[{d}]).map_err(|_| Fail).map(|np| (np, Out::None))"
                );
            }
            CExpr::Plus { inner, .. } if self.is_class(inner) => {
                let (t, d) = self.class_args(inner).expect("guard checked");
                // The mandatory first match carries no guard tick, like
                // every other first `Plus` iteration.
                let _ = writeln!(body, "        let p = self.cx.cls(pos, &CT[{t}], D[{d}])?;");
                let _ = writeln!(
                    body,
                    "        self.cx.class_run(p, &CT[{t}], D[{d}]).map_err(|_| Fail).map(|np| (np, Out::None))"
                );
            }
            CExpr::Star { inner, .. } => {
                let snip = self.snippet(inner, "p");
                let _ = writeln!(body, "        let mut p = pos;");
                if keep {
                    let _ = writeln!(body, "        let mut items: Vec<Value> = Vec::new();");
                }
                let push = if keep {
                    "o.push_into(&mut items);"
                } else {
                    "let _ = o;"
                };
                let _ = writeln!(
                    body,
                    "        loop {{\n            self.cx.guard()?;\n            let m = self.cx.state.mark();\n            match {snip} {{\n                Ok((np, o)) => {{ if np == p {{ break; }} p = np; {push} }}\n                Err(_) => {{ self.cx.state.rollback(m); break; }}\n            }}\n        }}"
                );
                if keep {
                    let _ = writeln!(body, "        let list = self.cx.make_list(items);");
                    let _ = writeln!(body, "        Ok((p, Out::One(list)))");
                } else {
                    let _ = writeln!(body, "        Ok((p, Out::None))");
                }
            }
            CExpr::Plus { inner, .. } => {
                let first_snip = self.snippet(inner, "pos");
                let snip = self.snippet(inner, "p");
                let _ = writeln!(body, "        let (mut p, first) = {first_snip}?;");
                if keep {
                    let _ = writeln!(
                        body,
                        "        let mut items: Vec<Value> = first.into_values();"
                    );
                } else {
                    let _ = writeln!(body, "        let _ = first;");
                }
                let push = if keep {
                    "o.push_into(&mut items);"
                } else {
                    "let _ = o;"
                };
                let _ = writeln!(
                    body,
                    "        loop {{\n            self.cx.guard()?;\n            let m = self.cx.state.mark();\n            match {snip} {{\n                Ok((np, o)) => {{ if np == p {{ break; }} p = np; {push} }}\n                Err(_) => {{ self.cx.state.rollback(m); break; }}\n            }}\n        }}"
                );
                if keep {
                    let _ = writeln!(body, "        let list = self.cx.make_list(items);");
                    let _ = writeln!(body, "        Ok((p, Out::One(list)))");
                } else {
                    let _ = writeln!(body, "        Ok((p, Out::None))");
                }
            }
            CExpr::And(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(
                    body,
                    "        let m = self.cx.state.mark();\n        self.cx.suppress += 1;\n        let r = {snip};\n        self.cx.suppress -= 1;\n        self.cx.state.rollback(m);\n        r.map(|_| (pos, Out::None))"
                );
            }
            CExpr::Not(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(
                    body,
                    "        let m = self.cx.state.mark();\n        self.cx.suppress += 1;\n        let r = {snip};\n        self.cx.suppress -= 1;\n        self.cx.state.rollback(m);\n        match r {{ Ok(_) => Err(Fail), Err(_) => Ok((pos, Out::None)) }}"
                );
            }
            CExpr::Capture(inner) => {
                let snip = self.snippet(inner, "pos");
                if keep {
                    let _ = writeln!(
                        body,
                        "        let (end, _o) = {snip}?;\n        Ok((end, Out::One(Value::Text(Span::new(pos, end)))))"
                    );
                } else {
                    let _ = writeln!(
                        body,
                        "        let (end, _o) = {snip}?;\n        Ok((end, Out::None))"
                    );
                }
            }
            CExpr::Void(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(
                    body,
                    "        let (end, _o) = {snip}?;\n        Ok((end, Out::None))"
                );
            }
            CExpr::SDefine(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(
                    body,
                    "        let (end, o) = {snip}?;\n        let name = self.cx.state_name(o.first(), pos, end).to_owned();\n        self.cx.state.define(&name);\n        Ok((end, o))"
                );
            }
            CExpr::SIsDef(inner) => {
                let snip = self.snippet(inner, "pos");
                let d = self.descs.get("defined name");
                let _ = writeln!(
                    body,
                    "        let (end, o) = {snip}?;\n        let name = self.cx.state_name(o.first(), pos, end);\n        if self.cx.state.is_defined(name) {{ Ok((end, o)) }} else {{ self.cx.note(pos, D[{d}]); Err(Fail) }}"
                );
            }
            CExpr::SIsNotDef(inner) => {
                let snip = self.snippet(inner, "pos");
                let d = self.descs.get("undefined name");
                let _ = writeln!(
                    body,
                    "        let (end, o) = {snip}?;\n        let name = self.cx.state_name(o.first(), pos, end);\n        if self.cx.state.is_defined(name) {{ self.cx.note(pos, D[{d}]); Err(Fail) }} else {{ Ok((end, o)) }}"
                );
            }
            CExpr::SScope(inner) => {
                let snip = self.snippet(inner, "pos");
                let _ = writeln!(
                    body,
                    "        let m = self.cx.state.mark();\n        self.cx.state.push_scope();\n        match {snip} {{\n            Ok(r) => {{ self.cx.state.pop_scope(); Ok(r) }}\n            Err(e) => {{ self.cx.state.rollback(m); Err(e) }}\n        }}"
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
            "    fn e{eid}(&mut self, pos: u32) -> Result<(u32, Out), Fail> {{\n        self.cx.check_depth(self.depth)?;\n        self.depth += 1;\n        let r = self.e{eid}_body(pos);\n        self.depth -= 1;\n        r\n    }}\n\n    fn e{eid}_body(&mut self, pos: u32) -> Result<(u32, Out), Fail> {{\n{body}    }}\n"
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
            ProdKind::Text if p_text_inner => {
                format!("let value = self.cx.inner_text(o, {pos_var}, e2, true);")
            }
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
                        "let mut ch = vec![seed.clone()]; o.push_into(&mut ch); let value = self.cx.make_node(&self.kinds[{k}], ch, {span_expr});"
                    )
                } else if alt.passthrough {
                    format!("let value = self.cx.pass_through(&self.kinds[{k}], o, {span_expr});")
                } else {
                    format!("let ch = o.into_values(); let value = self.cx.make_node(&self.kinds[{k}], ch, {span_expr});")
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
            "        {{ let m = self.cx.state.mark();\n          match {snip} {{\n            Ok((e2, {o_pat})) => {success}\n            Err(_) => {{ self.cx.state.rollback(m); self.cx.backtrack({p_idx}, {pos_var}); }}\n          }} }}"
        );
        match alt
            .first
            .as_ref()
            .and_then(|(set, desc)| first_guard(set).map(|g| (g, desc.clone())))
        {
            Some((guard, desc)) => {
                let d = self.descs.get(&desc);
                format!(
                    "        if {guard} {{\n{attempt}\n        }} else {{ self.cx.note({pos_var}, D[{d}]); }}"
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
        // The guard ticks *before* the probe so memo hits and misses cost
        // the same fuel; `RunCtx` keeps the rest of the memo protocol.
        let _ = writeln!(self.out, "        self.cx.guard()?;");
        if let Some(slot) = p.memo_slot {
            let _ = writeln!(
                self.out,
                "        if let Some(hit) = self.cx.lookup({p_idx}, {slot}, pos, {}) {{\n            return hit;\n        }}",
                p.epoch_check
            );
        }
        let _ = writeln!(
            self.out,
            "        let span = self.cx.enter({p_idx}, pos);\n        let r = self.p{p_idx}_impl(pos);\n        self.cx.exit(span, {p_idx}, pos, r.as_ref().ok().map(|&(end, _)| end));"
        );
        if let Some(slot) = p.memo_slot {
            let _ = writeln!(
                self.out,
                "        self.cx.store_answer({p_idx}, {slot}, pos, {}, r.clone());",
                p.epoch_check
            );
        }
        let _ = writeln!(self.out, "        r\n    }}\n");
        let _ = writeln!(
            self.out,
            "    fn p{p_idx}_impl(&mut self, pos: u32) -> Result<(u32, Value), Fail> {{"
        );
        // The alternatives tried in order at `pos`: the production's own,
        // or the bases of a left-recursive one, which get their own
        // function that the grow loop seeds from.
        let alts = match p.lr_split() {
            Some((bases, tails)) => {
                let _ = writeln!(
                    self.out,
                    "        let (mut end, mut seed) = self.p{p_idx}_base(pos)?;"
                );
                let _ = writeln!(self.out, "        'grow: loop {{");
                // One guard tick per growth round: unbounded growth is
                // otherwise invisible to fuel and deadline accounting.
                let _ = writeln!(self.out, "            self.cx.guard()?;");
                if tails.iter().any(|t| t.first.is_some()) {
                    let _ = writeln!(self.out, "            let b = self.cx.input.byte_at(end);");
                }
                for tail in tails {
                    let attempt = self.emit_alt_attempt(p_idx, tail, true);
                    let _ = writeln!(self.out, "{attempt}");
                }
                let _ = writeln!(self.out, "            return Ok((end, seed));");
                let _ = writeln!(self.out, "        }}");
                let _ = writeln!(self.out, "    }}\n");
                let _ = writeln!(
                    self.out,
                    "    fn p{p_idx}_base(&mut self, pos: u32) -> Result<(u32, Value), Fail> {{"
                );
                bases
            }
            None => &p.alts[..],
        };
        if alts.iter().any(|a| a.first.is_some()) {
            let _ = writeln!(self.out, "        let b = self.cx.input.byte_at(pos);");
        }
        for alt in alts {
            let attempt = self.emit_alt_attempt(p_idx, alt, false);
            let _ = writeln!(self.out, "{attempt}");
        }
        let _ = writeln!(self.out, "        Err(Fail)");
        let _ = writeln!(self.out, "    }}\n");
        // Expression functions for this production's composites.
        for alt in &p.alts {
            self.emit_expr_fns(alt.expr);
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
        // Only grammars with spanned nodes or text values name `Span`.
        let span = if fns.contains("Span::") { "Span, " } else { "" };
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
    engine, scan, ChunkMemo, EventSink, Fail, Failures, Governor, NodeKind, Out, Outcome,
    ParseError, ParseRequest, ParseRun, RecoverPolicy, Recovered, RunCtx, {span}Stats, SyncSet,
    SyntaxTree, Value,
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

/// The generated packrat parser over one input: the grammar's functions
/// over the runtime's run context.
struct Parser<'i> {{
    cx: RunCtx<'i, ChunkMemo>,
    kinds: Vec<NodeKind>,
    /// Expression frames on the call stack.
    depth: u32,
}}

impl<'i> Parser<'i> {{
    /// Opens a parser over `text` under `gov`'s limits and reporting to
    /// `telem`, when given.
    fn open(text: &'i str, gov: Option<&'i Governor>, telem: Option<&Telemetry>) -> Self {{
        let memo = ChunkMemo::new(N_SLOTS, text.len() as u32);
        let names = || PN.iter().map(|s| (*s).to_owned()).collect();
        Parser {{
            cx: RunCtx::open(text, memo, Failures::new(), gov, telem, names),
            kinds: K.iter().map(NodeKind::new).collect(),
            depth: 0,
        }}
    }}

{fns}}}

impl<'i> ParseRun<'i> for Parser<'i> {{
    type Memo = ChunkMemo;

    fn eval_root(&mut self, pos: u32) -> Result<(u32, Value), Fail> {{
        self.p{root}(pos)
    }}

    fn cx(&mut self) -> &mut RunCtx<'i, ChunkMemo> {{
        &mut self.cx
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

    /// The run protocol lives in `modpeg_runtime::RunCtx`, not in the
    /// generated module: every function of the parser is one of the
    /// grammar's production or expression functions, plus `open`.
    #[test]
    fn generated_modules_hold_only_grammar_code() {
        let java = include_str!("../../grammars/grammars/java.mpeg");
        let grammar = modpeg_syntax::parse_module_set([java])
            .and_then(|set| set.elaborate("java.Program", Some("Program")))
            .expect("the Java grammar elaborates");
        let src = crate::generate(&grammar, "java").expect("the Java grammar generates");
        let numbered = |name: &str, prefix: char, suffixes: &[&str]| {
            suffixes.iter().any(|sfx| {
                name.strip_suffix(sfx)
                    .and_then(|n| n.strip_prefix(prefix))
                    .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
            })
        };
        let start = src
            .find("impl<'i> Parser<'i> {")
            .expect("the parser's impl");
        let body = &src[start..];
        let body = &body[..body.find("\n}\n").expect("the impl's end")];
        let names: Vec<&str> = body
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("fn "))
            .map(|rest| &rest[..rest.find(['(', '<']).expect("a signature")])
            .collect();
        assert!(names.len() > 500, "{} functions", names.len());
        for name in names {
            assert!(
                name == "open"
                    || numbered(name, 'p', &["", "_impl", "_base"])
                    || numbered(name, 'e', &["", "_body"]),
                "`{name}` is not a grammar function"
            );
        }
        for protocol in ["tick_many", "evict_cold", "memo_budget", "gov.trip"] {
            assert!(!src.contains(protocol), "the module names `{protocol}`");
        }
        assert!(!src.contains("pub struct Parser") && !src.contains("pub fn new"));
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
