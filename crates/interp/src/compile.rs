//! Lowering an elaborated [`Grammar`] into the interpreter's compiled form.
//!
//! The compiled form is an expression *arena*: every subexpression gets a
//! dense id, which gives the runtime stable memoization slots for the
//! unoptimized repetition strategy, per-node first sets for terminal
//! dispatch, and precomputed failure descriptions — all decided here, once,
//! instead of on the hot path.

use std::rc::Rc;

use modpeg_core::analysis::{first_sets, reference_counts, state_access, sync_sets, FirstSet};
use modpeg_core::transform::TuningPlan;
use modpeg_core::{Alternative, CharClass, Diagnostics, Expr, Grammar, LrSplit, ProdId, ProdKind};
use modpeg_runtime::{NodeKind, RecoverPolicy, SyncSet};

use crate::config::OptConfig;

/// Index into the compiled expression arena.
pub type EId = u32;

/// A compiled parsing expression.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum CExpr {
    Empty,
    Any,
    Lit {
        text: Rc<str>,
        desc: Rc<str>,
    },
    Class {
        class: CharClass,
        desc: Rc<str>,
        table: modpeg_runtime::ClassTable,
    },
    Ref(ProdId),
    Seq(Vec<EId>),
    Choice {
        arms: Vec<EId>,
        first: Option<Vec<(FirstSet, Rc<str>)>>,
    },
    Opt {
        inner: EId,
        slot: Option<u32>,
    },
    Star {
        inner: EId,
        slot: Option<u32>,
    },
    Plus {
        inner: EId,
        slot: Option<u32>,
    },
    And(EId),
    Not(EId),
    Capture(EId),
    Void(EId),
    SDefine(EId),
    SIsDef(EId),
    SIsNotDef(EId),
    SScope(EId),
}

/// A compiled top-level alternative.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub struct CAlt {
    pub expr: EId,
    pub node_kind: NodeKind,
    /// Unlabeled single-element alternatives pass a lone child value
    /// through instead of wrapping it in a node.
    pub passthrough: bool,
    /// First set for production-level dispatch plus a human-readable
    /// expected-set description for failures (populated under
    /// `terminal-dispatch`).
    pub first: Option<(FirstSet, Rc<str>)>,
}

/// Renders a first set as an expected-input description for diagnostics.
pub fn first_set_desc(set: &FirstSet) -> String {
    let printable: Vec<u8> = (0x20u8..0x7F).filter(|b| set.contains(*b)).collect();
    if set.matches_empty || printable.len() > 12 || printable.len() as u32 != set.len() {
        return "input".to_owned();
    }
    let mut out = String::from("[");
    for b in printable {
        match b {
            b'\\' => out.push_str("\\\\"),
            b']' => out.push_str("\\]"),
            c => out.push(c as char),
        }
    }
    out.push(']');
    out
}

/// Computes (reads, writes) state flags for a freshly pushed node, given
/// the flags of already-pushed children and per-production access.
fn state_flags(
    e: &CExpr,
    reads: &[bool],
    writes: &[bool],
    access: &[modpeg_core::analysis::StateAccess],
) -> (bool, bool) {
    let of = |i: &EId| (reads[*i as usize], writes[*i as usize]);
    match e {
        CExpr::Empty | CExpr::Any | CExpr::Lit { .. } | CExpr::Class { .. } => (false, false),
        CExpr::Ref(id) => {
            let a = access[id.index()];
            (a.reads, a.writes)
        }
        CExpr::Seq(xs) | CExpr::Choice { arms: xs, .. } => xs
            .iter()
            .map(of)
            .fold((false, false), |(r1, w1), (r2, w2)| (r1 || r2, w1 || w2)),
        CExpr::Opt { inner, .. }
        | CExpr::Star { inner, .. }
        | CExpr::Plus { inner, .. }
        | CExpr::And(inner)
        | CExpr::Not(inner)
        | CExpr::Capture(inner)
        | CExpr::Void(inner)
        | CExpr::SScope(inner) => of(inner),
        CExpr::SDefine(inner) => (reads[*inner as usize], true),
        CExpr::SIsDef(inner) | CExpr::SIsNotDef(inner) => (true, writes[*inner as usize]),
    }
}

/// A compiled production.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub struct CProd {
    pub name: String,
    pub kind: ProdKind,
    /// Whether nodes built by this production carry spans.
    pub with_span: bool,
    /// Memoization slot; `None` means "never memoize".
    pub memo_slot: Option<u32>,
    /// Whether memo entries for this production must be validated against
    /// the parser-state epoch (the production reads state).
    pub epoch_check: bool,
    /// For `String` productions: whether the body can contribute an inner
    /// textual value (a `$` capture or a value-bearing reference). When
    /// true the production yields its *first* inner value if textual;
    /// otherwise it yields the whole matched span.
    pub text_takes_inner: bool,
    /// The alternatives this configuration evaluates, in order. For a
    /// left-recursive production under `left-recursion`: its bases, then
    /// its tails (each without the leading self-reference); otherwise, and
    /// under the seed-growing strategy, the original alternatives.
    pub alts: Vec<CAlt>,
    /// Present iff the production is directly left-recursive.
    pub lr: Option<LeftRec>,
}

/// How a compiled production evaluates its direct left recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeftRec {
    /// `left-recursion`: one of the first `n` alternatives, the bases, is
    /// matched once, then the rest, the tails, are folded.
    Fold(usize),
    /// Warth-style seed growing over the original alternatives.
    Seed,
}

impl CProd {
    /// The bases and the tails of a left-recursive production compiled
    /// under `left-recursion`.
    pub fn lr_split(&self) -> Option<(&[CAlt], &[CAlt])> {
        match self.lr? {
            LeftRec::Fold(bases) => Some(self.alts.split_at(bases)),
            LeftRec::Seed => None,
        }
    }
}

/// A grammar compiled against a specific [`OptConfig`], ready to parse.
///
/// Construction applies the configured grammar transforms, runs the
/// analyses the runtime strategies need, and lowers every expression into
/// the arena. The same compiled grammar can parse any number of inputs.
#[derive(Debug, Clone)]
pub struct CompiledGrammar {
    pub(crate) cfg: OptConfig,
    pub(crate) prods: Vec<CProd>,
    pub(crate) exprs: Vec<CExpr>,
    /// Per-expression: is its value built? True when the enclosing
    /// context uses the value and the expression can contribute one —
    /// the value-elision (O12) decision, made once here for every engine.
    pub(crate) keep: Vec<bool>,
    /// Per-expression: does its subtree (transitively) read parser state?
    pub(crate) reads_state: Vec<bool>,
    pub(crate) root: ProdId,
    /// Total memoization slots (productions + repetition helpers).
    pub(crate) n_slots: u32,
    /// The grammar as supplied (pre-transform) — what `with_root` and
    /// `grammar()` expose.
    source: Grammar,
    /// Grammar-level restart synchronization set (`FIRST(root)` plus all
    /// `@recover` token first bytes), computed on the *source* grammar so
    /// every engine derives the identical set regardless of its transform
    /// configuration.
    restart: SyncSet,
    /// Restart bytes with terminator semantics (annotated `@recover`
    /// bytes that cannot start the root): consumed on resume.
    consume: SyncSet,
    /// The profile-guided tuning plan this grammar was compiled with
    /// (kept so `with_root` recompiles under the same plan).
    plan: Option<TuningPlan>,
}

struct Lowering<'a> {
    cfg: OptConfig,
    grammar: &'a Grammar,
    access: &'a [modpeg_core::analysis::StateAccess],
    exprs: Vec<CExpr>,
    /// Per-expression: can it ever contribute a semantic value?
    yields: Vec<bool>,
    keep: Vec<bool>,
    reads: Vec<bool>,
    writes: Vec<bool>,
    next_slot: u32,
    first: Option<Vec<FirstSet>>,
    /// Whether the production currently being lowered gets dispatch
    /// tables; toggled per production when a tuning plan restricts the
    /// table set, always `true` otherwise.
    dispatch: bool,
}

impl<'a> Lowering<'a> {
    fn push(&mut self, e: CExpr, yields: bool) -> EId {
        let (reads, writes) = state_flags(&e, &self.reads, &self.writes, self.access);
        let id = self.exprs.len() as EId;
        self.exprs.push(e);
        self.yields.push(yields);
        self.keep.push(false);
        self.reads.push(reads);
        self.writes.push(writes);
        id
    }

    /// A memo slot for a repetition helper — suppressed when the inner
    /// expression mutates state (replaying the memoized value would skip
    /// the mutation).
    fn helper_slot(&mut self, inner: EId) -> Option<u32> {
        if self.cfg.iterative_repetition || self.writes[inner as usize] {
            None
        } else {
            let s = self.next_slot;
            self.next_slot += 1;
            Some(s)
        }
    }

    fn expr_first(&self, e: &Expr<ProdId>) -> Option<FirstSet> {
        if !self.dispatch {
            return None;
        }
        self.first
            .as_ref()
            .map(|sets| modpeg_core::analysis::expr_first(e, sets))
    }

    fn lower(&mut self, e: &Expr<ProdId>) -> EId {
        match e {
            Expr::Empty => self.push(CExpr::Empty, false),
            Expr::Any => self.push(CExpr::Any, false),
            Expr::Literal(s) => {
                let desc = Rc::from(format!("\"{}\"", modpeg_core::escape_literal(s)));
                self.push(
                    CExpr::Lit {
                        text: s.clone(),
                        desc,
                    },
                    false,
                )
            }
            Expr::Class(c) => {
                let desc = Rc::from(c.to_string());
                self.push(
                    CExpr::Class {
                        table: modpeg_runtime::ClassTable::from_ranges(c.ranges(), c.is_negated()),
                        class: c.clone(),
                        desc,
                    },
                    false,
                )
            }
            Expr::Ref(r) => {
                let yields = self.grammar.production(*r).kind != ProdKind::Void;
                self.push(CExpr::Ref(*r), yields)
            }
            Expr::Seq(xs) => {
                let ids: Vec<EId> = xs.iter().map(|x| self.lower(x)).collect();
                let yields = ids.iter().any(|i| self.yields[*i as usize]);
                self.push(CExpr::Seq(ids), yields)
            }
            Expr::Choice(xs) => {
                let ids: Vec<EId> = xs.iter().map(|x| self.lower(x)).collect();
                let first = (self.first.is_some() && self.dispatch).then(|| {
                    xs.iter()
                        .map(|x| {
                            let f = self.expr_first(x).expect("first analysis enabled");
                            (f, Rc::from(first_set_desc(&f)))
                        })
                        .collect()
                });
                let yields = ids.iter().any(|i| self.yields[*i as usize]);
                self.push(CExpr::Choice { arms: ids, first }, yields)
            }
            Expr::Opt(inner) => {
                let i = self.lower(inner);
                let slot = self.helper_slot(i);
                let yields = self.yields[i as usize];
                self.push(CExpr::Opt { inner: i, slot }, yields)
            }
            Expr::Star(inner) => {
                let i = self.lower(inner);
                let slot = self.helper_slot(i);
                let yields = self.yields[i as usize];
                self.push(CExpr::Star { inner: i, slot }, yields)
            }
            Expr::Plus(inner) => {
                let i = self.lower(inner);
                let slot = self.helper_slot(i);
                let yields = self.yields[i as usize];
                self.push(CExpr::Plus { inner: i, slot }, yields)
            }
            Expr::And(inner) => {
                let i = self.lower(inner);
                self.push(CExpr::And(i), false)
            }
            Expr::Not(inner) => {
                let i = self.lower(inner);
                self.push(CExpr::Not(i), false)
            }
            Expr::Capture(inner) => {
                let i = self.lower(inner);
                self.push(CExpr::Capture(i), true)
            }
            Expr::Void(inner) => {
                let i = self.lower(inner);
                self.push(CExpr::Void(i), false)
            }
            Expr::StateDefine(inner) => {
                let i = self.lower(inner);
                let yields = self.yields[i as usize];
                self.push(CExpr::SDefine(i), yields)
            }
            Expr::StateIsDef(inner) => {
                let i = self.lower(inner);
                let yields = self.yields[i as usize];
                self.push(CExpr::SIsDef(i), yields)
            }
            Expr::StateIsNotDef(inner) => {
                let i = self.lower(inner);
                let yields = self.yields[i as usize];
                self.push(CExpr::SIsNotDef(i), yields)
            }
            Expr::StateScope(inner) => {
                let i = self.lower(inner);
                let yields = self.yields[i as usize];
                self.push(CExpr::SScope(i), yields)
            }
        }
    }

    /// Sets the keep bits of `eid`'s subtree, given whether its context
    /// uses its value (`ctx`): predicates build nothing, `$(…)` and
    /// `void` operands build values only without value elision, state
    /// operands always (the name is the operation's input), and every
    /// other composite passes its own context down.
    fn decide_keep(&mut self, eid: EId, ctx: bool) {
        self.keep[eid as usize] = ctx && self.yields[eid as usize];
        let elide = self.cfg.value_elision;
        match &self.exprs[eid as usize] {
            CExpr::Seq(xs) | CExpr::Choice { arms: xs, .. } => {
                for x in xs.clone() {
                    self.decide_keep(x, ctx);
                }
            }
            &(CExpr::Opt { inner, .. }
            | CExpr::Star { inner, .. }
            | CExpr::Plus { inner, .. }
            | CExpr::SScope(inner)) => self.decide_keep(inner, ctx),
            &(CExpr::And(inner) | CExpr::Not(inner)) => self.decide_keep(inner, false),
            &(CExpr::Capture(inner) | CExpr::Void(inner)) => self.decide_keep(inner, !elide),
            &(CExpr::SDefine(inner) | CExpr::SIsDef(inner) | CExpr::SIsNotDef(inner)) => {
                self.decide_keep(inner, true)
            }
            CExpr::Empty | CExpr::Any | CExpr::Lit { .. } | CExpr::Class { .. } | CExpr::Ref(_) => {
            }
        }
    }

    fn lower_alt(&mut self, prod_short: &str, alt: &Alternative) -> CAlt {
        let node_kind = match &alt.label {
            Some(l) => NodeKind::new(format!("{prod_short}.{l}")),
            None => NodeKind::new(prod_short),
        };
        let passthrough = alt.label.is_none() && !matches!(alt.expr, Expr::Seq(_));
        let first = self
            .expr_first(&alt.expr)
            .map(|f| (f, Rc::from(first_set_desc(&f))));
        let expr = self.lower(&alt.expr);
        CAlt {
            expr,
            node_kind,
            passthrough,
            first,
        }
    }
}

impl CompiledGrammar {
    /// Compiles `grammar` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns diagnostics if a grammar transform produces an invalid
    /// grammar (a toolkit bug, surfaced rather than swallowed), or if a
    /// directly left-recursive production cannot be split (see
    /// [`LrSplit::of`]; elaboration rejects such grammars first).
    pub fn compile(grammar: &Grammar, cfg: OptConfig) -> Result<Self, Diagnostics> {
        Self::compile_with_plan(grammar, cfg, None)
    }

    /// Compiles `grammar` under `cfg`, with per-production decisions from
    /// a profile-guided [`TuningPlan`] overriding the static heuristics.
    ///
    /// The plan speaks for three decision points:
    ///
    /// * **memoization** — productions in `plan.transient` skip their memo
    ///   slot, productions in `plan.memoize` keep one, and unlisted
    ///   productions fall back to `cfg`'s O8/O9 heuristics. Structural
    ///   rules still win: state writers are never memoized, `memo`
    ///   annotations and left recursion always are.
    /// * **inlining** — `plan.inline` widens the inline pass's candidate
    ///   set (safety checks intact; see
    ///   [`modpeg_core::transform::inline_with_candidates`]).
    /// * **dispatch** — with `plan.dispatch: Some(set)`, first-set tables
    ///   are built only for the named productions.
    ///
    /// Because the bytecode machine and the code generator both compile
    /// *through* this IR, a plan honored here is honored by all three
    /// engines.
    ///
    /// # Errors
    ///
    /// Returns diagnostics if the plan's fingerprint does not match
    /// `grammar` (the plan was derived from a different grammar), or if a
    /// grammar transform produces an invalid grammar.
    pub fn compile_with_plan(
        grammar: &Grammar,
        cfg: OptConfig,
        plan: Option<&TuningPlan>,
    ) -> Result<Self, Diagnostics> {
        if let Some(plan) = plan {
            if !plan.matches(grammar) {
                return Err(Diagnostics::from(modpeg_core::Diagnostic::error(format!(
                    "tuning plan fingerprint {} does not match this grammar \
                     (expected {}); re-record the profile",
                    plan.fingerprint,
                    modpeg_core::transform::grammar_fingerprint(grammar)
                ))));
            }
        }
        let g = modpeg_core::transform::pipeline_with_plan(
            grammar.clone(),
            cfg.transform_flags(),
            plan,
        )?;
        let access = state_access(&g);
        let refcounts = reference_counts(&g);
        let splits = g
            .iter()
            .map(|(id, p)| LrSplit::of(id, p))
            .collect::<Result<Vec<_>, _>>()?;

        // Memoization slots for productions. State *writers* are never
        // memoized (the mutation would not replay); state *readers* get a
        // slot whose entries are validated against the state epoch — the
        // Rats! "flush memoized results on state change" rule.
        let mut memo_slots: Vec<Option<u32>> = vec![None; g.len()];
        let mut next_slot = 0u32;
        for (id, p) in g.iter() {
            let lr = splits[id.index()].is_some();
            let static_skip = |p: &modpeg_core::Production, id: ProdId| {
                (cfg.transient && p.attrs.transient)
                    || (cfg.transient_auto && refcounts[id.index()] <= 1)
            };
            let skip = if access[id.index()].writes && !lr {
                true
            } else if p.attrs.memo || lr {
                // `memo` forces memoization; left-recursive productions
                // need a slot for the seed-growing strategy.
                false
            } else {
                match plan {
                    Some(plan) if plan.transient.contains(&p.name) => true,
                    Some(plan) if plan.memoize.contains(&p.name) => false,
                    _ => static_skip(p, id),
                }
            };
            if !skip {
                memo_slots[id.index()] = Some(next_slot);
                next_slot += 1;
            }
        }

        let first = cfg.terminal_dispatch.then(|| first_sets(&g));

        let mut lowering = Lowering {
            cfg,
            grammar: &g,
            access: &access,
            exprs: Vec::new(),
            yields: Vec::new(),
            keep: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            next_slot,
            first,
            dispatch: true,
        };

        let mut prods = Vec::with_capacity(g.len());
        for (id, p) in g.iter() {
            lowering.dispatch = match plan.and_then(|pl| pl.dispatch.as_ref()) {
                Some(set) => set.contains(&p.name),
                None => true,
            };
            let short = p.short_name().to_owned();
            let (body, tails, lr): (&[Alternative], &[Alternative], _) = match &splits[id.index()] {
                Some(split) if cfg.left_recursion_iter => {
                    let lr = LeftRec::Fold(split.bases.len());
                    (&split.bases, &split.tails, Some(lr))
                }
                Some(_) => (&p.alts, &[], Some(LeftRec::Seed)),
                None => (&p.alts, &[], None),
            };
            let mut alts: Vec<CAlt> = body.iter().map(|a| lowering.lower_alt(&short, a)).collect();
            let text_takes_inner =
                p.kind == ProdKind::Text && alts.iter().any(|a| lowering.yields[a.expr as usize]);
            let body_ctx = match p.kind {
                ProdKind::Node => true,
                // A String production that contains a capture (or textual
                // reference) must build it — that's its value.
                ProdKind::Text => text_takes_inner || !cfg.value_elision,
                ProdKind::Void => !cfg.value_elision,
            };
            for alt in &alts {
                lowering.decide_keep(alt.expr, body_ctx);
            }
            for a in tails {
                // Tails always wrap (the original alternative had a leading
                // self-reference, so it was never a single element) and
                // build their node, so they keep every value.
                let tail = CAlt {
                    passthrough: false,
                    ..lowering.lower_alt(&short, a)
                };
                lowering.decide_keep(tail.expr, true);
                alts.push(tail);
            }
            prods.push(CProd {
                name: p.name.clone(),
                kind: p.kind,
                with_span: p.attrs.with_location || !cfg.location_elision,
                memo_slot: memo_slots[id.index()],
                epoch_check: access[id.index()].any(),
                text_takes_inner,
                alts,
                lr,
            });
        }

        let n_slots = lowering.next_slot;
        let exprs = lowering.exprs;
        let keep = lowering.keep;
        let reads_state = lowering.reads;
        let sync = sync_sets(grammar);
        let restart = SyncSet::from_bytes(sync.restart_bytes());
        let consume = SyncSet::from_bytes(sync.consume_bytes(grammar.root()));
        Ok(CompiledGrammar {
            cfg,
            prods,
            exprs,
            keep,
            reads_state,
            root: g.root(),
            n_slots,
            source: grammar.clone(),
            restart,
            consume,
            plan: plan.cloned(),
        })
    }

    /// The optimization configuration this grammar was compiled under.
    pub fn config(&self) -> OptConfig {
        self.cfg
    }

    /// The tuning plan this grammar was compiled with, if any.
    pub fn plan(&self) -> Option<&TuningPlan> {
        self.plan.as_ref()
    }

    /// The grammar-level restart synchronization set driving error
    /// recovery: the bytes a top-level restart may resume at.
    pub fn restart_set(&self) -> &SyncSet {
        &self.restart
    }

    /// The default recovery policy for this grammar: panic-mode restarts
    /// synchronized on [`CompiledGrammar::restart_set`], with the default
    /// error budget. Tighten with [`RecoverPolicy::with_max_errors`].
    pub fn recover_policy(&self) -> RecoverPolicy {
        RecoverPolicy::new(self.restart.clone()).with_consume(self.consume.clone())
    }

    /// The grammar as supplied (before optimization transforms).
    pub fn grammar(&self) -> &Grammar {
        &self.source
    }

    /// Number of productions after grammar transforms.
    pub fn production_count(&self) -> usize {
        self.prods.len()
    }

    /// Number of memoization slots (memoized productions plus repetition
    /// helpers under the unoptimized repetition strategy).
    pub fn memo_slot_count(&self) -> u32 {
        self.n_slots
    }

    /// Number of productions that will be memoized.
    pub fn memoized_production_count(&self) -> usize {
        self.prods.iter().filter(|p| p.memo_slot.is_some()).count()
    }

    /// Whether any production touches parser state (`^=`, `^?`, `^!`, or a
    /// state scope).
    ///
    /// Stateful results are valid only under the state environment they
    /// were computed in, which an edit elsewhere in the document can
    /// change — so incremental sessions must not carry memo tables across
    /// edits for stateful grammars; they fall back to full reparses.
    pub fn uses_state(&self) -> bool {
        self.prods.iter().any(|p| p.epoch_check)
            || self.exprs.iter().any(|e| {
                matches!(
                    e,
                    CExpr::SDefine(_) | CExpr::SIsDef(_) | CExpr::SIsNotDef(_) | CExpr::SScope(_)
                )
            })
    }

    /// Internal IR accessors for the code generator.
    #[doc(hidden)]
    pub fn ir_prods(&self) -> &[CProd] {
        &self.prods
    }

    /// Internal IR accessor for the code generator.
    #[doc(hidden)]
    pub fn ir_exprs(&self) -> &[CExpr] {
        &self.exprs
    }

    /// Internal IR accessor for the code generator: per expression,
    /// whether its value is built (see [`CompiledGrammar::compile`]).
    #[doc(hidden)]
    pub fn ir_keep(&self) -> &[bool] {
        &self.keep
    }

    /// Internal IR accessor for the code generator.
    #[doc(hidden)]
    pub fn ir_root(&self) -> ProdId {
        self.root
    }

    /// Changes the start production by (possibly short) name.
    ///
    /// # Errors
    ///
    /// Returns diagnostics when the name is unknown/ambiguous or the
    /// recompiled grammar fails validation.
    pub fn with_root(&self, name: &str) -> Result<CompiledGrammar, Diagnostics> {
        let id = self.source.find(name).ok_or_else(|| {
            Diagnostics::from(modpeg_core::Diagnostic::error(format!(
                "unknown or ambiguous start production `{name}`"
            )))
        })?;
        let source = self.source.with_root(id)?;
        // Re-rooting changes the canonical text, so the plan (validated
        // against the original grammar at first compile) is re-stamped for
        // the new root instead of spuriously failing the fingerprint check.
        let plan = self.plan.clone().map(|p| TuningPlan {
            fingerprint: modpeg_core::transform::grammar_fingerprint(&source),
            ..p
        });
        CompiledGrammar::compile_with_plan(&source, self.cfg, plan.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modpeg_core::{Expr as E, GrammarBuilder};

    fn sample() -> Grammar {
        let mut b = GrammarBuilder::new("m");
        b.production(
            "Top",
            ProdKind::Node,
            vec![(
                None,
                E::seq(vec![
                    E::Ref("Word".into()),
                    E::Star(Box::new(E::Ref("Word".into()))),
                ]),
            )],
        );
        b.production(
            "Word",
            ProdKind::Text,
            vec![(
                None,
                E::Capture(Box::new(E::Plus(Box::new(E::Class(
                    CharClass::from_ranges(vec![('a', 'z')], false),
                ))))),
            )],
        );
        b.build("Top").unwrap()
    }

    #[test]
    fn compiles_and_counts() {
        let g = sample();
        let c = CompiledGrammar::compile(&g, OptConfig::none()).unwrap();
        assert_eq!(c.production_count(), 2);
        // No optimizations: both productions memoized, plus helper slots
        // for the two repetitions.
        assert_eq!(c.memoized_production_count(), 2);
        assert_eq!(c.memo_slot_count(), 4);
    }

    #[test]
    fn iterative_repetition_drops_helper_slots() {
        let g = sample();
        let mut cfg = OptConfig::none();
        cfg.set("iterative-repetition", true);
        let c = CompiledGrammar::compile(&g, cfg).unwrap();
        assert_eq!(c.memo_slot_count(), 2);
    }

    #[test]
    fn transient_auto_skips_once_referenced() {
        let g = sample();
        let mut cfg = OptConfig::none();
        cfg.set("transient-auto", true);
        let c = CompiledGrammar::compile(&g, cfg).unwrap();
        // Top is referenced once (the root); Word twice.
        assert_eq!(c.memoized_production_count(), 1);
    }

    #[test]
    fn transient_auto_counts_a_left_recursive_tail_reference_once() {
        // `Op` is a Node production (so inlining leaves it) referenced
        // only from the left-recursive alternative of `Sum`.
        let set = modpeg_syntax::parse_module_set([r#"
            module o;
            public Node Sum = <Add> Sum Op Word / Word ;
            Node Op = <Plus> "+" / <Minus> "-" ;
            String Word = $[a-z]+ ;
        "#])
        .unwrap();
        let g = set.elaborate("o", None).unwrap();
        let op = g.find("o.Op").unwrap();
        assert_eq!(reference_counts(&g)[op.index()], 1);
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let op = c.prods.iter().find(|p| p.name == "o.Op").unwrap();
        assert_eq!(op.memo_slot, None);
    }

    #[test]
    fn dispatch_tables_present_only_when_enabled() {
        let g = sample();
        let c = CompiledGrammar::compile(&g, OptConfig::none()).unwrap();
        assert!(c.prods[0].alts[0].first.is_none());
        let mut cfg = OptConfig::none();
        cfg.set("terminal-dispatch", true);
        let c2 = CompiledGrammar::compile(&g, cfg).unwrap();
        let (f, desc) = c2.prods[0].alts[0]
            .first
            .clone()
            .expect("first set computed");
        assert!(f.contains(b'q'));
        assert!(!f.contains(b'9'));
        assert!(!desc.is_empty());
    }

    #[test]
    fn with_root_switches_start() {
        let g = sample();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let c2 = c.with_root("Word").unwrap();
        assert_eq!(c2.grammar().production(c2.grammar().root()).name, "m.Word");
        assert!(c.with_root("Nope").is_err());
    }

    #[test]
    fn plan_transient_and_memoize_override_heuristics() {
        let g = sample();
        // Static: no opts → both memoized.
        let plan = TuningPlan {
            transient: ["m.Word".to_string()].into(),
            ..TuningPlan::default()
        };
        let c = CompiledGrammar::compile_with_plan(&g, OptConfig::none(), Some(&plan)).unwrap();
        assert_eq!(
            c.memoized_production_count(),
            1,
            "plan transient drops Word"
        );
        // Static: transient-auto would drop Top (refcount 1); the plan
        // forces it back.
        let mut cfg = OptConfig::none();
        cfg.set("transient-auto", true);
        let plan = TuningPlan {
            memoize: ["m.Top".to_string()].into(),
            ..TuningPlan::default()
        };
        let c = CompiledGrammar::compile_with_plan(&g, cfg, Some(&plan)).unwrap();
        assert_eq!(
            c.memoized_production_count(),
            2,
            "plan memoize overrides O8"
        );
        assert!(c.plan().is_some());
    }

    #[test]
    fn plan_dispatch_hints_gate_first_tables() {
        let g = sample();
        let mut cfg = OptConfig::none();
        cfg.set("terminal-dispatch", true);
        let plan = TuningPlan {
            dispatch: Some(["m.Word".to_string()].into()),
            ..TuningPlan::default()
        };
        let c = CompiledGrammar::compile_with_plan(&g, cfg, Some(&plan)).unwrap();
        assert!(
            c.prods[0].alts[0].first.is_none(),
            "Top not in dispatch set"
        );
        assert!(
            c.prods[1].alts[0].first.is_some(),
            "Word is in dispatch set"
        );
    }

    #[test]
    fn plan_fingerprint_mismatch_is_rejected_but_with_root_restamps() {
        let g = sample();
        let plan = TuningPlan {
            fingerprint: 12345, // not this grammar
            ..TuningPlan::default()
        };
        assert!(CompiledGrammar::compile_with_plan(&g, OptConfig::all(), Some(&plan)).is_err());
        let plan = TuningPlan::for_grammar(&g);
        let c = CompiledGrammar::compile_with_plan(&g, OptConfig::all(), Some(&plan)).unwrap();
        let c2 = c
            .with_root("Word")
            .expect("re-rooting keeps the plan usable");
        assert!(c2.plan().is_some());
    }

    #[test]
    fn yields_flags() {
        let g = sample();
        let c = CompiledGrammar::compile(&g, OptConfig::none()).unwrap();
        // The root alternative's expression yields (it contains refs to a
        // Text production) and its Node body uses the value: kept.
        let root_alt = &c.prods[c.root.index()].alts[0];
        assert!(c.keep[root_alt.expr as usize]);
    }

    /// Renders `eid`'s subtree with its keep bits: a kept expression is
    /// wrapped in braces.
    fn keep_tree(c: &CompiledGrammar, eid: EId) -> String {
        let sub = |x: &EId| keep_tree(c, *x);
        let join = |xs: &[EId], sep: &str| xs.iter().map(sub).collect::<Vec<_>>().join(sep);
        let body = match &c.exprs[eid as usize] {
            CExpr::Empty => "()".to_owned(),
            CExpr::Any => ".".to_owned(),
            CExpr::Lit { text, .. } => format!("{text:?}"),
            CExpr::Class { class, .. } => class.to_string(),
            CExpr::Ref(id) => c.prods[id.index()].name.clone(),
            CExpr::Seq(xs) => format!("({})", join(xs, " ")),
            CExpr::Choice { arms, .. } => format!("({})", join(arms, " / ")),
            CExpr::Opt { inner, .. } => format!("{}?", sub(inner)),
            CExpr::Star { inner, .. } => format!("{}*", sub(inner)),
            CExpr::Plus { inner, .. } => format!("{}+", sub(inner)),
            CExpr::And(inner) => format!("&{}", sub(inner)),
            CExpr::Not(inner) => format!("!{}", sub(inner)),
            CExpr::Capture(inner) => format!("${}", sub(inner)),
            CExpr::Void(inner) => format!("%void({})", sub(inner)),
            CExpr::SDefine(inner) => format!("%define({})", sub(inner)),
            CExpr::SIsDef(inner) => format!("%isdef({})", sub(inner)),
            CExpr::SIsNotDef(inner) => format!("%isndef({})", sub(inner)),
            CExpr::SScope(inner) => format!("%scope({})", sub(inner)),
        };
        if c.keep[eid as usize] {
            format!("{{{body}}}")
        } else {
            body
        }
    }

    /// One line per production: `name: alt | alt`, or the bases and
    /// tails of a left-recursive split.
    fn keep_listing(c: &CompiledGrammar) -> String {
        let alts = |xs: &[CAlt]| {
            xs.iter()
                .map(|a| keep_tree(c, a.expr))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let line = |p: &CProd| match p.lr_split() {
            Some((bases, tails)) => {
                format!("{}: bases {}; tails {}", p.name, alts(bases), alts(tails))
            }
            None => format!("{}: {}", p.name, alts(&p.alts)),
        };
        c.prods.iter().map(line).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn keep_bits() {
        let set = modpeg_syntax::parse_module_set([r##"
            module k;
            public Node Top = Word Sp? Word? Sp* Word* Sp+ Word+ &Word !Word
                $(Word Sp) %void(Word Sp) Quiet Tagged Plain %define(Word)
                %isdef(Word) %isndef(Sp) %scope(Word) Sum ;
            String Word = $[a-z]+ ;
            String Tagged = "@" Word ;
            String Plain = [0-9]+ Sp ;
            void Sp = " " ;
            void Quiet = Word Sp %define(Word) ;
            Node Sum = <Add> Sum "+" Word / Word ;
        "##])
        .unwrap();
        let g = set.elaborate("k", None).unwrap();
        let listing = |mut cfg: OptConfig, elide: bool| {
            cfg.set("value-elision", elide);
            keep_listing(&CompiledGrammar::compile(&g, cfg).unwrap())
        };
        let word = "k.Word: {$[a-z]+}";
        let tagged = r#"k.Tagged: {("@" {k.Word})}"#;
        let sum = r#"k.Sum: bases {k.Word}; tails {("+" {k.Word})}"#;
        // No grammar transforms: every production keeps its own body.
        // Predicates keep nothing, state operands always keep, `$(…)`,
        // `void` operands and void bodies keep only without elision.
        let mut plain = OptConfig::none();
        plain.set("left-recursion", true);
        let (digits, sp) = ("k.Plain: ([0-9]+ k.Sp)", r#"k.Sp: " ""#);
        assert_eq!(
            listing(plain, true),
            [
                concat!(
                    "k.Top: {({k.Word} k.Sp? {{k.Word}?} k.Sp* {{k.Word}*} k.Sp+ {{k.Word}+} ",
                    "&k.Word !k.Word {$(k.Word k.Sp)} %void((k.Word k.Sp)) k.Quiet {k.Tagged} ",
                    "{k.Plain} {%define({k.Word})} {%isdef({k.Word})} %isndef(k.Sp) ",
                    "{%scope({k.Word})} {k.Sum})}"
                ),
                word,
                tagged,
                digits,
                sp,
                "k.Quiet: (k.Word k.Sp %define({k.Word}))",
                sum,
            ]
            .join("\n")
        );
        assert_eq!(
            listing(plain, false),
            [
                concat!(
                    "k.Top: {({k.Word} k.Sp? {{k.Word}?} k.Sp* {{k.Word}*} k.Sp+ {{k.Word}+} ",
                    "&k.Word !k.Word {${({k.Word} k.Sp)}} %void({({k.Word} k.Sp)}) k.Quiet ",
                    "{k.Tagged} {k.Plain} {%define({k.Word})} {%isdef({k.Word})} %isndef(k.Sp) ",
                    "{%scope({k.Word})} {k.Sum})}"
                ),
                word,
                tagged,
                digits,
                sp,
                "k.Quiet: {({k.Word} k.Sp {%define({k.Word})})}",
                sum,
            ]
            .join("\n")
        );
        // Fully optimized: `Sp` and `Plain` are inlined; the same rules
        // hold on the rewritten bodies.
        assert_eq!(
            listing(OptConfig::all(), true),
            [
                concat!(
                    r#"k.Top: {({k.Word} %void(" ")? {{k.Word}?} %void(" ")* {{k.Word}*} "#,
                    r#"%void(" ")+ {{k.Word}+} &k.Word !k.Word {$(k.Word %void(" "))} "#,
                    r#"%void((k.Word %void(" "))) k.Quiet {k.Tagged} {$([0-9]+ %void(" "))} "#,
                    r#"{%define({k.Word})} {%isdef({k.Word})} %isndef(%void(" ")) "#,
                    "{%scope({k.Word})} {k.Sum})}"
                ),
                word,
                tagged,
                r#"k.Quiet: (k.Word %void(" ") %define({k.Word}))"#,
                sum,
            ]
            .join("\n")
        );
        assert_eq!(
            listing(OptConfig::all(), false),
            [
                concat!(
                    r#"k.Top: {({k.Word} %void(" ")? {{k.Word}?} %void(" ")* {{k.Word}*} "#,
                    r#"%void(" ")+ {{k.Word}+} &k.Word !k.Word {${({k.Word} %void(" "))}} "#,
                    r#"%void({({k.Word} %void(" "))}) k.Quiet {k.Tagged} "#,
                    r#"{$([0-9]+ %void(" "))} {%define({k.Word})} {%isdef({k.Word})} "#,
                    r#"%isndef(%void(" ")) {%scope({k.Word})} {k.Sum})}"#
                ),
                word,
                tagged,
                r#"k.Quiet: {({k.Word} %void(" ") {%define({k.Word})})}"#,
                sum,
            ]
            .join("\n")
        );
    }
}
