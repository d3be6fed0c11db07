//! The assembler: lowers the interpreter's compiled IR into a flat
//! bytecode chunk.
//!
//! The VM deliberately compiles *from* [`CompiledGrammar`] rather than
//! from the raw grammar: that way every grammar transform, memoization
//! decision, first-set table, and failure description is decided by
//! exactly one component, and the three engines (tree-walking
//! interpreter, generated parsers, bytecode VM) can never drift on
//! *strategy* — only on execution. The assembler is a straight
//! syntax-directed translation of that IR with a handful of peephole
//! superinstruction selections.

use modpeg_core::ProdKind;
use modpeg_interp::ir::{CAlt, CExpr, CProd, EId};
use modpeg_interp::{CompiledGrammar, OptConfig};

use crate::ops::{ClassConst, FirstConst, KindConst, LitConst, Op, ProdInfo};
use crate::VmError;

/// The assembled program, before being wrapped in [`crate::VmProgram`].
pub(crate) struct Chunk {
    pub(crate) ops: Vec<Op>,
    pub(crate) lits: Vec<LitConst>,
    pub(crate) classes: Vec<ClassConst>,
    pub(crate) kinds: Vec<KindConst>,
    pub(crate) firsts: Vec<FirstConst>,
    pub(crate) prods: Vec<ProdInfo>,
}

struct Assembler<'g> {
    cfg: OptConfig,
    prods: &'g [CProd],
    exprs: &'g [CExpr],
    keep: &'g [bool],
    ops: Vec<Op>,
    lits: Vec<LitConst>,
    classes: Vec<ClassConst>,
    kinds: Vec<KindConst>,
    firsts: Vec<FirstConst>,
    /// `(op index, production index)` call sites to patch once every
    /// production's entry pc is known.
    call_fixups: Vec<(usize, u32)>,
}

pub(crate) fn assemble(g: &CompiledGrammar) -> Result<Chunk, VmError> {
    let cfg = g.config();
    // The bytecode models repetition as loops and left recursion as seed
    // folding; the unoptimized strategies (memoized repetition helpers,
    // Warth-style seed growing) exist to make the interpreter's ablation
    // ladder faithful to the paper and are not worth a second encoding.
    if !cfg.iterative_repetition {
        return Err(VmError::Unsupported(
            "the VM requires the `iterative-repetition` optimization \
             (memoized repetition helpers are interpreter-only)",
        ));
    }
    if !cfg.left_recursion_iter {
        return Err(VmError::Unsupported(
            "the VM requires the `left-recursion` optimization \
             (Warth-style seed growing is interpreter-only)",
        ));
    }

    let mut asm = Assembler {
        cfg,
        prods: g.ir_prods(),
        exprs: g.ir_exprs(),
        keep: g.ir_keep(),
        ops: Vec::new(),
        lits: Vec::new(),
        classes: Vec::new(),
        kinds: Vec::new(),
        firsts: Vec::new(),
        call_fixups: Vec::new(),
    };

    // Bootstrap: reset the attempt registers (a no-op on a plain parse,
    // the restart point for resilient ones), apply the root production
    // (always wanting its value — even a void root yields `Unit` as the
    // tree), then halt.
    asm.op(Op::Recover);
    asm.emit_call_raw(g.ir_root().index() as u32, true);
    asm.op(Op::Halt);

    let mut infos = Vec::with_capacity(asm.prods.len());
    for pi in 0..asm.prods.len() {
        let entry = asm.here();
        asm.emit_prod(pi);
        infos.push(ProdInfo {
            name: asm.prods[pi].name.clone(),
            entry,
        });
    }

    for (at, prod) in std::mem::take(&mut asm.call_fixups) {
        asm.ops[at].set_target(infos[prod as usize].entry);
    }

    Ok(Chunk {
        ops: asm.ops,
        lits: asm.lits,
        classes: asm.classes,
        kinds: asm.kinds,
        firsts: asm.firsts,
        prods: infos,
    })
}

impl<'g> Assembler<'g> {
    fn op(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        self.ops[at].set_target(target);
    }

    // ----- constant pools (deduplicated by content) -----

    fn lit(&mut self, text: &std::rc::Rc<str>, desc: &std::rc::Rc<str>) -> u32 {
        if let Some(i) = self.lits.iter().position(|l| *l.text == **text) {
            return i as u32;
        }
        self.lits.push(LitConst {
            text: text.clone(),
            desc: desc.clone(),
        });
        self.lits.len() as u32 - 1
    }

    fn class(&mut self, class: &modpeg_core::CharClass, desc: &std::rc::Rc<str>) -> u32 {
        if let Some(i) = self
            .classes
            .iter()
            .position(|c| c.class == *class && *c.desc == **desc)
        {
            return i as u32;
        }
        self.classes.push(ClassConst {
            table: modpeg_runtime::ClassTable::from_ranges(class.ranges(), class.is_negated()),
            class: class.clone(),
            desc: desc.clone(),
        });
        self.classes.len() as u32 - 1
    }

    fn kind(&mut self, kind: &modpeg_runtime::NodeKind) -> u32 {
        if let Some(i) = self.kinds.iter().position(|k| k.as_str() == kind.as_str()) {
            return i as u32;
        }
        self.kinds.push(kind.clone());
        self.kinds.len() as u32 - 1
    }

    fn first(&mut self, set: &modpeg_core::analysis::FirstSet, desc: &std::rc::Rc<str>) -> u32 {
        self.firsts.push(FirstConst {
            set: *set,
            desc: desc.clone(),
        });
        self.firsts.len() as u32 - 1
    }

    // ----- productions -----

    /// Layout of an ordinary production:
    ///
    /// ```text
    /// entry:  Catch L_fail
    ///         [per alternative: DispatchSkip? / Choice / body /
    ///          finisher / Commit L_ret / AltBacktrack next]
    ///         Fail                  ; alternatives exhausted
    /// L_ret:  Ret
    /// L_fail: RetFail
    /// ```
    ///
    /// Left-recursive productions replace `Commit L_ret` on the bases
    /// with a commit into the grow loop, which folds tails onto the
    /// seed until none matches.
    fn emit_prod(&mut self, pi: usize) {
        let p = &self.prods[pi];
        let catch_at = self.op(Op::Catch(0));

        if let Some(lr) = &p.lr {
            // Bases commit into the grow loop instead of returning.
            let commits = self.emit_alts(&lr.bases, p);
            self.op(Op::Fail);
            let l_seed = self.here();
            for at in commits {
                self.patch(at, l_seed);
            }
            self.op(Op::PushAcc);
            let l_grow = self.here();
            self.op(Op::GuardTick);
            let mut next_fixups: Vec<usize> = Vec::new();
            for tail in &lr.tails {
                for at in next_fixups.drain(..) {
                    self.patch(at, self.ops.len() as u32);
                }
                if let Some((set, desc)) = &tail.first {
                    let fi = self.first(set, desc);
                    let at = self.op(Op::DispatchSkip {
                        first: fi,
                        target: 0,
                    });
                    next_fixups.push(at);
                }
                let choice_at = self.op(Op::Choice(0));
                self.emit_expr(tail.expr);
                let ki = self.kind(&tail.node_kind);
                self.op(Op::FoldNode {
                    kind: ki,
                    with_span: p.with_span,
                });
                self.op(Op::Commit(l_grow));
                let bt = self.here();
                self.patch(choice_at, bt);
                let at = self.op(Op::ChoiceBacktrack(0));
                next_fixups.push(at);
            }
            let l_done = self.here();
            for at in next_fixups {
                self.patch(at, l_done);
            }
            self.op(Op::PopAcc);
            self.op(Op::Ret);
            let l_fail = self.here();
            self.patch(catch_at, l_fail);
            self.op(Op::RetFail);
        } else {
            let commits = self.emit_alts(&p.alts, p);
            self.op(Op::Fail);
            let l_ret = self.here();
            for at in commits {
                self.patch(at, l_ret);
            }
            self.op(Op::Ret);
            let l_fail = self.here();
            self.patch(catch_at, l_fail);
            self.op(Op::RetFail);
        }
    }

    /// Emits the alternative ladder; returns the `Commit` sites to patch
    /// to the accept label (the caller chooses it).
    fn emit_alts(&mut self, alts: &[CAlt], p: &CProd) -> Vec<usize> {
        let mut commits = Vec::with_capacity(alts.len());
        let mut next_fixups: Vec<usize> = Vec::new();
        for alt in alts {
            for at in next_fixups.drain(..) {
                self.patch(at, self.ops.len() as u32);
            }
            if let Some((set, desc)) = &alt.first {
                let fi = self.first(set, desc);
                let at = self.op(Op::DispatchSkip {
                    first: fi,
                    target: 0,
                });
                next_fixups.push(at);
            }
            let choice_at = self.op(Op::Choice(0));
            self.emit_expr(alt.expr);
            self.emit_finisher(p, alt);
            commits.push(self.op(Op::Commit(0)));
            let bt = self.here();
            self.patch(choice_at, bt);
            let at = self.op(Op::AltBacktrack(0));
            next_fixups.push(at);
        }
        let exhausted = self.here();
        for at in next_fixups {
            self.patch(at, exhausted);
        }
        commits
    }

    fn emit_finisher(&mut self, p: &CProd, alt: &CAlt) {
        match p.kind {
            ProdKind::Void => {
                self.op(Op::UnitFinish);
            }
            ProdKind::Text => {
                self.op(Op::MakeTextFinish {
                    take_inner: p.text_takes_inner,
                });
            }
            ProdKind::Node => {
                let ki = self.kind(&alt.node_kind);
                self.op(Op::MakeNodeFinish {
                    kind: ki,
                    passthrough: alt.passthrough,
                    with_span: p.with_span,
                });
            }
        }
    }

    // ----- expressions -----

    fn emit_expr(&mut self, eid: EId) {
        let exprs = self.exprs;
        let keep = self.keep[eid as usize];
        match &exprs[eid as usize] {
            CExpr::Empty => {}
            CExpr::Any => {
                self.op(Op::Any);
            }
            CExpr::Lit { text, desc } => {
                let li = self.lit(text, desc);
                self.op(if self.cfg.string_match {
                    Op::Lit(li)
                } else {
                    Op::LitBytes(li)
                });
            }
            CExpr::Class { class, desc, .. } => {
                let ci = self.class(class, desc);
                self.op(Op::Class(ci));
            }
            CExpr::Ref(pid) => self.emit_call_raw(pid.index() as u32, keep),
            CExpr::Seq(items) => {
                for x in items.clone() {
                    self.emit_expr(x);
                }
            }
            CExpr::Choice { arms, first } => {
                let arms = arms.clone();
                let firsts = first.clone();
                let mut commits = Vec::with_capacity(arms.len());
                let mut next_fixups: Vec<usize> = Vec::new();
                for (i, arm) in arms.iter().enumerate() {
                    for at in next_fixups.drain(..) {
                        self.patch(at, self.ops.len() as u32);
                    }
                    if let Some(table) = &firsts {
                        let (set, desc) = &table[i];
                        let fi = self.first(set, desc);
                        let at = self.op(Op::DispatchSkip {
                            first: fi,
                            target: 0,
                        });
                        next_fixups.push(at);
                    }
                    let choice_at = self.op(Op::Choice(0));
                    self.emit_expr(*arm);
                    commits.push(self.op(Op::Commit(0)));
                    let bt = self.here();
                    self.patch(choice_at, bt);
                    let at = self.op(Op::ChoiceBacktrack(0));
                    next_fixups.push(at);
                }
                let exhausted = self.here();
                for at in next_fixups {
                    self.patch(at, exhausted);
                }
                self.op(Op::Fail);
                let l_cont = self.here();
                for at in commits {
                    self.patch(at, l_cont);
                }
            }
            CExpr::Opt { inner, .. } => {
                let inner = *inner;
                self.op(Op::MarkHere);
                let choice_at = self.op(Op::Choice(0));
                self.emit_expr(inner);
                self.op(Op::NormalizeOpt);
                let jump_at = self.op(Op::Jump(0));
                let l_absent = self.here();
                self.patch(choice_at, l_absent);
                self.op(Op::AbsentOpt { push_absent: keep });
                let l_cont = self.here();
                self.patch(jump_at, l_cont);
            }
            CExpr::Star { inner, .. } => {
                let inner = *inner;
                if let Some(ci) = self.bare_class(inner) {
                    self.op(Op::ClassStar(ci));
                    return;
                }
                self.op(Op::MarkHere);
                let l_loop = self.here();
                self.op(Op::GuardTick);
                let choice_at = self.op(Op::Choice(0));
                self.emit_expr(inner);
                self.op(Op::LoopCommitNZ(l_loop));
                let l_exit = self.here();
                self.patch(choice_at, l_exit);
                self.op(Op::StarFinish { make: keep });
            }
            CExpr::Plus { inner, .. } => {
                let inner = *inner;
                if let Some(ci) = self.bare_class(inner) {
                    self.op(Op::ClassPlus(ci));
                    return;
                }
                self.op(Op::MarkHere);
                self.emit_expr(inner);
                self.op(Op::MarkHere);
                let l_loop = self.here();
                self.op(Op::GuardTick);
                let choice_at = self.op(Op::Choice(0));
                self.emit_expr(inner);
                self.op(Op::LoopCommitNZ(l_loop));
                let l_exit = self.here();
                self.patch(choice_at, l_exit);
                self.op(Op::PlusFinish { collect: keep });
            }
            CExpr::And(inner) => {
                let inner = *inner;
                if let Some(ci) = self.bare_class(inner) {
                    self.op(Op::AndClass(ci));
                    return;
                }
                let choice_at = self.op(Op::Choice(0));
                self.op(Op::IncSuppress);
                self.emit_expr(inner);
                let back_at = self.op(Op::BackCommit(0));
                let l_fail = self.here();
                self.patch(choice_at, l_fail);
                self.op(Op::Fail);
                let l_cont = self.here();
                self.patch(back_at, l_cont);
            }
            CExpr::Not(inner) => {
                let inner = *inner;
                match &exprs[inner as usize] {
                    CExpr::Class { class, desc, .. } => {
                        let ci = self.class(class, desc);
                        self.op(Op::NotClass(ci));
                        return;
                    }
                    CExpr::Lit { text, desc } if self.cfg.string_match => {
                        let li = self.lit(text, desc);
                        self.op(Op::NotLit(li));
                        return;
                    }
                    CExpr::Any => {
                        self.op(Op::NotAny);
                        return;
                    }
                    _ => {}
                }
                let choice_at = self.op(Op::Choice(0));
                self.op(Op::IncSuppress);
                self.emit_expr(inner);
                self.op(Op::FailTwice);
                let l_ok = self.here();
                self.patch(choice_at, l_ok);
            }
            CExpr::Capture(inner) => {
                let inner = *inner;
                self.op(Op::MarkHere);
                self.emit_expr(inner);
                self.op(Op::CaptureFinish { push: keep });
            }
            CExpr::Void(inner) => {
                let inner = *inner;
                if self.keep[inner as usize] {
                    self.op(Op::MarkHere);
                    self.emit_expr(inner);
                    self.op(Op::DropMark);
                } else {
                    self.emit_expr(inner);
                }
            }
            CExpr::SDefine(inner) => {
                let inner = *inner;
                self.op(Op::MarkHere);
                self.emit_expr(inner);
                self.op(Op::StateDefine { keep });
            }
            CExpr::SIsDef(inner) => {
                let inner = *inner;
                self.op(Op::MarkHere);
                self.emit_expr(inner);
                self.op(Op::StateIsDef { keep });
            }
            CExpr::SIsNotDef(inner) => {
                let inner = *inner;
                self.op(Op::MarkHere);
                self.emit_expr(inner);
                self.op(Op::StateIsNotDef { keep });
            }
            CExpr::SScope(inner) => {
                let inner = *inner;
                let choice_at = self.op(Op::Choice(0));
                self.op(Op::ScopePush);
                self.emit_expr(inner);
                self.op(Op::ScopePopCommit);
                let jump_at = self.op(Op::Jump(0));
                let l_fail = self.here();
                self.patch(choice_at, l_fail);
                self.op(Op::Fail);
                let l_cont = self.here();
                self.patch(jump_at, l_cont);
            }
        }
    }

    /// The character-class pool index when `eid` is a bare class (the
    /// eligibility test for the class superinstructions).
    fn bare_class(&mut self, eid: EId) -> Option<u32> {
        match &self.exprs[eid as usize] {
            CExpr::Class { class, desc, .. } => {
                let class = class.clone();
                let desc = desc.clone();
                Some(self.class(&class, &desc))
            }
            _ => None,
        }
    }

    fn emit_call_raw(&mut self, prod: u32, push: bool) {
        let callee = &self.prods[prod as usize];
        let at = match callee.memo_slot {
            Some(slot) => self.op(Op::MemoCall {
                prod,
                target: 0,
                slot,
                push,
                epoch_check: callee.epoch_check,
            }),
            None => self.op(Op::Call {
                prod,
                target: 0,
                push,
            }),
        };
        self.call_fixups.push((at, prod));
    }
}
