//! The instruction set of the parsing machine.
//!
//! Instructions are a fixed-size `Copy` enum indexing into side-table
//! constant pools (literals, character classes, node kinds, first sets),
//! in the tradition of LPeg's parsing machine and Nez's MOZ instruction
//! set: control flow is expressed through a backtrack-entry stack
//! (`Choice`/`Commit`/`BackCommit`/`FailTwice`), nonterminals through an
//! explicit call stack (`Call`/`MemoCall`/`Ret`/`RetFail`), and the
//! hottest PEG shapes through superinstructions (`ClassStar`,
//! `ClassPlus`, `NotClass`, `NotLit`, `NotAny`, `AndClass`, and
//! whole-literal `Lit` matching).
//!
//! Every jump target is an absolute instruction index (`u32`), resolved
//! by the assembler; the machine never computes relative offsets.

use std::rc::Rc;

use modpeg_core::analysis::FirstSet;
use modpeg_core::CharClass;
use modpeg_runtime::{ClassTable, NodeKind};

/// Sentinel for "no memo slot" in a [`Op::MemoCall`]-free call frame.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// One machine instruction. `u32` payloads are absolute jump targets or
/// constant-pool indices (the mnemonic says which).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    // ----- control flow -----
    /// Unconditional jump.
    Jump(u32),
    /// Push a backtrack entry resuming at the target on failure.
    Choice(u32),
    /// Pop the top backtrack entry (keep current progress) and jump.
    Commit(u32),
    /// Pop the top backtrack entry, restore its saved machine state
    /// (position, values, parser state, suppression), and jump — the
    /// success path of an `&p` predicate.
    BackCommit(u32),
    /// Pop and discard the top backtrack entry, then fail — the
    /// "inner matched" path of a `!p` predicate.
    FailTwice,
    /// Fail: dispatch to the top backtrack entry.
    Fail,
    /// Production prologue: push the catch entry every production keeps
    /// beneath its body (its target is the production's `RetFail`).
    Catch(u32),
    /// Star/plus back-edge: pop the loop's backtrack entry; if the
    /// position advanced this iteration, jump back to the body; on a
    /// zero-width match, discard the iteration's values and fall
    /// through to the loop exit (matching the interpreter's
    /// infinite-loop guard, which keeps state changes but drops values).
    LoopCommitNZ(u32),
    /// One governed evaluation step (fuel/deadline/cancellation).
    GuardTick,
    /// Attempt prologue (bootstrap only): reset every per-attempt
    /// register — value/mark/backtrack/call stacks, accumulator,
    /// suppression, production depth — while the memo table, failure
    /// accumulator, and parser state survive. The recovery driver
    /// re-enters the bootstrap at each restart position; for a plain
    /// parse the op runs once over already-clean registers.
    Recover,
    /// End of the bootstrap sequence: the machine halts successfully.
    Halt,

    // ----- calls -----
    /// Apply an unmemoized production: `target` is its entry pc, `push`
    /// says whether the caller wants its value on the value stack.
    Call { prod: u32, target: u32, push: bool },
    /// Apply a memoized production: probe `slot` first (validating the
    /// state epoch when `epoch_check`), falling back to a plain call on
    /// a miss. This is the memoized-nonterminal superinstruction — a
    /// packrat hit costs no call frame at all.
    MemoCall {
        prod: u32,
        target: u32,
        slot: u32,
        push: bool,
        epoch_check: bool,
    },
    /// Production epilogue (success): store the memo answer, emit
    /// telemetry, pop call + catch entries, resume the caller.
    Ret,
    /// Production epilogue (failure): store the failure answer, emit
    /// telemetry, pop the call frame, keep failing into the caller.
    RetFail,

    // ----- terminals -----
    /// Match any single character.
    Any,
    /// Match `lits[i]` by whole-slice comparison (string-match config).
    Lit(u32),
    /// Match `lits[i]` byte-at-a-time (unoptimized literal matching).
    LitBytes(u32),
    /// Match one character of `classes[i]`.
    Class(u32),

    // ----- superinstructions -----
    /// `[c]*` — greedy character-class repetition in one instruction.
    ClassStar(u32),
    /// `[c]+` — one mandatory match, then `ClassStar`.
    ClassPlus(u32),
    /// `![c]` without backtrack-entry traffic.
    NotClass(u32),
    /// `!"lit"` without backtrack-entry traffic (string-match config).
    NotLit(u32),
    /// `!.` — end-of-input test in one instruction.
    NotAny,
    /// `&[c]` without backtrack-entry traffic.
    AndClass(u32),

    // ----- dispatch and backtrack accounting -----
    /// Terminal dispatch: if `firsts[i]` does not admit the next input
    /// byte, record the expected-set failure and jump to the target
    /// (the next alternative) without attempting this one.
    DispatchSkip { first: u32, target: u32 },
    /// A production alternative failed: count the backtrack, emit the
    /// backtrack telemetry event, and jump to the next alternative.
    AltBacktrack(u32),
    /// A choice arm (or left-recursive tail) failed: count the
    /// backtrack (no telemetry event — mirrors the interpreter) and
    /// jump to the next arm.
    ChoiceBacktrack(u32),

    // ----- value construction -----
    /// Push a value-stack mark (current depth + input position).
    MarkHere,
    /// Commit an optional that matched: pop the loop's backtrack entry
    /// and mark; if the body pushed two or more values, collapse them
    /// into one list (the interpreter's `normalize_opt`).
    NormalizeOpt,
    /// An optional that did not match: pop the mark and, when the
    /// optional yields into a value-wanting context, push
    /// `Value::Absent`.
    AbsentOpt { push_absent: bool },
    /// Star exit: pop the mark; when collecting, wrap everything the
    /// loop pushed into one list value.
    StarFinish { make: bool },
    /// Plus exit: pop the rest-mark and first-mark; when collecting,
    /// push one list of the first iteration's values followed by the
    /// rest's (the interpreter's unmemoized `e+` shape). The rest-mark
    /// only brackets the loop.
    PlusFinish { collect: bool },
    /// `$p` exit: pop the mark, drop the body's values, and (when the
    /// context wants a value) push the matched text.
    CaptureFinish { push: bool },
    /// Drop a mark and every value above it (void-context cleanup).
    DropMark,
    /// Move the accumulator onto the value stack (left-recursion seed).
    PushAcc,
    /// Move the top of the value stack into the accumulator.
    PopAcc,
    /// Fold one left-recursive tail: wrap the seed (at the frame base)
    /// plus the tail's values into a node, which becomes the new seed.
    FoldNode { kind: u32, with_span: bool },
    /// Node-production finisher: wrap the frame's values into a node in
    /// the accumulator (or pass a lone child through).
    MakeNodeFinish {
        kind: u32,
        passthrough: bool,
        with_span: bool,
    },
    /// Text-production finisher: take the first inner textual value, or
    /// the matched span.
    MakeTextFinish { take_inner: bool },
    /// Void-production finisher: the accumulator becomes `Unit`.
    UnitFinish,

    // ----- predicates and state -----
    /// Enter a predicate: suppress failure recording (the matching
    /// decrement happens via backtrack-entry restoration).
    IncSuppress,
    /// `^=` — define the name the body matched, keeping or dropping the
    /// body's values per the surrounding context.
    StateDefine { keep: bool },
    /// `^?` — fail unless the matched name is defined.
    StateIsDef { keep: bool },
    /// `^!` — fail if the matched name is defined.
    StateIsNotDef { keep: bool },
    /// Open a state scope.
    ScopePush,
    /// Close a state scope and pop the scope's backtrack entry.
    ScopePopCommit,
}

impl Op {
    /// Rewrites the instruction's jump target (assembler backpatching).
    pub(crate) fn set_target(&mut self, t: u32) {
        match self {
            Op::Jump(x)
            | Op::Choice(x)
            | Op::Commit(x)
            | Op::BackCommit(x)
            | Op::Catch(x)
            | Op::LoopCommitNZ(x)
            | Op::AltBacktrack(x)
            | Op::ChoiceBacktrack(x)
            | Op::Call { target: x, .. }
            | Op::MemoCall { target: x, .. }
            | Op::DispatchSkip { target: x, .. } => *x = t,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }
}

/// A literal constant: the text to match plus its failure description.
#[derive(Debug, Clone)]
pub struct LitConst {
    pub(crate) text: Rc<str>,
    pub(crate) desc: Rc<str>,
}

/// A character-class constant plus its failure description and the
/// bulk-scan table the superinstructions consume ([`ClassTable`] —
/// built once at assembly time, so the machine never binary-searches
/// ranges on the hot path).
#[derive(Debug, Clone)]
pub struct ClassConst {
    pub(crate) class: CharClass,
    pub(crate) desc: Rc<str>,
    pub(crate) table: ClassTable,
}

/// A terminal-dispatch constant: the first set plus the expected-set
/// description recorded when dispatch skips an alternative.
#[derive(Debug, Clone)]
pub struct FirstConst {
    pub(crate) set: FirstSet,
    pub(crate) desc: Rc<str>,
}

/// Per-production metadata the machine and disassembler need.
#[derive(Debug, Clone)]
pub struct ProdInfo {
    pub(crate) name: String,
    pub(crate) entry: u32,
}

/// Re-export used by the machine for node construction.
pub(crate) type KindConst = NodeKind;
