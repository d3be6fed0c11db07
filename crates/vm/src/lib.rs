//! # modpeg-vm
//!
//! The bytecode parsing machine: modpeg's third execution engine,
//! between the tree-walking interpreter (`modpeg-interp`) and generated
//! Rust parsers (`modpeg-codegen`).
//!
//! Following Nez's parsing machine and LPeg's instruction idiom, a
//! grammar is compiled — *through* the interpreter's elaborated IR, so
//! every optimization decision is shared — into a flat instruction
//! stream plus constant pools (literals, character-class bitsets, node
//! kinds, terminal-dispatch first sets). A register-light dispatch loop
//! then executes it with explicit backtrack/call/value stacks,
//! memoized-call instructions over the chunked packrat table, and
//! superinstructions for the hottest PEG shapes (`[c]*`, `[c]+`, `![c]`,
//! `!"lit"`, `!.`, `&[c]`, whole-literal matching, memoized nonterminal
//! application).
//!
//! The machine is observationally identical to the other engines —
//! same trees, same accept/reject verdicts, same farthest-failure
//! offsets, same per-production memo traffic — and answers the same
//! [`ParseRequest`]s through the shared driver (every mode; deadlines,
//! fuel, depth and memo-byte budgets, cancellation) with the same
//! deterministic abort semantics.
//!
//! ## Example
//!
//! ```
//! use modpeg_core::{CharClass, Expr, GrammarBuilder, ProdKind};
//! use modpeg_vm::VmProgram;
//!
//! let mut b = GrammarBuilder::new("m");
//! b.production("Word", ProdKind::Text, vec![(None, Expr::Capture(Box::new(
//!     Expr::Plus(Box::new(Expr::Class(CharClass::from_ranges(
//!         vec![('a', 'z')], false)))))))]);
//! let grammar = b.build("Word")?;
//! let program = VmProgram::full(&grammar)?;
//! let tree = program.parse("hello").expect("matches");
//! assert_eq!(tree.to_sexpr(), "\"hello\"");
//! assert!(program.parse("hello!").is_err());
//! # Ok::<(), modpeg_vm::VmError>(())
//! ```

#![warn(missing_docs)]

mod compile;
mod disasm;
mod machine;
mod ops;

use modpeg_core::{Diagnostics, Grammar};
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{
    engine, Engine, EventSink, NodeKind, Outcome, ParseError, ParseRequest, RecoverPolicy,
    Recovered, Stats, SyntaxTree,
};

use crate::machine::Machine;
use crate::ops::{ClassConst, FirstConst, LitConst, Op};

/// Why a grammar could not be compiled to bytecode.
#[derive(Debug)]
pub enum VmError {
    /// The grammar itself failed to compile (same diagnostics the
    /// interpreter would report).
    Grammar(Diagnostics),
    /// The optimization configuration selects an execution strategy the
    /// bytecode does not encode.
    Unsupported(&'static str),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Grammar(d) => write!(f, "{d}"),
            VmError::Unsupported(why) => write!(f, "unsupported configuration: {why}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<Diagnostics> for VmError {
    fn from(d: Diagnostics) -> Self {
        VmError::Grammar(d)
    }
}

/// A grammar compiled to bytecode: the instruction stream, its constant
/// pools, and the optimization configuration it was compiled under.
pub struct VmProgram {
    chunk: compile::Chunk,
    cfg: OptConfig,
    n_slots: u32,
    /// The recovery policy derived from the *source* grammar's
    /// FIRST/FOLLOW analysis and `@recover` annotations — computed
    /// before any transform, so it is byte-identical across engines.
    policy: RecoverPolicy,
}

impl VmProgram {
    /// Compiles `grammar` under `cfg`.
    ///
    /// The bytecode encodes the *optimized* repetition and left-recursion
    /// strategies only: `cfg` must enable `iterative-repetition` and
    /// `left-recursion` (both [`OptConfig::all`] and
    /// [`OptConfig::incremental`] do). Every other flag is honored
    /// faithfully — memoization and transient sets, terminal dispatch,
    /// string matching, value elision, chunked memoization, error
    /// recording, location elision.
    ///
    /// # Errors
    ///
    /// [`VmError::Grammar`] when the grammar itself does not compile,
    /// [`VmError::Unsupported`] for configurations whose execution
    /// strategy is interpreter-only (see above).
    pub fn compile(grammar: &Grammar, cfg: OptConfig) -> Result<VmProgram, VmError> {
        let cg = CompiledGrammar::compile(grammar, cfg)?;
        VmProgram::from_compiled(&cg)
    }

    /// Compiles `grammar` under `cfg` with a profile-guided
    /// [`TuningPlan`](modpeg_core::transform::TuningPlan): per-production
    /// memoization, inlining, and dispatch decisions land in the shared
    /// IR (see [`CompiledGrammar::compile_with_plan`]) and therefore in
    /// the emitted bytecode — memoized calls become `MemoCall`s, plan
    /// dispatch hints gate `DispatchSkip` tables.
    ///
    /// # Errors
    ///
    /// As for [`VmProgram::compile`], plus [`VmError::Grammar`] when the
    /// plan's fingerprint does not match `grammar`.
    pub fn compile_with_plan(
        grammar: &Grammar,
        cfg: OptConfig,
        plan: Option<&modpeg_core::transform::TuningPlan>,
    ) -> Result<VmProgram, VmError> {
        let cg = CompiledGrammar::compile_with_plan(grammar, cfg, plan)?;
        VmProgram::from_compiled(&cg)
    }

    /// Compiles `grammar` fully optimized ([`OptConfig::all`]).
    ///
    /// # Errors
    ///
    /// [`VmError::Grammar`] when the grammar does not compile.
    pub fn full(grammar: &Grammar) -> Result<VmProgram, VmError> {
        VmProgram::compile(grammar, OptConfig::all())
    }

    /// Assembles bytecode from an already-compiled grammar, sharing its
    /// elaborated IR (and therefore every optimization decision).
    ///
    /// # Errors
    ///
    /// [`VmError::Unsupported`] for interpreter-only configurations (see
    /// [`VmProgram::compile`]).
    pub fn from_compiled(cg: &CompiledGrammar) -> Result<VmProgram, VmError> {
        let chunk = compile::assemble(cg)?;
        Ok(VmProgram {
            chunk,
            cfg: cg.config(),
            n_slots: cg.memo_slot_count(),
            policy: cg.recover_policy(),
        })
    }

    /// The engine-shared [`RecoverPolicy`]: restart and terminator sync
    /// sets from the grammar's FIRST/FOLLOW analysis plus its
    /// `@recover(...)` annotations, with the default error budget.
    /// Identical to the interpreter's
    /// [`CompiledGrammar::recover_policy`] for the same grammar.
    pub fn recover_policy(&self) -> RecoverPolicy {
        self.policy.clone()
    }

    /// The optimization configuration the program was compiled under.
    pub fn config(&self) -> OptConfig {
        self.cfg
    }

    /// Number of instructions in the program (bootstrap included).
    pub fn op_count(&self) -> usize {
        self.chunk.ops.len()
    }

    /// Number of productions.
    pub fn production_count(&self) -> usize {
        self.chunk.prods.len()
    }

    /// Number of memo slots (columns) the machine's packrat table has.
    pub fn memo_slot_count(&self) -> u32 {
        self.n_slots
    }

    /// A deterministic textual disassembly of the whole program:
    /// constant pools first, then each production's instruction range.
    /// Stable across runs for a given grammar and configuration, so
    /// instruction-encoding changes show up as reviewable diffs.
    pub fn disassemble(&self) -> String {
        disasm::disassemble(self)
    }

    // ----- parsing -----

    /// Parses `text`, requiring the root production to consume all of it.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the farthest failure when the
    /// input does not match (or does not match completely).
    pub fn parse(&self, text: &str) -> Result<SyntaxTree, ParseError> {
        self.parse_with_stats(text).0
    }

    /// Like [`VmProgram::parse`], also returning the run's [`Stats`].
    pub fn parse_with_stats(&self, text: &str) -> (Result<SyntaxTree, ParseError>, Stats) {
        engine::tree_result(self.run(text, ParseRequest::tree()))
    }

    /// Parses `text` in SAX event mode: on a full match the semantic tree
    /// is streamed to `sink` straight from the machine's arena. No events
    /// are delivered for failing parses.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the farthest failure when the
    /// input does not match (or does not match completely).
    pub fn parse_events(&self, text: &str, sink: &mut dyn EventSink) -> Result<(), ParseError> {
        engine::events_result(self.run(text, ParseRequest::events(sink)))
    }

    /// Parses `text` with panic-mode error recovery: never fails on
    /// malformed input, returning a partial tree (skipped regions become
    /// `$error` nodes) plus the diagnostics report. The machine — and its
    /// packrat table — lives across all restart attempts via the
    /// bootstrap's `Recover` prologue, and the restart loop is the shared
    /// driver's, so trees and diagnostics are engine-identical.
    pub fn parse_resilient(&self, text: &str, policy: &RecoverPolicy) -> Recovered<SyntaxTree> {
        engine::recovered_result(self.run(text, ParseRequest::resilient(policy)))
    }

    // ----- accessors for the machine and disassembler -----

    pub(crate) fn op_at(&self, pc: u32) -> Op {
        self.chunk.ops[pc as usize]
    }

    pub(crate) fn lit(&self, i: u32) -> &LitConst {
        &self.chunk.lits[i as usize]
    }

    pub(crate) fn class(&self, i: u32) -> &ClassConst {
        &self.chunk.classes[i as usize]
    }

    pub(crate) fn kind(&self, i: u32) -> &NodeKind {
        &self.chunk.kinds[i as usize]
    }

    pub(crate) fn first(&self, i: u32) -> &FirstConst {
        &self.chunk.firsts[i as usize]
    }

    pub(crate) fn production_names(&self) -> Vec<String> {
        self.chunk.prods.iter().map(|p| p.name.clone()).collect()
    }

    pub(crate) fn chunk(&self) -> &compile::Chunk {
        &self.chunk
    }
}

impl Engine for VmProgram {
    /// Parses `text` as `req` asks, with the same deterministic abort
    /// semantics as the interpreter under a governor.
    fn run(&self, text: &str, req: ParseRequest<'_>) -> Outcome {
        let (gov, telem) = (req.governor, req.telemetry);
        engine::drive(text, req, || Machine::new(self, text, gov, telem)).0
    }

    fn recover_policy(&self) -> RecoverPolicy {
        VmProgram::recover_policy(self)
    }

    fn name(&self) -> &'static str {
        "vm"
    }
}
