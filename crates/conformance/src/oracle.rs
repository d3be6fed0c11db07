//! The differential oracle: one input, every engine, identical answers.
//!
//! For a single input the oracle runs
//!
//! * the interpreter at all 17 cumulative optimization levels
//!   (`cumulative(0)` — which is also `OptConfig::default()`, the naïve
//!   packrat parser — through `cumulative(16)` = `OptConfig::all()`), plus
//!   the `incremental()` configuration,
//! * the structure-preserving backtracking recognizer from
//!   `modpeg-baseline` (verdict + farthest-failure offset),
//! * the build-time generated parser from `modpeg-grammars` for the named
//!   grammars,
//!
//! and demands identical accept/reject verdicts, identical trees (via
//! `to_sexpr`, i.e. modulo elided spans), and identical farthest-failure
//! offsets.
//!
//! Separately, [`Oracle::check_edits`] replays a random edit script
//! through the incremental machinery: a [`ParseSession`] and a raw
//! [`ChunkMemo`] driven through `apply_edit` + `run_incremental`,
//! asserting (a) incremental reparses agree with from-scratch parses on
//! verdict and tree, and (b) the memo-table invariant — no column whose
//! recorded lookahead overlaps the damaged window survives `apply_edit`.
//! (Error *offsets* are deliberately not compared for incremental
//! reparses: inside reused regions the farthest-failure detail is
//! documented to be coarser.)
//!
//! The baseline recognizer is exponential on rejections by design, so it
//! is only consulted for inputs up to [`EngineSet::baseline_max_len`].

use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;

use modpeg_baseline::BacktrackParser;
use modpeg_core::{Expr, Grammar};
use modpeg_interp::{CompiledGrammar, OptConfig, OPT_COUNT};
use modpeg_runtime::{
    recover, scan, ChunkMemo, Engine, Governor, Node, ParseAbort, ParseFault, ParseRequest, Parsed,
    Recovered, Span, Stats, Step, SyntaxTree, TreeBuilder, Value,
};
use modpeg_session::ParseSession;
use modpeg_vm::VmProgram;
use modpeg_workload::rng::StdRng;

use crate::GrammarId;

/// One execution-engine family, as selectable everywhere engines are
/// named: `modpeg parse --engine`, `modpeg fuzz --engines`,
/// `modpeg fault --engines`, and the harness APIs. This is the single
/// source of truth for engine names — the subcommands share it instead
/// of re-parsing ad-hoc string lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The tree-walking interpreter, swept across every cumulative
    /// optimization level by the oracle (`interp` is accepted as an
    /// alias, and is what `modpeg parse` calls this engine).
    OptLevels,
    /// The structure-preserving backtracking recognizer.
    Baseline,
    /// The build-time generated parsers (named grammars only).
    Codegen,
    /// Incremental sessions replaying edit scripts vs full reparses.
    Incremental,
    /// The bytecode parsing machine (`modpeg-vm`).
    Vm,
}

impl EngineKind {
    /// Every engine, in reporting order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::OptLevels,
        EngineKind::Baseline,
        EngineKind::Codegen,
        EngineKind::Incremental,
        EngineKind::Vm,
    ];

    /// The canonical engine name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::OptLevels => "opt-levels",
            EngineKind::Baseline => "baseline",
            EngineKind::Codegen => "codegen",
            EngineKind::Incremental => "incremental",
            EngineKind::Vm => "vm",
        }
    }

    /// Resolves an engine name (canonical, or the `interp` alias for the
    /// interpreter).
    pub fn from_name(name: &str) -> Option<EngineKind> {
        match name {
            "opt-levels" | "interp" => Some(EngineKind::OptLevels),
            "baseline" => Some(EngineKind::Baseline),
            "codegen" => Some(EngineKind::Codegen),
            "incremental" => Some(EngineKind::Incremental),
            "vm" => Some(EngineKind::Vm),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which engine families the oracle consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSet {
    /// The interpreter at every cumulative optimization level.
    pub opt_levels: bool,
    /// The backtracking recognizer (verdict + farthest failure).
    pub baseline: bool,
    /// The build-time generated parser (named grammars only).
    pub codegen: bool,
    /// Incremental sessions replaying edit scripts vs full reparses.
    pub incremental: bool,
    /// The bytecode parsing machine.
    pub vm: bool,
    /// Inputs longer than this skip the (exponential) baseline engine.
    pub baseline_max_len: usize,
}

impl Default for EngineSet {
    fn default() -> Self {
        EngineSet::all()
    }
}

impl EngineSet {
    /// Every engine enabled.
    pub fn all() -> Self {
        EngineSet {
            opt_levels: true,
            baseline: true,
            codegen: true,
            incremental: true,
            vm: true,
            baseline_max_len: 120,
        }
    }

    /// No engines enabled (build a selection with [`EngineSet::enable`]).
    pub fn none() -> Self {
        EngineSet {
            opt_levels: false,
            baseline: false,
            codegen: false,
            incremental: false,
            vm: false,
            baseline_max_len: EngineSet::all().baseline_max_len,
        }
    }

    /// Enables one engine family.
    pub fn enable(&mut self, kind: EngineKind) {
        match kind {
            EngineKind::OptLevels => self.opt_levels = true,
            EngineKind::Baseline => self.baseline = true,
            EngineKind::Codegen => self.codegen = true,
            EngineKind::Incremental => self.incremental = true,
            EngineKind::Vm => self.vm = true,
        }
    }

    /// Whether one engine family is enabled.
    pub fn enabled(&self, kind: EngineKind) -> bool {
        match kind {
            EngineKind::OptLevels => self.opt_levels,
            EngineKind::Baseline => self.baseline,
            EngineKind::Codegen => self.codegen,
            EngineKind::Incremental => self.incremental,
            EngineKind::Vm => self.vm,
        }
    }

    /// Parses a comma-separated engine list
    /// (`opt-levels,baseline,codegen,incremental,vm`; `interp` is an
    /// alias for `opt-levels`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown engine.
    pub fn from_list(list: &str) -> Result<Self, String> {
        let mut set = EngineSet::none();
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match EngineKind::from_name(name) {
                Some(kind) => set.enable(kind),
                None => {
                    let known: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
                    return Err(format!(
                        "unknown engine `{name}` (expected {})",
                        known.join(", ")
                    ));
                }
            }
        }
        if set.names().is_empty() {
            return Err("engine list selects no engines".to_owned());
        }
        Ok(set)
    }

    /// The enabled engines, for reporting.
    pub fn names(&self) -> Vec<&'static str> {
        EngineKind::ALL
            .iter()
            .filter(|k| self.enabled(**k))
            .map(|k| k.name())
            .collect()
    }
}

/// The comparable outcome of one engine on one input.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    /// The tree on acceptance (spans elided by `to_sexpr`).
    sexpr: Option<String>,
    /// The farthest-failure offset on rejection.
    err_offset: Option<u32>,
}

impl Outcome {
    /// A tree, or a rejection at the syntax error's offset (an abort
    /// rejects with no offset).
    fn of(result: Result<SyntaxTree, impl Into<ParseFault>>) -> Self {
        match result {
            Ok(tree) => Outcome {
                sexpr: Some(tree.to_sexpr()),
                err_offset: None,
            },
            Err(fault) => Outcome {
                sexpr: None,
                err_offset: fault.into().syntax().map(|e| e.offset()),
            },
        }
    }

    fn accepted(&self) -> bool {
        self.sexpr.is_some()
    }

    fn describe(&self) -> String {
        match (&self.sexpr, self.err_offset) {
            (Some(s), _) => format!("accept {}", clip(s)),
            (None, Some(off)) => format!("reject at offset {off}"),
            (None, None) => "reject".to_owned(),
        }
    }
}

/// The comparable fingerprint of one governed run for the scan-parity
/// legs: the outcome, the full statistics record (terminal comparisons
/// included), and the governor's total step count. The bulk class
/// scanner and the scalar reference path must produce identical
/// fingerprints — same tree or failure offset, same comparison counts,
/// same fuel consumption.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScanFingerprint {
    outcome: Outcome,
    stats: Stats,
    steps: u64,
}

/// Runs `engine` under a fresh unlimited governor and fingerprints it.
/// An abort under an unlimited governor is itself a contract violation,
/// surfaced as `Err`.
fn scan_fingerprint(engine: &dyn Engine, input: &str) -> Result<ScanFingerprint, ParseAbort> {
    let gov = Governor::new();
    let (result, stats) = engine.run(input, ParseRequest::tree().governed(&gov));
    if let Some(kind) = result.as_ref().err().and_then(ParseFault::abort) {
        return Err(kind);
    }
    Ok(ScanFingerprint {
        outcome: Outcome::of(result.map(Parsed::into_tree)),
        stats,
        steps: gov.steps(),
    })
}

/// Checks that every span in a recovered value tree nests inside its
/// nearest spanned ancestor — the structural guarantee that `$error`
/// regions (and everything else) sit where the tree says they do.
fn span_nesting_violation(v: &Value) -> Option<String> {
    // Per open composite: the nearest span at or above it.
    let mut bounds: Vec<Option<Span>> = Vec::new();
    for step in v.walk() {
        match step {
            Step::Enter(composite) => {
                let bound = bounds.last().copied().flatten();
                let span = composite.as_node().and_then(Node::span);
                if let (Some(s), Some(b)) = (span, bound) {
                    if s.lo() < b.lo() || s.hi() > b.hi() {
                        return Some(format!("span {s:?} escapes its enclosing span {b:?}"));
                    }
                }
                bounds.push(span.or(bound));
            }
            Step::Exit(_) => {
                bounds.pop();
            }
            Step::Leaf(_) => {}
        }
    }
    None
}

/// The starvation-fuel contract for a governed resilient parse: either
/// the run still completed (tiny inputs) and must match the reference,
/// or it aborted with [`ParseAbort::FuelExhausted`] — anything else
/// (wrong abort kind, divergent result) is a violation. Reaching this
/// function at all proves the run neither panicked nor hung.
fn starved_recovery_violation(
    label: &str,
    r: Result<Parsed, ParseFault>,
    ref_sexpr: &str,
    ref_diags: &recover::Diagnostics,
) -> Option<String> {
    match r {
        Ok(rec) => {
            let got = rec.tree.as_ref().map(SyntaxTree::to_sexpr);
            if got.as_deref() != Some(ref_sexpr) || rec.diagnostics != *ref_diags {
                Some(format!(
                    "engine `{label}` starved resilient parse completed but diverged: {}",
                    got.as_deref().map_or_else(String::new, clip)
                ))
            } else {
                None
            }
        }
        Err(ParseFault::Abort(ParseAbort::FuelExhausted)) => None,
        Err(fault) => Some(format!(
            "engine `{label}` starved resilient parse failed with `{fault}` instead of \
             aborting with FuelExhausted"
        )),
    }
}

pub(crate) fn clip(s: &str) -> String {
    if s.len() > 160 {
        let cut = (0..=160)
            .rev()
            .find(|i| s.is_char_boundary(*i))
            .unwrap_or(0);
        format!("{}…", &s[..cut])
    } else {
        s.to_owned()
    }
}

/// A cross-engine differential oracle for one grammar.
pub struct Oracle<'g> {
    grammar: &'g Grammar,
    id: Option<GrammarId>,
    engines: EngineSet,
    /// `(label, parser)` per interpreter configuration; index 0 is the
    /// reference (`cumulative(0)`, the naïve packrat parser).
    levels: Vec<(String, CompiledGrammar)>,
    incremental: Rc<CompiledGrammar>,
    baseline: BacktrackParser<'g>,
    /// The fully optimized interpreter — the arena-active engine whose
    /// SAX event stream the event legs round-trip.
    full: CompiledGrammar,
    /// The bytecode machine, compiled at full optimization.
    vm: Option<VmProgram>,
    /// SAX event streams round-tripped so far (see [`Oracle::check`]).
    event_checks: Cell<u64>,
    /// Resilient-parse legs run so far (see [`Oracle::check_recovery`]).
    recovery_checks: Cell<u64>,
    /// Scalar-vs-vectorized scan-parity legs run so far (see
    /// [`Oracle::check_scan_parity`]).
    scan_checks: Cell<u64>,
    /// Characters edit scripts splice in, harvested from the grammar's
    /// literals and classes.
    alphabet: Vec<char>,
    /// Edits replayed per [`Oracle::check_edits`] call.
    pub edits_per_script: usize,
}

impl<'g> Oracle<'g> {
    /// Compiles every engine for `grammar`. `id` enables the codegen
    /// engine for the named grammars.
    ///
    /// # Errors
    ///
    /// Propagates compilation diagnostics as a rendered string.
    pub fn new(
        grammar: &'g Grammar,
        id: Option<GrammarId>,
        engines: EngineSet,
    ) -> Result<Self, String> {
        let mut levels = Vec::with_capacity(OPT_COUNT + 2);
        let last = if engines.opt_levels { OPT_COUNT } else { 0 };
        for n in 0..=last {
            let cfg = OptConfig::cumulative(n);
            levels.push((
                format!("cumulative({n})"),
                CompiledGrammar::compile(grammar, cfg).map_err(|e| e.to_string())?,
            ));
        }
        if engines.opt_levels {
            levels.push((
                "incremental-config".to_owned(),
                CompiledGrammar::compile(grammar, OptConfig::incremental())
                    .map_err(|e| e.to_string())?,
            ));
        }
        let incremental = Rc::new(
            CompiledGrammar::compile(grammar, OptConfig::incremental())
                .map_err(|e| e.to_string())?,
        );
        let full =
            CompiledGrammar::compile(grammar, OptConfig::all()).map_err(|e| e.to_string())?;
        let vm = if engines.vm {
            Some(VmProgram::from_compiled(&full).map_err(|e| e.to_string())?)
        } else {
            None
        };
        Ok(Oracle {
            grammar,
            id,
            engines,
            levels,
            incremental,
            baseline: BacktrackParser::new(grammar),
            full,
            vm,
            event_checks: Cell::new(0),
            recovery_checks: Cell::new(0),
            scan_checks: Cell::new(0),
            alphabet: grammar_alphabet(grammar),
            edits_per_script: 6,
        })
    }

    /// Number of SAX event streams round-tripped through a
    /// [`TreeBuilder`] and compared against the reference tree so far.
    pub fn event_checks(&self) -> u64 {
        self.event_checks.get()
    }

    /// Number of resilient-parse legs run so far (see
    /// [`Oracle::check_recovery`]).
    pub fn recovery_checks(&self) -> u64 {
        self.recovery_checks.get()
    }

    /// Number of scalar-vs-vectorized scan-parity legs run so far (see
    /// [`Oracle::check_scan_parity`]).
    pub fn scan_parity_checks(&self) -> u64 {
        self.scan_checks.get()
    }

    /// The reference parser (`cumulative(0)`).
    pub fn reference(&self) -> &CompiledGrammar {
        &self.levels[0].1
    }

    /// The grammar under test.
    pub fn grammar(&self) -> &'g Grammar {
        self.grammar
    }

    /// The compiled engines at full optimization — the interpreter, then
    /// the bytecode machine and the generated parser when enabled — that
    /// every per-engine leg iterates.
    fn compiled(&self) -> Vec<&dyn Engine> {
        let mut engines: Vec<&dyn Engine> = vec![&self.full];
        if let Some(vm) = &self.vm {
            engines.push(vm);
        }
        if let Some(id) = self.id.filter(|_| self.engines.codegen) {
            engines.push(id.codegen());
        }
        engines
    }

    /// Runs every scratch-parse engine on `input` and compares outcomes.
    /// Returns a human-readable description of the first divergence, or
    /// `None` when all engines agree.
    pub fn check(&self, input: &str) -> Option<String> {
        let reference = Outcome::of(self.reference().parse(input));
        for (label, parser) in &self.levels[1..] {
            let got = Outcome::of(parser.parse(input));
            if got != reference {
                return Some(format!(
                    "engine `opt-levels` ({label}) disagrees with `cumulative(0)`: {} vs {}",
                    got.describe(),
                    reference.describe()
                ));
            }
        }
        if self.engines.baseline && input.len() <= self.engines.baseline_max_len {
            match (self.baseline.recognize(input), &reference) {
                (Ok(()), r) if !r.accepted() => {
                    return Some(format!(
                        "engine `baseline` accepts but `cumulative(0)` {}",
                        r.describe()
                    ));
                }
                (Err(off), r) if r.accepted() => {
                    return Some(format!(
                        "engine `baseline` rejects at {off} but `cumulative(0)` accepts"
                    ));
                }
                (Err(off), r) if r.err_offset != Some(off) => {
                    return Some(format!(
                        "engine `baseline` farthest failure {off} vs `cumulative(0)` {:?}",
                        r.err_offset
                    ));
                }
                _ => {}
            }
        }
        for engine in &self.compiled()[1..] {
            let (result, _) = engine.run(input, ParseRequest::tree());
            let got = Outcome::of(result.map(Parsed::into_tree));
            if got != reference {
                return Some(format!(
                    "engine `{}` disagrees with `cumulative(0)`: {} vs {}",
                    engine.name(),
                    got.describe(),
                    reference.describe()
                ));
            }
        }

        // Event legs: every engine's SAX stream, rebuilt by a
        // TreeBuilder, must reproduce the reference tree (and reject at
        // the reference offset on failures).
        for engine in self.compiled() {
            if let Some(d) = self.check_event_leg(input, &reference, engine) {
                return Some(d);
            }
        }

        // Scan-parity legs: the bulk character-class scanner and the
        // forced scalar reference path must be observationally identical
        // on every compiled engine.
        if let Some(d) = self.check_scan_parity(input) {
            return Some(d);
        }

        // Recovery leg: every engine's resilient parse must agree on the
        // partial tree and the diagnostics report, uphold the report's
        // internal invariants, and never panic under governor budgets.
        if let Some(d) = self.check_recovery(input) {
            return Some(d);
        }
        None
    }

    /// Runs each compiled engine (interpreter at full optimization, VM,
    /// generated parser) twice under unlimited governors — once on the
    /// default vectorized class scanner, once with the scalar reference
    /// path forced — and demands identical trees, farthest-failure
    /// offsets, full statistics (terminal comparisons included), and
    /// governor step totals. This is the oracle-level guarantee that bulk
    /// scanning is a pure speedup: no observable behavior may depend on
    /// which scanner ran.
    pub fn check_scan_parity(&self, input: &str) -> Option<String> {
        self.scan_checks.set(self.scan_checks.get() + 1);
        let prior = scan::scalar_forced();
        let mut verdict = None;
        for engine in self.compiled() {
            let label = engine.name();
            scan::force_scalar(false);
            let vectorized = scan_fingerprint(engine, input);
            scan::force_scalar(true);
            let scalar = scan_fingerprint(engine, input);
            match (vectorized, scalar) {
                (Err(kind), _) | (_, Err(kind)) => {
                    verdict = Some(format!(
                        "engine `{label}` aborted with {kind:?} under an unlimited governor \
                         during the scan-parity leg"
                    ));
                    break;
                }
                (Ok(v), Ok(s)) if v != s => {
                    verdict = Some(format!(
                        "engine `{label}` scan parity: vectorized {} ({} comparisons, {} steps) \
                         vs scalar {} ({} comparisons, {} steps)",
                        v.outcome.describe(),
                        v.stats.terminal_comparisons,
                        v.steps,
                        s.outcome.describe(),
                        s.stats.terminal_comparisons,
                        s.steps,
                    ));
                    break;
                }
                _ => {}
            }
        }
        scan::force_scalar(prior);
        verdict
    }

    /// Runs every engine's *resilient* parse on `input` and compares the
    /// recovered trees and diagnostics, returning the first divergence.
    ///
    /// Beyond cross-engine agreement, the reference report must uphold
    /// the recovery contract itself: a clean report coincides with a
    /// successful plain parse (and an identical tree); error regions are
    /// disjoint and ascending; the tree carries exactly one
    /// [`recover::ERROR_KIND`] node per diagnostic (plus the final
    /// unreported region when truncated); `$error` spans nest inside
    /// their parents; a unit error budget truncates deterministically;
    /// and governed resilient parses either reproduce the reference or
    /// abort with a structured kind — never a panic, never a hang.
    pub fn check_recovery(&self, input: &str) -> Option<String> {
        self.recovery_checks.set(self.recovery_checks.get() + 1);
        let policy = self.full.recover_policy();
        let reference = self.full.parse_resilient(input, &policy);
        let ref_sexpr = reference.tree.to_sexpr();
        let ref_diags = &reference.diagnostics;

        // Contract: a clean report is exactly a successful plain parse.
        if ref_diags.is_clean() {
            match self.full.parse(input) {
                Ok(t) if t.to_sexpr() == ref_sexpr => {}
                Ok(_) => {
                    return Some(format!(
                        "recovery: clean resilient tree {} differs from the plain parse",
                        clip(&ref_sexpr)
                    ));
                }
                Err(e) => {
                    return Some(format!(
                        "recovery: clean report but the plain parse rejects at offset {}",
                        e.offset()
                    ));
                }
            }
        } else if self.full.parse(input).is_ok() {
            return Some(format!(
                "recovery: {} error(s) reported on an input the plain parse accepts",
                ref_diags.error_count()
            ));
        }

        // Contract: one `$error` node per diagnostic, plus the final
        // unreported region when the budget truncated the report.
        let nodes = recover::count_error_nodes(reference.tree.root());
        let want = ref_diags.error_count() + usize::from(ref_diags.truncated);
        if nodes != want {
            return Some(format!(
                "recovery: tree carries {nodes} $error node(s) but the report implies {want} \
                 ({} diagnostic(s), truncated: {})",
                ref_diags.error_count(),
                ref_diags.truncated
            ));
        }

        // Contract: skipped regions are disjoint, ascending, and resume
        // exactly where they end; `$error` spans nest inside their
        // parents.
        let mut prev_hi = 0u32;
        for d in &ref_diags.errors {
            if d.skipped.lo() < prev_hi {
                return Some(format!(
                    "recovery: error region {:?} overlaps or precedes the previous region \
                     (ends at {prev_hi})",
                    d.skipped
                ));
            }
            if d.resumed_at() != d.skipped.hi() {
                return Some(format!(
                    "recovery: diagnostic resumed at {} but its region ends at {}",
                    d.resumed_at(),
                    d.skipped.hi()
                ));
            }
            prev_hi = d.skipped.hi();
        }
        if let Some(v) = span_nesting_violation(reference.tree.root()) {
            return Some(format!("recovery: {v}"));
        }

        // Engine agreement: identical recovered trees, identical reports.
        let compare = |label: &str, got: &Recovered<SyntaxTree>| -> Option<String> {
            let got_sexpr = got.tree.to_sexpr();
            if got_sexpr != ref_sexpr {
                return Some(format!(
                    "engine `{label}` recovered tree {} but `opt-levels` recovered {}",
                    clip(&got_sexpr),
                    clip(&ref_sexpr)
                ));
            }
            if got.diagnostics != *ref_diags {
                return Some(format!(
                    "engine `{label}` diagnostics {:?} differ from `opt-levels` {:?}",
                    got.diagnostics, ref_diags
                ));
            }
            None
        };
        for engine in &self.compiled()[1..] {
            let label = engine.name();
            if engine.recover_policy() != policy {
                return Some(format!(
                    "engine `{label}` computed a different recovery policy than the interpreter"
                ));
            }
            match engine.run(input, ParseRequest::resilient(&policy)).0 {
                Ok(got) => {
                    if let Some(d) = compare(label, &got.into_recovered()) {
                        return Some(d);
                    }
                }
                Err(fault) => {
                    return Some(format!("engine `{label}` resilient parse failed: {fault}"))
                }
            }
        }

        // Event legs: each engine's resilient event stream must rebuild
        // the recovered tree ($error nodes round-trip through
        // ErrorStart/ErrorEnd) and report identical diagnostics.
        for engine in self.compiled() {
            if let Some(d) =
                self.check_recovery_event_leg(input, &policy, &ref_sexpr, ref_diags, engine)
            {
                return Some(d);
            }
        }

        // A unit error budget must truncate deterministically: one
        // reported diagnostic, the rest of the input covered by the
        // final unreported region.
        if ref_diags.error_count() > 1 {
            let capped = self
                .full
                .parse_resilient(input, &policy.clone().with_max_errors(1));
            if capped.diagnostics.error_count() != 1 || !capped.diagnostics.truncated {
                return Some(format!(
                    "recovery: --max-errors 1 reported {} error(s) (truncated: {}) on an input \
                     with {} recoverable errors",
                    capped.diagnostics.error_count(),
                    capped.diagnostics.truncated,
                    ref_diags.error_count()
                ));
            }
        }

        // Governed legs: an unlimited governor reproduces the reference;
        // starvation fuel aborts with a structured kind. Either way the
        // run returns — no panic, no hang.
        let gov = Governor::new();
        let (r, _) = self
            .full
            .run(input, ParseRequest::resilient(&policy).governed(&gov));
        match r {
            Ok(got) => {
                if let Some(d) = compare("opt-levels (governed)", &got.into_recovered()) {
                    return Some(d);
                }
            }
            Err(fault) => {
                return Some(format!(
                    "recovery: unlimited governed resilient parse failed: {fault}"
                ));
            }
        }
        for engine in self.compiled() {
            let starve = Governor::new().with_fuel(4);
            let (r, _) = engine.run(input, ParseRequest::resilient(&policy).governed(&starve));
            if let Some(d) = starved_recovery_violation(engine.name(), r, &ref_sexpr, ref_diags) {
                return Some(d);
            }
        }
        None
    }

    /// One resilient event-mode leg: stream into a [`TreeBuilder`] and
    /// demand the rebuilt tree and the returned report both match the
    /// reference resilient parse.
    fn check_recovery_event_leg(
        &self,
        input: &str,
        policy: &recover::RecoverPolicy,
        ref_sexpr: &str,
        ref_diags: &recover::Diagnostics,
        engine: &dyn Engine,
    ) -> Option<String> {
        let label = engine.name();
        let mut builder = TreeBuilder::new();
        let (result, _) = engine.run(input, ParseRequest::resilient_events(policy, &mut builder));
        let diags = match result {
            Ok(parsed) => parsed.diagnostics,
            Err(fault) => {
                return Some(format!(
                    "engine `{label}` (resilient events) failed: {fault}"
                ))
            }
        };
        if diags != *ref_diags {
            return Some(format!(
                "engine `{label}` (resilient events) diagnostics {diags:?} differ from the \
                 resilient parse's {ref_diags:?}"
            ));
        }
        let rebuilt = builder
            .finish()
            .map(|root| SyntaxTree::new(input, root).to_sexpr());
        if rebuilt.as_deref() != Some(ref_sexpr) {
            return Some(format!(
                "engine `{label}` resilient event stream rebuilds {} but the resilient tree is {}",
                rebuilt
                    .as_deref()
                    .map_or_else(|| "<unbalanced stream>".to_owned(), clip),
                clip(ref_sexpr)
            ));
        }
        None
    }

    /// One event-mode leg: run `engine` into a [`TreeBuilder`], then
    /// demand the rebuilt tree (or the failure offset) matches the
    /// reference outcome.
    fn check_event_leg(
        &self,
        input: &str,
        reference: &Outcome,
        engine: &dyn Engine,
    ) -> Option<String> {
        self.event_checks.set(self.event_checks.get() + 1);
        let label = engine.name();
        let mut builder = TreeBuilder::new();
        match engine.run(input, ParseRequest::events(&mut builder)).0 {
            Ok(_) => {
                if !reference.accepted() {
                    return Some(format!(
                        "engine `{label}` (events) accepts but `cumulative(0)` {}",
                        reference.describe()
                    ));
                }
                let rebuilt = builder
                    .finish()
                    .map(|root| SyntaxTree::new(input, root).to_sexpr());
                if rebuilt != reference.sexpr {
                    return Some(format!(
                        "engine `{label}` event stream rebuilds {} but `cumulative(0)` tree is {}",
                        rebuilt
                            .as_deref()
                            .map_or_else(|| "<unbalanced stream>".to_owned(), clip),
                        reference.sexpr.as_deref().map_or_else(String::new, clip)
                    ));
                }
                None
            }
            Err(fault) => {
                let offset = fault.syntax().map(|e| e.offset());
                if reference.accepted() {
                    Some(format!(
                        "engine `{label}` (events) rejects ({fault}) but `cumulative(0)` accepts"
                    ))
                } else if offset != reference.err_offset {
                    Some(format!(
                        "engine `{label}` (events) farthest failure {offset:?} vs `cumulative(0)` {:?}",
                        reference.err_offset
                    ))
                } else {
                    None
                }
            }
        }
    }

    /// Replays a deterministic random edit script (derived from `seed`)
    /// over `text` through the incremental machinery, checking incremental
    /// vs from-scratch agreement and the memo-invalidation invariant after
    /// every `apply_edit`. Returns the first divergence found.
    pub fn check_edits(&self, text: &str, seed: u64) -> Option<String> {
        if !self.engines.incremental {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);

        // Engine (d1): the session layer. For stateful grammars the
        // session detects unsound reuse and falls back to full reparses —
        // the tree agreement below still must hold.
        let mut session = ParseSession::new(self.incremental.clone(), text.to_owned());
        let _ = session.parse();
        for step in 0..self.edits_per_script {
            let (range, insert) = random_edit(session.text(), &self.alphabet, &mut rng);
            session.apply_edit(range.clone(), &insert);
            let incremental = Outcome::of(session.parse());
            let scratch = Outcome::of(self.incremental.parse(session.text()));
            if incremental.accepted() != scratch.accepted() || incremental.sexpr != scratch.sexpr {
                return Some(format!(
                    "session reparse diverged after edit {step} ({range:?} -> {insert:?}) on {:?}: {} vs scratch {}",
                    session.text(),
                    incremental.describe(),
                    scratch.describe()
                ));
            }
        }

        // Engine (d2): the raw memo table, where the invariant is visible.
        // Carrying a memo across edits is unsound for stateful grammars
        // (the session's fallback is the fix), so the invariant check only
        // applies to pure ones.
        if self.incremental.uses_state() {
            return None;
        }
        let mut doc = text.to_owned();
        let mut memo = ChunkMemo::new(self.incremental.memo_slot_count(), doc.len() as u32);
        let parser = &self.incremental;
        let _ = parser.run_incremental(&doc, ParseRequest::tree(), &mut memo);
        for step in 0..self.edits_per_script {
            let (range, insert) = random_edit(&doc, &self.alphabet, &mut rng);
            let (lo, removed, inserted) = (
                range.start as u32,
                (range.end - range.start) as u32,
                insert.len() as u32,
            );
            doc.replace_range(range.clone(), &insert);
            memo.apply_edit(lo, removed, inserted);
            if let Some(violation) = memo_invariant_violation(&memo, lo, inserted) {
                return Some(format!(
                    "after edit {step} ({range:?} -> {insert:?}) on {doc:?}: {violation}"
                ));
            }
            let (result, _) = parser.run_incremental(&doc, ParseRequest::tree(), &mut memo);
            let incremental = Outcome::of(result.map(Parsed::into_tree));
            let scratch = Outcome::of(self.incremental.parse(&doc));
            if incremental.accepted() != scratch.accepted() || incremental.sexpr != scratch.sexpr {
                return Some(format!(
                    "memo-carrying reparse diverged after edit {step} ({range:?} -> {insert:?}) on {doc:?}: {} vs scratch {}",
                    incremental.describe(),
                    scratch.describe()
                ));
            }
        }
        None
    }
}

/// Checks the post-`apply_edit` soundness invariant: every surviving
/// occupied column's recorded lookahead lies entirely left of the edit, or
/// the column sits at/after the end of the inserted text.
pub(crate) fn memo_invariant_violation(memo: &ChunkMemo, lo: u32, inserted: u32) -> Option<String> {
    for (pos, extent, entries) in memo.occupied_columns() {
        let left_ok = u64::from(pos) + u64::from(extent) <= u64::from(lo);
        let right_ok = pos >= lo + inserted;
        if !left_ok && !right_ok {
            return Some(format!(
                "memo column at {pos} (extent {extent}, {entries} entries) survived apply_edit overlapping [{lo}, {})",
                lo + inserted
            ));
        }
    }
    None
}

/// A random char-boundary edit: replace `range` with `insert`.
pub(crate) fn random_edit(
    doc: &str,
    alphabet: &[char],
    rng: &mut StdRng,
) -> (std::ops::Range<usize>, String) {
    let boundaries: Vec<usize> = doc
        .char_indices()
        .map(|(i, _)| i)
        .chain([doc.len()])
        .collect();
    let a = rng.gen_range(0..boundaries.len());
    let b = (a + rng.gen_range(0..=6usize)).min(boundaries.len() - 1);
    let insert: String = (0..rng.gen_range(0usize..5))
        .map(|_| {
            if alphabet.is_empty() {
                'x'
            } else {
                alphabet[rng.gen_range(0..alphabet.len())]
            }
        })
        .collect();
    (boundaries[a]..boundaries[b], insert)
}

/// The characters a grammar's terminals mention: literal characters plus
/// the endpoints of every non-negated class range (and whitespace).
pub(crate) fn grammar_alphabet(grammar: &Grammar) -> Vec<char> {
    let mut set = BTreeSet::new();
    for (_, prod) in grammar.iter() {
        for expr in prod.exprs() {
            expr.walk(&mut |e| match e {
                Expr::Literal(s) => set.extend(s.chars()),
                Expr::Class(c) if !c.is_negated() => {
                    for &(lo, hi) in c.ranges() {
                        set.insert(lo);
                        set.insert(hi);
                    }
                }
                _ => {}
            });
        }
    }
    set.extend([' ', '\n']);
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_list_parsing() {
        let set = EngineSet::from_list("opt-levels, baseline").unwrap();
        assert!(set.opt_levels && set.baseline);
        assert!(!set.codegen && !set.incremental && !set.vm);
        assert_eq!(set.names(), vec!["opt-levels", "baseline"]);
        let set = EngineSet::from_list("vm").unwrap();
        assert!(set.vm && !set.opt_levels);
        assert_eq!(set.names(), vec!["vm"]);
        // `interp` is an alias for the opt-level sweep.
        let set = EngineSet::from_list("interp,vm").unwrap();
        assert!(set.opt_levels && set.vm);
        let err = EngineSet::from_list("warp-drive").unwrap_err();
        assert!(err.contains("vm"), "error names every engine: {err}");
        assert!(EngineSet::from_list("").is_err());
    }

    #[test]
    fn engine_kind_round_trips() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(EngineKind::from_name("interp"), Some(EngineKind::OptLevels));
        assert_eq!(EngineKind::from_name("warp-drive"), None);
    }

    #[test]
    fn calc_inputs_agree_across_engines() {
        let g = modpeg_grammars::calc_grammar().unwrap();
        let oracle = Oracle::new(&g, Some(GrammarId::Calc), EngineSet::all()).unwrap();
        for input in ["1 + 2 * (3 - 4)", "7", "1 + ", "", "((2)", "1 % 2"] {
            assert_eq!(oracle.check(input), None, "on {input:?}");
        }
    }

    #[test]
    fn edit_scripts_agree_on_calc() {
        let g = modpeg_grammars::calc_grammar().unwrap();
        let oracle = Oracle::new(&g, Some(GrammarId::Calc), EngineSet::all()).unwrap();
        for seed in 0..8 {
            let text = modpeg_workload::calc_expression(seed, 120);
            assert_eq!(oracle.check_edits(&text, seed), None, "seed {seed}");
        }
    }

    #[test]
    fn stateful_c_grammar_edit_scripts_still_check() {
        let g = modpeg_grammars::c_grammar().unwrap();
        let oracle = Oracle::new(&g, Some(GrammarId::C), EngineSet::all()).unwrap();
        let text = modpeg_workload::c_program(1, 300);
        assert_eq!(oracle.check_edits(&text, 17), None);
    }

    #[test]
    fn grammar_alphabet_collects_terminals() {
        let g = modpeg_grammars::calc_grammar().unwrap();
        let alphabet = grammar_alphabet(&g);
        for c in ['+', '-', '*', '(', ')', '0', '9'] {
            assert!(alphabet.contains(&c), "{c} missing from {alphabet:?}");
        }
    }

    #[test]
    fn span_nesting_is_checked_on_deep_and_violating_trees() {
        let spanned = |kind: &str, children: Vec<Value>, lo: u32, hi: u32| {
            Value::Node(Rc::new(Node::with_span(
                modpeg_runtime::NodeKind::new(kind),
                children,
                Span::new(lo, hi),
            )))
        };
        // A left-deep chain as deep as a 256 KiB left-recursive fold,
        // checked on a 2 MiB thread.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let levels = 128 * 1024;
                let mut chain = spanned("Leaf", vec![], 0, 1);
                for hi in 1..=levels {
                    chain = spanned("Add", vec![Value::list(vec![chain])], 0, hi);
                }
                assert_eq!(span_nesting_violation(&chain), None);
            })
            .expect("spawns the worker")
            .join()
            .expect("the deep chain is checked");
        // The grandchild escapes its nearest spanned ancestor, across a
        // span-less node.
        let inner = Value::node("Wrap", vec![spanned("Stray", vec![], 3, 9)]);
        let tree = spanned("Root", vec![spanned("Mid", vec![inner], 2, 6)], 0, 10);
        let v = span_nesting_violation(&tree).expect("a violation");
        assert!(v.contains("escapes"), "{v}");
        assert_eq!(span_nesting_violation(&spanned("Mid", vec![], 2, 6)), None);
    }
}
