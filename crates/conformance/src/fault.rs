//! Fault injection: deterministic aborts and evictions at randomized
//! evaluation points, checked across every engine.
//!
//! Fuel ticks are the injection vector. Every governed engine charges one
//! fuel unit per guard check, so "abort after `k` ticks" names a
//! deterministic, reproducible evaluation point anywhere inside a parse —
//! including the middle of a memo probe, a repetition loop, or a
//! left-recursion growth round. The harness first probes how many ticks a
//! document costs, draws abort points from a seeded RNG, then re-runs each
//! engine with exactly that much fuel and checks the abort contract:
//!
//! * the run reports [`ParseAbort::FuelExhausted`] — it never panics,
//!   never spins, and never misreports the abort as a syntax verdict;
//! * an aborted memo table is structurally sound (every occupied column
//!   lies inside the input) and *semantically* sound: retrying on it
//!   yields a tree identical to a from-scratch parse;
//! * `apply_edit` on an aborted memo upholds the invalidation invariant,
//!   and the edited reparse agrees with a scratch parse of the edited
//!   text;
//! * a [`ParseSession`] survives the abort and stays usable — ungoverned
//!   reparse, then an edit, both agreeing with scratch;
//! * memo-budget and depth ceilings degrade gracefully: an identical tree
//!   or a structured abort, nothing in between;
//! * a pre-cancelled governor aborts before any work;
//! * the backtracking baseline's depth ceiling fails fast and never turns
//!   a valid document into a confident rejection.
//!
//! Everything is keyed off [`FaultConfig::rng_seed`]; identical configs
//! replay identical campaigns. The CLI front end is `modpeg fault`.

use std::rc::Rc;

use modpeg_baseline::BacktrackParser;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{
    scan, CancelToken, ChunkMemo, Engine, Governor, ParseAbort, ParseFault, ParseRequest, Parsed,
    Stats, SyntaxTree, DEFAULT_MAX_DEPTH,
};
use modpeg_session::ParseSession;
use modpeg_vm::VmProgram;
use modpeg_workload::rng::StdRng;

use crate::oracle::{clip, grammar_alphabet, memo_invariant_violation, random_edit, EngineSet};
use crate::{fnv1a, GrammarId};

/// One fault-injection campaign's knobs.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Workload documents probed per grammar.
    pub docs: u64,
    /// Fuel abort points sampled per document per engine.
    pub injections_per_doc: u32,
    /// Approximate size of the larger workload documents (every other
    /// document is kept small enough for the baseline engine).
    pub doc_bytes: usize,
    /// Base RNG seed; identical configs replay identical campaigns.
    pub rng_seed: u64,
    /// Which engines faults are injected into (the reference parse always
    /// runs; `opt-levels` covers the interpreter's memo path, `codegen`
    /// the generated parsers, `incremental` the session layer, `baseline`
    /// the recognizer's depth ceiling, `vm` the bytecode machine).
    pub engines: EngineSet,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            docs: 4,
            injections_per_doc: 5,
            doc_bytes: 220,
            rng_seed: 0xFA17,
            engines: EngineSet::all(),
        }
    }
}

impl FaultConfig {
    /// The deterministic CI smoke preset: small, but still exercises every
    /// abort variant on every engine.
    pub fn smoke() -> Self {
        FaultConfig {
            docs: 2,
            injections_per_doc: 3,
            ..FaultConfig::default()
        }
    }
}

/// Summary of one grammar's fault-injection campaign.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The grammar probed.
    pub grammar: &'static str,
    /// Workload documents probed.
    pub documents: u64,
    /// Deterministic aborts injected (fuel points plus cancellations and
    /// session aborts).
    pub injections: u64,
    /// Graceful-degradation runs (memo-budget and depth ceilings).
    pub degradations: u64,
    /// Contract violations found; empty on a clean campaign.
    pub violations: Vec<String>,
}

impl FaultReport {
    /// `true` when every injected fault upheld the abort contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one fault-injection campaign over `id`.
///
/// # Errors
///
/// Fails only on grammar elaboration/compilation problems; contract
/// violations are reported in the returned [`FaultReport`], not as errors.
pub fn fault_grammar(id: GrammarId, cfg: &FaultConfig) -> Result<FaultReport, String> {
    let grammar = id.elaborate()?;
    let reference =
        CompiledGrammar::compile(&grammar, OptConfig::all()).map_err(|e| e.to_string())?;
    let incremental = Rc::new(
        CompiledGrammar::compile(&grammar, OptConfig::incremental()).map_err(|e| e.to_string())?,
    );
    let vm = if cfg.engines.vm {
        Some(VmProgram::from_compiled(&reference).map_err(|e| e.to_string())?)
    } else {
        None
    };
    // The compiled engines every per-engine family runs over, in
    // reporting order.
    let mut engines: Vec<&dyn Engine> = Vec::new();
    if cfg.engines.opt_levels {
        engines.push(&reference);
    }
    if let Some(vm) = &vm {
        engines.push(vm);
    }
    if cfg.engines.codegen {
        engines.push(id.codegen());
    }
    let baseline = BacktrackParser::new(&grammar);
    let alphabet = grammar_alphabet(&grammar);
    let mut rng = StdRng::seed_from_u64(cfg.rng_seed ^ fnv1a(id.name().as_bytes()));

    let mut report = FaultReport {
        grammar: id.name(),
        documents: 0,
        injections: 0,
        degradations: 0,
        violations: Vec::new(),
    };
    for doc_no in 0..cfg.docs {
        // Every other document stays small enough for the exponential
        // baseline recognizer; the rest use the configured size.
        let target = if doc_no % 2 == 0 { 80 } else { cfg.doc_bytes };
        let doc = id.workload(cfg.rng_seed.wrapping_add(doc_no), target);
        report.documents += 1;
        inject_document(
            id.name(),
            &reference,
            &incremental,
            &engines,
            &baseline,
            &alphabet,
            &doc,
            doc_no,
            cfg,
            &mut rng,
            &mut report,
        );
    }
    Ok(report)
}

/// Runs every injection family against one workload document.
#[allow(clippy::too_many_arguments)]
fn inject_document(
    name: &str,
    reference: &CompiledGrammar,
    incremental: &Rc<CompiledGrammar>,
    engines: &[&dyn Engine],
    baseline: &BacktrackParser<'_>,
    alphabet: &[char],
    doc: &str,
    doc_no: u64,
    cfg: &FaultConfig,
    rng: &mut StdRng,
    report: &mut FaultReport,
) {
    let ref_sexpr = match reference.parse(doc) {
        Ok(tree) => tree.to_sexpr(),
        Err(e) => {
            report.violations.push(format!(
                "{name}/doc{doc_no}: workload document rejected: {e}"
            ));
            return;
        }
    };
    let len = doc.len() as u32;
    let slots = incremental.memo_slot_count();

    // ------------------------------------------------------------------
    // Interpreter (incremental config): fuel injection on the memo path.
    // ------------------------------------------------------------------
    let probe = Governor::new();
    let (r, probe_stats) =
        governed_incremental(incremental, doc, &mut ChunkMemo::new(slots, len), &probe);
    let total = probe.steps();
    if !matches_reference(&r, &ref_sexpr) {
        report.violations.push(format!(
            "{name}/doc{doc_no}: unlimited governed interp parse diverged: {}",
            describe(&r)
        ));
        return;
    }

    for fuel in fuel_points(total, cfg.injections_per_doc, rng) {
        if !cfg.engines.opt_levels {
            break;
        }
        report.injections += 1;
        let tag = format!("{name}/doc{doc_no}/interp fuel {fuel}/{total}");

        let gov = Governor::new().with_fuel(fuel);
        let mut memo = ChunkMemo::new(slots, len);
        let (r, _) = governed_incremental(incremental, doc, &mut memo, &gov);
        if abort_kind(&r) != Some(ParseAbort::FuelExhausted) {
            report.violations.push(format!(
                "{tag}: expected FuelExhausted, got {}",
                describe(&r)
            ));
            continue;
        }
        // Structural memo soundness: no occupied column starts outside
        // the input. (Extents are deliberately *not* bounded by the input
        // length — a failed literal match near EOF records the literal's
        // full length as examined, a sound over-approximation. The
        // `apply_edit` invariant below is the real extent oracle.)
        for (pos, extent, entries) in memo.occupied_columns() {
            if pos > len {
                report.violations.push(format!(
                    "{tag}: aborted memo column at {pos} (extent {extent}, {entries} entries) \
                     starts outside the {len}-byte input"
                ));
            }
        }
        // Semantic memo soundness: a retry on the aborted table must
        // reproduce the reference tree exactly.
        let (r, _) = governed_incremental(incremental, doc, &mut memo, &Governor::new());
        if !matches_reference(&r, &ref_sexpr) {
            report.violations.push(format!(
                "{tag}: retry on aborted memo diverged: {}",
                describe(&r)
            ));
        }

        // `apply_edit` on a freshly aborted memo. Carrying a memo across
        // edits is unsound for stateful grammars with or without aborts
        // (the session's fallback is the fix), so this leg is pure-only.
        if !incremental.uses_state() {
            let gov = Governor::new().with_fuel(fuel);
            let mut memo = ChunkMemo::new(slots, len);
            let _ = governed_incremental(incremental, doc, &mut memo, &gov);
            let (range, insert) = random_edit(doc, alphabet, rng);
            let mut edited = doc.to_owned();
            edited.replace_range(range.clone(), &insert);
            memo.apply_edit(
                range.start as u32,
                (range.end - range.start) as u32,
                insert.len() as u32,
            );
            if let Some(v) =
                memo_invariant_violation(&memo, range.start as u32, insert.len() as u32)
            {
                report
                    .violations
                    .push(format!("{tag}: after edit {range:?} -> {insert:?}: {v}"));
            }
            let (r, _) = governed_incremental(incremental, &edited, &mut memo, &Governor::new());
            let scratch = incremental.parse(&edited);
            // Verdict and tree must agree; failure offsets inside reused
            // regions are documented to be coarser and are not compared.
            let agree = match (&r, &scratch) {
                (Ok(a), Ok(b)) => a.to_sexpr() == b.to_sexpr(),
                (Err(fault), Err(_)) => fault.abort().is_none(),
                _ => false,
            };
            if !agree {
                report.violations.push(format!(
                    "{tag}: edited reparse on aborted memo diverged from scratch on {edited:?}: {}",
                    describe(&r)
                ));
            }
        }
    }

    // Memo-budget degradation: half the observed footprint must still
    // produce the reference tree (evicting or falling back to transient
    // parsing); a near-zero budget may abort but must stay structured.
    for budget in [probe_stats.memo_bytes / 2, 64] {
        if !cfg.engines.opt_levels {
            break;
        }
        report.degradations += 1;
        let gov = Governor::new().with_memo_budget(budget.max(1));
        let (r, _) = governed_incremental(incremental, doc, &mut ChunkMemo::new(slots, len), &gov);
        let ok =
            matches_reference(&r, &ref_sexpr) || abort_kind(&r) == Some(ParseAbort::MemoBudget);
        if !ok {
            report.violations.push(format!(
                "{name}/doc{doc_no}: interp memo budget {budget}: expected reference tree or \
                 MemoBudget abort, got {}",
                describe(&r)
            ));
        }
    }

    // ------------------------------------------------------------------
    // Every compiled engine: fuel, depth, memo-budget, and cancellation.
    // ------------------------------------------------------------------
    for &engine in engines {
        inject_engine(engine, name, &ref_sexpr, doc, doc_no, cfg, rng, report);
    }

    // ------------------------------------------------------------------
    // Scan parity: the bulk class scanner must abort exactly where the
    // scalar reference path does, on every compiled engine.
    // ------------------------------------------------------------------
    inject_scan_parity(name, engines, doc, doc_no, cfg, rng, report);

    // ------------------------------------------------------------------
    // Session: abort mid-parse, then prove the session is still usable.
    // ------------------------------------------------------------------
    if cfg.engines.incremental {
        report.injections += 1;
        let tag = format!("{name}/doc{doc_no}/session");
        let mut session = ParseSession::new(incremental.clone(), doc.to_owned());
        let fuel = if total > 1 {
            rng.gen_range(1..total)
        } else {
            0
        };
        let gov = Governor::new().with_fuel(fuel);
        match session.run(ParseRequest::tree().governed(&gov)).0 {
            Err(ParseFault::Abort(ParseAbort::FuelExhausted)) => {}
            Err(other) => report.violations.push(format!(
                "{tag}: fuel {fuel}/{total}: expected FuelExhausted, got {other}"
            )),
            Ok(_) => report.violations.push(format!(
                "{tag}: fuel {fuel}/{total}: parse completed under starvation fuel"
            )),
        }
        match session.parse() {
            Ok(t) if t.to_sexpr() == ref_sexpr => {}
            other => report.violations.push(format!(
                "{tag}: ungoverned reparse after abort diverged: {:?}",
                other.map(|t| clip(&t.to_sexpr()))
            )),
        }
        let (range, insert) = random_edit(session.text(), alphabet, rng);
        session.apply_edit(range.clone(), &insert);
        let incremental_outcome = session.parse();
        let scratch = incremental.parse(session.text());
        let agree = match (&incremental_outcome, &scratch) {
            (Ok(a), Ok(b)) => a.to_sexpr() == b.to_sexpr(),
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !agree {
            report.violations.push(format!(
                "{tag}: edit {range:?} -> {insert:?} after abort diverged from scratch on {:?}",
                session.text()
            ));
        }
    }

    // ------------------------------------------------------------------
    // Recovery: the never-die guarantee ends exactly where the governor
    // says — resilient parses of a corrupted copy abort structurally at
    // every fuel point, ample budgets reproduce the ungoverned recovery,
    // and a session survives an abort mid-recovery.
    // ------------------------------------------------------------------
    inject_recovery(
        name,
        reference,
        incremental,
        engines,
        doc,
        doc_no,
        cfg,
        rng,
        report,
    );

    // ------------------------------------------------------------------
    // Baseline: the depth ceiling fails fast and stays conservative.
    // ------------------------------------------------------------------
    if cfg.engines.baseline && doc.len() <= 120 {
        report.degradations += 1;
        let shallow = baseline.recognize_with_depth(doc, 12);
        if !shallow.depth_exceeded && shallow.result.is_err() {
            report.violations.push(format!(
                "{name}/doc{doc_no}: baseline rejected a valid document at {:?} without \
                 reporting its depth ceiling",
                shallow.result
            ));
        }
        let full = baseline.recognize_with_depth(doc, DEFAULT_MAX_DEPTH);
        if full.depth_exceeded || full.result.is_err() {
            report.violations.push(format!(
                "{name}/doc{doc_no}: baseline failed a valid document under the default \
                 ceiling (depth_exceeded: {})",
                full.depth_exceeded
            ));
        }
    }
}

/// Scalar-vs-vectorized parity under fault injection: at every sampled
/// fuel point, the bulk class scanner and the forced scalar reference
/// path must abort identically — the same [`ParseAbort::FuelExhausted`]
/// kind, the same statistics record (terminal comparisons included), and
/// the same governor step total. Fuel charged per *consumed character*
/// regardless of chunk width is exactly what makes an abort point name
/// the same evaluation state in both modes; this leg is the proof.
fn inject_scan_parity(
    name: &str,
    engines: &[&dyn Engine],
    doc: &str,
    doc_no: u64,
    cfg: &FaultConfig,
    rng: &mut StdRng,
    report: &mut FaultReport,
) {
    let run = |engine: &dyn Engine, gov: &Governor| governed(engine, doc, gov);
    let prior = scan::scalar_forced();
    for &engine in engines {
        let label = engine.name();
        scan::force_scalar(false);
        let probe = Governor::new();
        let _ = run(engine, &probe);
        let total = probe.steps();
        for fuel in fuel_points(total, cfg.injections_per_doc, rng) {
            report.injections += 1;
            scan::force_scalar(false);
            let gov_v = Governor::new().with_fuel(fuel);
            let (rv, sv) = run(engine, &gov_v);
            scan::force_scalar(true);
            let gov_s = Governor::new().with_fuel(fuel);
            let (rs, ss) = run(engine, &gov_s);
            if abort_kind(&rv) != Some(ParseAbort::FuelExhausted)
                || abort_kind(&rs) != Some(ParseAbort::FuelExhausted)
            {
                report.violations.push(format!(
                    "{name}/doc{doc_no}/{label} scan-parity fuel {fuel}/{total}: expected \
                     FuelExhausted in both modes, got vectorized {} / scalar {}",
                    describe(&rv),
                    describe(&rs)
                ));
                continue;
            }
            if sv != ss || gov_v.steps() != gov_s.steps() {
                report.violations.push(format!(
                    "{name}/doc{doc_no}/{label} scan-parity fuel {fuel}/{total}: vectorized \
                     abort ({} comparisons, {} steps) diverged from scalar ({} comparisons, \
                     {} steps)",
                    sv.terminal_comparisons,
                    gov_v.steps(),
                    ss.terminal_comparisons,
                    gov_s.steps()
                ));
            }
        }
    }
    scan::force_scalar(prior);
}

/// Fault injection into the resilient-parsing subsystem: every engine's
/// governed resilient run on a seeded-error copy of `doc` must abort
/// with [`ParseAbort::FuelExhausted`] at any starvation fuel point (the
/// restart driver threads aborts straight through; it never converts one
/// into a diagnostic), reproduce the ungoverned recovery under an
/// unlimited governor, and honor pre-cancellation without doing work. A
/// [`ParseSession`] additionally survives a mid-recovery abort: the next
/// resilient parse still agrees with a from-scratch recovery.
#[allow(clippy::too_many_arguments)] // mirrors `inject_document`, one call site
fn inject_recovery(
    name: &str,
    reference: &CompiledGrammar,
    incremental: &Rc<CompiledGrammar>,
    engines: &[&dyn Engine],
    doc: &str,
    doc_no: u64,
    cfg: &FaultConfig,
    rng: &mut StdRng,
    report: &mut FaultReport,
) {
    let policy = reference.recover_policy();
    let (corrupted, _) = crate::seed_errors(doc, 2);
    let ref_rec = reference.parse_resilient(&corrupted, &policy);
    let ref_sexpr = ref_rec.tree.to_sexpr();
    let run = |engine: &dyn Engine, gov: &Governor| {
        let req = ParseRequest::resilient(&policy).governed(gov);
        engine.run(&corrupted, req).0.map(Parsed::into_recovered)
    };

    for &engine in engines {
        let label = engine.name();
        let probe = Governor::new();
        match run(engine, &probe) {
            Ok(rec)
                if rec.tree.to_sexpr() == ref_sexpr && rec.diagnostics == ref_rec.diagnostics => {}
            Ok(rec) => {
                report.violations.push(format!(
                    "{name}/doc{doc_no}/{label}: unlimited governed recovery diverged: {}",
                    clip(&rec.tree.to_sexpr())
                ));
                continue;
            }
            Err(fault) => {
                report.violations.push(format!(
                    "{name}/doc{doc_no}/{label}: unlimited governed recovery failed: {fault}"
                ));
                continue;
            }
        }
        let total = probe.steps();

        for fuel in fuel_points(total, cfg.injections_per_doc, rng) {
            report.injections += 1;
            match run(engine, &Governor::new().with_fuel(fuel)) {
                Err(ParseFault::Abort(ParseAbort::FuelExhausted)) => {}
                Err(fault) => report.violations.push(format!(
                    "{name}/doc{doc_no}/{label} recovery fuel {fuel}/{total}: expected \
                     FuelExhausted, got {fault}"
                )),
                Ok(rec) => report.violations.push(format!(
                    "{name}/doc{doc_no}/{label} recovery fuel {fuel}/{total}: completed under \
                     starvation fuel with {} diagnostic(s)",
                    rec.diagnostics.error_count()
                )),
            }
        }

        report.injections += 1;
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::new().with_cancel(token);
        match run(engine, &gov) {
            Err(ParseFault::Abort(ParseAbort::Cancelled)) if gov.steps() == 0 => {}
            other => report.violations.push(format!(
                "{name}/doc{doc_no}/{label}: pre-cancelled recovery did {} step(s) and \
                 returned {:?}",
                gov.steps(),
                other.map(|rec| clip(&rec.tree.to_sexpr()))
            )),
        }
    }

    // Session: abort a governed parse of the corrupted document, then
    // demand a resilient reparse still agrees with a from-scratch
    // recovery — on the tree and the error offsets/regions (expected-set
    // detail inside memo-reused regions is documented to be coarser).
    if cfg.engines.incremental {
        report.injections += 1;
        let tag = format!("{name}/doc{doc_no}/session recovery");
        let scratch = incremental.parse_resilient(&corrupted, &policy);
        let mut session = ParseSession::new(incremental.clone(), corrupted.clone());
        let starve = Governor::new().with_fuel(1);
        let _ = session.run(ParseRequest::tree().governed(&starve));
        let rec =
            modpeg_runtime::engine::recovered_result(session.run(ParseRequest::resilient(&policy)));
        if let Some(v) = recovery_disagreement(&rec, &scratch) {
            report
                .violations
                .push(format!("{tag}: after a starved parse, {v}"));
        }
    }
}

/// Compares two recovered results on tree structure and error
/// offsets/regions (not expected sets — incremental memo reuse is
/// documented to coarsen them).
fn recovery_disagreement(
    got: &modpeg_runtime::Recovered<SyntaxTree>,
    want: &modpeg_runtime::Recovered<SyntaxTree>,
) -> Option<String> {
    if got.tree.to_sexpr() != want.tree.to_sexpr() {
        return Some(format!(
            "recovered tree {} diverged from scratch {}",
            clip(&got.tree.to_sexpr()),
            clip(&want.tree.to_sexpr())
        ));
    }
    let (g, w) = (&got.diagnostics, &want.diagnostics);
    let got_shape: Vec<_> = g
        .errors
        .iter()
        .map(|d| (d.error.offset(), d.skipped))
        .collect();
    let want_shape: Vec<_> = w
        .errors
        .iter()
        .map(|d| (d.error.offset(), d.skipped))
        .collect();
    if got_shape != want_shape || g.truncated != w.truncated {
        return Some(format!(
            "diagnostics shape {got_shape:?} (truncated {}) diverged from scratch \
             {want_shape:?} (truncated {})",
            g.truncated, w.truncated
        ));
    }
    None
}

/// One compiled engine's abort contract: fuel exhaustion at randomized
/// ticks, a depth ceiling, a memo-budget ladder, and pre-cancellation.
#[allow(clippy::too_many_arguments)] // mirrors `inject_document`, one call site
fn inject_engine(
    engine: &dyn Engine,
    name: &str,
    ref_sexpr: &str,
    doc: &str,
    doc_no: u64,
    cfg: &FaultConfig,
    rng: &mut StdRng,
    report: &mut FaultReport,
) {
    let label = engine.name();
    let probe = Governor::new();
    let (r, probe_stats) = governed(engine, doc, &probe);
    let total = probe.steps();
    if !matches_reference(&r, ref_sexpr) {
        report.violations.push(format!(
            "{name}/doc{doc_no}: engine `{label}` unlimited governed parse diverged: {}",
            describe(&r)
        ));
        return;
    }

    for fuel in fuel_points(total, cfg.injections_per_doc, rng) {
        report.injections += 1;
        let gov = Governor::new().with_fuel(fuel);
        let (r, _) = governed(engine, doc, &gov);
        if abort_kind(&r) != Some(ParseAbort::FuelExhausted)
            || gov.tripped() != Some(ParseAbort::FuelExhausted)
        {
            report.violations.push(format!(
                "{name}/doc{doc_no}/{label} fuel {fuel}/{total}: expected FuelExhausted \
                 (tripped {:?}), got {}",
                gov.tripped(),
                describe(&r)
            ));
        }
    }

    report.degradations += 1;
    let gov = Governor::new().with_max_depth(8);
    let (r, _) = governed(engine, doc, &gov);
    let ok = matches_reference(&r, ref_sexpr) || abort_kind(&r) == Some(ParseAbort::DepthExceeded);
    if !ok {
        report.violations.push(format!(
            "{name}/doc{doc_no}: {label} depth ceiling 8: expected reference tree or \
             DepthExceeded abort, got {}",
            describe(&r)
        ));
    }

    for budget in [probe_stats.memo_bytes / 2, 64] {
        report.degradations += 1;
        let gov = Governor::new().with_memo_budget(budget.max(1));
        let (r, _) = governed(engine, doc, &gov);
        let ok = matches_reference(&r, ref_sexpr) || abort_kind(&r) == Some(ParseAbort::MemoBudget);
        if !ok {
            report.violations.push(format!(
                "{name}/doc{doc_no}: {label} memo budget {budget}: expected reference tree or \
                 MemoBudget abort, got {}",
                describe(&r)
            ));
        }
    }

    report.injections += 1;
    let token = CancelToken::new();
    token.cancel();
    let gov = Governor::new().with_cancel(token);
    let (r, _) = governed(engine, doc, &gov);
    if abort_kind(&r) != Some(ParseAbort::Cancelled) || gov.steps() != 0 {
        report.violations.push(format!(
            "{name}/doc{doc_no}: {label} pre-cancelled governor did {} step(s) and returned {}",
            gov.steps(),
            describe(&r)
        ));
    }
}

/// A tree-mode run of `engine` under `gov`.
fn governed(
    engine: &dyn Engine,
    text: &str,
    gov: &Governor,
) -> (Result<SyntaxTree, ParseFault>, Stats) {
    let (r, stats) = engine.run(text, ParseRequest::tree().governed(gov));
    (r.map(Parsed::into_tree), stats)
}

/// A tree-mode run of `parser` under `gov` on the caller's memo table.
fn governed_incremental(
    parser: &CompiledGrammar,
    text: &str,
    memo: &mut ChunkMemo,
    gov: &Governor,
) -> (Result<SyntaxTree, ParseFault>, Stats) {
    let (r, stats) = parser.run_incremental(text, ParseRequest::tree().governed(gov), memo);
    (r.map(Parsed::into_tree), stats)
}

/// Deterministic fuel abort points: always the first tick and the last
/// tick before completion, plus RNG-drawn interior points.
fn fuel_points(total: u64, per_doc: u32, rng: &mut StdRng) -> Vec<u64> {
    let mut points = Vec::new();
    if total == 0 {
        return points;
    }
    points.push(0);
    if total > 1 {
        points.push(total - 1);
    }
    while (points.len() as u32) < per_doc && total > 2 {
        points.push(rng.gen_range(1..total - 1));
    }
    points.sort_unstable();
    points.dedup();
    points
}

/// The abort kind of a faulted result, if any.
fn abort_kind(r: &Result<SyntaxTree, ParseFault>) -> Option<ParseAbort> {
    r.as_ref().err().and_then(ParseFault::abort)
}

/// Whether a governed result accepted with exactly the reference tree.
fn matches_reference(r: &Result<SyntaxTree, ParseFault>, ref_sexpr: &str) -> bool {
    matches!(r, Ok(tree) if tree.to_sexpr() == ref_sexpr)
}

/// Renders a governed outcome for violation messages.
fn describe(r: &Result<SyntaxTree, ParseFault>) -> String {
    match r {
        Ok(tree) => format!("accept {}", clip(&tree.to_sexpr())),
        Err(ParseFault::Syntax(e)) => format!("syntax error at offset {}", e.offset()),
        Err(ParseFault::Abort(kind)) => format!("abort: {kind:?}"),
    }
}

/// Asserts a smoke fault-injection campaign over the named grammar finds
/// no contract violations — the one-line form committed regression tests
/// use.
///
/// # Panics
///
/// Panics with every violation found, or when the grammar is unknown.
pub fn assert_fault_injection_clean(grammar: &str) {
    let id = GrammarId::from_name(grammar).unwrap_or_else(|| panic!("unknown grammar {grammar:?}"));
    let report = fault_grammar(id, &FaultConfig::smoke()).expect("engines compile");
    assert!(
        report.clean(),
        "fault-injection contract violations on {grammar}:\n{:#?}",
        report.violations
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_points_are_deterministic_bounded_and_deduped() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let pa = fuel_points(1000, 6, &mut a);
        let pb = fuel_points(1000, 6, &mut b);
        assert_eq!(pa, pb);
        assert!(pa.contains(&0) && pa.contains(&999));
        assert!(pa.windows(2).all(|w| w[0] < w[1]));
        assert!(pa.iter().all(|&f| f < 1000));
        assert!(fuel_points(0, 4, &mut a).is_empty());
        assert_eq!(fuel_points(1, 4, &mut a), vec![0]);
        assert_eq!(fuel_points(2, 4, &mut a), vec![0, 1]);
    }

    #[test]
    fn smoke_campaign_is_clean_on_every_grammar() {
        for id in GrammarId::ALL {
            let report = fault_grammar(id, &FaultConfig::smoke()).unwrap();
            assert!(report.clean(), "{}: {:#?}", id.name(), report.violations);
            assert!(report.documents > 0);
            assert!(report.injections > 0, "{}: nothing injected", id.name());
            assert!(report.degradations > 0);
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = FaultConfig::smoke();
        let a = fault_grammar(GrammarId::Calc, &cfg).unwrap();
        let b = fault_grammar(GrammarId::Calc, &cfg).unwrap();
        assert_eq!(a.injections, b.injections);
        assert_eq!(a.degradations, b.degradations);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn fuel_equal_to_the_probe_total_completes() {
        let doc = GrammarId::Calc.workload(7, 120);
        let grammar = GrammarId::Calc.elaborate().unwrap();
        let parser = CompiledGrammar::compile(&grammar, OptConfig::incremental()).unwrap();
        let fresh = || ChunkMemo::new(parser.memo_slot_count(), doc.len() as u32);
        let probe = Governor::new();
        let (r, _) = governed_incremental(&parser, &doc, &mut fresh(), &probe);
        assert!(r.is_ok());
        let total = probe.steps();
        // Exactly the probed fuel completes; one tick less aborts.
        let exact = Governor::new().with_fuel(total);
        let (r, _) = governed_incremental(&parser, &doc, &mut fresh(), &exact);
        assert!(r.is_ok());
        let starved = Governor::new().with_fuel(total - 1);
        let (r, _) = governed_incremental(&parser, &doc, &mut fresh(), &starved);
        assert_eq!(abort_kind(&r), Some(ParseAbort::FuelExhausted));
    }

    #[test]
    fn assert_helper_accepts_clean_grammars() {
        assert_fault_injection_clean("json");
    }
}
