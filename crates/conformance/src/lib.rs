//! # modpeg-conformance — differential conformance harness
//!
//! The project carries five independent ways of answering "does this
//! grammar accept this input, and with what tree": the interpreter at
//! seventeen cumulative optimization levels, the incremental-session
//! configuration, the build-time generated parsers, the structure-faithful
//! backtracking recognizer, and incremental reparses over edited
//! documents. They are supposed to be *observationally identical*. This
//! crate turns that claim into an executable oracle:
//!
//! 1. [`gen`] — grammar-aware sentence generation, depth-budgeted by the
//!    shortest-derivation-height analysis and biased toward grammar
//!    alternatives the corpus has not covered yet;
//! 2. [`mutate`](mod@mutate) — corruption of valid sentences to probe the
//!    almost-valid boundary where error paths diverge first;
//! 3. [`oracle`] — the cross-engine differential check itself, including
//!    random edit-script replay with memo-table invariant checking;
//! 4. [`shrink`] — DDmin minimization of any diverging input, emitted as
//!    a ready-to-paste regression test.
//!
//! The CLI front end is `modpeg fuzz` (see `crates/cli`); deterministic
//! seeds make every run reproducible.

pub mod fault;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod shrink;

pub use fault::{assert_fault_injection_clean, fault_grammar, FaultConfig, FaultReport};
pub use gen::{GenConfig, Generator};
pub use mutate::mutate;
pub use oracle::{EngineKind, EngineSet, Oracle};
pub use shrink::ddmin;

use modpeg_core::Grammar;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{recover, Engine, ParseError, ParseRequest, Stats};
use modpeg_telemetry::{mask, MetricsRegistry, Telemetry};
use modpeg_workload::rng::StdRng;

/// The named grammars the harness can fuzz (those with build-time
/// generated parsers and workload generators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrammarId {
    /// The calculator expression grammar.
    Calc,
    /// The JSON grammar.
    Json,
    /// The Java-subset grammar.
    Java,
    /// The C-subset grammar (stateful: typedef tracking).
    C,
}

impl GrammarId {
    /// Every fuzzable grammar, in reporting order.
    pub const ALL: [GrammarId; 4] = [
        GrammarId::Calc,
        GrammarId::Json,
        GrammarId::Java,
        GrammarId::C,
    ];

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            GrammarId::Calc => "calc",
            GrammarId::Json => "json",
            GrammarId::Java => "java",
            GrammarId::C => "c",
        }
    }

    /// Resolves a CLI-facing name.
    pub fn from_name(name: &str) -> Option<GrammarId> {
        GrammarId::ALL.iter().copied().find(|g| g.name() == name)
    }

    /// Elaborates the grammar from its module sources.
    ///
    /// # Errors
    ///
    /// Propagates elaboration diagnostics as a rendered string.
    pub fn elaborate(self) -> Result<Grammar, String> {
        match self {
            GrammarId::Calc => modpeg_grammars::calc_grammar(),
            GrammarId::Json => modpeg_grammars::json_grammar(),
            GrammarId::Java => modpeg_grammars::java_grammar(),
            GrammarId::C => modpeg_grammars::c_grammar(),
        }
        .map_err(|d| d.to_string())
    }

    /// The build-time generated parser for this grammar, as an [`Engine`].
    pub fn codegen(self) -> &'static dyn Engine {
        use modpeg_grammars::generated as g;
        match self {
            GrammarId::Calc => &g::calc::Generated,
            GrammarId::Json => &g::json::Generated,
            GrammarId::Java => &g::java::Generated,
            GrammarId::C => &g::c::Generated,
        }
    }

    /// A grammar-appropriate workload document (seed corpus entry) of
    /// roughly `target_bytes`.
    pub fn workload(self, seed: u64, target_bytes: usize) -> String {
        match self {
            GrammarId::Calc => modpeg_workload::calc_expression(seed, target_bytes),
            GrammarId::Json => modpeg_workload::json_document(seed, target_bytes),
            GrammarId::Java => modpeg_workload::java_program(seed, target_bytes),
            GrammarId::C => modpeg_workload::c_program(seed, target_bytes),
        }
    }
}

/// One full fuzzing campaign's knobs.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Number of generated seed sentences.
    pub seeds: u64,
    /// Engines the oracle consults.
    pub engines: EngineSet,
    /// Sentence generation tuning.
    pub gen: GenConfig,
    /// Corrupted copies derived from each valid seed sentence.
    pub mutants_per_seed: u32,
    /// One random edit script is replayed per this many seeds (scripts
    /// are the most expensive check); `0` disables edit replay.
    pub edit_script_stride: u64,
    /// Base RNG seed; identical configs reproduce identical campaigns.
    pub rng_seed: u64,
    /// Shrink budget (oracle invocations) per divergence.
    pub shrink_budget: usize,
    /// Stop collecting after this many distinct divergences per grammar.
    pub max_divergences: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 200,
            engines: EngineSet::all(),
            gen: GenConfig::default(),
            mutants_per_seed: 2,
            edit_script_stride: 8,
            rng_seed: 0x5EED,
            shrink_budget: 400,
            max_divergences: 5,
        }
    }
}

impl FuzzConfig {
    /// The deterministic CI smoke preset: small but exercises every
    /// engine, both mutation and edit replay, on every grammar.
    pub fn smoke() -> Self {
        FuzzConfig {
            seeds: 30,
            mutants_per_seed: 1,
            edit_script_stride: 6,
            ..FuzzConfig::default()
        }
    }
}

/// One minimized cross-engine divergence.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The grammar it occurred on.
    pub grammar: &'static str,
    /// The minimized input.
    pub input: String,
    /// The input as originally found (before shrinking).
    pub original_input: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Edit-script seed when the divergence is in the incremental
    /// machinery (`None` for scratch-parse divergences).
    pub edit_seed: Option<u64>,
    /// A ready-to-paste `#[test]` reproducing the divergence.
    pub regression_test: String,
}

/// Summary of one grammar's fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The grammar fuzzed.
    pub grammar: &'static str,
    /// Engines consulted.
    pub engines: Vec<&'static str>,
    /// Total inputs checked (seeds + mutants + corpus).
    pub inputs_tested: u64,
    /// Inputs the reference engine accepted.
    pub accepted: u64,
    /// Inputs the reference engine rejected.
    pub rejected: u64,
    /// Grammar-alternative coverage of the accepted corpus, in `[0, 1]`.
    pub coverage_ratio: f64,
    /// Random edit scripts replayed through the incremental engines.
    pub edit_scripts_replayed: u64,
    /// SAX event streams round-tripped through [`TreeBuilder`]s and
    /// compared against the reference tree.
    ///
    /// [`TreeBuilder`]: modpeg_runtime::TreeBuilder
    pub event_checks: u64,
    /// Resilient-parse legs run: every input (valid, mutated, and edge
    /// corpus) is also parsed with panic-mode recovery on every engine
    /// and the partial trees + diagnostics compared.
    pub recovery_checks: u64,
    /// Scan-parity legs run: every input is also parsed by each compiled
    /// engine with the scalar class scanner forced and the outcome,
    /// statistics, and governor steps compared against the vectorized
    /// run.
    pub scan_parity_checks: u64,
    /// Divergences found (already minimized).
    pub divergences: Vec<Divergence>,
    /// Reference-engine statistics aggregated (via [`Stats::merge`])
    /// across every scratch input of the campaign.
    pub stats: Stats,
}

impl FuzzReport {
    /// `true` when every engine agreed on every input.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Runs one fuzzing campaign over `id`.
///
/// # Errors
///
/// Fails only on grammar elaboration/compilation problems; divergences are
/// reported in the returned [`FuzzReport`], not as errors.
pub fn fuzz_grammar(id: GrammarId, cfg: &FuzzConfig) -> Result<FuzzReport, String> {
    let grammar = id.elaborate()?;
    let oracle = Oracle::new(&grammar, Some(id), cfg.engines)?;
    // Coverage must come from an unoptimized compile so alternative
    // indices align with the elaborated grammar (see `Generator::set_bias`).
    let coverage_parser = CompiledGrammar::compile(&grammar, OptConfig::none())
        .map_err(|e| e.to_string())?;
    let mut generator = Generator::new(&grammar);
    let mut rng = StdRng::seed_from_u64(cfg.rng_seed ^ fnv1a(id.name().as_bytes()));

    let mut report = FuzzReport {
        grammar: id.name(),
        engines: cfg.engines.names(),
        inputs_tested: 0,
        accepted: 0,
        rejected: 0,
        coverage_ratio: 0.0,
        edit_scripts_replayed: 0,
        event_checks: 0,
        recovery_checks: 0,
        scan_parity_checks: 0,
        divergences: Vec::new(),
        stats: Stats::default(),
    };
    let mut coverage: Option<modpeg_interp::Coverage> = None;

    // A small corpus of realistic documents rides along with the
    // generated sentences: workload programs plus hand-picked edge cases.
    let corpus: Vec<String> = (0..3)
        .map(|i| id.workload(cfg.rng_seed.wrapping_add(i), 220))
        .chain(EDGE_CORPUS.iter().map(|s| (*s).to_owned()))
        .collect();
    for (i, doc) in corpus.iter().enumerate() {
        check_one(&oracle, doc, None, id, cfg, &mut report);
        if report.divergences.len() >= cfg.max_divergences {
            break;
        }
        if cfg.edit_script_stride != 0 && i < 3 {
            report.edit_scripts_replayed += 1;
            check_one(&oracle, doc, Some(i as u64), id, cfg, &mut report);
        }
    }

    for seed_no in 0..cfg.seeds {
        if report.divergences.len() >= cfg.max_divergences {
            break;
        }
        let sentence = generator.generate(&mut rng, &cfg.gen);
        check_one(&oracle, &sentence, None, id, cfg, &mut report);

        // Track coverage of accepted sentences and refresh the bias so
        // later seeds chase cold alternatives.
        let (result, cov) = coverage_parser.parse_with_coverage(&sentence);
        if result.is_ok() {
            match &mut coverage {
                Some(total) => total.absorb(&cov),
                None => coverage = Some(cov),
            }
            if seed_no % 16 == 15 {
                if let Some(total) = &coverage {
                    generator.set_bias(total);
                }
            }
        }

        for _ in 0..cfg.mutants_per_seed {
            let mutant = mutate(&sentence, &mut rng);
            check_one(&oracle, &mutant, None, id, cfg, &mut report);
        }

        if cfg.edit_script_stride != 0 && seed_no % cfg.edit_script_stride == 0 {
            report.edit_scripts_replayed += 1;
            check_one(&oracle, &sentence, Some(seed_no), id, cfg, &mut report);
        }
    }

    report.coverage_ratio = coverage.as_ref().map_or(0.0, modpeg_interp::Coverage::ratio);
    report.event_checks = oracle.event_checks();
    report.recovery_checks = oracle.recovery_checks();
    report.scan_parity_checks = oracle.scan_parity_checks();
    Ok(report)
}

/// Hand-picked boundary inputs every campaign includes regardless of the
/// generator, mirroring `crates/interp/tests/edge_cases.rs`: empty input,
/// whitespace-only, lone tokens, unbalanced nesting, a NUL-adjacent
/// control character, and multi-byte scalars at failure positions.
const EDGE_CORPUS: &[&str] = &[
    "",
    " ",
    "\n\n",
    "(",
    ")",
    "{}",
    "[",
    "\"",
    "0",
    ";",
    "\u{1}",
    "((((((((((",
    "αβγ→δε",
    "1 + α",
];

/// Runs one input (scratch check or edit-script check) and folds any
/// divergence — minimized — into the report.
fn check_one(
    oracle: &Oracle<'_>,
    input: &str,
    edit_seed: Option<u64>,
    id: GrammarId,
    cfg: &FuzzConfig,
    report: &mut FuzzReport,
) {
    let detail = match edit_seed {
        None => {
            report.inputs_tested += 1;
            let d = oracle.check(input);
            if d.is_none() {
                let (result, stats) = oracle.reference().parse_with_stats(input);
                report.stats.merge(&stats);
                if result.is_ok() {
                    report.accepted += 1;
                } else {
                    report.rejected += 1;
                }
            }
            d
        }
        Some(seed) => oracle.check_edits(input, seed),
    };
    let Some(detail) = detail else { return };
    let minimized = match edit_seed {
        None => ddmin(input, |s| oracle.check(s).is_some(), cfg.shrink_budget),
        Some(seed) => ddmin(
            input,
            |s| oracle.check_edits(s, seed).is_some(),
            cfg.shrink_budget,
        ),
    };
    // Re-derive the detail on the minimized input (shrinking can shift it).
    let final_detail = match edit_seed {
        None => oracle.check(&minimized),
        Some(seed) => oracle.check_edits(&minimized, seed),
    }
    .unwrap_or(detail);
    if report
        .divergences
        .iter()
        .any(|d| d.input == minimized && d.edit_seed == edit_seed)
    {
        return;
    }
    let regression_test = regression_snippet(id, &minimized, edit_seed, &final_detail);
    report.divergences.push(Divergence {
        grammar: id.name(),
        input: minimized,
        original_input: input.to_owned(),
        detail: final_detail,
        edit_seed,
        regression_test,
    });
}

/// Asserts that every engine agrees on `input` for the named grammar.
///
/// This is the function minimized regression tests call; keeping it in the
/// library means a committed reproduction stays one line long.
///
/// # Panics
///
/// Panics with the divergence description when any engine disagrees.
pub fn assert_engines_agree(grammar: &str, input: &str) {
    let id = GrammarId::from_name(grammar)
        .unwrap_or_else(|| panic!("unknown grammar {grammar:?}"));
    let g = id.elaborate().expect("grammar elaborates");
    let oracle = Oracle::new(&g, Some(id), EngineSet::all()).expect("engines compile");
    if let Some(detail) = oracle.check(input) {
        panic!("engines diverge on {input:?}: {detail}");
    }
}

/// Asserts that every engine's *resilient* parse agrees on `input` for
/// the named grammar: identical partial trees, identical diagnostics,
/// and the recovery contract's internal invariants (see
/// [`Oracle::check_recovery`]).
///
/// # Panics
///
/// Panics with the divergence description when any engine disagrees or
/// an invariant is violated.
pub fn assert_recovery_agrees(grammar: &str, input: &str) {
    let id = GrammarId::from_name(grammar)
        .unwrap_or_else(|| panic!("unknown grammar {grammar:?}"));
    let g = id.elaborate().expect("grammar elaborates");
    let oracle = Oracle::new(&g, Some(id), EngineSet::all()).expect("engines compile");
    if let Some(detail) = oracle.check_recovery(input) {
        panic!("resilient engines diverge on {input:?}: {detail}");
    }
}

/// Seeds `k` one-character errors into `doc` by replacing the character
/// at each of `k` evenly spaced character positions with `U+0001` (a
/// control character no grammar in the suite accepts outside opaque
/// content). Returns the fully corrupted copy plus one copy per seed
/// with only that error applied — the singly-corrupted probes callers
/// use to establish how many seeds individually break the parse.
pub fn seed_errors(doc: &str, k: usize) -> (String, Vec<String>) {
    let chars: Vec<char> = doc.chars().collect();
    if chars.is_empty() || k == 0 {
        return (doc.to_owned(), Vec::new());
    }
    let k = k.min(chars.len());
    let targets: Vec<usize> = (0..k).map(|i| i * chars.len() / k).collect();
    let corrupt = |only: Option<usize>| -> String {
        chars
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let hit = match only {
                    Some(t) => i == t,
                    None => targets.contains(&i),
                };
                if hit {
                    '\u{1}'
                } else {
                    *c
                }
            })
            .collect()
    };
    let singles = targets.iter().map(|t| corrupt(Some(*t))).collect();
    (corrupt(None), singles)
}

/// Asserts the seeded-error acceptance contract on one workload
/// document: seed `errors` one-character corruptions into a valid
/// document (see [`seed_errors`]), then demand the resilient parse
/// recovers at least one `$error` node per seed that individually
/// breaks the parse — up to the policy's `--max-errors` budget — while
/// every engine agrees on the result.
///
/// # Panics
///
/// Panics when the workload document is not valid to begin with, when
/// the recovered tree under-reports the seeded errors, or when any
/// engine disagrees on the corrupted input.
pub fn assert_recovery_covers_seeded_errors(grammar: &str, seed: u64, errors: usize) {
    let id = GrammarId::from_name(grammar)
        .unwrap_or_else(|| panic!("unknown grammar {grammar:?}"));
    let g = id.elaborate().expect("grammar elaborates");
    let full = CompiledGrammar::compile(&g, OptConfig::all()).expect("grammar compiles");
    let doc = id.workload(seed, 260);
    assert!(
        full.parse(&doc).is_ok(),
        "{grammar} workload (seed {seed}) must be valid before seeding errors"
    );

    let (corrupted, singles) = seed_errors(&doc, errors);
    let broken = singles.iter().filter(|s| full.parse(s).is_err()).count();
    assert_recovery_agrees(grammar, &corrupted);

    let policy = full.recover_policy();
    let rec = full.parse_resilient(&corrupted, &policy);
    let nodes = recover::count_error_nodes(rec.tree.root());
    let want = broken.min(policy.max_errors);
    assert!(
        nodes >= want,
        "{grammar} (seed {seed}): {errors} seeded corruption(s), {broken} individually break \
         the parse, but the resilient parse recovered only {nodes} $error node(s) \
         (budget {}): {:?}",
        policy.max_errors,
        rec.diagnostics
    );
    assert!(
        rec.diagnostics.error_count() <= policy.max_errors,
        "{grammar} (seed {seed}): {} diagnostics exceed the --max-errors budget {}",
        rec.diagnostics.error_count(),
        policy.max_errors
    );
}

/// Asserts that the incremental engines agree with from-scratch parses
/// across the edit script derived from `seed` — the edit-replay analogue
/// of [`assert_engines_agree`].
///
/// # Panics
///
/// Panics with the divergence description when a reparse or the memo
/// invariant disagrees.
pub fn assert_edit_script_agrees(grammar: &str, input: &str, seed: u64) {
    let id = GrammarId::from_name(grammar)
        .unwrap_or_else(|| panic!("unknown grammar {grammar:?}"));
    let g = id.elaborate().expect("grammar elaborates");
    let oracle = Oracle::new(&g, Some(id), EngineSet::all()).expect("engines compile");
    if let Some(detail) = oracle.check_edits(input, seed) {
        panic!("incremental engines diverge on {input:?} (seed {seed}): {detail}");
    }
}

/// Asserts that the interpreter (fully optimized configuration), the
/// build-time generated parser, and the bytecode machine report identical
/// per-production memo telemetry (probes and hits, hence hit-rates) for
/// `input`.
///
/// All three engines execute the same compiled IR strategy, so any drift
/// here means one of them gained or lost a memo touch the others didn't —
/// a telemetry bug even when the parse trees still agree.
///
/// # Panics
///
/// Panics with the first differing production when the reports disagree,
/// or when any collector dropped events (raise the cap instead of
/// comparing approximations).
pub fn assert_memo_telemetry_agrees(grammar: &str, input: &str) {
    let id = GrammarId::from_name(grammar)
        .unwrap_or_else(|| panic!("unknown grammar {grammar:?}"));
    let g = id.elaborate().expect("grammar elaborates");
    let compiled = CompiledGrammar::compile(&g, OptConfig::all()).expect("grammar compiles");
    let vm = modpeg_vm::VmProgram::from_compiled(&compiled).expect("bytecode assembles");
    const CAP: usize = 1 << 22;
    let memo_mask = mask::MEMO_HITS | mask::MEMO_TRAFFIC;

    let rates = |engine: &dyn Engine| -> Vec<(String, u64, u64)> {
        let telem = Telemetry::collector(CAP).with_mask(memo_mask);
        let _ = engine.run(input, ParseRequest::tree().with_telemetry(&telem));
        let registry = MetricsRegistry::from_report(&telem.take_report());
        let name = engine.name();
        assert_eq!(registry.totals.dropped, 0, "{name} collector overflowed");
        registry
            .prods
            .iter()
            .filter(|p| p.memo_probes > 0)
            .map(|p| (p.name.clone(), p.memo_probes, p.memo_hits))
            .collect()
    };
    let want = rates(&compiled);
    for engine in [id.codegen(), &vm] {
        assert_eq!(
            rates(engine),
            want,
            "per-production memo telemetry diverged between interp and {} on {input:?}",
            engine.name()
        );
    }
}

/// Records `input` through the `modpeg profile --record` path — the
/// full-event collector snapshotted into a
/// [`WorkloadProfile`](modpeg_telemetry::WorkloadProfile) under the
/// observable [`OptConfig::incremental`] configuration — on both engines
/// that can record (interp and vm), and asserts the deterministic
/// per-production counters are identical.
///
/// This extends [`assert_memo_telemetry_agrees`] (probes and hits only,
/// all three engines) to every counter a recorded profile carries:
/// evals, match/fail verdicts, memo stores, backtracks with their depth
/// histogram, and maximum call depth. Only the timing section may differ
/// between engines — a plan derived from a vm recording must be
/// indistinguishable from one derived on the interpreter.
///
/// # Panics
///
/// Panics with the first differing production when the profiles
/// disagree, or when either collector dropped events.
pub fn assert_profile_record_agrees(grammar: &str, input: &str) {
    let id = GrammarId::from_name(grammar)
        .unwrap_or_else(|| panic!("unknown grammar {grammar:?}"));
    let g = id.elaborate().expect("grammar elaborates");
    // The record configuration: every production memoized, so the
    // profile observes memo behavior everywhere (see `cmd_profile`).
    let cfg = OptConfig::incremental();
    let compiled = CompiledGrammar::compile(&g, cfg).expect("grammar compiles");
    let vm = modpeg_vm::VmProgram::compile(&g, cfg).expect("bytecode assembles");
    const CAP: usize = 1 << 22;

    let record = |engine: &dyn Engine| -> modpeg_telemetry::WorkloadProfile {
        let telem = Telemetry::collector(CAP).with_mask(mask::ALL);
        let _ = engine.run(input, ParseRequest::tree().with_telemetry(&telem));
        let registry = MetricsRegistry::from_report(&telem.take_report());
        modpeg_telemetry::WorkloadProfile::from_registry(
            &registry,
            modpeg_core::transform::grammar_fingerprint(&g),
            grammar,
            "test",
            input.len() as u64,
        )
    };
    let a = record(&compiled);
    let b = record(&vm);
    assert!(a.complete(), "interp collector overflowed");
    assert!(b.complete(), "vm collector overflowed");

    let deterministic = |p: &modpeg_telemetry::WorkloadProfile| -> Vec<(String, modpeg_telemetry::ProdProfile)> {
        p.prods
            .iter()
            .map(|(name, row)| {
                let mut row = row.clone();
                row.total_ns = 0;
                row.self_ns = 0;
                row.time_hist = [0; 16];
                (name.clone(), row)
            })
            .collect()
    };
    assert_eq!(
        deterministic(&a),
        deterministic(&b),
        "recorded profiles diverged between interp and vm on {input:?}"
    );
}

/// Closes the profile-guided loop on `input`: records a profile, derives
/// a [`TuningPlan`](modpeg_core::transform::TuningPlan) from it, and
/// asserts the tuned interpreter, the tuned bytecode machine, and the
/// untuned reference engines (interp and the build-time generated
/// parser) all produce the identical tree — or fail at the identical
/// offset. A plan must never change *what* parses, only how fast.
///
/// # Panics
///
/// Panics when the tuner rejects its own recording, or when any tuned
/// engine's verdict differs from the untuned reference.
pub fn assert_tuned_plan_agrees(grammar: &str, input: &str) {
    let id = GrammarId::from_name(grammar)
        .unwrap_or_else(|| panic!("unknown grammar {grammar:?}"));
    let g = id.elaborate().expect("grammar elaborates");
    let recorder =
        CompiledGrammar::compile(&g, OptConfig::incremental()).expect("grammar compiles");
    let telem = Telemetry::collector(1 << 22).with_mask(mask::ALL);
    let _ = recorder.run(input, ParseRequest::tree().with_telemetry(&telem));
    let registry = MetricsRegistry::from_report(&telem.take_report());
    let profile = modpeg_telemetry::WorkloadProfile::from_registry(
        &registry,
        modpeg_core::transform::grammar_fingerprint(&g),
        grammar,
        "interp",
        input.len() as u64,
    );
    let plan = modpeg_interp::derive_plan(&profile, &g)
        .unwrap_or_else(|e| panic!("{grammar}: tuner rejected its own recording: {e}"));

    let untuned = CompiledGrammar::compile(&g, OptConfig::all()).expect("grammar compiles");
    let tuned = CompiledGrammar::compile_with_plan(&g, OptConfig::all(), Some(&plan))
        .unwrap_or_else(|e| panic!("{grammar}: plan rejected by its own grammar: {e}"));
    let tuned_vm = modpeg_vm::VmProgram::compile_with_plan(&g, OptConfig::all(), Some(&plan))
        .expect("tuned bytecode assembles");

    // Expected-set wording legitimately varies across configurations;
    // the invariants are the tree and the failure offset.
    let verdict = |engine: &dyn Engine| {
        let (result, _) = engine.run(input, ParseRequest::tree());
        result
            .map(|p| p.into_tree().to_sexpr())
            .map_err(|f| f.syntax().map(ParseError::offset))
    };
    let want = verdict(&untuned);
    for (label, engine) in [
        ("tuned interp", &tuned as &dyn Engine),
        ("tuned vm", &tuned_vm),
        ("build-time generated parser", id.codegen()),
    ] {
        assert_eq!(
            verdict(engine),
            want,
            "{grammar}: {label} disagrees with untuned on {input:?}"
        );
    }
}

/// Renders a ready-to-paste regression test for a minimized divergence.
fn regression_snippet(
    id: GrammarId,
    input: &str,
    edit_seed: Option<u64>,
    detail: &str,
) -> String {
    let hash = fnv1a(input.as_bytes()) & 0xFFFF_FFFF;
    let name = format!("regression_{}_{hash:08x}", id.name());
    let body = match edit_seed {
        None => format!(
            "    modpeg_conformance::assert_engines_agree({:?}, {input:?});",
            id.name()
        ),
        Some(seed) => format!(
            "    modpeg_conformance::assert_edit_script_agrees({:?}, {input:?}, {seed});",
            id.name()
        ),
    };
    format!("/// Found by `modpeg fuzz`: {detail}\n#[test]\nfn {name}() {{\n{body}\n}}\n")
}

/// FNV-1a over `bytes` — stable input fingerprints for test names and
/// per-grammar RNG streams, with no clock or global state involved.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_registry_round_trips() {
        for id in GrammarId::ALL {
            assert_eq!(GrammarId::from_name(id.name()), Some(id));
            assert!(id.elaborate().is_ok(), "{} elaborates", id.name());
        }
        assert_eq!(GrammarId::from_name("fortran"), None);
    }

    #[test]
    fn smoke_campaign_is_clean_on_calc() {
        let report = fuzz_grammar(
            GrammarId::Calc,
            &FuzzConfig {
                seeds: 40,
                ..FuzzConfig::smoke()
            },
        )
        .unwrap();
        assert!(
            report.clean(),
            "divergences: {:#?}",
            report.divergences
        );
        assert!(report.inputs_tested > 40);
        assert!(report.accepted > 0, "no accepted inputs at all");
        assert!(report.rejected > 0, "mutants never got rejected");
        assert!(report.edit_scripts_replayed > 0);
        assert!(report.coverage_ratio > 0.5, "{}", report.coverage_ratio);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = FuzzConfig {
            seeds: 15,
            ..FuzzConfig::smoke()
        };
        let a = fuzz_grammar(GrammarId::Json, &cfg).unwrap();
        let b = fuzz_grammar(GrammarId::Json, &cfg).unwrap();
        assert_eq!(a.inputs_tested, b.inputs_tested);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected, b.rejected);
        assert!(a.coverage_ratio.to_bits() == b.coverage_ratio.to_bits());
    }

    #[test]
    fn regression_snippet_is_pasteable() {
        let s = regression_snippet(GrammarId::Json, "{\"a\": 1}", None, "verdict differs");
        assert!(s.contains("#[test]"));
        assert!(s.contains("assert_engines_agree"));
        assert!(s.contains("regression_json_"));
        let e = regression_snippet(GrammarId::Calc, "1+2", Some(7), "memo invariant");
        assert!(e.contains("assert_edit_script_agrees"));
        assert!(e.contains(", 7);"));
    }

    #[test]
    fn assert_helpers_accept_agreeing_inputs() {
        assert_engines_agree("calc", "1 + 2 * 3");
        assert_edit_script_agrees("json", "{\"k\": [1, 2]}", 3);
    }

    #[test]
    fn memo_telemetry_agrees_across_engines() {
        // Accepted and rejected inputs both: hit-rates must line up on
        // failure paths too (backtracking is where memo traffic differs
        // first when an engine drifts).
        for (grammar, ok_seed, bad) in [
            ("calc", 7u64, "1+*2"),
            ("json", 11, "{\"k\": [1,}"),
            ("java", 3, "class { int"),
        ] {
            let id = GrammarId::from_name(grammar).unwrap();
            let doc = id.workload(ok_seed, 300);
            assert_memo_telemetry_agrees(grammar, &doc);
            assert_memo_telemetry_agrees(grammar, bad);
        }
    }

    #[test]
    fn profile_record_agrees_across_engines() {
        // The record path carries far more counters than the memo
        // assert; check it on generated workloads and failure paths.
        for (grammar, ok_seed, bad) in [
            ("calc", 7u64, "1+*2"),
            ("json", 11, "{\"k\": [1,}"),
            ("java", 3, "class { int"),
        ] {
            let id = GrammarId::from_name(grammar).unwrap();
            let doc = id.workload(ok_seed, 300);
            assert_profile_record_agrees(grammar, &doc);
            assert_profile_record_agrees(grammar, bad);
        }
    }

    #[test]
    fn tuned_plans_never_change_the_tree() {
        for (grammar, seed) in [("calc", 5u64), ("json", 2), ("java", 9), ("c", 4)] {
            let id = GrammarId::from_name(grammar).unwrap();
            let doc = id.workload(seed, 400);
            assert_tuned_plan_agrees(grammar, &doc);
        }
        // Failure paths: a plan must preserve the failure offset too.
        assert_tuned_plan_agrees("calc", "1 + * 2");
        assert_tuned_plan_agrees("json", "[1, 2,,]");
    }

    #[test]
    fn fuzz_report_aggregates_reference_stats() {
        let report = fuzz_grammar(
            GrammarId::Calc,
            &FuzzConfig {
                seeds: 10,
                ..FuzzConfig::smoke()
            },
        )
        .unwrap();
        assert!(report.stats.productions_evaluated > 0);
        assert!(report.stats.memo_probes >= report.stats.memo_hits);
    }
}
