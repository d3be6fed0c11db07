//! `modpeg` — the command-line driver (the `rats` tool of this toolkit).
//!
//! ```text
//! modpeg check  <grammar.mpeg>... --root <module> [--start <prod>] [--dump]
//!               [--input <file> [--engine interp|vm] [--max-errors <n>] [--json]]
//! modpeg stats  <grammar.mpeg>...
//! modpeg parse  <grammar.mpeg>... --root <module> [--start <prod>] --input <file> [--engine interp|vm]
//!               [--events] [--stats] [--telemetry] [--deadline-ms <n>] [--fuel <n>] [--max-depth <n>] [--memo-budget <bytes>]
//! modpeg compile <grammar.mpeg>... --root <module> [--start <prod>] [--dump-bytecode] [--out <file>]
//! modpeg profile <grammar.mpeg>... --root <module> [--start <prod>] --input <file> [--engine interp|vm]
//!               [--format chrome|folded|heatmap|heatmap-csv|json|summary] [--sample <n>] [--out <file>]
//!               [--record <out.mprof>] [--optimize <prof.mprof>]
//! modpeg profile diff <a.mprof> <b.mprof> [--threshold <frac>] [--json] [--out <file>]
//! modpeg profile merge <a.mprof> <b.mprof>... --out <merged.mprof>
//! modpeg gen    <grammar.mpeg>... --root <module> [--start <prod>] [--out <file.rs>] [--plan <plan.json>]
//! modpeg fuzz  [--grammar calc|json|java|c|all] [--seeds <n>] [--engines <list>] [--smoke] [--telemetry] [--json [--out <file>]]
//! modpeg fault [--grammar calc|json|java|c|all] [--seeds <n>] [--engines <list>] [--smoke]
//! ```
//!
//! ## Exit codes
//!
//! | code | meaning                                                        |
//! |------|----------------------------------------------------------------|
//! | 0    | success                                                        |
//! | 1    | the check failed: parse error, divergence, contract violation  |
//! | 2    | usage error (bad flags or arguments)                           |
//! | 3    | I/O error reading or writing a file                            |
//! | 4    | resource abort: a governed parse hit a limit (`--deadline-ms`, |
//! |      | `--fuel`, `--max-depth`, `--memo-budget`)                      |
//! | 5    | internal error (engine disagreement, compilation bug)          |
//!
//! An abort (4) is deliberately distinct from a parse failure (1): it is
//! not a verdict on the input — retrying with a larger budget may succeed.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use modpeg_conformance::{
    fault_grammar, fuzz_grammar, EngineKind, EngineSet, FaultConfig, FuzzConfig, GrammarId,
};
use modpeg_core::transform::TuningPlan;
use modpeg_core::Grammar;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{Engine, EventCounts, Governor, GovernorLimits, ParseFault, ParseRequest};
use modpeg_telemetry::{export, mask, MetricsRegistry, ProfileDiff, Telemetry, WorkloadProfile};
use modpeg_vm::VmProgram;

/// A CLI failure, carrying which exit code it maps to.
#[derive(Debug)]
enum CliError {
    /// The command's check said no: parse failure, fuzz divergence,
    /// fault-contract violation, grammar diagnostics (exit 1).
    Failure(String),
    /// Bad flags or arguments (exit 2).
    Usage(String),
    /// File read/write problems (exit 3).
    Io(String),
    /// A governed parse hit a resource limit (exit 4).
    Abort(String),
    /// Engine bugs: internal compilation failures, cross-engine
    /// disagreement during a bench (exit 5).
    Internal(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Failure(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Abort(_) => 4,
            CliError::Internal(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Failure(m)
            | CliError::Usage(m)
            | CliError::Io(m)
            | CliError::Abort(m)
            | CliError::Internal(m) => m,
        }
    }
}

struct Args {
    command: String,
    files: Vec<String>,
    root: Option<String>,
    start: Option<String>,
    input: Option<String>,
    out: Option<String>,
    seeds: Option<u64>,
    grammar: Option<String>,
    engine: Option<String>,
    engines: Option<String>,
    deadline_ms: Option<u64>,
    fuel: Option<u64>,
    max_depth: Option<u32>,
    memo_budget: Option<u64>,
    max_errors: Option<usize>,
    json: bool,
    smoke: bool,
    events: bool,
    dump: bool,
    dump_bytecode: bool,
    stats: bool,
    trace: bool,
    telemetry: bool,
    format: Option<String>,
    sample: Option<u32>,
    record: Option<String>,
    optimize: Option<String>,
    plan: Option<String>,
    threshold: Option<f64>,
}

fn usage() -> &'static str {
    "usage:\n  \
     modpeg check <grammar.mpeg>... --root <module> [--start <prod>] [--dump]\n               \
     [--input <file> [--engine interp|vm] [--max-errors <n>] [--json] [--deadline-ms <n>] [--fuel <n>] [--max-depth <n>] [--memo-budget <bytes>]]\n  \
     modpeg lint  <grammar.mpeg>... --root <module> [--start <prod>]\n  \
     modpeg fmt   <grammar.mpeg>...\n  \
     modpeg stats <grammar.mpeg>...\n  \
     modpeg parse <grammar.mpeg>... --root <module> [--start <prod>] --input <file> [--engine interp|vm] [--plan <plan.json>]\n               \
     [--events] [--stats] [--trace] [--telemetry] [--deadline-ms <n>] [--fuel <n>] [--max-depth <n>] [--memo-budget <bytes>]\n  \
     modpeg compile <grammar.mpeg>... --root <module> [--start <prod>] [--dump-bytecode] [--out <file>]\n  \
     modpeg profile <grammar.mpeg>... --root <module> [--start <prod>] --input <file> [--engine interp|vm]\n               \
     [--format chrome|folded|heatmap|heatmap-csv|json|summary] [--sample <n>] [--out <file>]\n               \
     [--record <out.mprof>] [--optimize <prof.mprof>]\n  \
     modpeg profile diff <a.mprof> <b.mprof> [--threshold <frac>] [--json] [--out <file>]\n  \
     modpeg profile merge <a.mprof> <b.mprof>... --out <merged.mprof>\n  \
     modpeg coverage <grammar.mpeg>... --root <module> [--start <prod>] --input <file>\n  \
     modpeg gen   <grammar.mpeg>... --root <module> [--start <prod>] [--out <file.rs>] [--plan <plan.json>]\n  \
     modpeg fuzz  [--grammar calc|json|java|c|all] [--seeds <n>] [--engines opt-levels,baseline,codegen,incremental,vm] [--smoke] [--telemetry] [--json [--out <file>]]\n  \
     modpeg fault [--grammar calc|json|java|c|all] [--seeds <n>] [--engines <list>] [--smoke]\n\
     exit codes: 0 ok, 1 check failed, 2 usage, 3 I/O, 4 resource abort, 5 internal"
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut it = argv.into_iter();
    let command = it.next().ok_or_else(|| usage().to_owned())?;
    let mut args = Args {
        command,
        files: Vec::new(),
        root: None,
        start: None,
        input: None,
        out: None,
        seeds: None,
        grammar: None,
        engine: None,
        engines: None,
        deadline_ms: None,
        fuel: None,
        max_depth: None,
        memo_budget: None,
        max_errors: None,
        json: false,
        smoke: false,
        events: false,
        dump: false,
        dump_bytecode: false,
        stats: false,
        trace: false,
        telemetry: false,
        format: None,
        sample: None,
        record: None,
        optimize: None,
        plan: None,
        threshold: None,
    };
    fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = Some(it.next().ok_or("--root needs a value")?),
            "--start" => args.start = Some(it.next().ok_or("--start needs a value")?),
            "--input" => args.input = Some(it.next().ok_or("--input needs a value")?),
            "--out" => args.out = Some(it.next().ok_or("--out needs a value")?),
            "--seeds" => args.seeds = Some(num("--seeds", it.next())?),
            "--deadline-ms" => args.deadline_ms = Some(num("--deadline-ms", it.next())?),
            "--fuel" => args.fuel = Some(num("--fuel", it.next())?),
            "--max-depth" => args.max_depth = Some(num("--max-depth", it.next())?),
            "--memo-budget" => args.memo_budget = Some(num("--memo-budget", it.next())?),
            "--grammar" => args.grammar = Some(it.next().ok_or("--grammar needs a value")?),
            "--engine" => args.engine = Some(it.next().ok_or("--engine needs a value")?),
            "--engines" => args.engines = Some(it.next().ok_or("--engines needs a value")?),
            "--max-errors" => args.max_errors = Some(num("--max-errors", it.next())?),
            "--json" => args.json = true,
            "--smoke" => args.smoke = true,
            "--events" => args.events = true,
            "--dump" => args.dump = true,
            "--dump-bytecode" => args.dump_bytecode = true,
            "--stats" => args.stats = true,
            "--trace" => args.trace = true,
            "--telemetry" => args.telemetry = true,
            "--format" => args.format = Some(it.next().ok_or("--format needs a value")?),
            "--sample" => args.sample = Some(num("--sample", it.next())?),
            "--record" => args.record = Some(it.next().ok_or("--record needs a value")?),
            "--optimize" => args.optimize = Some(it.next().ok_or("--optimize needs a value")?),
            "--plan" => args.plan = Some(it.next().ok_or("--plan needs a value")?),
            "--threshold" => args.threshold = Some(num("--threshold", it.next())?),
            f if !f.starts_with('-') => args.files.push(f.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    // `fuzz` and `fault` work on built-in grammars; everything else reads
    // .mpeg files.
    if args.files.is_empty() && !matches!(args.command.as_str(), "fuzz" | "fault") {
        return Err(format!("no grammar files given\n{}", usage()));
    }
    Ok(args)
}

/// The resource limits the governor flags describe (unlimited when no
/// flag was given).
fn governor_limits(args: &Args) -> GovernorLimits {
    GovernorLimits {
        deadline: args.deadline_ms.map(Duration::from_millis),
        fuel: args.fuel,
        max_depth: args.max_depth,
        memo_budget: args.memo_budget,
    }
}

fn load_grammar(args: &Args) -> Result<Grammar, CliError> {
    let mut texts = Vec::new();
    for f in &args.files {
        texts.push(std::fs::read_to_string(f).map_err(|e| CliError::Io(format!("{f}: {e}")))?);
    }
    let set = modpeg_syntax::parse_module_set(texts.iter().map(String::as_str))
        .map_err(|e| CliError::Failure(e.to_string()))?;
    let root = args
        .root
        .clone()
        .or_else(|| {
            // Single-module input: that module is the root.
            let modules: Vec<_> = set.iter().collect();
            (modules.len() == 1).then(|| modules[0].name.clone())
        })
        .ok_or_else(|| {
            CliError::Usage("--root <module> is required with multiple modules".into())
        })?;
    set.elaborate(&root, args.start.as_deref())
        .map_err(|e| CliError::Failure(e.to_string()))
}

fn compile(grammar: &Grammar, cfg: OptConfig) -> Result<CompiledGrammar, CliError> {
    CompiledGrammar::compile(grammar, cfg).map_err(|e| CliError::Internal(e.to_string()))
}

/// Loads `--plan <file>` when given: a [`TuningPlan`] as emitted by
/// `modpeg profile --optimize`.
fn load_plan(args: &Args) -> Result<Option<TuningPlan>, CliError> {
    let Some(path) = &args.plan else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    TuningPlan::from_json(&text)
        .map(Some)
        .map_err(|e| CliError::Failure(format!("{path}: {e}")))
}

/// Compiles under an optional tuning plan. A rejected plan (stale
/// fingerprint) is a user-fixable failure, not an internal error — the
/// fix is re-recording the profile against the current grammar.
fn compile_planned(
    grammar: &Grammar,
    cfg: OptConfig,
    plan: Option<&TuningPlan>,
) -> Result<CompiledGrammar, CliError> {
    match plan {
        None => compile(grammar, cfg),
        Some(p) => CompiledGrammar::compile_with_plan(grammar, cfg, Some(p))
            .map_err(|e| CliError::Failure(e.to_string())),
    }
}

/// The engine `--engine` picked, over an already compiled grammar: the
/// interpreter itself, or the bytecode machine assembled from it.
fn open_engine(kind: EngineKind, compiled: CompiledGrammar) -> Result<Box<dyn Engine>, CliError> {
    Ok(match kind {
        EngineKind::Vm => Box::new(
            VmProgram::from_compiled(&compiled).map_err(|e| CliError::Internal(e.to_string()))?,
        ),
        _ => Box::new(compiled),
    })
}

/// The governor the limit flags describe; `None` (an ungoverned run)
/// when no flag was given.
fn governor(args: &Args) -> Option<Governor> {
    let limits = governor_limits(args);
    (!limits.is_unlimited()).then(|| limits.governor())
}

/// The CLI error for a failed run: a syntax error fails the check (exit
/// 1); an abort is a resource abort (exit 4), reported with the steps the
/// governor counted.
fn fault_error(fault: ParseFault, gov: Option<&Governor>, what: &str) -> CliError {
    match fault {
        ParseFault::Syntax(e) => CliError::Failure(e.to_string()),
        ParseFault::Abort(kind) => CliError::Abort(format!(
            "{what} aborted after {} step(s): {kind}",
            gov.map_or(0, Governor::steps)
        )),
    }
}

/// Reads `--input <file>`.
fn read_input(args: &Args) -> Result<(String, String), CliError> {
    let path = args
        .input
        .clone()
        .ok_or_else(|| CliError::Usage("--input <file> is required".into()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    Ok((path, text))
}

fn cmd_check(args: &Args) -> Result<(), CliError> {
    let grammar = load_grammar(args)?;
    if args.input.is_some() {
        return check_input(args, &grammar);
    }
    let reach = modpeg_core::analysis::reachable(&grammar);
    let live = reach.iter().filter(|r| **r).count();
    println!(
        "ok: {} productions ({} reachable), root `{}`",
        grammar.len(),
        live,
        grammar.production(grammar.root()).name
    );
    let compiled = compile(&grammar, OptConfig::all())?;
    println!(
        "optimized: {} productions, {} memoized, {} memo slots",
        compiled.production_count(),
        compiled.memoized_production_count(),
        compiled.memo_slot_count()
    );
    if args.dump {
        println!("\n{}", modpeg_core::grammar_to_string(&grammar));
    }
    Ok(())
}

/// `modpeg check --input <file>`: parse the input with panic-mode error
/// recovery and report every diagnostic — one `file:line:col:` line per
/// error (or the JSON report with `--json`). Exit 0 on a clean parse,
/// exit 1 when any error was recovered; governor flags apply and a
/// tripped limit is a resource abort (exit 4), not a verdict.
fn check_input(args: &Args, grammar: &Grammar) -> Result<(), CliError> {
    let (path, input) = read_input(args)?;
    let kind = parse_engine(args)?;
    let engine = open_engine(kind, compile(grammar, OptConfig::all())?)?;
    let mut policy = engine.recover_policy();
    if let Some(n) = args.max_errors {
        policy = policy.with_max_errors(n);
    }
    let gov = governor(args);
    let mut req = ParseRequest::resilient(&policy);
    req.governor = gov.as_ref();
    let (result, _) = engine.run(&input, req);
    let rec = result
        .map_err(|f| fault_error(f, gov.as_ref(), "resilient parse"))?
        .into_recovered();

    let diagnostics = &rec.diagnostics;
    if args.json {
        println!("{}", diagnostics.to_json());
    } else {
        print!("{}", diagnostics.render_human(&path));
    }
    if diagnostics.is_clean() {
        Ok(())
    } else {
        Err(CliError::Failure(format!(
            "{} error(s) in {path}",
            diagnostics.error_count()
        )))
    }
}

fn cmd_lint(args: &Args) -> Result<(), CliError> {
    let grammar = load_grammar(args)?;
    let warnings = modpeg_core::analysis::lint(&grammar);
    if warnings.is_empty() {
        println!("no composition warnings");
        return Ok(());
    }
    for w in &warnings {
        println!("{w}");
    }
    println!("{} warning(s)", warnings.len());
    Ok(())
}

fn cmd_fmt(args: &Args) -> Result<(), CliError> {
    for f in &args.files {
        let text = std::fs::read_to_string(f).map_err(|e| CliError::Io(format!("{f}: {e}")))?;
        let modules =
            modpeg_syntax::parse_modules(&text).map_err(|e| CliError::Failure(e.to_string()))?;
        print!("{}", modpeg_syntax::format_modules(&modules));
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    println!(
        "{:<28} {:>6} {:>6} {:>6}  kind",
        "module", "prods", "decls", "lines"
    );
    for f in &args.files {
        let text = std::fs::read_to_string(f).map_err(|e| CliError::Io(format!("{f}: {e}")))?;
        for m in
            modpeg_grammars::module_stats(&text).map_err(|e| CliError::Failure(e.to_string()))?
        {
            println!(
                "{:<28} {:>6} {:>6} {:>6}  {}",
                m.name,
                m.productions,
                m.declarations,
                m.lines,
                if m.is_modification {
                    "modification"
                } else {
                    "definition"
                }
            );
        }
    }
    Ok(())
}

/// Resolves `--engine` for `modpeg parse`: the interpreter (default) or
/// the bytecode machine. The other [`EngineKind`] names are harness-side
/// selections (sweeps and differential legs), not single parsers.
fn parse_engine(args: &Args) -> Result<EngineKind, CliError> {
    match args.engine.as_deref() {
        None => Ok(EngineKind::OptLevels),
        Some(name) => match EngineKind::from_name(name) {
            Some(kind @ (EngineKind::OptLevels | EngineKind::Vm)) => Ok(kind),
            Some(other) => Err(CliError::Usage(format!(
                "engine `{other}` is a fuzz/fault harness selection; `modpeg parse` runs `interp` or `vm`"
            ))),
            None => Err(CliError::Usage(format!(
                "unknown engine `{name}` (expected interp or vm)"
            ))),
        },
    }
}

/// Events a `--trace` collector keeps before reporting the rest dropped.
const TRACE_CAP: usize = 2_000;

fn cmd_parse(args: &Args) -> Result<(), CliError> {
    let grammar = load_grammar(args)?;
    let kind = parse_engine(args)?;
    let plan = load_plan(args)?;
    let (_, input) = read_input(args)?;
    let compiled = compile_planned(&grammar, OptConfig::all(), plan.as_ref())?;
    let engine = open_engine(kind, compiled)?;
    // One request from the flags: the mode, the governor, and the
    // collector (`--trace` keeps a bounded trace-masked one).
    let telem = if args.trace {
        Telemetry::collector(TRACE_CAP).with_mask(mask::TRACE)
    } else if args.telemetry {
        Telemetry::collector(TELEMETRY_CAP).with_mask(mask::ALL)
    } else {
        Telemetry::disabled()
    };
    let gov = governor(args);
    let mut counts = EventCounts::default();
    let mut req = if args.events {
        // SAX mode: stream events into a counting sink, build no tree.
        ParseRequest::events(&mut counts)
    } else {
        ParseRequest::tree()
    };
    req.governor = gov.as_ref();
    req.telemetry = Some(&telem);
    let t = Instant::now();
    let (result, stats) = engine.run(&input, req);
    let elapsed = t.elapsed();
    if args.trace {
        eprint!("{}", export::trace_text(&telem.take_report()));
    } else if args.telemetry {
        eprintln!("{}", MetricsRegistry::from_report(&telem.take_report()));
    }
    let parsed = result.map_err(|f| fault_error(f, gov.as_ref(), "parse"))?;
    match parsed.tree {
        Some(tree) => println!("{}", tree.to_sexpr()),
        None => {
            println!(
                "events: {} node(s), {} list(s), {} text leaf(s), {} unit(s), {} absent(s), max depth {}",
                counts.nodes, counts.lists, counts.texts, counts.units, counts.absents, counts.max_depth
            );
            println!(
                "engine: {}, {} bytes, no tree built, {:.3} ms",
                engine.name(),
                input.len(),
                elapsed.as_secs_f64() * 1e3
            );
        }
    }
    if args.stats {
        eprintln!("engine: {}", engine.name());
        eprintln!("{stats}");
    }
    Ok(())
}

/// `modpeg compile`: assembles the grammar to `modpeg-vm` bytecode,
/// reporting its footprint; `--dump-bytecode` emits the deterministic
/// disassembly (to stdout or `--out`).
fn cmd_compile(args: &Args) -> Result<(), CliError> {
    let grammar = load_grammar(args)?;
    let program = modpeg_vm::VmProgram::full(&grammar).map_err(|e| match e {
        modpeg_vm::VmError::Grammar(d) => CliError::Failure(d.to_string()),
        other => CliError::Internal(other.to_string()),
    })?;
    let summary = format!(
        "bytecode: {} instructions, {} productions, {} memo slots",
        program.op_count(),
        program.production_count(),
        program.memo_slot_count()
    );
    if args.dump_bytecode {
        let listing = program.disassemble();
        match &args.out {
            Some(path) => {
                std::fs::write(path, listing).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                println!("{summary}");
                println!("wrote {path}");
            }
            None => {
                // Keep stdout purely the listing so dumps diff cleanly.
                print!("{listing}");
                eprintln!("{summary}");
            }
        }
    } else {
        println!("{summary}");
    }
    Ok(())
}

/// Event capacity of the `--telemetry` / `profile` collectors; at ~32
/// bytes an event this bounds collection near 32 MiB. Overflow is
/// reported, not silent ("N events dropped" in every exposition).
const TELEMETRY_CAP: usize = 1 << 20;

/// Renders a telemetry report in the requested `--format`.
fn render_profile(
    args: &Args,
    report: &modpeg_telemetry::TelemetryReport,
) -> Result<String, CliError> {
    Ok(match args.format.as_deref().unwrap_or("summary") {
        "summary" => MetricsRegistry::from_report(report).to_string(),
        "chrome" => export::chrome_trace(report),
        "folded" => export::folded_stacks(report),
        "json" => MetricsRegistry::from_report(report).to_json(),
        "heatmap" => export::MemoHeatmap::from_report(report, 64).to_text(),
        "heatmap-csv" => export::MemoHeatmap::from_report(report, 64).to_csv(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown profile format `{other}` (expected chrome, folded, heatmap, heatmap-csv, json, or summary)"
            )))
        }
    })
}

fn cmd_profile(args: &Args) -> Result<(), CliError> {
    // `profile diff` / `profile merge` operate on recorded .mprof files,
    // not grammars; everything else profiles a live parse.
    match args.files.first().map(String::as_str) {
        Some("diff") => return cmd_profile_diff(args),
        Some("merge") => return cmd_profile_merge(args),
        _ => {}
    }
    if args.optimize.is_some() {
        return cmd_profile_optimize(args);
    }
    cmd_profile_run(args)
}

/// Reads and validates one `.mprof` file.
fn read_profile(path: &str) -> Result<WorkloadProfile, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    WorkloadProfile::from_json(&text).map_err(|e| CliError::Failure(format!("{path}: {e}")))
}

/// `modpeg profile <grammar> --input <file>`: run one telemetry-collected
/// parse and render it (`--format`) and/or record it (`--record`).
fn cmd_profile_run(args: &Args) -> Result<(), CliError> {
    let grammar = load_grammar(args)?;
    let kind = parse_engine(args)?;
    let (_, input) = read_input(args)?;
    // Recording compiles under `incremental()` — every production
    // memoized — so the profile observes memo behavior everywhere and
    // the tuner has a full-coverage baseline to carve down from. The
    // render-only path keeps profiling the fully optimized config.
    let cfg = if args.record.is_some() {
        OptConfig::incremental()
    } else {
        OptConfig::all()
    };
    let engine = open_engine(kind, compile(&grammar, cfg)?)?;
    let mut telem = Telemetry::collector(TELEMETRY_CAP).with_mask(mask::ALL);
    if let Some(n) = args.sample {
        if n == 0 {
            return Err(CliError::Usage("--sample must be at least 1".into()));
        }
        telem = telem.with_sampling(n);
    }
    let gov = governor(args);
    let mut req = ParseRequest::tree().with_telemetry(&telem);
    req.governor = gov.as_ref();
    // The profile of a failed or aborted run is exactly what the flags
    // asked to see; note the failure and keep going.
    if let Err(fault) = engine.run(&input, req).0 {
        match fault_error(fault, gov.as_ref(), "parse") {
            CliError::Failure(e) => eprintln!("note: input did not fully parse: {e}"),
            other => eprintln!("note: {}", other.message()),
        }
    }
    let report = telem.take_report();
    if let Some(path) = &args.record {
        let registry = MetricsRegistry::from_report(&report);
        let profile = WorkloadProfile::from_registry(
            &registry,
            modpeg_core::transform::grammar_fingerprint(&grammar),
            &grammar.production(grammar.root()).name,
            engine.name(),
            input.len() as u64,
        );
        if !profile.complete() {
            eprintln!(
                "warning: {} event(s) dropped; recorded counters are lower bounds",
                profile.dropped
            );
        }
        std::fs::write(path, profile.to_json())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        println!("wrote {path}");
    }
    // With `--record` the .mprof is the artifact; render to stdout/--out
    // only when a format was also asked for.
    if args.record.is_none() || args.format.is_some() {
        let rendered = render_profile(args, &report)?;
        match &args.out {
            Some(path) => {
                std::fs::write(path, rendered).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                println!("wrote {path}");
            }
            None => print!("{rendered}"),
        }
    }
    Ok(())
}

/// `modpeg profile diff <a.mprof> <b.mprof>`: compare two recordings.
/// Exits 1 when any deterministic counter regressed beyond the
/// threshold, so CI can gate on parser-behavior drift.
fn cmd_profile_diff(args: &Args) -> Result<(), CliError> {
    let paths = &args.files[1..];
    if paths.len() != 2 {
        return Err(CliError::Usage(
            "profile diff takes exactly two .mprof files".into(),
        ));
    }
    let threshold = args.threshold.unwrap_or(0.05);
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(CliError::Usage(
            "--threshold is a non-negative fraction (0.05 = 5% relative change)".into(),
        ));
    }
    let before = read_profile(&paths[0])?;
    let after = read_profile(&paths[1])?;
    let diff = ProfileDiff::compute(&before, &after, threshold);
    let rendered = if args.json {
        format!("{}\n", diff.to_json())
    } else {
        diff.render_human()
    };
    match &args.out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            println!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    if diff.regressions() > 0 {
        return Err(CliError::Failure(format!(
            "{} counter regression(s) beyond the {:.1}% threshold",
            diff.regressions(),
            threshold * 100.0
        )));
    }
    Ok(())
}

/// `modpeg profile merge <a.mprof> <b.mprof>... --out <merged.mprof>`:
/// sum recordings of the same grammar into one aggregate workload.
fn cmd_profile_merge(args: &Args) -> Result<(), CliError> {
    let paths = &args.files[1..];
    if paths.len() < 2 {
        return Err(CliError::Usage(
            "profile merge takes two or more .mprof files".into(),
        ));
    }
    let out = args
        .out
        .as_ref()
        .ok_or_else(|| CliError::Usage("profile merge requires --out <merged.mprof>".into()))?;
    let mut merged = read_profile(&paths[0])?;
    for p in &paths[1..] {
        let next = read_profile(p)?;
        merged
            .merge(&next)
            .map_err(|e| CliError::Failure(format!("{p}: {e}")))?;
    }
    std::fs::write(out, merged.to_json()).map_err(|e| CliError::Io(format!("{out}: {e}")))?;
    println!("wrote {out} ({} runs merged)", merged.runs);
    Ok(())
}

/// `modpeg profile <grammar> --optimize <prof.mprof>`: derive a
/// [`TuningPlan`] from a recorded profile and emit it as JSON (for
/// `--plan` on `parse` and `gen`).
fn cmd_profile_optimize(args: &Args) -> Result<(), CliError> {
    let prof_path = args.optimize.as_deref().expect("caller checked --optimize");
    let profile = read_profile(prof_path)?;
    let grammar = load_grammar(args)?;
    let plan = modpeg_interp::derive_plan(&profile, &grammar).map_err(CliError::Failure)?;
    eprintln!(
        "plan: {} memoize, {} transient, {} inline, dispatch tables {}",
        plan.memoize.len(),
        plan.transient.len(),
        plan.inline.len(),
        match &plan.dispatch {
            Some(d) => format!("on {} production(s)", d.len()),
            None => "everywhere".into(),
        },
    );
    let json = plan.to_json();
    match &args.out {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn cmd_coverage(args: &Args) -> Result<(), CliError> {
    let grammar = load_grammar(args)?;
    let input_path = args
        .input
        .as_ref()
        .ok_or_else(|| CliError::Usage("--input <file> is required".into()))?;
    let input = std::fs::read_to_string(input_path)
        .map_err(|e| CliError::Io(format!("{input_path}: {e}")))?;
    let compiled = compile(&grammar, OptConfig::all())?;
    let (result, coverage) = compiled.parse_with_coverage(&input);
    if let Err(e) = result {
        eprintln!("note: input did not fully parse: {e}");
    }
    print!("{coverage}");
    Ok(())
}

/// Resolves `--grammar` for the built-in-grammar commands.
fn named_grammars(args: &Args) -> Result<Vec<GrammarId>, CliError> {
    match args.grammar.as_deref() {
        None | Some("all") => Ok(GrammarId::ALL.to_vec()),
        Some(name) => Ok(vec![GrammarId::from_name(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown grammar `{name}` (expected calc, json, java, c, or all)"
            ))
        })?]),
    }
}

fn cmd_fuzz(args: &Args) -> Result<(), CliError> {
    let grammars = named_grammars(args)?;
    let mut cfg = if args.smoke {
        FuzzConfig::smoke()
    } else {
        FuzzConfig::default()
    };
    if let Some(seeds) = args.seeds {
        if seeds == 0 {
            return Err(CliError::Usage("--seeds must be at least 1".into()));
        }
        cfg.seeds = seeds;
    }
    if let Some(list) = &args.engines {
        cfg.engines = EngineSet::from_list(list).map_err(CliError::Usage)?;
    }

    let mut total_divergences = 0usize;
    let mut json_rows: Vec<String> = Vec::new();
    for id in grammars {
        let t = Instant::now();
        let report = fuzz_grammar(id, &cfg).map_err(CliError::Internal)?;
        if args.json {
            json_rows.push(format!(
                "{{\"grammar\": \"{}\", \"inputs\": {}, \"accepted\": {}, \"rejected\": {}, \
                 \"edit_scripts\": {}, \"event_checks\": {}, \"scan_parity_checks\": {}, \
                 \"coverage\": {:.3}, \
                 \"divergences\": {}, \"seconds\": {:.2}, \"engines\": \"{}\"}}",
                report.grammar,
                report.inputs_tested,
                report.accepted,
                report.rejected,
                report.edit_scripts_replayed,
                report.event_checks,
                report.scan_parity_checks,
                report.coverage_ratio,
                report.divergences.len(),
                t.elapsed().as_secs_f64(),
                report.engines.join(","),
            ));
        }
        println!(
            "{:<5} {:>6} inputs ({} accepted, {} rejected), {} edit scripts, \
             {} event round-trips, {} scan-parity legs, coverage {:>5.1}%, \
             {} divergence(s) [{:.2} s, engines: {}]",
            report.grammar,
            report.inputs_tested,
            report.accepted,
            report.rejected,
            report.edit_scripts_replayed,
            report.event_checks,
            report.scan_parity_checks,
            report.coverage_ratio * 100.0,
            report.divergences.len(),
            t.elapsed().as_secs_f64(),
            report.engines.join(","),
        );
        if args.telemetry {
            eprintln!("aggregate reference-engine stats for {}:", report.grammar);
            eprintln!("{}", report.stats);
        }
        for d in &report.divergences {
            total_divergences += 1;
            eprintln!("\ndivergence on {} input {:?}", d.grammar, d.input);
            eprintln!("  (found as {:?})", d.original_input);
            eprintln!("  {}", d.detail);
            eprintln!("suggested regression test:\n{}", d.regression_test);
        }
    }
    if args.json {
        let doc = format!(
            "{{\n  \"figure\": \"fig_conformance\",\n  \"divergences\": {},\n  \"reports\": [\n    {}\n  ]\n}}",
            total_divergences,
            json_rows.join(",\n    ")
        );
        match &args.out {
            Some(path) => std::fs::write(path, doc + "\n")
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?,
            None => println!("{doc}"),
        }
    }
    if total_divergences > 0 {
        return Err(CliError::Failure(format!(
            "{total_divergences} divergence(s) found"
        )));
    }
    println!("all engines agree");
    Ok(())
}

fn cmd_fault(args: &Args) -> Result<(), CliError> {
    let grammars = named_grammars(args)?;
    let mut cfg = if args.smoke {
        FaultConfig::smoke()
    } else {
        FaultConfig::default()
    };
    if let Some(docs) = args.seeds {
        if docs == 0 {
            return Err(CliError::Usage("--seeds must be at least 1".into()));
        }
        cfg.docs = docs;
    }
    if let Some(list) = &args.engines {
        cfg.engines = EngineSet::from_list(list).map_err(CliError::Usage)?;
    }

    let mut total_violations = 0usize;
    for id in grammars {
        let t = Instant::now();
        let report = fault_grammar(id, &cfg).map_err(CliError::Internal)?;
        println!(
            "{:<5} {:>3} documents, {:>4} aborts injected, {:>3} degradation runs, \
             {} violation(s) [{:.2} s, engines: {}]",
            report.grammar,
            report.documents,
            report.injections,
            report.degradations,
            report.violations.len(),
            t.elapsed().as_secs_f64(),
            cfg.engines.names().join(","),
        );
        for v in &report.violations {
            total_violations += 1;
            eprintln!("  {v}");
        }
    }
    if total_violations > 0 {
        return Err(CliError::Failure(format!(
            "{total_violations} abort-contract violation(s) found"
        )));
    }
    println!("abort contract holds across all engines");
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let grammar = load_grammar(args)?;
    let plan = load_plan(args)?;
    let doc = format!("Generated from {}", args.files.join(", "));
    let source =
        modpeg_codegen::generate_with_plan(&grammar, plan.as_ref(), &doc).map_err(|e| {
            if plan.is_some() {
                // A rejected plan (stale fingerprint) is user-fixable.
                CliError::Failure(e.to_string())
            } else {
                CliError::Internal(e.to_string())
            }
        })?;
    match &args.out {
        Some(path) => {
            std::fs::write(path, source).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            println!("wrote {path}");
        }
        None => print!("{source}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "check" => cmd_check(&args),
        "lint" => cmd_lint(&args),
        "fmt" => cmd_fmt(&args),
        "stats" => cmd_stats(&args),
        "parse" => cmd_parse(&args),
        "compile" => cmd_compile(&args),
        "profile" => cmd_profile(&args),
        "coverage" => cmd_coverage(&args),
        "gen" => cmd_gen(&args),
        "fuzz" => cmd_fuzz(&args),
        "fault" => cmd_fault(&args),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{}",
            usage()
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_flags_and_files() {
        let a = parse_args(argv(
            "parse g1.mpeg g2.mpeg --root java.Program --input x.java --stats",
        ))
        .unwrap();
        assert_eq!(a.command, "parse");
        assert_eq!(a.files, vec!["g1.mpeg", "g2.mpeg"]);
        assert_eq!(a.root.as_deref(), Some("java.Program"));
        assert_eq!(a.input.as_deref(), Some("x.java"));
        assert!(a.stats && !a.dump && !a.trace);
    }

    #[test]
    fn parses_governor_flags() {
        let a = parse_args(argv(
            "parse g.mpeg --input x --deadline-ms 250 --fuel 100000 --max-depth 512 --memo-budget 4194304",
        ))
        .unwrap();
        assert_eq!(a.deadline_ms, Some(250));
        assert_eq!(a.fuel, Some(100_000));
        assert_eq!(a.max_depth, Some(512));
        assert_eq!(a.memo_budget, Some(4_194_304));
        let limits = governor_limits(&a);
        assert_eq!(limits.deadline, Some(Duration::from_millis(250)));
        assert!(!limits.is_unlimited());
        // Without any governor flag, parses stay on the ungoverned path.
        let b = parse_args(argv("parse g.mpeg --input x")).unwrap();
        assert!(governor_limits(&b).is_unlimited());
        assert!(parse_args(argv("parse g.mpeg --fuel lots")).is_err());
    }

    #[test]
    fn parses_fuzz_flags_without_files() {
        let a = parse_args(argv(
            "fuzz --grammar json --seeds 50 --engines opt-levels,codegen",
        ))
        .unwrap();
        assert_eq!(a.command, "fuzz");
        assert!(a.files.is_empty());
        assert_eq!(a.grammar.as_deref(), Some("json"));
        assert_eq!(a.seeds, Some(50));
        assert_eq!(a.engines.as_deref(), Some("opt-levels,codegen"));
        let b = parse_args(argv("fuzz --smoke")).unwrap();
        assert!(b.smoke && b.seeds.is_none());
        let c = parse_args(argv("parse g.mpeg --input x --events")).unwrap();
        assert!(c.events && !c.stats);
        // `fault` is also file-less; every other command still requires
        // grammar files.
        assert!(parse_args(argv("fault --smoke")).is_ok());
        assert!(parse_args(argv("check --dump")).is_err());
    }

    #[test]
    fn parses_profile_flags() {
        let a = parse_args(argv(
            "profile g.mpeg --input x.java --format chrome --sample 16 --out trace.json",
        ))
        .unwrap();
        assert_eq!(a.command, "profile");
        assert_eq!(a.format.as_deref(), Some("chrome"));
        assert_eq!(a.sample, Some(16));
        assert_eq!(a.out.as_deref(), Some("trace.json"));
        assert!(parse_args(argv("profile g.mpeg --sample lots")).is_err());
        let b = parse_args(argv("parse g.mpeg --input x --telemetry")).unwrap();
        assert!(b.telemetry);
    }

    #[test]
    fn parses_profile_loop_flags() {
        let a = parse_args(argv(
            "profile g.mpeg --input x.java --engine vm --record out.mprof",
        ))
        .unwrap();
        assert_eq!(a.record.as_deref(), Some("out.mprof"));
        assert_eq!(a.engine.as_deref(), Some("vm"));
        let b = parse_args(argv("profile g.mpeg --optimize out.mprof --out plan.json")).unwrap();
        assert_eq!(b.optimize.as_deref(), Some("out.mprof"));
        let c = parse_args(argv("profile diff a.mprof b.mprof --threshold 0.1 --json")).unwrap();
        assert_eq!(c.files, vec!["diff", "a.mprof", "b.mprof"]);
        assert_eq!(c.threshold, Some(0.1));
        assert!(c.json);
        let d = parse_args(argv("parse g.mpeg --input x --plan plan.json")).unwrap();
        assert_eq!(d.plan.as_deref(), Some("plan.json"));
        assert!(parse_args(argv("profile g.mpeg --threshold wide")).is_err());
        assert!(parse_args(argv("profile g.mpeg --record")).is_err());
    }

    #[test]
    fn rejects_unknown_profile_format() {
        let a = parse_args(argv("profile g.mpeg --input x --format svg")).unwrap();
        let report = modpeg_telemetry::TelemetryReport::default();
        let err = render_profile(&a, &report).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("svg"), "{}", err.message());
        // Every documented format renders something for an empty report.
        for fmt in [
            "chrome",
            "folded",
            "heatmap",
            "heatmap-csv",
            "json",
            "summary",
        ] {
            let mut a = parse_args(argv("profile g.mpeg --input x")).unwrap();
            a.format = Some(fmt.to_owned());
            assert!(render_profile(&a, &report).is_ok(), "{fmt}");
        }
    }

    #[test]
    fn parses_engine_flag() {
        let a = parse_args(argv("parse g.mpeg --input x --engine vm")).unwrap();
        assert_eq!(a.engine.as_deref(), Some("vm"));
        assert_eq!(parse_engine(&a).unwrap(), EngineKind::Vm);
        let b = parse_args(argv("parse g.mpeg --input x")).unwrap();
        assert_eq!(parse_engine(&b).unwrap(), EngineKind::OptLevels);
        let mut c = parse_args(argv("parse g.mpeg --input x --engine interp")).unwrap();
        assert_eq!(parse_engine(&c).unwrap(), EngineKind::OptLevels);
        // Harness-only selections and unknown names are usage errors.
        c.engine = Some("baseline".into());
        assert_eq!(parse_engine(&c).unwrap_err().exit_code(), 2);
        c.engine = Some("warp-drive".into());
        assert_eq!(parse_engine(&c).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn parses_compile_flags() {
        let a = parse_args(argv("compile g.mpeg --dump-bytecode --out calc.bc")).unwrap();
        assert_eq!(a.command, "compile");
        assert!(a.dump_bytecode);
        assert_eq!(a.out.as_deref(), Some("calc.bc"));
        let b = parse_args(argv("fault --smoke --engines vm")).unwrap();
        assert_eq!(b.engines.as_deref(), Some("vm"));
    }

    #[test]
    fn rejects_unknown_flag_and_empty() {
        assert!(parse_args(argv("check g.mpeg --bogus")).is_err());
        assert!(parse_args(argv("check")).is_err());
        assert!(parse_args(vec![]).is_err());
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        let cases = [
            (CliError::Failure("f".into()), 1),
            (CliError::Usage("u".into()), 2),
            (CliError::Io("i".into()), 3),
            (CliError::Abort("a".into()), 4),
            (CliError::Internal("x".into()), 5),
        ];
        for (err, code) in &cases {
            assert_eq!(err.exit_code(), *code);
            assert!(!err.message().is_empty());
        }
    }
}
