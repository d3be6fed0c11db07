//! `e2e` — modpeg end to end: `.mpeg` module text to trees on the
//! tree-walking interpreter (`interp`), the bytecode machine (`vm`) and the
//! generated parser (`codegen`), with a traced per-layer split.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <corpus|lexical|malformed|edit|build> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>]
//! cargo test --release --manifest-path e2e_bench/Cargo.toml
//! ```
//!
//! One run builds the parsers its workload needs from `.mpeg` text, checks
//! every output before it times anything, times the workload for
//! `--seconds` (default 10), and prints one `workload metric value unit`
//! line per metric, then a one-line JSON result with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones. `BENCHMARK.json` at the
//! repository root lists both sets with units, directions and regression
//! bounds. Progress notes go to stderr.
//!
//! Methodology: one process, one thread, one caller in a closed loop (the
//! next operation starts when the previous one returned). Each layer is
//! timed from outside, around calls into its crate's public functions; the
//! program under test is not instrumented. A timed region is a sequence of
//! rounds, each a pass over the workload's operations; the first round is
//! a discarded warmup, timings are medians over rounds, and the three
//! engines run in an order that rotates every round. The benchmark is a
//! package of its own (an empty `[workspace]` table) so that it builds
//! against the repository's crates without changing the root workspace.
//!
//! # Workloads
//!
//! Inputs come from `--seed` alone: the same seed gives byte-identical
//! inputs. Document sizes are a stratified draw from a log-uniform
//! distribution, the same on every seed, so that seeds differ in content
//! only and stay comparable.
//!
//! * `corpus` — about 1 MiB of documents of 2–64 KiB: by bytes 40%
//!   `java_extended_program` (parsed by `java.Extended`), 35% `c_program`,
//!   25% `json_document`; every round parses every document to an owned
//!   tree on each engine. *Why:* whole files through a composed grammar
//!   (java.Extended), a stateful one (C typedef) and JSON: the parse loop
//!   does nearly all the work, the front end none.
//! * `lexical` — about 4 MiB of `{calc,json,java,c}_lexical` documents,
//!   more than a third of whose bytes sit in single-class runs of 16 or
//!   more (checked). *Why:* long single-class runs make `runtime::scan` do
//!   most of the work and memo/dispatch little, so a scan change moves
//!   this workload and not `corpus`.
//! * `malformed` — about 1 MiB of corpus-style documents of 0.5–8 KiB,
//!   each with 1–8 seeded corruptions, kept only when the independent
//!   `BacktrackParser` rejects it, parsed with `parse_resilient` under
//!   each engine's default `recover_policy()`. Recovery stops after 20
//!   errors, so where the first corruption sits decides how much of a
//!   document parses normally; that offset and the corruption count are
//!   stratified like the sizes, and the documents are small and many
//!   because the cost of one recovery varies widely. *Why:* the only
//!   workload that runs `runtime::recover`; on `corpus` a recovery change
//!   should show no effect.
//! * `edit` — one 64 KiB `java_program` in an interpreter `ParseSession`
//!   (`OptConfig::incremental()`), primed once, then a script of 500
//!   seeded edits (number literals and identifiers replaced by tokens of
//!   another length), replayed from the original text whenever it runs
//!   out; after every 50th edit the VM and the generated parser, which
//!   have no incremental mode, reparse the whole text. *Why:* one memo
//!   table serves writes (`apply_edit` shifts and invalidates entries) and
//!   reads (reuse): a memo change that helps fresh parses but hurts reuse
//!   shows here.
//! * `build` — the seven shipped compositions (calc, json, java,
//!   java.Extended, c, java.WithSql, mpeg), each taken from text through
//!   `parse_module_set`, `elaborate`, `CompiledGrammar::compile`,
//!   `VmProgram::from_compiled` and `codegen::generate_from_compiled`.
//!   *Why:* the paper's extensibility loop: front end, transforms and emit
//!   do all the work, the parse loop none.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` — median seconds of one build, from `.mpeg` text, of the
//!   parsers the workload times: `parse_module_set`, `elaborate`,
//!   `CompiledGrammar::compile(OptConfig::all())` (plus the
//!   `OptConfig::incremental()` session grammar on `edit`),
//!   `VmProgram::from_compiled`, and on `build` the emitted source.
//!   Generated parsers are compiled in when the benchmark is built. Five
//!   builds precede the gate and one more follows every timed round, so
//!   the median samples the whole run, not just its first moments.
//! * `mib_s.<engine>` — input MiB per second: total bytes over the median
//!   round time on the document workloads (tree mode; resilient on
//!   `malformed`); the document's bytes over the median reparse time on
//!   `edit` (incremental for interp, full reparses for vm and codegen);
//!   `.mpeg` bytes over the median round time of that engine's build path
//!   on `build` (front end and compile, plus bytecode assembly for vm or
//!   source emission for codegen).
//! * `op_us_per_kib.p50`, `.p90` — one operation's latency per KiB of its
//!   input: a document on one engine, an interpreter edit plus reparse,
//!   one composition through every back end. Each is the median over
//!   timed rounds of that round's percentile (rounds hold 100–1200
//!   operations; 7 on `build`, whose p90 is the costliest composition),
//!   so rounds slowed by other tenants of the machine do not decide it.
//!   p90 rather than p99: the operations repeat a fixed set of inputs, and
//!   the top percent is a handful of (document, engine) pairs the seed
//!   picks.
//! * `peak_heap_mib.<engine>` — most bytes held live at once, counted by
//!   the global allocator in an untimed pass: per document, averaged over
//!   a family's documents, for the heaviest family; on `edit` the session
//!   over priming and the whole script (its region keeps every reparse's
//!   nodes, about 0.7 MiB an edit), or one full parse; on `build` the
//!   heaviest composition's build path.
//!
//! Failed operations are not a metric: `failed` and `attempted` in the
//! result line count every correctness check and every timed operation.
//!
//! # Correctness gate
//!
//! Before timing, untimed: on `corpus` and `lexical`, all three engines
//! build identical trees, `BacktrackParser` accepts every document, and
//! each engine's `EventCounts.nodes` equals its tree's node count; on
//! `malformed`, every engine reports at least one diagnostic and the
//! engines agree on diagnostics and recovered trees; on `edit`, every
//! reparse succeeds and every 50th edit and the last, the session's tree
//! equals fresh parses on all engines; on `build`, a rebuild emits
//! byte-identical source and VM disassembly, and the freshly built
//! parsers agree with `modpeg_grammars::generated::*` on sample documents.
//! A failed check counts as a failed operation; it does not stop the run.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Each layer's metrics, the end-to-end metric they should move, and the
//! workloads where they should move most and least:
//!
//! | layer | metrics | moves | most / least |
//! |---|---|---|---|
//! | `modpeg-syntax` | `syntax.ms`, `syntax.modules` | `setup_s`, `mib_s.*` | build / corpus |
//! | `core` elaborate | `elaborate.ms`, `elaborate.productions` | same | build / corpus |
//! | `core::transform` | `transform.ms`, `transform.productions_out` | same; fewer productions also raise `mib_s.*` | build, corpus |
//! | `interp` lowering | `lower.ms` (compile minus a standalone `transform::pipeline`), `lower.memo_slots` | `setup_s`, `mib_s.interp` | build |
//! | `vm` assembly | `assemble.ms`, `assemble.ops` | `setup_s`, `mib_s.vm` | build / lexical |
//! | `codegen` emit | `emit.ms`, `emit.kib` | `mib_s.codegen` | build / all others |
//! | parse loop | `parse.<e>.ns_per_byte` (events mode, `EventCounts` sink), `linearity.<e>` | `mib_s.<e>` | corpus / build |
//! | runtime counters | `<e>.memo.*`, `<e>.eval.*`, `<e>.values.nodes_per_kib` | `mib_s.<e>`, `peak_heap_mib.<e>` | corpus / lexical |
//! | `runtime::scan` | `<e>.scan.comparisons_per_byte` | `mib_s.<e>` | lexical / corpus |
//! | `runtime::arena` copy-out | `copy_out.<e>.ns_per_byte` (tree minus events) | `mib_s.<e>`, `peak_heap_mib.<e>` | corpus / lexical |
//! | `runtime::recover` | `recover.errors_per_doc`, `recover.<e>.overhead_pct` | `mib_s.*` on malformed | malformed / corpus (no change) |
//! | `modpeg-session` | `session.columns_reused_ratio`, `session.entries_shifted_per_edit`, `session.productions_per_reparse` | `mib_s.interp`, `op_us_per_kib.*` on edit | edit / others (zero) |
//! | harness | `trace.overhead_pct`, `trace.coverage_pct` | none | all |
//!
//! Front-end times are medians over the set-up builds; the engine metrics
//! come from a probe pass over a size-stratified subset (about 384 KiB) of
//! the workload's valid documents (the originals on `malformed`), each
//! parse run twice with the faster run counted. `linearity.<e>` is ns/byte
//! on documents of at least half the largest size over ns/byte on those
//! of at most an eighth (Ford's linear-time check; flat reads 1).
//! `recover.<e>.overhead_pct` compares a resilient parse with a plain
//! parse of the valid text. Counters come from `parse_with_stats`.
//!
//! # Tracing
//!
//! With `--trace 1`, every call the benchmark times is also an in-memory
//! span: name, start, end, parent span, and a request id (document, edit,
//! composition or set-up rep). Timed rounds alternate recorded and
//! unrecorded, so `trace.overhead_pct` (median recorded round over median
//! unrecorded round) compares like with like; `trace.coverage_pct` is the
//! share of recorded rounds' wall time the top-level spans cover. At exit
//! the run prints each span name's calls, total and self time (duration
//! minus the time its child spans cover), and writes Chrome `trace_event`
//! JSON, checked with `modpeg_telemetry::validate_json`, to
//! `e2e_bench/out/trace-<workload>-seed<n>.json`.
//!
//! # How the bounds were set
//!
//! A bound is the share by which a metric's median over ten seeds may
//! worsen before a change counts as a regression. Sets of ten seeds per
//! workload (2-vCPU shared VM, 10 s runs) gave these spreads (quartile
//! distance over median): time metrics 0.5–8.7% while the machine was
//! calm, and 10–65% when other tenants slowed the whole machine by up to
//! 1.6× for a minute or more, which also moved whole-set medians by up to
//! 19%; peak heap, exact for a given seed, 0–3.8% across seeds. A
//! memory-bound probe loop run alone slowed the same way, in its fastest
//! chunks as much as in its median ones.
//! Hence 0.25 for every time metric, `setup_s` included (the largest
//! bound allowed), and 0.15 for `peak_heap_mib.*`. Longer runs do not
//! help against minute-long slowdowns and would not fit the time budget
//! of a full comparison; medians over rounds, per-round latency
//! percentiles and set-up sampled across the run are what keep the calm
//! spreads low.

mod alloc;
mod build;
mod check;
mod docs;
mod edit;
mod families;
mod inputs;
mod layers;
mod measure;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Scale;
use measure::Outcome;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: e2e --workload <corpus|lexical|malformed|edit|build> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Corpus,
    Lexical,
    Malformed,
    Edit,
    Build,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Corpus,
        Workload::Lexical,
        Workload::Malformed,
        Workload::Edit,
        Workload::Build,
    ];

    pub fn name(self) -> &'static str {
        ["corpus", "lexical", "malformed", "edit", "build"][self as usize]
    }

    fn run(self, cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
        match self {
            Workload::Corpus => docs::run(docs::Kind::Corpus, cfg, tracer),
            Workload::Lexical => docs::run(docs::Kind::Lexical, cfg, tracer),
            Workload::Malformed => docs::run(docs::Kind::Malformed, cfg, tracer),
            Workload::Edit => edit::run(cfg, tracer),
            Workload::Build => build::run(cfg, tracer),
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    pub scale: Scale,
}

impl Config {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
        let mut workload = None;
        let mut cfg = Config {
            workload: Workload::Corpus,
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: inputs::FULL,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                    workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
                }
                "--seed" => cfg.seed = value.parse().map_err(bad)?,
                "--seconds" => {
                    cfg.seconds = value
                        .parse()
                        .map_err(|_| format!("bad value for --seconds: {value}"))?;
                    if !(cfg.seconds >= 0.0 && cfg.seconds <= 120.0) {
                        return Err(format!("--seconds must be within 0..=120, not {value}"));
                    }
                }
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        cfg.workload = workload.ok_or("--workload is required")?;
        Ok(cfg)
    }
}

/// Prints the per-layer self-time table and writes the spans as Chrome
/// trace JSON under the benchmark's `out/` directory.
fn report_trace(cfg: &Config, tracer: &Tracer) -> Result<(), String> {
    let rows = tracer.self_times();
    let total: f64 = rows.iter().map(|r| r.3).sum();
    println!(
        "{:<24} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "total ms", "self ms", "self %"
    );
    for (name, calls, t, s) in &rows {
        println!(
            "{name:<24} {calls:>8} {:>12.3} {:>12.3} {:>6.2}%",
            t * 1e3,
            s * 1e3,
            s / total * 100.0
        );
    }
    let json = tracer.chrome_json();
    modpeg_telemetry::validate_json(&json).map_err(|e| format!("trace JSON is invalid: {e}"))?;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    measure::progress(&format!("{} seed {}", cfg.workload.name(), cfg.seed));
    let tracer = Tracer::new();
    let outcome = match cfg.workload.run(&cfg, &tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        if let Err(e) = report_trace(&cfg, &tracer) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    for m in &outcome.metrics {
        println!("{} {} {} {}", cfg.workload.name(), m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use modpeg_telemetry::JsonValue;

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds: 0.0,
            trace,
            scale: inputs::TINY,
        }
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let json = modpeg_telemetry::parse_json(text).expect("BENCHMARK.json parses");
        let field =
            |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
        let metrics = json
            .get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list");
        metrics
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn every_workload_reports_exactly_the_listed_metrics() {
        for trace in [false, true] {
            let want = listed(if trace { "per_layer" } else { "end_to_end" });
            for w in Workload::ALL {
                let tracer = Tracer::new();
                let outcome = w.run(&tiny(w, 7, trace), &tracer).expect("runs");
                let got: Vec<(String, String)> = outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_owned()))
                    .collect();
                assert_eq!(got, want, "{} trace={trace}", w.name());
                assert!(
                    outcome.metrics.iter().all(|m| m.value.is_finite()),
                    "{outcome:?}"
                );
                assert_eq!(outcome.tally.failed, 0, "{} trace={trace}", w.name());
                assert!(outcome.tally.attempted > 0);
                modpeg_telemetry::validate_json(&outcome.json()).expect("result line is JSON");
                if trace {
                    modpeg_telemetry::validate_json(&tracer.chrome_json()).expect("trace is JSON");
                }
            }
        }
    }

    #[test]
    fn workload_names_and_benchmark_json_agree() {
        let text = include_str!("../../BENCHMARK.json");
        let json = modpeg_telemetry::parse_json(text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_other_inputs() {
        let s = inputs::TINY;
        let edit = |seed| {
            let doc = inputs::edit_doc(seed, s);
            let script = inputs::edit_script(&doc, seed, s.edits);
            (doc, script)
        };
        let malformed = |seed| inputs::malformed(seed, s, &|_, _| true);
        assert_eq!(inputs::corpus(3, s), inputs::corpus(3, s));
        assert_ne!(inputs::corpus(3, s), inputs::corpus(4, s));
        assert_eq!(inputs::lexical(3, s), inputs::lexical(3, s));
        assert_ne!(inputs::lexical(3, s), inputs::lexical(4, s));
        assert_eq!(malformed(3), malformed(3));
        assert_ne!(malformed(3), malformed(4));
        assert_eq!(edit(3), edit(3));
        assert_ne!(edit(3), edit(4));
        assert_eq!(inputs::build_samples(3, s), inputs::build_samples(3, s));
        assert_ne!(inputs::build_samples(3, s), inputs::build_samples(4, s));
    }

    #[test]
    fn peak_heap_is_positive_and_repeats_exactly() {
        let heap = |w| {
            let outcome = Workload::run(w, &tiny(w, 5, false), &Tracer::new()).expect("runs");
            let peaks: Vec<f64> = outcome
                .metrics
                .iter()
                .filter(|m| m.name.starts_with("peak_heap_mib."))
                .map(|m| m.value)
                .collect();
            assert_eq!(peaks.len(), 3);
            assert!(peaks.iter().all(|&p| p > 0.0), "{peaks:?}");
            peaks
        };
        for w in [Workload::Corpus, Workload::Build] {
            assert_eq!(heap(w), heap(w), "{}", w.name());
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let cfg =
            Config::parse(args("--workload edit --seed 9 --seconds 3 --trace 1")).expect("parses");
        assert_eq!(cfg.workload, Workload::Edit);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 3.0, true));
        for bad in [
            "",
            "--workload nope",
            "--workload edit --trace 2",
            "--workload edit --seconds -1",
            "--workload edit --seed",
            "--workload edit --frob 1",
        ] {
            assert!(Config::parse(args(bad)).is_err(), "{bad:?}");
        }
    }
}
