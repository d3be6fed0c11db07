//! The full request grid: every engine × every mode × governor (none or
//! unlimited) × telemetry (none or a collector), on the four grammars'
//! sample documents and the malformed corpus in `tests/data/malformed/`.
//!
//! Every cell must agree with the interpreter: strict modes with its
//! plain tree mode (the tree, or the failure offset), resilient modes
//! with its plain resilient mode (the tree and the diagnostics), and event
//! streams must rebuild those same trees. A run's statistics must not
//! depend on the governor or telemetry setting, apart from the governor's
//! own tick counters — nor on whether the product is a tree or an event
//! stream — and the arena-backed engines (interpreter, VM, generated
//! parser) must count the same value work (`nodes_built`, `lists_built`,
//! `strings_built`, `value_bytes`) on every input. Most of these
//! combinations (events under a governor, resilient parses with
//! telemetry, ...) had no entry point before requests.

use std::rc::Rc;

use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{
    Diagnostics, Engine, EventCounts, Governor, ParseRequest, RecoverPolicy, Stats, SyntaxTree,
    TreeBuilder,
};
use modpeg_session::ParseSession;
use modpeg_telemetry::{mask, Telemetry};
use modpeg_vm::VmProgram;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Tree,
    Events,
    Resilient,
    ResilientEvents,
}

const MODES: [Mode; 4] = [
    Mode::Tree,
    Mode::Events,
    Mode::Resilient,
    Mode::ResilientEvents,
];

/// One cell's product in comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    /// The tree (built, or rebuilt from the event stream) or the syntax
    /// error's offset.
    verdict: Result<String, Option<u32>>,
    diagnostics: Diagnostics,
    /// The run's statistics without the governor's tick counters.
    stats: Stats,
}

/// Runs one cell. Aborts are contract violations: the only governor in
/// the grid is unlimited.
fn run(
    engine: &dyn Engine,
    text: &str,
    mode: Mode,
    policy: &RecoverPolicy,
    gov: Option<&Governor>,
    telem: Option<&Telemetry>,
) -> Cell {
    let mut builder = TreeBuilder::new();
    let mut req = match mode {
        Mode::Tree => ParseRequest::tree(),
        Mode::Events => ParseRequest::events(&mut builder),
        Mode::Resilient => ParseRequest::resilient(policy),
        Mode::ResilientEvents => ParseRequest::resilient_events(policy, &mut builder),
    };
    req.governor = gov;
    req.telemetry = telem;
    let (result, mut stats) = engine.run(text, req);
    if gov.is_some() {
        assert!(
            stats.gov_ticks > 0,
            "{}: the governor saw no ticks",
            engine.name()
        );
    }
    stats.gov_ticks = 0;
    stats.gov_stride_refills = 0;
    let (verdict, diagnostics) = match result {
        Ok(parsed) => {
            let tree = match parsed.tree {
                Some(tree) => tree.to_sexpr(),
                None => {
                    let root = builder.finish().expect("balanced event stream");
                    SyntaxTree::new(text, root).to_sexpr()
                }
            };
            (Ok(tree), parsed.diagnostics)
        }
        Err(fault) => {
            assert!(
                fault.abort().is_none(),
                "{}: {mode:?} aborted: {fault}",
                engine.name()
            );
            (
                Err(fault.syntax().map(|e| e.offset())),
                Diagnostics::default(),
            )
        }
    };
    Cell {
        verdict,
        diagnostics,
        stats,
    }
}

/// The sample documents plus the malformed corpus, by grammar.
fn inputs() -> Vec<(GrammarId, String, String)> {
    let mut inputs: Vec<(GrammarId, String, String)> = GrammarId::ALL
        .iter()
        .map(|&id| (id, format!("{} sample", id.name()), id.workload(7, 320)))
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/malformed");
    for entry in std::fs::read_dir(&dir).expect("malformed corpus") {
        let path = entry.expect("corpus entry").path();
        let id = match path.extension().and_then(|e| e.to_str()) {
            Some("calc") => GrammarId::Calc,
            Some("json") => GrammarId::Json,
            Some("java") => GrammarId::Java,
            Some("c") => GrammarId::C,
            _ => continue,
        };
        let text = std::fs::read_to_string(&path).expect("corpus document");
        inputs.push((id, path.display().to_string(), text));
    }
    assert!(inputs.len() >= 8, "the malformed corpus went missing");
    inputs
}

#[test]
fn every_request_agrees_with_the_interpreter() {
    for (id, name, text) in inputs() {
        let grammar = id.elaborate().expect("grammar elaborates");
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let unchunked = CompiledGrammar::compile(
            &grammar,
            OptConfig::all_except("chunks").expect("chunks is a flag"),
        )
        .expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("bytecode assembles");
        let engines: [(&str, &dyn Engine); 4] = [
            ("interp", &interp),
            ("interp without chunks", &unchunked),
            ("vm", &vm),
            ("codegen", id.codegen()),
        ];
        let policy = interp.recover_policy();
        let strict = run(&interp, &text, Mode::Tree, &policy, None, None);
        let resilient = run(&interp, &text, Mode::Resilient, &policy, None, None);
        if strict.verdict.is_ok() {
            assert_eq!(
                resilient.verdict, strict.verdict,
                "{name}: clean resilient tree"
            );
            assert!(
                resilient.diagnostics.is_clean(),
                "{name}: clean input, diagnostics"
            );
        }

        // One value builder: the arena-backed engines count identical
        // value work for identical trees.
        let values = |engine: &dyn Engine| {
            let s = run(engine, &text, Mode::Tree, &policy, None, None).stats;
            (s.nodes_built, s.lists_built, s.strings_built, s.value_bytes)
        };
        for (label, engine) in [("vm", &vm as &dyn Engine), ("codegen", id.codegen())] {
            assert_eq!(
                values(engine),
                values(&interp),
                "{name}: {label} value counters (nodes, lists, strings, bytes) vs interp"
            );
        }

        for (label, engine) in engines {
            assert_eq!(engine.recover_policy(), policy, "{name}: {label} policy");
            for mode in MODES {
                let want = match mode {
                    Mode::Tree | Mode::Events => &strict,
                    Mode::Resilient | Mode::ResilientEvents => &resilient,
                };
                let plain = run(engine, &text, mode, &policy, None, None);
                assert_eq!(
                    (&plain.verdict, &plain.diagnostics),
                    (&want.verdict, &want.diagnostics),
                    "{name}: {label} {mode:?} disagrees with interp"
                );
                for governed in [false, true] {
                    for traced in [false, true] {
                        let gov = Governor::new();
                        let telem = Telemetry::collector(1 << 16).with_mask(mask::ALL);
                        let cell = run(
                            engine,
                            &text,
                            mode,
                            &policy,
                            governed.then_some(&gov),
                            traced.then_some(&telem),
                        );
                        let context = format!(
                            "{name}: {label} {mode:?} (governed: {governed}, telemetry: {traced})"
                        );
                        assert_eq!(cell, plain, "{context}");
                        if traced {
                            assert!(
                                !telem.take_report().events.is_empty(),
                                "{context}: no events"
                            );
                        }
                    }
                }
            }
            // Streaming instead of building changes nothing the run counts.
            let stats = |mode| run(engine, &text, mode, &policy, None, None).stats;
            assert_eq!(
                stats(Mode::Events),
                stats(Mode::Tree),
                "{name}: {label} event stats"
            );
            assert_eq!(
                stats(Mode::ResilientEvents),
                stats(Mode::Resilient),
                "{name}: {label} resilient event stats"
            );
        }
    }
}

/// Regression: an event-mode session parse on a grammar compiled without
/// chunked memoization used to report all-zero statistics.
#[test]
fn session_event_parses_report_their_stats() {
    let grammar = GrammarId::Json.elaborate().expect("grammar elaborates");
    let cfg = OptConfig::all_except("chunks").expect("chunks is a flag");
    let parser = Rc::new(CompiledGrammar::compile(&grammar, cfg).expect("compiles"));
    let mut session = ParseSession::new(parser, GrammarId::Json.workload(3, 400));
    session.parse().expect("sample parses");
    let tree_stats = session.last_stats().clone();
    assert!(tree_stats.productions_evaluated > 0);
    let mut counts = EventCounts::default();
    session
        .run(ParseRequest::events(&mut counts))
        .0
        .expect("sample parses");
    assert!(counts.nodes > 0);
    assert_eq!(session.last_stats(), &tree_stats);
}
