//! Differential tests: the bytecode machine must be observationally
//! identical to the tree-walking interpreter — same trees, same
//! verdicts, same farthest-failure offsets, same governed aborts, and
//! the same per-production memoization telemetry.

use modpeg_core::Grammar;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{
    CancelToken, Engine, Governor, ParseAbort, ParseFault, ParseRequest, Parsed, Stats, SyntaxTree,
};
use modpeg_telemetry::{mask, MetricsRegistry, Telemetry};
use modpeg_vm::{VmError, VmProgram};

/// Configurations the bytecode encodes (iterative repetition and
/// fold-based left recursion enabled), from barely-eligible to full.
fn vm_configs() -> Vec<OptConfig> {
    vec![
        OptConfig::cumulative(7),
        OptConfig::cumulative(10),
        OptConfig::cumulative(13),
        OptConfig::incremental(),
        OptConfig::all(),
    ]
}

fn bundled() -> Vec<(&'static str, Grammar)> {
    vec![
        (
            "calc",
            modpeg_grammars::calc_grammar().expect("calc compiles"),
        ),
        (
            "json",
            modpeg_grammars::json_grammar().expect("json compiles"),
        ),
        (
            "java",
            modpeg_grammars::java_grammar().expect("java compiles"),
        ),
        ("c", modpeg_grammars::c_grammar().expect("c compiles")),
        (
            "tiny",
            modpeg_grammars::tiny_grammar().expect("tiny compiles"),
        ),
    ]
}

fn inputs_for(name: &str) -> Vec<String> {
    let mut docs: Vec<String> = match name {
        "calc" => (0..6)
            .map(|s| modpeg_workload::calc_expression(s, 400))
            .collect(),
        "json" => (0..6)
            .map(|s| modpeg_workload::json_document(s, 400))
            .collect(),
        "java" => (0..4)
            .map(|s| modpeg_workload::java_program(s, 500))
            .collect(),
        "c" => (0..4).map(|s| modpeg_workload::c_program(s, 500)).collect(),
        _ => vec!["aab".into(), "ab".into(), "".into()],
    };
    // Rejections and edge shapes: the farthest-failure offset must agree
    // on these too.
    docs.extend(
        [
            "",
            " ",
            "(",
            ")",
            "1 +",
            "{\"a\": }",
            "class {",
            "int x = ;",
            "\u{3b1}\u{3b2}",
            "((((((((",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    docs
}

/// A tree-mode run under `gov`.
fn governed(vm: &VmProgram, doc: &str, gov: &Governor) -> (Result<SyntaxTree, ParseFault>, Stats) {
    let (r, stats) = vm.run(doc, ParseRequest::tree().governed(gov));
    (r.map(Parsed::into_tree), stats)
}

fn describe(r: &Result<modpeg_runtime::SyntaxTree, modpeg_runtime::ParseError>) -> String {
    match r {
        Ok(t) => format!("accept: {}", t.to_sexpr()),
        Err(e) => format!("reject at {}", e.offset()),
    }
}

#[test]
fn trees_and_verdicts_agree_with_interp() {
    for (name, grammar) in bundled() {
        for cfg in vm_configs() {
            let interp = CompiledGrammar::compile(&grammar, cfg).expect("interp compiles");
            let vm = VmProgram::from_compiled(&interp).expect("vm compiles");
            for input in inputs_for(name) {
                let want = describe(&interp.parse(&input));
                let got = describe(&vm.parse(&input));
                assert_eq!(
                    got,
                    want,
                    "{name} diverged on {:?} under {:?}",
                    &input[..input.len().min(80)],
                    cfg
                );
            }
        }
    }
}

#[test]
fn stats_core_counters_agree_with_interp_at_full_opt() {
    // The chunked memo table is always used by the VM, so memo-byte
    // accounting can differ below full optimization; at `all()` the
    // interpreter uses the same table and the evaluation is isomorphic.
    for (name, grammar) in bundled() {
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("vm compiles");
        for input in inputs_for(name) {
            let (_, si) = interp.parse_with_stats(&input);
            let (_, sv) = vm.parse_with_stats(&input);
            assert_eq!(
                (
                    si.productions_evaluated,
                    si.memo_probes,
                    si.memo_hits,
                    si.memo_stale
                ),
                (
                    sv.productions_evaluated,
                    sv.memo_probes,
                    sv.memo_hits,
                    sv.memo_stale
                ),
                "{name}: memo traffic diverged on {:?}",
                &input[..input.len().min(80)]
            );
            assert_eq!(
                (si.backtracks, si.terminal_comparisons),
                (sv.backtracks, sv.terminal_comparisons),
                "{name}: backtrack/comparison counts diverged on {:?}",
                &input[..input.len().min(80)]
            );
        }
    }
}

#[test]
fn memo_telemetry_agrees_with_interp() {
    const CAP: usize = 1 << 22;
    for (name, grammar) in bundled() {
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("vm compiles");
        for input in inputs_for(name).into_iter().take(4) {
            let ti = Telemetry::collector(CAP).with_mask(mask::MEMO_HITS | mask::MEMO_TRAFFIC);
            let tv = Telemetry::collector(CAP).with_mask(mask::MEMO_HITS | mask::MEMO_TRAFFIC);
            let _ = interp.run(&input, ParseRequest::tree().with_telemetry(&ti));
            let _ = vm.run(&input, ParseRequest::tree().with_telemetry(&tv));
            let ri = MetricsRegistry::from_report(&ti.take_report());
            let rv = MetricsRegistry::from_report(&tv.take_report());
            let probes = |r: &MetricsRegistry| {
                let mut v: Vec<(String, u64, u64)> = r
                    .prods
                    .iter()
                    .filter(|(_, p)| p.memo_probes > 0)
                    .map(|(name, p)| (name.clone(), p.memo_probes, p.memo_hits))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(
                probes(&ri),
                probes(&rv),
                "{name}: per-production memo telemetry diverged"
            );
        }
    }
}

#[test]
fn governed_aborts_are_deterministic() {
    let grammar = modpeg_grammars::json_grammar().expect("compiles");
    let vm = VmProgram::full(&grammar).expect("vm compiles");
    let doc = modpeg_workload::json_document(3, 600);

    // Unlimited governor: same answer as ungoverned.
    let unlimited = Governor::new();
    let (r, stats) = governed(&vm, &doc, &unlimited);
    let tree = r.expect("unlimited governed parse succeeds");
    assert_eq!(tree.to_sexpr(), vm.parse(&doc).expect("plain").to_sexpr());
    let total = stats.gov_ticks;
    assert!(total > 0, "governed run counts ticks");

    // Cutting fuel mid-run aborts with FuelExhausted, deterministically.
    for fuel in [1, total / 2, total - 1] {
        let gov = Governor::new().with_fuel(fuel);
        let (r, _) = governed(&vm, &doc, &gov);
        match r {
            Err(ParseFault::Abort(ParseAbort::FuelExhausted)) => {}
            other => panic!("fuel {fuel}: expected FuelExhausted, got {other:?}"),
        }
        assert_eq!(gov.tripped(), Some(ParseAbort::FuelExhausted));
    }
    // Fuel >= total never aborts.
    let gov = Governor::new().with_fuel(total);
    let (r, _) = governed(&vm, &doc, &gov);
    assert!(r.is_ok(), "exact fuel budget suffices");

    // A pre-cancelled token aborts before any work.
    let token = CancelToken::new();
    token.cancel();
    let gov = Governor::new().with_cancel(token);
    let (r, _) = governed(&vm, &doc, &gov);
    assert!(matches!(r, Err(ParseFault::Abort(ParseAbort::Cancelled))));
    assert_eq!(gov.steps(), 0, "pre-cancelled run does no work");

    // A tiny depth ceiling aborts nested documents.
    let gov = Governor::new().with_max_depth(2);
    let (r, _) = governed(&vm, &doc, &gov);
    assert!(matches!(
        r,
        Err(ParseFault::Abort(ParseAbort::DepthExceeded))
    ));
}

#[test]
fn memo_budget_ladder_degrades_then_aborts() {
    let grammar = modpeg_grammars::json_grammar().expect("compiles");
    let vm = VmProgram::full(&grammar).expect("vm compiles");
    let doc = modpeg_workload::json_document(5, 800);
    let (_, baseline) = vm.parse_with_stats(&doc);
    let reference = vm.parse(&doc).expect("valid doc").to_sexpr();

    // A halved budget degrades (evicts or goes transient) but still
    // produces the identical tree.
    let gov = Governor::new().with_memo_budget((baseline.memo_bytes / 2).max(1));
    let (r, stats) = governed(&vm, &doc, &gov);
    let tree = r.expect("degraded parse still succeeds");
    assert_eq!(tree.to_sexpr(), reference);
    assert!(
        stats.gov_evictions > 0 || stats.gov_transient_fallbacks > 0,
        "budget pressure must be visible in stats"
    );
}

#[test]
fn unsupported_configs_are_rejected() {
    let grammar = modpeg_grammars::calc_grammar().expect("compiles");
    for n in 0..6 {
        let cfg = OptConfig::cumulative(n);
        match VmProgram::compile(&grammar, cfg) {
            Err(VmError::Unsupported(_)) => {}
            other => panic!(
                "cumulative({n}) lacks iterative strategies; expected Unsupported, got {:?}",
                other.map(|_| "program")
            ),
        }
    }
    assert!(VmProgram::compile(&grammar, OptConfig::cumulative(7)).is_ok());
}

#[test]
fn disassembly_is_deterministic() {
    let grammar = modpeg_grammars::calc_grammar().expect("compiles");
    let a = VmProgram::full(&grammar)
        .expect("vm compiles")
        .disassemble();
    let b = VmProgram::full(&grammar)
        .expect("vm compiles")
        .disassemble();
    assert_eq!(a, b);
    assert!(a.contains("memocall"), "calc memoizes productions:\n{a}");
    assert!(
        a.contains("classstar") || a.contains("classplus"),
        "superinstructions selected"
    );
}

/// Corrupts `doc` at `n` evenly spaced char boundaries (replacing one
/// character with a `\u{1}` byte the grammars reject) so resilient
/// parses see multiple seeded errors.
fn corrupt(doc: &str, n: usize) -> String {
    let boundaries: Vec<usize> = doc.char_indices().map(|(i, _)| i).collect();
    if boundaries.is_empty() || n == 0 {
        return doc.to_owned();
    }
    let mut out = String::new();
    let step = boundaries.len().div_ceil(n);
    let targets: Vec<usize> = boundaries.iter().copied().step_by(step.max(1)).collect();
    let mut prev = 0;
    for t in targets {
        if t < prev {
            continue;
        }
        out.push_str(&doc[prev..t]);
        let w = doc[t..].chars().next().map_or(0, char::len_utf8);
        out.push('\u{1}');
        prev = t + w;
    }
    out.push_str(&doc[prev..]);
    out
}

#[test]
fn resilient_trees_and_diagnostics_agree_with_interp() {
    for (name, grammar) in bundled() {
        for cfg in vm_configs() {
            let interp = CompiledGrammar::compile(&grammar, cfg).expect("interp compiles");
            let vm = VmProgram::from_compiled(&interp).expect("vm compiles");
            assert_eq!(
                interp.recover_policy(),
                vm.recover_policy(),
                "{name} {cfg:?}"
            );
            let policy = vm.recover_policy();
            let mut docs = inputs_for(name);
            docs.extend(inputs_for(name).iter().map(|d| corrupt(d, 3)));
            for input in docs {
                let a = interp.parse_resilient(&input, &policy);
                let b = vm.parse_resilient(&input, &policy);
                assert_eq!(
                    a.tree.to_sexpr(),
                    b.tree.to_sexpr(),
                    "{name} trees diverged on {:?} under {cfg:?}",
                    &input[..input.len().min(80)],
                );
                assert_eq!(
                    a.diagnostics,
                    b.diagnostics,
                    "{name} diagnostics diverged on {:?} under {cfg:?}",
                    &input[..input.len().min(80)],
                );
            }
        }
    }
}

#[test]
fn resilient_clean_input_agrees_with_plain_parse() {
    for (name, grammar) in bundled() {
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("vm compiles");
        let policy = vm.recover_policy();
        for input in inputs_for(name) {
            let Ok(plain) = vm.parse(&input) else {
                continue;
            };
            let rec = vm.parse_resilient(&input, &policy);
            assert!(rec.diagnostics.is_clean(), "{name} on {input:?}");
            assert_eq!(rec.tree.to_sexpr(), plain.to_sexpr(), "{name} on {input:?}");
        }
    }
}
