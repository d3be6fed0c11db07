//! UTF-8 boundary and governed-abort tests for the vectorized
//! character-class scanner, run against real engines (interpreter at
//! full optimization and the bytecode VM) in both scan modes.
//!
//! Three families, per the bulk-scanning contract:
//!
//! * class runs that end mid-input on a multibyte scalar reject at the
//!   exact byte offset of that scalar, identically in both modes;
//! * negated classes over non-ASCII text scan the same prefix in both
//!   modes (the wide-verdict path);
//! * fuel that exhausts *inside* a bulk-scanned run aborts with the
//!   same statistics and governor step total as the scalar loop, at
//!   every single fuel point — the exhaustive form of the fault
//!   harness's sampled check.

use modpeg_core::Diagnostics;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{
    scan, Engine, Governor, ParseAbort, ParseFault, ParseRequest, Stats, SyntaxTree,
};
use modpeg_vm::VmProgram;

fn compile(src: &str, root: &str) -> CompiledGrammar {
    let g = modpeg_syntax::parse_module_set([src])
        .and_then(|set| set.elaborate(root, None))
        .unwrap_or_else(|e: Diagnostics| panic!("{e}"));
    CompiledGrammar::compile(&g, OptConfig::all()).unwrap()
}

/// Runs `f` once with the vectorized scanner and once with the scalar
/// reference path forced, restoring the prior mode, and returns both
/// results as (vectorized, scalar).
fn both_modes<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let prior = scan::scalar_forced();
    scan::force_scalar(false);
    let vectorized = f();
    scan::force_scalar(true);
    let scalar = f();
    scan::force_scalar(prior);
    (vectorized, scalar)
}

fn describe(r: &Result<SyntaxTree, modpeg_runtime::ParseError>) -> String {
    match r {
        Ok(t) => format!("accept: {}", t.to_sexpr()),
        Err(e) => format!("reject at {}", e.offset()),
    }
}

#[test]
fn class_runs_ending_on_multibyte_reject_at_its_byte_offset() {
    let p = compile("module s; public Node W = <W> $([a-z]*) !. ;", "s");
    let vm = VmProgram::from_compiled(&p).unwrap();
    // Each input ends its lowercase run at a multibyte scalar; `!.`
    // then fails, so the farthest failure lands exactly at that
    // scalar's first byte.
    for (input, offset) in [
        ("abcé", 3u32),
        ("é", 0),
        ("xyzzy\u{3b1}\u{3b2}", 5),
        ("a\u{1f600}", 1),
        ("run\u{800}tail", 3),
    ] {
        let (v, s) = both_modes(|| (describe(&p.parse(input)), describe(&vm.parse(input))));
        assert_eq!(v, s, "modes diverged on {input:?}");
        let want = format!("reject at {offset}");
        assert_eq!(v.0, want, "interp on {input:?}");
        assert_eq!(v.1, want, "vm on {input:?}");
    }
    // A run that reaches EOF accepts identically in both modes.
    let (v, s) = both_modes(|| (describe(&p.parse("abc")), describe(&vm.parse("abc"))));
    assert_eq!(v, s);
    assert_eq!(v.0, "accept: (W.W \"abc\")");
}

#[test]
fn negated_classes_scan_non_ascii_identically() {
    let p = compile(
        "module s; public Node L = <L> $([^;\u{3b1}]*) (\";\" / \"\u{3b1}\")? !. ;",
        "s",
    );
    let vm = VmProgram::from_compiled(&p).unwrap();
    for input in [
        "héllo wörld;",
        "\u{4e2d}\u{6587} text \u{1f600}\u{3b1}",
        "pure ascii",
        "\u{3b1}",
        ";",
        "",
        "tail runs past é and \u{10ffff} to EOF",
    ] {
        let (v, s) = both_modes(|| (describe(&p.parse(input)), describe(&vm.parse(input))));
        assert_eq!(v, s, "modes diverged on {input:?}");
        assert_eq!(v.0, v.1, "engines diverged on {input:?}");
    }
}

/// One governed tree-mode run, fingerprinted: verdict description, full
/// stats, and governor step total.
fn governed(engine: &dyn Engine, doc: &str, fuel: Option<u64>) -> (String, Stats, u64) {
    let gov = match fuel {
        Some(f) => Governor::new().with_fuel(f),
        None => Governor::new(),
    };
    let (r, stats) = engine.run(doc, ParseRequest::tree().governed(&gov));
    let verdict = match r {
        Ok(p) => format!("accept: {}", p.into_tree().to_sexpr()),
        Err(ParseFault::Syntax(e)) => format!("reject at {}", e.offset()),
        Err(ParseFault::Abort(kind)) => format!("abort: {kind:?}"),
    };
    (verdict, stats, gov.steps())
}

#[test]
fn every_fuel_point_inside_a_bulk_run_aborts_at_the_scalar_boundary() {
    // The whole document is one class run crossing 2-, 3-, and 4-byte
    // scalars, so most fuel points land *inside* the vectorized scan
    // and must be unwound to the exact per-character tick the scalar
    // loop charges.
    let p = compile(
        "module s; public Node W = <W> $([a-z\u{e9}-\u{ffff}\u{1f600}]*) !. ;",
        "s",
    );
    let vm = VmProgram::from_compiled(&p).unwrap();
    let doc = "abc\u{e9}\u{e9}def\u{800}ghi\u{1f600}\u{4e2d}jklmnop".repeat(3);

    let prior = scan::scalar_forced();
    for engine in [&p as &dyn Engine, &vm] {
        let name = engine.name();
        scan::force_scalar(false);
        let (verdict, _, total) = governed(engine, &doc, None);
        assert!(
            verdict.starts_with("accept"),
            "{name}: workload document rejected"
        );
        assert!(total > 8, "{name}: document too cheap to be interesting");

        for fuel in 0..=total {
            scan::force_scalar(false);
            let v = governed(engine, &doc, Some(fuel));
            scan::force_scalar(true);
            let s = governed(engine, &doc, Some(fuel));
            assert_eq!(v, s, "{name}: modes diverged at fuel {fuel}/{total}");
            if fuel < total {
                assert_eq!(
                    v.0,
                    format!("abort: {:?}", ParseAbort::FuelExhausted),
                    "{name}: fuel {fuel}/{total} should starve"
                );
            } else {
                assert!(v.0.starts_with("accept"), "{name}: exact fuel completes");
            }
        }
    }
    scan::force_scalar(prior);
}
