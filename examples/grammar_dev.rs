//! The grammar-developer workflow: lint → coverage → trace.
//!
//! A tour of the tooling a grammar author uses while evolving a language:
//! composition lints catch dead/shadowed alternatives introduced by a
//! modification, coverage shows which alternatives a test corpus actually
//! exercises, and tracing explains a single confusing parse.
//!
//! ```sh
//! cargo run --example grammar_dev
//! ```

use modpeg::prelude::*;
use modpeg::telemetry::export::trace_text;
use modpeg::telemetry::{mask, Telemetry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deliberately flawed extension: the new alternative duplicates an
    // existing one, and a keyword is inserted before its own prefix.
    let flawed = modpeg::compile(
        [
            modpeg::grammars::sources::JAVA,
            "module sloppy;\n\
             modify java.Stmt;\n\
             import java.Lexical;\n\
             Statement += <Empty2> SEMI ;",
            "module dev; import java.Program; import sloppy; public Start = Program ;",
        ],
        "dev",
        Some("Start"),
    )?;
    println!("== lint (flawed extension) ==");
    for w in modpeg::core::analysis::lint(flawed.grammar()) {
        if !w.message().contains("unreachable from the root") {
            println!("  {w}");
        }
    }

    // Coverage: run the test corpus over the base grammar and list holes.
    println!("\n== coverage of a 3-program corpus ==");
    let g = modpeg::grammars::java_grammar()?;
    let parser = CompiledGrammar::compile(&g, OptConfig::all())?;
    let mut total: Option<modpeg::interp::Coverage> = None;
    for seed in 0..3u64 {
        let program = modpeg_workload::java_program(seed, 6_000);
        let (r, cov) = parser.parse_with_coverage(&program);
        r.expect("workload parses");
        match &mut total {
            None => total = Some(cov),
            Some(t) => t.absorb(&cov),
        }
    }
    let total = total.expect("three runs");
    println!(
        "  {}/{} alternatives exercised ({:.0}%)",
        total.covered_count(),
        total.alternative_count(),
        total.ratio() * 100.0
    );
    for (prod, alt) in total.uncovered().into_iter().take(6) {
        println!("  never matched: {prod} {alt}");
    }
    println!("  …");

    // Trace: why does `x = = 1;` fail?
    println!("\n== trace of a failing parse (first 25 events) ==");
    let stmt = parser.with_root("Statement")?;
    let telem = Telemetry::collector(10_000).with_mask(mask::TRACE);
    let (result, _) = stmt.run("x = = 1;", ParseRequest::tree().with_telemetry(&telem));
    for line in trace_text(&telem.take_report()).lines().take(25) {
        println!("  {line}");
    }
    if let Err(e) = result {
        println!("  => {e}");
    }
    Ok(())
}
