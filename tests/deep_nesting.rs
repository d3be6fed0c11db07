//! Regression: pathologically nested input must never crash an engine.
//!
//! `data/deep_nesting.json` is a valid JSON document nested 100 000 arrays
//! deep — far beyond what any thread stack can evaluate recursively. Before
//! the resource-governance layer, every engine (interpreter, generated
//! parsers, incremental sessions, backtracking baseline) overflowed its
//! stack on this file and killed the process. Each must now come back with
//! a structured depth verdict instead.

use std::rc::Rc;

use modpeg::interp::{CompiledGrammar, OptConfig};
use modpeg::runtime::{Engine, Governor, ParseAbort, ParseFault, ParseRequest, DEFAULT_MAX_DEPTH};
use modpeg::session::ParseSession;
use modpeg_baseline::BacktrackParser;

const DEEP: &str = include_str!("data/deep_nesting.json");

/// Sanity: the committed file is what the tests assume it is.
#[test]
fn regression_input_is_deeply_nested_and_valid_shaped() {
    let trimmed = DEEP.trim_end();
    let opens = trimmed.bytes().take_while(|&b| b == b'[').count();
    assert!(opens >= 100_000, "nesting eroded to {opens}");
    assert_eq!(trimmed.len(), 2 * opens + 1);
    assert!(trimmed.ends_with(']'));
}

#[test]
fn interpreter_aborts_gracefully_on_deep_nesting() {
    let g = modpeg::grammars::json_grammar().unwrap();
    for cfg in [OptConfig::none(), OptConfig::all()] {
        let parser = CompiledGrammar::compile(&g, cfg).unwrap();
        let gov = Governor::new();
        let (r, _) = parser.run(DEEP, ParseRequest::tree().governed(&gov));
        match r {
            Err(ParseFault::Abort(ParseAbort::DepthExceeded)) => {}
            other => panic!("expected depth abort, got {other:?}"),
        }
        assert_eq!(gov.tripped(), Some(ParseAbort::DepthExceeded));
    }
}

#[test]
fn generated_parser_aborts_gracefully_on_deep_nesting() {
    let gov = Governor::new();
    let (r, _) = modpeg::grammars::generated::json::run(DEEP, ParseRequest::tree().governed(&gov));
    assert_eq!(r.unwrap_err().abort(), Some(ParseAbort::DepthExceeded));
}

#[test]
fn session_survives_deep_nesting_and_stays_usable() {
    let g = modpeg::grammars::json_grammar().unwrap();
    let parser = Rc::new(CompiledGrammar::compile(&g, OptConfig::incremental()).unwrap());
    let mut session = ParseSession::new(parser, DEEP);
    let gov = Governor::new();
    let fault = session
        .run(ParseRequest::tree().governed(&gov))
        .0
        .unwrap_err();
    assert_eq!(fault.abort(), Some(ParseAbort::DepthExceeded));
    // The session recovers once the document is sane again.
    session.set_text("[[1, 2], {\"a\": [3]}]");
    assert!(session.parse().is_ok());
}

#[test]
fn baseline_recognizer_reports_depth_instead_of_crashing() {
    let g = modpeg::grammars::json_grammar().unwrap();
    let baseline = BacktrackParser::new(&g);
    let outcome = baseline.recognize_with_depth(DEEP, DEFAULT_MAX_DEPTH);
    assert!(outcome.depth_exceeded);
    // The plain API rejects conservatively rather than dying.
    assert!(baseline.recognize(DEEP).is_err());
}

/// The ceiling exists for nesting, not size: a wide-but-shallow document
/// of the same magnitude parses under the default governor everywhere.
#[test]
fn wide_documents_of_the_same_size_still_parse() {
    let wide = {
        let mut s = String::with_capacity(220_000);
        s.push('[');
        for i in 0..20_000 {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str("[1, 2]");
        }
        s.push(']');
        s
    };
    let gov = Governor::new();
    let (r, _) = modpeg::grammars::generated::json::run(&wide, ParseRequest::tree().governed(&gov));
    assert!(r.is_ok());
    let g = modpeg::grammars::json_grammar().unwrap();
    let parser = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
    let gov = Governor::new();
    assert!(parser
        .run(&wide, ParseRequest::tree().governed(&gov))
        .0
        .is_ok());
}
