//! Cross-crate integration tests of the incremental session layer as
//! exposed through the `modpeg` facade (the README example, essentially).

use std::rc::Rc;

use modpeg::prelude::*;

fn calc_parser() -> Rc<CompiledGrammar> {
    let grammar = modpeg::grammars::calc_grammar().expect("calc elaborates");
    Rc::new(CompiledGrammar::compile(&grammar, OptConfig::incremental()).expect("calc compiles"))
}

#[test]
fn facade_session_reuses_memo_across_edits() {
    let parser = calc_parser();
    let doc = "(1 + 2) * (3 + 4) - (5 * 6) + 7";
    let mut session = ParseSession::new(Rc::clone(&parser), doc);
    assert!(session.is_incremental());
    let before = session.parse().expect("parses").to_sexpr();

    // Replace the trailing "7" — the parenthesized groups to the left
    // never looked past themselves, so their memo columns survive.
    session.apply_edit(30..31, "(8 - 9)");
    let after = session.parse().expect("reparses");
    assert_ne!(before, after.to_sexpr());
    assert_eq!(
        after.to_sexpr(),
        parser
            .parse("(1 + 2) * (3 + 4) - (5 * 6) + (8 - 9)")
            .expect("parses")
            .to_sexpr(),
        "incremental reparse agrees with a scratch parse"
    );
    assert!(
        session.last_stats().memo_columns_reused > 0,
        "the edit left reusable columns: {:?}",
        session.last_stats()
    );
}

#[test]
fn facade_session_takes_a_new_document() {
    let parser = calc_parser();
    let mut session = ParseSession::new(Rc::clone(&parser), "(1 + 2) * 3");
    session.parse().expect("parses");
    session.set_text("4 - (5 * 6)");
    assert_eq!(
        session.parse().expect("parses").to_sexpr(),
        parser.parse("4 - (5 * 6)").expect("parses").to_sexpr()
    );
    assert_eq!(session.last_stats().memo_columns_reused, 0);
}
