//! Arena soundness across session reuse: the per-parse value arena lives
//! inside the session's [`ChunkMemo`], so recycling a memo table through a
//! [`SessionPool`] also recycles the region its entries point into. These
//! tests drive [`ArenaInvariants`] (the same checks the engines run as
//! debug assertions) across the reset/recycle lifecycle, and pin the two
//! failure modes recycling could introduce: stale node indices surviving a
//! reset, and incremental edits resurrecting values from a parse of a
//! *different* document.

use std::rc::Rc;

use modpeg_core::{CharClass, Expr as E, Grammar, GrammarBuilder, ProdKind};
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{ArenaInvariants, GovernorLimits, ParseAbort, ParseFault, ParseRequest};
use modpeg_session::{ParseSession, SessionPool};

fn compile(g: &Grammar) -> Rc<CompiledGrammar> {
    Rc::new(CompiledGrammar::compile(g, OptConfig::incremental()).unwrap())
}

fn calc() -> Rc<CompiledGrammar> {
    compile(&modpeg_grammars::calc_grammar().unwrap())
}

/// Decl defines a name; Use only matches defined names. Stateful, so the
/// session falls back to full reparses — the arena still recycles.
fn typedef_grammar() -> Grammar {
    let lc = || E::Class(CharClass::from_ranges(vec![('a', 'z')], false));
    let mut b = GrammarBuilder::new("m");
    b.production(
        "Prog",
        ProdKind::Node,
        vec![(Some("P".into()), E::Plus(Box::new(E::Ref("Item".into()))))],
    );
    b.production(
        "Item",
        ProdKind::Node,
        vec![
            (
                Some("Decl".into()),
                E::seq(vec![
                    E::literal("def "),
                    E::StateDefine(Box::new(E::Ref("Name".into()))),
                    E::literal(";"),
                ]),
            ),
            (
                Some("Use".into()),
                E::seq(vec![
                    E::StateIsDef(Box::new(E::Ref("Name".into()))),
                    E::literal(";"),
                ]),
            ),
        ],
    );
    b.production(
        "Name",
        ProdKind::Text,
        vec![(None, E::Capture(Box::new(E::Plus(Box::new(lc())))))],
    );
    b.build("Prog").unwrap()
}

fn check(session: &ParseSession) {
    let arena = session.memo().arena();
    if let Err(e) = ArenaInvariants::check(arena, session.text().len() as u32) {
        panic!("arena invariants violated for {:?}: {e}", session.text());
    }
}

#[test]
fn fresh_parse_satisfies_every_invariant() {
    let parser = calc();
    let mut session = ParseSession::new(parser, "(1+2)*(3+4)-5");
    session.parse().unwrap();
    assert!(
        !session.memo().arena().is_empty(),
        "arena parses allocate nodes"
    );
    check(&session);
}

#[test]
fn pool_recycle_resets_the_region_and_bumps_the_generation() {
    let parser = calc();
    let mut pool = SessionPool::new(parser);

    // First tenant: a long document fills the region.
    let mut session = pool.session("(11+22)*(33+44)+(55-66)*(77+88)");
    session.parse().unwrap();
    check(&session);
    let first_generation = session.memo().arena().generation();
    assert!(!session.memo().arena().is_empty());
    pool.recycle(session);

    // Second tenant: a much *shorter* document through the recycled memo.
    // Any node surviving the reset would carry spans beyond this input,
    // which the invariant check rejects; any handle kept from the first
    // tenant is invalidated by the generation bump.
    let mut session = pool.session("9-8");
    assert_eq!(
        session.memo().arena().len(),
        0,
        "recycling must clear the region before the next parse"
    );
    assert!(
        session.memo().arena().generation() > first_generation,
        "recycling must bump the generation so stale handles cannot resolve"
    );
    session.parse().unwrap();
    check(&session);
}

#[test]
fn double_parse_through_recycling_is_deterministic() {
    let parser = calc();
    let doc = modpeg_workload::calc_expression(11, 200);
    let mut pool = SessionPool::new(parser);
    let mut trees = Vec::new();
    for _ in 0..3 {
        let mut session = pool.session(doc.clone());
        trees.push(session.parse().unwrap().to_sexpr());
        check(&session);
        pool.recycle(session);
    }
    assert_eq!(trees[0], trees[1]);
    assert_eq!(trees[1], trees[2]);
}

#[test]
fn session_event_stream_rebuilds_the_same_tree_as_parse() {
    let parser = calc();
    let doc = modpeg_workload::calc_expression(7, 400);
    let mut pool = SessionPool::new(parser);

    let mut session = pool.session(doc.clone());
    let parsed = session.parse().unwrap().to_sexpr();
    check(&session);
    pool.recycle(session);

    // A recycled session in event mode must stream a tree structurally
    // identical to what `parse` materializes — including after an edit.
    let mut session = pool.session(doc.clone());
    let mut builder = modpeg_runtime::TreeBuilder::new();
    session.run(ParseRequest::events(&mut builder)).0.unwrap();
    let rebuilt = builder.finish().expect("balanced event stream");
    let streamed = modpeg_runtime::SyntaxTree::new(session.text(), rebuilt).to_sexpr();
    assert_eq!(streamed, parsed);
    check(&session);

    session.apply_edit(0..1, "9");
    let edited = session.parse().unwrap().to_sexpr();
    let mut builder = modpeg_runtime::TreeBuilder::new();
    session.run(ParseRequest::events(&mut builder)).0.unwrap();
    let rebuilt = builder.finish().expect("balanced event stream");
    assert_eq!(
        modpeg_runtime::SyntaxTree::new(session.text(), rebuilt).to_sexpr(),
        edited
    );
    check(&session);
}

#[test]
fn shrinking_edits_never_resurrect_stale_node_indices() {
    // Deletions are the dangerous direction: the arena keeps orphaned
    // nodes from the longer pre-edit document, and a parse that reached
    // into them would either trip `copy_out`'s generation asserts or
    // produce a tree that disagrees with a scratch parse.
    let parser = calc();
    let mut session = ParseSession::new(parser.clone(), "(11+22)*(33+44)+(55-66)");
    session.parse().unwrap();
    for _ in 0..4 {
        let len = session.text().len();
        // Drop a parenthesized group's worth of text from the middle.
        session.apply_edit(len / 2 - 2..len / 2 + 2, "");
        let incremental = session.parse();
        let scratch = parser.parse(session.text());
        assert_eq!(incremental.is_ok(), scratch.is_ok(), "on {:?}", session.text());
        if let (Ok(a), Ok(b)) = (incremental, scratch) {
            assert_eq!(a.to_sexpr(), b.to_sexpr(), "on {:?}", session.text());
        }
    }
}

#[test]
fn stateful_typedef_grammar_stays_sound_across_recycling() {
    let parser = compile(&typedef_grammar());
    assert!(parser.uses_state());
    let mut pool = SessionPool::new(parser.clone());

    let mut session = pool.session("def foo;foo;foo;");
    session.parse().unwrap();
    check(&session);
    pool.recycle(session);

    // The recycled region must not leak the first session's definitions
    // or values: renaming the decl invalidates the distant uses.
    let mut session = pool.session("def bar;bar;");
    session.parse().unwrap();
    check(&session);
    session.apply_edit(4..7, "qux");
    assert_eq!(session.text(), "def qux;bar;");
    assert!(session.parse().is_err(), "stale `bar` must not stay defined");
    session.apply_edit(8..12, "qux;");
    assert_eq!(session.text(), "def qux;qux;");
    let tree = session.parse().unwrap();
    assert_eq!(tree.to_sexpr(), parser.parse("def qux;qux;").unwrap().to_sexpr());
}

#[test]
fn edit_after_abort_parses_cleanly_from_a_sound_region() {
    let parser = calc();
    let mut session = ParseSession::new(parser.clone(), "(1+2)*(3+4)+(5-6)*(7+8)");
    session.parse().unwrap();

    // Starve a reparse of fuel mid-flight, leaving the arena holding
    // whatever the aborted run had allocated so far.
    session.apply_edit(0..1, "((");
    let limits = GovernorLimits {
        fuel: Some(10),
        ..GovernorLimits::none()
    };
    let gov = limits.governor();
    match session.run(ParseRequest::tree().governed(&gov)).0 {
        Err(ParseFault::Abort(ParseAbort::FuelExhausted)) => {}
        other => panic!("expected a fuel abort, got {other:?}"),
    }

    // Editing and reparsing after the abort must neither resurrect the
    // aborted run's partial values nor trip generation asserts.
    session.apply_edit(0..1, "");
    assert_eq!(session.text(), "(1+2)*(3+4)+(5-6)*(7+8)");
    let tree = session.parse().unwrap();
    assert_eq!(
        tree.to_sexpr(),
        parser.parse(session.text()).unwrap().to_sexpr()
    );

    // And the memo recycles into a pool like any other.
    let mut pool = SessionPool::new(parser);
    pool.recycle(session);
    let mut session = pool.session("1+1");
    session.parse().unwrap();
    check(&session);
}
