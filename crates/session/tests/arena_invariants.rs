//! Arena soundness across session reuse: the per-parse value arena lives
//! inside the session's [`ChunkMemo`], so handing a session a new
//! document with [`ParseSession::set_text`] also recycles the region its
//! entries point into. These tests drive [`ArenaInvariants`] (the same
//! checks the engines run as debug assertions) across the reset/recycle
//! lifecycle, and pin the two failure modes recycling could introduce:
//! stale node indices surviving a reset, and incremental edits
//! resurrecting values from a parse of a *different* document. Long edit scripts pin the session's compaction:
//! the region stays within a small multiple of a fresh parse's, and a
//! compacted region passes every invariant.

use std::rc::Rc;

use modpeg_core::{CharClass, Expr as E, Grammar, GrammarBuilder, ProdKind};
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{
    engine, ArenaInvariants, EventCounts, GovernorLimits, ParseAbort, ParseFault, ParseRequest,
    TreeBuilder,
};
use modpeg_session::ParseSession;
use modpeg_workload::rng::StdRng;

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
    if let Err(e) = ArenaInvariants::check(arena, session.text().len() as u32)
        .and_then(|()| ArenaInvariants::check_entries(session.memo()))
    {
        panic!("arena invariants violated for {:?}: {e}", session.text());
    }
}

/// One seeded edit shaped like an editor's: the identifier or number
/// literal at or after a random offset is replaced by one of another
/// length (identifiers by `q…`, which no Java keyword starts with).
/// Keywords are left alone, so every text stays valid Java.
fn token_edit(text: &str, rng: &mut StdRng) -> (std::ops::Range<usize>, String) {
    const KEYWORDS: &[&str] = &[
        "boolean", "break", "char", "class", "continue", "do", "else", "false", "for", "if", "int",
        "new", "null", "return", "true", "void", "while",
    ];
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let b = text.as_bytes();
    loop {
        let mut i = rng.gen_range(0..b.len());
        while i < b.len() {
            if ident(b[i]) && (i == 0 || !ident(b[i - 1])) {
                let mut end = i;
                while end < b.len() && ident(b[end]) {
                    end += 1;
                }
                let quoted = i > 0 && matches!(b[i - 1], b'\'' | b'\\');
                if !quoted && !KEYWORDS.contains(&&text[i..end]) {
                    let number = b[i].is_ascii_digit();
                    let mut len = rng.gen_range(1..=8usize);
                    if len == end - i {
                        len += 1;
                    }
                    let token = (0..len)
                        .map(|k| match (number, k) {
                            (true, 0) => char::from(b'1' + rng.gen_range(0..9u8)),
                            (true, _) => char::from(b'0' + rng.gen_range(0..10u8)),
                            (false, 0) => 'q',
                            (false, _) => char::from(b'a' + rng.gen_range(0..26u8)),
                        })
                        .collect();
                    return (i..end, token);
                }
                i = end;
            } else {
                i += 1;
            }
        }
    }
}

/// Region nodes a fresh session holds after parsing `text`.
fn fresh_region(parser: &Rc<CompiledGrammar>, text: &str) -> usize {
    let mut fresh = ParseSession::new(Rc::clone(parser), text);
    fresh.parse().unwrap();
    fresh.memo().arena().len()
}

/// Edits `session` (a calc document) until a reparse compacts its region.
fn edit_until_compacted(session: &mut ParseSession) {
    let mut rng = StdRng::seed_from_u64(0xC0);
    for _ in 0..10_000 {
        let digits: Vec<usize> = session
            .text()
            .bytes()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let at = digits[rng.gen_range(0..digits.len())];
        let digit = char::from(b'1' + rng.gen_range(0..9u8)).to_string();
        session.apply_edit(at..at + 1, &digit);
        session.parse().unwrap();
        if session.last_stats().arena_compactions > 0 {
            return;
        }
    }
    panic!("10000 edits never compacted the region");
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
fn set_text_resets_the_region_and_bumps_the_generation() {
    let parser = calc();

    // First document: a long one fills the region.
    let mut session = ParseSession::new(parser, "(11+22)*(33+44)+(55-66)*(77+88)");
    session.parse().unwrap();
    check(&session);
    let first_generation = session.memo().arena().generation();
    let first_len = session.memo().arena().len();
    assert!(first_len > 0);

    // Second document: a much *shorter* one through the same memo. Any
    // node surviving the reset would carry spans beyond this input, which
    // the invariant check rejects; any handle kept from the first
    // document is invalidated by the generation bump.
    session.set_text("9-8");
    session.parse().unwrap();
    assert!(
        session.memo().arena().len() < first_len,
        "the parse must start from a cleared region"
    );
    assert!(
        session.memo().arena().generation() > first_generation,
        "a new document must bump the generation so stale handles cannot resolve"
    );
    check(&session);
}

#[test]
fn double_parse_through_recycling_is_deterministic() {
    let parser = calc();
    let doc = modpeg_workload::calc_expression(11, 200);
    let mut session = ParseSession::new(parser, "");
    let mut trees = Vec::new();
    for _ in 0..3 {
        session.set_text(doc.clone());
        trees.push(session.parse().unwrap().to_sexpr());
        check(&session);
    }
    assert_eq!(trees[0], trees[1]);
    assert_eq!(trees[1], trees[2]);
}

#[test]
fn session_event_stream_rebuilds_the_same_tree_as_parse() {
    let parser = calc();
    let doc = modpeg_workload::calc_expression(7, 400);

    let mut session = ParseSession::new(parser, doc.clone());
    let parsed = session.parse().unwrap().to_sexpr();
    check(&session);

    // A recycled session in event mode must stream a tree structurally
    // identical to what `parse` materializes — including after an edit.
    session.set_text(doc.clone());
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
fn long_edit_scripts_keep_the_region_bounded_and_trees_exact() {
    // Counts, not timings: a 32 KiB Java document through 400 seeded
    // token edits. A session that kept every reparse's nodes would hold
    // dozens of fresh regions by the end.
    let parser = compile(&modpeg_grammars::java_grammar().unwrap());
    let doc = modpeg_workload::java_program(5, 32 * 1024);
    let mut session = ParseSession::new(parser.clone(), doc);
    session.parse().unwrap();
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let mut fresh = fresh_region(&parser, session.text());
    let edits = 400;
    for i in 1..=edits {
        let (range, token) = token_edit(session.text(), &mut rng);
        session.apply_edit(range, &token);
        let tree = session.parse().unwrap();
        let checkpoint = i % 25 == 0 || i == edits;
        if checkpoint {
            fresh = fresh_region(&parser, session.text());
            assert_eq!(
                tree.to_sexpr(),
                parser.parse(session.text()).unwrap().to_sexpr(),
                "edit {i}: session tree diverged from a scratch parse"
            );
        }
        let region = session.memo().arena().len();
        assert!(
            region <= 3 * fresh,
            "edit {i}: region of {region} nodes exceeds 3x a fresh session's {fresh}"
        );
        let stats = session.last_stats();
        if stats.arena_compactions > 0 {
            assert!(
                4 * region <= 5 * fresh,
                "edit {i}: compacted region of {region} nodes exceeds 1.25x a fresh session's {fresh}"
            );
            assert!(stats.arena_nodes_reclaimed > 0, "{stats:?}");
            check(&session);
        }
    }
    let totals = session.stats();
    assert!(
        totals.arena_compactions > 0,
        "{edits} edits never compacted: {totals:?}"
    );
    assert!(totals.arena_nodes_reclaimed > 0, "{totals:?}");
    assert!(
        totals.to_string().contains("compactions ("),
        "the incremental line reports compactions:\n{totals}"
    );
    // Fresh parses never compact.
    let (_, scratch) = parser.parse_with_stats(session.text());
    assert_eq!(
        (scratch.arena_compactions, scratch.arena_nodes_reclaimed),
        (0, 0)
    );
}

#[test]
fn compacted_sessions_serve_every_request_kind() {
    let parser = calc();
    let policy = parser.recover_policy();
    let mut session = ParseSession::new(parser.clone(), modpeg_workload::calc_expression(3, 2_000));
    session.parse().unwrap();
    edit_until_compacted(&mut session);
    check(&session);

    // Events and a resilient reparse of a malformed edit agree with
    // scratch parses of the same text.
    session.apply_edit(0..1, "7");
    let mut builder = TreeBuilder::new();
    session.run(ParseRequest::events(&mut builder)).0.unwrap();
    let rebuilt = builder.finish().expect("balanced event stream");
    assert_eq!(
        modpeg_runtime::SyntaxTree::new(session.text(), rebuilt).to_sexpr(),
        parser.parse(session.text()).unwrap().to_sexpr()
    );
    let mut counts = EventCounts::default();
    session.run(ParseRequest::events(&mut counts)).0.unwrap();
    assert!(counts.nodes > 0);
    let len = session.text().len();
    session.apply_edit(len - 1..len, "+?");
    let rec = engine::recovered_result(session.run(ParseRequest::resilient(&policy)));
    let scratch = parser.parse_resilient(session.text(), &policy);
    assert_eq!(rec.tree.to_sexpr(), scratch.tree.to_sexpr());
    assert_eq!(
        rec.diagnostics.error_count(),
        scratch.diagnostics.error_count()
    );
    assert!(!rec.diagnostics.is_clean());
}

#[test]
fn edit_after_abort_on_a_compacted_session() {
    let parser = calc();
    let mut session = ParseSession::new(parser.clone(), modpeg_workload::calc_expression(9, 2_000));
    session.parse().unwrap();
    edit_until_compacted(&mut session);
    let generation = session.memo().arena().generation();

    // Zero fuel trips on the first tick, memo hits or not.
    session.apply_edit(0..0, "0+");
    let gov = GovernorLimits {
        fuel: Some(0),
        ..GovernorLimits::none()
    }
    .governor();
    match session.run(ParseRequest::tree().governed(&gov)).0 {
        Err(ParseFault::Abort(ParseAbort::FuelExhausted)) => {}
        other => panic!("expected a fuel abort, got {other:?}"),
    }
    session.apply_edit(0..1, "5");
    let tree = session.parse().unwrap();
    assert_eq!(
        tree.to_sexpr(),
        parser.parse(session.text()).unwrap().to_sexpr()
    );
    assert_eq!(
        session.memo().arena().generation(),
        generation,
        "nothing reset the region"
    );
    // Keep editing through the next compaction: still exact and sound.
    edit_until_compacted(&mut session);
    assert_eq!(
        session.parse().unwrap().to_sexpr(),
        parser.parse(session.text()).unwrap().to_sexpr()
    );
    check(&session);
}

#[test]
fn set_text_recycles_a_compacted_table() {
    let parser = calc();
    let mut session = ParseSession::new(parser.clone(), modpeg_workload::calc_expression(4, 2_000));
    session.parse().unwrap();
    edit_until_compacted(&mut session);
    let generation = session.memo().arena().generation();
    let compacted_len = session.memo().arena().len();

    session.set_text("(1+2)*3");
    assert_eq!(
        session.parse().unwrap().to_sexpr(),
        parser.parse("(1+2)*3").unwrap().to_sexpr()
    );
    assert!(session.memo().arena().len() < compacted_len);
    assert!(session.memo().arena().generation() > generation);
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
        assert_eq!(
            incremental.is_ok(),
            scratch.is_ok(),
            "on {:?}",
            session.text()
        );
        if let (Ok(a), Ok(b)) = (incremental, scratch) {
            assert_eq!(a.to_sexpr(), b.to_sexpr(), "on {:?}", session.text());
        }
    }
    // The region still holds nodes built for the longer texts, with
    // spans past the end of this one; compaction keeps only what the
    // memo reaches, in current coordinates.
    edit_until_compacted(&mut session);
    check(&session);
    assert_eq!(
        session.parse().unwrap().to_sexpr(),
        parser.parse(session.text()).unwrap().to_sexpr()
    );
}

#[test]
fn stateful_typedef_grammar_stays_sound_across_recycling() {
    let parser = compile(&typedef_grammar());
    assert!(parser.uses_state());

    let mut session = ParseSession::new(parser.clone(), "def foo;foo;foo;");
    session.parse().unwrap();
    check(&session);

    // The recycled region must not leak the first document's definitions
    // or values: renaming the decl invalidates the distant uses.
    session.set_text("def bar;bar;");
    session.parse().unwrap();
    check(&session);
    session.apply_edit(4..7, "qux");
    assert_eq!(session.text(), "def qux;bar;");
    assert!(
        session.parse().is_err(),
        "stale `bar` must not stay defined"
    );
    session.apply_edit(8..12, "qux;");
    assert_eq!(session.text(), "def qux;qux;");
    let tree = session.parse().unwrap();
    assert_eq!(
        tree.to_sexpr(),
        parser.parse("def qux;qux;").unwrap().to_sexpr()
    );
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

    // And the memo takes a new document like any other.
    session.set_text("1+1");
    session.parse().unwrap();
    check(&session);
}

#[test]
fn edited_deep_chain_copies_out_on_a_small_stack() {
    // An edit leaves shifted handles to reused subtrees in the left-deep
    // tree of a long chain: the explicit-stack copy-out must translate
    // them, on a stack far smaller than one frame per level needs.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let parser = calc();
            let mut session =
                ParseSession::new(parser.clone(), format!("1{}", "+1".repeat(20_000)));
            session.parse().unwrap();
            session.apply_edit(0..1, "22");
            let tree = session.parse().unwrap();
            assert!(session.last_stats().memo_columns_reused > 0);
            assert_eq!(
                tree.to_sexpr(),
                parser.parse(session.text()).unwrap().to_sexpr()
            );
        })
        .expect("spawns the worker")
        .join()
        .expect("the edited chain reparses and copies out");
}

#[test]
fn deep_chain_session_compacts_on_a_small_stack() {
    // Compaction copies the left-deep tree of a 128K-level chain into the
    // next region: its explicit frame stack must fit a 2 MiB thread.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let parser = calc();
            let mut session =
                ParseSession::new(parser.clone(), format!("1{}", "+1".repeat(128 * 1024)));
            session.parse().unwrap();
            let mut compactions = 0;
            for digit in ["2", "3", "4"] {
                session.apply_edit(0..1, digit);
                let tree = session.parse().unwrap();
                compactions += session.last_stats().arena_compactions;
                assert_eq!(
                    tree.to_sexpr(),
                    parser.parse(session.text()).unwrap().to_sexpr()
                );
            }
            assert!(compactions > 0, "no reparse compacted the region");
        })
        .expect("spawns the worker")
        .join()
        .expect("the compacted chain reparses on a small stack");
}
