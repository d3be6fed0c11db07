//! Edge-case integration tests for the interpreter: Unicode, deep
//! nesting, span tracking across configurations, root switching, and
//! oversized-input handling.

use modpeg_core::Diagnostics;
use modpeg_interp::{CompiledGrammar, OptConfig, OPT_COUNT};

fn compile(src: &str, root: &str, start: Option<&str>, cfg: OptConfig) -> CompiledGrammar {
    let g = modpeg_syntax::parse_module_set([src])
        .and_then(|set| set.elaborate(root, start))
        .unwrap_or_else(|e: Diagnostics| panic!("{e}"));
    CompiledGrammar::compile(&g, cfg).unwrap()
}

#[test]
fn unicode_classes_and_literals_across_configs() {
    let src = "module u;\n\
               public Node Word = <W> $([α-ωa-z]+) (\"→\" $([α-ω]+))? !. ;";
    for level in [0, 8, OPT_COUNT] {
        let p = compile(src, "u", None, OptConfig::cumulative(level));
        let t = p
            .parse("αβγ→δε")
            .unwrap_or_else(|e| panic!("level {level}: {e}"));
        assert_eq!(t.to_sexpr(), "(Word.W \"αβγ\" \"δε\")", "level {level}");
        assert!(p.parse("αβ→Q").is_err());
        // Multi-byte boundaries: a failure offset lands on a char boundary.
        let err = p.parse("αβ→").unwrap_err();
        assert!(err.offset() as usize <= "αβ→".len());
    }
}

#[test]
fn any_char_consumes_whole_scalar_values() {
    let p = compile(
        "module u; public Node P = <P> $(. . .) !. ;",
        "u",
        None,
        OptConfig::all(),
    );
    let t = p.parse("é中z").unwrap();
    assert_eq!(t.to_sexpr(), "(P.P \"é中z\")");
    assert!(p.parse("ab").is_err());
}

#[test]
fn deep_nesting_does_not_overflow() {
    // Recursive descent keeps one stack frame chain per nesting level;
    // run the deep case on a thread with a generous stack so the test is
    // stable in debug builds too. (Grammars hold `Rc`s and are not Send,
    // so the thread builds its own copy.)
    let handle = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || {
            let g = modpeg_grammars::calc_grammar().unwrap();
            let p = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
            let depth = 2_000;
            let input = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
            let t = p.parse(&input).expect("deeply nested parens parse");
            assert!(t.to_sexpr().contains("Atom.Paren"));
            let naive = CompiledGrammar::compile(&g, OptConfig::none()).unwrap();
            let input = format!("{}1{}", "(".repeat(300), ")".repeat(300));
            assert!(naive.parse(&input).is_ok());
        })
        .unwrap();
    handle.join().unwrap();
}

#[test]
fn spans_agree_across_configs_when_requested() {
    let src = "module s; option withLocation;\n\
               public Node Pair = <P> Word \",\" Word !. ;\n\
               String Word = $[a-z]+ ;";
    let mut reference: Option<Vec<(String, u32, u32)>> = None;
    for level in [0, 6, 10, OPT_COUNT] {
        let p = compile(src, "s", None, OptConfig::cumulative(level));
        let t = p.parse("ab,cde").unwrap();
        let spans: Vec<(String, u32, u32)> = t
            .nodes()
            .iter()
            .filter_map(|n| {
                n.span()
                    .map(|s| (n.kind().as_str().to_owned(), s.lo(), s.hi()))
            })
            .collect();
        assert_eq!(spans, vec![("Pair.P".to_owned(), 0, 6)], "level {level}");
        match &reference {
            None => reference = Some(spans),
            Some(r) => assert_eq!(r, &spans, "level {level}"),
        }
    }
}

#[test]
fn with_root_reuses_the_same_grammar() {
    let g = modpeg_grammars::java_grammar().unwrap();
    let full = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
    // Parse a bare expression by re-rooting at Expression.
    let exprs = full.with_root("Expression").unwrap();
    let t = exprs.parse("a + b * c").unwrap();
    assert!(t.to_sexpr().contains("AddExpr.Add"), "{}", t.to_sexpr());
    // Statements too.
    let stmts = full.with_root("Statement").unwrap();
    assert!(stmts.parse("while (x > 0) { x = x - 1; }").is_ok());
    assert!(stmts.parse("class A {}").is_err());
}

#[test]
fn empty_input_and_empty_grammar_productions() {
    let p = compile(
        "module m; public Node P = <P> \"\"? !. ;",
        "m",
        None,
        OptConfig::all(),
    );
    assert!(p.parse("").is_ok());
    assert!(p.parse("x").is_err());
}

#[test]
fn error_expectations_name_terminals() {
    let g = modpeg_grammars::json_grammar().unwrap();
    let p = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
    let err = p.parse("{\"k\" 1}").unwrap_err();
    // After the key the grammar expects a colon.
    let expected = err.expected().join(" ");
    assert!(expected.contains(':'), "{expected}");
    assert_eq!(err.offset(), 5);
}

#[test]
fn parse_prefix_consumes_maximal_root_match() {
    let g = modpeg_grammars::calc_grammar().unwrap();
    let p = CompiledGrammar::compile(&g, OptConfig::all())
        .unwrap()
        .with_root("Expr")
        .unwrap();
    let (tree, end) = p.parse_prefix("1+2 junk").unwrap();
    assert_eq!(end, 4, "trailing spacing of the last token is consumed");
    assert!(tree.to_sexpr().contains("Expr.Add"));
}

#[test]
fn parse_incremental_empty_input_round_trips() {
    use modpeg_runtime::{ChunkMemo, ParseRequest};
    let p = compile(
        "module m; public Node P = <P> \"a\"* !. ;",
        "m",
        None,
        OptConfig::incremental(),
    );
    // Empty document: parse, grow it with an edit, shrink back to empty.
    let mut memo = ChunkMemo::new(p.memo_slot_count(), 0);
    let (r, _) = p.run_incremental("", ParseRequest::tree(), &mut memo);
    assert!(r.is_ok(), "empty input: {r:?}");
    memo.apply_edit(0, 0, 2);
    let (r, _) = p.run_incremental("aa", ParseRequest::tree(), &mut memo);
    assert!(r.is_ok(), "after insertion: {r:?}");
    memo.apply_edit(0, 2, 0);
    let (r, _) = p.run_incremental("", ParseRequest::tree(), &mut memo);
    assert!(r.is_ok(), "back to empty: {r:?}");
}

#[test]
fn parse_incremental_eof_watermark_invalidates_on_append() {
    use modpeg_runtime::{ChunkMemo, ParseRequest};
    // The root peeks EOF via `!.`, so its memo entry at column 0 examined
    // one byte *past* the end of input. Appending at exactly the old EOF
    // must invalidate that entry — reusing it would wrongly accept the
    // shorter prefix.
    let p = compile(
        "module m; public Node P = <P> $[0-9]+ !. ;",
        "m",
        None,
        OptConfig::incremental(),
    );
    let mut memo = ChunkMemo::new(p.memo_slot_count(), 3);
    let (r, _) = p.run_incremental("123", ParseRequest::tree(), &mut memo);
    assert!(r.is_ok());
    // Append one digit at EOF (offset 3).
    memo.apply_edit(3, 0, 1);
    let (r, stats) = p.run_incremental("1234", ParseRequest::tree(), &mut memo);
    assert!(r.is_ok(), "append at EOF: {r:?}");
    assert_eq!(
        stats.memo_columns_reused, 0,
        "the EOF-peeking root entry must not survive an append at the watermark"
    );
    // And an edit *past* the old watermark on the grown document still
    // reparses correctly to a rejection when the input turns invalid.
    memo.apply_edit(4, 0, 1);
    let (r, _) = p.run_incremental("1234x", ParseRequest::tree(), &mut memo);
    assert!(r.is_err(), "trailing junk must reject");
}
