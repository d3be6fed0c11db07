//! Cross-crate integration tests of the module system: composition
//! scenarios exercised end-to-end through the textual module language.

use modpeg::prelude::*;

#[test]
fn two_instances_make_unqualified_references_ambiguous() {
    let parser = modpeg::compile(
        [
            "module util.List(Items);\n\
             public Node List = <L> \"[\" Item (\",\" Item)* \"]\" ;",
            "module digits; public String Item = $[0-9]+ ;",
            "module words;  public String Item = $[a-z]+ ;",
            "module main;\n\
             instantiate util.List(digits) as D;\n\
             instantiate util.List(words) as W;\n\
             public Node Doc = <Doc> List !. ;",
        ],
        "main",
        Some("Doc"),
    );
    // `List` is ambiguous between the two instances — expect a clean error.
    let err = parser.unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn qualified_use_via_wrapper_modules() {
    // The supported pattern for multiple instances: give each instance a
    // wrapper module with a distinct production name.
    let parser = modpeg::compile(
        [
            "module util.List(Items);\n\
             public Node List = <L> \"[\" Item (\",\" Item)* \"]\" ;",
            "module digits; public String Item = $[0-9]+ ;",
            "module main;\n\
             instantiate util.List(digits) as D;\n\
             public Node Doc = <Doc> List !. ;",
        ],
        "main",
        Some("Doc"),
    )
    .expect("single instance resolves fine");
    let tree = parser.parse("[1,2,33]").unwrap();
    assert_eq!(tree.to_sexpr(), "(Doc.Doc (List.L \"1\" [\"2\" \"33\"]))");
}

#[test]
fn chained_modifications_compose_in_import_order() {
    let parser = modpeg::compile(
        [
            "module base; public Node X = <A> \"a\" ;",
            "module ext1; modify base; X += <B> \"b\" ;",
            "module ext2; modify base; X += <C> \"c\" / ... ;",
            "module main; import base; import ext1; import ext2;\n\
             public Node Doc = X !. ;",
        ],
        "main",
        Some("Doc"),
    )
    .unwrap();
    // ext1 appended <B>; ext2 prepended <C>. Doc wraps the X node.
    for (input, kind) in [("a", "X.A"), ("b", "X.B"), ("c", "X.C")] {
        let t = parser.parse(input).unwrap();
        let doc = t.root().as_node().unwrap();
        let x = doc.child(0).and_then(|v| v.as_node()).unwrap();
        assert_eq!(x.kind().as_str(), kind);
    }
}

#[test]
fn override_replaces_and_remove_deletes() {
    let parser = modpeg::compile(
        [
            "module base; public Node X = <A> \"a\" / <B> \"b\" / <C> \"c\" ;",
            "module ext; modify base;\n\
             X -= <B> ;\n\
             X := <Z> \"z\" / ... ;",
            "module main; import base; import ext; public Node Doc = X !. ;",
        ],
        "main",
        Some("Doc"),
    )
    .unwrap();
    assert!(parser.parse("z").is_ok());
    assert!(parser.parse("a").is_ok());
    assert!(parser.parse("b").is_err(), "removed alternative");
    assert!(parser.parse("c").is_ok());
}

#[test]
fn modification_of_unimported_module_does_not_leak() {
    // Two roots over the same base: one imports the extension, one
    // doesn't; each elaboration is independent.
    let base = "module base; public Node X = <A> \"a\" ;";
    let ext = "module ext; modify base; X += <B> \"b\" ;";
    let plain = modpeg::compile(
        [base, ext, "module m1; import base; public Node D = X !. ;"],
        "m1",
        Some("D"),
    )
    .unwrap();
    let extended = modpeg::compile(
        [
            base,
            ext,
            "module m2; import base; import ext; public Node D = X !. ;",
        ],
        "m2",
        Some("D"),
    )
    .unwrap();
    assert!(plain.parse("b").is_err());
    assert!(extended.parse("b").is_ok());
}

#[test]
fn diagnostics_carry_module_context() {
    let err = modpeg::compile(["module m; public Node X = Undefined ;"], "m", None).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("module m"), "{text}");
    assert!(text.contains("undefined nonterminal `Undefined`"), "{text}");
}

#[test]
fn with_location_option_adds_spans() {
    let parser = modpeg::compile(
        ["module m; option withLocation; public Node X = <A> \"abc\" ;"],
        "m",
        None,
    )
    .unwrap();
    let tree = parser.parse("abc").unwrap();
    let node = tree.root().as_node().unwrap();
    let span = node.span().expect("withLocation forces spans");
    assert_eq!((span.lo(), span.hi()), (0, 3));
}

#[test]
fn start_symbol_resolution_through_imports() {
    let parser = modpeg::compile(
        [
            "module lib; public Node Thing = <T> \"t\" ;",
            "module main; import lib;",
        ],
        "main",
        Some("Thing"),
    )
    .unwrap();
    assert!(parser.parse("t").is_ok());
}

#[test]
fn grammar_builder_and_text_agree() {
    use modpeg::core::{Expr, GrammarBuilder, ProdKind};

    let mut b = GrammarBuilder::new("m");
    b.production(
        "P",
        ProdKind::Node,
        vec![(
            Some("Pair".into()),
            Expr::seq(vec![
                Expr::Ref("W".into()),
                Expr::literal(","),
                Expr::Ref("W".into()),
            ]),
        )],
    );
    b.production(
        "W",
        ProdKind::Text,
        vec![(
            None,
            Expr::Capture(Box::new(Expr::Plus(Box::new(Expr::Class(
                modpeg::core::CharClass::from_ranges(vec![('a', 'z')], false),
            ))))),
        )],
    );
    let built = b.build("P").unwrap();
    let from_text = modpeg::syntax::parse_module_set([
        "module m; public Node P = <Pair> W \",\" W ; String W = $[a-z]+ ;",
    ])
    .unwrap()
    .elaborate("m", Some("P"))
    .unwrap();

    let a = CompiledGrammar::compile(&built, OptConfig::all()).unwrap();
    let c = CompiledGrammar::compile(&from_text, OptConfig::all()).unwrap();
    assert_eq!(
        a.parse("ab,cd").unwrap().to_sexpr(),
        c.parse("ab,cd").unwrap().to_sexpr()
    );
}

#[test]
fn pretty_printed_grammar_reparses_equivalently() {
    // Render the elaborated calc grammar back to text… not as modules but
    // productions; sanity-check the renderer output mentions every
    // production and operator it should.
    let g = modpeg::grammars::calc_grammar().unwrap();
    let text = modpeg::core::grammar_to_string(&g);
    for frag in ["calc.Expr", "calc.Number", "<Add>", "$([0-9]+", "!."] {
        assert!(text.contains(frag), "missing {frag} in:\n{text}");
    }
}
