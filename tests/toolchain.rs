//! Toolchain integration: the formatter and linter against the real
//! grammar library — the strongest fixtures we have.

use modpeg::prelude::*;

fn all_sources() -> Vec<(&'static str, &'static str)> {
    vec![
        ("calc", modpeg::grammars::sources::CALC),
        ("json", modpeg::grammars::sources::JSON),
        ("java", modpeg::grammars::sources::JAVA),
        ("java_ext", modpeg::grammars::sources::JAVA_EXT),
        ("c", modpeg::grammars::sources::C),
        ("sql", modpeg::grammars::sources::SQL),
        ("java_sql", modpeg::grammars::sources::JAVA_SQL),
        ("tiny", modpeg::grammars::sources::TINY),
    ]
}

#[test]
fn formatter_is_a_fixpoint_on_the_library() {
    for (name, src) in all_sources() {
        let parsed = modpeg::syntax::parse_modules(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let once = modpeg::syntax::format_modules(&parsed);
        let reparsed = modpeg::syntax::parse_modules(&once)
            .unwrap_or_else(|e| panic!("{name} (formatted): {e}\n{once}"));
        let twice = modpeg::syntax::format_modules(&reparsed);
        assert_eq!(once, twice, "{name}: formatter not a fixpoint");
    }
}

#[test]
fn formatted_library_grammars_elaborate_identically() {
    // Formatting must not change grammar semantics: elaborate both the
    // original and the formatted Java grammar and compare parser output.
    let original = modpeg::grammars::java_grammar().unwrap();
    let formatted_src = modpeg::syntax::format_modules(
        &modpeg::syntax::parse_modules(modpeg::grammars::sources::JAVA).unwrap(),
    );
    let formatted = modpeg::syntax::parse_module_set([formatted_src.as_str()])
        .unwrap()
        .elaborate("java.Program", Some("Program"))
        .unwrap();
    let a = CompiledGrammar::compile(&original, OptConfig::all()).unwrap();
    let b = CompiledGrammar::compile(&formatted, OptConfig::all()).unwrap();
    let program = modpeg_workload::java_program(9, 6_000);
    assert_eq!(
        a.parse(&program).unwrap().to_sexpr(),
        b.parse(&program).unwrap().to_sexpr()
    );
}

#[test]
fn library_grammars_are_lint_clean_modulo_known_exports() {
    // The base grammars keep a handful of intentionally unreferenced
    // lexical productions (exports for extension modules). No grammar may
    // carry *shadowing* or *duplicate* warnings.
    for (name, grammar) in [
        ("calc", modpeg::grammars::calc_grammar().unwrap()),
        ("json", modpeg::grammars::json_grammar().unwrap()),
        ("java", modpeg::grammars::java_grammar().unwrap()),
        (
            "java-extended",
            modpeg::grammars::java_extended_grammar().unwrap(),
        ),
        ("c", modpeg::grammars::c_grammar().unwrap()),
        ("sql", modpeg::grammars::sql_grammar().unwrap()),
        ("java-sql", modpeg::grammars::java_sql_grammar().unwrap()),
    ] {
        for w in modpeg::core::analysis::lint(&grammar) {
            let msg = w.message();
            assert!(
                msg.contains("unreachable from the root"),
                "{name}: unexpected lint warning: {msg}"
            );
        }
    }
}

#[test]
fn extensions_consume_previously_unused_exports() {
    // COLON is exported by java.Lexical for extensions: unreferenced in
    // the base grammar, referenced once foreach/assert are composed.
    let base = modpeg::grammars::java_grammar().unwrap();
    let base_warnings: Vec<String> = modpeg::core::analysis::lint(&base)
        .iter()
        .map(|w| w.message().to_owned())
        .collect();
    assert!(
        base_warnings.iter().any(|m| m.contains("COLON")),
        "{base_warnings:?}"
    );
    let extended = modpeg::grammars::java_extended_grammar().unwrap();
    let ext_warnings: Vec<String> = modpeg::core::analysis::lint(&extended)
        .iter()
        .map(|w| w.message().to_owned())
        .collect();
    assert!(
        !ext_warnings.iter().any(|m| m.contains("COLON")),
        "{ext_warnings:?}"
    );
}

#[test]
fn tree_navigation_on_real_parses() {
    let g = modpeg::grammars::java_grammar().unwrap();
    let mut cfg = OptConfig::all();
    cfg.set("location-elision", false); // keep spans for node_at
    let parser = CompiledGrammar::compile(&g, cfg).unwrap();
    let src = "class A { int f(int x) { return x + 1; } }";
    let tree = parser.parse(src).unwrap();

    // Find the method node, then locate the `+` expression by offset.
    let methods = tree.root().find_kind("Member.Method");
    assert_eq!(methods.len(), 1);
    let plus_offset = src.find('+').unwrap() as u32;
    let node = tree.node_at(plus_offset).expect("a node covers the +");
    assert_eq!(node.kind().as_str(), "AddExpr.Add");
    let path: Vec<&str> = tree
        .path_to(plus_offset)
        .iter()
        .map(|n| n.kind().as_str())
        .collect();
    assert!(
        path.starts_with(&["CompilationUnit.Unit", "ClassDecl.Class"]),
        "{path:?}"
    );
    assert_eq!(*path.last().unwrap(), "AddExpr.Add");
}
