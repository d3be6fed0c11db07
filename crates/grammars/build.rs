//! Build script: runs the modpeg parser generator over every grammar in
//! `grammars/` and writes the generated Rust parsers into `OUT_DIR`, where
//! `src/lib.rs` includes them. This is the end-to-end proof that the code
//! generator emits compilable, working parsers — exactly how a downstream
//! project would consume modpeg.

use std::path::Path;

struct Target {
    /// Output file stem (`{name}_parser.rs`).
    name: &'static str,
    /// Grammar source files, in order.
    sources: &'static [&'static str],
    /// Root module.
    root: &'static str,
    /// Start production (`None` = first public production of the root).
    start: Option<&'static str>,
}

const TARGETS: &[Target] = &[
    Target {
        name: "calc",
        sources: &["grammars/calc.mpeg"],
        root: "calc",
        start: Some("Program"),
    },
    Target {
        name: "json",
        sources: &["grammars/json.mpeg"],
        root: "json",
        start: Some("Document"),
    },
    Target {
        name: "java",
        sources: &["grammars/java.mpeg"],
        root: "java.Program",
        start: Some("Program"),
    },
    Target {
        name: "java_extended",
        sources: &["grammars/java.mpeg", "grammars/java_ext.mpeg"],
        root: "java.Extended",
        start: Some("Start"),
    },
    Target {
        name: "c",
        sources: &["grammars/c.mpeg"],
        root: "c.Program",
        start: Some("TranslationUnit"),
    },
    Target {
        name: "sql",
        sources: &["grammars/sql.mpeg"],
        root: "sql.Program",
        start: Some("Query"),
    },
    Target {
        name: "java_sql",
        sources: &[
            "grammars/java.mpeg",
            "grammars/sql.mpeg",
            "grammars/java_sql.mpeg",
        ],
        root: "java.WithSql",
        start: Some("Start"),
    },
    Target {
        name: "mpeg",
        sources: &["grammars/mpeg.mpeg"],
        root: "mpeg",
        start: Some("File"),
    },
    Target {
        name: "tiny",
        sources: &["grammars/tiny.mpeg"],
        root: "tiny",
        start: Some("Doc"),
    },
];

fn main() {
    println!("cargo::rerun-if-changed=grammars");
    let out_dir = std::env::var("OUT_DIR").expect("cargo sets OUT_DIR");
    for target in TARGETS {
        let texts: Vec<String> = target
            .sources
            .iter()
            .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}")))
            .collect();
        let set = modpeg_syntax::parse_module_set(texts.iter().map(String::as_str))
            .unwrap_or_else(|e| panic!("parse {}: {e}", target.name));
        let grammar = set
            .elaborate(target.root, target.start)
            .unwrap_or_else(|e| panic!("elaborate {}: {e}", target.name));
        let doc = format!(
            "Parser for the `{}` grammar (root `{}`), generated at build time.",
            target.name, target.root
        );
        let source = modpeg_codegen::generate(&grammar, &doc)
            .unwrap_or_else(|e| panic!("codegen {}: {e}", target.name));
        let path = Path::new(&out_dir).join(format!("{}_parser.rs", target.name));
        std::fs::write(&path, source).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }
}
