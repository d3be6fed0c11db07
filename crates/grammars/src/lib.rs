//! # modpeg-grammars
//!
//! The grammar-module library: realistic grammars written in the modpeg
//! module language, mirroring the grammars the paper evaluates on —
//! a calculator, JSON, a **Java subset** with composable extension
//! modules, and a **C subset** whose `typedef` ambiguity is resolved with
//! parser state. For each grammar the crate provides:
//!
//! * the `.mpeg` source text ([`sources`]),
//! * an elaboration helper returning the flat [`Grammar`],
//! * a **generated parser** ([`generated`]), produced at build time by
//!   `modpeg-codegen` and compiled into this crate — the end-to-end proof
//!   of the generator,
//! * module statistics ([`module_stats`]) backing the paper's
//!   grammar-modularity table.
//!
//! ## Example
//!
//! ```
//! use modpeg_grammars::generated::calc;
//!
//! let tree = calc::parse("1 + 2 * (3 - 4)").expect("arithmetic parses");
//! assert!(tree.to_sexpr().starts_with("(Program.P (Expr.Add"));
//! ```

#![warn(missing_docs)]

use modpeg_core::{Diagnostics, Grammar, ModuleSet};

/// Raw `.mpeg` sources, embedded so downstream users can re-elaborate or
/// extend them.
pub mod sources {
    /// The calculator grammar.
    pub const CALC: &str = include_str!("../grammars/calc.mpeg");
    /// The JSON grammar.
    pub const JSON: &str = include_str!("../grammars/json.mpeg");
    /// The Java-subset grammar (base modules).
    pub const JAVA: &str = include_str!("../grammars/java.mpeg");
    /// The Java-subset extension modules (foreach, assert, try/catch, …).
    pub const JAVA_EXT: &str = include_str!("../grammars/java_ext.mpeg");
    /// The C-subset grammar (with typedef parser state).
    pub const C: &str = include_str!("../grammars/c.mpeg");
    /// The parameterized-module demonstration grammar.
    pub const TINY: &str = include_str!("../grammars/tiny.mpeg");
    /// The SQL SELECT grammar.
    pub const SQL: &str = include_str!("../grammars/sql.mpeg");
    /// The Java-with-embedded-SQL composition module.
    pub const JAVA_SQL: &str = include_str!("../grammars/java_sql.mpeg");
    /// The module language described in itself (self-hosting grammar).
    pub const MPEG: &str = include_str!("../grammars/mpeg.mpeg");
}

/// Parsers generated at build time by `modpeg-codegen`.
///
/// Each submodule exposes `run` (answering any `ParseRequest`), the
/// `parse*` shorthands, `Generated` (the module as a `modpeg_runtime::Engine`)
/// and `Parser`.
pub mod generated {
    /// Generated parser for the calculator grammar.
    #[allow(clippy::all, unused_mut, unused_variables, dead_code, missing_docs)]
    pub mod calc {
        include!(concat!(env!("OUT_DIR"), "/calc_parser.rs"));
    }
    /// Generated parser for the JSON grammar.
    #[allow(clippy::all, unused_mut, unused_variables, dead_code, missing_docs)]
    pub mod json {
        include!(concat!(env!("OUT_DIR"), "/json_parser.rs"));
    }
    /// Generated parser for the Java-subset grammar.
    #[allow(clippy::all, unused_mut, unused_variables, dead_code, missing_docs)]
    pub mod java {
        include!(concat!(env!("OUT_DIR"), "/java_parser.rs"));
    }
    /// Generated parser for the extended Java-subset grammar.
    #[allow(clippy::all, unused_mut, unused_variables, dead_code, missing_docs)]
    pub mod java_extended {
        include!(concat!(env!("OUT_DIR"), "/java_extended_parser.rs"));
    }
    /// Generated parser for the C-subset grammar.
    #[allow(clippy::all, unused_mut, unused_variables, dead_code, missing_docs)]
    pub mod c {
        include!(concat!(env!("OUT_DIR"), "/c_parser.rs"));
    }
    /// Generated parser for the parameterized-module demo grammar.
    #[allow(clippy::all, unused_mut, unused_variables, dead_code, missing_docs)]
    pub mod tiny {
        include!(concat!(env!("OUT_DIR"), "/tiny_parser.rs"));
    }
    /// Generated parser for the standalone SQL grammar.
    #[allow(clippy::all, unused_mut, unused_variables, dead_code, missing_docs)]
    pub mod sql {
        include!(concat!(env!("OUT_DIR"), "/sql_parser.rs"));
    }
    /// Generated parser for the Java-with-embedded-SQL composition.
    #[allow(clippy::all, unused_mut, unused_variables, dead_code, missing_docs)]
    pub mod java_sql {
        include!(concat!(env!("OUT_DIR"), "/java_sql_parser.rs"));
    }
    /// Generated parser for the self-hosting module-language grammar.
    #[allow(clippy::all, unused_mut, unused_variables, dead_code, missing_docs)]
    pub mod mpeg {
        include!(concat!(env!("OUT_DIR"), "/mpeg_parser.rs"));
    }
}

fn elaborate(sources: &[&str], root: &str, start: Option<&str>) -> Result<Grammar, Diagnostics> {
    modpeg_syntax::parse_module_set(sources.iter().copied())?.elaborate(root, start)
}

/// Elaborates the calculator grammar.
///
/// # Errors
///
/// Never fails for the shipped sources; the `Result` keeps signatures
/// uniform for callers that elaborate modified copies.
pub fn calc_grammar() -> Result<Grammar, Diagnostics> {
    elaborate(&[sources::CALC], "calc", Some("Program"))
}

/// Elaborates the JSON grammar.
///
/// # Errors
///
/// See [`calc_grammar`].
pub fn json_grammar() -> Result<Grammar, Diagnostics> {
    elaborate(&[sources::JSON], "json", Some("Document"))
}

/// Elaborates the base Java-subset grammar.
///
/// # Errors
///
/// See [`calc_grammar`].
pub fn java_grammar() -> Result<Grammar, Diagnostics> {
    elaborate(&[sources::JAVA], "java.Program", Some("Program"))
}

/// Elaborates the Java subset extended with foreach/assert/try modules.
///
/// # Errors
///
/// See [`calc_grammar`].
pub fn java_extended_grammar() -> Result<Grammar, Diagnostics> {
    elaborate(
        &[sources::JAVA, sources::JAVA_EXT],
        "java.Extended",
        Some("Start"),
    )
}

/// Elaborates the C-subset grammar.
///
/// # Errors
///
/// See [`calc_grammar`].
pub fn c_grammar() -> Result<Grammar, Diagnostics> {
    elaborate(&[sources::C], "c.Program", Some("TranslationUnit"))
}

/// Elaborates the parameterized-module demo grammar.
///
/// # Errors
///
/// See [`calc_grammar`].
pub fn tiny_grammar() -> Result<Grammar, Diagnostics> {
    elaborate(&[sources::TINY], "tiny", Some("Doc"))
}

/// Elaborates the standalone SQL grammar.
///
/// # Errors
///
/// See [`calc_grammar`].
pub fn sql_grammar() -> Result<Grammar, Diagnostics> {
    elaborate(&[sources::SQL], "sql.Program", Some("Query"))
}

/// Elaborates the Java subset with embedded SQL expressions.
///
/// # Errors
///
/// See [`calc_grammar`].
pub fn java_sql_grammar() -> Result<Grammar, Diagnostics> {
    elaborate(
        &[sources::JAVA, sources::SQL, sources::JAVA_SQL],
        "java.WithSql",
        Some("Start"),
    )
}

/// Elaborates the self-hosting module-language grammar.
///
/// # Errors
///
/// See [`calc_grammar`].
pub fn mpeg_grammar() -> Result<Grammar, Diagnostics> {
    elaborate(&[sources::MPEG], "mpeg", Some("File"))
}

/// The module set of every shipped grammar (for tooling that wants to
/// compose further).
///
/// # Errors
///
/// See [`calc_grammar`].
pub fn full_module_set() -> Result<ModuleSet, Diagnostics> {
    modpeg_syntax::parse_module_set([
        sources::CALC,
        sources::JSON,
        sources::JAVA,
        sources::JAVA_EXT,
        sources::C,
        sources::TINY,
        sources::SQL,
        sources::JAVA_SQL,
    ])
}

/// Per-module statistics for one grammar source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleStats {
    /// Module name.
    pub name: String,
    /// Number of production clauses (definitions and modifications).
    pub productions: usize,
    /// Number of dependency/option declarations.
    pub declarations: usize,
    /// Non-blank, non-comment source lines attributed to the module.
    pub lines: usize,
    /// Whether the module is a modification of another module.
    pub is_modification: bool,
}

/// Computes per-module statistics for a grammar source (the basis of the
/// paper's grammar-modularity table).
///
/// # Errors
///
/// Returns diagnostics when the source does not parse.
pub fn module_stats(source: &str) -> Result<Vec<ModuleStats>, Diagnostics> {
    let modules = modpeg_syntax::parse_modules(source)?;
    // Attribute source lines by slicing between module headers.
    let mut boundaries: Vec<usize> = Vec::new();
    let mut offset = 0;
    for line in source.lines() {
        if line.trim_start().starts_with("module ") {
            boundaries.push(offset);
        }
        offset += line.len() + 1;
    }
    boundaries.push(source.len() + 1);
    let mut out = Vec::with_capacity(modules.len());
    for (i, m) in modules.iter().enumerate() {
        let lo = boundaries.get(i).copied().unwrap_or(0);
        let hi = boundaries.get(i + 1).copied().unwrap_or(source.len());
        let hi = hi.min(source.len());
        let text = &source[lo.min(hi)..hi];
        let lines = text
            .lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with("//")
            })
            .count();
        out.push(ModuleStats {
            name: m.name.clone(),
            productions: m.productions.len(),
            declarations: m.decls.len(),
            lines,
            is_modification: m.is_modification(),
        });
    }
    Ok(out)
}

/// A named grammar with its sources — the inventory the statistics table
/// is generated from.
#[derive(Debug, Clone, Copy)]
pub struct GrammarEntry {
    /// Short grammar name.
    pub name: &'static str,
    /// Source files making up the grammar.
    pub sources: &'static [&'static str],
}

/// Every grammar shipped with the crate.
pub fn inventory() -> Vec<GrammarEntry> {
    vec![
        GrammarEntry {
            name: "calc",
            sources: &[sources::CALC],
        },
        GrammarEntry {
            name: "json",
            sources: &[sources::JSON],
        },
        GrammarEntry {
            name: "java",
            sources: &[sources::JAVA],
        },
        GrammarEntry {
            name: "java-extensions",
            sources: &[sources::JAVA_EXT],
        },
        GrammarEntry {
            name: "c",
            sources: &[sources::C],
        },
        GrammarEntry {
            name: "sql",
            sources: &[sources::SQL],
        },
        GrammarEntry {
            name: "java-sql-embedding",
            sources: &[sources::JAVA_SQL],
        },
        GrammarEntry {
            name: "tiny",
            sources: &[sources::TINY],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use modpeg_interp::{CompiledGrammar, OptConfig};

    const JAVA_SAMPLE: &str = r#"
// A sample program exercising most of the subset.
class Point {
    int x;
    int y = 0;

    int dist(int ox, int oy) {
        int dx = x - ox;
        int dy = y - oy;
        return dx * dx + dy * dy;
    }

    void demo(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            if (i % 2 == 0) {
                acc = acc + i;
            } else {
                acc = acc - 1;
            }
        }
        while (acc > 0) {
            acc = acc - compute(acc, 1);
        }
        do { acc = acc + 1; } while (acc < 10);
    }

    int compute(int a, int b) {
        boolean flag = true;
        char c = 'x';
        int[] xs = new int(3);
        xs[0] = a;
        String s = "hi\n";
        return a + b;
    }
}
"#;

    const C_SAMPLE: &str = r#"
typedef int myint;
typedef unsigned long size_t;

myint counter = 0;

int add(myint a, myint b) {
    return a + b;
}

int main(int argc, char **argv) {
    myint x = 1;
    size_t n = 10;
    myint *p = &x;
    /* typedef vs multiplication: */
    myint * q = p;
    x = x * 2;
    {
        typedef char local_t;
        local_t c = 'a';
        x = x + c;
    }
    while (n > 0) {
        n = n - 1;
        if (n == 5) { continue; }
    }
    for (x = 0; x < 3; x = x + 1) { counter = add(counter, x); }
    return *p + add(x, 2);
}
"#;

    #[test]
    fn all_grammars_elaborate() {
        for (name, g) in [
            ("calc", calc_grammar()),
            ("json", json_grammar()),
            ("java", java_grammar()),
            ("java-extended", java_extended_grammar()),
            ("c", c_grammar()),
            ("tiny", tiny_grammar()),
        ] {
            let g = g.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(g.len() > 1, "{name} has productions");
        }
    }

    #[test]
    fn generated_calc_parses_and_evaluates_shape() {
        let t = generated::calc::parse(" 1 + 2*3 - (4/2) ").unwrap();
        let s = t.to_sexpr();
        assert!(s.contains("Expr.Sub"), "{s}");
        assert!(s.contains("Term.Mul"), "{s}");
        assert!(generated::calc::parse("1 + ").is_err());
    }

    #[test]
    fn generated_json_parses_documents() {
        let t = generated::json::parse(
            r#"{"name": "modpeg", "tags": ["peg", "packrat"], "n": -1.5e3, "ok": true, "nil": null}"#,
        )
        .unwrap();
        let s = t.to_sexpr();
        assert!(s.contains("(Object"), "{s}");
        assert!(generated::json::parse("{\"a\": }").is_err());
        assert!(generated::json::parse("[1, 2,]").is_err());
    }

    #[test]
    fn generated_java_parses_sample() {
        let t = generated::java::parse(JAVA_SAMPLE).unwrap_or_else(|e| panic!("{e}"));
        let s = t.to_sexpr();
        assert!(s.contains("Statement.For"), "{s}");
        assert!(s.contains("Statement.DoWhile"), "{s}");
        assert!(s.contains("Member.Method"), "{s}");
    }

    #[test]
    fn interp_and_generated_agree_on_java() {
        let g = java_grammar().unwrap();
        let interp = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let a = interp.parse(JAVA_SAMPLE).unwrap().to_sexpr();
        let b = generated::java::parse(JAVA_SAMPLE).unwrap().to_sexpr();
        assert_eq!(a, b);
    }

    #[test]
    fn interp_configs_agree_on_java() {
        let g = java_grammar().unwrap();
        let reference = CompiledGrammar::compile(&g, OptConfig::none())
            .unwrap()
            .parse(JAVA_SAMPLE)
            .unwrap()
            .to_sexpr();
        for n in 1..=modpeg_interp::OPT_COUNT {
            let c = CompiledGrammar::compile(&g, OptConfig::cumulative(n)).unwrap();
            let s = c.parse(JAVA_SAMPLE).unwrap().to_sexpr();
            assert_eq!(reference, s, "config cumulative({n}) diverged");
        }
    }

    #[test]
    fn c_typedef_disambiguation() {
        let t = generated::c::parse(C_SAMPLE).unwrap_or_else(|e| panic!("{e}"));
        let s = t.to_sexpr();
        // `myint * q = p;` parsed as a declaration, not a multiplication.
        assert!(s.contains("Declaration.Vars"), "{s}");
        // `x * 2` inside expressions still multiplies.
        assert!(s.contains("MulExpr.Mul"), "{s}");
        // Local typedef must not leak: using local_t after the block fails.
        let bad = "typedef int a;\nint main() { { typedef char b; } b x = 0; return 0; }\n";
        assert!(generated::c::parse(bad).is_err());
    }

    #[test]
    fn interp_and_generated_agree_on_c() {
        let g = c_grammar().unwrap();
        let interp = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let a = interp.parse(C_SAMPLE).unwrap().to_sexpr();
        let b = generated::c::parse(C_SAMPLE).unwrap().to_sexpr();
        assert_eq!(a, b);
    }

    #[test]
    fn interp_configs_agree_on_c_with_state() {
        let g = c_grammar().unwrap();
        let reference = CompiledGrammar::compile(&g, OptConfig::none())
            .unwrap()
            .parse(C_SAMPLE)
            .unwrap()
            .to_sexpr();
        for n in [4, 8, 10, 12, modpeg_interp::OPT_COUNT] {
            let c = CompiledGrammar::compile(&g, OptConfig::cumulative(n)).unwrap();
            assert_eq!(
                reference,
                c.parse(C_SAMPLE).unwrap().to_sexpr(),
                "cumulative({n})"
            );
        }
    }

    #[test]
    fn extended_java_accepts_new_constructs() {
        let program = r#"
class Demo {
    void run(int[] xs) {
        assert size(xs) > 0 : 1;
        for (int x : xs) {
            try { use(x); } catch (Error e) { log(e); }
        }
    }
    void use(int x) { return; }
    void log(Error e) { return; }
}
"#;
        // The base grammar rejects all three constructs...
        assert!(generated::java::parse(program).is_err());
        // ...the extended grammar accepts them.
        let t = generated::java_extended::parse(program).unwrap_or_else(|e| panic!("{e}"));
        let s = t.to_sexpr();
        assert!(s.contains("Statement.Assert"), "{s}");
        assert!(s.contains("Statement.Foreach"), "{s}");
        assert!(s.contains("Statement.Try"), "{s}");
        assert!(s.contains("CatchClause.Catch"), "{s}");
    }

    #[test]
    fn ternary_and_compound_assignment_extensions() {
        let program = r#"
class Math {
    int clamp(int x, int lo, int hi) {
        int r = x < lo ? lo : (x > hi ? hi : x);
        r += 1;
        r *= 2;
        return r;
    }
}
"#;
        assert!(generated::java::parse(program).is_err());
        let t = generated::java_extended::parse(program).unwrap_or_else(|e| panic!("{e}"));
        let s = t.to_sexpr();
        assert!(s.contains("Expression.Cond"), "{s}");
        assert!(s.contains("Expression.Compound"), "{s}");
        // Plain assignment still routes through the base alternative.
        let plain = "class A { void f() { int x = 0; x = x + 1; } }";
        let s2 = generated::java_extended::parse(plain).unwrap().to_sexpr();
        assert!(s2.contains("Expression.Assign"), "{s2}");
        assert!(!s2.contains("Expression.Cond"));
    }

    #[test]
    fn extended_java_still_accepts_base_programs() {
        let base = "class A { int f(int x) { while (x > 0) { x = x - 1; } return x; } }";
        let a = generated::java::parse(base).unwrap().to_sexpr();
        let b = generated::java_extended::parse(base).unwrap().to_sexpr();
        // Extensions only add alternatives: base programs get the same tree.
        assert_eq!(a, b);
    }

    #[test]
    fn remove_extension_bans_dowhile() {
        let set = modpeg_syntax::parse_module_set([
            sources::JAVA,
            sources::JAVA_EXT,
            "module banned; import java.Program; import java.NoDoWhileExt; public Start = Program ;",
        ])
        .unwrap();
        let g = set.elaborate("banned", Some("Start")).unwrap();
        let c = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let with_do = "class A { void f() { do { g(); } while (true); } }";
        assert!(c.parse(with_do).is_err());
        let without = "class A { void f() { while (true) { g(); } } }";
        assert!(c.parse(without).is_ok());
    }

    #[test]
    fn tiny_parameterized_module_works() {
        let t = generated::tiny::parse("[1,22,333]").unwrap();
        assert_eq!(t.to_sexpr(), "(Doc.Doc (List.List \"1\" [\"22\" \"333\"]))");
    }

    #[test]
    fn module_stats_cover_all_modules() {
        let stats = module_stats(sources::JAVA).unwrap();
        let names: Vec<&str> = stats.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "java.Spacing",
                "java.Lexical",
                "java.Types",
                "java.Expr",
                "java.Stmt",
                "java.Decl",
                "java.Program"
            ]
        );
        for m in &stats {
            assert!(m.lines > 0, "{m:?}");
        }
        let ext = module_stats(sources::JAVA_EXT).unwrap();
        assert!(ext.iter().filter(|m| m.is_modification).count() >= 4);
        // Each extension is tiny — the paper's point.
        for m in ext.iter().filter(|m| m.is_modification) {
            assert!(m.lines <= 40, "{} too big: {}", m.name, m.lines);
        }
    }

    #[test]
    fn synthetic_java_workloads_parse() {
        for seed in 0..5u64 {
            let program = modpeg_workload::java_program(seed, 8_000);
            generated::java::parse(&program)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{program}"));
        }
    }

    #[test]
    fn synthetic_extended_java_workloads_parse() {
        for seed in 0..5u64 {
            let program = modpeg_workload::java_extended_program(seed, 8_000);
            generated::java_extended::parse(&program)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{program}"));
        }
    }

    #[test]
    fn synthetic_c_workloads_parse() {
        for seed in 0..5u64 {
            let program = modpeg_workload::c_program(seed, 8_000);
            generated::c::parse(&program).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{program}"));
        }
    }

    #[test]
    fn synthetic_json_and_calc_workloads_parse() {
        for seed in 0..5u64 {
            let doc = modpeg_workload::json_document(seed, 6_000);
            generated::json::parse(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let expr = modpeg_workload::calc_expression(seed, 2_000);
            generated::calc::parse(&expr).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn workloads_agree_across_interp_configs() {
        let program = modpeg_workload::java_program(42, 4_000);
        let g = java_grammar().unwrap();
        let reference = generated::java::parse(&program).unwrap().to_sexpr();
        for n in [0, 6, 10, modpeg_interp::OPT_COUNT] {
            let c = CompiledGrammar::compile(&g, OptConfig::cumulative(n)).unwrap();
            assert_eq!(
                c.parse(&program).unwrap().to_sexpr(),
                reference,
                "cumulative({n})"
            );
        }
    }

    #[test]
    fn sql_standalone_parses() {
        let q = "select name, users.age from users \
                 where age >= 18 and not (name = 'x''y' or age <> 21) \
                 order by age desc, name -- trailing comment";
        let t = generated::sql::parse(q).unwrap_or_else(|e| panic!("{e}"));
        let s = t.to_sexpr();
        assert!(s.contains("Select.Select"), "{s}");
        assert!(s.contains("Condition.Or"), "{s}");
        assert!(s.contains("OrderItem.Desc"), "{s}");
        assert!(generated::sql::parse("select from t").is_err());
        assert!(generated::sql::parse("SELECT * FROM t WHERE a = 1").is_ok());
    }

    #[test]
    fn sql_embeds_in_java_expressions() {
        let program = r#"
class Repo {
    int minors;
    void refresh(int db) {
        int rows = #[ select name, age from users
                      where age < 18 order by age ]# ;
        minors = rows;
        while (rows > 0) { rows = rows - 1; }
    }
}
"#;
        // Base Java rejects the embedded query…
        assert!(generated::java::parse(program).is_err());
        // …the composed grammar accepts it, with the SQL subtree inline.
        let t = generated::java_sql::parse(program).unwrap_or_else(|e| panic!("{e}"));
        let s = t.to_sexpr();
        assert!(s.contains("Primary.Sql"), "{s}");
        assert!(s.contains("Select.Select"), "{s}");
        // SQL errors surface through the host parse.
        let bad = program.replace("from users", "frum users");
        assert!(generated::java_sql::parse(&bad).is_err());
        // Plain Java still parses under the composition.
        let plain = "class A { int f() { return 1 + 2; } }";
        assert_eq!(
            generated::java::parse(plain).unwrap().to_sexpr(),
            generated::java_sql::parse(plain).unwrap().to_sexpr()
        );
    }

    #[test]
    fn self_hosting_grammar_accepts_the_whole_library() {
        // The module language described in itself parses every shipped
        // grammar — including its own source.
        for (name, src) in [
            ("calc", sources::CALC),
            ("json", sources::JSON),
            ("java", sources::JAVA),
            ("java_ext", sources::JAVA_EXT),
            ("c", sources::C),
            ("sql", sources::SQL),
            ("java_sql", sources::JAVA_SQL),
            ("tiny", sources::TINY),
            ("mpeg (itself)", sources::MPEG),
        ] {
            generated::mpeg::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn self_hosting_grammar_agrees_with_hand_parser_on_rejects() {
        // Inputs the hand-written parser rejects must also be rejected by
        // the self-hosted grammar (value-level checks like inverted class
        // ranges excepted — see the grammar's header comment).
        let bad = [
            "",                                  // no modules
            "module ;",                          // missing name
            "module m; P = ;; ",                 // stray semicolon
            "module m; P ;",                     // no operator
            "module m; P = \"unterminated ;",    // bad string
            "module m; P = [] ;",                // empty class
            "module m; P = %bogus(\"x\") ;",     // unknown builtin
            "module m; frob Node P = \"x\" ;",   // unknown attribute
            "module m; P = ... \"x\" ;",         // splice then junk
            "module m; P := before <L> \"x\" ;", // anchor needs +=
            "module m; P -= \"x\" ;",            // remove needs labels
            "module m; import a..b;",            // bad dotted name
            "module m; option p(q);",            // option value not a string
            "not a module at all",
        ];
        for src in bad {
            assert!(
                modpeg_syntax::parse_modules(src).is_err(),
                "hand parser unexpectedly accepted {src:?}"
            );
            assert!(
                generated::mpeg::parse(src).is_err(),
                "self-hosted grammar unexpectedly accepted {src:?}"
            );
        }
    }

    #[test]
    fn self_hosting_grammar_agrees_on_formatter_output() {
        // Canonical-form output of the formatter stays inside the language.
        for src in [sources::JAVA, sources::C, sources::JAVA_EXT, sources::MPEG] {
            let formatted =
                modpeg_syntax::format_modules(&modpeg_syntax::parse_modules(src).unwrap());
            generated::mpeg::parse(&formatted).unwrap_or_else(|e| {
                panic!(
                    "{e}
{formatted}"
                )
            });
        }
    }

    #[test]
    fn workload_coverage_of_the_java_grammar() {
        let g = java_grammar().unwrap();
        let parser = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let mut total: Option<modpeg_interp::Coverage> = None;
        for seed in 0..6u64 {
            let program = modpeg_workload::java_program(seed, 12_000);
            let (r, cov) = parser.parse_with_coverage(&program);
            r.expect("workload parses");
            match &mut total {
                None => total = Some(cov),
                Some(t) => t.absorb(&cov),
            }
        }
        let total = total.unwrap();
        // The workload generator is designed to exercise the grammar:
        // expect strong (not total — e.g. char escapes) coverage.
        assert!(
            total.ratio() > 0.6,
            "workload covers too little: {:.1}%
{}",
            total.ratio() * 100.0,
            total
        );
        // Specific must-hit alternatives.
        for (prod, idx) in [
            ("java.Stmt.Statement", 1 /* <If> */),
            ("java.Stmt.Statement", 4 /* <For> */),
        ] {
            assert!(
                total.hits_for(prod, idx).unwrap_or(0) > 0,
                "{prod} alt {idx} unexercised
{total}"
            );
        }
    }

    #[test]
    fn coverage_reports_unexercised_alternatives() {
        let g = calc_grammar().unwrap();
        let parser = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let (r, cov) = parser.parse_with_coverage("1+2");
        r.unwrap();
        // Division never used: its tail alternative is uncovered.
        let un = cov.uncovered();
        assert!(
            un.iter().any(|(p, a)| p.contains("Term") && a == "<Div>"),
            "{un:?}"
        );
        assert!(cov.ratio() < 1.0);
    }

    #[test]
    fn c_parsing_memoizes_reader_productions() {
        let g = c_grammar().unwrap();
        let parser = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let program = modpeg_workload::c_program(3, 12_000);
        let (r, stats) = parser.parse_with_stats(&program);
        r.expect("workload parses");
        assert!(stats.memo_hits > 0, "{stats}");
    }

    #[test]
    fn stale_epoch_entries_are_detected_and_reevaluated() {
        // Alternative A defines a name, memoizes a state-*reading*
        // production, then fails; the rollback changes the epoch, so when
        // alternative B re-queries the reader at the same position the
        // entry must be treated as stale and re-evaluated.
        let set = modpeg_syntax::parse_module_set(["module m;\n\
             public Node P = <A> Def Use \"!\" / <B> Def Use \"?\" ;\n\
             void Def = %define($[a-z]+) \" \" ;\n\
             memo String Use = %isdef($[a-z]+) ;"])
        .unwrap();
        let g = set.elaborate("m", Some("P")).unwrap();
        let parser = CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let (r, stats) = parser.parse_with_stats("ab ab?");
        let tree = r.expect("alternative B matches");
        assert!(tree.to_sexpr().contains("P.B"), "{}", tree.to_sexpr());
        assert!(stats.memo_stale > 0, "{stats}");
    }

    #[test]
    fn sql_embedding_agrees_across_engines_and_configs() {
        let program = "class R { int q(int db) { int n = #[ select a.b, c from t \
                       where x <= 10 or not y = 'z' order by c asc ]# ; return n; } }";
        let g = java_sql_grammar().unwrap();
        let reference = generated::java_sql::parse(program).unwrap().to_sexpr();
        for n in [0usize, 7, 12, modpeg_interp::OPT_COUNT] {
            let c = CompiledGrammar::compile(&g, OptConfig::cumulative(n)).unwrap();
            assert_eq!(
                c.parse(program).unwrap().to_sexpr(),
                reference,
                "cumulative({n})"
            );
        }
    }

    #[test]
    fn error_messages_point_at_failure() {
        let err = generated::java::parse("class A { int f( { return 0; } }").unwrap_err();
        assert!(err.offset() > 0);
        assert!(!err.expected().is_empty());
    }

    /// A tree-mode run of a generated parser's `run` under `gov`.
    fn governed(
        run: fn(&str, modpeg_runtime::ParseRequest<'_>) -> modpeg_runtime::Outcome,
        text: &str,
        gov: &modpeg_runtime::Governor,
    ) -> (
        Result<modpeg_runtime::SyntaxTree, modpeg_runtime::ParseFault>,
        modpeg_runtime::Stats,
    ) {
        let (r, stats) = run(text, modpeg_runtime::ParseRequest::tree().governed(gov));
        (r.map(modpeg_runtime::Parsed::into_tree), stats)
    }

    #[test]
    fn generated_governed_matches_ungoverned_without_limits() {
        use modpeg_runtime::Governor;
        let gov = Governor::new();
        let (r, stats) = governed(generated::java::run, JAVA_SAMPLE, &gov);
        let tree = r.unwrap_or_else(|e| panic!("{e}")).to_sexpr();
        assert_eq!(
            tree,
            generated::java::parse(JAVA_SAMPLE).unwrap().to_sexpr()
        );
        assert!(stats.productions_evaluated > 0);
        assert!(gov.tripped().is_none());
        assert!(gov.steps() > 0, "limitless governor still counts steps");
        // Syntax errors surface identically, as ParseFault::Syntax.
        let bad = "class A { int f( { return 0; } }";
        let gov = Governor::new();
        let fault = governed(generated::java::run, bad, &gov).0.unwrap_err();
        let err = fault.syntax().expect("syntax fault, not abort");
        assert_eq!(
            err.offset(),
            generated::java::parse(bad).unwrap_err().offset()
        );
    }

    #[test]
    fn generated_fuel_abort_is_deterministic_then_retry_succeeds() {
        use modpeg_runtime::{Governor, ParseAbort};
        let probe = Governor::new();
        let reference = governed(generated::c::run, C_SAMPLE, &probe)
            .0
            .unwrap()
            .to_sexpr();
        let total = probe.steps();
        assert!(total > 8, "probe counted {total} steps");
        for fuel in [0, 1, total / 2, total - 1] {
            let gov = Governor::new().with_fuel(fuel);
            let fault = governed(generated::c::run, C_SAMPLE, &gov).0.unwrap_err();
            assert_eq!(
                fault.abort(),
                Some(ParseAbort::FuelExhausted),
                "fuel={fuel}"
            );
            assert_eq!(gov.tripped(), Some(ParseAbort::FuelExhausted));
        }
        // Exactly enough fuel completes with an identical tree.
        let gov = Governor::new().with_fuel(total);
        let tree = governed(generated::c::run, C_SAMPLE, &gov).0.unwrap();
        assert_eq!(tree.to_sexpr(), reference);
        assert!(gov.tripped().is_none());
    }

    #[test]
    fn generated_depth_ceiling_aborts_instead_of_overflowing() {
        use modpeg_runtime::{Governor, ParseAbort};
        // Nesting far past any stack: must abort, not crash.
        let deep = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        let gov = Governor::new();
        let fault = governed(generated::calc::run, &deep, &gov).0.unwrap_err();
        assert_eq!(fault.abort(), Some(ParseAbort::DepthExceeded));
        // A tight explicit ceiling rejects modest nesting a roomy one accepts.
        let modest = format!("{}1{}", "(".repeat(50), ")".repeat(50));
        let gov = Governor::new().with_max_depth(40);
        let fault = governed(generated::calc::run, &modest, &gov).0.unwrap_err();
        assert_eq!(fault.abort(), Some(ParseAbort::DepthExceeded));
        let gov = Governor::new().with_max_depth(5_000);
        assert!(governed(generated::calc::run, &modest, &gov).0.is_ok());
    }

    #[test]
    fn generated_memo_budget_degrades_gracefully_before_aborting() {
        use modpeg_runtime::{Governor, ParseAbort};
        let program = modpeg_workload::java_program(7, 8_000);
        let (r, full) = governed(generated::java::run, &program, &Governor::new());
        let reference = r.unwrap().to_sexpr();
        // A quarter of the retained bytes: evictions (and possibly the
        // transient fallback) kick in, yet the tree is unchanged.
        let gov = Governor::new().with_memo_budget(full.memo_bytes / 4);
        let (r, stats) = governed(generated::java::run, &program, &gov);
        assert_eq!(r.unwrap().to_sexpr(), reference);
        assert!(stats.gov_evictions > 0, "{stats}");
        assert!(stats.memo_bytes <= full.memo_bytes / 4, "{stats}");
        // A budget below even the empty table's floor aborts.
        let gov = Governor::new().with_memo_budget(16);
        let fault = governed(generated::java::run, &program, &gov)
            .0
            .unwrap_err();
        assert_eq!(fault.abort(), Some(ParseAbort::MemoBudget));
    }
}
