//! Golden-tree snapshots: one small fixed-seed program per grammar, with
//! the expected syntax tree committed under `tests/golden/`.
//!
//! The snapshot pins the *shape* of the tree (via `to_sexpr`, spans
//! elided), so any change to grammar elaboration, optimization passes, or
//! code generation that silently alters tree construction shows up as a
//! readable diff. Each input is parsed by the build-time generated parser
//! and by the interpreter at full optimization — arena-backed, and
//! without chunked memoization (the `Rc` reference representation) — plus
//! an event-mode round-trip; every leg must match the committed snapshot.
//!
//! Snapshots are compared *structurally* (kind, arity, leaf text), not as
//! formatted strings: a divergence reports the path to the first
//! differing node instead of a whole-line string diff.
//!
//! To regenerate after an intentional grammar change:
//!
//! ```text
//! MODPEG_BLESS=1 cargo test -p modpeg-conformance --test golden_trees
//! ```

use modpeg_conformance::GrammarId;
use modpeg_runtime::{ParseRequest, SyntaxTree, TreeBuilder};

/// A parsed golden snapshot: atoms are leaf texts / node kinds, lists are
/// `(Kind child…)` applications.
#[derive(Debug, PartialEq, Eq)]
enum SExpr {
    Atom(String),
    List(Vec<SExpr>),
}

impl SExpr {
    fn head(&self) -> &str {
        match self {
            SExpr::Atom(a) => a,
            SExpr::List(items) => items.first().map_or("()", SExpr::head),
        }
    }
}

/// Parses the `to_sexpr` surface syntax: parenthesized lists, `"…"`
/// strings with backslash escapes, and bare atoms.
fn parse_sexpr(text: &str) -> Result<SExpr, String> {
    let mut chars = text.char_indices().peekable();
    let expr = parse_one(text, &mut chars)?;
    for (i, c) in chars {
        if !c.is_whitespace() {
            return Err(format!("trailing {c:?} at byte {i}"));
        }
    }
    Ok(expr)
}

fn parse_one(
    text: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<SExpr, String> {
    while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
        chars.next();
    }
    match chars.next() {
        None => Err("unexpected end of snapshot".to_owned()),
        Some((_, '(')) => {
            let mut items = Vec::new();
            loop {
                while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
                    chars.next();
                }
                match chars.peek() {
                    Some((_, ')')) => {
                        chars.next();
                        return Ok(SExpr::List(items));
                    }
                    Some(_) => items.push(parse_one(text, chars)?),
                    None => return Err("unclosed ( in snapshot".to_owned()),
                }
            }
        }
        Some((i, ')')) => Err(format!("unmatched ) at byte {i}")),
        Some((start, '"')) => {
            let mut s = String::from('"');
            loop {
                match chars.next() {
                    None => return Err(format!("unclosed string at byte {start}")),
                    Some((_, '\\')) => {
                        s.push('\\');
                        if let Some((_, c)) = chars.next() {
                            s.push(c);
                        }
                    }
                    Some((_, '"')) => {
                        s.push('"');
                        return Ok(SExpr::Atom(s));
                    }
                    Some((_, c)) => s.push(c),
                }
            }
        }
        Some((start, _)) => {
            let mut end = text.len();
            while let Some((i, c)) = chars.peek().copied() {
                if c.is_whitespace() || c == '(' || c == ')' {
                    end = i;
                    break;
                }
                chars.next();
                end = i + c.len_utf8();
            }
            Ok(SExpr::Atom(text[start..end].to_owned()))
        }
    }
}

/// Structural diff: returns the path to the first divergence (node kinds
/// and child indices), or `None` when the trees are identical.
fn diff(path: &str, a: &SExpr, b: &SExpr) -> Option<String> {
    match (a, b) {
        (SExpr::Atom(x), SExpr::Atom(y)) => (x != y).then(|| format!("at {path}: leaf {x} vs {y}")),
        (SExpr::List(xs), SExpr::List(ys)) => {
            if xs.first().map(SExpr::head) != ys.first().map(SExpr::head) {
                return Some(format!("at {path}: kind {} vs {}", a.head(), b.head()));
            }
            if xs.len() != ys.len() {
                return Some(format!(
                    "at {path}.{}: {} children vs {}",
                    a.head(),
                    xs.len() - 1,
                    ys.len() - 1
                ));
            }
            xs.iter()
                .zip(ys)
                .enumerate()
                .skip(1)
                .find_map(|(i, (x, y))| diff(&format!("{path}.{}[{}]", a.head(), i - 1), x, y))
        }
        _ => Some(format!("at {path}: {} vs {}", a.head(), b.head())),
    }
}

/// Compares two rendered trees structurally, panicking with the first
/// divergence path on mismatch.
fn assert_same_tree(context: &str, got: &str, expected: &str) {
    let got_tree = parse_sexpr(got).unwrap_or_else(|e| panic!("{context}: unparsable tree: {e}"));
    let expected_tree =
        parse_sexpr(expected).unwrap_or_else(|e| panic!("{context}: unparsable snapshot: {e}"));
    if let Some(divergence) = diff("root", &got_tree, &expected_tree) {
        panic!("{context}: {divergence}\n  got:      {got}\n  expected: {expected}");
    }
}

fn check_golden(id: GrammarId, input: &str, golden_file: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden_file);
    let generated = id
        .codegen()
        .run(input, ParseRequest::tree())
        .0
        .unwrap_or_else(|e| panic!("{} sample must parse: {e}", id.name()))
        .into_tree()
        .to_sexpr();

    // The interpreter at full optimization must build the same tree,
    // both out of the arena (the copied-out tree `parse` returns) and
    // without chunked memoization (the `Rc` reference representation).
    let grammar = id.elaborate().expect("grammar elaborates");
    let compiled =
        modpeg_interp::CompiledGrammar::compile(&grammar, modpeg_interp::OptConfig::all())
            .expect("grammar compiles");
    let interpreted = compiled
        .parse(input)
        .unwrap_or_else(|e| panic!("{} sample must parse via interp: {e}", id.name()))
        .to_sexpr();
    assert_same_tree(
        &format!("generated vs interpreted ({})", id.name()),
        &generated,
        &interpreted,
    );
    let unchunked = modpeg_interp::CompiledGrammar::compile(
        &grammar,
        modpeg_interp::OptConfig::all_except("chunks").expect("known flag"),
    )
    .expect("grammar compiles");
    let rc_tree = unchunked
        .parse(input)
        .unwrap_or_else(|e| panic!("{} sample must parse without chunks: {e}", id.name()))
        .to_sexpr();
    assert_same_tree(
        &format!("arena vs `Rc` representation ({})", id.name()),
        &interpreted,
        &rc_tree,
    );

    // The SAX event stream must rebuild the same tree too.
    let mut builder = TreeBuilder::new();
    compiled
        .parse_events(input, &mut builder)
        .unwrap_or_else(|e| panic!("{} sample must parse via events: {e}", id.name()));
    let rebuilt = builder.finish().expect("balanced event stream");
    assert_same_tree(
        &format!("event round-trip ({})", id.name()),
        &SyntaxTree::new(input, rebuilt).to_sexpr(),
        &interpreted,
    );

    if std::env::var_os("MODPEG_BLESS").is_some() {
        std::fs::write(&path, format!("{generated}\n")).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with MODPEG_BLESS=1",
            path.display()
        )
    });
    assert_same_tree(
        &format!(
            "{} vs snapshot {} (if intentional, re-bless with MODPEG_BLESS=1)",
            id.name(),
            path.display()
        ),
        &generated,
        expected.trim_end(),
    );
}

#[test]
fn golden_tree_json() {
    check_golden(
        GrammarId::Json,
        &modpeg_workload::json_document(7, 160),
        "json.sexpr",
    );
}

#[test]
fn golden_tree_java() {
    check_golden(
        GrammarId::Java,
        &modpeg_workload::java_program(7, 320),
        "java.sexpr",
    );
}

#[test]
fn golden_tree_c() {
    check_golden(GrammarId::C, &modpeg_workload::c_program(7, 320), "c.sexpr");
}

#[test]
fn structural_diff_reports_first_divergence_path() {
    let a = parse_sexpr(r#"(Prog (Item "a") (Item "b"))"#).unwrap();
    let b = parse_sexpr(r#"(Prog (Item "a") (Item "c"))"#).unwrap();
    let d = diff("root", &a, &b).expect("trees differ");
    assert!(d.contains("root.Prog[1]"), "{d}");
    assert!(d.contains(r#""b" vs "c""#), "{d}");
    // Kind and arity differences are reported as such, not as leaf diffs.
    let c = parse_sexpr(r#"(Prog (Decl "a") (Item "b"))"#).unwrap();
    let d = diff("root", &a, &c).expect("kinds differ");
    assert!(d.contains("kind"), "{d}");
    let e = parse_sexpr(r#"(Prog (Item "a"))"#).unwrap();
    let d = diff("root", &a, &e).expect("arity differs");
    assert!(d.contains("children"), "{d}");
    // Identical trees (even with different whitespace) do not diverge.
    let f = parse_sexpr("(Prog  (Item \"a\")\n (Item \"b\"))").unwrap();
    assert_eq!(diff("root", &a, &f), None);
}
