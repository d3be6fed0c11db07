//! A small real tool on top of the generated JSON parser: a pretty-printer.
//!
//! Reads JSON from a file argument (or uses a built-in document), parses it
//! with the generated packrat parser, and re-emits it indented — a
//! demonstration of consuming generic syntax trees from application code.
//!
//! ```sh
//! cargo run --example json_pretty -- file.json
//! ```

use modpeg::runtime::Value;

fn pretty(value: &Value, input: &str, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match value {
        Value::Node(node) => match node.kind().as_str() {
            "Document.Doc" => pretty(node.child(0).expect("doc has a value"), input, indent, out),
            "Object.Object" => {
                let members = node.child(0);
                match members {
                    Some(Value::List(items)) if !items.is_empty() => {
                        out.push_str("{\n");
                        for (i, m) in items.iter().enumerate() {
                            if i > 0 {
                                out.push_str(",\n");
                            }
                            out.push_str(&"  ".repeat(indent + 1));
                            pretty(m, input, indent + 1, out);
                        }
                        out.push('\n');
                        out.push_str(&pad);
                        out.push('}');
                    }
                    _ => out.push_str("{}"),
                }
            }
            "Member.Member" => {
                let key = node.child(0).and_then(|k| k.as_text(input)).unwrap_or("?");
                out.push_str(key);
                out.push_str(": ");
                pretty(
                    node.child(1).expect("member has a value"),
                    input,
                    indent,
                    out,
                );
            }
            "Array.Array" => match node.child(0) {
                Some(Value::List(items)) if !items.is_empty() => {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        pretty(v, input, indent, out);
                    }
                    out.push(']');
                }
                _ => out.push_str("[]"),
            },
            "True" => out.push_str("true"),
            "False" => out.push_str("false"),
            "Null" => out.push_str("null"),
            other => out.push_str(other),
        },
        Value::List(items) => {
            for v in items.iter() {
                pretty(v, input, indent, out);
            }
        }
        v => out.push_str(v.as_text(input).unwrap_or("?")),
    }
}

const SAMPLE: &str = r#"{"name":"modpeg","versions":[1,2,3],"meta":{"packrat":true,"paper":"PLDI 2006","speedup":7.2e0},"todo":null}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => SAMPLE.to_owned(),
    };
    let (result, stats) = modpeg::grammars::generated::json::parse_with_stats(&text);
    let tree = result?;
    let mut out = String::new();
    pretty(tree.root(), tree.input(), 0, &mut out);
    println!("{out}");
    eprintln!(
        "\n[{} bytes, {} nodes built, {} memo probes, {:.1}% hit rate]",
        text.len(),
        stats.nodes_built,
        stats.memo_probes,
        stats.memo_hit_rate() * 100.0
    );
    Ok(())
}
