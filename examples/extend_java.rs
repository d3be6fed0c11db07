//! The paper's headline demo: growing a language by *importing a module*.
//!
//! The base Java-subset grammar knows nothing about `foreach`, `assert`,
//! or `try/catch`. Each extension is a self-contained modification module;
//! composing them with the base requires **zero edits** to the base
//! grammar. This example parses the same program with both grammars and
//! shows the base one rejecting exactly where the new syntax starts.
//!
//! ```sh
//! cargo run --example extend_java
//! ```

const PROGRAM: &str = r#"
class Inventory {
    int total;

    void restock(int[] counts) {
        assert size(counts) > 0 : 1;
        for (int c : counts) {
            try {
                total = total + c;
            } catch (Overflow e) {
                report(e, 0);
            }
        }
    }

    int size(int[] xs) { return 3; }
    void report(Overflow e, int code) { return; }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- program ---{PROGRAM}---------------\n");

    // Base grammar: rejects at the `assert`.
    match modpeg::grammars::generated::java::parse(PROGRAM) {
        Ok(_) => println!("base grammar: accepted (unexpected!)"),
        Err(e) => println!("base grammar   : {e}"),
    }

    // Extended grammar: base modules + foreach/assert/try modules.
    let tree = modpeg::grammars::generated::java_extended::parse(PROGRAM)?;
    let sexpr = tree.to_sexpr();
    println!("extended grammar: parsed OK");
    for kind in ["Statement.Assert", "Statement.Foreach", "Statement.Try"] {
        println!(
            "  contains {kind:<18} {}",
            if sexpr.contains(kind) { "yes" } else { "no" }
        );
    }

    // The extensions are modules — show how small they are.
    println!("\nextension modules:");
    for m in modpeg::grammars::module_stats(modpeg::grammars::sources::JAVA_EXT)? {
        if m.is_modification {
            println!(
                "  {:<22} {:>2} clauses, {:>2} lines",
                m.name, m.productions, m.lines
            );
        }
    }
    println!("\nlines changed in the base grammar: 0");
    Ok(())
}
