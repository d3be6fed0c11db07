//! Formatting grammar modules back to canonical `.mpeg` text.
//!
//! `parse → format` is a fixpoint: formatting the result of parsing
//! formatted text reproduces it byte-for-byte (property-tested), which
//! makes the formatter safe to run on checked-in grammars.

use std::fmt::Write as _;

use modpeg_core::{AltAst, ClauseOp, Decl, ModuleAst};

/// Renders one module in canonical form.
pub fn format_module(module: &ModuleAst) -> String {
    let mut out = String::new();
    let _ = write!(out, "module {}", module.name);
    if !module.params.is_empty() {
        let _ = write!(out, "({})", module.params.join(", "));
    }
    out.push_str(";\n");

    for decl in &module.decls {
        match decl {
            Decl::Import { module, .. } => {
                let _ = writeln!(out, "import {module};");
            }
            Decl::Instantiate {
                module,
                args,
                alias,
                ..
            } => {
                let _ = write!(out, "instantiate {module}");
                if !args.is_empty() {
                    let _ = write!(out, "({})", args.join(", "));
                }
                if let Some(a) = alias {
                    let _ = write!(out, " as {a}");
                }
                out.push_str(";\n");
            }
            Decl::Modify { target, .. } => {
                let _ = writeln!(out, "modify {target};");
            }
            Decl::Option { name, value, .. } => match value {
                Some(v) => {
                    let _ = writeln!(
                        out,
                        "option {name}(\"{}\");",
                        modpeg_core::escape_literal(v)
                    );
                }
                None => {
                    let _ = writeln!(out, "option {name};");
                }
            },
        }
    }

    for clause in &module.productions {
        out.push('\n');
        if !clause.recover.is_empty() {
            let toks: Vec<String> = clause
                .recover
                .iter()
                .map(|t| format!("\"{}\"", modpeg_core::escape_literal(t)))
                .collect();
            let _ = writeln!(out, "@recover({})", toks.join(", "));
        }
        for kw in clause.attrs.keywords() {
            out.push_str(kw);
            out.push(' ');
        }
        if let Some(kind) = clause.kind {
            let _ = write!(out, "{kind} ");
        }
        let _ = write!(out, "{} {}", clause.name, clause.op.token());
        if let Some((pos, label)) = &clause.anchor {
            let kw = match pos {
                modpeg_core::AnchorPos::Before => "before",
                modpeg_core::AnchorPos::After => "after",
            };
            let _ = write!(out, " {kw} <{label}>");
        }
        if clause.op == ClauseOp::Remove {
            let labels: Vec<String> = clause.removed.iter().map(|l| format!("<{l}>")).collect();
            let _ = writeln!(out, " {} ;", labels.join(", "));
            continue;
        }
        if clause.alts.len() == 1 {
            let _ = writeln!(out, " {} ;", format_alt(&clause.alts[0]));
            continue;
        }
        out.push('\n');
        for (i, alt) in clause.alts.iter().enumerate() {
            let sep = if i == 0 { " " } else { "/" };
            let _ = writeln!(out, "  {sep} {}", format_alt(alt));
        }
        out.push_str("  ;\n");
    }
    out
}

fn format_alt(alt: &AltAst) -> String {
    match alt {
        AltAst::Splice => "...".to_owned(),
        AltAst::Alt { label, expr } => {
            let rendered = if *expr == modpeg_core::Expr::Empty {
                // An empty alternative: render as the empty literal so the
                // result reparses.
                "\"\"".to_owned()
            } else if matches!(expr, modpeg_core::Expr::Choice(_)) {
                // A bare choice at alternative level would reparse as
                // several alternatives; keep it grouped.
                format!("({expr})")
            } else {
                expr.to_string()
            };
            match label {
                Some(l) => format!("<{l}> {rendered}"),
                None => rendered,
            }
        }
    }
}

/// Renders several modules separated by blank lines.
pub fn format_modules(modules: &[ModuleAst]) -> String {
    modules
        .iter()
        .map(format_module)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_modules;

    fn roundtrip(src: &str) -> String {
        let modules = parse_modules(src).expect("parses");
        format_modules(&modules)
    }

    #[test]
    fn formats_header_decls_productions() {
        let out = roundtrip(
            "module a.B ( X , Y ) ; import q; instantiate g(X) as G; option withLocation;\n\
             public transient String W = <L> $[a-z]+ / \"x\" ;",
        );
        assert!(out.starts_with("module a.B(X, Y);\n"), "{out}");
        assert!(out.contains("import q;\n"));
        assert!(out.contains("instantiate g(X) as G;\n"));
        assert!(out.contains("option withLocation;\n"));
        assert!(out.contains("public transient String W ="), "{out}");
        assert!(out.contains("<L> $([a-z]+)"), "{out}");
    }

    #[test]
    fn formatting_is_a_fixpoint() {
        let sources = [
            modpeg_grammars_like_java(),
            "module ext; modify base; X += <B> \"b\" / ... ; X -= <A>, <C> ;".to_owned(),
            "module a; modify base; X += after <A> <B> \"b\" ; Y += before <Q> \"y\" ;".to_owned(),
            "module t; void P = \"a\" / ; String Q = %isdef($[a-z]+) ;".to_owned(),
        ];
        for src in sources {
            let once = roundtrip(&src);
            let twice = roundtrip(&once);
            assert_eq!(once, twice, "formatter not a fixpoint for:\n{src}");
        }
    }

    fn modpeg_grammars_like_java() -> String {
        "module j; \n\
         public Node S = <If> \"if\" C S (\"else\" S)? / <B> \"{\" S* \"}\" ;\n\
         void C = \"(\" [a-z]+ \")\" ;"
            .to_owned()
    }

    #[test]
    fn recover_annotation_round_trips() {
        let out = roundtrip("module m; @recover(\";\", \"}\") S = \"x\" ; T = \"y\" ;");
        assert!(out.contains("@recover(\";\", \"}\")\nNode S ="), "{out}");
        assert_eq!(out, roundtrip(&out), "fixpoint with annotation");
        let again = parse_modules(&out).unwrap();
        assert_eq!(again[0].productions[0].recover, vec![";", "}"]);
        assert!(again[0].productions[1].recover.is_empty());
    }

    #[test]
    fn formatted_output_reparses_equivalently() {
        let src = "module m; public Node P = <X> \"a\" [0-9] . !\"q\" / %void(\"z\"+) ;";
        let once = parse_modules(src).unwrap();
        let formatted = format_modules(&once);
        let again = parse_modules(&formatted).unwrap();
        // Compare by re-formatting (spans differ, structure must not).
        assert_eq!(formatted, format_modules(&again));
    }

    #[test]
    fn remove_clause_formats() {
        let out = roundtrip("module e; modify b; X -= <A>,<B> ;");
        assert!(out.contains("X -= <A>, <B> ;"), "{out}");
    }
}
