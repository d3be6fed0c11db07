//! Pretty-printing elaborated grammars back to module syntax.
//!
//! Useful for debugging optimization passes (diff the grammar before and
//! after) and for the CLI's `check --dump` mode. The output is one flat
//! module — qualification survives in production names.

use std::fmt::Write as _;

use crate::grammar::{Grammar, Production};

/// Renders one production as a module-language clause.
pub fn production_to_string(grammar: &Grammar, prod: &Production) -> String {
    let mut out = String::new();
    for kw in prod.attrs.keywords() {
        out.push_str(kw);
        out.push(' ');
    }
    let _ = write!(out, "{} {} =", prod.kind, prod.name);
    for (i, alt) in prod.alts.iter().enumerate() {
        if i > 0 {
            out.push_str("\n  /");
        }
        if let Some(l) = &alt.label {
            let _ = write!(out, " <{l}>");
        }
        let rendered = alt
            .expr
            .map_refs(&mut |id| grammar.production(*id).name.clone());
        let _ = write!(out, " {rendered}");
    }
    out.push_str(" ;");
    out
}

/// Renders the whole grammar, one production per paragraph, root first.
pub fn grammar_to_string(grammar: &Grammar) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// elaborated grammar: {} productions, root {}",
        grammar.len(),
        grammar.production(grammar.root()).name
    );
    for (_, p) in grammar.iter() {
        out.push('\n');
        out.push_str(&production_to_string(grammar, p));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::grammar::{Alternative, Grammar, ProdId, ProdKind};

    fn fixture() -> Grammar {
        let a = crate::grammar::Production::new(
            "m.A",
            ProdKind::Node,
            vec![
                Alternative::labeled(
                    "One",
                    Expr::seq(vec![Expr::literal("x"), Expr::Ref(ProdId(1))]),
                ),
                Alternative::new(Expr::Ref(ProdId(1))),
            ],
        );
        let mut b = crate::grammar::Production::new(
            "m.B",
            ProdKind::Text,
            vec![Alternative::new(Expr::Capture(Box::new(Expr::literal(
                "b",
            ))))],
        );
        b.attrs.transient = true;
        Grammar::new(vec![a, b], ProdId(0)).unwrap()
    }

    #[test]
    fn production_rendering() {
        let g = fixture();
        let s = production_to_string(&g, g.production(ProdId(0)));
        assert_eq!(s, "Node m.A = <One> \"x\" m.B\n  / m.B ;");
        let t = production_to_string(&g, g.production(ProdId(1)));
        assert_eq!(t, "transient String m.B = $\"b\" ;");
    }

    #[test]
    fn grammar_rendering_mentions_every_production() {
        let g = fixture();
        let s = grammar_to_string(&g);
        assert!(s.contains("m.A") && s.contains("m.B"));
        assert!(s.contains("2 productions"));
    }
}
