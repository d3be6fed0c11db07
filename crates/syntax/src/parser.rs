//! Recursive-descent parser for the modpeg grammar-module language.

use modpeg_core::{
    AltAst, AnchorPos, Attrs, ClauseOp, Decl, Diagnostic, Diagnostics, Expr, ModuleAst, ModuleSet,
    ProdClause, ProdKind, SrcSpan,
};

use crate::lexer::{lex, Tok, Token};

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

type PResult<T> = Result<T, Diagnostic>;

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_span(&self) -> SrcSpan {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::error(msg).with_span(self.peek_span())
    }

    fn expect(&mut self, tok: &Tok) -> PResult<Token> {
        if self.peek() == tok {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> PResult<String> {
        match self.peek() {
            Tok::Ident(_) => match self.bump().tok {
                Tok::Ident(s) => Ok(s),
                _ => unreachable!("peeked ident"),
            },
            other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    /// `a.b.c` — dotted module names.
    fn dotted_name(&mut self, what: &str) -> PResult<String> {
        let mut name = self.ident(what)?;
        while self.peek() == &Tok::Dot {
            self.bump();
            name.push('.');
            name.push_str(&self.ident(what)?);
        }
        Ok(name)
    }

    fn at_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn parse_module(&mut self) -> PResult<ModuleAst> {
        let start = self.peek_span();
        if !self.at_ident("module") {
            return Err(self.err(format!("expected `module`, found {}", self.peek())));
        }
        self.bump();
        let name = self.dotted_name("module name")?;
        let mut module = ModuleAst::new(name);
        module.span = start;
        if self.peek() == &Tok::LParen {
            self.bump();
            loop {
                module.params.push(self.ident("module parameter")?);
                match self.peek() {
                    Tok::Comma => {
                        self.bump();
                    }
                    Tok::RParen => {
                        self.bump();
                        break;
                    }
                    other => return Err(self.err(format!("expected `,` or `)`, found {other}"))),
                }
            }
        }
        self.expect(&Tok::Semi)?;

        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Ident(s) if s == "module" => break,
                Tok::Ident(s) if s == "import" => {
                    let span = self.peek_span();
                    self.bump();
                    let m = self.dotted_name("module name")?;
                    self.expect(&Tok::Semi)?;
                    module.decls.push(Decl::Import { module: m, span });
                }
                Tok::Ident(s) if s == "instantiate" => {
                    let span = self.peek_span();
                    self.bump();
                    let m = self.dotted_name("module name")?;
                    let mut args = Vec::new();
                    if self.peek() == &Tok::LParen {
                        self.bump();
                        loop {
                            args.push(self.dotted_name("argument module")?);
                            match self.peek() {
                                Tok::Comma => {
                                    self.bump();
                                }
                                Tok::RParen => {
                                    self.bump();
                                    break;
                                }
                                other => {
                                    return Err(
                                        self.err(format!("expected `,` or `)`, found {other}"))
                                    )
                                }
                            }
                        }
                    }
                    let alias = if self.at_ident("as") {
                        self.bump();
                        Some(self.ident("instance alias")?)
                    } else {
                        None
                    };
                    self.expect(&Tok::Semi)?;
                    module.decls.push(Decl::Instantiate {
                        module: m,
                        args,
                        alias,
                        span,
                    });
                }
                Tok::Ident(s) if s == "modify" => {
                    let span = self.peek_span();
                    self.bump();
                    let target = self.dotted_name("module name")?;
                    self.expect(&Tok::Semi)?;
                    module.decls.push(Decl::Modify { target, span });
                }
                Tok::Ident(s) if s == "option" => {
                    let span = self.peek_span();
                    self.bump();
                    loop {
                        let name = self.ident("option name")?;
                        let value = if self.peek() == &Tok::LParen {
                            self.bump();
                            let v = match self.bump().tok {
                                Tok::Str(s) => s,
                                other => {
                                    return Err(
                                        self.err(format!("expected option string, found {other}"))
                                    )
                                }
                            };
                            self.expect(&Tok::RParen)?;
                            Some(v)
                        } else {
                            None
                        };
                        module.decls.push(Decl::Option { name, value, span });
                        match self.peek() {
                            Tok::Comma => {
                                self.bump();
                            }
                            _ => break,
                        }
                    }
                    self.expect(&Tok::Semi)?;
                }
                Tok::Ident(_) | Tok::At => {
                    module.productions.push(self.parse_clause()?);
                }
                other => return Err(self.err(format!("expected a declaration, found {other}"))),
            }
        }
        Ok(module)
    }

    fn parse_clause(&mut self) -> PResult<ProdClause> {
        let span = self.peek_span();
        // Leading annotations: `@recover("tok", ...)`.
        let mut recover: Vec<String> = Vec::new();
        while self.peek() == &Tok::At {
            self.bump();
            let name = self.ident("annotation name")?;
            if name != "recover" {
                return Err(self.err(format!(
                    "unknown annotation `@{name}` (expected `@recover`)"
                )));
            }
            self.expect(&Tok::LParen)?;
            loop {
                match self.bump().tok {
                    Tok::Str(s) if s.is_empty() => {
                        return Err(self.err("`@recover` tokens must be non-empty string literals"))
                    }
                    Tok::Str(s) => recover.push(s),
                    other => {
                        return Err(self.err(format!(
                            "expected a string literal in `@recover(...)`, found {other}"
                        )))
                    }
                }
                match self.peek() {
                    Tok::Comma => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            self.expect(&Tok::RParen)?;
        }
        // Collect leading identifiers: attributes, optional kind, name.
        let mut words: Vec<String> = Vec::new();
        while let Tok::Ident(_) = self.peek() {
            words.push(self.ident("production name")?);
        }
        let op = match self.peek() {
            Tok::Eq => ClauseOp::Define,
            Tok::ColonEq => ClauseOp::Override,
            Tok::PlusEq => ClauseOp::Append,
            Tok::MinusEq => ClauseOp::Remove,
            other => {
                return Err(self.err(format!(
                    "expected `=`, `:=`, `+=` or `-=` after production name, found {other}"
                )))
            }
        };
        self.bump();
        let Some(name) = words.pop() else {
            return Err(self.err("expected a production name"));
        };
        let mut attrs = Attrs::default();
        let mut kind: Option<ProdKind> = None;
        for w in &words {
            match w.as_str() {
                "public" => attrs.public = true,
                "transient" => attrs.transient = true,
                "inline" => attrs.inline = true,
                "memo" => attrs.memo = true,
                "stateful" => attrs.stateful = true,
                "withLocation" => attrs.with_location = true,
                "void" | "String" | "Node" => {
                    if kind.is_some() {
                        return Err(Diagnostic::error(format!(
                            "production `{name}` declares two kinds"
                        ))
                        .with_span(span));
                    }
                    kind = Some(match w.as_str() {
                        "void" => ProdKind::Void,
                        "String" => ProdKind::Text,
                        _ => ProdKind::Node,
                    });
                }
                other => {
                    return Err(Diagnostic::error(format!(
                        "unknown attribute `{other}` on production `{name}`"
                    ))
                    .with_span(span))
                }
            }
        }
        // A plain definition defaults to Node; modifications inherit.
        let kind = match (op, kind) {
            (ClauseOp::Define, None) => Some(ProdKind::Node),
            (_, k) => k,
        };

        let mut clause = ProdClause {
            attrs,
            kind,
            name,
            op,
            alts: Vec::new(),
            removed: Vec::new(),
            anchor: None,
            recover,
            span,
        };
        // `P += before <L> …` / `P += after <L> …` — the keyword form is
        // only taken when a `<` follows (otherwise `before` is an ordinary
        // nonterminal reference).
        if op == ClauseOp::Append {
            let anchor_pos = match self.peek() {
                Tok::Ident(s) if s == "before" => Some(AnchorPos::Before),
                Tok::Ident(s) if s == "after" => Some(AnchorPos::After),
                _ => None,
            };
            if anchor_pos.is_some() && self.tokens[self.pos + 1].tok == Tok::Lt {
                self.bump();
                self.expect(&Tok::Lt)?;
                let label = self.ident("anchor label")?;
                self.expect(&Tok::Gt)?;
                clause.anchor = anchor_pos.map(|p| (p, label));
            }
        }
        if op == ClauseOp::Remove {
            loop {
                self.expect(&Tok::Lt)?;
                clause.removed.push(self.ident("alternative label")?);
                self.expect(&Tok::Gt)?;
                match self.peek() {
                    Tok::Comma => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            self.expect(&Tok::Semi)?;
            return Ok(clause);
        }
        loop {
            clause.alts.push(self.parse_alt()?);
            match self.peek() {
                Tok::Slash => {
                    self.bump();
                }
                Tok::Semi => {
                    self.bump();
                    break;
                }
                other => {
                    return Err(self.err(format!("expected `/` or `;`, found {other}")));
                }
            }
        }
        Ok(clause)
    }

    fn parse_alt(&mut self) -> PResult<AltAst> {
        if self.peek() == &Tok::Ellipsis {
            self.bump();
            return Ok(AltAst::Splice);
        }
        let label = if self.peek() == &Tok::Lt {
            self.bump();
            let l = self.ident("alternative label")?;
            self.expect(&Tok::Gt)?;
            Some(l)
        } else {
            None
        };
        let expr = self.parse_seq()?;
        Ok(AltAst::Alt { label, expr })
    }

    fn starts_expr(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Ident(_)
                | Tok::Str(_)
                | Tok::Class(_)
                | Tok::Dot
                | Tok::LParen
                | Tok::Amp
                | Tok::Bang
                | Tok::Dollar
                | Tok::Percent
        )
    }

    fn parse_choice(&mut self) -> PResult<Expr<String>> {
        let mut arms = vec![self.parse_seq()?];
        while self.peek() == &Tok::Slash {
            self.bump();
            arms.push(self.parse_seq()?);
        }
        Ok(Expr::choice(arms))
    }

    fn parse_seq(&mut self) -> PResult<Expr<String>> {
        let mut items = Vec::new();
        while self.starts_expr() {
            items.push(self.parse_prefixed()?);
        }
        Ok(Expr::seq(items))
    }

    fn parse_prefixed(&mut self) -> PResult<Expr<String>> {
        match self.peek() {
            Tok::Amp => {
                self.bump();
                Ok(Expr::And(Box::new(self.parse_prefixed()?)))
            }
            Tok::Bang => {
                self.bump();
                Ok(Expr::Not(Box::new(self.parse_prefixed()?)))
            }
            Tok::Dollar => {
                self.bump();
                Ok(Expr::Capture(Box::new(self.parse_prefixed()?)))
            }
            _ => self.parse_suffixed(),
        }
    }

    fn parse_suffixed(&mut self) -> PResult<Expr<String>> {
        let mut e = self.parse_primary()?;
        loop {
            e = match self.peek() {
                Tok::Question => {
                    self.bump();
                    Expr::Opt(Box::new(e))
                }
                Tok::Star => {
                    self.bump();
                    Expr::Star(Box::new(e))
                }
                Tok::Plus => {
                    self.bump();
                    Expr::Plus(Box::new(e))
                }
                _ => return Ok(e),
            };
        }
    }

    fn parse_primary(&mut self) -> PResult<Expr<String>> {
        match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                let e = self.parse_choice()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Str(s) => {
                self.bump();
                Ok(if s.is_empty() {
                    Expr::Empty
                } else {
                    Expr::literal(s)
                })
            }
            Tok::Class(c) => {
                self.bump();
                Ok(Expr::Class(c))
            }
            Tok::Dot => {
                self.bump();
                Ok(Expr::Any)
            }
            Tok::Percent => {
                self.bump();
                let name = self.ident("builtin name")?;
                self.expect(&Tok::LParen)?;
                let inner = Box::new(self.parse_choice()?);
                self.expect(&Tok::RParen)?;
                match name.as_str() {
                    "void" => Ok(Expr::Void(inner)),
                    "define" => Ok(Expr::StateDefine(inner)),
                    "isdef" => Ok(Expr::StateIsDef(inner)),
                    "isndef" => Ok(Expr::StateIsNotDef(inner)),
                    "scope" => Ok(Expr::StateScope(inner)),
                    other => Err(self.err(format!("unknown builtin `%{other}`"))),
                }
            }
            Tok::Ident(_) => Ok(Expr::Ref(self.ident("nonterminal")?)),
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }
}

/// Parses a source file containing exactly one module.
///
/// # Errors
///
/// Returns located diagnostics on lexical or syntax errors.
pub fn parse_module(src: &str) -> Result<ModuleAst, Diagnostics> {
    let modules = parse_modules(src)?;
    match modules.len() {
        1 => Ok(modules.into_iter().next().expect("len checked")),
        n => Err(Diagnostics::from(Diagnostic::error(format!(
            "expected exactly one module, found {n}"
        )))),
    }
}

/// Parses a source file containing one or more modules.
///
/// # Errors
///
/// Returns located diagnostics on lexical or syntax errors.
pub fn parse_modules(src: &str) -> Result<Vec<ModuleAst>, Diagnostics> {
    let tokens = lex(src).map_err(Diagnostics::from)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    while parser.peek() != &Tok::Eof {
        out.push(parser.parse_module().map_err(Diagnostics::from)?);
    }
    if out.is_empty() {
        return Err(Diagnostics::from(Diagnostic::error(
            "input contains no modules",
        )));
    }
    Ok(out)
}

/// Parses several sources (each holding one or more modules) into a
/// [`ModuleSet`].
///
/// # Errors
///
/// Returns diagnostics on parse errors or duplicate module names.
pub fn parse_module_set<'a>(
    sources: impl IntoIterator<Item = &'a str>,
) -> Result<ModuleSet, Diagnostics> {
    let mut set = ModuleSet::new();
    for src in sources {
        for module in parse_modules(src)? {
            set.add(module).map_err(Diagnostics::from)?;
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_header_and_params() {
        let m = parse_module("module java.core.Expr(Spacing, Literal);").unwrap();
        assert_eq!(m.name, "java.core.Expr");
        assert_eq!(m.params, vec!["Spacing", "Literal"]);
    }

    #[test]
    fn parses_decls() {
        let m = parse_module(
            "module m;\n\
             import util.Spacing;\n\
             instantiate generic.List(util.Spacing) as L;\n\
             modify base.Core;\n\
             option withLocation, parser(\"java\");",
        )
        .unwrap();
        assert_eq!(m.decls.len(), 5);
        assert!(m.is_modification());
        assert_eq!(m.modify_target(), Some("base.Core"));
        let opts: Vec<_> = m.options().collect();
        assert_eq!(opts, vec![("withLocation", None), ("parser", Some("java"))]);
    }

    #[test]
    fn parses_production_with_attrs_kind_labels() {
        let m = parse_module(
            "module m;\n\
             public transient String Word = <Simple> $[a-z]+ / <Hard> \"x\" ;",
        )
        .unwrap();
        let p = &m.productions[0];
        assert!(p.attrs.public && p.attrs.transient);
        assert_eq!(p.kind, Some(ProdKind::Text));
        assert_eq!(p.name, "Word");
        assert_eq!(p.alts.len(), 2);
        match &p.alts[0] {
            AltAst::Alt { label, expr } => {
                assert_eq!(label.as_deref(), Some("Simple"));
                // `$` applies to the whole suffixed expression: $([a-z]+).
                assert_eq!(expr.to_string(), "$([a-z]+)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn default_kind_is_node() {
        let m = parse_module("module m; S = \"x\" ;").unwrap();
        assert_eq!(m.productions[0].kind, Some(ProdKind::Node));
    }

    #[test]
    fn parses_recover_annotation() {
        let m = parse_module(
            "module m;\n\
             @recover(\";\", \"}\")\n\
             Stmt = \"s\" \";\" ;\n\
             Block = \"{\" Stmt* \"}\" ;",
        )
        .unwrap();
        assert_eq!(m.productions[0].recover, vec![";", "}"]);
        assert!(m.productions[1].recover.is_empty());
    }

    #[test]
    fn recover_annotation_on_modification_clause() {
        let m = parse_module(
            "module ext;\n\
             modify base;\n\
             @recover(\";\") Stmt += \"t\" ;",
        )
        .unwrap();
        assert_eq!(m.productions[0].recover, vec![";"]);
        assert_eq!(m.productions[0].op, ClauseOp::Append);
    }

    #[test]
    fn recover_rejects_unknown_annotation_and_bad_tokens() {
        assert!(parse_module("module m; @memoize(\"x\") S = \"x\" ;").is_err());
        assert!(parse_module("module m; @recover(S) S = \"x\" ;").is_err());
        let err = parse_module("module m; @recover(\"\") S = \"x\" ;").unwrap_err();
        assert!(err.to_string().contains("non-empty"), "{err}");
    }

    #[test]
    fn modification_clauses() {
        let m = parse_module(
            "module ext;\n\
             modify base;\n\
             Statement += <For> \"for\" / ... ;\n\
             Statement -= <Do>, <While> ;\n\
             Keyword := \"foreach\" / ... ;",
        )
        .unwrap();
        assert_eq!(m.productions.len(), 3);
        assert_eq!(m.productions[0].op, ClauseOp::Append);
        assert!(matches!(m.productions[0].alts[1], AltAst::Splice));
        assert_eq!(m.productions[1].op, ClauseOp::Remove);
        assert_eq!(m.productions[1].removed, vec!["Do", "While"]);
        assert_eq!(m.productions[2].op, ClauseOp::Override);
        // Modification clauses inherit kind unless stated.
        assert_eq!(m.productions[0].kind, None);
    }

    #[test]
    fn anchored_insertion_parses() {
        let m = parse_module(
            "module e; modify b;\n\
             X += after <A> <B> \"b\" ;\n\
             Y += before <Q> \"y\" ;\n\
             Z += before \"z\" ;", // `before` here is a nonterminal!
        )
        .unwrap();
        assert_eq!(
            m.productions[0].anchor,
            Some((modpeg_core::AnchorPos::After, "A".into()))
        );
        assert_eq!(
            m.productions[1].anchor,
            Some((modpeg_core::AnchorPos::Before, "Q".into()))
        );
        assert_eq!(m.productions[2].anchor, None);
        let AltAst::Alt { expr, .. } = &m.productions[2].alts[0] else {
            panic!()
        };
        assert_eq!(expr.to_string(), "before \"z\"");
    }

    #[test]
    fn expression_operators_nest() {
        let m = parse_module("module m; E = !\"a\" (B / \"c\")* $(.?) %isdef(Id) ;").unwrap();
        let p = &m.productions[0];
        let AltAst::Alt { expr, .. } = &p.alts[0] else {
            panic!()
        };
        assert_eq!(expr.to_string(), "!\"a\" (B / \"c\")* $(.?) %isdef(Id)");
    }

    #[test]
    fn empty_alternative_is_epsilon() {
        let m = parse_module("module m; void Opt = \"a\" / ;").unwrap();
        let p = &m.productions[0];
        assert_eq!(p.alts.len(), 2);
        let AltAst::Alt { expr, .. } = &p.alts[1] else {
            panic!()
        };
        assert_eq!(*expr, Expr::Empty);
    }

    #[test]
    fn char_literal_is_string() {
        let m = parse_module("module m; void P = 'x' ;").unwrap();
        let AltAst::Alt { expr, .. } = &m.productions[0].alts[0] else {
            panic!()
        };
        assert_eq!(expr.to_string(), "\"x\"");
    }

    #[test]
    fn multiple_modules_in_one_source() {
        let ms = parse_modules(
            "module a; A = \"a\" ;\n\
             module b; import a; B = A ;",
        )
        .unwrap();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[1].decls.len(), 1);
    }

    #[test]
    fn module_set_rejects_duplicates() {
        let err = parse_module_set(["module a; A = \"a\";", "module a; B = \"b\";"]).unwrap_err();
        assert!(err.to_string().contains("duplicate module"));
    }

    #[test]
    fn error_messages_are_located_and_specific() {
        let err = parse_module("module m; P = ) ;").unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
        let err = parse_module("module m; P ~ x ;").unwrap_err();
        assert!(err.to_string().contains("unexpected character"), "{err}");
        let err = parse_module("module m; frobnicate Node P = \"x\" ;").unwrap_err();
        assert!(
            err.to_string().contains("unknown attribute `frobnicate`"),
            "{err}"
        );
        let err = parse_module("module m; P = %bogus(\"x\") ;").unwrap_err();
        assert!(err.to_string().contains("unknown builtin"), "{err}");
        let err = parse_module("module m; void String P = \"x\" ;").unwrap_err();
        assert!(err.to_string().contains("two kinds"), "{err}");
    }

    #[test]
    fn end_to_end_elaboration_from_text() {
        let set = parse_module_set([
            "module base;\n\
             public Statement = <If> \"if\" Cond / <Halt> \"halt\" ;\n\
             void Cond = \"(\" [a-z]+ \")\" ;",
            "module ext;\n\
             modify base;\n\
             Statement += <Loop> \"loop\" Cond ;",
            "module main;\n\
             import base;\n\
             import ext;\n\
             public Program = Statement+ !. ;",
        ])
        .unwrap();
        let g = set.elaborate("main", None).unwrap();
        let stmt = g.production(g.find("base.Statement").unwrap());
        assert_eq!(stmt.alts.len(), 3);
        assert_eq!(g.production(g.root()).name, "main.Program");
    }
}
