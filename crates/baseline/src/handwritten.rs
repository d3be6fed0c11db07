//! A hand-written, two-phase (lexer + recursive descent) parser for the
//! same Java subset as `modpeg-grammars`' `java` grammar.
//!
//! This is the comparison point the paper fills with conventional parser
//! generators (JavaCC, ANTLR): a deterministic, tokenizing parser written
//! the way a practitioner would write one by hand. It builds a small typed
//! AST, so the throughput comparison against the packrat parsers (which
//! build generic trees) is apples-to-apples on work performed.

use std::fmt;

/// Tokens of the Java subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok {
    Ident,
    Int,
    Str,
    Char,
    // keywords
    KwBoolean,
    KwBreak,
    KwChar,
    KwClass,
    KwContinue,
    KwDo,
    KwElse,
    KwFalse,
    KwFor,
    KwIf,
    KwInt,
    KwNew,
    KwNull,
    KwReturn,
    KwTrue,
    KwVoid,
    KwWhile,
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBrack,
    RBrack,
    Semi,
    Comma,
    Dot,
    Assign,
    OrOr,
    AndAnd,
    Bang,
    Minus,
    EqEq,
    NotEq,
    Le,
    Ge,
    Lt,
    Gt,
    Plus,
    Star,
    Slash,
    Percent,
    Eof,
}

#[derive(Debug, Clone, Copy)]
struct Token {
    tok: Tok,
    lo: u32,
    hi: u32,
}

/// A parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwError {
    offset: u32,
    message: String,
}

impl HwError {
    /// Byte offset of the failure.
    pub fn offset(&self) -> u32 {
        self.offset
    }
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for HwError {}

// ----- AST -----

/// A compilation unit: classes.
#[derive(Debug)]
pub struct Unit {
    /// Top-level class declarations.
    pub classes: Vec<Class>,
}

/// A class declaration.
#[derive(Debug)]
pub struct Class {
    /// Class name (span into the input).
    pub name: (u32, u32),
    /// Members in declaration order.
    pub members: Vec<MemberDecl>,
}

/// A field or method.
#[derive(Debug)]
pub enum MemberDecl {
    /// `Type name (= init)? ;`
    Field {
        /// Field name span.
        name: (u32, u32),
        /// Initializer, if present.
        init: Option<Expr>,
    },
    /// `Type name(params) { body }`
    Method {
        /// Method name span.
        name: (u32, u32),
        /// Number of parameters.
        params: usize,
        /// Body statements.
        body: Vec<Stmt>,
    },
}

/// A statement.
#[derive(Debug)]
pub enum Stmt {
    /// `{ … }`
    Block(Vec<Stmt>),
    /// `if (c) t else e?`
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `while (c) body`
    While(Expr, Box<Stmt>),
    /// `do body while (c);`
    DoWhile(Box<Stmt>, Expr),
    /// `for (init?; cond?; update*) body`
    For(Option<Box<Stmt>>, Option<Expr>, Vec<Expr>, Box<Stmt>),
    /// `return e?;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `Type name (= e)?;`
    Local((u32, u32), Option<Expr>),
    /// `e;`
    Expr(Expr),
    /// `;`
    Empty,
}

/// An expression.
#[derive(Debug)]
pub enum Expr {
    /// Assignment `lhs = rhs`.
    Assign(Box<Expr>, Box<Expr>),
    /// Binary operation; the `u8` is an operator code.
    Binary(u8, Box<Expr>, Box<Expr>),
    /// Unary `!`/`-`.
    Unary(u8, Box<Expr>),
    /// Method call `recv.name(args)` or bare `name(args)`.
    Call(Option<Box<Expr>>, (u32, u32), Vec<Expr>),
    /// Field access.
    Field(Box<Expr>, (u32, u32)),
    /// Indexing.
    Index(Box<Expr>, Box<Expr>),
    /// `new T(args)`.
    New(Vec<Expr>),
    /// Identifier.
    Var((u32, u32)),
    /// Literal (span).
    Lit((u32, u32)),
}

// ----- Lexer -----

fn lex(src: &str) -> Result<Vec<Token>, HwError> {
    let b = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= b.len() {
                        return Err(HwError {
                            offset: start as u32,
                            message: "unterminated comment".into(),
                        });
                    }
                    if b[i] == b'*' && b[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
                continue;
            }
            _ => {}
        }
        let lo = i as u32;
        let tok = match c {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                match &src[lo as usize..i] {
                    "boolean" => Tok::KwBoolean,
                    "break" => Tok::KwBreak,
                    "char" => Tok::KwChar,
                    "class" => Tok::KwClass,
                    "continue" => Tok::KwContinue,
                    "do" => Tok::KwDo,
                    "else" => Tok::KwElse,
                    "false" => Tok::KwFalse,
                    "for" => Tok::KwFor,
                    "if" => Tok::KwIf,
                    "int" => Tok::KwInt,
                    "new" => Tok::KwNew,
                    "null" => Tok::KwNull,
                    "return" => Tok::KwReturn,
                    "true" => Tok::KwTrue,
                    "void" => Tok::KwVoid,
                    "while" => Tok::KwWhile,
                    _ => Tok::Ident,
                }
            }
            b'0'..=b'9' => {
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                Tok::Int
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                if i >= b.len() {
                    return Err(HwError {
                        offset: lo,
                        message: "unterminated string".into(),
                    });
                }
                i += 1;
                Tok::Str
            }
            b'\'' => {
                i += 1;
                if i < b.len() && b[i] == b'\\' {
                    i += 1;
                }
                i += 1;
                if i >= b.len() || b[i] != b'\'' {
                    return Err(HwError {
                        offset: lo,
                        message: "bad char literal".into(),
                    });
                }
                i += 1;
                Tok::Char
            }
            _ => {
                let two = |a: u8, bb: u8| i + 1 < b.len() && c == a && b[i + 1] == bb;
                let (t, n) = if two(b'=', b'=') {
                    (Tok::EqEq, 2)
                } else if two(b'!', b'=') {
                    (Tok::NotEq, 2)
                } else if two(b'<', b'=') {
                    (Tok::Le, 2)
                } else if two(b'>', b'=') {
                    (Tok::Ge, 2)
                } else if two(b'|', b'|') {
                    (Tok::OrOr, 2)
                } else if two(b'&', b'&') {
                    (Tok::AndAnd, 2)
                } else {
                    let t = match c {
                        b'(' => Tok::LParen,
                        b')' => Tok::RParen,
                        b'{' => Tok::LBrace,
                        b'}' => Tok::RBrace,
                        b'[' => Tok::LBrack,
                        b']' => Tok::RBrack,
                        b';' => Tok::Semi,
                        b',' => Tok::Comma,
                        b'.' => Tok::Dot,
                        b'=' => Tok::Assign,
                        b'!' => Tok::Bang,
                        b'-' => Tok::Minus,
                        b'<' => Tok::Lt,
                        b'>' => Tok::Gt,
                        b'+' => Tok::Plus,
                        b'*' => Tok::Star,
                        b'/' => Tok::Slash,
                        b'%' => Tok::Percent,
                        other => {
                            return Err(HwError {
                                offset: lo,
                                message: format!("unexpected character `{}`", other as char),
                            })
                        }
                    };
                    (t, 1)
                };
                i += n;
                t
            }
        };
        toks.push(Token {
            tok,
            lo,
            hi: i as u32,
        });
    }
    toks.push(Token {
        tok: Tok::Eof,
        lo: src.len() as u32,
        hi: src.len() as u32,
    });
    Ok(toks)
}

// ----- Parser -----

struct P {
    toks: Vec<Token>,
    pos: usize,
}

impl P {
    fn peek(&self) -> Tok {
        self.toks[self.pos].tok
    }

    fn at(&self) -> Token {
        self.toks[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: &str) -> Result<T, HwError> {
        Err(HwError {
            offset: self.at().lo,
            message: message.to_owned(),
        })
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<Token, HwError> {
        if self.peek() == tok {
            Ok(self.bump())
        } else {
            self.err(what)
        }
    }

    fn span(&mut self, tok: Tok, what: &str) -> Result<(u32, u32), HwError> {
        let t = self.expect(tok, what)?;
        Ok((t.lo, t.hi))
    }

    /// `Type := (int|boolean|char|void|Ident) ("[" "]")*` — returns whether
    /// it consumed a type. Deterministic lookahead: a type is only
    /// committed when followed by an identifier (caller checks).
    fn ty(&mut self) -> Result<(), HwError> {
        match self.peek() {
            Tok::KwInt | Tok::KwBoolean | Tok::KwChar | Tok::KwVoid | Tok::Ident => {
                self.bump();
            }
            _ => return self.err("expected a type"),
        }
        while self.peek() == Tok::LBrack && self.toks[self.pos + 1].tok == Tok::RBrack {
            self.bump();
            self.bump();
        }
        Ok(())
    }

    fn unit(&mut self) -> Result<Unit, HwError> {
        let mut classes = Vec::new();
        while self.peek() != Tok::Eof {
            classes.push(self.class()?);
        }
        if classes.is_empty() {
            return self.err("expected a class");
        }
        Ok(Unit { classes })
    }

    fn class(&mut self) -> Result<Class, HwError> {
        self.expect(Tok::KwClass, "expected `class`")?;
        let name = self.span(Tok::Ident, "expected class name")?;
        self.expect(Tok::LBrace, "expected `{`")?;
        let mut members = Vec::new();
        while self.peek() != Tok::RBrace {
            members.push(self.member()?);
        }
        self.bump();
        Ok(Class { name, members })
    }

    fn member(&mut self) -> Result<MemberDecl, HwError> {
        self.ty()?;
        let name = self.span(Tok::Ident, "expected member name")?;
        if self.peek() == Tok::LParen {
            self.bump();
            let mut params = 0;
            if self.peek() != Tok::RParen {
                loop {
                    self.ty()?;
                    self.span(Tok::Ident, "expected parameter name")?;
                    params += 1;
                    if self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "expected `)`")?;
            self.expect(Tok::LBrace, "expected method body")?;
            let mut body = Vec::new();
            while self.peek() != Tok::RBrace {
                body.push(self.statement()?);
            }
            self.bump();
            Ok(MemberDecl::Method { name, params, body })
        } else {
            let init = if self.peek() == Tok::Assign {
                self.bump();
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(Tok::Semi, "expected `;`")?;
            Ok(MemberDecl::Field { name, init })
        }
    }

    /// Distinguishes `Type Ident …` local declarations from expression
    /// statements with two-token lookahead — the determinism a tokenizing
    /// parser buys.
    fn looks_like_decl(&self) -> bool {
        match self.peek() {
            Tok::KwInt | Tok::KwBoolean | Tok::KwChar | Tok::KwVoid => true,
            Tok::Ident => {
                let mut j = self.pos + 1;
                while self.toks[j].tok == Tok::LBrack && self.toks[j + 1].tok == Tok::RBrack {
                    j += 2;
                }
                self.toks[j].tok == Tok::Ident
            }
            _ => false,
        }
    }

    fn statement(&mut self) -> Result<Stmt, HwError> {
        match self.peek() {
            Tok::LBrace => {
                self.bump();
                let mut body = Vec::new();
                while self.peek() != Tok::RBrace {
                    body.push(self.statement()?);
                }
                self.bump();
                Ok(Stmt::Block(body))
            }
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen, "expected `(`")?;
                let c = self.expr()?;
                self.expect(Tok::RParen, "expected `)`")?;
                let t = Box::new(self.statement()?);
                let e = if self.peek() == Tok::KwElse {
                    self.bump();
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                Ok(Stmt::If(c, t, e))
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen, "expected `(`")?;
                let c = self.expr()?;
                self.expect(Tok::RParen, "expected `)`")?;
                Ok(Stmt::While(c, Box::new(self.statement()?)))
            }
            Tok::KwDo => {
                self.bump();
                let body = Box::new(self.statement()?);
                self.expect(Tok::KwWhile, "expected `while`")?;
                self.expect(Tok::LParen, "expected `(`")?;
                let c = self.expr()?;
                self.expect(Tok::RParen, "expected `)`")?;
                self.expect(Tok::Semi, "expected `;`")?;
                Ok(Stmt::DoWhile(body, c))
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen, "expected `(`")?;
                let init = if self.peek() == Tok::Semi {
                    None
                } else if self.looks_like_decl() {
                    self.ty()?;
                    let name = self.span(Tok::Ident, "expected name")?;
                    self.expect(Tok::Assign, "expected `=`")?;
                    let e = self.expr()?;
                    Some(Box::new(Stmt::Local(name, Some(e))))
                } else {
                    Some(Box::new(Stmt::Expr(self.expr()?)))
                };
                self.expect(Tok::Semi, "expected `;`")?;
                let cond = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi, "expected `;`")?;
                let mut update = Vec::new();
                if self.peek() != Tok::RParen {
                    loop {
                        update.push(self.expr()?);
                        if self.peek() == Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RParen, "expected `)`")?;
                Ok(Stmt::For(init, cond, update, Box::new(self.statement()?)))
            }
            Tok::KwReturn => {
                self.bump();
                let e = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi, "expected `;`")?;
                Ok(Stmt::Return(e))
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi, "expected `;`")?;
                Ok(Stmt::Break)
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi, "expected `;`")?;
                Ok(Stmt::Continue)
            }
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            _ if self.looks_like_decl() => {
                self.ty()?;
                let name = self.span(Tok::Ident, "expected variable name")?;
                let init = if self.peek() == Tok::Assign {
                    self.bump();
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(Tok::Semi, "expected `;`")?;
                Ok(Stmt::Local(name, init))
            }
            _ => {
                let e = self.expr()?;
                self.expect(Tok::Semi, "expected `;`")?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, HwError> {
        let lhs = self.or_expr()?;
        if self.peek() == Tok::Assign {
            self.bump();
            let rhs = self.expr()?;
            return Ok(Expr::Assign(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn binary<F>(&mut self, next: F, ops: &[(Tok, u8)]) -> Result<Expr, HwError>
    where
        F: Fn(&mut Self) -> Result<Expr, HwError>,
    {
        let mut lhs = next(self)?;
        'outer: loop {
            for &(t, code) in ops {
                if self.peek() == t {
                    self.bump();
                    let rhs = next(self)?;
                    lhs = Expr::Binary(code, Box::new(lhs), Box::new(rhs));
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn or_expr(&mut self) -> Result<Expr, HwError> {
        self.binary(Self::and_expr, &[(Tok::OrOr, 0)])
    }

    fn and_expr(&mut self) -> Result<Expr, HwError> {
        self.binary(Self::eq_expr, &[(Tok::AndAnd, 1)])
    }

    fn eq_expr(&mut self) -> Result<Expr, HwError> {
        self.binary(Self::rel_expr, &[(Tok::EqEq, 2), (Tok::NotEq, 3)])
    }

    fn rel_expr(&mut self) -> Result<Expr, HwError> {
        self.binary(
            Self::add_expr,
            &[(Tok::Le, 4), (Tok::Ge, 5), (Tok::Lt, 6), (Tok::Gt, 7)],
        )
    }

    fn add_expr(&mut self) -> Result<Expr, HwError> {
        self.binary(Self::mul_expr, &[(Tok::Plus, 8), (Tok::Minus, 9)])
    }

    fn mul_expr(&mut self) -> Result<Expr, HwError> {
        self.binary(
            Self::unary_expr,
            &[(Tok::Star, 10), (Tok::Slash, 11), (Tok::Percent, 12)],
        )
    }

    fn unary_expr(&mut self) -> Result<Expr, HwError> {
        match self.peek() {
            Tok::Bang => {
                self.bump();
                Ok(Expr::Unary(0, Box::new(self.unary_expr()?)))
            }
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary(1, Box::new(self.unary_expr()?)))
            }
            _ => self.postfix(),
        }
    }

    fn args(&mut self) -> Result<Vec<Expr>, HwError> {
        self.expect(Tok::LParen, "expected `(`")?;
        let mut args = Vec::new();
        if self.peek() != Tok::RParen {
            loop {
                args.push(self.expr()?);
                if self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "expected `)`")?;
        Ok(args)
    }

    fn postfix(&mut self) -> Result<Expr, HwError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let name = self.span(Tok::Ident, "expected member name")?;
                    if self.peek() == Tok::LParen {
                        let args = self.args()?;
                        e = Expr::Call(Some(Box::new(e)), name, args);
                    } else {
                        e = Expr::Field(Box::new(e), name);
                    }
                }
                Tok::LBrack => {
                    self.bump();
                    let i = self.expr()?;
                    self.expect(Tok::RBrack, "expected `]`")?;
                    e = Expr::Index(Box::new(e), Box::new(i));
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, HwError> {
        match self.peek() {
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen, "expected `)`")?;
                Ok(e)
            }
            Tok::KwNew => {
                self.bump();
                self.ty()?;
                let args = self.args()?;
                Ok(Expr::New(args))
            }
            Tok::Ident => {
                let t = self.bump();
                if self.peek() == Tok::LParen {
                    let args = self.args()?;
                    Ok(Expr::Call(None, (t.lo, t.hi), args))
                } else {
                    Ok(Expr::Var((t.lo, t.hi)))
                }
            }
            Tok::Int | Tok::Str | Tok::Char | Tok::KwTrue | Tok::KwFalse | Tok::KwNull => {
                let t = self.bump();
                Ok(Expr::Lit((t.lo, t.hi)))
            }
            _ => self.err("expected an expression"),
        }
    }
}

/// Parses a Java-subset compilation unit with the hand-written parser.
///
/// # Errors
///
/// Returns an [`HwError`] with the failing byte offset.
pub fn parse_java(src: &str) -> Result<Unit, HwError> {
    let toks = lex(src)?;
    let mut p = P { toks, pos: 0 };
    p.unit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_class() {
        let unit = parse_java(
            "class A { int x = 1; int f(int a, int b) { if (a < b) { return a; } return b; } }",
        )
        .unwrap();
        assert_eq!(unit.classes.len(), 1);
        assert_eq!(unit.classes[0].members.len(), 2);
        match &unit.classes[0].members[1] {
            MemberDecl::Method { params, body, .. } => {
                assert_eq!(*params, 2);
                assert_eq!(body.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn statement_forms() {
        let unit = parse_java(
            "class A { void f() { int i = 0; for (i = 0; i < 3; i = i + 1) { g(i, 2); } \
             while (i > 0) { i = i - 1; } do { ; } while (false); break; continue; return; } }",
        )
        .unwrap();
        let MemberDecl::Method { body, .. } = &unit.classes[0].members[0] else {
            panic!()
        };
        assert!(body.len() >= 6);
    }

    #[test]
    fn expressions_and_precedence() {
        let unit = parse_java("class A { int f() { return 1 + 2 * 3 - x[0].size(); } }").unwrap();
        let MemberDecl::Method { body, .. } = &unit.classes[0].members[0] else {
            panic!()
        };
        let Stmt::Return(Some(Expr::Binary(9, lhs, _))) = &body[0] else {
            panic!("{body:?}")
        };
        // lhs of `-` is `1 + 2*3`.
        let Expr::Binary(8, _, mul) = &**lhs else {
            panic!("{lhs:?}")
        };
        assert!(matches!(&**mul, Expr::Binary(10, _, _)));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_java("class A { int f( { } }").is_err());
        assert!(parse_java("class A { int x = ; }").is_err());
        assert!(parse_java("class { }").is_err());
        let err = parse_java("class A ! {}").unwrap_err();
        assert!(err.offset() > 0);
    }

    #[test]
    fn parses_synthetic_workloads() {
        for seed in 0..5u64 {
            let program = modpeg_workload::java_program(seed, 6_000);
            parse_java(&program).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn comments_and_literals() {
        let src = "// leading\nclass A { /* b */ int f() { String s; s = \"x\\\"y\"; char c = '\\n'; return 0; } }";
        assert!(parse_java(src).is_ok());
    }
}
