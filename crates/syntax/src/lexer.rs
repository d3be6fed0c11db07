//! Lexer for the modpeg grammar-module language.

use modpeg_core::{CharClass, Diagnostic, SrcSpan};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// An identifier or keyword (keywords are recognized by the parser).
    Ident(String),
    /// A string literal (escapes already processed).
    Str(String),
    /// A character class (normalized).
    Class(CharClass),
    /// `=`
    Eq,
    /// `:=`
    ColonEq,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
    /// `/`
    Slash,
    /// `;`
    Semi,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `...`
    Ellipsis,
    /// `?`
    Question,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `&`
    Amp,
    /// `!`
    Bang,
    /// `$`
    Dollar,
    /// `%`
    Percent,
    /// `@` (introduces clause annotations such as `@recover(...)`)
    At,
    /// End of input.
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Str(s) => write!(f, "string \"{s}\""),
            Tok::Class(c) => write!(f, "class {c}"),
            Tok::Eq => f.write_str("`=`"),
            Tok::ColonEq => f.write_str("`:=`"),
            Tok::PlusEq => f.write_str("`+=`"),
            Tok::MinusEq => f.write_str("`-=`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::Ellipsis => f.write_str("`...`"),
            Tok::Question => f.write_str("`?`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::Amp => f.write_str("`&`"),
            Tok::Bang => f.write_str("`!`"),
            Tok::Dollar => f.write_str("`$`"),
            Tok::Percent => f.write_str("`%`"),
            Tok::At => f.write_str("`@`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Where it came from.
    pub span: SrcSpan,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn err(&self, lo: usize, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::error(msg).with_span(SrcSpan::new(lo as u32, self.pos as u32))
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let lo = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(self.err(lo, "unterminated block comment"));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn escape(&mut self, lo: usize) -> Result<char, Diagnostic> {
        match self.bump() {
            Some(b'n') => Ok('\n'),
            Some(b'r') => Ok('\r'),
            Some(b't') => Ok('\t'),
            Some(b'0') => Ok('\0'),
            Some(b'\\') => Ok('\\'),
            Some(b'\'') => Ok('\''),
            Some(b'"') => Ok('"'),
            Some(b']') => Ok(']'),
            Some(b'[') => Ok('['),
            Some(b'-') => Ok('-'),
            Some(b'^') => Ok('^'),
            Some(b'x') => {
                let mut v = 0u32;
                for _ in 0..2 {
                    let d = self
                        .bump()
                        .and_then(|b| (b as char).to_digit(16))
                        .ok_or_else(|| self.err(lo, "invalid \\x escape"))?;
                    v = v * 16 + d;
                }
                char::from_u32(v).ok_or_else(|| self.err(lo, "invalid \\x escape"))
            }
            Some(b'u') => {
                if self.bump() != Some(b'{') {
                    return Err(self.err(lo, "expected `{` after \\u"));
                }
                let mut v = 0u32;
                loop {
                    match self.bump() {
                        Some(b'}') => break,
                        Some(b) => {
                            let d = (b as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err(lo, "invalid \\u escape"))?;
                            v = v * 16 + d;
                            if v > 0x10FFFF {
                                return Err(self.err(lo, "\\u escape out of range"));
                            }
                        }
                        None => return Err(self.err(lo, "unterminated \\u escape")),
                    }
                }
                char::from_u32(v).ok_or_else(|| self.err(lo, "invalid \\u escape"))
            }
            Some(other) => Err(self.err(lo, format!("unknown escape `\\{}`", other as char))),
            None => Err(self.err(lo, "unterminated escape")),
        }
    }

    /// Decodes one UTF-8 char starting at the current position.
    fn bump_char(&mut self, lo: usize) -> Result<char, Diagnostic> {
        let rest = &self.src[self.pos..];
        let s = std::str::from_utf8(&rest[..rest.len().min(4)])
            .or_else(|e| {
                if e.valid_up_to() > 0 {
                    std::str::from_utf8(&rest[..e.valid_up_to()])
                } else {
                    Err(e)
                }
            })
            .map_err(|_| self.err(lo, "invalid UTF-8 in source"))?;
        let c = s
            .chars()
            .next()
            .ok_or_else(|| self.err(lo, "unexpected end of input"))?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    fn string(&mut self, quote: u8, lo: usize) -> Result<String, Diagnostic> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => return Err(self.err(lo, "unterminated string literal")),
                Some(b) if b == quote => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape(lo)?);
                }
                Some(_) => out.push(self.bump_char(lo)?),
            }
        }
    }

    fn class(&mut self, lo: usize) -> Result<CharClass, Diagnostic> {
        let negated = if self.peek() == Some(b'^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut ranges: Vec<(char, char)> = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => return Err(self.err(lo, "unterminated character class")),
                Some(b']') => {
                    self.pos += 1;
                    if ranges.is_empty() {
                        return Err(self.err(lo, "empty character class"));
                    }
                    return Ok(CharClass::from_ranges(ranges, negated));
                }
                _ => {
                    let start = if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.escape(lo)?
                    } else {
                        self.bump_char(lo)?
                    };
                    // A `-` that is not last denotes a range.
                    if self.peek() == Some(b'-') && self.peek2() != Some(b']') {
                        self.pos += 1;
                        let end = if self.peek() == Some(b'\\') {
                            self.pos += 1;
                            self.escape(lo)?
                        } else {
                            self.bump_char(lo)?
                        };
                        if end < start {
                            return Err(self.err(lo, format!("inverted range `{start}-{end}`")));
                        }
                        ranges.push((start, end));
                    } else {
                        ranges.push((start, start));
                    }
                }
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, Diagnostic> {
        self.skip_trivia()?;
        let lo = self.pos;
        let span = |hi: usize| SrcSpan::new(lo as u32, hi as u32);
        let Some(b) = self.peek() else {
            return Ok(Token {
                tok: Tok::Eof,
                span: span(lo),
            });
        };
        let tok = match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                while matches!(
                    self.peek(),
                    Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[lo..self.pos])
                    .expect("identifier bytes are ASCII")
                    .to_owned();
                Tok::Ident(text)
            }
            b'"' | b'\'' => {
                self.pos += 1;
                Tok::Str(self.string(b, lo)?)
            }
            b'[' => {
                self.pos += 1;
                Tok::Class(self.class(lo)?)
            }
            b':' if self.peek2() == Some(b'=') => {
                self.pos += 2;
                Tok::ColonEq
            }
            b'+' if self.peek2() == Some(b'=') => {
                self.pos += 2;
                Tok::PlusEq
            }
            b'-' if self.peek2() == Some(b'=') => {
                self.pos += 2;
                Tok::MinusEq
            }
            b'.' if self.peek2() == Some(b'.') && self.src.get(self.pos + 2) == Some(&b'.') => {
                self.pos += 3;
                Tok::Ellipsis
            }
            _ => {
                self.pos += 1;
                match b {
                    b'=' => Tok::Eq,
                    b'/' => Tok::Slash,
                    b';' => Tok::Semi,
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'<' => Tok::Lt,
                    b'>' => Tok::Gt,
                    b',' => Tok::Comma,
                    b'.' => Tok::Dot,
                    b'?' => Tok::Question,
                    b'*' => Tok::Star,
                    b'+' => Tok::Plus,
                    b'&' => Tok::Amp,
                    b'!' => Tok::Bang,
                    b'$' => Tok::Dollar,
                    b'%' => Tok::Percent,
                    b'@' => Tok::At,
                    other => {
                        return Err(
                            self.err(lo, format!("unexpected character `{}`", other as char))
                        )
                    }
                }
            }
        };
        Ok(Token {
            tok,
            span: span(self.pos),
        })
    }
}

/// Tokenizes `src`, appending a final [`Tok::Eof`].
///
/// # Errors
///
/// Returns a located diagnostic for unterminated strings/classes/comments,
/// bad escapes, and stray characters.
pub fn lex(src: &str) -> Result<Vec<Token>, Diagnostic> {
    let mut lexer = Lexer {
        src: src.as_bytes(),
        pos: 0,
    };
    let mut out = Vec::new();
    loop {
        let t = lexer.next_token()?;
        let done = t.tok == Tok::Eof;
        out.push(t);
        if done {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_and_symbols() {
        assert_eq!(
            toks("module a.b;"),
            vec![
                Tok::Ident("module".into()),
                Tok::Ident("a".into()),
                Tok::Dot,
                Tok::Ident("b".into()),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_including_compound() {
        assert_eq!(
            toks("= := += -= ... . / ? * + & ! $ % < > ( ) ,"),
            vec![
                Tok::Eq,
                Tok::ColonEq,
                Tok::PlusEq,
                Tok::MinusEq,
                Tok::Ellipsis,
                Tok::Dot,
                Tok::Slash,
                Tok::Question,
                Tok::Star,
                Tok::Plus,
                Tok::Amp,
                Tok::Bang,
                Tok::Dollar,
                Tok::Percent,
                Tok::Lt,
                Tok::Gt,
                Tok::LParen,
                Tok::RParen,
                Tok::Comma,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""a\nb" 'c' "\x41" "\u{1F600}""#),
            vec![
                Tok::Str("a\nb".into()),
                Tok::Str("c".into()),
                Tok::Str("A".into()),
                Tok::Str("😀".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn classes() {
        let ts = toks(r"[a-z0-9_] [^\n] [\]-]");
        match &ts[0] {
            Tok::Class(c) => {
                assert!(c.matches('q') && c.matches('5') && c.matches('_') && !c.matches('-'))
            }
            other => panic!("{other:?}"),
        }
        match &ts[1] {
            Tok::Class(c) => assert!(c.is_negated() && !c.matches('\n') && c.matches('x')),
            other => panic!("{other:?}"),
        }
        match &ts[2] {
            Tok::Class(c) => assert!(c.matches(']') && c.matches('-')),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // line\n b /* block\n more */ c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn class_trailing_dash_is_literal() {
        match &toks("[a-]")[0] {
            Tok::Class(c) => assert!(c.matches('a') && c.matches('-')),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_cases() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("[unterminated").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("\"bad \\q escape\"").is_err());
        assert!(lex("[]").is_err());
        assert!(lex("[z-a]").is_err());
        assert!(lex("#").is_err());
    }

    #[test]
    fn spans_are_recorded() {
        let ts = lex("ab cd").unwrap();
        assert_eq!(ts[0].span, SrcSpan::new(0, 2));
        assert_eq!(ts[1].span, SrcSpan::new(3, 5));
    }

    #[test]
    fn unicode_in_strings_and_classes() {
        match &toks("[α-ω]")[0] {
            Tok::Class(c) => assert!(c.matches('β') && !c.matches('a')),
            other => panic!("{other:?}"),
        }
        assert_eq!(toks("\"héllo\"")[0], Tok::Str("héllo".into()));
    }
}
