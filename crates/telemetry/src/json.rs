//! A minimal JSON reader: one recursive-descent parser over the RFC 8259
//! grammar.
//!
//! The workspace is deliberately dependency-free, so the exporter tests
//! cannot lean on serde; this hand-rolled parser is what asserts that
//! every JSON exporter emits something a real consumer will load, and
//! what loads `.mprof` profiles and tuning plans.

/// Validates that `text` is exactly one well-formed JSON value.
///
/// # Errors
///
/// A human-readable description of the first violation, with its byte
/// offset.
pub fn validate_json(text: &str) -> Result<(), String> {
    parse_json(text).map(|_| ())
}

/// A materialized JSON value, as read back by [`parse_json`].
///
/// Numbers keep their source lexeme so integer counters round-trip at
/// full `u64` precision (an `f64` materialization would corrupt 64-bit
/// grammar fingerprints); use [`JsonValue::as_u64`] / [`JsonValue::as_f64`]
/// to interpret them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its source lexeme.
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys kept as-is).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for other shapes or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative integral
    /// number lexeme.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(lex) => lex.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(lex) => lex.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `text` as exactly one JSON value (RFC 8259), materializing it.
///
/// # Errors
///
/// A human-readable description of the first violation, with its byte
/// offset.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut r = Reader {
        text,
        pos: 0,
        depth: 0,
    };
    r.skip_ws();
    let v = r.value()?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(format!("trailing data at byte {}", r.pos));
    }
    Ok(v)
}

/// Nesting ceiling: the reader recurses per container, so hostile depth
/// must fail cleanly instead of overflowing the stack.
const MAX_DEPTH: u32 = 512;

struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: u32,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte {b:#04x} at {}", self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let decoded = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    self.pos += 1;
                    out.push(decoded);
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("unescaped control byte {b:#04x} at {}", self.pos))
                }
                Some(_) => {
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("not at the end");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the code unit after a `\u`. A high surrogate directly
    /// followed by a `\u`-escaped low surrogate is one character; an
    /// unpaired surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) && self.text[self.pos..].starts_with("\\u") {
            let high_end = self.pos;
            self.pos += 2;
            if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4() {
                let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(c).expect("a surrogate pair is a scalar value"));
            }
            // Not a low surrogate: the next escape is decoded on its own.
            self.pos = high_end;
        }
        Ok(char::from_u32(unit).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(format!("expected digit at byte {}", self.pos)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("expected fraction digit at byte {}", self.pos));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("expected exponent digit at byte {}", self.pos));
            }
            self.digits();
        }
        Ok(JsonValue::Num(self.text[start..self.pos].to_string()))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included): the one JSON string escaper every writer in the workspace
/// uses.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            "  false ",
            "0",
            "-12.5e+3",
            "\"a\\nb\\u00e9\"",
            "[]",
            "[1, 2, [3]]",
            "{}",
            r#"{"a": 1, "b": [true, null], "c": {"d": "e"}}"#,
        ] {
            assert!(validate_json(doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "nul",
            "01",
            "1.",
            "[1,]",
            "{\"a\":}",
            "{'a': 1}",
            "\"unterminated",
            "\"bad \u{1} control\"",
            "[1] trailing",
            "{\"a\" 1}",
        ] {
            assert!(validate_json(doc).is_err(), "{doc:?} should be rejected");
        }
    }

    #[test]
    fn depth_ceiling_fails_cleanly() {
        let deep = "[".repeat(600) + &"]".repeat(600);
        assert!(validate_json(&deep).is_err());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn parse_materializes_values() {
        let v = parse_json(r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5}}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        let b = v.get("b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], JsonValue::Bool(true));
        assert_eq!(b[1], JsonValue::Null);
        assert_eq!(b[2].as_str(), Some("x\ny"));
        let d = v.get("c").and_then(|c| c.get("d")).unwrap();
        assert_eq!(d.as_f64(), Some(-2.5));
        assert_eq!(d.as_u64(), None);
    }

    #[test]
    fn parse_preserves_u64_precision() {
        // 2^63 + 3 is not representable as f64; the lexeme keeps it exact.
        let v = parse_json("{\"fp\": 9223372036854775811}").unwrap();
        assert_eq!(
            v.get("fp").and_then(JsonValue::as_u64),
            Some(9223372036854775811)
        );
    }

    #[test]
    fn parse_decodes_unicode_escapes() {
        let v = parse_json("\"caf\\u00e9 \\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("café A"));
    }

    #[test]
    fn parse_joins_surrogate_pairs() {
        let v = parse_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        // Unpaired halves still decode, as U+FFFD.
        let v = parse_json("\"\\ud83d x \\ude00 \\ud83d\\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd} x \u{fffd} \u{fffd}A"));
        assert!(parse_json("\"\\ud83d\\uzzzz\"").is_err());
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("").is_err());
    }
}
