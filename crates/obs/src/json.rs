//! The workspace's JSON codec: one value type, one string escaper, typed
//! field accessors, and one parser.
//!
//! It carries exactly the shapes the repository writes — strings,
//! unsigned integers, arrays, and objects whose keys keep their source
//! order — and nothing else: no floats, negatives, booleans or `null`.
//! Emitters write JSON by hand in a fixed field order, so their output
//! stays byte-stable, and pass every string through [`escape`]; readers
//! go through [`parse`] and the accessors.
//!
//! What the parser reads comes from another process or from disk (shard
//! reports, span streams), so it treats its input as untrusted: time is
//! linear in the input length, nesting deeper than 64 levels is an
//! error instead of a stack overflow, and trailing bytes, duplicate
//! keys, out-of-range numbers, raw control characters and malformed
//! escapes are rejected with the byte offset of the fault.

use std::collections::HashSet;
use std::fmt::Write as _;

/// The deepest array/object nesting [`parse`] accepts. The deepest
/// document the repository writes, a shard report file, nests 6 levels.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// A string, escapes resolved.
    Str(String),
    /// An unsigned integer.
    Num(u64),
    /// An array.
    Arr(Vec<Json>),
    /// An object: unique keys, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object fields, or an error naming `ctx`.
    pub fn obj(&self, ctx: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(f) => Ok(f),
            _ => Err(format!("{ctx}: expected an object")),
        }
    }

    /// The array elements, or an error naming `ctx`.
    pub fn arr(&self, ctx: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => Err(format!("{ctx}: expected an array")),
        }
    }

    /// The number, or an error naming `ctx`.
    pub fn num(&self, ctx: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("{ctx}: expected a number")),
        }
    }

    /// The string, or an error naming `ctx`.
    pub fn str(&self, ctx: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{ctx}: expected a string")),
        }
    }
}

/// Looks up a required object field.
pub fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Looks up a required number field.
pub fn num_field(fields: &[(String, Json)], key: &str) -> Result<u64, String> {
    field(fields, key)?.num(key)
}

/// Looks up a required string field.
pub fn str_field<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    field(fields, key)?.str(key)
}

/// Escapes a string for the inside of a JSON string literal: `"`, `\`
/// and every control character, with the short forms `\n`, `\t` and
/// `\r` where they exist and `\u00XX` for the rest.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses one JSON document. Whitespace may surround it; nothing else
/// may follow it.
///
/// # Errors
///
/// Returns a description of the first fault and its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected {:?}", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    /// One value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(_) => Err(self.err("expected a string, number, array or object")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| format!("number out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go. Those bytes are ASCII, so the run ends on
            // a char boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
            let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.hex_escape()?,
                _ => return Err(self.err("unknown escape")),
            });
        }
    }

    /// The four hex digits of a `\u` escape. Surrogates are rejected:
    /// [`escape`] never writes them.
    fn hex_escape(&mut self) -> Result<char, String> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("\\u needs four hex digits"))?;
        let c = char::from_u32(code).ok_or_else(|| self.err("surrogate \\u escape"))?;
        self.pos += 4;
        Ok(c)
    }

    /// An array; `depth` counts it.
    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// An object; `depth` counts it.
    fn object(&mut self, depth: usize) -> Result<Json, String> {
        let start = self.pos;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
        let mut seen = HashSet::with_capacity(fields.len());
        if let Some((key, _)) = fields.iter().find(|(k, _)| !seen.insert(k.as_str())) {
            return Err(format!("duplicate key {key:?} in the object at byte {start}"));
        }
        Ok(Json::Obj(fields))
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;

    fn s(text: &str) -> Json {
        Json::Str(text.into())
    }

    #[test]
    fn parses_every_shape_with_whitespace() {
        let v = parse(concat!(
            " { \"a\" : 1 ,\n\t\"b\" : \"x\\ny\" ,\r\n",
            " \"c\" : [ 1 , 2 , { \"d\" : [ ] } ] , \"e\" : { } } ",
        ))
        .unwrap();
        let f = v.obj("doc").unwrap();
        assert_eq!(num_field(f, "a").unwrap(), 1);
        assert_eq!(str_field(f, "b").unwrap(), "x\ny");
        let c = field(f, "c").unwrap().arr("c").unwrap();
        assert_eq!(c[..2], [Json::Num(1), Json::Num(2)]);
        assert_eq!(c[2], Json::Obj(vec![("d".into(), Json::Arr(vec![]))]));
        assert_eq!(field(f, "e").unwrap(), &Json::Obj(vec![]));
        let keys: Vec<&str> = f.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "c", "e"]);
    }

    #[test]
    fn accessors_name_the_field() {
        let v = parse(r#"{"n":1,"s":"x"}"#).unwrap();
        let f = v.obj("doc").unwrap();
        assert_eq!(num_field(f, "s").unwrap_err(), "s: expected a number");
        assert_eq!(str_field(f, "n").unwrap_err(), "n: expected a string");
        assert_eq!(field(f, "z").unwrap_err(), "missing field \"z\"");
        assert_eq!(v.arr("doc").unwrap_err(), "doc: expected an array");
    }

    #[test]
    fn resolves_every_escape_and_utf8() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t\u0041\u00e9\u20ac""#).unwrap(),
            s("\"\\/\u{8}\u{c}\n\r\tAé€")
        );
        assert_eq!(parse("\"caf\u{e9} \u{1f600} \\u00e9\"").unwrap(), s("café 😀 é"));
        assert_eq!(parse(r#""\u004A\u004a""#).unwrap(), s("JJ"));
    }

    #[test]
    fn escape_round_trips_every_control_and_special_character() {
        let text: String =
            (0u32..0x80).filter_map(char::from_u32).chain("é€😀".chars()).collect();
        let lit = format!("\"{}\"", escape(&text));
        assert!(lit.bytes().all(|b| b >= 0x20), "escape must leave no raw control byte");
        assert_eq!(parse(&lit).unwrap(), Json::Str(text));
        assert_eq!(
            escape("a\"b\\c\nd\te\rf\u{1}g\u{1f}"),
            r#"a\"b\\c\nd\te\rf\u0001g\u001f"#
        );
    }

    #[test]
    fn numbers_are_unsigned_64_bit() {
        assert_eq!(parse("0").unwrap(), Json::Num(0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Num(u64::MAX));
        assert!(parse("18446744073709551616").is_err());
        assert!(parse("-1").is_err());
        assert!(parse("1.5").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "   ",
            "{\"a\":1}garbage",
            "[1] [2]",
            "{\"a\":1,\"a\":2}",
            "{\"a\":{\"b\":1,\"b\":1}}",
            "[1,]",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "{1:2}",
            "{",
            "[1",
            "{\"a\":",
            "\"abc",
            "\"abc\\",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\ud800\"",
            "\"a\tb\"",
            "\"a\nb\"",
            "true",
            "null",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(
            parse("[1,]").unwrap_err(),
            "expected a string, number, array or object at byte 3"
        );
        assert_eq!(parse("{\"a\":1} x").unwrap_err(), "trailing characters at byte 8");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "x\u{e9}".repeat(200_000);
        let doc = format!("\"{body}\"");
        let t = Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(v, Json::Str(body));
        assert!(
            elapsed < Duration::from_secs(1),
            "400,000-character string took {elapsed:?}"
        );
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
