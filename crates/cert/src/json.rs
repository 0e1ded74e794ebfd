//! A minimal self-describing JSON value model with a parser and a compact
//! renderer.
//!
//! This is the serialization substrate shared by every codec in the
//! workspace: certificates ([`crate::model`]), machines
//! (`ctam-topology`'s codec), nest mappings and diagnostics (`ctam`'s
//! `verify::diag`). It is deliberately tiny — objects preserve insertion
//! order, numbers are `i64` or `f64`, and the renderer emits the same
//! compact byte-for-byte encoding the verifier's hand-rolled diagnostics
//! serializer always produced (no spaces, [`escape_str`] escaping).
//!
//! Floats render through Rust's `{:?}` (shortest round-trip) and parse with
//! `str::parse::<f64>()`, so `parse(render(x)) == x` holds for every finite
//! value.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their key insertion order so rendering
/// after a parse reproduces the input bytes for compact documents.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no decimal point or exponent in the source).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|x| usize::try_from(x).ok())
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|x| u64::try_from(x).ok())
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(x) => Some(*x),
            JsonValue::Int(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value compactly (no whitespace, insertion-order keys).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Float(x) => {
                // `{:?}` is Rust's shortest round-trip rendering; it always
                // includes a decimal point or exponent for finite values, so
                // the parser classifies it back as a float.
                let _ = write!(out, "{x:?}");
            }
            JsonValue::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document, appending to `out`.
///
/// The escape set matches the verifier's original hand-rolled diagnostics
/// encoder exactly (`\"`, `\\`, `\n`, `\t`, `\r`, and `\u00XX` for other C0
/// controls), so refactoring that encoder onto this function keeps committed
/// reference outputs byte-identical.
pub fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
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
}

/// [`escape_into`] returning a fresh string.
pub fn escape_str(s: &str) -> String {
    let mut out = String::new();
    escape_into(s, &mut out);
    out
}

/// Parses a JSON document. Trailing non-whitespace input is an error.
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its byte
/// offset.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte `{}` at {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        } else {
            text.parse::<i64>()
                .map(JsonValue::Int)
                .map_err(|_| format!("invalid integer `{text}` at byte {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run before the next of them is
            // whole UTF-8 of the input: copy it in one piece.
            let rest = &self.bytes[self.pos..];
            let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err("unterminated string".to_owned());
            };
            let run = self
                .text
                .get(self.pos..self.pos + len)
                .ok_or_else(|| "invalid UTF-8 in string".to_owned())?;
            out.push_str(run);
            self.pos += len + 1;
            if rest[len] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err("unterminated escape".to_owned());
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let end = self.pos + 4;
                    let hex = self
                        .bytes
                        .get(self.pos..end)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| "truncated \\u escape".to_owned())?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("invalid \\u escape `{hex}`"))?;
                    // Surrogate pairs never occur in our documents (the
                    // renderer only emits \u00XX controls); replace lone
                    // surrogates rather than erroring.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos = end;
                }
                other => return Err(format!("invalid escape `\\{}`", char::from(other))),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

// ---- conversion helpers used by the workspace codecs -----------------------

/// Builds a JSON array of integers.
pub fn int_array<I: IntoIterator<Item = i64>>(xs: I) -> JsonValue {
    JsonValue::Array(xs.into_iter().map(JsonValue::Int).collect())
}

/// Builds a JSON array of arrays of integers (e.g. a distance set).
pub fn int_matrix<'a, I: IntoIterator<Item = &'a Vec<i64>>>(xs: I) -> JsonValue {
    JsonValue::Array(
        xs.into_iter()
            .map(|row| int_array(row.iter().copied()))
            .collect(),
    )
}

/// Reads a JSON array of integers.
///
/// # Errors
///
/// When `v` is not an array of integers.
pub fn read_i64s(v: &JsonValue, what: &str) -> Result<Vec<i64>, String> {
    v.as_array()
        .ok_or_else(|| format!("{what}: expected an array"))?
        .iter()
        .map(|x| {
            x.as_i64()
                .ok_or_else(|| format!("{what}: expected integers"))
        })
        .collect()
}

/// Reads a JSON array of integer arrays.
///
/// # Errors
///
/// When `v` is not an array of integer arrays.
pub fn read_i64_rows(v: &JsonValue, what: &str) -> Result<Vec<Vec<i64>>, String> {
    v.as_array()
        .ok_or_else(|| format!("{what}: expected an array"))?
        .iter()
        .map(|row| read_i64s(row, what))
        .collect()
}

/// Reads a JSON array of non-negative integers as `usize`.
///
/// # Errors
///
/// When `v` is not an array of non-negative integers.
pub fn read_usizes(v: &JsonValue, what: &str) -> Result<Vec<usize>, String> {
    v.as_array()
        .ok_or_else(|| format!("{what}: expected an array"))?
        .iter()
        .map(|x| {
            x.as_usize()
                .ok_or_else(|| format!("{what}: expected non-negative integers"))
        })
        .collect()
}

/// Reads a required field of a JSON object.
///
/// # Errors
///
/// When the field is missing.
pub fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compactly_in_insertion_order() {
        let v = JsonValue::Object(vec![
            ("b".to_owned(), JsonValue::Int(2)),
            ("a".to_owned(), JsonValue::Array(vec![JsonValue::Null])),
        ]);
        assert_eq!(v.render(), r#"{"b":2,"a":[null]}"#);
    }

    #[test]
    fn parse_render_roundtrip() {
        let src = r#"{"code":"CTAM-E001","n":-42,"f":2.5,"ok":true,"xs":[1,[2,3],{}]}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.render(), src);
    }

    #[test]
    fn escapes_match_the_legacy_diagnostics_encoder() {
        assert_eq!(
            escape_str("say \"hi\"\\ \n\t\r \u{1}"),
            "say \\\"hi\\\"\\\\ \\n\\t\\r \\u0001"
        );
        let v = JsonValue::Str("a\nb".to_owned());
        assert_eq!(v.render(), "\"a\\nb\"");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.5, 2.0, 3.2, 1e-9, -123.456, 2.333333333333333] {
            let v = JsonValue::Float(x);
            assert_eq!(parse(&v.render()).unwrap(), v, "{x}");
        }
    }

    #[test]
    fn ints_and_floats_are_distinguished() {
        assert_eq!(parse("3").unwrap(), JsonValue::Int(3));
        assert_eq!(parse("3.0").unwrap(), JsonValue::Float(3.0));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases = [
            ("{", "expected `\"` at byte 1"),
            ("[1,", "unexpected end of input"),
            ("\"abc", "unterminated string"),
            ("{\"a\" 1}", "expected `:` at byte 5"),
            ("1 2", "trailing input at byte 2"),
            ("tru", "invalid literal at byte 0"),
            ("{'a':1}", "expected `\"` at byte 1"),
            ("[\"a\\", "unterminated escape"),
            ("\"\\q\"", "invalid escape `\\q`"),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"\\u12zz\"", "invalid \\u escape `12zz`"),
            ("\"\\u0é\"", "invalid \\u escape `0é\"`"),
            ("\"\\u000é\"", "truncated \\u escape"),
            ("[\"é\" \"", "expected `,` or `]` at byte 6"),
        ];
        for (bad, error) in cases {
            assert_eq!(parse(bad), Err(error.to_owned()), "{bad}");
        }
    }

    #[test]
    fn strings_roundtrip_through_the_renderer() {
        let controls: String = (0..0x20u8).map(char::from).collect();
        let long = "abc".repeat(40_000);
        let cases = [
            String::new(),
            long.clone(),
            format!("{long}\"{long}\\{long}"),
            "\"\\\n\t\r".to_owned(),
            controls.clone(),
            "é€😀".to_owned(),
            format!("\"é\n€\t😀\\{controls}😀\"é"),
            "😀".repeat(10_000),
            format!("x{}y", "\n".repeat(1_000)),
        ];
        for s in cases {
            let v = JsonValue::Str(s.clone());
            assert_eq!(parse(&v.render()), Ok(v.clone()), "{s:?}");
            // The string last in its document, and between other values.
            let doc = JsonValue::Array(vec![JsonValue::Int(1), v.clone()]);
            assert_eq!(parse(&doc.render()), Ok(doc), "{s:?}");
            let doc = JsonValue::Object(vec![(s.clone(), v), ("k".to_owned(), JsonValue::Null)]);
            assert_eq!(parse(&doc.render()), Ok(doc), "{s:?}");
        }
    }

    #[test]
    fn strings_take_escapes_the_renderer_never_emits() {
        let cases = [
            ("\"a\u{1}b\u{1f}\"", "a\u{1}b\u{1f}"),
            ("\"\\/\\b\\f\"", "/\u{8}\u{c}"),
            ("\"\\u00e9\\u20AC\"", "é€"),
            ("\"\\ud800\"", "\u{fffd}"),
            ("\"é\\\"😀\\u0041\"", "é\"😀A"),
        ];
        for (doc, value) in cases {
            assert_eq!(parse(doc), Ok(JsonValue::Str(value.to_owned())), "{doc}");
        }
    }

    /// Each string is scanned once: a document's parse time is linear in
    /// its length, however its bytes are split into strings.
    #[test]
    fn long_strings_and_many_keys_parse_in_linear_time() {
        let literal = format!("\"{}\"", "x".repeat(1 << 20));
        let objects: Vec<String> = (0..100_000).map(|i| format!("{{\"{i:x}\":1}}")).collect();
        let keys = format!("[{}]", objects.join(","));
        assert!(keys.len() >= 1 << 20, "{}", keys.len());
        for doc in [literal, keys] {
            let start = std::time::Instant::now();
            assert!(parse(&doc).is_ok());
            let took = start.elapsed();
            assert!(
                took.as_secs_f64() < 1.0,
                "{} bytes took {took:?}",
                doc.len()
            );
        }
    }

    #[test]
    fn whitespace_is_tolerated_on_parse() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.render(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn unicode_strings_survive() {
        let v = JsonValue::Str("σ_1010 → core".to_owned());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }
}
