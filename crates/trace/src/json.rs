//! A minimal JSON parser used to validate and import exported traces.
//!
//! The workspace is offline and dependency-free by policy, so trace-schema
//! checks (CI golden-file test, unit tests) cannot lean on `serde_json`.
//! This is a small recursive-descent parser for the JSON the exporters
//! emit; it accepts standard JSON (RFC 8259) minus `\u` surrogate-pair
//! pedantics (escapes are decoded, lone surrogates are replaced).
//! [`parse`] builds a [`JsonValue`] tree; the typed-trace import drives
//! the same `Parser` member by member and passes over what it does not
//! need with `Parser::skip_value`, which allocates nothing and converts
//! no number.

mod scan;

use scan::{number_end, scan_value, string_stops, words_at, ws_at};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value if it is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.get(key)
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// The one JSON tokenizer (see the module docs).
pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread character.
    pub(crate) pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    pub(crate) fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    /// The bytes not yet read.
    pub(crate) fn ahead(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    pub(crate) fn skip_ws(&mut self) {
        self.pos = ws_at(self.bytes, self.pos);
    }

    /// Fails unless only whitespace is left.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    pub(crate) fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = BTreeMap::new();
                self.members(|p, key| {
                    members.insert(key.into_owned(), p.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(JsonValue::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Passes over one value, checking the same grammar as
    /// [`Parser::value`] without building it. A well-formed value takes
    /// one flat loop ([`scan_value`]); anything that loop does not accept
    /// is read again by the recursive skip, which ends at the same byte
    /// or names the same error.
    pub(crate) fn skip_value(&mut self) -> Result<(), JsonError> {
        match scan_value(self.bytes, self.pos) {
            Some(end) => {
                self.pos = end;
                Ok(())
            }
            None => self.skip_value_slowly(),
        }
    }

    fn skip_value_slowly(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.sequence(b'{', b'}', |p| {
                p.skip_string()?;
                p.colon()?;
                p.skip_value_slowly()
            }),
            Some(b'[') => self.elements(Parser::skip_value_slowly),
            Some(b'"') => self.skip_string(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.skip_number(),
            // Literals allocate nothing.
            _ => self.value().map(drop),
        }
    }

    pub(crate) fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Reads a number; `f64` parsing also lets `01` and `1.` through.
    pub(crate) fn number(&mut self) -> Result<f64, JsonError> {
        if let Some(n) = self.plain_uint() {
            return Ok(n as f64);
        }
        let start = self.pos;
        self.skip_number()?;
        // ASCII bytes, so both ends are char boundaries.
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("malformed number"))
    }

    /// Reads up to 15 plain digits not followed by `.`, `e` or `E`: an
    /// integer below 2⁵³, exact without `f64` parsing. Anything else
    /// reads nothing and gives `None`.
    pub(crate) fn plain_uint(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let plain = (1..=15).contains(&(self.pos - start));
        if plain && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Some(n);
        }
        self.pos = start;
        None
    }

    /// Steps over a number, checking the grammar `f64` parsing accepts
    /// from these bytes ([`number_end`]). Converts nothing.
    fn skip_number(&mut self) -> Result<(), JsonError> {
        let (end, ok) = number_end(self.bytes, self.pos);
        self.pos = end;
        if ok {
            Ok(())
        } else {
            Err(self.err("malformed number"))
        }
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        // Runs end at ASCII delimiters, so their slices are on char boundaries.
        let start = self.pos;
        self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        self.string_rest(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Passes over a string, checking it as [`Parser::string`] does
    /// without decoding it.
    fn skip_string(&mut self) -> Result<(), JsonError> {
        self.expect(b'"')?;
        self.plain_run();
        self.string_rest(None)
    }

    /// Reads the rest of a string through its closing quote, appending
    /// what it decodes to `out` when there is one.
    fn string_rest(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
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
                            let c = char::from_u32(self.hex4()?).unwrap_or('\u{fffd}');
                            if let Some(o) = out.as_deref_mut() {
                                o.push(c);
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    self.pos += 1;
                    if let Some(o) = out.as_deref_mut() {
                        o.push(c);
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    let run = self.pos;
                    self.plain_run();
                    if let Some(o) = out.as_deref_mut() {
                        o.push_str(&self.text[run..self.pos]);
                    }
                }
            }
        }
    }

    /// Steps over string bytes that need no decoding.
    fn plain_run(&mut self) {
        self.pos = words_at(self.bytes, self.pos, string_stops);
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Reads an array, handing `each` every element.
    pub(crate) fn elements(
        &mut self,
        each: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.sequence(b'[', b']', each)
    }

    /// Reads an object, handing `each` every key, positioned at its value.
    pub(crate) fn members(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.sequence(b'{', b'}', |p| {
            let key = p.string()?;
            p.colon()?;
            each(p, key)
        })
    }

    /// Steps over the `:` after an object key.
    fn colon(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
    }

    /// Reads `open`, items separated by `,`, then `close`.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }
}

/// Escapes a string for embedding in JSON output (adds no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` the way the exporters do: integral values without a
/// fractional part, everything else via shortest-roundtrip `{}`.
pub fn format_number(x: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, x);
    out
}

/// Appends `x` to `out` as [`format_number`] formats it.
pub(crate) fn push_number(out: &mut String, x: f64) {
    if x.is_finite() && x.fract() == 0.0 && x.abs() < 1e15 {
        // `-0.0` is not below zero, so it prints as `0`.
        if x < 0.0 {
            out.push('-');
        }
        push_uint(out, x.abs() as u64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Appends `n` in decimal.
pub(crate) fn push_uint(out: &mut String, n: u64) {
    push_digits(out, n, 1);
}

/// Appends `n` in decimal, zero-padded to at least `width` digits (a
/// `u64` has at most 20).
pub(crate) fn push_digits(out: &mut String, mut n: u64, width: usize) {
    let mut buf = [b'0'; 20];
    let mut start = buf.len();
    while n > 0 {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    // The buffer starts as zeros: padding, and the digit of `n == 0`.
    let start = start.min(buf.len().saturating_sub(width.max(1)));
    out.extend(buf[start..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -3.5e2 ").unwrap(), JsonValue::Number(-350.0));
        assert_eq!(
            parse(r#""a\nbA""#).unwrap(),
            JsonValue::String("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"traceEvents":[{"ph":"X","ts":1.5,"args":{"k":[1,2]}},{}],"ok":true}"#;
        let v = parse(doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("ts").unwrap().as_number(), Some(1.5));
        assert_eq!(v.get("ok").unwrap(), &JsonValue::Bool(true));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{}x").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), JsonValue::String(nasty.to_string()));
    }

    proptest::proptest! {
        /// Skipping a number checks the grammar reading it does: over
        /// strings of number bytes, the two accept and reject alike, end
        /// at the same offset, and fail with the same error.
        #[test]
        fn skipping_a_number_agrees_with_reading_it(seed in proptest::any::<u64>()) {
            let mut rng = proptest::TestRng::for_case("number bytes", seed);
            for _ in 0..64 {
                let mut text: String = (0..1 + rng.below(9))
                    .map(|_| char::from(b"-+.eE0123456789"[rng.below(15) as usize]))
                    .collect();
                text.push(if rng.below(2) == 0 { ',' } else { ']' });
                let (mut read, mut skip) = (Parser::new(&text), Parser::new(&text));
                let read_result = read.value().map(drop);
                proptest::prop_assert_eq!(skip.skip_value(), read_result, "{:?}", text);
                proptest::prop_assert_eq!(skip.pos, read.pos, "{:?}", text);
            }
        }
    }

    proptest::proptest! {
        /// Skipping a string checks the grammar reading it does, and both
        /// stop where a byte-at-a-time scan would. Strings run long, with
        /// plain ASCII, multi-byte characters, escapes (some invalid),
        /// raw control bytes and a missing close quote, each landing at
        /// every offset within an 8-byte word.
        #[test]
        fn skipping_a_string_agrees_with_reading_it(seed in proptest::any::<u64>()) {
            let mut rng = proptest::TestRng::for_case("string bytes", seed);
            let pieces = [
                "a", "word", "0123456789", "é", "€", " ", "\\n", "\\\"", "\\\\", "\\/",
                "\\u00e9", "\\u12", "\\x", "\u{1}", "\t", "\u{1f}",
            ];
            for _ in 0..64 {
                let mut text = String::from("\"");
                for _ in 0..rng.below(8) {
                    text.push('p');
                }
                for _ in 0..rng.below(24) {
                    text.push_str(pieces[rng.below(pieces.len() as u64) as usize]);
                }
                if rng.below(8) != 0 {
                    text.push('"');
                }
                text.push_str(if rng.below(2) == 0 { "," } else { "]" });
                let (mut read, mut skip) = (Parser::new(&text), Parser::new(&text));
                let read_result = read.value();
                proptest::prop_assert_eq!(skip.skip_value(), read_result.clone().map(drop), "{:?}", text);
                proptest::prop_assert_eq!(skip.pos, read.pos, "{:?}", text);
                let (want, end) = decode_bytewise(&text);
                proptest::prop_assert_eq!(read_result.map_err(|e| e.offset), want.map(JsonValue::String), "{:?}", text);
                proptest::prop_assert_eq!(read.pos, end, "{:?}", text);
            }
        }
    }

    /// A byte-at-a-time decoder of the string opening `text`: its value
    /// (or the offset of its fault) and where it stops.
    fn decode_bytewise(text: &str) -> (Result<String, usize>, usize) {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let mut i = 1;
        loop {
            match bytes.get(i) {
                None => return (Err(i), i),
                Some(b'"') => return (Ok(String::from_utf8(out).unwrap()), i + 1),
                Some(b'\\') => {
                    let decoded = match bytes.get(i + 1) {
                        Some(b'n') => '\n',
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'u') => {
                            match text.get(i + 2..i + 6).map(|h| u32::from_str_radix(h, 16)) {
                                Some(Ok(code)) => {
                                    let c = char::from_u32(code).unwrap_or('\u{fffd}');
                                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                                    i += 6;
                                    continue;
                                }
                                _ => return (Err(i + 2), i + 2),
                            }
                        }
                        _ => return (Err(i + 1), i + 1),
                    };
                    out.extend_from_slice(decoded.encode_utf8(&mut [0; 4]).as_bytes());
                    i += 2;
                }
                Some(&c) if c < 0x20 => return (Err(i), i),
                Some(&c) => {
                    out.push(c);
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(3.25), "3.25");
        assert_eq!(format_number(-0.0), "0");
    }
}
