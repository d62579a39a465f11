//! Minimal validating JSON parser — zero dependencies, used by the trace-export
//! smoke check (`libra-sim trace-check`) and the observability tests to prove
//! that the hand-rolled writers in [`crate::trace`] and [`crate::metrics`] emit
//! well-formed documents.
//!
//! This is a *validator first*: it parses the full grammar (RFC 8259) into a
//! small [`Value`] tree but makes no attempt at speed or streaming. A depth
//! limit guards against stack exhaustion on pathological inputs.
//!
//! The decoders of the exact formats — stats, campaign checkpoints and
//! `libra-wire-v1` frames — read members through the shared [`field`],
//! [`field_str`], [`field_u64`] and [`field_hex`] lookups.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted by [`parse`].
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys ordered for deterministic comparison.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Member lookup, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is a non-negative integer small
    /// enough (≤ 2⁵³) that its `f64` representation is lossless. Counters in the
    /// checkpoint/metrics formats stay far below that bound; anything larger is
    /// rejected rather than silently rounded.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n)
                if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object's member map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Escapes `s` into `out` as JSON string *contents* (no surrounding quotes).
/// Shared by the hand-rolled writers in [`crate::metrics`], [`crate::trace`] and
/// the campaign checkpoint format.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Member `key` of object `v`; the error names the missing field and `what`
/// (the location, e.g. `record at line 3`).
pub fn field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing field `{key}`"))
}

/// String member lookup.
pub fn field_str<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    field(v, key, what)?.as_str().ok_or_else(|| format!("{what}.{key}: expected a string"))
}

/// Exact-integer member lookup (see [`Value::as_u64`]).
pub fn field_u64(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    field(v, key, what)?.as_u64().ok_or_else(|| format!("{what}.{key}: expected an exact integer"))
}

/// [`field_u64`] for a `u32` member: a value past `u32::MAX` is an error,
/// never wrapped to a small one.
pub fn field_u32(v: &Value, key: &str, what: &str) -> Result<u32, String> {
    let n = field_u64(v, key, what)?;
    u32::try_from(n).map_err(|_| format!("{what}.{key}: {n} is out of range"))
}

/// Reads a `"0x…"` hex-string member back to the exact `u64` it encodes — the
/// form 64-bit seeds and fingerprints take, since JSON numbers above 2⁵³ would
/// not survive the `f64` representation.
pub fn field_hex(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    let s = field_str(v, key, what)?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("{what}.{key}: expected a 0x-prefixed hex string, got `{s}`"))?;
    u64::from_str_radix(digits, 16).map_err(|_| format!("{what}.{key}: invalid hex value `{s}`"))
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `}` in object"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `]` in array"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: a high surrogate must be followed by
                        // `\uXXXX` holding the low half.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired high surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined =
                                0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(c) => {
                    // Re-assemble multi-byte UTF-8 sequences from the raw bytes;
                    // the input is a &str so the bytes are valid UTF-8.
                    let len = utf8_len(c);
                    let start = self.pos - 1;
                    self.pos = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.bump() {
            Some(b'0') => {}
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("invalid number"));
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("number out of range"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-3.5e2").unwrap(), Value::Number(-350.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::String("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"x"},null],"c":true}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn resolves_unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""é""#).unwrap(), Value::String("é".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "01", "1.", "1e", "tru", "\"x",
            "{\"a\":1} extra", "[1 2]", "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + "1" + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_accepts_exact_integers_only() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        // 2^53 round-trips exactly; anything above is rejected, not rounded.
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("9007199254740994").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn bool_and_object_accessors() {
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("1").unwrap().as_bool(), None);
        let v = parse(r#"{"a":1}"#).unwrap();
        assert_eq!(v.as_object().unwrap().len(), 1);
        assert!(parse("[]").unwrap().as_object().is_none());
    }

    #[test]
    fn escape_into_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let mut doc = String::from("\"");
        escape_into(&mut doc, nasty);
        doc.push('"');
        assert_eq!(parse(&doc).unwrap(), Value::String(nasty.into()));
    }

    #[test]
    fn accepts_writer_output() {
        let mut r = crate::metrics::MetricsRegistry::new();
        r.add_counter("c", &[("k", "v \"quoted\"")], 3);
        r.set_gauge("g", &[], 1.25);
        r.set_histogram("h", &[], 10, vec![1, 2, 3]);
        let v = parse(&r.to_json()).expect("metrics JSON must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("libra-metrics-v1"));
        assert_eq!(v.get("metrics").unwrap().as_array().unwrap().len(), 3);
    }
}
