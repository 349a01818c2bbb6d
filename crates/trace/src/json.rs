//! The suite's one JSON module: the escaper every hand-rolled writer
//! uses, and the reader for everything they write (span streams, attack
//! reports, the bench crate's cell cache and run manifests, serve `Stats`
//! payloads).
//!
//! The build environment has no crates-io access, so there is no `serde`.
//! The reader is a small recursive-descent parser into a [`JsonValue`]
//! tree plus typed accessors. It accepts exactly the JSON this workspace
//! emits (objects, arrays, strings with `\uXXXX` escapes, finite numbers,
//! booleans, null) — enough to round-trip our own artifacts, not a
//! general-purpose validator.

use std::fmt;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A plain non-negative integer literal, kept exact (`f64` only holds
    /// 53 bits, and the wire protocol carries full-width `u64` ids/seeds).
    Int(u64),
    /// Any other JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, JsonValue)>),
}

/// Parse failure: a message and the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the offending byte offset.
    pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives/fractions).
    /// Plain integer literals are exact over the whole `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Writes the value as compact JSON. It parses back to an equal value,
/// except that a [`JsonValue::Num`] holding a whole number comes back as
/// [`JsonValue::Int`].
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(i) => write!(f, "{i}"),
            JsonValue::Num(n) => write!(f, "{n}"),
            JsonValue::Str(s) => write!(f, "\"{}\"", escape(s)),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes a string for embedding in hand-rolled JSON output (the inverse
/// of what the parser unescapes). Shared by every producer in the suite.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str(r#"\""#),
            '\\' => out.push_str(r"\\"),
            '\n' => out.push_str(r"\n"),
            '\r' => out.push_str(r"\r"),
            '\t' => out.push_str(r"\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Decodes a required string field from an object node.
///
/// Shared by every hand-rolled decoder in the workspace (the serve wire
/// protocol, attack-report readers) so field access and its error shape
/// live in exactly one place.
///
/// # Errors
///
/// Returns a message naming the missing/mistyped field.
pub fn str_field(v: &JsonValue, name: &str) -> Result<String, String> {
    v.get(name)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{name}`"))
}

/// Decodes a required unsigned-integer field from an object node.
///
/// # Errors
///
/// Returns a message naming the missing/mistyped field.
pub fn u64_field(v: &JsonValue, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing integer field `{name}`"))
}

/// Decodes a histogram object
/// (`{"count":N,"sum_us":N,"max_us":N,"buckets":[[bound,n],...]}`) — the
/// inverse of [`crate::HistogramSnapshot::json_into`]. Returns
/// `None` on any shape mismatch.
pub fn histogram_snapshot(v: &JsonValue) -> Option<crate::HistogramSnapshot> {
    let buckets = v
        .get("buckets")?
        .as_array()?
        .iter()
        .map(|pair| {
            let pair = pair.as_array()?;
            match pair {
                [bound, n] => Some((bound.as_u64()?, n.as_u64()?)),
                _ => None,
            }
        })
        .collect::<Option<Vec<(u64, u64)>>>()?;
    Some(crate::HistogramSnapshot {
        count: v.get("count")?.as_u64()?,
        sum_us: v.get("sum_us")?.as_u64()?,
        max_us: v.get("max_us")?.as_u64()?,
        buckets,
    })
}

/// Decodes a full metrics object
/// (`{"counters":{...},"timings":{...}}`) — the inverse of
/// [`crate::MetricsSnapshot::to_json`], shared by the serve `Stats`
/// wire payload and the JSONL trace trailer. Returns `None` on any
/// shape mismatch.
pub fn metrics_snapshot(v: &JsonValue) -> Option<crate::MetricsSnapshot> {
    let JsonValue::Obj(counters) = v.get("counters")? else {
        return None;
    };
    let JsonValue::Obj(timings) = v.get("timings")? else {
        return None;
    };
    let mut snap = crate::MetricsSnapshot {
        counters: counters
            .iter()
            .map(|(k, n)| Some((k.clone(), n.as_u64()?)))
            .collect::<Option<Vec<_>>>()?,
        timings: timings
            .iter()
            .map(|(k, h)| Some((k.clone(), histogram_snapshot(h)?)))
            .collect::<Option<Vec<_>>>()?,
    };
    // Producers emit sorted maps, but lookups rely on it — enforce.
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.timings.sort_by(|a, b| a.0.cmp(&b.0));
    Some(snap)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_literal("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|_| JsonValue::Bool(false)),
            Some(b'n') => self.eat_literal("null").map(|_| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("non-UTF8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own output.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so they never split a UTF-8 sequence, and
                    // validating only the run keeps parsing linear.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // Plain non-negative integers stay exact: `f64` holds only 53
        // bits, but chip ids, seeds and generations span all of `u64`.
        if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(i) = text.parse::<u64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(JsonValue::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("-1.5e2").unwrap(), JsonValue::Num(-150.0));
        assert_eq!(
            JsonValue::parse(r#""a\nb""#).unwrap(),
            JsonValue::Str("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a":[1,2,{"b":"x"}],"c":null,"d":{"e":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("d").unwrap().get("e").unwrap().as_bool(), Some(true));
        assert_eq!(JsonValue::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn escape_round_trips() {
        let original = "he said \"no\"\n\ttab \\ slash \u{1}";
        let doc = format!(r#"{{"s":"{}"}}"#, escape(original));
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_and_raw_unicode() {
        let v = JsonValue::parse(r#""é ∞""#).unwrap();
        assert_eq!(v.as_str(), Some("é ∞"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn typed_accessors() {
        let v = JsonValue::parse("3").unwrap();
        assert_eq!(v.as_u64(), Some(3));
        assert_eq!(JsonValue::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-3").unwrap().as_u64(), None);
        assert_eq!(JsonValue::Null.get("x"), None);
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        let m = crate::Metrics::new();
        m.counter_add("serve.queries", 7);
        m.counter_add("chip.1.query.patterns", 64);
        m.record_timing("serve.query.latency", std::time::Duration::from_micros(12));
        m.record_timing("serve.query.latency", std::time::Duration::from_micros(900));
        let snap = m.snapshot();
        let parsed = JsonValue::parse(&snap.to_json()).unwrap();
        assert_eq!(metrics_snapshot(&parsed), Some(snap));
        // Empty registries round-trip too.
        let empty = crate::Metrics::new().snapshot();
        let parsed = JsonValue::parse(&empty.to_json()).unwrap();
        assert_eq!(metrics_snapshot(&parsed), Some(empty));
        // Shape mismatches are None, not panics.
        assert_eq!(metrics_snapshot(&JsonValue::Null), None);
        let bad = JsonValue::parse(r#"{"counters":{},"timings":{"x":{"count":1}}}"#).unwrap();
        assert_eq!(metrics_snapshot(&bad), None);
    }
}
