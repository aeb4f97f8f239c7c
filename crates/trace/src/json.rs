//! Minimal JSON document model, writer, and parser.
//!
//! The workspace builds offline with no serialization dependency, so the
//! exporters carry their own small JSON layer. Numbers are kept as `f64`
//! (every value this crate emits fits exactly: timestamps and energies stay
//! below 2⁵³). Object key order is preserved, which keeps exported files
//! byte-stable for golden tests.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a number from an unsigned integer.
    pub fn u64(n: u64) -> Value {
        Value::Num(n as f64)
    }

    /// An array of unsigned integers.
    pub fn u64_arr(values: &[u64]) -> Value {
        Value::Arr(values.iter().map(|&n| Value::u64(n)).collect())
    }

    /// An object of unsigned-integer counts, keys in the pairs' order.
    pub fn u64_map<K: ToString>(pairs: impl IntoIterator<Item = (K, u64)>) -> Value {
        Value::Obj(
            pairs
                .into_iter()
                .map(|(k, n)| (k.to_string(), Value::u64(n)))
                .collect(),
        )
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes without whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, level + 1)
            }),
            Value::Obj(pairs) => write_seq(out, indent, level, '{', '}', pairs.len(), |out, i| {
                let (k, v) = &pairs[i];
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, level + 1);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * (level + 1) {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * level {
            out.push(' ');
        }
    }
    out.push(close);
}

/// Appends `n` exactly as [`Value::u64`] renders in [`Value::to_compact`],
/// for writers that build a record straight into one buffer.
pub fn write_u64(out: &mut String, n: u64) {
    write_num(out, n as f64);
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a document of a few hundred thousand
/// `[` overflows the stack; every document this workspace writes nests
/// fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed JSON; the message names the byte offset.
    Syntax(String),
    /// Arrays/objects nest deeper than [`MAX_DEPTH`]; `at` is the byte
    /// offset of the first bracket past the limit.
    TooDeep {
        /// Byte offset of the offending `[` or `{`.
        at: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(msg) => f.write_str(msg),
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(msg: String) -> Self {
        JsonError::Syntax(msg)
    }
}

impl From<&str> for JsonError {
    fn from(msg: &str) -> Self {
        JsonError::Syntax(msg.into())
    }
}

/// Parses a JSON document. Errors carry a byte offset and message.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos).into());
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos).into())
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos).into())
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos).into()),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_DEPTH`] levels.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::TooDeep { at: self.pos });
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos).into()),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos).into()),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos).into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}").into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Value::Obj(vec![
            ("a".into(), Value::u64(42)),
            ("b".into(), Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("s".into(), Value::str("he said \"hi\"\n\tλ")),
            ("neg".into(), Value::Num(-1.5)),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::u64(1_000_000).to_compact(), "1000000");
        assert_eq!(Value::Num(0.5).to_compact(), "0.5");
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_with_a_typed_error() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
        // Deep enough to overflow the stack without the bound.
        let deep = format!("{}{}", "[{\"k\":".repeat(100_000), "0}]".repeat(100_000));
        // Two levels per 6-byte `[{"k":`: level 129 opens at unit 65.
        assert_eq!(parse(&deep), Err(JsonError::TooDeep { at: 64 * 6 }));
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = parse(r#"{"m": {"n": 7}, "l": [1, 2]}"#).unwrap();
        assert_eq!(
            v.get("m").and_then(|m| m.get("n")).and_then(Value::as_u64),
            Some(7)
        );
        assert_eq!(v.get("l").and_then(Value::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("absent"), None);
    }
}
