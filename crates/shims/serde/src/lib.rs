//! Minimal `serde` shim.
//!
//! * [`Serialize`] is a marker blanket-implemented for every `Debug` type,
//!   kept so `#[derive]`s and bounds compile unchanged; nothing serializes
//!   through it — JSON text is written from a [`json::Value`] tree.
//! * [`Deserialize`] is implemented by hand for primitives, `String`,
//!   tuples and `Vec`, over the [`json::Value`] tree.
//! * The derives are no-ops from `serde_derive`, kept so `#[derive]`
//!   attributes compile unchanged.

pub use serde_derive::{Deserialize, Serialize};

/// Marker for serializable values (see the crate docs).
pub trait Serialize: std::fmt::Debug {}

impl<T: std::fmt::Debug + ?Sized> Serialize for T {}

/// Types reconstructible from a parsed [`json::Value`].
pub trait Deserialize: Sized {
    fn from_json_value(v: &json::Value) -> Result<Self, json::Error>;
}

pub mod json {
    //! A lenient JSON value tree and parser shared by the `serde_json` shim.
    //!
    //! Accepts standard JSON plus trailing commas and unquoted object keys,
    //! so text produced by pretty `Debug` for primitive collections parses
    //! back.

    use std::collections::BTreeMap;
    use std::fmt;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// Builds an object from `(key, value)` pairs (later duplicates win).
        pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
            Value::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.into(), v))
                    .collect::<BTreeMap<_, _>>(),
            )
        }

        /// Object field lookup (`None` for non-objects and missing keys).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(map) => map.get(key),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// Renders strict JSON with two-space indentation.
        pub fn pretty(&self) -> String {
            let mut out = String::new();
            self.render(&mut out, Some(0));
            out
        }

        fn render(&self, out: &mut String, indent: Option<usize>) {
            match self {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Number(n) => render_number(out, *n),
                Value::String(s) => render_string(out, s),
                Value::Array(items) => {
                    render_seq(out, indent, items.len(), b'[', |out, i, inner| {
                        items[i].render(out, inner)
                    })
                }
                Value::Object(map) => {
                    let entries: Vec<(&String, &Value)> = map.iter().collect();
                    render_seq(out, indent, entries.len(), b'{', |out, i, inner| {
                        render_string(out, entries[i].0);
                        out.push_str(": ");
                        entries[i].1.render(out, inner);
                    })
                }
            }
        }
    }

    /// Renders JSON text: compact via `Display`, indented via [`Value::pretty`].
    impl fmt::Display for Value {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut out = String::new();
            self.render(&mut out, None);
            f.write_str(&out)
        }
    }

    fn render_number(out: &mut String, n: f64) {
        if n.is_finite() {
            // Rust's shortest round-trip float formatting is valid JSON.
            out.push_str(&format!("{n}"));
        } else {
            // JSON has no infinities/NaN; null is the conventional stand-in.
            out.push_str("null");
        }
    }

    fn render_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn render_seq(
        out: &mut String,
        indent: Option<usize>,
        len: usize,
        open: u8,
        mut item: impl FnMut(&mut String, usize, Option<usize>),
    ) {
        let close = if open == b'[' { ']' } else { '}' };
        out.push(open as char);
        if len == 0 {
            out.push(close);
            return;
        }
        let inner = indent.map(|d| d + 1);
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            match inner {
                Some(d) => {
                    out.push('\n');
                    out.push_str(&"  ".repeat(d));
                }
                None if i > 0 => out.push(' '),
                None => {}
            }
            item(out, i, inner);
        }
        if let Some(d) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        out.push(close);
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        message: String,
    }

    impl Error {
        pub fn new(message: impl Into<String>) -> Self {
            Self {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "json error: {}", self.message)
        }
    }

    impl std::error::Error for Error {}

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii_whitespace() {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error::new(format!(
                    "expected '{}' at byte {}",
                    b as char, self.pos
                )))
            }
        }

        fn value(&mut self) -> Result<Value, Error> {
            match self.peek() {
                None => Err(Error::new("unexpected end of input")),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b't') | Some(b'f') => self.boolean(),
                Some(b'n') => {
                    self.keyword("null")?;
                    Ok(Value::Null)
                }
                Some(_) => self.number(),
            }
        }

        fn keyword(&mut self, word: &str) -> Result<(), Error> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(())
            } else {
                Err(Error::new(format!(
                    "expected '{word}' at byte {}",
                    self.pos
                )))
            }
        }

        fn boolean(&mut self) -> Result<Value, Error> {
            if self.keyword("true").is_ok() {
                Ok(Value::Bool(true))
            } else {
                self.keyword("false")?;
                Ok(Value::Bool(false))
            }
        }

        fn number(&mut self) -> Result<Value, Error> {
            self.skip_ws();
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error::new("non-utf8 number"))?;
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| Error::new(format!("invalid number {text:?}")))
        }

        /// Reads four hex digits at the cursor (the payload of a `\u`
        /// escape) and advances past them.
        fn hex4(&mut self) -> Result<u32, Error> {
            let hex = self
                .bytes
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| Error::new("truncated \\u escape"))?;
            self.pos += 4;
            u32::from_str_radix(
                std::str::from_utf8(hex).map_err(|_| Error::new("non-utf8 \\u escape"))?,
                16,
            )
            .map_err(|_| Error::new("invalid \\u escape"))
        }

        fn string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos).copied() {
                    None => return Err(Error::new("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self
                            .bytes
                            .get(self.pos)
                            .copied()
                            .ok_or_else(|| Error::new("unterminated escape"))?;
                        self.pos += 1;
                        match esc {
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'"' | b'\\' | b'/' => out.push(esc as char),
                            b'u' => {
                                let hi = self.hex4()?;
                                let code = if (0xD800..0xDC00).contains(&hi) {
                                    // High surrogate: a \uXXXX low surrogate
                                    // must follow (JSON's astral encoding).
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                        return Err(Error::new("unpaired high surrogate"));
                                    }
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(Error::new("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    hi
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| Error::new("invalid \\u code point"))?,
                                );
                            }
                            other => {
                                return Err(Error::new(format!("unsupported escape {other:?}")))
                            }
                        }
                    }
                    Some(b) => {
                        // Copy one UTF-8 scalar through verbatim (multi-byte
                        // sequences must stay intact).
                        let len = match b {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let slice = self
                            .bytes
                            .get(self.pos..self.pos + len)
                            .ok_or_else(|| Error::new("truncated utf-8 sequence"))?;
                        out.push_str(
                            std::str::from_utf8(slice)
                                .map_err(|_| Error::new("non-utf8 string content"))?,
                        );
                        self.pos += len;
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, Error> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            loop {
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                items.push(self.value()?);
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b']') => {}
                    other => return Err(Error::new(format!("expected ',' or ']', got {other:?}"))),
                }
            }
        }

        fn object(&mut self) -> Result<Value, Error> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            loop {
                match self.peek() {
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(map));
                    }
                    Some(b'"') => {
                        let key = self.string()?;
                        self.expect(b':')?;
                        map.insert(key, self.value()?);
                    }
                    Some(_) => {
                        // Lenient: bare identifier keys (Debug output).
                        let start = self.pos;
                        while let Some(&b) = self.bytes.get(self.pos) {
                            if b == b':' || b.is_ascii_whitespace() {
                                break;
                            }
                            self.pos += 1;
                        }
                        let key =
                            String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                        self.expect(b':')?;
                        map.insert(key, self.value()?);
                    }
                    None => return Err(Error::new("unterminated object")),
                }
                if self.peek() == Some(b',') {
                    self.pos += 1;
                }
            }
        }
    }

    /// Parses lenient JSON text into a [`Value`].
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::new(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }
}

use json::{Error, Value};

macro_rules! deserialize_number {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => Ok(*n as $t),
                    other => Err(Error::new(format!(
                        "expected number, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}
deserialize_number!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for bool {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Deserialize for String {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, got {other:?}"))),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json_value).collect(),
            other => Err(Error::new(format!("expected array, got {other:?}"))),
        }
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) if items.len() == 2 => Ok((
                A::from_json_value(&items[0])?,
                B::from_json_value(&items[1])?,
            )),
            other => Err(Error::new(format!("expected pair, got {other:?}"))),
        }
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) if items.len() == 3 => Ok((
                A::from_json_value(&items[0])?,
                B::from_json_value(&items[1])?,
                C::from_json_value(&items[2])?,
            )),
            other => Err(Error::new(format!("expected triple, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::Deserialize;

    #[test]
    fn parses_debug_style_float_vec() {
        // Pretty Debug output of vec![1.0, 2.0, 3.0] — trailing commas.
        let text = "[\n    1.0,\n    2.0,\n    3.0,\n]";
        let back: Vec<f64> = Vec::from_json_value(&parse(text).unwrap()).unwrap();
        assert_eq!(back, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn parses_objects_strings_bools() {
        let v = parse(r#"{"ok": true, "name": "x", "xs": [1, 2]}"#).unwrap();
        let Value::Object(map) = v else {
            panic!("expected object")
        };
        assert_eq!(map["ok"], Value::Bool(true));
        assert_eq!(map["name"], Value::String("x".into()));
        assert_eq!(
            map["xs"],
            Value::Array(vec![Value::Number(1.0), Value::Number(2.0)])
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("[1, 2").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("[1] trailing").is_err());
    }

    #[test]
    fn rendered_json_parses_back() {
        let v = Value::Object(
            [
                ("name".to_string(), Value::String("a \"b\"\n\u{1}".into())),
                ("x".to_string(), Value::Number(0.35)),
                ("n".to_string(), Value::Number(42.0)),
                (
                    "xs".to_string(),
                    Value::Array(vec![Value::Bool(true), Value::Null]),
                ),
                ("empty".to_string(), Value::Array(vec![])),
            ]
            .into_iter()
            .collect(),
        );
        assert_eq!(parse(&v.to_string()).unwrap(), v, "compact");
        assert_eq!(parse(&v.pretty()).unwrap(), v, "pretty");
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        let v = Value::String("café 🚀 – ü".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // Escaped astral-plane input: JSON surrogate pairs decode.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::String("😀".into()),
            "surrogate pairs combine"
        );
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\ud83dA""#).is_err(), "bad low surrogate");
    }

    #[test]
    fn accessors_resolve_shapes() {
        let v = parse(r#"{"n": 3, "f": 0.5, "s": "x", "b": true, "xs": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Value::as_u64), None);
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Value::as_array).map(<[_]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
    }
}
