//! Minimal `serde` shim: one JSON value tree and one two-way codec.
//!
//! * [`json::Value`] is the JSON tree. [`json::parse`] reads strict JSON
//!   (quoted keys, single commas, no trailing ones, RFC 8259 numbers),
//!   nested at most [`json::MAX_DEPTH`] deep; `pretty`/`Display` write it.
//! * [`Json`] converts a type to and from a `Value`. The primitives
//!   implement it here; every other type declares its JSON form once with
//!   [`json_codec!`], which generates both directions from one field list.
//!
//! Integers decode exactly or not at all: a JSON number is accepted only
//! if it is whole, non-negative, at most 2^53 and in range for the type.
//! Every decode error names the path of the field it happened in.
//! [`Json::from_json_exact`] also rejects keys the type does not declare,
//! which `from_json` skips.

use json::{Error, Value};

/// A type with a JSON form; `from_json(to_json(x)) == x`.
pub trait Json: Sized {
    /// A record's field names in declaration order (empty for the rest).
    const FIELDS: &'static [&'static str] = &[];

    fn to_json(&self) -> Value;
    fn from_json(v: &Value) -> Result<Self, Error>;

    /// [`Json::from_json`], then every key of `v` must be one the decoded
    /// value's own `to_json` writes back at the same path. That covers
    /// flattened fields and `"kind"`-tagged variants without a key list
    /// per type: a misspelled key is an error naming its path, not a field
    /// left at its default.
    fn from_json_exact(v: &Value) -> Result<Self, Error> {
        let decoded = Self::from_json(v)?;
        json::known_keys_only(v, &decoded.to_json())?;
        Ok(decoded)
    }
}

/// Declares a type's JSON form once, generating its [`Json`] impl.
///
/// A record is an object with one key per field, named as the field:
/// `struct TimedEvent { at, event: flatten }`. A field is `name`
/// (required), `name: default` (missing → the field of `Self::default()`),
/// `name = expr` (missing → `expr`, which may read earlier fields) or
/// `name: flatten` (encoded into and decoded from this same object). The
/// record's [`Json::FIELDS`] are those names, in that order.
///
/// An enum is an object tagged by `"kind"`, one tag per variant:
/// `enum ChurnModel { "none" => None, "crash_wave" => CrashWave { at, fraction } }`.
#[macro_export]
macro_rules! json_codec {
    (struct $ty:ident { $($field:ident $(: $mode:ident)? $(= $fallback:expr)?),+ $(,)? }) => {
        impl $crate::Json for $ty {
            const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];

            fn to_json(&self) -> $crate::json::Value {
                let mut map = ::std::collections::BTreeMap::new();
                $($crate::__json_field!(@put map, $field, &self.$field $(, $mode)?);)+
                $crate::json::Value::Object(map)
            }

            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::Error> {
                $(let $field = $crate::__json_field!(@take v, $field $(: $mode)? $(= $fallback)?);)+
                Ok(Self { $($field),+ })
            }
        }
    };
    (enum $ty:ident {
        $($tag:literal => $variant:ident $({ $($field:ident),+ $(,)? })?),+ $(,)?
    }) => {
        impl $crate::Json for $ty {
            fn to_json(&self) -> $crate::json::Value {
                match self {
                    $(Self::$variant { $($($field),+)? } => $crate::json::Value::object(vec![
                        ("kind", $crate::json::Value::String($tag.to_string())),
                        $($((stringify!($field), $crate::Json::to_json($field))),+)?
                    ]),)+
                }
            }

            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::Error> {
                let kind: String = $crate::json::field(v, "kind")?;
                match kind.as_str() {
                    $($tag => Ok(Self::$variant {
                        $($($field: $crate::json::field(v, stringify!($field))?),+)?
                    }),)+
                    other => Err($crate::json::Error::new(format!(
                        "unknown kind {other:?}, expected one of {:?}",
                        [$($tag),+]
                    ))),
                }
            }
        }
    };
}

/// One record field's encoder (`@put`) and decoder (`@take`).
#[doc(hidden)]
#[macro_export]
macro_rules! __json_field {
    (@put $map:ident, $field:ident, $value:expr $(, default)?) => {
        $map.insert(
            stringify!($field).to_string(),
            $crate::Json::to_json($value),
        );
    };
    (@put $map:ident, $field:ident, $value:expr, flatten) => {
        if let $crate::json::Value::Object(inner) = $crate::Json::to_json($value) {
            $map.extend(inner);
        }
    };
    (@take $v:ident, $field:ident) => {
        $crate::json::field($v, stringify!($field))?
    };
    (@take $v:ident, $field:ident: default) => {
        $crate::json::field_or($v, stringify!($field), || Ok(Self::default().$field))?
    };
    (@take $v:ident, $field:ident: flatten) => {
        $crate::Json::from_json($v)?
    };
    (@take $v:ident, $field:ident = $fallback:expr) => {
        $crate::json::field_or($v, stringify!($field), || Ok($fallback))?
    };
}

pub mod json {
    //! The JSON value tree, its strict parser and its printer.

    use std::collections::BTreeMap;
    use std::fmt;

    /// Deepest nesting of arrays and objects [`parse`] accepts: far above
    /// any file this workspace writes, far below what exhausts a thread's
    /// stack.
    pub const MAX_DEPTH: usize = 128;

    /// The largest integer a JSON number holds exactly (2^53): above it,
    /// an f64 cannot tell neighbouring integers apart.
    pub const MAX_EXACT_INT: u64 = 1 << 53;

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

        /// The number as an integer, if it is whole, non-negative and at
        /// most [`MAX_EXACT_INT`].
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                    Some(*n as u64)
                }
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

    /// A parse or decode error; a decode error carries the path of the
    /// field it happened in (`scenario.events[2].at`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        path: String,
        message: String,
    }

    impl Error {
        pub fn new(message: impl Into<String>) -> Self {
            let (path, message) = (String::new(), message.into());
            Self { path, message }
        }

        /// Prefixes the path with the key or `[index]` this error sits under.
        pub(crate) fn within(mut self, mut segment: String) -> Self {
            if !self.path.is_empty() && !self.path.starts_with('[') {
                segment.push('.');
            }
            self.path.insert_str(0, &segment);
            self
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.path.as_str() {
                "" => write!(f, "json error: {}", self.message),
                path => write!(f, "json error: {path}: {}", self.message),
            }
        }
    }

    impl std::error::Error for Error {}

    /// Decodes the required field `key` of the object `v`.
    pub fn field<T: super::Json>(v: &Value, key: &str) -> Result<T, Error> {
        field_or(v, key, || Err(Error::new(format!("missing field {key:?}"))))
    }

    /// Decodes the field `key` of the object `v`, or `missing()` when it
    /// is absent.
    pub fn field_or<T: super::Json>(
        v: &Value,
        key: &str,
        missing: impl FnOnce() -> Result<T, Error>,
    ) -> Result<T, Error> {
        match v {
            Value::Object(map) => match map.get(key) {
                Some(x) => T::from_json(x).map_err(|e| e.within(key.to_string())),
                None => missing(),
            },
            other => Err(mismatch("an object", other)),
        }
    }

    /// Checks that every object key of `given` is also a key of `known` at
    /// the same path (arrays pair up by index); the first one that is not
    /// is an error naming its path and the keys that are.
    pub(crate) fn known_keys_only(given: &Value, known: &Value) -> Result<(), Error> {
        match (given, known) {
            (Value::Object(given), Value::Object(known)) => {
                for (key, value) in given {
                    let Some(expected) = known.get(key) else {
                        let keys: Vec<&String> = known.keys().collect();
                        return Err(Error::new(format!("unknown key, expected one of {keys:?}"))
                            .within(key.clone()));
                    };
                    known_keys_only(value, expected).map_err(|e| e.within(key.clone()))?;
                }
            }
            (Value::Array(given), Value::Array(known)) => {
                for (i, (value, expected)) in given.iter().zip(known).enumerate() {
                    known_keys_only(value, expected).map_err(|e| e.within(format!("[{i}]")))?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// A mistyped value: what was expected, what came.
    pub(crate) fn mismatch(expected: &str, got: &Value) -> Error {
        let got = match got {
            Value::Array(_) => "an array".into(),
            Value::Object(_) => "an object".into(),
            scalar => scalar.to_string(),
        };
        Error::new(format!("expected {expected}, got {got}"))
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
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

        /// Consumes `b` if it is the next byte (no whitespace skipped).
        fn eat(&mut self, b: u8) -> bool {
            let hit = self.bytes.get(self.pos) == Some(&b);
            self.pos += usize::from(hit);
            hit
        }

        fn expect(&mut self, b: u8) -> Result<(), Error> {
            self.skip_ws();
            if self.eat(b) {
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
                Some(b't') => self.keyword("true", Value::Bool(true)),
                Some(b'f') => self.keyword("false", Value::Bool(false)),
                Some(b'n') => self.keyword("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(b) => Err(Error::new(format!(
                    "unexpected {:?} at byte {}",
                    b as char, self.pos
                ))),
            }
        }

        fn keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(Error::new(format!(
                    "expected '{word}' at byte {}",
                    self.pos
                )))
            }
        }

        /// Consumes a run of ASCII digits and returns its length.
        fn digits(&mut self) -> usize {
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
            self.pos - start
        }

        /// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`, finite.
        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            self.eat(b'-');
            let lead = self.bytes.get(self.pos).copied();
            let mut ok = match self.digits() {
                0 => false,
                1 => true,
                _ => lead != Some(b'0'),
            };
            if self.eat(b'.') {
                ok &= self.digits() > 0;
            }
            if self.eat(b'e') || self.eat(b'E') {
                let _sign = self.eat(b'+') || self.eat(b'-');
                ok &= self.digits() > 0;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error::new("non-utf8 number"))?;
            match text.parse::<f64>() {
                Ok(n) if ok && n.is_finite() => Ok(Value::Number(n)),
                _ => Err(Error::new(format!(
                    "invalid number {text:?} at byte {start}"
                ))),
            }
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

        /// The members of an array or object after its opening byte: none,
        /// or `item`s separated by single commas, then `close`. Counts one
        /// level of nesting against [`MAX_DEPTH`].
        fn members(
            &mut self,
            close: u8,
            mut item: impl FnMut(&mut Self) -> Result<(), Error>,
        ) -> Result<(), Error> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return Err(Error::new(format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                )));
            }
            self.skip_ws();
            if !self.eat(close) {
                loop {
                    item(self)?;
                    self.skip_ws();
                    if self.eat(close) {
                        break;
                    }
                    self.expect(b',')?;
                }
            }
            self.depth -= 1;
            Ok(())
        }

        fn array(&mut self) -> Result<Value, Error> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.members(b']', |p| {
                items.push(p.value()?);
                Ok(())
            })?;
            Ok(Value::Array(items))
        }

        fn object(&mut self) -> Result<Value, Error> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.members(b'}', |p| {
                let key = p.string()?;
                p.expect(b':')?;
                map.insert(key, p.value()?);
                Ok(())
            })?;
            Ok(Value::Object(map))
        }
    }

    /// Parses strict JSON text into a [`Value`].
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::new(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }
}

/// `Json` for the scalars: how to build the `Value`, how to read it back
/// (`None` for a mismatch), and what a mismatch expected.
macro_rules! json_scalar {
    ($($t:ty: $to:expr, $from:expr, $what:literal;)*) => {$(
        impl Json for $t {
            fn to_json(&self) -> Value {
                $to(self)
            }

            fn from_json(v: &Value) -> Result<Self, Error> {
                $from(v).ok_or_else(|| json::mismatch($what, v))
            }
        }
    )*};
}
json_scalar! {
    bool: |b: &bool| Value::Bool(*b), Value::as_bool, "a boolean";
    f64: |n: &f64| Value::Number(*n), Value::as_f64, "a number";
    String: |s: &String| Value::String(s.clone()),
        |v: &Value| v.as_str().map(String::from), "a string";
    u8: |n: &u8| Value::Number(f64::from(*n)), uint, "an integer in [0, 255]";
    u32: |n: &u32| Value::Number(f64::from(*n)), uint, "an integer in [0, 4294967295]";
    u64: |n: &u64| Value::Number(*n as f64), uint, "an integer in [0, 2^53]";
    usize: |n: &usize| Value::Number(*n as f64), uint, "an integer in [0, 2^53]";
}

/// An exact integer in range for `T`, or `None`.
fn uint<T: TryFrom<u64>>(v: &Value) -> Option<T> {
    v.as_u64().and_then(|n| T::try_from(n).ok())
}

impl<T: Json> Json for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }

    /// A failing element is named by its index.
    fn from_json(v: &Value) -> Result<Self, Error> {
        let items = v.as_array().ok_or_else(|| json::mismatch("an array", v))?;
        let item =
            |(i, x): (usize, &Value)| T::from_json(x).map_err(|e| e.within(format!("[{i}]")));
        items.iter().enumerate().map(item).collect()
    }
}

/// `None` is `null`.
impl<T: Json> Json for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }

    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value, MAX_DEPTH};
    use super::Json;

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
        for text in [
            "[1, 2",              // unterminated
            "nope",               // not a value
            "[1] trailing",       // trailing input
            "{a: 1}",             // bare key
            r#"{"a": 1 "b": 2}"#, // members without a comma
            "[1, 2,]",            // trailing comma in an array
            r#"{"a": 1,}"#,       // trailing comma in an object
            "[1 2]",              // elements without a comma
            "[,1]",               // leading comma
            "[01]",               // leading zero
            "[+1]",               // explicit plus
            "[.5]",               // bare fraction
            "[1.]",               // empty fraction
            "[1e]",               // empty exponent
            "[1e400]",            // overflows to infinity
            "[NaN]",              // not a JSON number
        ] {
            assert!(parse(text).is_err(), "{text} must be rejected");
        }
        assert_eq!(
            parse("[-0.5e-3]").unwrap(),
            Value::Array(vec![Value::Number(-0.0005)])
        );
    }

    #[test]
    fn nesting_is_bounded_not_fatal() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        // Far past the bound, unterminated, and through objects too: an
        // error, never a stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn integers_decode_exactly_or_not_at_all() {
        let int = |text: &str| parse(text).unwrap();
        assert_eq!(u8::from_json(&int("255")), Ok(255));
        assert!(u8::from_json(&int("256")).is_err(), "out of range");
        assert_eq!(u32::from_json(&int("4294967295")), Ok(u32::MAX));
        assert!(u32::from_json(&int("4294967296")).is_err(), "out of range");
        assert_eq!(u64::from_json(&int("9007199254740992")), Ok(1 << 53));
        assert!(
            u64::from_json(&int("9007199254740994")).is_err(),
            "above 2^53"
        );
        assert!(u64::from_json(&int("1e30")).is_err(), "no saturation");
        assert!(usize::from_json(&int("1e30")).is_err(), "no saturation");
        assert!(u32::from_json(&int("-1")).is_err(), "negative");
        assert!(u32::from_json(&int("1.5")).is_err(), "fractional");
        assert_eq!(
            u32::from_json(&int("2.0")),
            Ok(2),
            "whole floats are integers"
        );
        assert!(u32::from_json(&int("\"4\"")).is_err(), "string");
        let err = u8::from_json(&int("300")).unwrap_err().to_string();
        assert!(err.contains("[0, 255]") && err.contains("300"), "{err}");
    }

    #[test]
    fn options_vectors_and_paths() {
        let v = parse("[1, null, 3]").unwrap();
        assert_eq!(
            Vec::<Option<u32>>::from_json(&v),
            Ok(vec![Some(1), None, Some(3)])
        );
        assert_eq!(Vec::<Option<u32>>::from_json(&v).unwrap().to_json(), v);
        let err = Vec::<u32>::from_json(&v).unwrap_err().to_string();
        assert!(err.contains("[1]: expected an integer"), "{err}");
        let obj = parse(r#"{"xs": [1, true]}"#).unwrap();
        let err = super::json::field::<Vec<u32>>(&obj, "xs").unwrap_err();
        assert!(err.to_string().contains("xs[1]: expected"), "{err}");
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
        let v =
            parse(r#"{"n": 3, "f": 0.5, "s": "x", "b": true, "xs": [1], "big": 1e30}"#).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Value::as_u64), None);
        assert_eq!(v.get("big").and_then(Value::as_u64), None, "no saturation");
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Value::as_array).map(<[_]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Inner {
        a: u32,
        b: Option<f64>,
    }
    crate::json_codec! {
        struct Inner { a: default, b: default }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Dot,
        Line { len: u32 },
    }
    crate::json_codec! {
        enum Shape {
            "dot" => Dot,
            "line" => Line { len },
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        name: String,
        shape: Shape,
        inner: Inner,
        copies: u32,
    }
    crate::json_codec! {
        struct Outer { name, shape: flatten, inner: default, copies = inner.a + 1 }
    }

    impl Default for Outer {
        fn default() -> Self {
            Self {
                name: String::new(),
                shape: Shape::Dot,
                inner: Inner::default(),
                copies: 0,
            }
        }
    }

    #[test]
    fn declared_codecs_cover_every_field_shape() {
        let outer = Outer {
            name: "x".into(),
            shape: Shape::Line { len: 3 },
            inner: Inner { a: 7, b: None },
            copies: 2,
        };
        let text = outer.to_json().to_string();
        assert_eq!(
            text,
            r#"{"copies": 2, "inner": {"a": 7, "b": null}, "kind": "line", "len": 3, "name": "x"}"#
        );
        assert_eq!(Outer::from_json(&parse(&text).unwrap()), Ok(outer.clone()));
        // Defaults: a missing record field, a field of `Self::default()`,
        // and a fallback reading an earlier field.
        let sparse =
            Outer::from_json(&parse(r#"{"name": "y", "kind": "dot", "inner": {"a": 4}}"#).unwrap())
                .unwrap();
        assert_eq!(sparse.inner, Inner { a: 4, b: None });
        assert_eq!(sparse.copies, 5);
        // Errors name the field's path.
        let err = |text: &str| {
            Outer::from_json(&parse(text).unwrap())
                .unwrap_err()
                .to_string()
        };
        assert!(err(r#"{"kind": "dot"}"#).contains(r#"missing field "name""#));
        let bad = err(r#"{"name": "z", "kind": "line", "len": -1}"#);
        assert!(bad.contains("len: expected an integer"), "{bad}");
        let bad = err(r#"{"name": "z", "kind": "dot", "inner": {"b": "q"}}"#);
        assert!(bad.contains("inner.b: expected a number"), "{bad}");
        let bad = err(r#"{"name": "z", "kind": "cube"}"#);
        assert!(bad.contains(r#"unknown kind "cube""#), "{bad}");
        assert!(err(r#"{"name": "z", "kind": "dot", "inner": 5}"#).contains("expected an object"));
        // The exact decode turns away what nothing declares, by path: a
        // nested key, and a key of another variant of a flattened enum.
        assert_eq!(Outer::FIELDS, ["name", "shape", "inner", "copies"]);
        let exact = |text: &str| Outer::from_json_exact(&parse(text).unwrap());
        assert_eq!(exact(&text), Ok(outer));
        let nested = r#"{"name": "z", "kind": "dot", "inner": {"a": 1, "c": 2}}"#;
        assert!(Outer::from_json(&parse(nested).unwrap()).is_ok());
        let bad = exact(nested).unwrap_err().to_string();
        assert!(
            bad.contains(r#"inner.c: unknown key, expected one of ["a", "b"]"#),
            "{bad}"
        );
        let bad = exact(r#"{"name": "z", "kind": "dot", "len": 3}"#).unwrap_err();
        assert!(bad.to_string().contains("len: unknown key"), "{bad}");
    }
}
