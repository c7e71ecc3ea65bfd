//! Offline stand-in for the `serde_json` crate.
//!
//! Covers exactly what this workspace uses: rendering any
//! `serde::Serialize` value to a JSON string (`to_string`,
//! `to_string_pretty`, thin wrappers over the one-pass `serde::Json`
//! writer, which owns the float, escape and indent rules), parsing text
//! into an untyped [`Value`] (`from_str`), and reading a record back from
//! that `Value` through [`FromJson`], which `serde_derive` derives from
//! the same walk that derives `Serialize`. `Value` is for parsing only: it
//! is not `Serialize`.

use serde::{Json, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Error raised by JSON parsing (serialization here is infallible, but
/// `to_string` keeps the real crate's `Result` signature).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error(message.into())
    }
}

/// An untyped JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as f64 (adequate for this workspace's reports).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted keys; serde_json's default map is also ordered).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Looks up `key` when `self` is an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The float content of a number value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string content of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean content of a bool value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements of an array value.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Types that read themselves back from a parsed [`Value`]: the inverse
/// of `serde::Serialize` for the shapes records use. `#[derive(FromJson)]`
/// (re-exported by `serde`) covers named structs and externally tagged
/// enums of unit and struct variants.
///
/// One read rule holds for every type:
/// - a struct field that is absent, `null` or of the wrong type reads as
///   its type's default ([`FromJson::absent`]); numbers cast saturating,
///   so a negative or NaN count reads 0;
/// - an enum needs a known variant, so it has no default: a struct whose
///   enum field does not read does not read either (a trace record that
///   does not read is skipped and counted);
/// - unknown keys are ignored, and array elements that do not read are
///   dropped.
pub trait FromJson: Sized {
    /// Reads `v`; `None` when it holds another type or an unknown variant.
    fn from_json(v: &Value) -> Option<Self>;

    /// What an absent or unreadable field reads as: the type's default,
    /// or `None` for an enum and a struct that holds one.
    fn absent() -> Option<Self>;
}

/// Reads field `key` of `v` by the read rule of [`FromJson`].
pub fn field<T: FromJson>(v: &Value, key: &str) -> Option<T> {
    v.get(key).and_then(T::from_json).or_else(T::absent)
}

/// `v` when it is an object, the only value a struct reads from.
pub fn object(v: &Value) -> Option<&Value> {
    matches!(v, Value::Object(_)).then_some(v)
}

/// The tag and body of an externally tagged enum value: a unit variant
/// is its tag as a string (body `null`), a data variant a one-key object.
pub fn variant(v: &Value) -> Option<(&str, &Value)> {
    static NULL: Value = Value::Null;
    match v {
        Value::String(tag) => Some((tag, &NULL)),
        Value::Object(map) if map.len() == 1 => {
            map.iter().next().map(|(tag, body)| (tag.as_str(), body))
        }
        _ => None,
    }
}

/// `impl FromJson` for types read by one `Value` accessor, absent as
/// their `Default`.
macro_rules! from_json_with {
    ($($t:ty => |$v:ident| $read:expr;)*) => {$(
        impl FromJson for $t {
            fn from_json($v: &Value) -> Option<$t> {
                $read
            }
            fn absent() -> Option<$t> {
                Some(<$t>::default())
            }
        }
    )*};
}

from_json_with! {
    f64 => |v| v.as_f64();
    u64 => |v| v.as_f64().map(|f| f as u64);
    usize => |v| v.as_f64().map(|f| f as usize);
    bool => |v| v.as_bool();
    String => |v| v.as_str().map(str::to_string);
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Option<Option<T>> {
        match v {
            Value::Null => Some(None),
            v => T::from_json(v).map(Some),
        }
    }
    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Option<Vec<T>> {
        Some(v.as_array()?.iter().filter_map(T::from_json).collect())
    }
    fn absent() -> Option<Vec<T>> {
        Some(Vec::new())
    }
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, Json::compact()))
}

/// Serializes `value` to a pretty-printed JSON string (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, Json::pretty(2)))
}

fn write<T: Serialize + ?Sized>(value: &T, mut out: Json) -> String {
    value.serialize(&mut out);
    out.into_string()
}

/// Parses a string into an untyped [`Value`].
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(value)
}

// ---- parsing ----

/// Deepest array/object nesting [`from_str`] accepts. The parser is
/// recursive, so an unbounded depth would let a line of `[`s overflow
/// the stack; real documents in this workspace nest a handful deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn parse_value(&mut self) -> Result<Value, Error> {
        if self.depth >= MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::new(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::new(format!("invalid number '{text}' at byte {start}")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| Error::new("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for this
                            // workspace's ASCII-dominated reports.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. Every other path advances
                    // over ASCII only, so `pos` sits on a char boundary.
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| Error::new("invalid UTF-8 boundary"))?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::new(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip() {
        let v = from_str(r#"{"improvement_pct": 12.5, "name": "df", "tags": [1, null, true]}"#)
            .unwrap();
        assert!(v.get("improvement_pct").is_some());
        assert_eq!(v.get("improvement_pct").unwrap().as_f64(), Some(12.5));
        assert_eq!(v.get("name").unwrap().as_str(), Some("df"));
        assert_eq!(v.get("tags").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_escapes_and_rejects_garbage() {
        let v = from_str(r#""a\n\"bA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\"bA"));
        assert!(from_str("{,}").is_err());
        let err = from_str("nope").unwrap_err();
        assert!(err.to_string().contains("JSON error"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(from_str(&deep).unwrap_err().to_string().contains("nesting deeper"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(from_str(&over).is_err());
    }

    #[test]
    fn multibyte_strings_parse() {
        assert_eq!(
            from_str("\"héllo µs → ok\"").unwrap(),
            Value::String("héllo µs → ok".to_string())
        );
    }
}
