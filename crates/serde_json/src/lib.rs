//! Offline stand-in for the `serde_json` crate.
//!
//! Covers exactly what this workspace uses: rendering any
//! `serde::Serialize` value to a JSON string (`to_string`,
//! `to_string_pretty`, thin wrappers over the one-pass `serde::Json`
//! writer, which owns the float, escape and indent rules) and parsing
//! bytes/str into an untyped [`Value`] (`from_slice`, `from_str`).
//! `Value` is for parsing only: it is not `Serialize`. Typed
//! deserialization is intentionally absent — nothing in the workspace
//! requests it.

use serde::{Json, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Error raised by JSON parsing (serialization here is infallible, but
/// `to_string` keeps the real crate's `Result` signature).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
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

/// Parses a byte slice into an untyped [`Value`].
pub fn from_slice(bytes: &[u8]) -> Result<Value, Error> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))?;
    from_str(text)
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
            Some(b'[') => {
                self.depth += 1;
                let value = self.parse_array();
                self.depth -= 1;
                value
            }
            Some(b'{') => {
                self.depth += 1;
                let value = self.parse_object();
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
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
    fn renders_compact_and_pretty() {
        let value = vec![("a".to_string(), 1i64)];
        // A Vec of tuples renders as nested arrays.
        assert_eq!(to_string(&value).unwrap(), r#"[["a",1]]"#);
        let floats = vec![1.0f64, 2.5];
        assert_eq!(to_string(&floats).unwrap(), "[1.0,2.5]");
        let pretty = to_string_pretty(&floats).unwrap();
        assert!(pretty.contains("\n  1.0"));
    }

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
        assert!(from_slice(b"[1, 2]").is_ok());
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
