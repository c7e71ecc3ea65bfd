//! Offline stand-in for the `serde` crate.
//!
//! The real serde is a visitor-based zero-copy framework; this workspace
//! only ever derives `Serialize` and feeds values to
//! `serde_json::to_string(_pretty)`, so the stand-in collapses the design
//! to one pass: [`Serialize::serialize`] writes the value's JSON straight
//! into a [`Json`] writer, with no intermediate tree. It implements
//! `Serialize` only for the types the workspace writes. There is no
//! `Deserialize`: records read themselves back from a parsed
//! `serde_json::Value` through `serde_json::FromJson`.
//!
//! Both derive macros live in the vendored `serde_derive` crate and are
//! re-exported here when the `derive` feature is on.

use std::fmt::Write;

#[cfg(feature = "derive")]
pub use serde_derive::{FromJson, Serialize};

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Writes `self` as one JSON value.
    fn serialize(&self, out: &mut Json);
}

/// A one-pass JSON writer: owns the output text and the optional pretty
/// indent. Values are written in order; sequences and objects are opened
/// and closed around their entries, and the writer places the commas and
/// (when pretty) the newlines and indentation.
#[derive(Debug, Default)]
pub struct Json {
    out: String,
    /// Spaces per nesting level; `None` writes compact JSON.
    indent: Option<usize>,
    depth: usize,
    /// Whether the innermost open sequence or object has no entry yet.
    first: bool,
    /// Writes the leading entries of the next object begun, once.
    head: Option<fn(&mut Json)>,
}

impl Json {
    /// A compact writer.
    pub fn compact() -> Json {
        Json::default()
    }

    /// A pretty writer indenting each level by `width` spaces.
    pub fn pretty(width: usize) -> Json {
        Json {
            indent: Some(width),
            ..Json::default()
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Has `head` write the first entries of the next object this writer
    /// begins (through [`Json::field`]), ahead of that object's own. It
    /// fires once: objects nested inside are left alone.
    pub fn lead_next_object(&mut self, head: fn(&mut Json)) {
        self.head = Some(head);
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A signed integer.
    pub fn i64(&mut self, i: i64) {
        let _ = write!(self.out, "{i}");
    }

    /// An unsigned integer.
    pub fn u64(&mut self, u: u64) {
        let _ = write!(self.out, "{u}");
    }

    /// A float: `null` when not finite (JSON has no NaN or infinity, and
    /// a null keeps writing total), one decimal when integer-valued below
    /// 1e16, Rust's shortest round-trip form otherwise.
    pub fn f64(&mut self, f: f64) {
        if !f.is_finite() {
            self.out.push_str("null");
        } else if f == f.trunc() && f.abs() < 1e16 {
            let _ = write!(self.out, "{f:.1}");
        } else {
            let _ = write!(self.out, "{f}");
        }
    }

    /// A string, quoted and escaped.
    pub fn str(&mut self, s: &str) {
        let out = &mut self.out;
        out.push('"');
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[start..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            start = i + 1;
        }
        out.push_str(&s[start..]);
        out.push('"');
    }

    /// Opens an array.
    pub fn begin_seq(&mut self) {
        self.open('[');
    }

    /// Writes one array element.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.entry();
        value.serialize(self);
    }

    /// Closes the innermost array.
    pub fn end_seq(&mut self) {
        self.close(']');
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
        if let Some(head) = self.head.take() {
            head(self);
        }
    }

    /// Writes one object entry.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.serialize(self);
    }

    /// Writes the key of an object entry; the next value written is its
    /// value.
    pub fn key(&mut self, key: &str) {
        self.entry();
        self.str(key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    /// The separator ahead of an entry: a comma after the first, then a
    /// newline and indent when pretty.
    fn entry(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    /// Empty containers close inline (`[]`, `{}`). Closing a container
    /// completes an entry of the enclosing one, so that one is no longer
    /// empty.
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    fn newline(&mut self) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            self.out
                .extend(std::iter::repeat_n(' ', width * self.depth));
        }
    }
}

/// `impl Serialize` for types written by one writer call on `$v: &Self`.
macro_rules! serialize_with {
    ($($t:ty => |$v:ident, $out:ident| $write:expr;)*) => {$(
        impl Serialize for $t {
            fn serialize(&self, $out: &mut Json) {
                let $v = self;
                $write;
            }
        }
    )*};
}

serialize_with! {
    i64 => |v, out| out.i64(*v);
    u32 => |v, out| out.u64((*v).into());
    u64 => |v, out| out.u64(*v);
    usize => |v, out| out.u64(*v as u64);
    f64 => |v, out| out.f64(*v);
    bool => |v, out| out.bool(*v);
    String => |v, out| out.str(v);
    str => |v, out| out.str(v);
    char => |v, out| out.str(v.encode_utf8(&mut [0; 4]));
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Json) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut Json) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Json) {
        match self {
            Some(v) => v.serialize(out),
            None => out.null(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Json) {
        self.as_slice().serialize(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Json) {
        out.begin_seq();
        for item in self {
            out.element(item);
        }
        out.end_seq();
    }
}

macro_rules! tuple_impls {
    ($( ($($name:ident . $idx:tt),+) )+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Json) {
                out.begin_seq();
                $( out.element(&self.$idx); )+
                out.end_seq();
            }
        }
    )+};
}

tuple_impls! {
    (A.0, B.1)
    (A.0, B.1, C.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lead_fires_once_on_the_next_object() {
        let mut out = Json::compact();
        out.lead_next_object(|out| out.field("v", &1u64));
        out.begin_object();
        out.key("k");
        out.begin_object();
        out.end_object();
        out.end_object();
        assert_eq!(out.into_string(), "{\"v\":1,\"k\":{}}");
    }
}
