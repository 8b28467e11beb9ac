//! Vendored offline stand-in for `serde_json`.
//!
//! Renders the vendored `serde` crate's [`Value`] tree to compact JSON text
//! and parses it back. The feature set is exactly what this workspace needs:
//! finite numbers, strings, booleans, nulls, arrays, and objects, plus a
//! pretty printer for human-facing report files.
//!
//! Floats are written with Rust's shortest round-trip formatting. An `f64`
//! whose value is integral prints without a fractional part (`1` rather than
//! `1.0`); the numeric `Deserialize` impls coerce integers back into float
//! fields, so round-trips are lossless. Non-finite floats are a
//! serialization error, as in real serde_json.
//!
//! [`binary`] renders the same tree without text: the parse-free form the
//! model containers store.

use serde::{DeserializeOwned, Serialize, Value};
use std::fmt;

pub mod binary;

/// Serialization or parse failure.
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Error({})", self.msg)
    }
}

impl std::error::Error for Error {}

impl serde::Error for Error {
    fn custom(msg: String) -> Self {
        Self { msg }
    }
}

/// Serializes a value to compact JSON (no whitespace), field order preserved.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let tree = serde::to_value::<T, Error>(value)?;
    let mut out = String::new();
    write_value(&mut out, &tree)?;
    Ok(out)
}

/// Serializes a value to two-space-indented JSON.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let tree = serde::to_value::<T, Error>(value)?;
    let mut out = String::new();
    write_value_pretty(&mut out, &tree, 0)?;
    Ok(out)
}

/// Parses a value from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T, Error> {
    let tree = parse_value_complete(text)?;
    serde::from_value::<T, Error>(tree)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_f64(out: &mut String, x: f64) -> Result<(), Error> {
    if !x.is_finite() {
        return Err(Error::new(format!("cannot serialize non-finite float {x}")));
    }
    out.push_str(&format!("{x}"));
    Ok(())
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_value(out: &mut String, v: &Value) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(x) => write_f64(out, *x)?,
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item)?;
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, item)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) -> Result<(), Error> {
    let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_value_pretty(out, item, indent + 1)?;
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_string(out, k);
                out.push_str(": ");
                write_value_pretty(out, item, indent + 1)?;
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
        }
        other => write_value(out, other)?,
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Maximum container nesting the parser (and the [`binary`] decoder)
/// accepts. [`Parser::parse_value`] recurses per `[`/`{`, so unbounded
/// depth lets a few kilobytes of `[[[[…` overflow the thread stack; honest
/// model files nest a handful of levels.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_value_complete(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_whitespace();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got != b {
            return Err(Error::new(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' => self.nested(Self::parse_object),
            b'[' => self.nested(Self::parse_array),
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.parse_keyword("true", Value::Bool(true)),
            b'f' => self.parse_keyword("false", Value::Bool(false)),
            b'n' => self.parse_keyword("null", Value::Null),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        self.skip_whitespace();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}, found `{}`",
                        self.pos, other as char
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}, found `{}`",
                        self.pos, other as char
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.skip_whitespace();
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(Error::new(format!(
                "expected a string at byte {}",
                self.pos
            )));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect a trailing \uXXXX.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.parse_hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(Error::new("unpaired surrogate escape"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                // Multi-byte UTF-8: copy the full character through.
                b if b >= 0x80 => {
                    let start = self.pos - 1;
                    let len = utf8_len(b)?;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::new("truncated utf-8 sequence"))?;
                    out.push_str(
                        std::str::from_utf8(chunk)
                            .map_err(|_| Error::new("invalid utf-8 in string"))?,
                    );
                    self.pos = end;
                }
                b if b < 0x20 => return Err(Error::new("unescaped control character")),
                b => out.push(b as char),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| Error::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        let start = self.pos;
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'+' | b'-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            let x: f64 = text
                .parse()
                .map_err(|_| Error::new(format!("invalid number `{text}`")))?;
            Ok(Value::F64(x))
        } else if text.starts_with('-') {
            let i: i64 = text
                .parse()
                .map_err(|_| Error::new(format!("invalid number `{text}`")))?;
            Ok(Value::I64(i))
        } else {
            match text.parse::<u64>() {
                Ok(u) => Ok(Value::U64(u)),
                // Integers beyond u64 fall back to float, like serde_json's
                // arbitrary-precision-off behavior.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::F64)
                    .map_err(|_| Error::new(format!("invalid number `{text}`"))),
            }
        }
    }
}

fn utf8_len(first: u8) -> Result<usize, Error> {
    match first {
        0xC0..=0xDF => Ok(2),
        0xE0..=0xEF => Ok(3),
        0xF0..=0xF7 => Ok(4),
        _ => Err(Error::new("invalid utf-8 lead byte")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&42usize).unwrap(), "42");
        assert_eq!(to_string("hi \"there\"").unwrap(), "\"hi \\\"there\\\"\"");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<Option<f64>> = vec![Some(1.0), None, Some(2.25e-12)];
        let json = to_string(&v).unwrap();
        let back: Vec<Option<f64>> = from_str(&json).unwrap();
        assert_eq!(v, back);

        let t: (f64, f64) = (1.0, -2.0);
        let back: (f64, f64) = from_str(&to_string(&t).unwrap()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn float_shortest_repr_roundtrips_exactly() {
        for &x in &[1.0e-12, 0.1 + 0.2, f64::MAX, 5e-324, -3.7e18] {
            let back: f64 = from_str(&to_string(&x).unwrap()).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} failed to round-trip");
        }
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(from_str::<f64>("{not json").is_err());
        assert!(from_str::<f64>("1.5 garbage").is_err());
        assert!(from_str::<Vec<f64>>("[1,").is_err());
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        // Within the limit the parser accepts the nesting (the subsequent
        // type mapping fails, but not with the depth error).
        let shallow = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        let err = from_str::<f64>(&shallow).unwrap_err();
        assert!(!err.to_string().contains("nesting"), "{err}");
        // A few kilobytes of `[[[[…` must fail typed, not blow the stack.
        let deep = "[".repeat(100_000);
        let err = from_str::<f64>(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let deep_obj = "{\"a\":".repeat(100_000);
        assert!(from_str::<f64>(&deep_obj).is_err());
    }

    #[test]
    fn nested_value_pretty_print_parses_back() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::Str("nand2".to_string())),
            (
                "grid".to_string(),
                Value::Array(vec![Value::F64(1e-12), Value::U64(3), Value::Null]),
            ),
        ]);
        let mut compact = String::new();
        write_value(&mut compact, &v).unwrap();
        // Rust float Display is positional (no exponent), shortest round-trip.
        assert_eq!(
            compact,
            "{\"name\":\"nand2\",\"grid\":[0.000000000001,3,null]}"
        );
        let mut pretty = String::new();
        write_value_pretty(&mut pretty, &v, 0).unwrap();
        let reparsed = parse_value_complete(&pretty).unwrap();
        assert_eq!(reparsed, v);
    }
}
