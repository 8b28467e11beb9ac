//! Binary rendering of the [`Value`] tree: the same data model as the JSON
//! text, without the text.
//!
//! Every node is a one-byte tag followed by its body; counts and lengths
//! are little-endian `u32`, numbers are their raw 8 little-endian bytes
//! (an `f64` is its IEEE bit pattern, so a round trip is bit-exact).
//!
//! ```text
//! 0 null    1 false    2 true
//! 3 i64     8 bytes
//! 4 u64     8 bytes
//! 5 f64     8 bytes (raw bits)
//! 6 string  u32 byte length, UTF-8 bytes
//! 7 array   u32 count, count nodes
//! 8 object  u32 count, count × (u32 key length, key bytes, node)
//! 9 run     u32 count (≥ 2), count × 8 raw f64 bytes
//! ```
//!
//! A *run* is how any array of two or more floats is written — the
//! numeric tables that make up most of a model — and it decodes in one
//! pass over the bytes. Every other array uses tag 7, so each value has
//! exactly one encoding.
//!
//! The input is as untrusted as JSON text, so the decoder keeps the
//! parser's limits, each as an [`Error`]: the nesting cap, non-finite
//! float rejection (inside runs too), and no trailing bytes. Every count
//! and length is checked against the bytes remaining before anything is
//! allocated for it, so a hostile `u32::MAX` count costs nothing.

use crate::{Error, MAX_PARSE_DEPTH};
use serde::{DeserializeOwned, Serialize, Value};

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const I64: u8 = 3;
const U64: u8 = 4;
const F64: u8 = 5;
const STR: u8 = 6;
const ARRAY: u8 = 7;
const OBJECT: u8 = 8;
const RUN: u8 = 9;

/// Serializes a value to its binary rendering.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float or a string,
/// array or object too long for a `u32` count.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let tree = serde::to_value::<T, Error>(value)?;
    let mut out = Vec::new();
    write_node(&mut out, &tree)?;
    Ok(out)
}

/// Parses a value from its binary rendering.
///
/// # Errors
///
/// Returns [`Error`] on malformed or truncated bytes, a limit violation,
/// or a shape mismatch.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader {
        bytes,
        pos: 0,
        depth: 0,
    };
    let tree = r.node()?;
    if r.pos != bytes.len() {
        return Err(Error::new(format!(
            "{} trailing bytes after the value at byte {}",
            bytes.len() - r.pos,
            r.pos
        )));
    }
    serde::from_value::<T, Error>(tree)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn finite(x: f64) -> Result<f64, Error> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(Error::new(format!("cannot serialize non-finite float {x}")))
    }
}

fn write_count(out: &mut Vec<u8>, n: usize) -> Result<(), Error> {
    let n = u32::try_from(n).map_err(|_| Error::new(format!("length {n} exceeds u32")))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn write_str(out: &mut Vec<u8>, s: &str) -> Result<(), Error> {
    write_count(out, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn write_node(out: &mut Vec<u8>, v: &Value) -> Result<(), Error> {
    match v {
        Value::Null => out.push(NULL),
        Value::Bool(false) => out.push(FALSE),
        Value::Bool(true) => out.push(TRUE),
        Value::I64(i) => {
            out.push(I64);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::U64(u) => {
            out.push(U64);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(F64);
            out.extend_from_slice(&finite(*x)?.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(STR);
            write_str(out, s)?;
        }
        Value::Array(items)
            if items.len() >= 2 && items.iter().all(|i| matches!(i, Value::F64(_))) =>
        {
            out.push(RUN);
            write_count(out, items.len())?;
            for item in items {
                if let Value::F64(x) = item {
                    out.extend_from_slice(&finite(*x)?.to_le_bytes());
                }
            }
        }
        Value::Array(items) => {
            out.push(ARRAY);
            write_count(out, items.len())?;
            for item in items {
                write_node(out, item)?;
            }
        }
        Value::Object(pairs) => {
            out.push(OBJECT);
            write_count(out, pairs.len())?;
            for (k, item) in pairs {
                write_str(out, k)?;
                write_node(out, item)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Decodes one float's bits, refusing NaN and the infinities.
fn read_float(bits: [u8; 8], at: usize) -> Result<f64, Error> {
    let x = f64::from_le_bytes(bits);
    if x.is_finite() {
        Ok(x)
    } else {
        Err(Error::new(format!("non-finite float {x} at byte {at}")))
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let chunk = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or_else(|| {
                Error::new(format!(
                    "unexpected end of input: {n} bytes wanted at byte {}",
                    self.pos
                ))
            })?;
        self.pos += n;
        Ok(chunk)
    }

    fn word(&mut self) -> Result<[u8; 8], Error> {
        let mut w = [0u8; 8];
        w.copy_from_slice(self.take(8)?);
        Ok(w)
    }

    /// Reads a count of items that each occupy at least `min_bytes`, and
    /// refuses it unless that many items fit in what is left of the input.
    fn count(&mut self, min_bytes: usize) -> Result<usize, Error> {
        let at = self.pos;
        let mut w = [0u8; 4];
        w.copy_from_slice(self.take(4)?);
        let n = u32::from_le_bytes(w) as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.checked_mul(min_bytes).is_none_or(|need| need > remaining) {
            return Err(Error::new(format!(
                "count {n} at byte {at} overruns the {remaining} bytes remaining"
            )));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, Error> {
        let n = self.count(1)?;
        let at = self.pos;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| Error::new(format!("invalid utf-8 in string at byte {at}")))
    }

    fn node(&mut self) -> Result<Value, Error> {
        let at = self.pos;
        let tag = self.take(1)?[0];
        match tag {
            NULL => Ok(Value::Null),
            FALSE => Ok(Value::Bool(false)),
            TRUE => Ok(Value::Bool(true)),
            I64 => Ok(Value::I64(i64::from_le_bytes(self.word()?))),
            U64 => Ok(Value::U64(u64::from_le_bytes(self.word()?))),
            F64 => {
                let bits = self.word()?;
                read_float(bits, at + 1).map(Value::F64)
            }
            STR => self.string().map(Value::Str),
            ARRAY | OBJECT | RUN => {
                if self.depth >= MAX_PARSE_DEPTH {
                    return Err(Error::new(format!(
                        "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {at}"
                    )));
                }
                self.depth += 1;
                let v = match tag {
                    ARRAY => self.array(),
                    OBJECT => self.object(),
                    _ => self.run(at),
                };
                self.depth -= 1;
                v
            }
            other => Err(Error::new(format!("unknown tag {other} at byte {at}"))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        let n = self.count(1)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(self.node()?);
        }
        Ok(Value::Array(items))
    }

    fn object(&mut self) -> Result<Value, Error> {
        // A pair is at least a 4-byte key length and a 1-byte node.
        let n = self.count(5)?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let key = self.string()?;
            pairs.push((key, self.node()?));
        }
        Ok(Value::Object(pairs))
    }

    fn run(&mut self, at: usize) -> Result<Value, Error> {
        let n = self.count(8)?;
        if n < 2 {
            return Err(Error::new(format!(
                "float run of {n} at byte {at} (runs hold two or more)"
            )));
        }
        let start = self.pos;
        let mut items = Vec::with_capacity(n);
        for (i, c) in self.take(n * 8)?.chunks_exact(8).enumerate() {
            let mut bits = [0u8; 8];
            bits.copy_from_slice(c);
            items.push(Value::F64(read_float(bits, start + 8 * i)?));
        }
        Ok(Value::Array(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::Str("nand2 µ".to_string())),
            (
                "grid".to_string(),
                Value::Array(vec![
                    Value::F64(1e-12),
                    Value::F64(-0.0),
                    Value::F64(5e-324),
                ]),
            ),
            ("one".to_string(), Value::Array(vec![Value::F64(0.1)])),
            (
                "mixed".to_string(),
                Value::Array(vec![Value::F64(1.0), Value::U64(3), Value::Null]),
            ),
            (
                "flags".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Bool(false)]),
            ),
            (
                "ints".to_string(),
                Value::Array(vec![Value::I64(-7), Value::U64(u64::MAX)]),
            ),
            ("empty".to_string(), Value::Array(vec![])),
            ("nested".to_string(), Value::Object(vec![])),
        ])
    }

    fn encode(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        write_node(&mut out, v).unwrap();
        out
    }

    fn decode(bytes: &[u8]) -> Result<Value, Error> {
        from_slice::<ValueOf>(bytes).map(|v| v.0)
    }

    /// Deserializes to the raw tree, so tests can see every variant.
    struct ValueOf(Value);
    impl<'de> serde::Deserialize<'de> for ValueOf {
        fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.take_value().map(ValueOf)
        }
    }

    #[test]
    fn every_variant_roundtrips_bit_exactly() {
        let v = sample();
        let bytes = encode(&v);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, v);
        // -0.0 == 0.0, so check the bits of the run explicitly.
        let Value::Object(pairs) = &back else {
            panic!()
        };
        let Value::Array(grid) = &pairs[1].1 else {
            panic!()
        };
        assert!(matches!(grid[1], Value::F64(x) if x.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(encode(&back), bytes, "one encoding per value");
    }

    #[test]
    fn float_arrays_pack_into_one_run() {
        let v: Vec<f64> = vec![1.0, 2.5, -3.0e-15];
        let bytes = to_vec(&v).unwrap();
        assert_eq!(bytes[0], RUN);
        assert_eq!(bytes.len(), 1 + 4 + 8 * v.len());
        assert_eq!(from_slice::<Vec<f64>>(&bytes).unwrap(), v);
        // A single float stays an ordinary array.
        assert_eq!(to_vec(&vec![1.0f64]).unwrap()[0], ARRAY);
    }

    #[test]
    fn non_finite_floats_are_refused_both_ways() {
        assert!(to_vec(&f64::NAN).is_err());
        assert!(to_vec(&vec![1.0, f64::INFINITY]).is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bytes = to_vec(&vec![1.0f64, 2.0, 3.0]).unwrap();
            bytes[5 + 8..5 + 16].copy_from_slice(&bad.to_le_bytes());
            let e = from_slice::<Vec<f64>>(&bytes).unwrap_err();
            assert!(e.to_string().contains("non-finite"), "{e}");
            let mut single = vec![F64];
            single.extend_from_slice(&bad.to_le_bytes());
            assert!(from_slice::<f64>(&single).is_err());
        }
    }

    #[test]
    fn every_truncation_and_trailing_byte_is_an_error() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(NULL);
        let e = decode(&long).unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
    }

    #[test]
    fn hostile_counts_are_refused_before_allocation() {
        for tag in [STR, ARRAY, OBJECT, RUN] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            bytes.extend_from_slice(&[0; 16]);
            let e = decode(&bytes).unwrap_err();
            assert!(e.to_string().contains("overruns"), "tag {tag}: {e}");
        }
        let mut short_run = vec![RUN];
        short_run.extend_from_slice(&1u32.to_le_bytes());
        short_run.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(decode(&short_run).is_err());
        assert!(decode(&[42])
            .unwrap_err()
            .to_string()
            .contains("unknown tag"));
    }

    #[test]
    fn nesting_bombs_error_instead_of_overflowing() {
        // Within the cap the nesting decodes.
        let mut shallow = Vec::new();
        for _ in 0..MAX_PARSE_DEPTH {
            shallow.push(ARRAY);
            shallow.extend_from_slice(&1u32.to_le_bytes());
        }
        shallow.push(NULL);
        assert!(decode(&shallow).is_ok());
        // 100 000 levels must fail typed, not blow the stack.
        let mut deep = Vec::new();
        for _ in 0..100_000 {
            deep.push(ARRAY);
            deep.extend_from_slice(&1u32.to_le_bytes());
        }
        deep.push(NULL);
        let e = decode(&deep).unwrap_err();
        assert!(e.to_string().contains("nesting"), "{e}");
    }
}
