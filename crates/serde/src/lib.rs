//! Vendored offline stand-in for the `serde` crate.
//!
//! The build environment has no network access and the crates.io mirror is
//! unreachable (see EXPERIMENTS.md), so the real `serde` cannot be fetched.
//! This crate keeps the workspace's public surface — `Serialize`,
//! `Deserialize`, `Serializer`, `Deserializer`, and the two derive macros —
//! source-compatible for everything the workspace actually uses, but routes
//! all data through one concrete in-memory [`Value`] tree instead of serde's
//! visitor machinery. `serde_json` (also vendored) renders that tree to and
//! from JSON text.
//!
//! Design notes:
//!
//! - [`Serializer::collect_value`] replaces the whole `serialize_*` method
//!   family: a `Serialize` impl builds a [`Value`] and hands it over. The
//!   generic signatures (`fn serialize<S: Serializer>`) stay identical, so
//!   hand-written helpers like the `edge_serde` module compile unchanged.
//! - [`Deserializer::take_value`] is the mirror image: a `Deserialize` impl
//!   takes the [`Value`] and destructures it.
//! - Numbers keep their integer/float identity in the tree ([`Value::U64`],
//!   [`Value::I64`], [`Value::F64`]) and the numeric `Deserialize` impls
//!   coerce between them, so `1` parses back into an `f64` field just like
//!   serde_json would.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::marker::PhantomData;

/// The in-memory data tree every value serializes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered key/value pairs (field order of the struct).
    Object(Vec<(String, Value)>),
}

/// The error-construction hook shared by serialization and deserialization,
/// standing in for both `serde::ser::Error` and `serde::de::Error`.
pub trait Error: Sized {
    fn custom(msg: String) -> Self;
}

pub trait Serializer: Sized {
    type Ok;
    type Error: Error;
    /// Consumes the fully-built value tree.
    fn collect_value(self, value: Value) -> Result<Self::Ok, Self::Error>;
}

pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

pub trait Deserializer<'de>: Sized {
    type Error: Error;
    /// Surrenders the value tree for destructuring.
    fn take_value(self) -> Result<Value, Self::Error>;
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Deserializable from any lifetime — all types in this workspace are owned.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// The one [`Serializer`]: returns the built [`Value`] unchanged.
pub struct ValueSerializer<E> {
    _marker: PhantomData<fn() -> E>,
}

impl<E> ValueSerializer<E> {
    pub fn new() -> Self {
        Self {
            _marker: PhantomData,
        }
    }
}

impl<E> Default for ValueSerializer<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Error> Serializer for ValueSerializer<E> {
    type Ok = Value;
    type Error = E;
    fn collect_value(self, value: Value) -> Result<Value, E> {
        Ok(value)
    }
}

/// The one [`Deserializer`]: hands out a stored [`Value`].
pub struct ValueDeserializer<E> {
    value: Value,
    _marker: PhantomData<fn() -> E>,
}

impl<E> ValueDeserializer<E> {
    pub fn new(value: Value) -> Self {
        Self {
            value,
            _marker: PhantomData,
        }
    }
}

impl<E: Error> Deserializer<'static> for ValueDeserializer<E> {
    type Error = E;
    fn take_value(self) -> Result<Value, E> {
        Ok(self.value)
    }
}

/// Serializes any value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized, E: Error>(value: &T) -> Result<Value, E> {
    value.serialize(ValueSerializer::<E>::new())
}

/// Deserializes any owned value out of a [`Value`] tree.
pub fn from_value<T: DeserializeOwned, E: Error>(value: Value) -> Result<T, E> {
    T::deserialize(ValueDeserializer::<E>::new(value))
}

/// Removes the named field from an object's pairs (derive-internal).
pub fn take_field<E: Error>(obj: &mut Vec<(String, Value)>, name: &str) -> Result<Value, E> {
    match obj.iter().position(|(k, _)| k == name) {
        Some(i) => Ok(obj.swap_remove(i).1),
        None => Err(E::custom(format!("missing field `{name}`"))),
    }
}

fn type_error<T, E: Error>(expected: &str, got: &Value) -> Result<T, E> {
    let kind = match got {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::I64(_) | Value::U64(_) => "an integer",
        Value::F64(_) => "a float",
        Value::Str(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    };
    Err(E::custom(format!("expected {expected}, found {kind}")))
}

// ---------------------------------------------------------------------------
// Serialize impls for primitives and containers
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_value(Value::Bool(*self))
    }
}

macro_rules! serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.collect_value(Value::U64(*self as u64))
            }
        }
    )*};
}
serialize_unsigned!(u8, u16, u32, u64, usize);

macro_rules! serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.collect_value(Value::I64(*self as i64))
            }
        }
    )*};
}
serialize_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_value(Value::F64(*self))
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_value(Value::F64(f64::from(*self)))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_value(Value::Str(self.to_string()))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_value(Value::Str(self.clone()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            None => serializer.collect_value(Value::Null),
            Some(v) => v.serialize(serializer),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

fn serialize_seq<'a, T, S, I>(iter: I, serializer: S) -> Result<S::Ok, S::Error>
where
    T: Serialize + 'a,
    S: Serializer,
    I: Iterator<Item = &'a T>,
{
    let mut out = Vec::new();
    for item in iter {
        out.push(to_value::<T, S::Error>(item)?);
    }
    serializer.collect_value(Value::Array(out))
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_seq(self.iter(), serializer)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_seq(self.iter(), serializer)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_seq(self.iter(), serializer)
    }
}

macro_rules! serialize_tuple {
    ($(($($t:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.collect_value(Value::Array(vec![
                    $(to_value::<$t, S::Error>(&self.$idx)?),+
                ]))
            }
        }
    )+};
}
serialize_tuple!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
);

// ---------------------------------------------------------------------------
// Deserialize impls for primitives and containers
// ---------------------------------------------------------------------------

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Bool(b) => Ok(b),
            other => type_error("a boolean", &other),
        }
    }
}

fn value_to_u64<E: Error>(v: Value) -> Result<u64, E> {
    match v {
        Value::U64(u) => Ok(u),
        Value::I64(i) if i >= 0 => Ok(i as u64),
        other => type_error("an unsigned integer", &other),
    }
}

macro_rules! deserialize_unsigned {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let u = value_to_u64::<D::Error>(deserializer.take_value()?)?;
                <$t>::try_from(u)
                    .map_err(|_| D::Error::custom(format!("integer {u} out of range")))
            }
        }
    )*};
}
deserialize_unsigned!(u8, u16, u32, u64, usize);

macro_rules! deserialize_signed {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let i = match deserializer.take_value()? {
                    Value::I64(i) => i,
                    Value::U64(u) => i64::try_from(u)
                        .map_err(|_| D::Error::custom(format!("integer {u} out of range")))?,
                    other => return type_error("a signed integer", &other),
                };
                <$t>::try_from(i)
                    .map_err(|_| D::Error::custom(format!("integer {i} out of range")))
            }
        }
    )*};
}
deserialize_signed!(i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::F64(x) => Ok(x),
            Value::I64(i) => Ok(i as f64),
            Value::U64(u) => Ok(u as f64),
            other => type_error("a number", &other),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        f64::deserialize(deserializer).map(|x| x as f32)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Str(s) => Ok(s),
            other => type_error("a string", &other),
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Null => Ok(None),
            v => Ok(Some(from_value::<T, D::Error>(v)?)),
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

fn value_to_array<E: Error>(v: Value) -> Result<Vec<Value>, E> {
    match v {
        Value::Array(a) => Ok(a),
        other => type_error("an array", &other),
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items = value_to_array::<D::Error>(deserializer.take_value()?)?;
        // Sized up front: collecting through `Result` would grow the
        // vector by doubling, since its size hint starts at zero.
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(from_value::<T, D::Error>(item)?);
        }
        Ok(out)
    }
}

impl<'de, T: DeserializeOwned, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items = value_to_array::<D::Error>(deserializer.take_value()?)?;
        if items.len() != N {
            return Err(D::Error::custom(format!(
                "expected an array of length {N}, found {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items
            .into_iter()
            .map(from_value::<T, D::Error>)
            .collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| D::Error::custom("array length changed during conversion".to_string()))
    }
}

macro_rules! deserialize_tuple {
    ($(($len:literal, $($t:ident),+)),+ $(,)?) => {$(
        impl<'de, $($t: DeserializeOwned),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let items = value_to_array::<D::Error>(deserializer.take_value()?)?;
                if items.len() != $len {
                    return Err(D::Error::custom(format!(
                        "expected a tuple of length {}, found {}", $len, items.len()
                    )));
                }
                let mut it = items.into_iter();
                Ok(($(from_value::<$t, D::Error>(
                    it.next().expect("length checked")
                )?,)+))
            }
        }
    )+};
}
deserialize_tuple!(
    (1, T0),
    (2, T0, T1),
    (3, T0, T1, T2),
    (4, T0, T1, T2, T3),
    (5, T0, T1, T2, T3, T4),
    (6, T0, T1, T2, T3, T4, T5),
);
