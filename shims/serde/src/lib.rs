//! Vendored stand-in for `serde`, providing just the data model this
//! workspace uses: `#[derive(Serialize, Deserialize)]` over structs and
//! enums of integers, floats, strings, vectors, options, fixed arrays, and
//! other derived types.
//!
//! Instead of serde's visitor architecture, both traits go through a single
//! in-memory [`Value`] tree. `serde_json` (the sibling shim) renders and
//! parses that tree with the same JSON encoding real serde_json would
//! produce for these types (externally-tagged enums, newtype structs as
//! their inner value), so on-disk artifacts stay compatible.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// Generic self-describing value: the interchange point between the
/// `Serialize`/`Deserialize` traits and concrete formats.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Insertion-ordered map (JSON objects preserve field order).
    Map(Vec<(String, Value)>),
}

impl Value {
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a field in a map value; absent keys read as `Null` so that
    /// `Option<T>` fields deserialize to `None` and required fields produce
    /// a type error naming the field.
    pub fn field(&self, key: &str) -> &Value {
        match self {
            Value::Map(m) => m
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&Value::Null),
            _ => &Value::Null,
        }
    }
}

/// Serialization/deserialization error with a breadcrumb path.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }

    /// Prefixes the error with a location breadcrumb (`Report.findings: …`).
    pub fn ctx(mut self, loc: &str) -> Self {
        self.msg = format!("{loc}: {}", self.msg);
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.msg)
    }
}

pub trait Serialize {
    fn to_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// `Value` round-trips as itself, so schema-agnostic consumers (e.g. the
// CLI's live `/snapshot` and `/health` scrapes) can deserialize arbitrary
// JSON without naming a concrete type.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::I64(_) | Value::U64(_) => "integer",
        Value::F64(_) => "float",
        Value::Str(_) => "string",
        Value::Seq(_) => "sequence",
        Value::Map(_) => "map",
    }
}

fn unexpected(expected: &str, got: &Value) -> Error {
    Error::custom(format!("expected {expected}, got {}", type_name(got)))
}

// ---- primitives ----

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(unexpected("bool", other)),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    other => return Err(unexpected("unsigned integer", other)),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error::custom(format!("{n} out of range for i64")))?,
                    other => return Err(unexpected("integer", other)),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(unexpected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(unexpected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(unexpected("single-character string", other)),
        }
    }
}

// ---- compound types ----

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(unexpected("sequence", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v.as_seq().ok_or_else(|| unexpected("sequence", v))?;
        if items.len() != N {
            return Err(Error::custom(format!(
                "expected array of length {N}, got {}",
                items.len()
            )));
        }
        let parsed: Result<Vec<T>, Error> = items.iter().map(T::from_value).collect();
        parsed.map(|v| v.try_into().expect("length checked above"))
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_seq().ok_or_else(|| unexpected("sequence", v))?;
                let expected = [$($n),+].len();
                if items.len() != expected {
                    return Err(Error::custom(format!(
                        "expected tuple of {expected}, got {}", items.len())));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<K: Serialize + fmt::Display + Ord, V: Serialize> Serialize
    for std::collections::BTreeMap<K, V>
{
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = v.as_map().ok_or_else(|| unexpected("map", v))?;
        entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v).map_err(|e| e.ctx(k))?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_roundtrip() {
        assert_eq!(Some(3u32).to_value(), Value::U64(3));
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_value(&Value::U64(5)).unwrap(), Some(5));
    }

    #[test]
    fn missing_map_key_reads_null() {
        let v = Value::Map(vec![("a".into(), Value::U64(1))]);
        assert_eq!(v.field("a"), &Value::U64(1));
        assert_eq!(v.field("b"), &Value::Null);
    }

    #[test]
    fn signed_serializes_nonnegative_as_u64() {
        assert_eq!(5i64.to_value(), Value::U64(5));
        assert_eq!((-5i64).to_value(), Value::I64(-5));
        assert_eq!(i64::from_value(&Value::U64(5)).unwrap(), 5);
    }

    #[test]
    fn fixed_array_roundtrip() {
        let a: [Option<u8>; 2] = [Some(1), None];
        let v = a.to_value();
        assert_eq!(<[Option<u8>; 2]>::from_value(&v).unwrap(), a);
    }
}
