//! A dynamic, self-describing value type.
//!
//! [`Value`] is the lingua franca of the platform: agent private data
//! (strongly and weakly reversible objects), compensating-operation
//! parameters, and resource operation arguments are all `Value`s. Using a
//! dynamic type sidesteps the problem of serializing arbitrary Rust state
//! across an agent migration while staying faithful to the paper's model,
//! where the private data space is a bag of serializable objects.
//!
//! Maps are ordered (`BTreeMap`) so that encodings — and therefore the byte
//! counts reported by the experiments — are deterministic.

use std::collections::BTreeMap;
use std::fmt;

use serde::de::{MapAccess, SeqAccess, Visitor};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A dynamic value: the unit of agent data and operation parameters.
///
/// # Examples
///
/// ```
/// use mar_wire::Value;
///
/// let v = Value::map([("amount", Value::from(250i64)), ("cur", Value::from("USD"))]);
/// assert_eq!(v.get("amount").and_then(Value::as_i64), Some(250));
/// ```
#[derive(Debug, Clone, PartialEq, PartialOrd, Default)]
pub enum Value {
    /// The absence of a value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer.
    I64(i64),
    /// An unsigned 64-bit integer.
    U64(u64),
    /// A 64-bit float.
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte string.
    Bytes(Vec<u8>),
    /// An ordered list of values.
    List(Vec<Value>),
    /// A string-keyed, ordered map of values.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Builds a [`Value::Map`] from `(key, value)` pairs.
    ///
    /// ```
    /// use mar_wire::Value;
    /// let m = Value::map([("k", Value::from(1i64))]);
    /// assert!(m.is_map());
    /// ```
    pub fn map<K, I>(pairs: I) -> Value
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, Value)>,
    {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a [`Value::List`] from an iterator of values.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Returns `true` if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` if this is a [`Value::Map`].
    pub fn is_map(&self) -> bool {
        matches!(self, Value::Map(_))
    }

    /// Returns the boolean if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as an `i64` if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Returns the value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Returns the value as an `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string slice if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte slice if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the list slice if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the map if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns a mutable map if this is a [`Value::Map`].
    pub fn as_map_mut(&mut self) -> Option<&mut BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Map lookup; returns `None` for non-maps or missing keys.
    ///
    /// ```
    /// use mar_wire::Value;
    /// let m = Value::map([("a", Value::from(true))]);
    /// assert_eq!(m.get("a").and_then(Value::as_bool), Some(true));
    /// assert!(m.get("b").is_none());
    /// ```
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Mutable map lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.as_map_mut().and_then(|m| m.get_mut(key))
    }

    /// Inserts into a map value, turning `Null` into an empty map first.
    ///
    /// Returns the previous value for the key, if any.
    ///
    /// # Panics
    ///
    /// Panics if `self` is neither `Null` nor a `Map`.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        if self.is_null() {
            *self = Value::Map(BTreeMap::new());
        }
        match self {
            Value::Map(m) => m.insert(key.into(), value),
            other => panic!("Value::insert on non-map value {other:?}"),
        }
    }

    /// Structural equality that treats numerically equal integers as equal
    /// across `I64`/`U64` and compares floats by bit pattern (so `NaN == NaN`
    /// for state-comparison purposes).
    pub fn semantically_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::I64(a), Value::U64(b)) | (Value::U64(b), Value::I64(a)) => {
                u64::try_from(*a).map(|a| a == *b).unwrap_or(false)
            }
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.semantically_eq(y))
            }
            (Value::Map(a), Value::Map(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && va.semantically_eq(vb))
            }
            (a, b) => a == b,
        }
    }

    /// A deep size estimate in bytes of the in-memory representation,
    /// used by log-size accounting when an exact encoding is not needed.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::I64(_) | Value::U64(_) | Value::F64(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
            Value::List(l) => 5 + l.iter().map(Value::approx_size).sum::<usize>(),
            Value::Map(m) => {
                5 + m
                    .iter()
                    .map(|(k, v)| 5 + k.len() + v.approx_size())
                    .sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "b[{} bytes]", b.len()),
            Value::List(l) => {
                f.write_str("[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k:?}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

macro_rules! impl_from {
    ($($ty:ty => $variant:ident ($conv:expr)),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Value { Value::$variant($conv(v)) }
        })*
    };
}

impl_from! {
    bool => Bool(|v| v),
    i8 => I64(|v| v as i64),
    i16 => I64(|v| v as i64),
    i32 => I64(|v| v as i64),
    i64 => I64(|v| v),
    u8 => U64(|v| v as u64),
    u16 => U64(|v| v as u64),
    u32 => U64(|v| v as u64),
    u64 => U64(|v| v),
    f32 => F64(|v| v as f64),
    f64 => F64(|v| v),
    String => Str(|v| v),
    Vec<u8> => Bytes(|v| v),
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::List(iter.into_iter().map(Into::into).collect())
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::Null => serializer.serialize_unit(),
            Value::Bool(b) => serializer.serialize_bool(*b),
            Value::I64(v) => serializer.serialize_i64(*v),
            Value::U64(v) => serializer.serialize_u64(*v),
            Value::F64(v) => serializer.serialize_f64(*v),
            Value::Str(s) => serializer.serialize_str(s),
            Value::Bytes(b) => serializer.serialize_bytes(b),
            Value::List(l) => l.serialize(serializer),
            Value::Map(m) => m.serialize(serializer),
        }
    }
}

struct ValueVisitor;

impl<'de> Visitor<'de> for ValueVisitor {
    type Value = Value;

    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("any wire value")
    }

    fn visit_bool<E>(self, v: bool) -> Result<Value, E> {
        Ok(Value::Bool(v))
    }
    fn visit_i64<E>(self, v: i64) -> Result<Value, E> {
        Ok(Value::I64(v))
    }
    fn visit_u64<E>(self, v: u64) -> Result<Value, E> {
        Ok(Value::U64(v))
    }
    fn visit_f64<E>(self, v: f64) -> Result<Value, E> {
        Ok(Value::F64(v))
    }
    fn visit_str<E>(self, v: &str) -> Result<Value, E> {
        Ok(Value::Str(v.to_owned()))
    }
    fn visit_string<E>(self, v: String) -> Result<Value, E> {
        Ok(Value::Str(v))
    }
    fn visit_bytes<E>(self, v: &[u8]) -> Result<Value, E> {
        Ok(Value::Bytes(v.to_vec()))
    }
    fn visit_byte_buf<E>(self, v: Vec<u8>) -> Result<Value, E> {
        Ok(Value::Bytes(v))
    }
    fn visit_unit<E>(self) -> Result<Value, E> {
        Ok(Value::Null)
    }
    fn visit_none<E>(self) -> Result<Value, E> {
        Ok(Value::Null)
    }

    fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Value, D::Error> {
        d.deserialize_any(ValueVisitor)
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Value, A::Error> {
        let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0).min(1024));
        while let Some(v) = seq.next_element()? {
            out.push(v);
        }
        Ok(Value::List(out))
    }

    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Value, A::Error> {
        let mut out = BTreeMap::new();
        while let Some((k, v)) = map.next_entry::<String, Value>()? {
            out.insert(k, v);
        }
        Ok(Value::Map(out))
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Value, D::Error> {
        deserializer.deserialize_any(ValueVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_builder_and_get() {
        let v = Value::map([("a", Value::from(1i64)), ("b", Value::from("x"))]);
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert!(v.get("c").is_none());
    }

    #[test]
    fn insert_into_null_promotes_to_map() {
        let mut v = Value::Null;
        v.insert("k", Value::from(2u64));
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(2));
    }

    #[test]
    #[should_panic(expected = "non-map")]
    fn insert_into_list_panics() {
        let mut v = Value::list([Value::Null]);
        v.insert("k", Value::Null);
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::I64(-1).as_u64(), None);
        assert_eq!(Value::U64(7).as_i64(), Some(7));
        assert_eq!(Value::U64(u64::MAX).as_i64(), None);
        assert_eq!(Value::I64(3).as_f64(), Some(3.0));
    }

    #[test]
    fn semantic_equality_across_int_variants() {
        assert!(Value::I64(5).semantically_eq(&Value::U64(5)));
        assert!(!Value::I64(-5).semantically_eq(&Value::U64(5)));
        assert!(Value::F64(f64::NAN).semantically_eq(&Value::F64(f64::NAN)));
        let a = Value::list([Value::I64(1), Value::U64(2)]);
        let b = Value::list([Value::U64(1), Value::I64(2)]);
        assert!(a.semantically_eq(&b));
    }

    #[test]
    fn display_is_compact() {
        let v = Value::map([("x", Value::list([Value::from(1i64), Value::Null]))]);
        assert_eq!(v.to_string(), "{\"x\": [1, null]}");
    }

    #[test]
    fn approx_size_monotone_in_content() {
        let small = Value::from("ab");
        let big = Value::from("abcdef");
        assert!(big.approx_size() > small.approx_size());
    }

    #[test]
    fn from_iterator_collects_list() {
        let v: Value = (0i64..3).collect();
        assert_eq!(v.as_list().map(|l| l.len()), Some(3));
    }
}
