//! # mar-wire
//!
//! Dynamic values and a compact, self-describing binary serde codec.
//!
//! Mobile agents migrate by value: their private data space, their rollback
//! log, and the parameters of every compensating operation have to be turned
//! into bytes, shipped, and revived on another node. This crate provides the
//! two pieces that make that possible:
//!
//! * [`Value`] — a dynamic value type used for agent data and operation
//!   parameters (the paper's "private data space" objects), and
//! * [`to_bytes`] / [`from_slice`] — a compact binary serde format used for
//!   every message and stable-storage record in the system, so that the
//!   transfer sizes reported by the experiments are real encoded sizes.
//!
//! # Examples
//!
//! ```
//! use mar_wire::{to_bytes, from_slice, Value};
//!
//! let wallet = Value::map([
//!     ("currency", Value::from("USD")),
//!     ("coins", Value::list([Value::from(5u64), Value::from(10u64)])),
//! ]);
//! let bytes = to_bytes(&wallet).unwrap();
//! let back: Value = from_slice(&bytes).unwrap();
//! assert!(back.semantically_eq(&wallet));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bytes;
mod de;
mod error;
mod fields;
pub mod frame;
mod hash;
mod ser;
mod value;
pub mod varint;

pub use bytes::Bytes;
pub use de::{from_slice, from_slice_prefix, BinDeserializer};
pub use error::{WireError, WireResult};
pub use fields::FieldCursor;
pub use hash::content_hash64;
pub use ser::{encoded_size, to_bytes, BinSerializer};
pub use value::Value;

/// Converts any serializable value into a [`Value`] by transcoding.
///
/// Structs become lists of field values (the wire format omits field names),
/// maps become [`Value::Map`]s.
///
/// # Errors
///
/// Propagates encoding errors, e.g. [`WireError::Unsupported`] for `i128`.
///
/// # Examples
///
/// ```
/// use mar_wire::{to_value, Value};
/// let v = to_value(&(1u8, "x")).unwrap();
/// assert_eq!(v.as_list().map(|l| l.len()), Some(2));
/// ```
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> WireResult<Value> {
    from_slice(&to_bytes(value)?)
}

/// Converts a [`Value`] back into a concrete type by transcoding.
///
/// # Errors
///
/// Fails if the value's shape does not match `T`.
pub fn from_value<T: serde::de::DeserializeOwned>(value: &Value) -> WireResult<T> {
    from_slice(&to_bytes(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::de::{read_seq_header, skip_value};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn value_strategy() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::I64),
            any::<u64>().prop_map(Value::U64),
            any::<f64>().prop_map(Value::F64),
            ".{0,24}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
                proptest::collection::btree_map(".{0,8}", inner, 0..6).prop_map(Value::Map),
            ]
        })
    }

    proptest! {
        #[test]
        fn value_roundtrips(v in value_strategy()) {
            let bytes = to_bytes(&v).unwrap();
            let back: Value = from_slice(&bytes).unwrap();
            prop_assert!(back.semantically_eq(&v), "{v} != {back}");
        }

        #[test]
        fn skip_value_consumes_exactly_one_encoding(v in value_strategy()) {
            let mut bytes = to_bytes(&v).unwrap();
            let own_len = bytes.len();
            bytes.extend(to_bytes(&0u8).unwrap());
            prop_assert_eq!(skip_value(&bytes).unwrap(), own_len);
        }

        #[test]
        fn skip_value_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = skip_value(&bytes);
        }

        #[test]
        fn spliced_seq_equals_direct_encoding(vs in proptest::collection::vec(value_strategy(), 0..5)) {
            // Assemble Vec<Value> out of individually encoded elements via
            // the splice API; must be byte-identical to the direct encoding.
            let direct = to_bytes(&vs).unwrap();
            let mut ser = BinSerializer::new();
            ser.begin_seq(vs.len());
            for v in &vs {
                ser.raw_value_bytes(&to_bytes(v).unwrap());
            }
            prop_assert_eq!(ser.into_bytes(), direct);
        }

        #[test]
        fn encoded_size_is_exact(v in value_strategy()) {
            prop_assert_eq!(encoded_size(&v).unwrap(), to_bytes(&v).unwrap().len());
        }

        #[test]
        fn decoding_random_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = from_slice::<Value>(&bytes);
        }
    }

    #[test]
    fn seq_header_and_skip_slice_out_struct_fields() {
        #[derive(serde::Serialize)]
        struct S {
            a: u32,
            b: Vec<String>,
            c: bool,
        }
        let s = S {
            a: 9,
            b: vec!["x".into(), "yy".into()],
            c: true,
        };
        let bytes = to_bytes(&s).unwrap();
        let (fields, mut off) = read_seq_header(&bytes).unwrap();
        assert_eq!(fields, 3);
        // Field a.
        let a_len = skip_value(&bytes[off..]).unwrap();
        assert_eq!(to_bytes(&9u32).unwrap(), bytes[off..off + a_len]);
        off += a_len;
        // Field b, sliced without decoding.
        let b_len = skip_value(&bytes[off..]).unwrap();
        assert_eq!(
            to_bytes(&vec!["x".to_owned(), "yy".to_owned()]).unwrap(),
            bytes[off..off + b_len]
        );
        off += b_len;
        // Field c ends the value exactly.
        off += skip_value(&bytes[off..]).unwrap();
        assert_eq!(off, bytes.len());
    }

    #[test]
    fn read_seq_header_rejects_non_seq_and_overflow() {
        assert!(matches!(
            read_seq_header(&to_bytes(&1u8).unwrap()),
            Err(WireError::BadTag(_))
        ));
        assert!(matches!(
            read_seq_header(&[]),
            Err(WireError::UnexpectedEof)
        ));
        // A 1000-element sequence in 3 bytes.
        assert!(matches!(
            read_seq_header(&[0x0b, 0xe8, 0x07]),
            Err(WireError::LengthOverflow(1000))
        ));
    }

    #[test]
    fn skip_value_rejects_truncation() {
        let bytes = to_bytes(&"hello").unwrap();
        assert!(skip_value(&bytes[..bytes.len() - 1]).is_err());
        assert!(matches!(skip_value(&[]), Err(WireError::UnexpectedEof)));
    }

    #[test]
    fn to_value_roundtrip() {
        let m: BTreeMap<String, u32> = [("a".to_string(), 1u32)].into_iter().collect();
        let v = to_value(&m).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let back: BTreeMap<String, u32> = from_value(&v).unwrap();
        assert_eq!(back, m);
    }
}
