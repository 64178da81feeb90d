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
    use crate::de::MAX_DEPTH;
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
        fn skip_consumes_exactly_one_encoding(v in value_strategy()) {
            let mut bytes = to_bytes(&v).unwrap();
            let own_len = bytes.len();
            bytes.extend(to_bytes(&0u8).unwrap());
            prop_assert_eq!(FieldCursor::values(&bytes, 1).skip().unwrap(), 0..own_len);
        }

        #[test]
        fn skip_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = FieldCursor::values(&bytes, 1).skip();
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
        let mut fields = FieldCursor::values(&bytes, 1);
        assert_eq!(fields.enter_seq().unwrap(), 3);
        // Field a.
        assert_eq!(to_bytes(&9u32).unwrap(), bytes[fields.skip().unwrap()]);
        // Field b, sliced without decoding.
        assert_eq!(
            to_bytes(&vec!["x".to_owned(), "yy".to_owned()]).unwrap(),
            bytes[fields.skip().unwrap()]
        );
        // Field c ends the value exactly.
        assert_eq!(fields.skip().unwrap().end, bytes.len());
        fields.finish().unwrap();
    }

    #[test]
    fn enter_seq_rejects_non_seq_and_overflow() {
        fn header(bytes: &[u8]) -> WireResult<u64> {
            FieldCursor::values(bytes, 1).enter_seq()
        }
        assert!(matches!(
            header(&to_bytes(&1u8).unwrap()),
            Err(WireError::BadTag(_))
        ));
        assert!(matches!(header(&[]), Err(WireError::UnexpectedEof)));
        // A 1000-element sequence in 3 bytes.
        assert!(matches!(
            header(&[0x0b, 0xe8, 0x07]),
            Err(WireError::LengthOverflow(1000))
        ));
    }

    #[test]
    fn skip_rejects_truncation() {
        fn skip(bytes: &[u8]) -> WireResult<std::ops::Range<usize>> {
            FieldCursor::values(bytes, 1).skip()
        }
        let bytes = to_bytes(&"hello").unwrap();
        assert!(skip(&bytes[..bytes.len() - 1]).is_err());
        assert!(matches!(skip(&[]), Err(WireError::UnexpectedEof)));
    }

    /// `depth` one-element sequences around a `Null`.
    fn nest(depth: usize) -> Vec<u8> {
        let mut bytes = [0x0b, 0x01].repeat(depth);
        bytes.push(0x00);
        bytes
    }

    #[test]
    fn nesting_at_the_limit_round_trips_and_one_past_it_is_refused() {
        let at = nest(MAX_DEPTH);
        let v: Value = from_slice(&at).unwrap();
        assert_eq!(to_bytes(&v).unwrap(), at);
        assert_eq!(
            from_slice::<Value>(&nest(MAX_DEPTH + 1)),
            Err(WireError::TooDeep)
        );
        // The typed path counts the same levels: options, then a sequence.
        type Opt4 = Option<Option<Option<Option<Vec<Value>>>>>;
        let mut typed = vec![0x0a; 4];
        typed.extend(nest(MAX_DEPTH - 4));
        from_slice::<Opt4>(&typed).unwrap();
        typed.splice(4..4, [0x0b, 0x01]);
        assert_eq!(from_slice::<Opt4>(&typed), Err(WireError::TooDeep));
    }

    /// The inputs that used to end in a stack overflow: 100,000 levels of
    /// sequence, of option, and of map, each a typed error now — and still
    /// one value to the skip walker, which keeps no frame per level.
    #[test]
    fn a_hundred_thousand_levels_are_refused_by_decode_and_passed_by_skip() {
        let mut maps = [0x0c, 0x01, 0x08, 0x00].repeat(100_000);
        maps.push(0x00);
        let mut somes = vec![0x0a; 100_000];
        somes.push(0x00);
        for deep in [nest(100_000), somes, maps] {
            assert_eq!(from_slice::<Value>(&deep), Err(WireError::TooDeep));
            let mut fields = FieldCursor::values(&deep, 1);
            assert_eq!(fields.skip().unwrap(), 0..deep.len());
            fields.finish().unwrap();
            from_slice::<serde::de::IgnoredAny>(&deep).unwrap();
        }
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
