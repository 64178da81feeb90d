//! Serde deserializer for the compact binary wire format.

use serde::de::{self, DeserializeSeed, IntoDeserializer, Visitor};
use serde::Deserialize;

use crate::error::{WireError, WireResult};
use crate::ser::{
    TAG_BYTES, TAG_CHAR, TAG_F32, TAG_F64, TAG_FALSE, TAG_I64, TAG_MAP, TAG_NEWTYPE_VARIANT,
    TAG_NULL, TAG_SEQ, TAG_SOME, TAG_STR, TAG_STRUCT_VARIANT, TAG_TRUE, TAG_TUPLE_VARIANT, TAG_U64,
    TAG_UNIT_VARIANT,
};
use crate::varint::{get_ivarint, get_uvarint};

/// Decodes a value of type `T` from `bytes`, requiring the whole input to be
/// consumed.
///
/// # Errors
///
/// Returns [`WireError::TrailingBytes`] if input remains after the value, and
/// decoding errors for malformed input.
///
/// # Examples
///
/// ```
/// let bytes = mar_wire::to_bytes(&vec![1u32, 2, 3]).unwrap();
/// let v: Vec<u32> = mar_wire::from_slice(&bytes).unwrap();
/// assert_eq!(v, [1, 2, 3]);
/// ```
pub fn from_slice<'de, T: Deserialize<'de>>(bytes: &'de [u8]) -> WireResult<T> {
    let mut de = BinDeserializer::new(bytes);
    let value = T::deserialize(&mut de)?;
    let rest = de.remaining();
    if rest != 0 {
        return Err(WireError::TrailingBytes(rest));
    }
    Ok(value)
}

/// Decodes a value from the front of `bytes`, returning the value and the
/// number of bytes consumed. Useful for streams of concatenated values.
///
/// # Errors
///
/// Decoding errors for malformed input.
pub fn from_slice_prefix<'de, T: Deserialize<'de>>(bytes: &'de [u8]) -> WireResult<(T, usize)> {
    let mut de = BinDeserializer::new(bytes);
    let value = T::deserialize(&mut de)?;
    Ok((value, de.pos))
}

/// How deep a decoded value may nest (options, sequences, maps, struct and
/// tuple bodies, data-carrying variants). The workspace's own types stay
/// under 16; the bound is what keeps hostile nesting off the call stack.
pub(crate) const MAX_DEPTH: usize = 128;

/// Streaming binary deserializer, and the crate's one reader of the
/// encoding: [`from_slice`], [`crate::FieldCursor`] and the skip walker all
/// move this cursor, so a declared length is checked against the input in
/// one place (`take_len`) and nesting is bounded in one place (`nested`).
#[derive(Debug)]
pub struct BinDeserializer<'de> {
    buf: &'de [u8],
    pos: usize,
    /// Containers open around the value being decoded.
    depth: usize,
    /// Elements that sequences may still tell their visitors to reserve.
    reserve_budget: usize,
}

impl<'de> BinDeserializer<'de> {
    /// Creates a deserializer reading from `buf`.
    pub fn new(buf: &'de [u8]) -> Self {
        BinDeserializer {
            buf,
            pos: 0,
            depth: 0,
            // Every element takes at least a byte, so well-formed input
            // never runs out; nested headers that each claim the rest of the
            // input share one allowance instead of getting one per level.
            reserve_budget: buf.len(),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Offset of the next unread byte.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    fn peek_tag(&self) -> WireResult<u8> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or(WireError::UnexpectedEof)
    }

    fn take_tag(&mut self) -> WireResult<u8> {
        let t = self.peek_tag()?;
        self.pos += 1;
        Ok(t)
    }

    /// The next `n` bytes: a fixed width, or a length `take_len` checked.
    fn take_bytes(&mut self, n: usize) -> WireResult<&'de [u8]> {
        let s = self.buf[self.pos..]
            .get(..n)
            .ok_or(WireError::UnexpectedEof)?;
        self.pos += n;
        Ok(s)
    }

    fn take_uvarint(&mut self) -> WireResult<u64> {
        get_uvarint(self.buf, &mut self.pos)
    }

    fn take_ivarint(&mut self) -> WireResult<i64> {
        get_ivarint(self.buf, &mut self.pos)
    }

    fn take_len(&mut self) -> WireResult<usize> {
        let n = self.take_uvarint()?;
        if n > self.remaining() as u64 {
            // Every element needs at least one byte, so a length beyond the
            // remaining byte count is necessarily corrupt.
            return Err(WireError::LengthOverflow(n));
        }
        Ok(n as usize)
    }

    /// Runs `body` one level down: every descent into a value that can hold
    /// another goes through here, so recursion is bounded by [`MAX_DEPTH`]
    /// and not by what the input declares.
    fn nested<T>(&mut self, body: impl FnOnce(&mut Self) -> WireResult<T>) -> WireResult<T> {
        if self.depth == MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        out
    }

    /// A `SEQ` tag and its checked element count — the framing sequences,
    /// structs and tuples share.
    pub(crate) fn seq_header(&mut self) -> WireResult<usize> {
        match self.take_tag()? {
            TAG_SEQ => self.take_len(),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// The elements of a sequence, after its tag.
    fn visit_elements<V: Visitor<'de>>(&mut self, visitor: V) -> WireResult<V::Value> {
        self.nested(|de| {
            let left = de.take_len()?;
            let reserve = left.min(de.reserve_budget);
            de.reserve_budget -= reserve;
            visitor.visit_seq(Counted { de, left, reserve })
        })
    }

    /// The entries of a map, after its tag.
    fn visit_entries<V: Visitor<'de>>(&mut self, visitor: V) -> WireResult<V::Value> {
        self.nested(|de| {
            let left = de.take_len()?;
            visitor.visit_map(Counted {
                de,
                left,
                reserve: 0,
            })
        })
    }

    /// The body of a struct, a tuple or a variant, after its tag. Its arity
    /// belongs to the type, not to the data, so the header must declare
    /// exactly the fields the visitor reads: a visitor that returns with
    /// declared fields unread was handed an over-declared header.
    fn visit_fields<V: Visitor<'de>>(&mut self, visitor: V) -> WireResult<V::Value> {
        self.nested(|de| {
            let n = de.take_len()?;
            let mut fields = Counted {
                de,
                left: n,
                reserve: 0,
            };
            let value = visitor.visit_seq(&mut fields)?;
            match fields.left {
                0 => Ok(value),
                left => Err(WireError::Message(format!(
                    "{left} of {n} declared fields left unread"
                ))),
            }
        })
    }

    /// The variant index of the value at the cursor when it is an enum
    /// variant, without moving; `None` for anything else, input that ends
    /// inside the index included.
    pub(crate) fn peek_variant(&self) -> Option<u32> {
        match self.peek_tag().ok()? {
            TAG_UNIT_VARIANT | TAG_NEWTYPE_VARIANT | TAG_TUPLE_VARIANT | TAG_STRUCT_VARIANT => {
                let mut pos = self.pos + 1;
                u32::try_from(get_uvarint(self.buf, &mut pos).ok()?).ok()
            }
            _ => None,
        }
    }

    /// Passes over one value without building anything: no allocation, no
    /// UTF-8 validation. Tags are checked, every declared length is checked
    /// by `take_len`, truncated input is an error. A counter of values still
    /// owed stands in for recursion, so this walk has no depth to bound.
    pub(crate) fn skip(&mut self) -> WireResult<()> {
        let mut pending: u64 = 1;
        while pending > 0 {
            pending -= 1;
            // Each count added below is at most the bytes left, and every
            // value owed costs a byte or ends the walk: no overflow, and
            // time linear in the input.
            match self.take_tag()? {
                TAG_NULL | TAG_TRUE | TAG_FALSE => {}
                TAG_I64 => _ = self.take_ivarint()?,
                TAG_U64 | TAG_CHAR | TAG_UNIT_VARIANT => _ = self.take_uvarint()?,
                TAG_F32 => _ = self.take_bytes(4)?,
                TAG_F64 => _ = self.take_bytes(8)?,
                TAG_STR | TAG_BYTES => {
                    let n = self.take_len()?;
                    self.take_bytes(n)?;
                }
                TAG_SOME => pending += 1,
                TAG_NEWTYPE_VARIANT => {
                    self.take_uvarint()?;
                    pending += 1;
                }
                TAG_SEQ => pending += self.take_len()? as u64,
                // A key and a value per entry.
                TAG_MAP => pending += 2 * self.take_len()? as u64,
                TAG_TUPLE_VARIANT | TAG_STRUCT_VARIANT => {
                    self.take_uvarint()?;
                    pending += self.take_len()? as u64;
                }
                other => return Err(WireError::BadTag(other)),
            }
        }
        Ok(())
    }

    fn take_str(&mut self) -> WireResult<&'de str> {
        let n = self.take_len()?;
        std::str::from_utf8(self.take_bytes(n)?).map_err(|_| WireError::InvalidUtf8)
    }

    fn take_f32(&mut self) -> WireResult<f32> {
        let b = self.take_bytes(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_f64(&mut self) -> WireResult<f64> {
        let b = self.take_bytes(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn take_integer_u64(&mut self) -> WireResult<u64> {
        match self.take_tag()? {
            TAG_U64 => self.take_uvarint(),
            TAG_I64 => {
                let v = self.take_ivarint()?;
                u64::try_from(v).map_err(|_| {
                    de::Error::custom(format!("negative value {v} where unsigned expected"))
                })
            }
            t => Err(WireError::BadTag(t)),
        }
    }

    fn take_integer_i64(&mut self) -> WireResult<i64> {
        match self.take_tag()? {
            TAG_I64 => self.take_ivarint(),
            TAG_U64 => {
                let v = self.take_uvarint()?;
                i64::try_from(v)
                    .map_err(|_| de::Error::custom(format!("value {v} exceeds i64 range")))
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<'de> de::Deserializer<'de> for &mut BinDeserializer<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_NULL => visitor.visit_unit(),
            TAG_TRUE => visitor.visit_bool(true),
            TAG_FALSE => visitor.visit_bool(false),
            TAG_I64 => visitor.visit_i64(self.take_ivarint()?),
            TAG_U64 => visitor.visit_u64(self.take_uvarint()?),
            TAG_F32 => visitor.visit_f32(self.take_f32()?),
            TAG_F64 => visitor.visit_f64(self.take_f64()?),
            TAG_CHAR => {
                let c = self.take_uvarint()?;
                let c32 = u32::try_from(c).map_err(|_| WireError::InvalidChar(u32::MAX))?;
                visitor.visit_char(char::from_u32(c32).ok_or(WireError::InvalidChar(c32))?)
            }
            TAG_STR => visitor.visit_borrowed_str(self.take_str()?),
            TAG_BYTES => {
                let n = self.take_len()?;
                visitor.visit_borrowed_bytes(self.take_bytes(n)?)
            }
            TAG_SOME => self.nested(|de| visitor.visit_some(de)),
            TAG_SEQ => self.visit_elements(visitor),
            TAG_MAP => self.visit_entries(visitor),
            t @ (TAG_UNIT_VARIANT | TAG_NEWTYPE_VARIANT | TAG_TUPLE_VARIANT
            | TAG_STRUCT_VARIANT) => {
                // Variants are not self-describing (the enum type is needed);
                // `deserialize_enum` must be used instead.
                Err(WireError::BadTag(t))
            }
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_TRUE => visitor.visit_bool(true),
            TAG_FALSE => visitor.visit_bool(false),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        visitor.visit_i64(self.take_integer_i64()?)
    }
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        visitor.visit_i64(self.take_integer_i64()?)
    }
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        visitor.visit_i64(self.take_integer_i64()?)
    }
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        visitor.visit_i64(self.take_integer_i64()?)
    }

    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        visitor.visit_u64(self.take_integer_u64()?)
    }
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        visitor.visit_u64(self.take_integer_u64()?)
    }
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        visitor.visit_u64(self.take_integer_u64()?)
    }
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        visitor.visit_u64(self.take_integer_u64()?)
    }

    fn deserialize_i128<V: Visitor<'de>>(self, _: V) -> WireResult<V::Value> {
        Err(WireError::Unsupported("i128"))
    }
    fn deserialize_u128<V: Visitor<'de>>(self, _: V) -> WireResult<V::Value> {
        Err(WireError::Unsupported("u128"))
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_F32 => visitor.visit_f32(self.take_f32()?),
            TAG_F64 => visitor.visit_f64(self.take_f64()?),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_F64 => visitor.visit_f64(self.take_f64()?),
            TAG_F32 => visitor.visit_f32(self.take_f32()?),
            TAG_I64 => visitor.visit_i64(self.take_ivarint()?),
            TAG_U64 => visitor.visit_u64(self.take_uvarint()?),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_CHAR => {
                let c = self.take_uvarint()?;
                let c32 = u32::try_from(c).map_err(|_| WireError::InvalidChar(u32::MAX))?;
                visitor.visit_char(char::from_u32(c32).ok_or(WireError::InvalidChar(c32))?)
            }
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_STR => visitor.visit_borrowed_str(self.take_str()?),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_BYTES => {
                let n = self.take_len()?;
                visitor.visit_borrowed_bytes(self.take_bytes(n)?)
            }
            TAG_STR => visitor.visit_borrowed_str(self.take_str()?),
            TAG_SEQ => self.visit_elements(visitor),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.peek_tag()? {
            TAG_NULL => {
                self.pos += 1;
                visitor.visit_none()
            }
            TAG_SOME => {
                self.pos += 1;
                self.nested(|de| visitor.visit_some(de))
            }
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_NULL => visitor.visit_unit(),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> WireResult<V::Value> {
        self.deserialize_unit(visitor)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> WireResult<V::Value> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_SEQ => self.visit_elements(visitor),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_tuple<V: Visitor<'de>>(self, _len: usize, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_SEQ => self.visit_fields(visitor),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> WireResult<V::Value> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        match self.take_tag()? {
            TAG_MAP => self.visit_entries(visitor),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> WireResult<V::Value> {
        // Structs are encoded as value sequences in declaration order.
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> WireResult<V::Value> {
        let tag = self.take_tag()?;
        match tag {
            TAG_UNIT_VARIANT | TAG_NEWTYPE_VARIANT | TAG_TUPLE_VARIANT | TAG_STRUCT_VARIANT => {
                let index = self.take_uvarint()?;
                let index = u32::try_from(index).map_err(|_| WireError::LengthOverflow(index))?;
                visitor.visit_enum(EnumAcc {
                    de: self,
                    tag,
                    index,
                })
            }
            t => Err(WireError::BadTag(t)),
        }
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        // Identifiers only appear for map-encoded structs, which this format
        // never produces; accept a string for forward compatibility.
        self.deserialize_str(visitor)
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> WireResult<V::Value> {
        self.skip()?;
        visitor.visit_unit()
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

/// The elements of a sequence or struct body, or the entries of a map, as
/// many as its header declared.
struct Counted<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    left: usize,
    /// What a visitor may reserve up front: `left`, drawn from the
    /// deserializer's budget when the header was read.
    reserve: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> WireResult<Option<T::Value>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.reserve)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;

    fn next_key_seed<K: DeserializeSeed<'de>>(&mut self, seed: K) -> WireResult<Option<K::Value>> {
        de::SeqAccess::next_element_seed(self, seed)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> WireResult<V::Value> {
        seed.deserialize(&mut *self.de)
    }
}

struct EnumAcc<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    tag: u8,
    index: u32,
}

impl<'de> de::EnumAccess<'de> for EnumAcc<'_, 'de> {
    type Error = WireError;
    type Variant = Self;

    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> WireResult<(V::Value, Self)> {
        let index = self.index;
        let v = seed.deserialize(index.into_deserializer())?;
        Ok((v, self))
    }
}

impl<'de> de::VariantAccess<'de> for EnumAcc<'_, 'de> {
    type Error = WireError;

    fn unit_variant(self) -> WireResult<()> {
        if self.tag == TAG_UNIT_VARIANT {
            Ok(())
        } else {
            Err(WireError::BadTag(self.tag))
        }
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> WireResult<T::Value> {
        if self.tag == TAG_NEWTYPE_VARIANT {
            self.de.nested(|de| seed.deserialize(de))
        } else {
            Err(WireError::BadTag(self.tag))
        }
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> WireResult<V::Value> {
        if self.tag == TAG_TUPLE_VARIANT {
            self.de.visit_fields(visitor)
        } else {
            Err(WireError::BadTag(self.tag))
        }
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> WireResult<V::Value> {
        if self.tag == TAG_STRUCT_VARIANT {
            self.de.visit_fields(visitor)
        } else {
            Err(WireError::BadTag(self.tag))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ser::to_bytes;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Sample {
        Unit,
        New(u32),
        Tup(u8, i64),
        Struct { a: String, b: Option<bool> },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Nested {
        name: String,
        tags: Vec<Sample>,
        data: std::collections::BTreeMap<String, u64>,
        blob: Vec<u8>,
    }

    fn roundtrip<T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).unwrap();
        let back: T = from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn enum_variants_roundtrip() {
        roundtrip(Sample::Unit);
        roundtrip(Sample::New(7));
        roundtrip(Sample::Tup(1, -9));
        roundtrip(Sample::Struct {
            a: "x".into(),
            b: Some(false),
        });
        roundtrip(Sample::Struct {
            a: String::new(),
            b: None,
        });
    }

    #[test]
    fn nested_struct_roundtrips() {
        let v = Nested {
            name: "agent-1".into(),
            tags: vec![Sample::Unit, Sample::New(2)],
            data: [("k".to_string(), 9u64)].into_iter().collect(),
            blob: vec![0, 255, 3],
        };
        roundtrip(v);
    }

    #[test]
    fn option_roundtrips() {
        roundtrip::<Option<u8>>(None);
        roundtrip(Some(3u8));
        roundtrip(Some(Some(-1i8)));
        roundtrip::<Option<Option<i8>>>(Some(None));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.push(0);
        assert_eq!(from_slice::<u8>(&bytes), Err(WireError::TrailingBytes(1)));
    }

    /// A struct, tuple or variant body that declares one field more (or
    /// one fewer) than the values that follow is refused, exact values or
    /// not; a plain sequence's count is data and stays free.
    #[test]
    fn a_header_of_another_arity_is_rejected() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Pair(u8, i64);
        fn refused<T: Serialize + for<'de> Deserialize<'de> + std::fmt::Debug>(
            v: T,
            len_at: usize,
        ) {
            let bytes = to_bytes(&v).unwrap();
            from_slice::<T>(&bytes).unwrap();
            for delta in [-1i8, 1] {
                let mut wrong = bytes.clone();
                wrong[len_at] = wrong[len_at].wrapping_add_signed(delta);
                assert!(
                    matches!(from_slice::<T>(&wrong), Err(WireError::Message(_))),
                    "{v:?} re-headed by {delta}: {:?}",
                    from_slice::<T>(&wrong)
                );
            }
        }
        // `SEQ len …` for structs and tuples, `VARIANT index len …` for variants.
        refused((7u8, -9i64), 1);
        refused(Pair(7, -9), 1);
        refused(Sample::Tup(1, -9), 2);
        refused(
            Sample::Struct {
                a: "x".into(),
                b: Some(false),
            },
            2,
        );
        let nested = Nested {
            name: "agent-1".into(),
            tags: vec![Sample::Unit, Sample::New(2)],
            data: [("k".to_string(), 9u64)].into_iter().collect(),
            blob: vec![0, 255, 3],
        };
        refused(nested, 1);
    }

    #[test]
    fn prefix_decoding_reports_consumed() {
        let mut bytes = to_bytes(&"ab").unwrap();
        let n = bytes.len();
        bytes.extend(to_bytes(&7u8).unwrap());
        let (s, used): (String, usize) = from_slice_prefix(&bytes).unwrap();
        assert_eq!((s.as_str(), used), ("ab", n));
        let (v, _): (u8, usize) = from_slice_prefix(&bytes[used..]).unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn corrupt_length_detected() {
        // A sequence claiming 1000 elements in a 3-byte buffer.
        let bytes = [crate::ser::TAG_SEQ, 0xe8, 0x07];
        assert!(matches!(
            from_slice::<Vec<u8>>(&bytes),
            Err(WireError::LengthOverflow(1000))
        ));
    }

    #[test]
    fn wrong_tag_reports_bad_tag() {
        let bytes = to_bytes(&true).unwrap();
        assert!(matches!(
            from_slice::<String>(&bytes),
            Err(WireError::BadTag(_))
        ));
    }

    #[test]
    fn ignored_any_skips_complex_values() {
        #[derive(Debug, PartialEq, Serialize)]
        struct Wide {
            a: u8,
            b: Vec<String>,
            c: u8,
        }
        // Decode as a tuple that ignores the middle field.
        #[derive(Debug, PartialEq, Deserialize)]
        struct Narrow(u8, serde::de::IgnoredAny, u8);
        let bytes = to_bytes(&Wide {
            a: 1,
            b: vec!["x".into(), "y".into()],
            c: 2,
        })
        .unwrap();
        let narrow: Narrow = from_slice(&bytes).unwrap();
        assert_eq!((narrow.0, narrow.2), (1, 2));
    }

    #[test]
    fn borrowed_str_zero_copy() {
        let bytes = to_bytes(&"borrowed").unwrap();
        let s: &str = from_slice(&bytes).unwrap();
        assert_eq!(s, "borrowed");
    }

    #[test]
    fn char_roundtrip_and_invalid() {
        roundtrip('µ');
        roundtrip('\u{10FFFF}');
        // 0xD800 is a surrogate, invalid as char.
        let bytes = vec![crate::ser::TAG_CHAR, 0x80, 0xb0, 0x03];
        assert!(matches!(
            from_slice::<char>(&bytes),
            Err(WireError::InvalidChar(0xd800))
        ));
    }
}
