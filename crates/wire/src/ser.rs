//! Serde serializer producing the compact binary wire format.
//!
//! The format is self-describing: every value starts with a one-byte type
//! tag. Integers use LEB128 varints (zigzag for signed), sequences and maps
//! are length-prefixed, structs are encoded as field-value sequences (field
//! names are omitted; order is the declaration order), and enum variants are
//! encoded by index.

use serde::ser::{self, Serialize};

use crate::error::{WireError, WireResult};
use crate::varint::{put_ivarint, put_uvarint};

pub(crate) const TAG_NULL: u8 = 0x00;
pub(crate) const TAG_TRUE: u8 = 0x01;
pub(crate) const TAG_FALSE: u8 = 0x02;
pub(crate) const TAG_I64: u8 = 0x03;
pub(crate) const TAG_U64: u8 = 0x04;
pub(crate) const TAG_F32: u8 = 0x05;
pub(crate) const TAG_F64: u8 = 0x06;
pub(crate) const TAG_CHAR: u8 = 0x07;
pub(crate) const TAG_STR: u8 = 0x08;
pub(crate) const TAG_BYTES: u8 = 0x09;
pub(crate) const TAG_SOME: u8 = 0x0a;
pub(crate) const TAG_SEQ: u8 = 0x0b;
pub(crate) const TAG_MAP: u8 = 0x0c;
pub(crate) const TAG_UNIT_VARIANT: u8 = 0x0d;
pub(crate) const TAG_NEWTYPE_VARIANT: u8 = 0x0e;
pub(crate) const TAG_TUPLE_VARIANT: u8 = 0x0f;
pub(crate) const TAG_STRUCT_VARIANT: u8 = 0x10;

/// Encodes `value` into a fresh byte vector.
///
/// # Errors
///
/// Returns [`WireError::Unsupported`] for types outside the wire data model
/// (`i128`/`u128`) and propagates custom serialization errors.
///
/// # Examples
///
/// ```
/// let bytes = mar_wire::to_bytes(&(1u8, "hi")).unwrap();
/// let back: (u8, String) = mar_wire::from_slice(&bytes).unwrap();
/// assert_eq!(back, (1, "hi".to_owned()));
/// ```
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> WireResult<Vec<u8>> {
    let mut ser = BinSerializer::new();
    value.serialize(&mut ser)?;
    Ok(ser.into_bytes())
}

/// Returns the number of bytes [`to_bytes`] would produce for `value`.
///
/// # Errors
///
/// Same conditions as [`to_bytes`].
pub fn encoded_size<T: Serialize + ?Sized>(value: &T) -> WireResult<usize> {
    // A full encode, thrown away: a log entry is measured this way once,
    // when it is pushed (or first asked about after a decode), and the log
    // keeps the number. A caller on a per-step path wants a number it
    // already has, not this.
    Ok(to_bytes(value)?.len())
}

/// Streaming binary serializer. Usually used through [`to_bytes`].
#[derive(Debug, Default)]
pub struct BinSerializer {
    out: Vec<u8>,
}

impl BinSerializer {
    /// Creates an empty serializer.
    pub fn new() -> Self {
        BinSerializer { out: Vec::new() }
    }

    /// Creates an empty serializer with `cap` bytes of reserved output.
    pub fn with_capacity(cap: usize) -> Self {
        BinSerializer {
            out: Vec::with_capacity(cap),
        }
    }

    /// Consumes the serializer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    // ----- splice API -------------------------------------------------------
    //
    // Incremental encoders (`mar-core`'s resident-record splice path) build
    // a value out of already-encoded fragments plus freshly serialized
    // parts. These methods expose exactly the framing the serde impls above
    // emit, so a hand-assembled value is byte-identical to a `to_bytes` of
    // the equivalent in-memory value.

    /// Writes the header of a struct/tuple with `fields` fields — identical
    /// to what serializing a struct of that arity emits. The caller must
    /// follow with exactly `fields` values ([`BinSerializer::value`] or
    /// [`BinSerializer::raw_value_bytes`]).
    pub fn begin_struct(&mut self, fields: usize) {
        self.begin_seq(fields);
    }

    /// Writes the header of a sequence with `len` elements (structs, tuples
    /// and sequences share the `TAG_SEQ` framing).
    pub fn begin_seq(&mut self, len: usize) {
        self.out.push(TAG_SEQ);
        put_uvarint(&mut self.out, len as u64);
    }

    /// Appends already-encoded wire bytes verbatim: the encoding of zero or
    /// more complete values, e.g. a retained run of sequence elements. The
    /// caller is responsible for the bytes being valid at this position.
    pub fn raw_value_bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Serializes one value into the output at the current position.
    ///
    /// # Errors
    ///
    /// Same conditions as [`to_bytes`].
    pub fn value<T: Serialize + ?Sized>(&mut self, v: &T) -> WireResult<()> {
        v.serialize(self)
    }

    fn put_str(&mut self, s: &str) {
        self.out.push(TAG_STR);
        put_uvarint(&mut self.out, s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }
}

impl<'a> ser::Serializer for &'a mut BinSerializer {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = SeqSer<'a>;
    type SerializeTuple = SeqSer<'a>;
    type SerializeTupleStruct = SeqSer<'a>;
    type SerializeTupleVariant = SeqSer<'a>;
    type SerializeMap = MapSer<'a>;
    type SerializeStruct = SeqSer<'a>;
    type SerializeStructVariant = SeqSer<'a>;

    fn serialize_bool(self, v: bool) -> WireResult<()> {
        self.out.push(if v { TAG_TRUE } else { TAG_FALSE });
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> WireResult<()> {
        self.serialize_i64(v.into())
    }
    fn serialize_i16(self, v: i16) -> WireResult<()> {
        self.serialize_i64(v.into())
    }
    fn serialize_i32(self, v: i32) -> WireResult<()> {
        self.serialize_i64(v.into())
    }

    fn serialize_i64(self, v: i64) -> WireResult<()> {
        self.out.push(TAG_I64);
        put_ivarint(&mut self.out, v);
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> WireResult<()> {
        self.serialize_u64(v.into())
    }
    fn serialize_u16(self, v: u16) -> WireResult<()> {
        self.serialize_u64(v.into())
    }
    fn serialize_u32(self, v: u32) -> WireResult<()> {
        self.serialize_u64(v.into())
    }

    fn serialize_u64(self, v: u64) -> WireResult<()> {
        self.out.push(TAG_U64);
        put_uvarint(&mut self.out, v);
        Ok(())
    }

    fn serialize_i128(self, _: i128) -> WireResult<()> {
        Err(WireError::Unsupported("i128"))
    }
    fn serialize_u128(self, _: u128) -> WireResult<()> {
        Err(WireError::Unsupported("u128"))
    }

    fn serialize_f32(self, v: f32) -> WireResult<()> {
        self.out.push(TAG_F32);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> WireResult<()> {
        self.out.push(TAG_F64);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> WireResult<()> {
        self.out.push(TAG_CHAR);
        put_uvarint(&mut self.out, v as u64);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> WireResult<()> {
        self.put_str(v);
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> WireResult<()> {
        self.out.push(TAG_BYTES);
        put_uvarint(&mut self.out, v.len() as u64);
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> WireResult<()> {
        self.out.push(TAG_NULL);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> WireResult<()> {
        self.out.push(TAG_SOME);
        value.serialize(self)
    }

    fn serialize_unit(self) -> WireResult<()> {
        self.out.push(TAG_NULL);
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> WireResult<()> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> WireResult<()> {
        self.out.push(TAG_UNIT_VARIANT);
        put_uvarint(&mut self.out, variant_index.into());
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> WireResult<()> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> WireResult<()> {
        self.out.push(TAG_NEWTYPE_VARIANT);
        put_uvarint(&mut self.out, variant_index.into());
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> WireResult<SeqSer<'a>> {
        match len {
            Some(n) => {
                self.out.push(TAG_SEQ);
                put_uvarint(&mut self.out, n as u64);
                Ok(SeqSer::Direct(self))
            }
            None => Ok(SeqSer::Buffered {
                parent: self,
                buf: BinSerializer::new(),
                count: 0,
            }),
        }
    }

    fn serialize_tuple(self, len: usize) -> WireResult<SeqSer<'a>> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> WireResult<SeqSer<'a>> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        len: usize,
    ) -> WireResult<SeqSer<'a>> {
        self.out.push(TAG_TUPLE_VARIANT);
        put_uvarint(&mut self.out, variant_index.into());
        put_uvarint(&mut self.out, len as u64);
        Ok(SeqSer::Direct(self))
    }

    fn serialize_map(self, len: Option<usize>) -> WireResult<MapSer<'a>> {
        match len {
            Some(n) => {
                self.out.push(TAG_MAP);
                put_uvarint(&mut self.out, n as u64);
                Ok(MapSer::Direct(self))
            }
            None => Ok(MapSer::Buffered {
                parent: self,
                buf: BinSerializer::new(),
                count: 0,
            }),
        }
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> WireResult<SeqSer<'a>> {
        self.serialize_seq(Some(len))
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        len: usize,
    ) -> WireResult<SeqSer<'a>> {
        self.out.push(TAG_STRUCT_VARIANT);
        put_uvarint(&mut self.out, variant_index.into());
        put_uvarint(&mut self.out, len as u64);
        Ok(SeqSer::Direct(self))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Sequence/tuple/struct serializer. Buffers when the length is unknown up
/// front so the length prefix can be written first.
#[derive(Debug)]
pub enum SeqSer<'a> {
    /// Length was known; elements stream straight into the output.
    Direct(&'a mut BinSerializer),
    /// Length unknown; elements are buffered and flushed on `end`.
    Buffered {
        /// The serializer the buffered elements are flushed to.
        parent: &'a mut BinSerializer,
        /// Holds the encoded elements.
        buf: BinSerializer,
        /// Number of elements buffered so far.
        count: u64,
    },
}

impl SeqSer<'_> {
    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> WireResult<()> {
        match self {
            SeqSer::Direct(ser) => value.serialize(&mut **ser),
            SeqSer::Buffered { buf, count, .. } => {
                value.serialize(&mut *buf)?;
                *count += 1;
                Ok(())
            }
        }
    }

    fn finish(self) -> WireResult<()> {
        if let SeqSer::Buffered { parent, buf, count } = self {
            parent.out.push(TAG_SEQ);
            put_uvarint(&mut parent.out, count);
            parent.out.extend_from_slice(&buf.out);
        }
        Ok(())
    }
}

impl ser::SerializeSeq for SeqSer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> WireResult<()> {
        self.element(value)
    }

    fn end(self) -> WireResult<()> {
        self.finish()
    }
}

impl ser::SerializeTuple for SeqSer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> WireResult<()> {
        self.element(value)
    }

    fn end(self) -> WireResult<()> {
        self.finish()
    }
}

impl ser::SerializeTupleStruct for SeqSer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> WireResult<()> {
        self.element(value)
    }

    fn end(self) -> WireResult<()> {
        self.finish()
    }
}

impl ser::SerializeTupleVariant for SeqSer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> WireResult<()> {
        self.element(value)
    }

    fn end(self) -> WireResult<()> {
        self.finish()
    }
}

impl ser::SerializeStruct for SeqSer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> WireResult<()> {
        self.element(value)
    }

    fn end(self) -> WireResult<()> {
        self.finish()
    }
}

impl ser::SerializeStructVariant for SeqSer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> WireResult<()> {
        self.element(value)
    }

    fn end(self) -> WireResult<()> {
        self.finish()
    }
}

/// Map serializer; see [`SeqSer`] for the buffering rationale.
#[derive(Debug)]
pub enum MapSer<'a> {
    /// Length was known up front.
    Direct(&'a mut BinSerializer),
    /// Length unknown; entries buffered until `end`.
    Buffered {
        /// The serializer the buffered entries are flushed to.
        parent: &'a mut BinSerializer,
        /// Holds the encoded entries.
        buf: BinSerializer,
        /// Number of entries buffered so far.
        count: u64,
    },
}

impl ser::SerializeMap for MapSer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> WireResult<()> {
        match self {
            MapSer::Direct(ser) => key.serialize(&mut **ser),
            MapSer::Buffered { buf, count, .. } => {
                key.serialize(&mut *buf)?;
                *count += 1;
                Ok(())
            }
        }
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> WireResult<()> {
        match self {
            MapSer::Direct(ser) => value.serialize(&mut **ser),
            MapSer::Buffered { buf, .. } => value.serialize(&mut *buf),
        }
    }

    fn end(self) -> WireResult<()> {
        if let MapSer::Buffered { parent, buf, count } = self {
            parent.out.push(TAG_MAP);
            put_uvarint(&mut parent.out, count);
            parent.out.extend_from_slice(&buf.out);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_have_expected_tags() {
        assert_eq!(to_bytes(&true).unwrap(), vec![TAG_TRUE]);
        assert_eq!(to_bytes(&false).unwrap(), vec![TAG_FALSE]);
        assert_eq!(to_bytes(&()).unwrap(), vec![TAG_NULL]);
        assert_eq!(to_bytes(&0u64).unwrap(), vec![TAG_U64, 0]);
        assert_eq!(to_bytes(&-1i32).unwrap(), vec![TAG_I64, 1]);
    }

    #[test]
    fn string_layout() {
        assert_eq!(to_bytes("ab").unwrap(), vec![TAG_STR, 2, b'a', b'b']);
    }

    #[test]
    fn unknown_length_iterator_buffers() {
        struct Stream;
        impl Serialize for Stream {
            fn serialize<S: ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                use serde::ser::SerializeSeq;
                let mut seq = s.serialize_seq(None)?;
                for i in 0..3u64 {
                    seq.serialize_element(&i)?;
                }
                seq.end()
            }
        }
        let direct = to_bytes(&vec![0u64, 1, 2]).unwrap();
        let streamed = to_bytes(&Stream).unwrap();
        assert_eq!(direct, streamed);
    }

    #[test]
    fn i128_is_unsupported() {
        assert_eq!(to_bytes(&1i128), Err(WireError::Unsupported("i128")));
    }

    #[test]
    fn encoded_size_matches_bytes() {
        let v = ("hello", vec![1u8, 2, 3], Some(42u32));
        assert_eq!(encoded_size(&v).unwrap(), to_bytes(&v).unwrap().len());
    }
}
