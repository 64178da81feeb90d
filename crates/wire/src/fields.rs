//! A positional cursor over the fields of an encoded struct.

use std::ops::Range;

use serde::Deserialize;

use crate::de::BinDeserializer;
use crate::error::{WireError, WireResult};

/// Reads the fields of an encoded struct (or tuple, or sequence — they share
/// one framing) in wire order, each one either decoded or passed over, so a
/// reader that needs a prefix stops there and one that needs a field's raw
/// bytes gets its span. It holds the crate's one deserializer and moves it
/// field by field, so every declared length is checked against the input
/// before it is believed and a decoded field nests no deeper than any decoded
/// value may; nothing is allocated besides what a decoded field's own type
/// allocates. After an error the cursor is spent.
///
/// A struct nested in a field is read through the same cursor:
/// [`FieldCursor::enter`] consumes its header and its fields become the next
/// ones read.
///
/// # Examples
///
/// ```
/// use mar_wire::{to_bytes, FieldCursor};
///
/// let bytes = to_bytes(&(7u32, "skipped", (true, 9u8))).unwrap();
/// let mut c = FieldCursor::open(&bytes, 3).unwrap();
/// assert_eq!(c.next::<u32>().unwrap(), 7);
/// let span = c.skip().unwrap();
/// assert_eq!(bytes[span], to_bytes("skipped").unwrap()[..]);
/// c.enter(2).unwrap();
/// assert!(c.next::<bool>().unwrap());
/// assert_eq!(c.next::<u8>().unwrap(), 9);
/// c.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct FieldCursor<'de> {
    de: BinDeserializer<'de>,
    /// Values still unread in the structs entered so far.
    pending: u64,
}

impl<'de> FieldCursor<'de> {
    /// A cursor over `count` values encoded back to back, without a header.
    pub fn values(bytes: &'de [u8], count: u64) -> Self {
        FieldCursor {
            de: BinDeserializer::new(bytes),
            pending: count,
        }
    }

    /// Opens the struct at the start of `bytes`.
    ///
    /// # Errors
    ///
    /// As [`FieldCursor::enter`].
    pub fn open(bytes: &'de [u8], arity: u64) -> WireResult<Self> {
        let mut cursor = FieldCursor::values(bytes, 1);
        cursor.enter(arity)?;
        Ok(cursor)
    }

    /// Enters the struct that is the next field.
    ///
    /// # Errors
    ///
    /// Framing errors, and [`WireError::Message`] for a struct that does not
    /// declare exactly `arity` fields.
    pub fn enter(&mut self, arity: u64) -> WireResult<()> {
        match self.enter_seq()? {
            n if n == arity => Ok(()),
            n => Err(WireError::Message(format!(
                "struct has {n} fields, expected {arity}"
            ))),
        }
    }

    /// Enters the sequence that is the next field and returns how many
    /// elements it declares.
    ///
    /// # Errors
    ///
    /// [`WireError::BadTag`] for a field that is not a sequence, and
    /// truncation errors.
    pub fn enter_seq(&mut self) -> WireResult<u64> {
        self.take()?;
        let n = self.de.seq_header()? as u64;
        self.pending = self.pending.saturating_add(n);
        Ok(n)
    }

    /// Decodes the next field.
    ///
    /// # Errors
    ///
    /// Decoding errors for a field that is not a `T`.
    #[allow(clippy::should_implement_trait)]
    pub fn next<T: Deserialize<'de>>(&mut self) -> WireResult<T> {
        self.take()?;
        T::deserialize(&mut self.de)
    }

    /// Passes over the next field and returns the bytes it occupies, as a
    /// range of the cursor's input.
    ///
    /// # Errors
    ///
    /// [`WireError::BadTag`] and truncation errors describing the first
    /// framing violation; nothing is allocated and no string is validated.
    pub fn skip(&mut self) -> WireResult<Range<usize>> {
        self.take()?;
        let start = self.de.position();
        self.de.skip()?;
        Ok(start..self.de.position())
    }

    /// Which variant of its enum the next field is, by index in declaration
    /// order, without reading it — what a walk that [skips](Self::skip) a
    /// sequence of enum values can tell apart without decoding one. `None`
    /// for a field that is not an enum variant (or is cut short inside the
    /// index, or is not there): the read that follows reports what is wrong
    /// with it.
    pub fn peek_variant(&self) -> Option<u32> {
        match self.pending {
            0 => None,
            _ => self.de.peek_variant(),
        }
    }

    /// Offset of the next unread byte in the cursor's input.
    pub fn position(&self) -> usize {
        self.de.position()
    }

    /// Fields not yet read.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Ends the walk: every field was read and the input ends with the last.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] for input left over, and
    /// [`WireError::Message`] for fields left unread.
    pub fn finish(self) -> WireResult<()> {
        match (self.pending, self.de.remaining()) {
            (0, 0) => Ok(()),
            (0, rest) => Err(WireError::TrailingBytes(rest)),
            (left, _) => Err(WireError::Message(format!("{left} fields left unread"))),
        }
    }

    fn take(&mut self) -> WireResult<()> {
        let left = self.pending.checked_sub(1);
        self.pending =
            left.ok_or_else(|| WireError::Message("read past the last field".to_owned()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_bytes;
    use proptest::prelude::*;

    #[derive(serde::Serialize)]
    struct Outer {
        a: u32,
        b: Vec<String>,
        inner: (bool, String),
        z: u8,
    }

    fn outer() -> Vec<u8> {
        to_bytes(&Outer {
            a: 9,
            b: vec!["x".into(), "yy".into()],
            inner: (true, "in".into()),
            z: 3,
        })
        .unwrap()
    }

    #[test]
    fn fields_decode_skip_and_nest_in_wire_order() {
        let bytes = outer();
        let mut c = FieldCursor::open(&bytes, 4).unwrap();
        assert_eq!(c.pending(), 4);
        assert_eq!(c.next::<u32>().unwrap(), 9);
        let span = c.skip().unwrap();
        assert_eq!(bytes[span], to_bytes(&["x", "yy"]).unwrap()[..]);
        c.enter(2).unwrap();
        assert!(c.next::<bool>().unwrap());
        // Borrowed straight out of the input.
        let s: &str = c.next().unwrap();
        assert!(bytes.as_ptr_range().contains(&s.as_ptr()));
        assert_eq!(c.next::<u8>().unwrap(), 3);
        assert_eq!(c.position(), bytes.len());
        c.finish().unwrap();
    }

    #[test]
    fn wrong_arity_is_rejected_at_open_and_at_enter() {
        let bytes = outer();
        for arity in [3, 5] {
            assert!(matches!(
                FieldCursor::open(&bytes, arity),
                Err(WireError::Message(_))
            ));
        }
        let mut c = FieldCursor::open(&bytes, 4).unwrap();
        c.skip().unwrap();
        c.skip().unwrap();
        assert!(matches!(c.enter(3), Err(WireError::Message(_))));
        assert!(matches!(
            FieldCursor::open(&to_bytes(&1u8).unwrap(), 1),
            Err(WireError::BadTag(_))
        ));
    }

    #[test]
    fn finish_wants_every_field_read_and_no_byte_left() {
        let mut bytes = outer();
        let mut c = FieldCursor::open(&bytes, 4).unwrap();
        c.skip().unwrap();
        assert!(matches!(c.finish(), Err(WireError::Message(_))));

        bytes.push(0);
        let mut c = FieldCursor::open(&bytes, 4).unwrap();
        for _ in 0..4 {
            c.skip().unwrap();
        }
        assert!(matches!(c.skip(), Err(WireError::Message(_))));
        assert!(matches!(c.finish(), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn headerless_values_are_counted() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.extend(to_bytes("two").unwrap());
        let mut c = FieldCursor::values(&bytes, 2);
        assert_eq!(c.next::<u8>().unwrap(), 1);
        assert_eq!(c.next::<&str>().unwrap(), "two");
        assert!(c.next::<u8>().is_err());
        c.finish().unwrap();
    }

    #[test]
    fn peek_variant_names_the_variant_and_leaves_the_field_unread() {
        #[derive(serde::Serialize)]
        enum E {
            Unit,
            New(u8),
            Tuple(u8, u8),
            Struct { a: u8 },
        }
        let values = [E::Unit, E::New(1), E::Tuple(1, 2), E::Struct { a: 1 }];
        let mut bytes = to_bytes(&7u8).unwrap();
        for v in &values {
            bytes.extend(to_bytes(v).unwrap());
        }
        let mut c = FieldCursor::values(&bytes, 5);
        // Not an enum: no index, and the field is still there to be read.
        assert_eq!(c.peek_variant(), None);
        assert_eq!(c.next::<u8>().unwrap(), 7);
        for index in 0..4 {
            assert_eq!(c.peek_variant(), Some(index));
            assert_eq!(c.peek_variant(), Some(index), "peeking does not move");
            c.skip().unwrap();
        }
        // Past the last field, and inside a cut-off index.
        assert_eq!(c.peek_variant(), None);
        c.finish().unwrap();
        let cut = &to_bytes(&E::Unit).unwrap()[..1];
        assert_eq!(FieldCursor::values(cut, 1).peek_variant(), None);
    }

    proptest! {
        /// Whatever the bytes, a walk ends in a value or a typed error and
        /// every span it hands out lies inside the input.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            steps in proptest::collection::vec(0u8..4, 0..12),
        ) {
            let mut c = FieldCursor::values(&bytes, 1);
            for step in steps {
                let _ = c.peek_variant();
                let ok = match step {
                    0 => c.enter_seq().is_ok(),
                    1 => c.skip().map(|span| assert!(span.end <= bytes.len())).is_ok(),
                    2 => c.next::<crate::Value>().is_ok(),
                    _ => c.enter(2).is_ok(),
                };
                prop_assert!(c.position() <= bytes.len());
                if !ok {
                    break;
                }
            }
            let _ = c.finish();
        }
    }
}
