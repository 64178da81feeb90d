//! Span surgery for the itinerary field of encoded agent records.
//!
//! The itinerary is the record's one large *immutable* field: it never
//! changes after launch, so shipping it on every migration is pure
//! overhead once the receiving node has seen it. The interning protocol
//! (platform layer) therefore replaces the inline itinerary span of an
//! in-flight record with a tiny **by-reference** framing — a one-field
//! struct holding the [`mar_wire::content_hash64`] of the inline span —
//! and splices the inline bytes back in before anything durable sees the
//! record.
//!
//! This module is the byte-level toolkit for that: locate the span inside
//! an encoded record, classify it as inline or by-reference, build the
//! reference framing, and splice a replacement span in. The two forms are
//! distinguishable by their sequence arity (the inline itinerary struct
//! has [`ITINERARY_FIELDS`] fields, the reference exactly one), so no new
//! wire tags are needed and every pre-existing decoder keeps working on
//! inline records.
//!
//! Invariant the platform maintains: **stable storage never holds a
//! by-reference record.** References exist only inside in-flight 2PC
//! `Prepare` payloads; the receiver rehydrates before persisting anything.

use std::ops::Range;

use mar_wire::FieldCursor;

use crate::error::CoreError;
use crate::resident::RecordWalk;

/// Sequence arity of an inline itinerary (`id`, `entries`, `order`).
pub const ITINERARY_FIELDS: u64 = 3;
/// Sequence arity of the by-reference framing (`hash`).
pub const REF_FIELDS: u64 = 1;

/// What an itinerary span turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The full inline itinerary encoding.
    Inline,
    /// A content-address reference: the hash of the inline encoding.
    Ref(u64),
}

/// Locates the itinerary span inside an encoded record (inline **or**
/// by-reference form) without decoding any field.
///
/// # Errors
///
/// Codec errors for inputs that are not framed like a record.
pub fn itinerary_span(record: &[u8]) -> Result<Range<usize>, CoreError> {
    RecordWalk::open(record)?.itinerary()
}

/// Classifies an itinerary span as inline or by-reference.
///
/// # Errors
///
/// Codec errors for spans framed as neither form, including a reference
/// span with trailing bytes after its hash.
pub fn classify_span(span: &[u8]) -> Result<SpanKind, CoreError> {
    let mut fields = FieldCursor::values(span, 1);
    match fields.enter_seq()? {
        ITINERARY_FIELDS => Ok(SpanKind::Inline),
        REF_FIELDS => {
            let hash = fields.next()?;
            fields.finish()?;
            Ok(SpanKind::Ref(hash))
        }
        other => Err(CoreError::CorruptLog(format!(
            "itinerary span has {other} fields, expected {ITINERARY_FIELDS} (inline) \
             or {REF_FIELDS} (reference)"
        ))),
    }
}

/// Encodes the by-reference framing for `hash`.
#[must_use]
pub fn encode_ref(hash: u64) -> Vec<u8> {
    mar_wire::to_bytes_with(|ser| {
        ser.begin_struct(REF_FIELDS as usize);
        ser.value(&hash)
    })
    .expect("u64 always encodes")
    .0
}

/// Rebuilds `record` with `span` (from [`itinerary_span`]) replaced by
/// `replacement` — used in both directions: strip (inline → ref) and
/// rehydrate (ref → inline).
#[must_use]
pub fn splice_span(record: &[u8], span: Range<usize>, replacement: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(record.len() - span.len() + replacement.len());
    out.extend_from_slice(&record[..span.start]);
    out.extend_from_slice(replacement);
    out.extend_from_slice(&record[span.end..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataSpace;
    use crate::log::LoggingMode;
    use crate::planner::RollbackMode;
    use crate::record::{AgentId, AgentRecord};
    use mar_itinerary::samples;

    fn record_bytes() -> Vec<u8> {
        AgentRecord::new(
            AgentId(3),
            "traveller",
            0,
            DataSpace::new(),
            samples::fig6(),
            LoggingMode::State,
            RollbackMode::Optimized,
        )
        .to_bytes()
        .unwrap()
    }

    #[test]
    fn span_is_the_itinerary_encoding() {
        let bytes = record_bytes();
        let span = itinerary_span(&bytes).unwrap();
        let expected = mar_wire::to_bytes(&samples::fig6()).unwrap();
        assert_eq!(&bytes[span], &expected[..]);
    }

    #[test]
    fn strip_and_rehydrate_roundtrip_byte_identically() {
        let bytes = record_bytes();
        let span = itinerary_span(&bytes).unwrap();
        let inline = bytes[span.clone()].to_vec();
        let hash = mar_wire::content_hash64(&inline);

        let stripped = splice_span(&bytes, span, &encode_ref(hash));
        assert!(stripped.len() < bytes.len());
        let span2 = itinerary_span(&stripped).unwrap();
        assert!(matches!(
            classify_span(&stripped[span2.clone()]),
            Ok(SpanKind::Ref(h)) if h == hash
        ));

        let back = splice_span(&stripped, span2, &inline);
        assert_eq!(back, bytes);
    }

    #[test]
    fn classify_rejects_other_arities_and_trailing_bytes() {
        let bytes = record_bytes();
        // The whole record is a 12-field sequence: not an itinerary span.
        assert!(classify_span(&bytes).is_err());
        let mut padded = encode_ref(7);
        padded.push(0);
        assert!(classify_span(&padded).is_err());
        assert!(classify_span(&[]).is_err());
    }

    #[test]
    fn span_location_fails_on_garbage() {
        assert!(itinerary_span(&[0xff, 0x01]).is_err());
        let bytes = record_bytes();
        assert!(itinerary_span(&bytes[..3]).is_err());
    }
}
