//! Property tests pinning every reader of the encoded agent record to the
//! one walk of its layout (`docs/WIRE.md`, "The agent record"), on the
//! random histories of `resident_record_props.rs`:
//!
//! * on a well-formed record every prefix reader — `peek_header`,
//!   `peek_data`, `itinerary_span`, `LazyRecord::parse` — agrees with the
//!   full decode `AgentRecord::from_bytes`;
//! * on hostile bytes — every truncation, every single-byte flip, arbitrary
//!   strings — no reader panics, each returns a value or a typed error,
//!   none asks the allocator for more than a constant multiple of the input
//!   length, and whatever the full walk accepts the prefix readers accept
//!   with the same fields;
//! * a record that declares 11 or 13 fields is rejected by every reader,
//!   the derive decode `AgentRecord::from_bytes` included.

mod common;

use proptest::prelude::*;

use common::counting_alloc::{requested_by, Counting};
use common::{apply, base_record, op_strategy, Op};
use mar_core::itinspan::{classify_span, itinerary_span};
use mar_core::{AgentRecord, LazyRecord, LoggingMode, ResidentRecord};

#[global_allocator]
static ALLOC: Counting = Counting;

/// What the readers together ([`read_all`]) may request per input byte, and
/// on top of it. Decoded values are wider than their encodings (a one-byte
/// `Null` is a 32-byte `Value`, a one-entry map a whole B-tree node), growing
/// buffers count at every size, and an error carries a message; the most
/// these inputs reach is 64 bytes per byte.
const ALLOC_PER_BYTE: usize = 256;
const ALLOC_BASE: usize = 4096;

fn record_bytes(logging: LoggingMode, ops: &[Op]) -> Vec<u8> {
    let mut full = base_record(logging);
    let mut res = ResidentRecord::from_bytes(&full.to_bytes().unwrap()).unwrap();
    let mut subs = 0;
    for op in ops {
        apply(&mut full, &mut res, &mut subs, op);
    }
    full.to_bytes().unwrap()
}

/// Runs every reader of the layout over `bytes`. None may panic; what the
/// full walk accepts, the walks stopped early accept with equal fields.
fn read_all(bytes: &[u8]) {
    let header = AgentRecord::peek_header(bytes);
    let data = AgentRecord::peek_data(bytes);
    let span = itinerary_span(bytes);
    if let Ok(span) = &span {
        assert!(span.start <= span.end && span.end <= bytes.len());
        let _ = classify_span(&bytes[span.clone()]);
    }
    let Ok(lazy) = LazyRecord::parse(bytes) else {
        return;
    };
    let header = header.expect("the full walk read the header");
    assert_eq!(
        (header.id, header.agent_type, header.home),
        (lazy.id, lazy.agent_type, lazy.home)
    );
    let data = data.expect("the full walk read the data space");
    assert_eq!((data.id, data.home), (lazy.id, lazy.home));
    assert_eq!(data.agent_type, lazy.agent_type);
    assert_eq!(data.data, lazy.data);
    let span = span.expect("the full walk skipped the itinerary");
    assert_eq!(&bytes[span], lazy.itinerary.as_bytes());
    // The deferred halves (log entries, itinerary tree): framing-valid is
    // not yet decodable.
    let _ = lazy.into_record();
}

fn read_all_bounded(bytes: &[u8]) {
    let ((), requested) = requested_by(|| read_all(bytes));
    let bound = ALLOC_BASE + ALLOC_PER_BYTE * bytes.len();
    assert!(
        requested <= bound,
        "readers requested {requested} bytes for a {}-byte input (bound {bound})",
        bytes.len()
    );
}

/// `bytes` re-headed to declare `arity` fields (one byte of header either
/// way: the tag and a one-byte count).
fn with_arity(bytes: &[u8], arity: u8) -> Vec<u8> {
    assert_eq!(bytes[1], 12, "a record declares 12 fields in one byte");
    let mut out = bytes.to_vec();
    out[1] = arity;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prefix_readers_agree_with_the_full_decode(
        logging in prop_oneof![Just(LoggingMode::State), Just(LoggingMode::Transition)],
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let bytes = record_bytes(logging, &ops);
        let full = AgentRecord::from_bytes(&bytes).unwrap();

        let header = AgentRecord::peek_header(&bytes).unwrap();
        prop_assert_eq!(header.id, full.id);
        prop_assert_eq!(header.agent_type, &full.agent_type);
        prop_assert_eq!(header.home, full.home);

        let peek = AgentRecord::peek_data(&bytes).unwrap();
        prop_assert_eq!(peek.id, full.id);
        prop_assert_eq!(&peek.agent_type, &full.agent_type);
        prop_assert_eq!(peek.home, full.home);
        prop_assert_eq!(&peek.data, &full.data);

        let lazy = LazyRecord::parse(&bytes).unwrap();
        let span = itinerary_span(&bytes).unwrap();
        prop_assert_eq!(&bytes[span.clone()], lazy.itinerary.as_bytes());
        prop_assert_eq!(&bytes[span], &mar_wire::to_bytes(&full.itinerary).unwrap()[..]);
        prop_assert_eq!(lazy.log_entry_count(), full.log.len());
        prop_assert_eq!(lazy.log_size_bytes(), full.log.size_bytes());
        prop_assert_eq!(lazy.into_record().unwrap(), full);
    }

    #[test]
    fn arbitrary_bytes_get_a_value_or_a_typed_error(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        read_all_bounded(&bytes);
    }

    #[test]
    fn a_record_of_another_arity_is_rejected_by_every_reader(
        logging in prop_oneof![Just(LoggingMode::State), Just(LoggingMode::Transition)],
        ops in proptest::collection::vec(op_strategy(), 1..20),
    ) {
        let bytes = record_bytes(logging, &ops);
        // One field short (the header lies: a thirteenth value follows) and
        // one field over (the input ends a value early).
        for arity in [11, 13] {
            let wrong = with_arity(&bytes, arity);
            prop_assert!(AgentRecord::peek_header(&wrong).is_err());
            prop_assert!(AgentRecord::peek_data(&wrong).is_err());
            prop_assert!(itinerary_span(&wrong).is_err());
            prop_assert!(LazyRecord::parse(&wrong).is_err());
            prop_assert!(ResidentRecord::from_bytes(&wrong).is_err());
            prop_assert!(AgentRecord::from_bytes(&wrong).is_err());
        }
    }
}

proptest! {
    // Each case reads the record once per byte, several times over.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_truncation_and_byte_flip_gets_a_value_or_a_typed_error(
        logging in prop_oneof![Just(LoggingMode::State), Just(LoggingMode::Transition)],
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let bytes = record_bytes(logging, &ops);
        for len in 0..bytes.len() {
            read_all_bounded(&bytes[..len]);
        }
        let mut flipped = bytes.clone();
        for at in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                flipped[at] = bytes[at] ^ mask;
                read_all_bounded(&flipped);
            }
            flipped[at] = bytes[at];
        }
    }
}
