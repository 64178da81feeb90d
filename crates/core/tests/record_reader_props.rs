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
//!   the derive decode `AgentRecord::from_bytes` included;
//! * a sealed record whose savepoint bytes cannot pay for a compaction pass
//!   goes through the transfer gate and the transfer encode without an
//!   allocation per log entry: nothing is decoded to be asked;
//! * likewise the lazy parse of a queue item, the spliced encode of a step
//!   and savepoint removal from the segment-indexed log: each goes to the
//!   allocator as often on a long log as on a short one.

mod common;

use proptest::prelude::*;

use common::counting_alloc::{bounded, calls_by, sweep, Counting};
use common::hostile::record_with_deep_data;
use common::{apply, base_record, comp_op, op_strategy, Op};
use mar_core::itinspan::{classify_span, itinerary_span};
use mar_core::log::{LogEntry, SpEntry, SroPayload};
use mar_core::{
    AgentRecord, CostModel, DataSpace, LazyRecord, LinkParams, LoggingMode, ResidentRecord,
    RollbackLog, SavepointId, SavepointTable,
};
use mar_itinerary::{samples, Cursor};
use mar_wire::Value;

#[global_allocator]
static ALLOC: Counting = Counting;

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

/// [`read_all`] under the allocation bound of `counting_alloc` (the most
/// these inputs reach is 64 bytes per byte).
fn read_all_bounded(bytes: &[u8]) {
    bounded(bytes, read_all);
}

/// `bytes` re-headed to declare `arity` fields (one byte of header either
/// way: the tag and a one-byte count).
fn with_arity(bytes: &[u8], arity: u8) -> Vec<u8> {
    assert_eq!(bytes[1], 12, "a record declares 12 fields in one byte");
    let mut out = bytes.to_vec();
    out[1] = arity;
    out
}

/// Every reader of the layout, the derive decode included.
fn read_all_and_decode(bytes: &[u8]) {
    read_all(bytes);
    let _ = ResidentRecord::from_bytes(bytes);
    let _ = AgentRecord::from_bytes(bytes);
}

/// One more family of inputs: the structured sweep every decoder of the
/// workspace gets (`counting_alloc::sweep` — depth and length bombs on top
/// of the truncations and flips above), under the same allocation bound.
#[test]
fn the_decoder_sweep_gets_a_value_or_a_typed_error() {
    let step = Op::Step {
        node: 2,
        nops: 2,
        sro_write: Some(1),
    };
    let ops = [Op::Savepoint, step.clone(), Op::EnterSub, step, Op::Encode];
    for logging in [LoggingMode::State, LoggingMode::Transition] {
        sweep(&record_bytes(logging, &ops), read_all_and_decode);
    }
}

/// A record that is valid but for a data space nested 100,000 deep — 200 KB,
/// far inside the frame limit — is a typed error to every reader that
/// decodes the data space, and still a record to those that pass over it.
/// It used to end the process: a stack overflow is not a panic.
#[test]
fn a_record_with_a_data_space_nested_past_the_stack_is_refused() {
    let deep = record_with_deep_data(&record_bytes(LoggingMode::State, &[Op::Savepoint]));
    assert!(deep.len() > 200_000);
    let too_deep = |e: mar_core::CoreError| {
        let text = e.to_string();
        assert!(text.contains("nested deeper"), "{text}");
    };
    too_deep(AgentRecord::from_bytes(&deep).unwrap_err());
    too_deep(ResidentRecord::from_bytes(&deep).unwrap_err());
    too_deep(LazyRecord::parse(&deep).unwrap_err());
    too_deep(AgentRecord::peek_data(&deep).unwrap_err());
    AgentRecord::peek_header(&deep).unwrap();
    itinerary_span(&deep).unwrap();
    bounded(&deep, read_all_and_decode);
}

/// A long-lived agent's record: one savepoint, then `steps` step frames of
/// one operation each.
fn long_log_record(steps: usize) -> Vec<u8> {
    let mut ops = vec![Op::Savepoint];
    ops.extend((0..steps).map(|_| Op::Step {
        node: 2,
        nops: 1,
        sro_write: None,
    }));
    record_bytes(LoggingMode::State, &ops)
}

/// The hop of a long-lived agent: hundreds of step frames, one small
/// savepoint. The log's size could pay for a pass, its savepoint bytes
/// cannot, and the sealed log says so itself — the gate and the transfer
/// encode go to the allocator the same few times whether the log holds 200
/// steps or 400: once here, for the output, since the encode runs in the
/// thread's warm encode buffer. (Decoding the log to ask, as the gate once
/// did, is eight allocations per entry — 4,773 and 9,774 calls on these two
/// records.)
#[test]
fn a_log_that_cannot_pay_ships_without_an_allocation_per_entry() {
    let model = CostModel::new(LinkParams::LAN);
    let hop = |steps: usize| {
        let bytes = long_log_record(steps);
        let mut rec = ResidentRecord::from_bytes(&bytes).unwrap();
        assert_eq!(rec.log.len(), 1 + 3 * steps);
        assert!(rec.log.size_bytes() > 8 * 1024);
        let (shipped, calls) = calls_by(|| {
            let report = rec.compact_for_transfer(&model, 1).unwrap();
            assert_eq!(report, None);
            rec.to_transfer_bytes().unwrap().0
        });
        assert_eq!(shipped, bytes);
        assert!(rec.log.is_sealed());
        calls
    };
    let calls = hop(200);
    assert_eq!(
        calls,
        hop(400),
        "allocator calls must not grow with the log"
    );
    assert!(calls <= 4, "{calls} allocator calls for one hop");
}

/// A queue item is read as a `LazyRecord`: every field but the log is
/// decoded, and the log is walked for its framing and kept as bytes. So
/// the parse goes to the allocator as often at 400 steps as at 200, where
/// the full decode asks once or more per entry.
#[test]
fn a_lazy_parse_does_not_allocate_per_log_entry() {
    let calls = |steps: usize| {
        let bytes = long_log_record(steps);
        let (lazy, lazy_calls) = calls_by(|| LazyRecord::parse(&bytes).unwrap());
        assert_eq!(lazy.step_seq, steps as u64);
        let (_, full_calls) = calls_by(|| AgentRecord::from_bytes(&bytes).unwrap());
        (lazy_calls, full_calls)
    };
    let (lazy200, full200) = calls(200);
    let (lazy400, full400) = calls(400);
    assert_eq!(
        lazy200, lazy400,
        "the lazy parse must not grow with the log"
    );
    assert!(lazy200 <= 16, "{lazy200} allocator calls for one parse");
    assert!(
        full400 > full200 + 3 * 200,
        "the control decodes every entry: {full200} -> {full400} calls"
    );
}

/// A step appends to a sealed log, and its encode splices the new entries
/// onto the retained bytes: after the first encode of a parsed record, the
/// next one after an appended step asks the allocator as often at 400 steps
/// as at 200. No entry of the old log is re-encoded.
#[test]
fn a_spliced_encode_does_not_allocate_per_log_entry() {
    let calls = |steps: usize| {
        let bytes = long_log_record(steps);
        let mut full = AgentRecord::from_bytes(&bytes).unwrap();
        let mut res = ResidentRecord::from_bytes(&bytes).unwrap();
        let mut subs = 0;
        let step = Op::Step {
            node: 3,
            nops: 2,
            sro_write: None,
        };
        apply(&mut full, &mut res, &mut subs, &step);
        res.to_bytes().unwrap();
        apply(&mut full, &mut res, &mut subs, &step);
        let (spliced, calls) = calls_by(|| res.to_bytes().unwrap());
        assert!(res.log.is_sealed());
        assert_eq!(spliced, full.to_bytes().unwrap());
        calls
    };
    let calls200 = calls(200);
    let calls400 = calls(400);
    assert_eq!(calls200, calls400, "the splice must not grow with the log");
    assert!(calls200 <= 4, "{calls200} allocator calls for one encode");
}

/// The segment index: removing a savepoint is an index probe and a splice
/// of its segment into the one below; no entry is moved or re-encoded. Seven
/// removals out of 32 savepoints go to the allocator as often over 10^5
/// log entries as over 10^3.
#[test]
fn removing_savepoints_does_not_touch_every_entry() {
    let calls = |total: usize| {
        let mut log = log_of_entries(total, 32);
        assert!(log.len().abs_diff(total) < 100);
        let mut data = DataSpace::new();
        let (_, calls) = calls_by(|| {
            for id in [16, 15, 17, 14, 18, 13, 19] {
                assert!(log.remove_savepoint(SavepointId(id), &mut data).unwrap());
            }
        });
        calls
    };
    let small = calls(1_000);
    let large = calls(100_000);
    assert_eq!(small, large, "savepoint removal must not grow with the log");
    assert!(small <= 4, "{small} allocator calls for seven removals");
}

/// A log of about `total` entries: `savepoints` savepoints, each followed by
/// an equal run of step frames (BOS, one operation, EOS).
fn log_of_entries(total: usize, savepoints: u64) -> RollbackLog {
    let main = samples::fig6();
    let cursor = Cursor::new(&main);
    let steps_per_segment = (total as u64 / savepoints).saturating_sub(1) / 3;
    let mut log = RollbackLog::new();
    let mut seq = 0;
    for id in 0..savepoints {
        log.push(LogEntry::Savepoint(SpEntry {
            id: SavepointId(id),
            sub_id: Some(format!("S{id}")),
            explicit: false,
            cursor: cursor.clone(),
            table: SavepointTable::new(),
            sro: SroPayload::Full([("v".to_owned(), Value::from(id as i64))].into()),
        }));
        for _ in 0..steps_per_segment {
            log.append_step(1, seq, "m", [comp_op(seq, 0)], vec![]);
            seq += 1;
        }
    }
    log
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
