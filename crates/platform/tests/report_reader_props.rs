//! Property tests for the two prefix readers of the encoded agent report
//! (`docs/WIRE.md`, "The agent report"), the counterpart of `mar-core`'s
//! `record_reader_props.rs`:
//!
//! * on a well-formed report `peek_id` and `peek_record_data` agree with the
//!   full decode;
//! * on hostile bytes — every truncation, every single-byte flip, arbitrary
//!   strings — neither panics, each returns a value or a typed error, and
//!   neither asks the allocator for more than a constant multiple of the
//!   input length;
//! * a report that declares 5 or 7 fields, or whose record declares 11 or
//!   13, is rejected.

#[path = "../../core/tests/common/counting_alloc.rs"]
mod counting_alloc;

use proptest::prelude::*;

use counting_alloc::{requested_by, Counting};
use mar_core::comp::{CompOp, EntryKind};
use mar_core::{AgentId, AgentRecord, DataSpace, LoggingMode, RollbackMode};
use mar_platform::{AgentReport, ReportOutcome};
use mar_wire::Value;

#[global_allocator]
static ALLOC: Counting = Counting;

/// As in `record_reader_props.rs`: what both readers together may request
/// per input byte, and on top of it.
const ALLOC_PER_BYTE: usize = 256;
const ALLOC_BASE: usize = 4096;

fn report_strategy() -> impl Strategy<Value = AgentReport> {
    (
        any::<u64>(),
        0u32..8,
        any::<i64>(),
        0u64..6,
        ".{0,12}",
        any::<bool>(),
    )
        .prop_map(|(id, home, wallet, steps, reason, completed)| {
            let mut data = DataSpace::new();
            data.set_wro("wallet", Value::from(wallet));
            data.set_sro("notes", Value::list([Value::from(reason.clone())]));
            let mut record = AgentRecord::new(
                AgentId(id),
                "report-agent",
                home,
                data,
                mar_itinerary::samples::fig6(),
                LoggingMode::State,
                RollbackMode::Optimized,
            );
            for seq in 0..steps {
                let undo = CompOp::new("ledger.undo_transfer", Value::from(seq as i64));
                record
                    .log
                    .append_step(home + 1, seq, "m", [(EntryKind::Resource, undo)], vec![]);
                record.step_seq += 1;
            }
            AgentReport {
                id: AgentId(id),
                outcome: if completed {
                    ReportOutcome::Completed
                } else {
                    ReportOutcome::Failed(reason)
                },
                finished_at_us: id.rotate_left(7),
                steps_committed: steps,
                finished_node: home,
                record,
            }
        })
}

/// Runs both readers over `bytes` under the allocation bound. Neither may
/// panic, and what they return is what the full decode returns.
fn read_all_bounded(bytes: &[u8]) {
    let ((id, data), requested) = requested_by(|| {
        (
            AgentReport::peek_id(bytes),
            AgentReport::peek_record_data(bytes),
        )
    });
    let bound = ALLOC_BASE + ALLOC_PER_BYTE * bytes.len();
    assert!(
        requested <= bound,
        "readers requested {requested} bytes for a {}-byte input (bound {bound})",
        bytes.len()
    );
    if let Ok(report) = AgentReport::decode(bytes) {
        if let Ok(id) = id {
            assert_eq!(id, report.id);
        }
        if let Ok(data) = data {
            assert_eq!(data, report.record.data);
        }
    }
}

/// Offset of the record inside an encoded report: the one place the first
/// five fields end.
fn record_offset(report: &AgentReport) -> usize {
    let bytes = report.encode();
    bytes.len() - report.record.to_bytes().unwrap().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prefix_readers_agree_with_the_full_decode(report in report_strategy()) {
        let bytes = report.encode();
        let full = AgentReport::decode(&bytes).unwrap();
        prop_assert_eq!(AgentReport::peek_id(&bytes).unwrap(), full.id);
        prop_assert_eq!(AgentReport::peek_record_data(&bytes).unwrap(), full.record.data);
    }

    #[test]
    fn arbitrary_bytes_get_a_value_or_a_typed_error(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        read_all_bounded(&bytes);
    }

    #[test]
    fn a_report_of_another_arity_is_rejected(report in report_strategy()) {
        let bytes = report.encode();
        prop_assert_eq!(bytes[1], 6, "a report declares 6 fields in one byte");
        for arity in [5, 7] {
            let mut wrong = bytes.clone();
            wrong[1] = arity;
            prop_assert!(AgentReport::peek_id(&wrong).is_err());
            prop_assert!(AgentReport::peek_record_data(&wrong).is_err());
        }
        let at = record_offset(&report) + 1;
        prop_assert_eq!(bytes[at], 12, "its record declares 12");
        for arity in [11, 13] {
            let mut wrong = bytes.clone();
            wrong[at] = arity;
            prop_assert!(AgentReport::peek_record_data(&wrong).is_err());
        }
    }
}

proptest! {
    // Each case reads the report once per byte, several times over.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_truncation_and_byte_flip_gets_a_value_or_a_typed_error(
        report in report_strategy(),
    ) {
        let bytes = report.encode();
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
