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
#[path = "../../core/tests/common/hostile.rs"]
mod hostile;

use proptest::prelude::*;

use counting_alloc::{bounded, sweep, Counting};
use mar_core::comp::{CompOp, EntryKind};
use mar_core::log::OpEntry;
use mar_core::{AgentId, AgentRecord, DataSpace, LoggingMode, RollbackMode};
use mar_platform::{AgentReport, MoleMsg, RceList, ReportOutcome, Tally};
use mar_simnet::NodeId;
use mar_txn::{RemoteWork, TxMsg, TxnId};
use mar_wire::Value;

#[global_allocator]
static ALLOC: Counting = Counting;

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
    let (id, data) = bounded(bytes, |b| {
        (AgentReport::peek_id(b), AgentReport::peek_record_data(b))
    });
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

fn sample_report() -> AgentReport {
    let mut data = DataSpace::new();
    data.set_wro("wallet", Value::from(250i64));
    let mut record = AgentRecord::new(
        AgentId(7),
        "report-agent",
        1,
        data,
        mar_itinerary::samples::fig6(),
        LoggingMode::State,
        RollbackMode::Optimized,
    );
    let undo = CompOp::new("ledger.undo_transfer", Value::from(3i64));
    record
        .log
        .append_step(2, 0, "m", [(EntryKind::Resource, undo)], vec![]);
    AgentReport {
        id: AgentId(7),
        outcome: ReportOutcome::Failed("gave up".into()),
        finished_at_us: 99,
        steps_committed: 1,
        finished_node: 2,
        record,
    }
}

/// One more family of inputs: the structured sweep every decoder of the
/// workspace gets (`counting_alloc::sweep` — depth and length bombs on top
/// of the truncations and flips below), over the report's readers, the mole
/// messages a launch and a hop's deciding `Prepare` travel in, and a shipped
/// RCE list.
#[test]
fn the_decoder_sweep_gets_a_value_or_a_typed_error() {
    let report = sample_report().encode();
    sweep(&report, |b| {
        read_all_bounded(b);
        let _ = AgentReport::decode(b);
    });
    let launch = MoleMsg::Launch {
        record: sample_report().record.to_bytes().unwrap().into(),
    };
    sweep(&launch.encode(), |b| {
        let _ = MoleMsg::decode(b);
    });
    let prepare = MoleMsg::Tx {
        from: NodeId(2),
        msg: TxMsg::Prepare {
            txn: TxnId::new(NodeId(2), 41),
            work: RemoteWork::new("enqueue-fwd", sample_report().record.to_bytes().unwrap()),
            decide: true,
        },
        tally: vec![(Tally::StepsCommitted, 1), (Tally::RollbackRounds, 3)],
    };
    sweep(&prepare.encode(), |b| {
        let _ = MoleMsg::decode(b);
    });
    let rces = RceList {
        agent: AgentId(7),
        step_seq: 4,
        ops: vec![OpEntry {
            kind: EntryKind::Resource,
            op: CompOp::new("ledger.undo_transfer", Value::from(3i64)),
            step_seq: 4,
        }],
    };
    sweep(&mar_wire::to_bytes(&rces).unwrap(), |b| {
        let _ = mar_wire::from_slice::<RceList>(b);
    });
}

/// A report whose record carries a data space nested 100,000 deep is a typed
/// error to the full decode and to the data-space reader — it used to end
/// the process — and `peek_id` still reads what it stops at.
#[test]
fn a_report_with_a_record_nested_past_the_stack_is_refused() {
    let report = sample_report();
    let mut deep = report.encode();
    deep.truncate(record_offset(&report));
    deep.extend(hostile::record_with_deep_data(
        &report.record.to_bytes().unwrap(),
    ));
    assert_eq!(
        AgentReport::decode(&deep),
        Err(mar_wire::WireError::TooDeep)
    );
    let peeked = AgentReport::peek_record_data(&deep).unwrap_err();
    assert!(peeked.to_string().contains("nested deeper"), "{peeked}");
    assert_eq!(AgentReport::peek_id(&deep), Ok(report.id));
    bounded(&deep, read_all_bounded);
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
