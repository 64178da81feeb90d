//! The random agent history the record suites share: a plain
//! [`AgentRecord`] and a [`ResidentRecord`] driven through the same steps,
//! savepoints, sub-itinerary entries and exits, encodes and compaction
//! passes. `resident_record_props.rs` pins the two encoders to each other on
//! it; `record_reader_props.rs` pins every reader of the encoded record.

// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

pub mod counting_alloc;
pub mod hostile;

use proptest::prelude::*;

use mar_core::comp::{CompOp, EntryKind};
use mar_core::{AgentId, AgentRecord, DataSpace, LoggingMode, ResidentRecord, RollbackMode};
use mar_itinerary::samples;
use mar_wire::Value;

/// One event applied to both representations in lockstep.
#[derive(Debug, Clone)]
pub enum Op {
    /// Commit a step on `node` with `nops` compensating operations,
    /// optionally writing an SRO key first.
    Step {
        node: u32,
        nops: u8,
        sro_write: Option<u8>,
    },
    /// Enter a sub-itinerary (automatic savepoint entry).
    EnterSub,
    /// Leave the innermost sub-itinerary (savepoint removal — the resident
    /// side materializes its sealed log here).
    LeaveSub,
    /// Constitute an explicit savepoint.
    Savepoint,
    /// Serialize both and compare the bytes (also folds the resident
    /// delta, so later encodes splice from a longer retained prefix).
    Encode,
    /// Re-seal the resident side: encode, then re-parse from the bytes (the
    /// migration round trip).
    Reseal,
    /// Materialize the resident log without comparing anything.
    Materialize,
    /// Run a compaction pass on both sides.
    Compact,
}

pub fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1u32..4, 0u8..3, 0u8..8).prop_map(|(node, nops, sro)| {
            // `sro >= 4` means "no SRO write" — a hand-rolled Option
            // (the vendored proptest subset has no `option::of`).
            let sro_write = (sro < 4).then_some(sro);
            Op::Step { node, nops, sro_write }
        }),
        2 => Just(Op::EnterSub),
        1 => Just(Op::LeaveSub),
        2 => Just(Op::Savepoint),
        3 => Just(Op::Encode),
        1 => Just(Op::Reseal),
        1 => Just(Op::Materialize),
        1 => Just(Op::Compact),
    ]
}

pub fn base_record(logging: LoggingMode) -> AgentRecord {
    let mut data = DataSpace::new();
    data.set_sro("notes", Value::list([Value::from(1i64)]));
    data.set_wro("wallet", Value::from(100i64));
    AgentRecord::new(
        AgentId(42),
        "prop-agent",
        0,
        data,
        samples::fig6(),
        logging,
        RollbackMode::Optimized,
    )
}

pub fn comp_op(step: u64, k: u8) -> (EntryKind, CompOp) {
    let kind = match k % 3 {
        0 => EntryKind::Resource,
        1 => EntryKind::Agent,
        _ => EntryKind::Mixed,
    };
    (
        kind,
        CompOp::new(
            "ledger.undo_transfer",
            Value::map([
                ("step", Value::from(step as i64)),
                ("k", Value::from(k as i64)),
            ]),
        ),
    )
}

/// Drives both representations through one op. Returns `false` if the op
/// was skipped (invalid in the current state, e.g. leaving with no sub).
pub fn apply(full: &mut AgentRecord, res: &mut ResidentRecord, subs: &mut u32, op: &Op) -> bool {
    match op {
        Op::Step {
            node,
            nops,
            sro_write,
        } => {
            if let Some(k) = sro_write {
                let v = Value::from(i64::from(*k));
                full.data.set_sro(format!("sro{k}"), v.clone());
                res.data.set_sro(format!("sro{k}"), v);
            }
            let seq = full.step_seq;
            let ops: Vec<_> = (0..*nops).map(|k| comp_op(seq, k)).collect();
            full.log
                .append_step(*node, seq, "m", ops.clone(), vec![*node + 1]);
            res.log
                .for_append()
                .append_step(*node, seq, "m", ops, vec![*node + 1]);
            full.step_seq += 1;
            res.step_seq += 1;
            full.table.on_step_committed();
            res.table.on_step_committed();
        }
        Op::EnterSub => {
            let name = format!("sub{subs}");
            *subs += 1;
            let cursor = full.cursor.clone();
            full.table.on_enter_sub(
                &name,
                &mut full.data,
                &cursor,
                &mut full.log,
                full.logging_mode,
            );
            res.table.on_enter_sub(
                &name,
                &mut res.data,
                &cursor,
                res.log.for_append(),
                res.logging_mode,
            );
        }
        Op::LeaveSub => {
            if *subs == 0 {
                return false;
            }
            *subs -= 1;
            let name = format!("sub{subs}");
            full.table
                .on_leave_sub(&name, false, &mut full.data, &mut full.log)
                .expect("well-formed history");
            let log = res.log.materialize().expect("resident log decodes");
            res.table
                .on_leave_sub(&name, false, &mut res.data, log)
                .expect("well-formed history");
        }
        Op::Savepoint => {
            let cursor = full.cursor.clone();
            full.table.explicit_savepoint(
                &mut full.data,
                &cursor,
                &mut full.log,
                full.logging_mode,
            );
            res.table.explicit_savepoint(
                &mut res.data,
                &cursor,
                res.log.for_append(),
                res.logging_mode,
            );
        }
        Op::Encode => {
            let spliced = res.to_bytes().expect("resident encodes");
            let direct = full.to_bytes().expect("record encodes");
            assert_eq!(spliced, direct, "spliced encode != full re-encode");
        }
        Op::Reseal => {
            let bytes = res.to_bytes().expect("resident encodes");
            *res = ResidentRecord::from_bytes(&bytes).expect("own bytes parse");
            assert!(res.log.is_sealed());
        }
        Op::Materialize => {
            res.log.materialize().expect("resident log decodes");
        }
        Op::Compact => {
            full.compact_log();
            res.compact_log().expect("resident log decodes");
        }
    }
    true
}
