//! Property tests pinning the resident-record splice encoding to the full
//! re-encode: for random well-formed agent histories (steps, savepoints,
//! sub-itinerary entry/exit, compaction, both logging modes), a
//! [`ResidentRecord`] driven through the same mutations as a plain
//! [`AgentRecord`] must
//!
//! * produce **byte-identical** serializations at *every* encode point —
//!   the spliced O(delta) encode is indistinguishable on the wire from the
//!   wholesale re-encode;
//! * keep doing so after arbitrary interleavings of encodes (which fold the
//!   delta into the retained bytes), materializations, savepoint removals,
//!   and compaction passes;
//! * decode back (`from_bytes` ∘ `to_bytes`) to the identical record;
//! * plan every rollback batch in place, sealed or materialized, exactly as
//!   the decoded record does, and leave a record that encodes to its bytes
//!   (`Op::Rollback`);
//! * know its savepoint bytes without decoding — `log.savepoint_bytes()`
//!   is what the materialized log measures, in every form the log takes —
//!   and decide on a pre-transfer compaction pass exactly as the
//!   decode-and-ask gate it replaced did, shipping the same bytes;
//! * report, with a transfer encode, the span it wrote the itinerary at:
//!   the span a walk of the bytes finds, sealed or materialized, compacted
//!   or not.

mod common;

use proptest::prelude::*;

use common::{apply, base_record, op_strategy, Op};
use mar_core::itinspan::itinerary_span;
use mar_core::{AgentRecord, CompactionReport, CostModel, LinkParams, LoggingMode, ResidentRecord};
use mar_wire::Value;

/// The gate `MoleService::encode_for_transfer` had before
/// `ResidentRecord::compact_for_transfer`, restated as the oracle: a
/// pre-gate on the log's total size, then a decode to ask for the dirty bit
/// and the savepoint bytes.
fn decode_and_ask(
    rec: &mut ResidentRecord,
    model: &CostModel,
    cpu_us_per_kb: u64,
) -> Option<CompactionReport> {
    if !model.compaction_pays(rec.log.size_bytes(), cpu_us_per_kb) {
        return None;
    }
    let log = rec.log.materialize().unwrap();
    if !log.is_dirty() || !model.compaction_pays(log.stats().savepoint_bytes, cpu_us_per_kb) {
        return None;
    }
    Some(rec.compact_log().unwrap())
}

/// Gives `full` an SRO big enough that two data-bearing savepoints can pay
/// for a pass on a LAN while one savepoint under a long run of steps cannot,
/// and returns its resident twin, freshly parsed.
fn with_blob(full: &mut AgentRecord) -> ResidentRecord {
    full.data.set_sro("blob", Value::from("b".repeat(600)));
    ResidentRecord::from_bytes(&full.to_bytes().unwrap()).unwrap()
}

/// The property below visits both sides of the gate, and the case the old
/// pre-gate let through to a decode: pinned here on two histories.
#[test]
fn the_gate_passes_on_savepoint_bytes_and_not_on_log_size() {
    let model = CostModel::new(LinkParams::LAN);
    let step = |sro_write| Op::Step {
        node: 1,
        nops: 2,
        sro_write,
    };

    // One savepoint under a kilobyte of step frames: the log's size could
    // pay, its savepoint bytes cannot — no pass, and nothing decoded.
    let mut full = base_record(LoggingMode::State);
    let mut res = with_blob(&mut full);
    let mut subs = 0;
    let mut ops = vec![Op::Savepoint];
    ops.extend((0..20).map(|k| step(Some(k % 4))));
    ops.push(Op::Reseal);
    for op in &ops {
        apply(&mut full, &mut res, &mut subs, op);
    }
    assert!(model.compaction_pays(res.log.size_bytes(), 1));
    assert!(!model.compaction_pays(res.log.savepoint_bytes(), 1));
    assert_eq!(res.compact_for_transfer(&model, 1).unwrap(), None);
    assert!(res.log.is_sealed());

    // Two full images of one state, a step between them: the payload pays,
    // the pass runs (the second image becomes a marker), and the oracle
    // agrees on what it did.
    let mut full = base_record(LoggingMode::State);
    let mut res = with_blob(&mut full);
    let ops = [
        Op::Savepoint,
        step(None),
        Op::Savepoint,
        step(None),
        Op::Reseal,
    ];
    for op in &ops {
        apply(&mut full, &mut res, &mut subs, op);
    }
    assert!(model.compaction_pays(res.log.savepoint_bytes(), 1));
    let mut asked = res.clone();
    let report = res.compact_for_transfer(&model, 1).unwrap();
    assert!(report.is_some_and(|r| r.changed()), "{report:?}");
    assert_eq!(report, decode_and_ask(&mut asked, &model, 1));
    assert!(!res.log.is_sealed());
    // The same log again is clean: decoded, and no second pass.
    assert_eq!(res.compact_for_transfer(&model, 1).unwrap(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spliced_encoding_is_byte_identical_to_full_reencode(
        logging in prop_oneof![Just(LoggingMode::State), Just(LoggingMode::Transition)],
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut full = base_record(logging);
        let seed_bytes = full.to_bytes().unwrap();
        let mut res = ResidentRecord::from_bytes(&seed_bytes).unwrap();
        let mut subs = 0u32;
        for op in &ops {
            apply(&mut full, &mut res, &mut subs, op);
            // The invariant holds after *every* op, not only at Encode
            // points — clone the resident so the comparison itself does
            // not fold the delta the next op splices onto.
            let direct = full.to_bytes().unwrap();
            let spliced = res.clone().to_bytes().unwrap();
            prop_assert_eq!(&spliced, &direct, "after {:?}", op);
            // And the bytes decode back to the identical record.
            let back = AgentRecord::from_bytes(&direct).unwrap();
            prop_assert_eq!(&back.log, &full.log);
        }
        // Final full decode equivalence through the resident path too.
        let final_bytes = res.to_bytes().unwrap();
        let via_resident = ResidentRecord::from_bytes(&final_bytes)
            .unwrap()
            .into_record()
            .unwrap();
        prop_assert_eq!(via_resident, full);
    }

    #[test]
    fn a_sealed_log_knows_its_savepoint_bytes_and_the_gate_decides_as_before(
        logging in prop_oneof![Just(LoggingMode::State), Just(LoggingMode::Transition)],
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut full = base_record(logging);
        let mut res = with_blob(&mut full);
        let model = CostModel::new(LinkParams::LAN);
        let mut subs = 0u32;
        for op in &ops {
            // Freshly parsed, after appends, after a fold (`Encode`), a
            // reseal, a `Materialize`, a removal, a pass: every form.
            apply(&mut full, &mut res, &mut subs, op);
            let mut decoded = res.clone();
            let measured = decoded.log.materialize().unwrap().stats().savepoint_bytes;
            prop_assert_eq!(res.log.savepoint_bytes(), measured, "after {:?}", op);
            prop_assert_eq!(measured, full.log.stats().savepoint_bytes);

            let (mut asked, mut gated) = (res.clone(), res.clone());
            let want = decode_and_ask(&mut asked, &model, 1);
            let got = gated.compact_for_transfer(&model, 1).unwrap();
            prop_assert_eq!(got, want, "after {:?}", op);
            prop_assert_eq!(
                gated.to_transfer_bytes().unwrap(),
                asked.to_transfer_bytes().unwrap()
            );
            // Only a payload that can pay is ever decoded.
            if !model.compaction_pays(measured, 1) {
                prop_assert_eq!(gated.log.is_sealed(), res.log.is_sealed());
            }
        }
    }

    #[test]
    fn the_transfer_encode_reports_the_span_a_walk_finds(
        logging in prop_oneof![Just(LoggingMode::State), Just(LoggingMode::Transition)],
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut full = base_record(logging);
        let mut res = ResidentRecord::from_bytes(&full.to_bytes().unwrap()).unwrap();
        let mut subs = 0u32;
        let (mut sealed, mut materialized) = (0, 0);
        for op in &ops {
            apply(&mut full, &mut res, &mut subs, op);
            let mut as_is = res.clone();
            let mut opened = res.clone();
            opened.log.materialize().unwrap();
            let mut compacted = res.clone();
            compacted.compact_log().unwrap();
            for (form, rec) in [("as is", &mut as_is), ("materialized", &mut opened), ("compacted", &mut compacted)] {
                if rec.log.is_sealed() {
                    sealed += 1;
                } else {
                    materialized += 1;
                }
                let (bytes, span) = rec.to_transfer_bytes().unwrap();
                prop_assert_eq!(&span, &itinerary_span(&bytes).unwrap(), "{} after {:?}", form, op);
                prop_assert_eq!(&bytes[span], rec.itinerary.as_bytes());
            }
        }
        prop_assert!(materialized > 0);
        if ops.iter().any(|op| matches!(op, Op::Reseal)) {
            prop_assert!(sealed > 0);
        }
    }
}
