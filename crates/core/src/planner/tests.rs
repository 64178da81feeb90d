//! Planner tests: Fig. 4 and Fig. 5 walked over synthetic forward histories.

use mar_itinerary::samples;
use mar_wire::Value;
use proptest::prelude::*;

use crate::comp::{CompOp, EntryKind};
use crate::data::DataSpace;
use crate::log::{LogEntry, LoggingMode, OpEntry};
use crate::planner::{
    compensation_round, start_rollback, AfterRound, Destination, RollbackMode, StartPlan,
};
use crate::record::{AgentId, AgentRecord};
use crate::savepoint::SavepointId;

/// Builds a fresh record (the itinerary tree is irrelevant to the planner;
/// fig6 is used as a stand-in).
fn record(mode: RollbackMode, logging: LoggingMode) -> AgentRecord {
    let mut data = DataSpace::new();
    data.set_sro("notes", Value::from(0i64));
    data.set_wro("wallet", Value::from(100i64));
    AgentRecord::new(AgentId(1), "test", 0, data, samples::fig6(), logging, mode)
}

/// Simulates the log effects of a committed forward step.
fn commit_step(rec: &mut AgentRecord, node: u32, ops: &[(EntryKind, &str)]) {
    let seq = rec.step_seq;
    rec.log.append_step(
        node,
        seq,
        &format!("m{seq}"),
        ops.iter()
            .enumerate()
            .map(|(i, (kind, name))| (*kind, CompOp::new(*name, Value::from(i as i64)))),
        vec![],
    );
    rec.step_seq += 1;
    rec.table.on_step_committed();
}

fn savepoint(rec: &mut AgentRecord, sub: &str) -> SavepointId {
    let cursor = rec.cursor.clone();
    let mode = rec.logging_mode;
    rec.table
        .on_enter_sub(sub, &mut rec.data, &cursor, &mut rec.log, mode)
}

/// Drives the planner to completion, recording each round.
fn run_rollback(
    rec: &mut AgentRecord,
    target: SavepointId,
) -> (StartPlan, Vec<crate::planner::RoundPlan>) {
    let start = start_rollback(rec, target).expect("start");
    let mut rounds = Vec::new();
    if matches!(start, StartPlan::AlreadyAtTarget(_)) {
        return (start, rounds);
    }
    loop {
        let round = compensation_round(rec, target).expect("round");
        let done = matches!(round.after, AfterRound::Reached(_));
        rounds.push(round);
        if done {
            break;
        }
        assert!(rounds.len() < 100, "rollback did not terminate");
    }
    (start, rounds)
}

#[test]
fn basic_walks_back_in_reverse_step_order() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    commit_step(
        &mut rec,
        1,
        &[(EntryKind::Resource, "r0"), (EntryKind::Agent, "a0")],
    );
    commit_step(&mut rec, 2, &[(EntryKind::Resource, "r1")]);
    commit_step(&mut rec, 3, &[(EntryKind::Agent, "a2")]);

    let (start, rounds) = run_rollback(&mut rec, sp);
    // Fig. 4a: move to the node of the last EOS.
    assert_eq!(start, StartPlan::Go(Destination::Node(3)));
    // Steps compensated newest-first.
    let seqs: Vec<u64> = rounds.iter().map(|r| r.step_seq).collect();
    assert_eq!(seqs, [2, 1, 0]);
    // Basic mode: everything is local (the agent travels), nothing shipped.
    assert!(rounds.iter().all(|r| r.remote_rces.is_empty()));
    // Continue destinations retrace the path.
    match &rounds[0].after {
        AfterRound::Continue(d) => assert_eq!(*d, Destination::Node(2)),
        other => panic!("unexpected {other:?}"),
    }
    match &rounds[1].after {
        AfterRound::Continue(d) => assert_eq!(*d, Destination::Node(1)),
        other => panic!("unexpected {other:?}"),
    }
    match &rounds[2].after {
        AfterRound::Reached(plan) => assert_eq!(plan.savepoint, sp),
        other => panic!("unexpected {other:?}"),
    }
    // The log is reduced to just the savepoint entry.
    assert_eq!(rec.log.len(), 1);
}

#[test]
fn ops_within_a_step_are_compensated_in_reverse() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    commit_step(
        &mut rec,
        1,
        &[
            (EntryKind::Resource, "first"),
            (EntryKind::Resource, "second"),
            (EntryKind::Resource, "third"),
        ],
    );
    let (_, rounds) = run_rollback(&mut rec, sp);
    let names: Vec<&str> = rounds[0]
        .local_ops
        .iter()
        .map(|o| o.op.name.as_str())
        .collect();
    // "executed in the order OEn,p, OEn,p-1, …" (§4.2).
    assert_eq!(names, ["third", "second", "first"]);
}

#[test]
fn optimized_avoids_moves_without_mixed_entries() {
    let mut rec = record(RollbackMode::Optimized, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    commit_step(
        &mut rec,
        1,
        &[(EntryKind::Resource, "r0"), (EntryKind::Agent, "a0")],
    );
    commit_step(
        &mut rec,
        2,
        &[(EntryKind::Resource, "r1"), (EntryKind::Agent, "a1")],
    );

    let (start, rounds) = run_rollback(&mut rec, sp);
    // Fig. 5a: no mixed entry in the next step → stay local.
    assert_eq!(start, StartPlan::Go(Destination::Local));
    // RCEs ship to the step node; ACEs stay local.
    assert_eq!(rounds[0].step_node, 2);
    assert_eq!(rounds[0].remote_rces.len(), 1);
    assert_eq!(rounds[0].remote_rces[0].op.name, "r1");
    assert_eq!(rounds[0].local_ops.len(), 1);
    assert_eq!(rounds[0].local_ops[0].op.name, "a1");
    match &rounds[0].after {
        AfterRound::Continue(d) => assert_eq!(*d, Destination::Local),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn optimized_moves_agent_for_mixed_entries() {
    let mut rec = record(RollbackMode::Optimized, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r0")]);
    commit_step(
        &mut rec,
        2,
        &[(EntryKind::Mixed, "x1"), (EntryKind::Resource, "r1")],
    );

    let (start, rounds) = run_rollback(&mut rec, sp);
    // The newest step has a mixed entry: the agent must go there.
    assert_eq!(start, StartPlan::Go(Destination::Node(2)));
    // Mixed round: all ops local (agent is at the step node), none shipped.
    assert!(rounds[0].mixed);
    assert_eq!(rounds[0].local_ops.len(), 2);
    assert!(rounds[0].remote_rces.is_empty());
    // Next step has no mixed entry → local.
    match &rounds[0].after {
        AfterRound::Continue(d) => assert_eq!(*d, Destination::Local),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn savepoint_directly_before_abort_needs_no_compensation() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r0")]);
    let sp = savepoint(&mut rec, "S");
    match start_rollback(&rec, sp).unwrap() {
        StartPlan::AlreadyAtTarget(plan) => {
            assert_eq!(plan.savepoint, sp);
            assert_eq!(plan.sro.get("notes").and_then(Value::as_i64), Some(0));
        }
        other => panic!("unexpected {other:?}"),
    }
    // The log is untouched by planning.
    assert_eq!(rec.log.last_eos().map(|e| e.step_seq), Some(0));
}

#[test]
fn unknown_savepoint_is_rejected() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    savepoint(&mut rec, "S");
    let missing = SavepointId(777);
    assert!(matches!(
        start_rollback(&rec, missing),
        Err(crate::CoreError::UnknownSavepoint(_))
    ));
    assert!(matches!(
        compensation_round(&mut rec, missing),
        Err(crate::CoreError::UnknownSavepoint(_))
    ));
}

#[test]
fn marker_only_round_reaches_target_without_ops() {
    let mut rec = record(RollbackMode::Optimized, LoggingMode::State);
    let target = savepoint(&mut rec, "A");
    // Entering B immediately: marker savepoint, no steps at all.
    let _marker = savepoint(&mut rec, "B");
    let (start, rounds) = run_rollback(&mut rec, target);
    assert_eq!(start, StartPlan::Go(Destination::Local));
    assert_eq!(rounds.len(), 1);
    assert_eq!(rounds[0].op_count(), 0);
    match &rounds[0].after {
        AfterRound::Reached(plan) => assert_eq!(plan.savepoint, target),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn marker_target_resolves_referenced_image() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    rec.data.set_sro("notes", Value::from(42i64));
    let _outer = savepoint(&mut rec, "A"); // full image, notes=42
    let marker = savepoint(&mut rec, "B"); // marker → A
    rec.data.set_sro("notes", Value::from(99i64)); // changed during step
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r0")]);
    let (_, rounds) = run_rollback(&mut rec, marker);
    match &rounds.last().unwrap().after {
        AfterRound::Reached(plan) => {
            assert_eq!(plan.savepoint, marker);
            assert_eq!(plan.sro.get("notes").and_then(Value::as_i64), Some(42));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn transition_logging_restores_via_shadow() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::Transition);
    rec.data.set_sro("notes", Value::from(1i64));
    let target = savepoint(&mut rec, "A"); // shadow := notes=1
    rec.data.set_sro("notes", Value::from(2i64));
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r0")]);
    let _b = savepoint(&mut rec, "B"); // delta: notes 2→1; shadow := 2
    rec.data.set_sro("notes", Value::from(3i64));
    commit_step(&mut rec, 2, &[(EntryKind::Resource, "r1")]);

    let (_, rounds) = run_rollback(&mut rec, target);
    match &rounds.last().unwrap().after {
        AfterRound::Reached(plan) => {
            assert_eq!(
                plan.sro.get("notes").and_then(Value::as_i64),
                Some(1),
                "shadow must have been rolled back through B's delta"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn corrupt_log_is_detected() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    // An operation entry with no BOS/EOS framing.
    rec.log.push(LogEntry::Operation(OpEntry {
        kind: EntryKind::Resource,
        op: CompOp::new("bad", Value::Null),
        step_seq: 0,
    }));
    assert!(matches!(
        compensation_round(&mut rec, sp),
        Err(crate::CoreError::CorruptLog(_))
    ));
}

// ---- batching layer ---------------------------------------------------------

use crate::planner::{plan_batch, plan_single, RollbackCursor};

/// Drives the batch planner to completion, recording each batch.
fn run_batched(rec: &mut AgentRecord, target: SavepointId) -> Vec<crate::planner::BatchPlan> {
    let mut batches = Vec::new();
    loop {
        let batch = plan_batch(rec, target).expect("batch");
        let done = matches!(batch.after, AfterRound::Reached(_));
        batches.push(batch);
        if done {
            return batches;
        }
        assert!(batches.len() < 100, "batched rollback did not terminate");
    }
}

#[test]
fn cursor_partitions_same_node_runs() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    for node in [1, 1, 1, 2, 2, 3] {
        commit_step(&mut rec, node, &[(EntryKind::Resource, "r")]);
    }
    let runs = RollbackCursor::new(&rec.log, RollbackMode::Basic, sp).runs();
    // Newest-first: 3 alone, then the node-2 pair, then the node-1 triple.
    let shape: Vec<(u32, usize)> = runs.iter().map(|r| (r.node, r.len)).collect();
    assert_eq!(shape, [(3, 1), (2, 2), (1, 3)]);
    assert_eq!(runs[2].newest_seq, 2);
    assert_eq!(runs[2].oldest_seq, 0);
    // The cursor is read-only: the log is untouched.
    assert_eq!(rec.log.last_eos().unwrap().step_seq, 5);
}

#[test]
fn cursor_stops_at_target_and_skips_savepoints() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    let _outer = savepoint(&mut rec, "A");
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r")]);
    let target = savepoint(&mut rec, "B");
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r")]);
    let _inner = savepoint(&mut rec, "C"); // savepoint *between* steps
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r")]);
    let runs = RollbackCursor::new(&rec.log, RollbackMode::Basic, target).runs();
    // Only the two steps above B; the intervening savepoint C does not
    // break the run.
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].len, 2);
}

#[test]
fn basic_mode_fuses_same_node_chain_into_one_batch() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    for _ in 0..4 {
        commit_step(
            &mut rec,
            2,
            &[(EntryKind::Resource, "r"), (EntryKind::Agent, "a")],
        );
    }
    let batches = run_batched(&mut rec, sp);
    assert_eq!(batches.len(), 1, "one transaction instead of four");
    assert_eq!(batches[0].rounds_fused(), 4);
    assert_eq!(batches[0].step_node(), Some(2));
    // Ops still newest-first across the fused steps.
    let seqs: Vec<u64> = batches[0].steps.iter().map(|s| s.step_seq).collect();
    assert_eq!(seqs, [3, 2, 1, 0]);
    assert_eq!(batches[0].op_count(), 8);
    match &batches[0].after {
        AfterRound::Reached(plan) => assert_eq!(plan.savepoint, sp),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(rec.log.len(), 1, "log popped down to the savepoint");
}

#[test]
fn optimized_mode_fuses_rce_lists_and_isolates_mixed_steps() {
    let mut rec = record(RollbackMode::Optimized, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r0")]);
    commit_step(
        &mut rec,
        1,
        &[(EntryKind::Resource, "r1"), (EntryKind::Agent, "a1")],
    );
    commit_step(&mut rec, 1, &[(EntryKind::Mixed, "x2")]);
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r3")]);
    let batches = run_batched(&mut rec, sp);
    // Newest-first: [step3], [step2 mixed, solo], [steps 1+0 fused].
    let shape: Vec<usize> = batches.iter().map(|b| b.rounds_fused()).collect();
    assert_eq!(shape, [1, 1, 2]);
    assert!(batches[1].steps[0].mixed);
    // The fused batch ships ONE list carrying both steps' RCEs,
    // newest-first, and keeps the ACE local.
    let rces: Vec<&str> = batches[2]
        .remote_rces()
        .map(|o| o.op.name.as_str())
        .collect();
    assert_eq!(rces, ["r1", "r0"]);
    let locals: Vec<&str> = batches[2].local_ops().map(|o| o.op.name.as_str()).collect();
    assert_eq!(locals, ["a1"]);
}

#[test]
fn different_nodes_do_not_fuse() {
    let mut rec = record(RollbackMode::Optimized, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    commit_step(&mut rec, 1, &[(EntryKind::Resource, "r0")]);
    commit_step(&mut rec, 2, &[(EntryKind::Resource, "r1")]);
    let batches = run_batched(&mut rec, sp);
    assert_eq!(batches.len(), 2);
    assert_eq!(batches[0].step_node(), Some(2));
    assert_eq!(batches[1].step_node(), Some(1));
}

#[test]
fn savepoints_only_batch_is_empty_and_reaches() {
    let mut rec = record(RollbackMode::Optimized, LoggingMode::State);
    let target = savepoint(&mut rec, "A");
    let _marker = savepoint(&mut rec, "B");
    let batch = plan_batch(&mut rec, target).unwrap();
    assert_eq!(batch.rounds_fused(), 0);
    assert_eq!(batch.step_node(), None);
    assert!(!batch.has_remote_rces());
    match &batch.after {
        AfterRound::Reached(plan) => assert_eq!(plan.savepoint, target),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn plan_single_never_fuses() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    let sp = savepoint(&mut rec, "S");
    for _ in 0..3 {
        commit_step(&mut rec, 2, &[(EntryKind::Resource, "r")]);
    }
    let batch = plan_single(&mut rec, sp).unwrap();
    assert_eq!(batch.rounds_fused(), 1);
    match &batch.after {
        AfterRound::Continue(d) => assert_eq!(*d, Destination::Node(2)),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn batch_rejects_unknown_savepoint() {
    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    savepoint(&mut rec, "S");
    assert!(matches!(
        plan_batch(&mut rec, SavepointId(777)),
        Err(crate::CoreError::UnknownSavepoint(_))
    ));
}

/// Regression for the marker-cycle bound: a legitimate chain is followed no
/// matter how long, while an actual reference cycle still errors (the old
/// hop bound used the *post-rollback* segment count, which a visited set
/// replaces exactly).
#[test]
fn marker_chains_resolve_and_cycles_error() {
    use crate::log::{LogEntry, SpEntry, SroPayload};
    use mar_itinerary::Cursor;

    let mut rec = record(RollbackMode::Basic, LoggingMode::State);
    let push_sp = |rec: &mut AgentRecord, id: u64, sro: SroPayload| {
        let cursor = Cursor::new(&rec.itinerary);
        rec.log.push(LogEntry::Savepoint(SpEntry {
            id: SavepointId(id),
            sub_id: None,
            explicit: true,
            cursor,
            table: rec.table.clone(),
            sro,
        }));
    };
    // A long legitimate chain: SP0 carries the image, SP1..SP8 are markers.
    push_sp(&mut rec, 0, SroPayload::Full(crate::data::ObjectMap::new()));
    for id in 1..=8u64 {
        push_sp(&mut rec, id, SroPayload::Ref(SavepointId(id - 1)));
    }
    match start_rollback(&rec, SavepointId(8)).unwrap() {
        StartPlan::AlreadyAtTarget(plan) => assert_eq!(plan.savepoint, SavepointId(8)),
        other => panic!("unexpected {other:?}"),
    }

    // A corrupt two-marker cycle must be detected, not spun on.
    let mut bad = record(RollbackMode::Basic, LoggingMode::State);
    push_sp(&mut bad, 1, SroPayload::Ref(SavepointId(2)));
    push_sp(&mut bad, 2, SroPayload::Ref(SavepointId(1)));
    assert!(matches!(
        start_rollback(&bad, SavepointId(2)),
        Err(crate::CoreError::CorruptLog(_))
    ));
}

/// Random forward histories: basic and optimized rollback must produce the
/// same restore plan and compensate the same multiset of operations.
fn arb_steps() -> impl Strategy<Value = Vec<(u32, Vec<EntryKind>)>> {
    proptest::collection::vec(
        (
            1u32..5,
            proptest::collection::vec(
                prop_oneof![
                    Just(EntryKind::Resource),
                    Just(EntryKind::Agent),
                    Just(EntryKind::Mixed),
                ],
                0..4,
            ),
        ),
        1..8,
    )
}

proptest! {
    #[test]
    fn modes_compensate_identically(steps in arb_steps()) {
        let build = |mode: RollbackMode| {
            let mut rec = record(mode, LoggingMode::State);
            let sp = savepoint(&mut rec, "S");
            for (node, kinds) in &steps {
                let ops: Vec<(EntryKind, &str)> =
                    kinds.iter().map(|k| (*k, "op")).collect();
                commit_step(&mut rec, *node, &ops);
            }
            (rec, sp)
        };
        let (mut basic, sp_b) = build(RollbackMode::Basic);
        let (mut opt, sp_o) = build(RollbackMode::Optimized);
        let (_, rounds_b) = run_rollback(&mut basic, sp_b);
        let (_, rounds_o) = run_rollback(&mut opt, sp_o);

        // Same number of rounds (one per step).
        prop_assert_eq!(rounds_b.len(), rounds_o.len());
        for (rb, ro) in rounds_b.iter().zip(&rounds_o) {
            prop_assert_eq!(rb.step_seq, ro.step_seq);
            // Same multiset of operations, wherever they run.
            prop_assert_eq!(rb.op_count(), ro.op_count());
            // Basic never ships.
            prop_assert!(rb.remote_rces.is_empty());
            // Optimized ships RCEs exactly when the step has no mixed entry.
            if ro.mixed {
                prop_assert!(ro.remote_rces.is_empty());
            } else {
                prop_assert!(ro
                    .remote_rces
                    .iter()
                    .all(|o| o.kind == EntryKind::Resource));
                prop_assert!(ro
                    .local_ops
                    .iter()
                    .all(|o| o.kind == EntryKind::Agent));
            }
        }
        // Identical restore plans.
        match (&rounds_b.last().unwrap().after, &rounds_o.last().unwrap().after) {
            (AfterRound::Reached(a), AfterRound::Reached(b)) => {
                prop_assert_eq!(&a.sro, &b.sro);
                prop_assert_eq!(a.savepoint, sp_b);
                prop_assert_eq!(b.savepoint, sp_o);
            }
            other => prop_assert!(false, "both must reach: {other:?}"),
        }
        // Both logs end with just the savepoint.
        prop_assert_eq!(basic.log.len(), 1);
        prop_assert_eq!(opt.log.len(), 1);
    }

    /// The optimized planner's agent transfers equal the number of
    /// mixed-entry steps; the basic planner always transfers once per step.
    #[test]
    fn transfer_counts_match_theory(steps in arb_steps()) {
        let mut rec = record(RollbackMode::Optimized, LoggingMode::State);
        let sp = savepoint(&mut rec, "S");
        let mut mixed_steps = 0;
        for (node, kinds) in &steps {
            let ops: Vec<(EntryKind, &str)> = kinds.iter().map(|k| (*k, "op")).collect();
            if kinds.contains(&EntryKind::Mixed) {
                mixed_steps += 1;
            }
            commit_step(&mut rec, *node, &ops);
        }
        let (start, rounds) = run_rollback(&mut rec, sp);
        let mut transfers = match start {
            StartPlan::Go(Destination::Node(_)) => 1,
            _ => 0,
        };
        for r in &rounds {
            if let AfterRound::Continue(Destination::Node(_)) = r.after {
                transfers += 1;
            }
        }
        prop_assert_eq!(transfers, mixed_steps, "one transfer per mixed step");
    }
}
