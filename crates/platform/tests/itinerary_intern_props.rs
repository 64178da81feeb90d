//! Equivalence of content-addressed itinerary interning with the
//! ship-inline-every-hop control: for generated scenarios × crash injection
//! at every step boundary × shard counts {1, 2, 4}, a run with interning
//! **on** must be indistinguishable — in everything durable and everything
//! timed — from the identical run with interning **off**:
//!
//! * byte-identical stable storage on every node at quiescence (queues
//!   always hold the inline form: references never reach stable bytes);
//! * identical reports (outcome, committed steps, completion time, final
//!   record bytes);
//! * identical counters (the `itinerary.*` family is the *only* permitted
//!   difference) and a byte-identical kernel trace — reference-compressed
//!   `Prepare`s are billed at their inline size, so send/deliver timelines
//!   cannot drift.
//!
//! Crash semantics: nothing of the intern table or the known-hash sets is
//! persisted. A recovered *sender* ships inline until it re-advertises; a
//! recovered *receiver* re-derives intern entries from the queue items
//! still durable in its own `q/` (the same intern-on-receipt rule applied
//! at recovery admission), which keeps pre-crash advertisements pointing
//! at hashes the node really holds. The sweep crashes the node holding the
//! agent after every step boundary in turn, on the reference backend and
//! the WAL backend.
//!
//! The degraded paths get their own (deliberately non-timed) coverage:
//! a reference that reaches a receiver which no longer holds the itinerary
//! (it crashed with an empty queue) must fall back to `ItineraryMiss`/inline
//! retransmission without changing any agent-visible outcome, and
//! unknown-hash or truncated/garbled reference frames from the wire must
//! never corrupt a node or enqueue a record. (Eviction order, and an evicted
//! hash refusing its reference, are unit tests of the table itself.)

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;

use common::{
    build_platform_itin, stable_dump, step_name, strip_engine_counters, strip_itinerary_counters,
    GenStep,
};
use mar_core::itinspan::{encode_ref, itinerary_span, splice_span};
use mar_core::{AgentId, AgentRecord, ItinerarySlot, LoggingMode, RollbackMode};
use mar_platform::{AgentSpec, MoleMsg, ReportOutcome, MOLE};
use mar_simnet::{Address, NodeId, SimDuration, StableFactory, TraceRecord, WalConfig};
use mar_txn::{RemoteWork, TxMsg, TxnId};
use mar_wire::Value;

const NODES: u32 = 4;

/// Everything durable — and everything timed — about a finished run.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    outcome: ReportOutcome,
    steps_committed: u64,
    finished_at_us: u64,
    record_bytes: Vec<u8>,
    /// Per-node dump of the complete stable store.
    stable: Vec<BTreeMap<String, Vec<u8>>>,
    /// All counters except the engine- and `itinerary.*` families.
    counters: BTreeMap<String, u64>,
    /// The complete kernel event trace (sends, deliveries, timers…).
    trace: Vec<TraceRecord>,
    /// `itinerary.*` observability, kept out of the equivalence but used
    /// for the non-vacuity checks.
    ref_transfers: u64,
    refetches: u64,
}

fn itinerary_for(steps: &[GenStep], rollback_at: Option<usize>) -> mar_itinerary::Itinerary {
    let mut b = mar_itinerary::ItineraryBuilder::main("I");
    b = b.sub("S", |s| {
        for (i, g) in steps.iter().enumerate() {
            s.step(step_name(g.kind, i), g.node);
        }
        if let Some(at) = rollback_at {
            s.step(format!("rbk#{}", steps.len()), steps[at % steps.len()].node);
        }
    });
    b.build().expect("valid generated itinerary")
}

/// Runs the generated scenario to completion, optionally crashing the node
/// holding the agent right after `crash_after_steps` step commits.
fn run(
    seed: u64,
    steps: &[GenStep],
    rollback_at: Option<usize>,
    shards: usize,
    interning: bool,
    crash_after_steps: Option<u64>,
    stable: &StableFactory,
) -> RunFingerprint {
    let mut p = build_platform_itin(NODES, seed, shards, interning, stable);
    let mut spec = AgentSpec::new("scripted", NodeId(0), itinerary_for(steps, rollback_at));
    spec.logging = LoggingMode::State;
    spec.mode = RollbackMode::Optimized;
    spec.data.set_sro("notes", Value::list([]));
    let agent = p.launch(spec);

    // Drive by hand so the crash lands exactly at a step boundary: the
    // first poll at which `steps.committed` crosses the threshold.
    if let Some(after) = crash_after_steps {
        let mut crashed = false;
        for _ in 0..3_000 {
            p.run_for(SimDuration::from_millis(2));
            if !crashed && p.snapshot().counter("steps.committed") >= after {
                let holder = p
                    .queued_agents()
                    .iter()
                    .find(|(_, id)| *id == agent.id())
                    .map(|(n, _)| *n);
                if let Some(n) = holder {
                    p.world_mut().crash_for(n, SimDuration::from_millis(300));
                    crashed = true;
                }
            }
            if p.report(agent).is_some() {
                break;
            }
        }
    }
    assert!(
        p.run_until_settled(&[agent], SimDuration::from_secs(600)),
        "scenario must settle (interning={interning})"
    );
    let report = p.report(agent).expect("report");
    let record_bytes = report.record.to_bytes().expect("record encodes");
    let stable = stable_dump(&p);
    let m = p.snapshot();
    let trace = p.world().trace().records().to_vec();
    let ref_transfers = m.counter("itinerary.ref_transfers");
    let refetches = m.counter("itinerary.refetches");
    RunFingerprint {
        outcome: report.outcome,
        steps_committed: report.steps_committed,
        finished_at_us: report.finished_at_us,
        record_bytes,
        stable,
        counters: strip_itinerary_counters(strip_engine_counters(m.counters)),
        trace,
        ref_transfers,
        refetches,
    }
}

fn assert_equivalent(on: &RunFingerprint, off: &RunFingerprint, label: &str) {
    assert_eq!(on.outcome, off.outcome, "{label}: outcome");
    assert_eq!(
        on.steps_committed, off.steps_committed,
        "{label}: committed steps"
    );
    assert_eq!(
        on.finished_at_us, off.finished_at_us,
        "{label}: completion time"
    );
    assert_eq!(
        on.record_bytes, off.record_bytes,
        "{label}: final record bytes"
    );
    assert_eq!(on.counters, off.counters, "{label}: counters");
    for (i, (a, b)) in on.stable.iter().zip(&off.stable).enumerate() {
        assert_eq!(
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>(),
            "{label}: stable keys on node {i}"
        );
        for (k, va) in a {
            assert_eq!(
                Some(va),
                b.get(k),
                "{label}: stable bytes for {k:?} on node {i}"
            );
        }
    }
    assert_eq!(
        on.trace.len(),
        off.trace.len(),
        "{label}: trace record count"
    );
    for (i, (a, b)) in on.trace.iter().zip(&off.trace).enumerate() {
        assert_eq!(a, b, "{label}: trace record {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random itineraries (with and without a rollback step), failure-free,
    /// at every pinned shard count: interning on ≡ interning off.
    #[test]
    fn interning_is_observationally_invisible(
        seed in 0u64..1_000,
        raw in proptest::collection::vec((0u8..4, 1u32..NODES), 2..7),
        rollback in 0usize..4,
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let steps: Vec<GenStep> = raw.iter().map(|&(kind, node)| GenStep { kind, node }).collect();
        // `rollback == 0` means "no rollback step".
        let rollback_at = (rollback > 0).then(|| rollback - 1);
        let reference = StableFactory::reference();
        let on = run(seed, &steps, rollback_at, shards, true, None, &reference);
        let off = run(seed, &steps, rollback_at, shards, false, None, &reference);
        assert_equivalent(&on, &off, &format!("no-crash s{shards}"));
        prop_assert_eq!(&on.outcome, &ReportOutcome::Completed);
        prop_assert_eq!(off.ref_transfers, 0);
    }

    /// Same, under a crash of the node holding the agent at a random step
    /// boundary: the recovered node re-derives its intern entries from its
    /// own durable queue, so both arms converge on identical bytes *and*
    /// identical timelines.
    #[test]
    fn crash_recovery_is_identical_with_interning_on_and_off(
        seed in 0u64..1_000,
        raw in proptest::collection::vec((0u8..4, 1u32..NODES), 2..6),
        crash_after in 0u64..6,
    ) {
        let steps: Vec<GenStep> = raw.iter().map(|&(kind, node)| GenStep { kind, node }).collect();
        let reference = StableFactory::reference();
        let on = run(seed, &steps, None, 1, true, Some(crash_after), &reference);
        let off = run(seed, &steps, None, 1, false, Some(crash_after), &reference);
        assert_equivalent(&on, &off, "crash");
        prop_assert_eq!(&on.outcome, &ReportOutcome::Completed);
    }
}

/// The fixed revisit-heavy itinerary the exhaustive sweeps use: the 1→2
/// edge is traversed three times, so warm migrations really do ship
/// references (the interning best case), and the crash sweep lands on both
/// past senders and past receivers of advertised hashes.
fn sweep_steps() -> Vec<GenStep> {
    [
        (0u8, 1u32),
        (1, 2),
        (0, 1),
        (2, 2), // second 1→2 traversal: ships a reference when warm
        (0, 3),
        (0, 1),
        (0, 2), // third 1→2 traversal
    ]
    .iter()
    .map(|&(kind, node)| GenStep { kind, node })
    .collect()
}

/// Exhaustive (non-random) sweep: the fixed revisit itinerary crashed
/// after every single step boundary in turn, compared across the arms at
/// the given shard count on the given backend.
fn sweep_every_boundary(stable: &StableFactory, shards: usize) {
    let steps = sweep_steps();
    let backend = stable.name();
    for boundary in 0..=(steps.len() as u64) {
        let label = format!("boundary {boundary} s{shards} ({backend})");
        let on = run(11, &steps, None, shards, true, Some(boundary), stable);
        let off = run(11, &steps, None, shards, false, Some(boundary), stable);
        assert_equivalent(&on, &off, &label);
        assert_eq!(on.outcome, ReportOutcome::Completed, "{label}");
        assert_eq!(on.steps_committed, steps.len() as u64, "{label}");
        // The equivalence is not vacuous: the repeated edges really did
        // ship references in the interning arm, and never in the control.
        assert!(on.ref_transfers > 0, "{label}: no reference transfers");
        assert_eq!(off.ref_transfers, 0, "{label}");
        // …and never by falling back to the NACK path: the timelines above
        // could not have matched otherwise.
        assert_eq!(on.refetches, 0, "{label}: unexpected refetch");
    }
}

#[test]
fn crash_at_every_step_boundary_is_identical_at_shard_1() {
    sweep_every_boundary(&StableFactory::reference(), 1);
}

#[test]
fn crash_at_every_step_boundary_is_identical_at_shard_2() {
    sweep_every_boundary(&StableFactory::reference(), 2);
}

#[test]
fn crash_at_every_step_boundary_is_identical_at_shard_4() {
    sweep_every_boundary(&StableFactory::reference(), 4);
}

/// The same sweep with the WAL backend substituted: queue writes become
/// group-committed log records and recovery replays the live segments.
#[test]
fn crash_at_every_step_boundary_is_identical_on_wal() {
    let wal = StableFactory::wal(WalConfig {
        checkpoint_bytes: 4 * 1024,
        path: None,
    });
    sweep_every_boundary(&wal, 1);
    sweep_every_boundary(&wal, 2);
}

// ---------------------------------------------------------------------------
// Degraded paths: NACKs and hostile frames.
// ---------------------------------------------------------------------------

/// Agent-visible outcome only — what the degraded paths must preserve
/// (their extra round-trips legitimately shift completion times).
#[derive(Debug, PartialEq)]
struct OutcomeFingerprint {
    outcomes: Vec<ReportOutcome>,
    steps: Vec<u64>,
    records: Vec<Vec<u8>>,
}

/// Two agents of one type (one itinerary, one hash) walk 1 → 2 → 3, the
/// second only after the first has finished and node 2 has crashed and
/// recovered. Node 2's queue was empty at the crash, so its recovered intern
/// table is too — while node 1 still believes, from the first agent's
/// committed transfer, that node 2 holds the itinerary, and ships the second
/// agent by reference.
fn run_crash_cold_receiver(interning: bool) -> (OutcomeFingerprint, u64, u64) {
    let reference = StableFactory::reference();
    let mut p = build_platform_itin(NODES, 23, 1, interning, &reference);
    let steps: Vec<GenStep> = [(0u8, 1u32), (1, 2), (0, 3)]
        .iter()
        .map(|&(kind, node)| GenStep { kind, node })
        .collect();
    let spec = || {
        let mut spec = AgentSpec::new("scripted", NodeId(0), itinerary_for(&steps, None));
        spec.logging = LoggingMode::State;
        spec.mode = RollbackMode::Optimized;
        spec.data.set_sro("notes", Value::list([]));
        spec
    };
    let first = p.launch(spec());
    assert!(p.run_until_settled(&[first], SimDuration::from_secs(600)));
    assert!(p.queued_agents().is_empty(), "node 2 holds no record");
    p.world_mut()
        .crash_for(NodeId(2), SimDuration::from_millis(100));
    p.run_for(SimDuration::from_millis(200));
    let second = p.launch(spec());
    assert!(
        p.run_until_settled(&[second], SimDuration::from_secs(600)),
        "the second agent must settle (interning={interning})"
    );
    let mut fp = OutcomeFingerprint {
        outcomes: Vec::new(),
        steps: Vec::new(),
        records: Vec::new(),
    };
    for h in [first, second] {
        let r = p.report(h).expect("report");
        fp.outcomes.push(r.outcome.clone());
        fp.steps.push(r.steps_committed);
        fp.records
            .push(r.record.to_bytes().expect("record encodes"));
    }
    let m = p.snapshot();
    (
        fp,
        m.counter("itinerary.refetches"),
        m.counter("itinerary.ref_transfers"),
    )
}

/// A reference shipped on a pre-crash advertisement to a receiver that came
/// back cold must degrade to NACK + inline retransmit, never to a wrong
/// itinerary or a stuck agent, and the agent-visible outcome must match the
/// interning-off control exactly.
#[test]
fn crash_cold_receiver_degrades_to_nack_and_inline() {
    let (on, refetches, ref_transfers) = run_crash_cold_receiver(true);
    let (off, off_refetches, off_ref_transfers) = run_crash_cold_receiver(false);
    assert_eq!(on, off, "degraded outcome must match the control");
    for o in &on.outcomes {
        assert_eq!(o, &ReportOutcome::Completed);
    }
    assert!(ref_transfers > 0, "the second agent must ship by reference");
    assert!(
        refetches > 0,
        "the stale advertisement must exercise the NACK path"
    );
    assert_eq!((off_refetches, off_ref_transfers), (0, 0));
}

/// Builds an encoded agent record whose itinerary section is replaced by
/// `section` — the raw material for hostile `Prepare` frames.
fn record_with_itinerary_section(section: &[u8]) -> Vec<u8> {
    let mut data = mar_core::DataSpace::new();
    data.set_wro("w", Value::from(1i64));
    let record = AgentRecord::new(
        AgentId(999),
        "scripted",
        0,
        data,
        mar_itinerary::samples::fig6(),
        LoggingMode::State,
        RollbackMode::Optimized,
    );
    let bytes = record.to_bytes().expect("record encodes");
    let span = itinerary_span(&bytes).expect("span");
    splice_span(&bytes, span, section)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hostile reference frames off the wire — unknown hashes, truncated
    /// reference framing, raw garbage in the itinerary section — must
    /// degrade to the NACK/ignore path: the victim node keeps serving its
    /// real agent, never enqueues the hostile record, and never panics.
    #[test]
    fn malformed_reference_frames_never_corrupt_a_node(
        seed in 0u64..500,
        section in prop_oneof![
            // A well-formed reference to a hash nobody interned.
            any::<u64>().prop_map(encode_ref),
            // A reference frame truncated mid-varint.
            any::<u64>().prop_map(|h| {
                let mut b = encode_ref(h);
                b.truncate(b.len().saturating_sub(1).max(1));
                b
            }),
            // Raw garbage where the itinerary section should be.
            proptest::collection::vec(any::<u8>(), 1..24),
        ],
    ) {
        let reference = StableFactory::reference();
        let mut p = build_platform_itin(NODES, seed, 1, true, &reference);
        let steps: Vec<GenStep> =
            [(0u8, 1u32), (1, 2), (0, 1)].iter().map(|&(kind, node)| GenStep { kind, node }).collect();
        let mut spec = AgentSpec::new("scripted", NodeId(0), itinerary_for(&steps, None));
        spec.logging = LoggingMode::State;
        spec.mode = RollbackMode::Optimized;
        spec.data.set_sro("notes", Value::list([]));
        let agent = p.launch(spec);

        // Inject the hostile Prepare at node 1, claiming to be node 3.
        let work = RemoteWork::new("enqueue-fwd", record_with_itinerary_section(&section));
        let msg = MoleMsg::Tx {
            from: NodeId(3),
            msg: TxMsg::Prepare {
                txn: TxnId::new(NodeId(3), 7_777),
                work,
                decide: true,
            },
            tally: Vec::new(),
        };
        p.world_mut().post(Address::new(NodeId(1), MOLE), msg.encode());

        prop_assert!(
            p.run_until_settled(&[agent], SimDuration::from_secs(600)),
            "victim node must keep settling"
        );
        let report = p.report(agent).expect("report");
        prop_assert_eq!(&report.outcome, &ReportOutcome::Completed);
        // The hostile record must never have been admitted to the queue.
        let leaked = stable_dump(&p)
            .iter()
            .flat_map(BTreeMap::keys)
            .any(|k| k.starts_with("q/") && k.contains("999"));
        prop_assert!(!leaked, "hostile record reached a stable queue");
    }
}

// ---------------------------------------------------------------------------
// Hash stability.
// ---------------------------------------------------------------------------

/// The content hash is a pure function of the tree: every construction
/// path — builder, encode/decode roundtrip, span extraction, resident
/// record — lands on the same 64-bit identity, and it is exactly the FNV
/// hash of the canonical encoding.
#[test]
fn itinerary_hash_is_stable_across_construction_paths() {
    let tree = itinerary_for(&sweep_steps(), Some(2));
    let a = ItinerarySlot::from_tree(tree.clone()).expect("slot");
    let b = ItinerarySlot::from_tree(tree.clone()).expect("slot");
    assert_eq!(a.hash(), b.hash());
    assert_eq!(a.hash(), mar_wire::content_hash64(a.as_bytes()));

    // Through a full record encode and span extraction.
    let mut data = mar_core::DataSpace::new();
    data.set_sro("notes", Value::list([]));
    let record = AgentRecord::new(
        AgentId(7),
        "scripted",
        0,
        data,
        tree.clone(),
        LoggingMode::State,
        RollbackMode::Optimized,
    );
    let bytes = record.to_bytes().expect("record encodes");
    let span = itinerary_span(&bytes).expect("span");
    let c = ItinerarySlot::from_span(&bytes[span]).expect("slot");
    assert_eq!(c.hash(), a.hash());
    assert_eq!(c.materialize().expect("tree"), tree);

    // A different tree ⇒ a different identity (and a rebuilt identical
    // tree ⇒ the same one, independent of construction order).
    let other = itinerary_for(&sweep_steps(), None);
    let d = ItinerarySlot::from_tree(other).expect("slot");
    assert_ne!(d.hash(), a.hash());
    let rebuilt = ItinerarySlot::from_tree(itinerary_for(&sweep_steps(), Some(2))).expect("slot");
    assert_eq!(rebuilt.hash(), a.hash());
}
