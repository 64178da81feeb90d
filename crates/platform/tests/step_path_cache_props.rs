//! Equivalence of the resident-record step path with the decode-every-step
//! control: for random itineraries × both logging modes × crash injection
//! at every step boundary, a run with the resident cache **on** must be
//! indistinguishable — in everything durable — from the identical run with
//! the cache **off**:
//!
//! * byte-identical stable storage on every node at quiescence (queues,
//!   resource snapshots, 2PC records, sequence counters);
//! * identical final agent records and reports (outcome, committed steps,
//!   serialized record bytes);
//! * identical step/rollback/transfer metrics (cache hit/miss counters are
//!   the *only* permitted difference).
//!
//! Crash semantics are the paper's: the cache is volatile, so a node
//! restart recovers purely from stable bytes — which the splice encoder
//! keeps byte-identical to the wholesale re-encode. The property is checked
//! on the reference stable backend and re-run with the WAL backend
//! substituted, since the splice path is exactly the workload group commit
//! batches.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;

use common::{build_platform, stable_dump, step_name, GenStep};
use mar_core::{LoggingMode, RollbackMode};
use mar_platform::{AgentSpec, ReportOutcome};
use mar_simnet::{NodeId, SimDuration, StableFactory, WalConfig};
use mar_wire::Value;

const NODES: u32 = 4;

/// Everything durable about a finished run.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    outcome: ReportOutcome,
    steps_committed: u64,
    finished_at_us: u64,
    record_bytes: Vec<u8>,
    /// Per-node dump of the complete stable store.
    stable: Vec<BTreeMap<String, Vec<u8>>>,
    steps_metric: u64,
    rollbacks: u64,
    transfer_bytes: u64,
    /// Cache hits — the one counter allowed to differ between the arms.
    resident_hits: u64,
}

/// Runs the generated scenario to completion, optionally crashing the node
/// holding the agent right after `crash_after_steps` step commits.
fn run(
    seed: u64,
    steps: &[GenStep],
    rollback_at: Option<usize>,
    logging: LoggingMode,
    cache: bool,
    crash_after_steps: Option<u64>,
    stable: &StableFactory,
) -> RunFingerprint {
    let mut p = build_platform(NODES, seed, 1, cache, stable);
    let it = {
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
    };
    let mut spec = AgentSpec::new("scripted", NodeId(0), it);
    spec.logging = logging;
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
        "scenario must settle (cache={cache})"
    );
    let report = p.report(agent).expect("report");
    let record_bytes = report.record.to_bytes().expect("record encodes");
    let stable = stable_dump(&p);
    let m = p.snapshot();
    RunFingerprint {
        outcome: report.outcome,
        steps_committed: report.steps_committed,
        finished_at_us: report.finished_at_us,
        record_bytes,
        stable,
        steps_metric: m.counter("steps.committed"),
        rollbacks: m.counter("rollback.completed"),
        transfer_bytes: m.counter("agent.transfer_bytes.forward")
            + m.counter("agent.transfer_bytes.rollback"),
        resident_hits: m.counter("resident.hits"),
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
    assert_eq!(on.steps_metric, off.steps_metric, "{label}: step metric");
    assert_eq!(on.rollbacks, off.rollbacks, "{label}: rollbacks");
    assert_eq!(
        on.transfer_bytes, off.transfer_bytes,
        "{label}: transfer bytes"
    );
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random itineraries (with and without a rollback step), both logging
    /// modes, no failures: cache on ≡ cache off.
    #[test]
    fn resident_cache_is_observationally_invisible(
        seed in 0u64..1_000,
        raw in proptest::collection::vec((0u8..4, 1u32..NODES), 2..7),
        rollback in 0usize..4,
        logging in prop_oneof![Just(LoggingMode::State), Just(LoggingMode::Transition)],
    ) {
        let steps: Vec<GenStep> = raw.iter().map(|&(kind, node)| GenStep { kind, node }).collect();
        // `rollback == 0` means "no rollback step".
        let rollback_at = (rollback > 0).then(|| rollback - 1);
        let reference = StableFactory::reference();
        let on = run(seed, &steps, rollback_at, logging, true, None, &reference);
        let off = run(seed, &steps, rollback_at, logging, false, None, &reference);
        assert_equivalent(&on, &off, "no-crash");
        prop_assert_eq!(&on.outcome, &ReportOutcome::Completed);
    }

    /// Same, under a crash of the node holding the agent at a random step
    /// boundary: recovery re-decodes from the spliced stable bytes, and
    /// both arms converge to the identical durable state.
    #[test]
    fn crash_recovery_is_identical_with_cache_on_and_off(
        seed in 0u64..1_000,
        raw in proptest::collection::vec((0u8..4, 1u32..NODES), 2..6),
        crash_after in 0u64..6,
        logging in prop_oneof![Just(LoggingMode::State), Just(LoggingMode::Transition)],
    ) {
        let steps: Vec<GenStep> = raw.iter().map(|&(kind, node)| GenStep { kind, node }).collect();
        let reference = StableFactory::reference();
        let on = run(seed, &steps, None, logging, true, Some(crash_after), &reference);
        let off = run(seed, &steps, None, logging, false, Some(crash_after), &reference);
        assert_equivalent(&on, &off, "crash");
        prop_assert_eq!(&on.outcome, &ReportOutcome::Completed);
    }
}

/// The fixed same-node-run itinerary the exhaustive sweeps use: the
/// resident cache's best case.
fn sweep_steps() -> Vec<GenStep> {
    [
        (0u8, 1u32),
        (2, 1),
        (0, 1), // same-node run: resident steps
        (1, 2),
        (0, 2),
        (0, 3),
    ]
    .iter()
    .map(|&(kind, node)| GenStep { kind, node })
    .collect()
}

/// Exhaustive (non-random) sweep: one fixed itinerary with consecutive
/// same-node runs crashed after every single step boundary in turn.
/// Recovery from the spliced bytes must be byte-equivalent to the
/// decode-every-step control at each boundary, on the given backend.
fn sweep_every_boundary(stable: &StableFactory) {
    let steps = sweep_steps();
    let backend = stable.name();
    for boundary in 0..=(steps.len() as u64) {
        let on = run(
            7,
            &steps,
            None,
            LoggingMode::State,
            true,
            Some(boundary),
            stable,
        );
        let off = run(
            7,
            &steps,
            None,
            LoggingMode::State,
            false,
            Some(boundary),
            stable,
        );
        assert_equivalent(&on, &off, &format!("boundary {boundary} ({backend})"));
        assert_eq!(
            on.outcome,
            ReportOutcome::Completed,
            "boundary {boundary} ({backend})"
        );
        assert_eq!(
            on.steps_committed,
            steps.len() as u64,
            "boundary {boundary} ({backend})"
        );
        // The equivalence is not vacuous: the same-node runs really were
        // served from the resident cache, and the control never was.
        assert!(
            on.resident_hits > 0,
            "boundary {boundary} ({backend}): no cache hits"
        );
        assert_eq!(off.resident_hits, 0, "boundary {boundary} ({backend})");
    }
}

#[test]
fn crash_at_every_step_boundary_recovers_identically() {
    sweep_every_boundary(&StableFactory::reference());
}

/// The same exhaustive sweep with the WAL backend substituted: the spliced
/// queue writes become group-committed log records, and every step-boundary
/// crash recovers by replaying the live segments instead of a map copy.
#[test]
fn crash_at_every_step_boundary_recovers_identically_on_wal() {
    // Small segments make several rolls and cleans happen inside the
    // sweep, so boundaries land before, between, and after them.
    sweep_every_boundary(&StableFactory::wal(WalConfig {
        checkpoint_bytes: 4 * 1024,
        path: None,
    }));
}
