//! Shard-count invariance of the full platform stack: random fleet
//! scenarios — several agents with generated itineraries, rollback steps,
//! and scheduled node crashes — must be *byte-identical* whether the
//! simulator runs on 1, 2, or 4 worker-thread shards:
//!
//! * byte-identical stable storage on every node at quiescence;
//! * identical agent reports (outcome, committed steps, finish time,
//!   serialized record bytes);
//! * the identical counters map — every key, not a curated subset — except
//!   `kernel.windows`, which counts conservative windows and is only
//!   emitted by the windowed (multi-shard) engines;
//! * the identical event trace, record for record.
//!
//! This is the determinism contract of the sharded runtime: event order is
//! derived from `(virtual time, origin node, per-origin sequence)`, which
//! never mentions the shard layout. The invariant is checked on the
//! reference stable backend *and* on the WAL backend — backend choice and
//! shard layout must be independent axes.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;

use common::{
    build_platform, gen_agents, gen_crashes, launch_agents, schedule_crashes, stable_dump,
    strip_engine_counters, GenAgent, GenCrash,
};
use mar_simnet::{SimDuration, StableFactory, TraceRecord, WalConfig};

const NODES: u32 = 6;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    /// Per-agent `(outcome-debug, steps_committed, finished_at_us, record bytes)`.
    reports: Vec<(String, u64, u64, Vec<u8>)>,
    /// Per-node dump of the complete stable store.
    stable: Vec<BTreeMap<String, Vec<u8>>>,
    /// The full counters map, minus engine-internal diagnostics.
    counters: BTreeMap<String, u64>,
    /// The full event trace.
    trace: Vec<TraceRecord>,
}

/// Runs the generated fleet scenario to quiescence on `shards` shards.
fn run(
    seed: u64,
    agents: &[GenAgent],
    crashes: &[GenCrash],
    shards: usize,
    stable: &StableFactory,
) -> RunFingerprint {
    let mut p = build_platform(NODES, seed, shards, true, stable);

    // Crash/recovery events are injected by the driver *before* the run, so
    // the schedule itself is trivially shard-independent; what the test
    // checks is that their consequences (dropped messages, recovery
    // replays, retries) are too.
    schedule_crashes(&mut p, NODES, crashes);
    let handles = launch_agents(&mut p, NODES, agents);

    assert!(
        p.run_until_settled(&handles, SimDuration::from_secs(600)),
        "scenario must settle (shards={shards})"
    );

    let reports = handles
        .iter()
        .map(|&h| {
            let r = p.report(h).expect("settled agent has a report");
            (
                format!("{:?}", r.outcome),
                r.steps_committed,
                r.finished_at_us,
                r.record.to_bytes().expect("record encodes"),
            )
        })
        .collect();
    let stable = stable_dump(&p);
    let counters = strip_engine_counters(p.snapshot().counters);
    let trace = p.world().trace().records().to_vec();
    assert!(!trace.is_empty(), "the run is traced (shards={shards})");
    assert_eq!(p.world().trace().dropped(), 0, "the trace is whole");
    RunFingerprint {
        reports,
        stable,
        counters,
        trace,
    }
}

fn assert_shard_invariant(
    seed: u64,
    agents: &[GenAgent],
    crashes: &[GenCrash],
    stable: &StableFactory,
) {
    let baseline = run(seed, agents, crashes, SHARD_COUNTS[0], stable);
    let backend = stable.name();
    for &shards in &SHARD_COUNTS[1..] {
        let other = run(seed, agents, crashes, shards, stable);
        assert_eq!(
            baseline.reports, other.reports,
            "agent reports diverge at shards={shards} ({backend})"
        );
        assert_eq!(
            baseline.counters, other.counters,
            "counters diverge at shards={shards} ({backend})"
        );
        assert_eq!(
            baseline.trace, other.trace,
            "trace diverges at shards={shards} ({backend})"
        );
        for (i, (a, b)) in baseline.stable.iter().zip(&other.stable).enumerate() {
            assert_eq!(
                a, b,
                "stable store diverges on node {i} at shards={shards} ({backend})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random fleets (rollbacks included) with random crash schedules are
    /// observationally identical at 1, 2, and 4 shards.
    #[test]
    fn shard_count_never_changes_observable_behaviour(
        seed in 0u64..1_000,
        agents in gen_agents(NODES),
        crashes in gen_crashes(NODES),
    ) {
        assert_shard_invariant(seed, &agents, &crashes, &StableFactory::reference());
    }

    /// The same invariant with the WAL backend substituted: group commit,
    /// segment rolls, the cleaner, and recovery replay never depend on the
    /// shard layout.
    #[test]
    fn shard_invariance_holds_on_the_wal_backend(
        seed in 0u64..1_000,
        agents in gen_agents(NODES),
        crashes in gen_crashes(NODES),
    ) {
        assert_shard_invariant(
            seed,
            &agents,
            &crashes,
            &StableFactory::wal(WalConfig::default()),
        );
    }
}

/// Deterministic pinned scenario — a fleet with rollbacks and two crashes,
/// one of which takes down an agent's home — so a regression reproduces
/// without proptest shrinking. Runs on both backends, with tiny WAL
/// segments so rolls and cleans happen mid-scenario.
#[test]
fn pinned_fleet_with_crashes_is_shard_invariant() {
    let agents = vec![
        GenAgent {
            home: 0,
            steps: vec![(0, 0), (1, 2), (0, 4), (0, 1)],
            rollback: true,
        },
        GenAgent {
            home: 2,
            steps: vec![(1, 3), (0, 0), (2, 2)],
            rollback: false,
        },
        GenAgent {
            home: 4,
            steps: vec![(0, 1), (0, 1), (1, 0), (0, 3), (0, 4)],
            rollback: true,
        },
    ];
    let crashes = vec![
        GenCrash {
            node: 1,
            at_ms: 8,
            down_ms: 25,
        },
        GenCrash {
            node: 3,
            at_ms: 15,
            down_ms: 40,
        },
    ];
    for stable in [
        StableFactory::reference(),
        StableFactory::wal(WalConfig::default()),
        StableFactory::wal(WalConfig {
            checkpoint_bytes: 512,
            path: None,
        }),
    ] {
        assert_shard_invariant(1234, &agents, &crashes, &stable);
    }
}
