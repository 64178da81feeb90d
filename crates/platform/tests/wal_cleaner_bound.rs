//! The WAL cleaner's bound on the full platform stack: a fleet whose nodes
//! each hold several queued agents — a live set far above the segment
//! floor — never makes the cleaner write more than the log.
//!
//! A segment closes only once its barriers have written as much as the
//! node holds live, and a clean copies at most that, so across a fleet the
//! cleaner's bytes stay at or under the log's
//! ([`mar_simnet::BackendStats::checkpoint_bytes`] ≤ `wal_bytes`). A roll
//! rule that closes a segment before its barriers wrote the live set, as a
//! fixed segment size smaller than the queued records does, fails here.

mod common;

use common::{build_platform, launch_agents, schedule_crashes, GenAgent, GenCrash};
use mar_simnet::{SimDuration, StableFactory, WalConfig};

const NODES: u32 = 5;

/// Forty agents of eight steps each, launched at once from every node and
/// spread over the four resource nodes, so each node queues several. Odd
/// steps push a 96-byte strongly reversible object, so records grow as
/// they travel; every eighth agent ends in a rollback.
fn queued_fleet() -> Vec<GenAgent> {
    (0..40u32)
        .map(|a| GenAgent {
            home: a % NODES,
            steps: (0..8u32).map(|i| ((i % 3) as u8, a + i)).collect(),
            rollback: a % 8 == 0,
        })
        .collect()
}

#[test]
fn a_fleet_with_queued_agents_never_cleans_more_than_it_logs() {
    let wal = StableFactory::wal(WalConfig {
        checkpoint_bytes: 1024,
        path: None,
    });
    let mut p = build_platform(NODES, 7, 1, true, &wal);
    // A node crash and recovery mid-run, as the crash benchmark has.
    schedule_crashes(
        &mut p,
        NODES,
        &[GenCrash {
            node: 1,
            at_ms: 20,
            down_ms: 40,
        }],
    );
    let handles = launch_agents(&mut p, NODES, &queued_fleet());
    assert!(
        p.run_until_settled(&handles, SimDuration::from_secs(600)),
        "the fleet settles"
    );
    let stats = p.world().stable_totals();
    assert!(stats.checkpoints > 0, "the cleaner ran: {stats:?}");
    assert!(
        stats.checkpoint_bytes <= stats.wal_bytes,
        "the cleaner wrote {} bytes, the log {}",
        stats.checkpoint_bytes,
        stats.wal_bytes
    );
}
