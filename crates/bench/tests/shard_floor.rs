//! The sharded kernel's one wall-clock floor: on a 1000-agent fleet with
//! homes spread over 32 nodes, 4 worker shards at least halve the critical
//! path of the sequential schedule. Everything simulated is shard-invariant
//! (`shard_equivalence_props.rs`), so the floor is all there is to say about
//! the shards' worth here.
//!
//! The critical path is Σ over conservative windows of the slowest shard's
//! busy time, from the profiled engine: the settle cost of an ideal parallel
//! run of the schedule, whatever the host's core count. Debug builds time a
//! different program, so the test runs in release only:
//!
//! ```sh
//! cargo test -q --release -p mar-bench --test shard_floor
//! ```

use mar_bench::FleetScenario;

/// Profiled runs per shard count. Preemption only ever adds busy time, so
/// the minimum is the estimate of the schedule's own cost.
const SAMPLES: usize = 5;

/// The fleet's critical path in nanoseconds at `shards` worker shards.
fn critical_ns(shards: usize) -> u64 {
    let fleet = FleetScenario {
        agents: 1000,
        nodes: 32,
        steps: 2,
        seed: 31,
        shards,
        home_spread: true,
    };
    let (mut p, handles) = fleet.start();
    p.world_mut().set_shard_profiling(true);
    fleet.settle(&mut p, &handles);
    p.world().shard_profile().critical_ns
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock floor: ci.sh runs it in release"
)]
fn four_shards_at_least_halve_the_critical_path_of_a_1000_agent_fleet() {
    // The three arms take turns within each sample, so drift of the
    // machine's load hits all of them alike.
    let mut best = [u64::MAX; 3];
    for _ in 0..SAMPLES {
        for (best, shards) in best.iter_mut().zip([1, 2, 4]) {
            *best = (*best).min(critical_ns(shards));
        }
    }
    let ms = best.map(|ns| ns as f64 / 1e6);
    let speedup4 = ms[0] / ms[2];
    eprintln!(
        "critical path: {:.1} / {:.1} / {:.1} ms at 1 / 2 / 4 shards, {speedup4:.2}x at 4",
        ms[0], ms[1], ms[2]
    );
    assert!(
        speedup4 >= 2.0,
        "4 shards must at least halve the 1k-agent fleet's critical path, got {speedup4:.2}x"
    );
}
