//! Macrobenchmarks: wall-clock cost of complete simulated scenarios — the
//! paper-figure workloads, plus the on/off control experiments the canonical
//! benchmark (`benchmark/`) has no switch for: the resident cache, itinerary
//! interning, and the 1/2/4-shard critical path. The *measured results* of
//! the paper experiments are the deterministic virtual-time metrics printed
//! by the `report` binary; every exact count an arm here publishes is pinned
//! by a test (`mar-bench`'s own, or the equivalence suites of `mar-platform`),
//! so the arms only time and record.

use mar_bench::harness::Bench;
use mar_bench::{FleetScenario, ItineraryFleetScenario, Scenario};
use mar_core::{LoggingMode, RollbackMode};
use std::hint::black_box;
use std::time::Instant;

/// Times `run(true)` against `run(false)` and derives `{name}/on_ms`,
/// `{name}/off_ms` and `{name}/off_over_on` — above 1 when the switch saves
/// wall clock. The arms alternate sample by sample, so machine drift hits
/// both alike, and each keeps its minimum: the work is deterministic, so
/// noise only ever adds time.
fn on_off(b: &mut Bench, name: &str, samples: u32, mut run: impl FnMut(bool)) {
    let mut best_ms = [f64::INFINITY; 2];
    for _ in 0..samples {
        for (best, on) in best_ms.iter_mut().zip([true, false]) {
            let start = Instant::now();
            run(on);
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let [on_ms, off_ms] = best_ms;
    eprintln!("{name:<48} {on_ms:>10.3} ms on {off_ms:>10.3} ms off");
    b.derive(format!("{name}/on_ms"), on_ms);
    b.derive(format!("{name}/off_ms"), off_ms);
    b.derive(format!("{name}/off_over_on"), off_ms / on_ms);
}

/// The savepoint-heavy scenario with pre-transfer compaction off and on:
/// the deterministic `agent.transfer_bytes.*` totals and the savings.
fn compaction_experiment(b: &mut Bench, name: &str, logging: LoggingMode, pad: usize) {
    let base = Scenario::savepoint_heavy(8, 4, pad, logging, 5);
    let off = base.clone().run();
    let on = base.with_compaction(true).run();
    let bytes_off = off.bytes_fwd + off.bytes_rbk;
    let bytes_on = on.bytes_fwd + on.bytes_rbk;
    b.derive(
        format!("compaction/{name}/transfer_bytes/raw"),
        bytes_off as f64,
    );
    b.derive(
        format!("compaction/{name}/transfer_bytes/compacted"),
        bytes_on as f64,
    );
    b.derive(
        format!("compaction/{name}/savings_pct"),
        100.0 * (1.0 - bytes_on as f64 / bytes_off as f64),
    );
    b.derive(
        format!("compaction/{name}/saved_bytes"),
        on.compaction_saved as f64,
    );
}

/// Batched compensation rounds: the same deep same-node rollback with round
/// fusion off and on — the compensation 2PC count (`rollback.batched_rounds`,
/// one per compensation transaction) and the rollback transfer bytes; in
/// optimized mode also the RCE lists the batched arm shipped.
fn batching_experiment(b: &mut Bench, name: &str, mode: RollbackMode) {
    let base = Scenario::rollback_chain(16, 4, 8, mode, 13);
    let unbatched = base.clone().with_batching(false).run();
    let batched = base.with_batching(true).run();
    b.derive(
        format!("batching/{name}/comp_2pcs/unbatched"),
        unbatched.batched_rounds as f64,
    );
    b.derive(
        format!("batching/{name}/comp_2pcs/batched"),
        batched.batched_rounds as f64,
    );
    b.derive(
        format!("batching/{name}/rounds_saved"),
        batched.rounds_saved as f64,
    );
    b.derive(
        format!("batching/{name}/rollback_transfer_bytes/unbatched"),
        unbatched.bytes_rbk as f64,
    );
    b.derive(
        format!("batching/{name}/rollback_transfer_bytes/batched"),
        batched.bytes_rbk as f64,
    );
    if mode == RollbackMode::Optimized {
        b.derive(
            format!("batching/{name}/rce_shipped/mode_split"),
            batched.rce_shipped as f64,
        );
    }
}

/// Kernel scaling: a 1000-agent fleet with homes spread over 32 nodes, run
/// at 1, 2 and 4 worker shards (everything simulated is shard-invariant —
/// `shard_equivalence_props.rs`). The recorded numbers are *critical-path*
/// settle costs from the profiled engine — Σ over conservative windows of
/// the slowest shard's busy time in that window — which measure how well the
/// parallel schedule balances independent of host core count (the
/// production threaded engine runs the identical windows).
fn sharded_fleet_experiment(b: &mut Bench) {
    // Profiling noise (scheduler preemption) only ever inflates busy time,
    // so the minimum over a few samples is the stable estimator of the
    // schedule's intrinsic cost.
    const SAMPLES: usize = 5;
    let critical_ms = [1usize, 2, 4].map(|shards| {
        let fleet = FleetScenario {
            agents: 1000,
            nodes: 32,
            steps: 2,
            seed: 31,
            resident_cache: true,
            shards,
            home_spread: true,
        };
        let sample = |_| {
            let (mut p, handles) = fleet.start();
            p.world_mut().set_shard_profiling(true);
            fleet.settle(&mut p, &handles);
            p.world().shard_profile().critical_ns
        };
        let ms = (0..SAMPLES).map(sample).min().unwrap() as f64 / 1e6;
        b.derive(
            format!("fleet_shards/agents1000/shards{shards}/critical_path_ms"),
            ms,
        );
        ms
    });
    let speedup4 = critical_ms[0] / critical_ms[2];
    b.derive(
        "fleet_shards/agents1000/speedup_shards2",
        critical_ms[0] / critical_ms[1],
    );
    b.derive("fleet_shards/agents1000/speedup_shards4", speedup4);
    assert!(
        speedup4 >= 2.0,
        "4 shards must at least halve the 1k-agent fleet's critical path, got {speedup4:.2}x"
    );
}

/// The resident-record step path: the per-node resident cache on (the
/// platform default) vs off (the decode-every-step control; it still uses
/// lazy decode + splice encode, so the ratio isolates memory residency).
/// The cache is invisible to everything simulated
/// (`step_path_cache_props.rs`); the arms record what it is worth in wall
/// clock — on same-node runs, where every step after a run's first is
/// served from it, and on two workloads that migrate on every step, where
/// it cannot help.
fn resident_cache_experiment(b: &mut Bench) {
    let forward = Scenario::forward(32, 4, 256, 42);
    on_off(b, "resident/forward32", 8, |cache| {
        black_box(forward.clone().with_resident_cache(cache).run());
    });
    let runs = Scenario::forward_runs(32, 4, 8, 256, 42);
    on_off(b, "resident/forward_runs32x8", 8, |cache| {
        black_box(runs.clone().with_resident_cache(cache).run());
    });
    b.derive(
        "resident/forward_runs32x8/resident_hits",
        runs.run().metrics.counter("resident.hits") as f64,
    );
    on_off(b, "resident/fleet100", 4, |cache| {
        black_box(
            FleetScenario {
                agents: 100,
                nodes: 4,
                steps: 3,
                seed: 29,
                resident_cache: cache,
                shards: 1,
                home_spread: false,
            }
            .run(),
        );
    });
}

/// Content-addressed itinerary interning: a warm fleet (6 agents sharing one
/// itinerary-heavy, 12-hop route) with interning on vs the
/// ship-inline-every-hop control. Both arms run the identical virtual
/// schedule (reference-compressed Prepares are billed at their inline
/// size); the derived numbers record the *actual* record-carrying migration
/// bytes, and the wall-clock arms what the intern table costs or saves.
fn itinerary_experiment(b: &mut Bench) {
    let warm = |interning| ItineraryFleetScenario {
        agents: 6,
        nodes: 4,
        laps: 6,
        name_pad: 128,
        seed: 47,
        interning,
    };
    let on = warm(true).run();
    let off = warm(false).run();
    b.derive(
        "itinerary/warm_fleet/migration_bytes/inline",
        off.migration_bytes as f64,
    );
    b.derive(
        "itinerary/warm_fleet/migration_bytes/interned",
        on.migration_bytes as f64,
    );
    b.derive(
        "itinerary/warm_fleet/byte_reduction",
        off.migration_bytes as f64 / on.migration_bytes as f64,
    );
    b.derive(
        "itinerary/warm_fleet/ref_transfers",
        on.ref_transfers as f64,
    );
    b.derive(
        "itinerary/warm_fleet/wire_bytes_saved",
        on.wire_bytes_saved as f64,
    );
    b.derive("itinerary/warm_fleet/decode_hits", on.cache_hits as f64);
    on_off(b, "itinerary/warm_fleet", 8, |interning| {
        black_box(warm(interning).run());
    });
}

fn main() {
    let mut b = Bench::new();

    for steps in [8usize, 32] {
        b.run(format!("e1_forward/steps/{steps}"), 8, 1, || {
            black_box(Scenario::forward(steps, 4, 256, 42).run());
        });
    }

    for depth in [4usize, 16] {
        b.run(
            format!("e3_rollback_depth_basic/depth/{depth}"),
            8,
            1,
            || {
                black_box(Scenario::rollback(depth, 4, None, 0, RollbackMode::Basic, 7).run());
            },
        );
    }

    b.run("e4_modes_depth12/basic", 8, 1, || {
        black_box(Scenario::rollback(12, 4, None, 256, RollbackMode::Basic, 11).run());
    });
    b.run("e4_modes_depth12/optimized", 8, 1, || {
        black_box(Scenario::rollback(12, 4, None, 256, RollbackMode::Optimized, 11).run());
    });
    b.run("e4_modes_depth12/optimized_all_mixed", 8, 1, || {
        black_box(Scenario::rollback(12, 4, Some(1), 256, RollbackMode::Optimized, 11).run());
    });

    // Pre-transfer log compaction: simulator wall-clock cost of the
    // compacting run, plus the deterministic transfer-byte before/after.
    b.run("compaction/state_pad1024/compacting_run", 8, 1, || {
        black_box(
            Scenario::savepoint_heavy(8, 4, 1024, LoggingMode::State, 5)
                .with_compaction(true)
                .run(),
        );
    });
    compaction_experiment(&mut b, "state_pad1024", LoggingMode::State, 1024);
    compaction_experiment(&mut b, "transition_pad1024", LoggingMode::Transition, 1024);

    // Batched compensation rounds: simulator wall-clock of the batched
    // run, plus the deterministic 2PC / transfer-byte before/after.
    b.run("batching/chain16x8/batched_run", 8, 1, || {
        black_box(Scenario::rollback_chain(16, 4, 8, RollbackMode::Optimized, 13).run());
    });
    batching_experiment(&mut b, "basic_chain16x8", RollbackMode::Basic);
    batching_experiment(&mut b, "optimized_chain16x8", RollbackMode::Optimized);

    sharded_fleet_experiment(&mut b);
    resident_cache_experiment(&mut b);
    itinerary_experiment(&mut b);

    b.write_report("BENCH_macro.json");
}
