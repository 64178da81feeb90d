//! Macrobenchmarks: wall-clock cost of complete simulated scenarios — one
//! per experiment family. The *measured results* of the experiments are the
//! deterministic virtual-time metrics printed by the `report` binary; these
//! benches track the simulator's own efficiency on the same workloads.

use mar_bench::harness::Bench;
use mar_bench::{FleetScenario, ItineraryFleetScenario, Scenario, StableFactory, WalConfig};
use mar_core::{LoggingMode, RollbackMode};
use mar_simnet::SimDuration;
use std::hint::black_box;

/// Runs the savepoint-heavy compaction scenario with the pre-transfer
/// compaction toggle off and on, recording the deterministic
/// `agent.transfer_bytes.*` totals and the derived savings in the report.
/// These are virtual-time metrics (identical on every machine), which makes
/// them diffable baselines for `ci.sh --bench`.
fn compaction_experiment(b: &mut Bench, name: &str, logging: LoggingMode, pad: usize) {
    let base = Scenario::savepoint_heavy(8, 4, pad, logging, 5);
    let off = base.clone().run();
    let on = base.with_compaction(true).run();
    let bytes_off = off.bytes_fwd + off.bytes_rbk;
    let bytes_on = on.bytes_fwd + on.bytes_rbk;
    assert_eq!(off.steps, on.steps, "compaction must not change execution");
    assert_eq!(off.rounds, on.rounds);
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
    eprintln!(
        "compaction/{name}: transfer bytes {bytes_off} -> {bytes_on} \
         ({:.1}% smaller, {} compaction passes)",
        100.0 * (1.0 - bytes_on as f64 / bytes_off as f64),
        on.compactions,
    );
}

/// E7 — batched compensation rounds: the same deep same-node rollback run
/// with round fusion off and on, recording the compensation 2PC count
/// (`rollback.batched_rounds` — one per compensation transaction) and the
/// rollback transfer bytes, at asserted-equal final state. A third arm adds
/// cost-model routing (ship-vs-migrate per batch) on top of batching.
fn batching_experiment(b: &mut Bench, name: &str, mode: RollbackMode) {
    let base = Scenario::rollback_chain(16, 4, 8, mode, 13);
    let unbatched = base.clone().with_batching(false).run();
    let batched = base.clone().with_batching(true).run();
    assert_eq!(
        unbatched.steps, batched.steps,
        "batching must not change execution"
    );
    assert_eq!(unbatched.rounds, batched.rounds, "same compensated steps");
    assert_eq!(
        unbatched.final_record, batched.final_record,
        "batched and unbatched rollback must reach the identical final state"
    );
    assert!(
        batched.batched_rounds < unbatched.batched_rounds,
        "batched mode must commit strictly fewer compensation 2PCs \
         ({} vs {})",
        batched.batched_rounds,
        unbatched.batched_rounds
    );
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
    eprintln!(
        "batching/{name}: compensation 2PCs {} -> {} ({} rounds fused), \
         rollback transfer bytes {} -> {}",
        unbatched.batched_rounds,
        batched.batched_rounds,
        batched.rounds_saved,
        unbatched.bytes_rbk,
        batched.bytes_rbk,
    );
    if mode == RollbackMode::Optimized {
        let routed = base.with_cost_routing(true).run();
        assert_eq!(routed.final_record, batched.final_record);
        b.derive(
            format!("batching/{name}/cost_migrations"),
            routed.cost_migrations as f64,
        );
        b.derive(
            format!("batching/{name}/rce_shipped/routed"),
            routed.rce_shipped as f64,
        );
        b.derive(
            format!("batching/{name}/rce_shipped/mode_split"),
            batched.rce_shipped as f64,
        );
    }
}

/// E8 — fleet driving through the handle API: N agents launched with one
/// `launch_fleet`, settled through home-node driver mailboxes. Records the
/// settle latency (virtual time of the last completion) and the
/// driver-cost counters that pin completion detection at O(completions):
/// exactly one mailbox event per agent, instead of the pre-handle
/// O(ticks × nodes × stable-keys) polling.
fn fleet_experiment(b: &mut Bench, agents: usize) {
    let stats = FleetScenario {
        agents,
        nodes: 4,
        steps: 3,
        seed: 29,
        resident_cache: true,
        shards: 1,
        home_spread: false,
        stable: StableFactory::reference(),
    }
    .run();
    assert_eq!(stats.mbox_events, stats.agents);
    b.derive(
        format!("fleet/agents{agents}/settle_ms"),
        stats.settle_us as f64 / 1_000.0,
    );
    b.derive(
        format!("fleet/agents{agents}/driver_mbox_events"),
        stats.mbox_events as f64,
    );
    b.derive(
        format!("fleet/agents{agents}/driver_mbox_scans"),
        stats.mbox_scans as f64,
    );
    eprintln!(
        "fleet/agents{agents}: settled in {:.1} ms virtual, {} mailbox events, \
         {} mailbox probes",
        stats.settle_us as f64 / 1_000.0,
        stats.mbox_events,
        stats.mbox_scans,
    );
}

/// E8 (sharded) — kernel scaling: a 1000-agent fleet with homes spread
/// over 32 nodes, run at 1, 2, and 4 worker shards. The asserts pin the
/// shard-count invariance of everything simulated (settle time, committed
/// steps, driver counters); the recorded numbers are *critical-path*
/// settle costs from the profiled engine — Σ over conservative windows of
/// the slowest shard's busy time in that window — which measure how well
/// the parallel schedule balances independent of host core count (the
/// production threaded engine runs the identical windows).
fn sharded_fleet_experiment(b: &mut Bench) {
    let fleet = |shards| FleetScenario {
        agents: 1000,
        nodes: 32,
        steps: 2,
        seed: 31,
        resident_cache: true,
        shards,
        home_spread: true,
        stable: StableFactory::reference(),
    };
    // Per shard count: assert invariance once, then take the *minimum*
    // critical path over a few samples — profiling noise (scheduler
    // preemption) only ever inflates busy time, so min is the stable
    // estimator of the schedule's intrinsic cost.
    const SAMPLES: usize = 3;
    let base = fleet(1).run();
    let mut critical = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut min_ns = if shards == 1 {
            base.critical_path_ns
        } else {
            let s = fleet(shards).run();
            assert_eq!(
                s.settle_us, base.settle_us,
                "shards={shards} must not change virtual settle time"
            );
            assert_eq!(s.steps_committed, base.steps_committed, "shards={shards}");
            assert_eq!(s.mbox_events, base.mbox_events, "shards={shards}");
            s.critical_path_ns
        };
        for _ in 1..SAMPLES {
            min_ns = min_ns.min(fleet(shards).run().critical_path_ns);
        }
        critical.push((shards, min_ns));
    }
    b.derive(
        "e8_fleet/agents1000/settle_ms",
        base.settle_us as f64 / 1_000.0,
    );
    for &(shards, ns) in &critical {
        b.derive(
            format!("e8_fleet/agents1000/shards{shards}/critical_path_ms"),
            ns as f64 / 1e6,
        );
    }
    let speedup = critical[0].1 as f64 / critical[2].1 as f64;
    b.derive("e8_fleet/agents1000/speedup_shards4", speedup);
    b.derive(
        "e8_fleet/agents1000/speedup_shards2",
        critical[0].1 as f64 / critical[1].1 as f64,
    );
    eprintln!(
        "e8_fleet/agents1000: settle {:.1} ms virtual; critical path {:.1} ms @1 shard, \
         {:.1} ms @2, {:.1} ms @4 ({speedup:.2}x at 4)",
        base.settle_us as f64 / 1_000.0,
        critical[0].1 as f64 / 1e6,
        critical[1].1 as f64 / 1e6,
        critical[2].1 as f64 / 1e6,
    );
}

/// E9 — the resident-record step path: E1's forward scenario and E8's
/// fleet re-run with the per-node resident cache on (the platform default)
/// vs off (the decode-every-step control). The deterministic equality
/// asserts pin that the cache changes nothing observable; the wall-clock
/// arms record what the O(delta) step path is worth. The cache-off arm
/// still uses lazy decode + splice encode — the cache column isolates the
/// memory-residency share of the win.
fn resident_cache_experiment(b: &mut Bench) {
    let base = Scenario::forward(32, 4, 256, 42);
    let on = base.clone().run();
    let off = base.clone().with_resident_cache(false).run();
    assert_eq!(on.steps, off.steps, "cache must not change execution");
    assert_eq!(
        on.final_record, off.final_record,
        "resident cache must be observationally invisible"
    );
    assert_eq!(on.bytes_fwd, off.bytes_fwd);
    b.run("e9_resident/e1_forward32/cache_on", 8, 1, || {
        black_box(base.clone().run());
    });
    b.run("e9_resident/e1_forward32/cache_off", 8, 1, || {
        black_box(base.clone().with_resident_cache(false).run());
    });
    let on_ns = b.ns_per_op("e9_resident/e1_forward32/cache_on").unwrap();
    let off_ns = b.ns_per_op("e9_resident/e1_forward32/cache_off").unwrap();
    b.derive("e9_resident/e1_forward32/cache_speedup", off_ns / on_ns);

    // The locality arm: 32 steps in same-node runs of 8 — within a run
    // every step after the first is served from the resident cache.
    let runs = Scenario::forward_runs(32, 4, 8, 256, 42);
    let runs_on = runs.clone().run();
    let runs_off = runs.clone().with_resident_cache(false).run();
    assert_eq!(runs_on.final_record, runs_off.final_record);
    let hits = runs_on.metrics.counter("resident.hits");
    assert!(hits > 0, "same-node runs must hit the resident cache");
    b.run("e9_resident/forward_runs32x8/cache_on", 8, 1, || {
        black_box(runs.clone().run());
    });
    b.run("e9_resident/forward_runs32x8/cache_off", 8, 1, || {
        black_box(runs.clone().with_resident_cache(false).run());
    });
    let on_ns = b
        .ns_per_op("e9_resident/forward_runs32x8/cache_on")
        .unwrap();
    let off_ns = b
        .ns_per_op("e9_resident/forward_runs32x8/cache_off")
        .unwrap();
    b.derive("e9_resident/forward_runs32x8/cache_speedup", off_ns / on_ns);
    b.derive("e9_resident/forward_runs32x8/resident_hits", hits as f64);

    let fleet = |cache| FleetScenario {
        agents: 100,
        nodes: 4,
        steps: 3,
        seed: 29,
        resident_cache: cache,
        shards: 1,
        home_spread: false,
        stable: StableFactory::reference(),
    };
    let fs_on = fleet(true).run();
    let fs_off = fleet(false).run();
    assert_eq!(fs_on.completed, fs_off.completed);
    assert_eq!(fs_on.settle_us, fs_off.settle_us, "identical virtual time");
    b.run("e9_resident/fleet100/cache_on", 4, 1, || {
        black_box(fleet(true).run());
    });
    b.run("e9_resident/fleet100/cache_off", 4, 1, || {
        black_box(fleet(false).run());
    });
    let on_ns = b.ns_per_op("e9_resident/fleet100/cache_on").unwrap();
    let off_ns = b.ns_per_op("e9_resident/fleet100/cache_off").unwrap();
    b.derive("e9_resident/fleet100/cache_speedup", off_ns / on_ns);
    eprintln!(
        "e9_resident: e1/32 {:.2}ms on vs {:.2}ms off; runs32x8 {:.2}ms on vs {:.2}ms off \
         ({hits} hits); fleet100 {:.1}ms on vs {:.1}ms off",
        b.ns_per_op("e9_resident/e1_forward32/cache_on").unwrap() / 1e6,
        b.ns_per_op("e9_resident/e1_forward32/cache_off").unwrap() / 1e6,
        b.ns_per_op("e9_resident/forward_runs32x8/cache_on")
            .unwrap()
            / 1e6,
        b.ns_per_op("e9_resident/forward_runs32x8/cache_off")
            .unwrap()
            / 1e6,
        b.ns_per_op("e9_resident/fleet100/cache_on").unwrap() / 1e6,
        b.ns_per_op("e9_resident/fleet100/cache_off").unwrap() / 1e6,
    );
}

/// E10 — pluggable stable backends with group commit: the E1 forward
/// workload re-run with the log-structured WAL backend vs the reference
/// in-memory model. The deterministic asserts pin that backend choice is
/// observationally invisible — identical final records, virtual times, and
/// the *full* counters map, including `stable.writes` / `stable.commits`.
///
/// The derived numbers record what group commit is worth. `stable.commits`
/// counts durable barriers (one per kernel event with pending mutations);
/// without group commit every one of the `stable.writes` record mutations
/// would be its own barrier. The steady-state reduction is measured
/// marginally — two run depths differenced — so the constant launch/report
/// overhead does not dilute the per-step batch, and it is pinned exactly:
/// one barrier per step commit, carrying 3 record writes (queue delete,
/// queue put, one resource delta or base image) plus the delta records a
/// base image folds away, which `rm.deltas_folded` counts, plus one write of
/// the transaction id floor per block of 64 ids. The WAL arm also reports the backend's own internals: records
/// appended, log bytes, and checkpoint count, summed over the nodes.
fn stable_backend_experiment(b: &mut Bench) {
    let wal = StableFactory::wal(WalConfig::default());

    // Backend invisibility on the real E1 workload (multi-node, padded).
    let base = Scenario::forward(32, 4, 256, 42);
    let reference_run = base.clone().run();
    let wal_run = base.clone().with_stable_backend(wal.clone()).run();
    assert_eq!(
        reference_run.final_record, wal_run.final_record,
        "backend choice must not change the agent's final state"
    );
    assert_eq!(reference_run.sim_us, wal_run.sim_us);
    assert_eq!(
        reference_run.metrics.counters, wal_run.metrics.counters,
        "backend choice must not change any counter"
    );
    let writes = wal_run.metrics.counter("stable.writes");
    let commits = wal_run.metrics.counter("stable.commits");
    b.derive("e10_stable/e1_forward32/stable_writes", writes as f64);
    b.derive("e10_stable/e1_forward32/group_commits", commits as f64);
    b.derive(
        "e10_stable/e1_forward32/commit_reduction",
        writes as f64 / commits as f64,
    );

    // Steady-state commit reduction: single-resource-node runs at two
    // depths, differenced to cancel the constant launch/report events.
    let depth = |d: usize| {
        let r = Scenario::forward(d, 2, 0, 42)
            .with_stable_backend(wal.clone())
            .run();
        assert_eq!(r.metrics.counter("steps.committed"), d as u64);
        (
            r.metrics.counter("stable.writes"),
            r.metrics.counter("stable.commits"),
            r.metrics.counter("rm.deltas_folded"),
        )
    };
    let (w1, c1, f1) = depth(32);
    let (w2, c2, f2) = depth(96);
    assert_eq!(c2 - c1, 96 - 32, "one barrier per step commit");
    assert_eq!(
        (w2 - w1) - (f2 - f1),
        3 * (c2 - c1) + (c2 - c1) / 64,
        "a step commit writes 3 records besides the deltas it folds, and every 64th the id floor"
    );
    let reduction = (w2 - w1) as f64 / (c2 - c1) as f64;
    b.derive("e10_stable/steady_state/commit_reduction", reduction);

    // Wall-clock cost of the WAL arm vs the reference arm on E1.
    b.run("e10_stable/e1_forward32/reference_run", 8, 1, || {
        black_box(base.clone().run());
    });
    let wal_arm = base.clone().with_stable_backend(wal.clone());
    b.run("e10_stable/e1_forward32/wal_run", 8, 1, || {
        black_box(wal_arm.clone().run());
    });

    // WAL internals: drive one run by hand so the platform survives to be
    // inspected, then sum the per-node backend stats. A small checkpoint
    // threshold forces log rollovers mid-run.
    let (mut p, agent) = base
        .with_stable_backend(StableFactory::wal(WalConfig {
            checkpoint_bytes: 16 * 1024,
            path: None,
        }))
        .start();
    assert!(p.run_until_settled(&[agent], SimDuration::from_secs(3_600)));
    let mut records = 0;
    let mut wal_bytes = 0;
    let mut checkpoints = 0;
    for n in p.world().node_ids() {
        let s = p.world().stable(n).backend_stats();
        records += s.records;
        wal_bytes += s.wal_bytes;
        checkpoints += s.checkpoints;
    }
    assert!(records > 0, "the WAL must have appended records");
    assert!(checkpoints > 0, "rollovers must have checkpointed");
    b.derive("e10_stable/wal_ckpt16k/records", records as f64);
    b.derive("e10_stable/wal_ckpt16k/log_bytes", wal_bytes as f64);
    b.derive("e10_stable/wal_ckpt16k/checkpoints", checkpoints as f64);
    eprintln!(
        "e10_stable: {writes} writes in {commits} group commits on e1/32 \
         ({:.2}x, {reduction:.2}x steady-state); wal @16k checkpoint: \
         {records} records, {wal_bytes} log bytes, {checkpoints} checkpoints",
        writes as f64 / commits as f64,
    );
}

/// E11 — content-addressed itinerary interning: a warm fleet (6 agents
/// sharing one itinerary-heavy, 12-hop route) with interning on vs the
/// ship-inline-every-hop control, plus a cold single-agent first-lap arm.
/// The deterministic asserts pin billed-size equivalence (identical virtual
/// settle time and `net.bytes_sent` — reference-compressed Prepares are
/// billed at their inline size); the derived numbers record the *actual*
/// record-carrying migration bytes, where warm references must cut at
/// least 2x, and the wall-clock arms track the shared-decode savings.
fn itinerary_experiment(b: &mut Bench) {
    let warm = |interning| ItineraryFleetScenario {
        agents: 6,
        nodes: 4,
        laps: 6,
        name_pad: 128,
        seed: 47,
        interning,
        stable: StableFactory::reference(),
    };
    let on = warm(true).run();
    let off = warm(false).run();
    assert_eq!(
        on.settle_us, off.settle_us,
        "interning must not change the virtual schedule"
    );
    assert_eq!(on.steps_committed, off.steps_committed);
    assert_eq!(on.net_bytes, off.net_bytes, "billed bytes must match");
    assert_eq!(off.ref_transfers, 0);
    assert!(on.ref_transfers > 0, "warm fleet must ship references");
    assert_eq!(on.refetches, 0, "nothing evicts at cap 256");
    assert_eq!(
        on.migration_bytes + on.wire_bytes_saved,
        off.migration_bytes,
        "savings must account exactly for the inline-arm bytes"
    );
    let reduction = off.migration_bytes as f64 / on.migration_bytes as f64;
    b.derive(
        "e11_itinerary/warm_fleet/migration_bytes/inline",
        off.migration_bytes as f64,
    );
    b.derive(
        "e11_itinerary/warm_fleet/migration_bytes/interned",
        on.migration_bytes as f64,
    );
    b.derive("e11_itinerary/warm_fleet/byte_reduction", reduction);
    b.derive(
        "e11_itinerary/warm_fleet/ref_transfers",
        on.ref_transfers as f64,
    );
    b.derive(
        "e11_itinerary/warm_fleet/wire_bytes_saved",
        on.wire_bytes_saved as f64,
    );
    b.derive("e11_itinerary/warm_fleet/decode_hits", on.cache_hits as f64);

    // The cold arm: one agent, one lap — every edge is first contact, so
    // nothing ships by reference and the reduction is exactly 1.0. This is
    // the bound a crash-cold node restarts from.
    let cold = |interning| ItineraryFleetScenario {
        agents: 1,
        laps: 1,
        interning,
        ..warm(true)
    };
    let cold_on = cold(true).run();
    let cold_off = cold(false).run();
    assert_eq!(cold_on.ref_transfers, 0, "first contact ships inline");
    assert_eq!(cold_on.migration_bytes, cold_off.migration_bytes);
    b.derive(
        "e11_itinerary/cold_single/migration_bytes",
        cold_on.migration_bytes as f64,
    );
    b.derive(
        "e11_itinerary/cold_single/byte_reduction",
        cold_off.migration_bytes as f64 / cold_on.migration_bytes as f64,
    );

    // Wall-clock: the same warm fleet, interned vs inline — decode sharing
    // and smaller payload encodes are the measured delta.
    b.run("e11_itinerary/warm_fleet/interned_run", 8, 1, || {
        black_box(warm(true).run());
    });
    b.run("e11_itinerary/warm_fleet/inline_run", 8, 1, || {
        black_box(warm(false).run());
    });
    let on_ns = b
        .ns_per_op("e11_itinerary/warm_fleet/interned_run")
        .unwrap();
    let off_ns = b.ns_per_op("e11_itinerary/warm_fleet/inline_run").unwrap();
    b.derive("e11_itinerary/warm_fleet/decode_speedup", off_ns / on_ns);
    eprintln!(
        "e11_itinerary: warm fleet migration bytes {} -> {} ({reduction:.2}x, \
         {} refs, {} bytes saved, {} shared decodes); wall {:.2}ms interned \
         vs {:.2}ms inline",
        off.migration_bytes,
        on.migration_bytes,
        on.ref_transfers,
        on.wire_bytes_saved,
        on.cache_hits,
        on_ns / 1e6,
        off_ns / 1e6,
    );
}

/// E12 — the process/network boundary: the travel-agency fleet run
/// in-process vs distributed across a driver plus two node hosts over
/// loopback TCP and Unix-domain sockets. The deterministic asserts pin
/// observational equivalence (reports, kernel counters, money audit all
/// identical — the socket carries the same simulator-billed bytes, there
/// is no second encode path); the derived numbers record the transport's
/// own footprint (frames, relayed events, billed relay bytes, lockstep
/// windows) and the wall-clock cost of real sockets in the loop.
fn net_experiment(b: &mut Bench) {
    use mar_net::host::run_host;
    use mar_net::scenarios as netsc;
    use mar_net::{netkeys, Endpoint, HostConfig, NetCfg, NetPlatform};
    use std::sync::atomic::{AtomicU64, Ordering};

    const AGENTS: u32 = 4;
    const SEED: u64 = 11;
    const HOSTS: u32 = 2;
    static UNIQ: AtomicU64 = AtomicU64::new(0);

    let uds_endpoint = || {
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        Endpoint::Unix(
            std::env::temp_dir().join(format!("mar-e12-{}-{n}.sock", std::process::id())),
        )
    };
    let tcp_endpoint = || {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        let addr = probe.local_addr().unwrap();
        drop(probe);
        Endpoint::Tcp(addr.to_string())
    };

    let run_inproc = || {
        let mut p = netsc::builder(netsc::TRAVEL, SEED).unwrap().build();
        let handles = p.launch_fleet(netsc::fleet(netsc::TRAVEL, AGENTS).unwrap());
        assert!(p.run_until_settled(&handles, SimDuration::from_secs(600)));
        let reports: Vec<_> = handles.iter().map(|h| p.report(*h).unwrap()).collect();
        (reports, p.money_audit(&[]), p.snapshot())
    };
    let run_dist = |endpoint: Endpoint| {
        let mut joins = Vec::new();
        for host_id in 0..HOSTS {
            let cfg = HostConfig::new(host_id, endpoint.clone());
            joins.push(std::thread::spawn(move || run_host(&cfg)));
        }
        let mut p = NetPlatform::start(NetCfg::new(endpoint.clone(), HOSTS, netsc::TRAVEL, SEED))
            .expect("driver start");
        let handles = p.launch_fleet(netsc::fleet(netsc::TRAVEL, AGENTS).unwrap());
        assert!(p.run_until_settled(&handles, SimDuration::from_secs(600)));
        let reports: Vec<_> = handles.iter().map(|h| p.report(*h).unwrap()).collect();
        let audit = p.money_audit(&[]);
        let snap = p.snapshot();
        p.shutdown();
        for j in joins {
            j.join().unwrap().unwrap();
        }
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        (reports, audit, snap)
    };
    let kernel = |snap: &mar_simnet::MetricsSnapshot| {
        snap.counters
            .iter()
            .filter(|(k, _)| !netkeys::is_transport_diag(k))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<std::collections::BTreeMap<_, _>>()
    };

    let (ctl_reports, ctl_audit, ctl_snap) = run_inproc();
    for (arm, endpoint) in [("uds2", uds_endpoint()), ("tcp2", tcp_endpoint())] {
        let (reports, audit, snap) = run_dist(endpoint);
        assert_eq!(ctl_reports, reports, "e12 {arm}: reports diverged");
        assert_eq!(ctl_audit, audit, "e12 {arm}: money audit diverged");
        assert_eq!(
            kernel(&ctl_snap),
            kernel(&snap),
            "e12 {arm}: kernel counters diverged"
        );
        let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        let billed = c(netkeys::BILLED_BYTES);
        // Relayed deliveries carry exactly their simulator-billed cost; the
        // relay subset can never exceed what the kernel billed in total.
        assert!(billed > 0, "e12 {arm}: no cross-host traffic?");
        assert!(
            billed <= c("net.bytes_sent"),
            "e12 {arm}: relay bytes {billed} exceed billed total {}",
            c("net.bytes_sent")
        );
        b.derive(
            format!("e12_net/{arm}/frames_sent"),
            c(netkeys::FRAMES_SENT) as f64,
        );
        b.derive(
            format!("e12_net/{arm}/events_relayed"),
            c(netkeys::EVENTS_RELAYED) as f64,
        );
        b.derive(format!("e12_net/{arm}/relay_billed_bytes"), billed as f64);
        b.derive(format!("e12_net/{arm}/windows"), c(netkeys::WINDOWS) as f64);
        b.derive(
            format!("e12_net/{arm}/retransmits"),
            c("report.retransmits") as f64,
        );
    }

    // Wall clock: the identical warm fleet, three deployment shapes.
    b.run("e12_net/inproc/settle_run", 4, 1, || {
        black_box(run_inproc());
    });
    b.run("e12_net/uds2/settle_run", 4, 1, || {
        black_box(run_dist(uds_endpoint()));
    });
    b.run("e12_net/tcp2/settle_run", 4, 1, || {
        black_box(run_dist(tcp_endpoint()));
    });
    let inproc_ns = b.ns_per_op("e12_net/inproc/settle_run").unwrap();
    let uds_ns = b.ns_per_op("e12_net/uds2/settle_run").unwrap();
    let tcp_ns = b.ns_per_op("e12_net/tcp2/settle_run").unwrap();
    b.derive("e12_net/uds2/overhead_x", uds_ns / inproc_ns);
    b.derive("e12_net/tcp2/overhead_x", tcp_ns / inproc_ns);
    eprintln!(
        "e12_net: settle wall {:.2}ms in-process, {:.2}ms uds x2 hosts, \
         {:.2}ms tcp x2 hosts (identical reports, counters, and audit)",
        inproc_ns / 1e6,
        uds_ns / 1e6,
        tcp_ns / 1e6,
    );
}

/// E13 — supervised chaos: the travel fleet as real processes (driver plus
/// two node hosts over a Unix socket) under the fleet supervisor, run once
/// undisturbed and once with host 1 SIGKILLed mid-run and restarted against
/// its WAL. The asserts pin the recovery contract — the killed arm settles
/// with agent outcomes and money audit identical to the control — and the
/// derived numbers are the recovery-cost curve: MTTR, WAL replay bytes,
/// restart count, and the retransmit traffic recovery adds.
fn chaos_experiment(b: &mut Bench) {
    use mar_net::supervisor::{ChaosAction, ChaosEvent, ChaosSchedule, Fleet, FleetConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    static UNIQ: AtomicU64 = AtomicU64::new(0);

    // Benches don't get CARGO_BIN_EXE_*: resolve the mar-net binaries
    // beside the profile dir this bench runs from
    // (target/<profile>/deps/macro_sim-<hash> -> target/<profile>).
    let me = std::env::current_exe().expect("bench exe path");
    let profile_dir = me
        .parent()
        .and_then(|d| d.parent())
        .expect("bench profile dir")
        .to_path_buf();
    let driver_bin = profile_dir.join("mar-driver");
    let host_bin = profile_dir.join("mar-node-host");
    assert!(
        driver_bin.exists() && host_bin.exists(),
        "e13: {} / {} missing — build them first (`cargo build --release`)",
        driver_bin.display(),
        host_bin.display()
    );

    // One supervised fleet run: UDS socket, per-host WAL, a window delay
    // that stretches the 0.2 s-virtual run far enough in wall clock for a
    // scripted kill to land mid-flight. Returns the summary and the
    // driver's kernel dump text.
    let run_fleet = |tag: &str, chaos: ChaosSchedule| {
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        let base = std::env::temp_dir().join(format!("mar-e13-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let socket = format!("unix:{}", base.join("driver.sock").display());
        let dump = base.join("dump.txt");
        let mut cfg = FleetConfig::new(driver_bin.clone(), host_bin.clone(), 2);
        cfg.driver_args = [
            "--socket",
            &socket,
            "--hosts",
            "2",
            "--scenario",
            "travel",
            "--seed",
            "11",
            "--agents",
            "6",
            "--deadline-secs",
            "600",
            "--window-delay-us",
            "3000",
            "--io-timeout-secs",
            "1",
            "--dump",
            &dump.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cfg.host_args = [
            "--socket",
            &socket,
            "--host-id",
            "{host_id}",
            "--wal-dir",
            &base.join("host{host_id}").display().to_string(),
            "--io-timeout-secs",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cfg.chaos = chaos;
        cfg.deadline = Duration::from_secs(60);
        let summary = Fleet::new(cfg)
            .run()
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        let dump_text = std::fs::read_to_string(&dump).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&base);
        (summary, dump_text)
    };
    // The kill-stable observables: sorted report lines plus the money line.
    let observables = |stdout: &[String]| {
        let mut reports: Vec<String> = stdout
            .iter()
            .filter(|l| l.starts_with("report "))
            .cloned()
            .collect();
        reports.sort();
        let money = stdout
            .iter()
            .find(|l| l.starts_with("money "))
            .cloned()
            .unwrap_or_default();
        (reports, money)
    };
    // Recovery retransmission traffic shows up as extra driver frames
    // (session replay and re-sent windows are counted into
    // `net.frames_sent`), so the kill-vs-control delta is the measure.
    let frames_sent = |dump: &str| {
        dump.lines()
            .find_map(|l| l.strip_prefix("counter net.frames_sent "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };

    let (ctl, ctl_dump) = run_fleet("e13 control", ChaosSchedule::quiet());
    assert_eq!(ctl.driver_code, Some(0), "e13: control fleet must settle");
    let ctl_obs = observables(&ctl.driver_stdout);
    assert_eq!(ctl_obs.0.len(), 6, "e13: control must report all agents");
    assert!(ctl_obs.1.contains("USD=12000"), "e13: control money audit");

    // Probe kill offsets until the SIGKILL lands mid-run (a restart was
    // needed); every probe — landed or not — must still match the control.
    let mut landed = None;
    for at_ms in [400u64, 700, 1000] {
        let chaos = ChaosSchedule {
            events: vec![ChaosEvent {
                at_ms,
                host: 1,
                action: ChaosAction::Kill,
            }],
        };
        let (s, d) = run_fleet("e13 kill", chaos);
        assert_eq!(s.driver_code, Some(0), "e13: killed arm must settle");
        assert!(s.gave_up.is_empty(), "e13: budget must survive one kill");
        assert_eq!(
            observables(&s.driver_stdout),
            ctl_obs,
            "e13: outcomes or money diverged after kill at {at_ms}ms"
        );
        if s.restarts.get(&1).copied().unwrap_or(0) >= 1 {
            landed = Some((at_ms, s, d));
            break;
        }
    }
    let (kill_at, kill, kill_dump) = landed.expect("e13: no probe offset landed mid-run");
    let mttr = kill.mttr_ms().expect("e13: restart must record MTTR");
    let restarts: u32 = kill.restarts.values().sum();
    b.derive("e13_chaos/kill_uds/mttr_ms", mttr);
    b.derive(
        "e13_chaos/kill_uds/wal_replay_bytes",
        kill.wal_replayed_bytes() as f64,
    );
    b.derive("e13_chaos/kill_uds/restarts", restarts as f64);
    b.derive("e13_chaos/control_uds/frames_sent", frames_sent(&ctl_dump));
    b.derive("e13_chaos/kill_uds/frames_sent", frames_sent(&kill_dump));
    b.derive(
        "e13_chaos/kill_uds/retransmit_frames",
        (frames_sent(&kill_dump) - frames_sent(&ctl_dump)).max(0.0),
    );

    // Wall clock: the supervised control vs the supervised killed arm —
    // the gap is the whole recovery detour (backoff, redial, WAL replay,
    // session rebuild, window retransmits).
    b.run("e13_chaos/control_uds/settle_run", 3, 1, || {
        let (s, _) = run_fleet("e13 control timing", ChaosSchedule::quiet());
        assert_eq!(s.driver_code, Some(0));
        black_box(s);
    });
    let kill_schedule = || ChaosSchedule {
        events: vec![ChaosEvent {
            at_ms: kill_at,
            host: 1,
            action: ChaosAction::Kill,
        }],
    };
    b.run("e13_chaos/kill_uds/settle_run", 3, 1, || {
        let (s, _) = run_fleet("e13 kill timing", kill_schedule());
        assert_eq!(s.driver_code, Some(0));
        black_box(s);
    });
    let ctl_ns = b.ns_per_op("e13_chaos/control_uds/settle_run").unwrap();
    let kill_ns = b.ns_per_op("e13_chaos/kill_uds/settle_run").unwrap();
    b.derive("e13_chaos/kill_uds/recovery_overhead_x", kill_ns / ctl_ns);
    eprintln!(
        "e13_chaos: kill@{kill_at}ms recovered in {mttr:.0} ms (MTTR), \
         {} WAL bytes replayed, {restarts} restart(s), frames {} -> {}; \
         settle wall {:.2}ms control vs {:.2}ms killed",
        kill.wal_replayed_bytes(),
        frames_sent(&ctl_dump),
        frames_sent(&kill_dump),
        ctl_ns / 1e6,
        kill_ns / 1e6,
    );
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

    // E6 — pre-transfer log compaction: simulator wall-clock cost of the
    // compacting run, plus the deterministic transfer-byte before/after.
    b.run("e6_compaction/state_pad1024/compacting_run", 8, 1, || {
        black_box(
            Scenario::savepoint_heavy(8, 4, 1024, LoggingMode::State, 5)
                .with_compaction(true)
                .run(),
        );
    });
    compaction_experiment(&mut b, "state_pad1024", LoggingMode::State, 1024);
    compaction_experiment(&mut b, "transition_pad1024", LoggingMode::Transition, 1024);

    // E7 — batched compensation rounds: simulator wall-clock of the batched
    // run, plus the deterministic 2PC / transfer-byte before/after.
    b.run("e7_batching/chain16x8/batched_run", 8, 1, || {
        black_box(Scenario::rollback_chain(16, 4, 8, RollbackMode::Optimized, 13).run());
    });
    batching_experiment(&mut b, "basic_chain16x8", RollbackMode::Basic);
    batching_experiment(&mut b, "optimized_chain16x8", RollbackMode::Optimized);

    // E8 — fleet driving: simulator wall-clock of the 100-agent run, plus
    // the deterministic settle-latency / driver-counter numbers.
    b.run("e8_fleet/agents100/run", 4, 1, || {
        black_box(
            FleetScenario {
                agents: 100,
                nodes: 4,
                steps: 3,
                seed: 29,
                resident_cache: true,
                shards: 1,
                home_spread: false,
                stable: StableFactory::reference(),
            }
            .run(),
        );
    });
    fleet_experiment(&mut b, 100);
    sharded_fleet_experiment(&mut b);

    // E9 — resident-record step path: E1/E8 with the cache on vs off.
    resident_cache_experiment(&mut b);

    // E10 — stable-storage backends: reference vs WAL with group commit.
    stable_backend_experiment(&mut b);

    // E11 — content-addressed itinerary interning: warm fleet vs inline.
    itinerary_experiment(&mut b);

    // E12 — the process/network boundary: distributed vs in-process.
    net_experiment(&mut b);

    // E13 — supervised chaos: kill-and-recover vs the undisturbed fleet.
    chaos_experiment(&mut b);

    b.write_report("BENCH_macro.json");
}
