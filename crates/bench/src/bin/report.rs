//! Regenerates every experiment table of EXPERIMENTS.md (deterministic —
//! all numbers are virtual-time/metric quantities, not wall time).
//!
//! Run with: `cargo run -p mar-bench --bin report --release`

use mar_bench::{RunStats, Scenario};
use mar_core::log::{LogEntry, LoggingMode};
use mar_core::{
    AgentId, AgentRecord, CostModel, DataSpace, LinkParams, RollbackMode, SavepointTable,
};
use mar_itinerary::{samples, Cursor};
use mar_simnet::SimRng;
use mar_wire::Value;

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn row(cells: &[String]) {
    println!("{}", cells.join(" | "));
}

fn main() {
    e1_forward_throughput();
    e2_log_entries();
    e3_rollback_latency();
    e4_basic_vs_optimized();
    e5_itinerary_log_policies();
    e6_logging_modes();
    e7_migration_overhead();
    e8_rpc_vs_migration();
    e9_failure_sweep();
    e10_batched_rollback();
    println!("\nAll experiment tables regenerated.");
}

/// E1 — forward execution cost vs agent payload size (Fig. 1 substrate).
fn e1_forward_throughput() {
    header("E1  Forward exactly-once execution (16 steps, 4 nodes, LAN)");
    row(&[
        format!("{:>10}", "SRO pad/B"),
        format!("{:>10}", "sim ms"),
        format!("{:>12}", "ms/step"),
        format!("{:>10}", "transfers"),
        format!("{:>12}", "bytes moved"),
    ]);
    for pad in [0usize, 512, 4096, 16384] {
        let stats = Scenario::forward(16, 4, pad, 42).run();
        row(&[
            format!("{:>10}", pad),
            format!("{:>10.2}", stats.sim_us as f64 / 1000.0),
            format!(
                "{:>12.2}",
                stats.sim_us as f64 / 1000.0 / stats.steps as f64
            ),
            format!("{:>10}", stats.transfers_fwd),
            format!("{:>12}", stats.bytes_fwd),
        ]);
    }
}

/// E2 — log entry sizes (Fig. 2).
fn e2_log_entries() {
    header("E2  Rollback log entry sizes (encoded bytes)");
    let main = samples::fig6();
    let cursor = Cursor::new(&main);
    let mut data = DataSpace::new();
    data.set_sro("notes", Value::Bytes(vec![0; 256]));
    let mut table = SavepointTable::new();
    let mut log = mar_core::RollbackLog::new();
    table.on_enter_sub("SI1", &mut data, &cursor, &mut log, LoggingMode::State);
    let bos = LogEntry::BeginOfStep(mar_core::log::BosEntry {
        node: 3,
        step_seq: 7,
        method: "buy".into(),
    });
    let oe = LogEntry::Operation(mar_core::log::OpEntry {
        kind: mar_core::comp::EntryKind::Resource,
        op: mar_core::comp::CompOp::new(
            "bank.undo_transfer",
            Value::map([
                ("bank", Value::from("bank")),
                ("from", Value::from("alice")),
                ("to", Value::from("bob")),
                ("amount", Value::from(250i64)),
            ]),
        ),
        step_seq: 7,
    });
    let eos = LogEntry::EndOfStep(mar_core::log::EosEntry {
        node: 3,
        step_seq: 7,
        method: "buy".into(),
        has_mixed: false,
        alt_nodes: vec![4, 5],
    });
    row(&[format!("{:<28}", "entry"), format!("{:>8}", "bytes")]);
    let sp_size = log.iter().next().unwrap().encoded_size();
    row(&[
        format!("{:<28}", "SP (256B SRO image + cursor)"),
        format!("{sp_size:>8}"),
    ]);
    row(&[
        format!("{:<28}", "BOS"),
        format!("{:>8}", bos.encoded_size()),
    ]);
    row(&[
        format!("{:<28}", "OE (bank.undo_transfer)"),
        format!("{:>8}", oe.encoded_size()),
    ]);
    row(&[
        format!("{:<28}", "EOS (2 alt nodes)"),
        format!("{:>8}", eos.encoded_size()),
    ]);
}

/// E3 — rollback latency and transfers vs depth (Fig. 3/4, basic).
fn e3_rollback_latency() {
    header("E3  Basic rollback vs depth (4 nodes, LAN; Fig. 3/4)");
    row(&[
        format!("{:>6}", "depth"),
        format!("{:>10}", "rounds"),
        format!("{:>10}", "transfers"),
        format!("{:>12}", "rbk bytes"),
        format!("{:>10}", "sim ms"),
    ]);
    for depth in [1usize, 2, 4, 8, 16, 32] {
        let stats = Scenario::rollback(depth, 4, None, 0, RollbackMode::Basic, 7).run();
        row(&[
            format!("{:>6}", depth),
            format!("{:>10}", stats.rounds),
            format!("{:>10}", stats.transfers_rbk),
            format!("{:>12}", stats.bytes_rbk),
            format!("{:>10.2}", stats.sim_us as f64 / 1000.0),
        ]);
    }
}

/// E4 — basic vs optimized vs mixed-entry fraction (Fig. 5 / C1+C2).
fn e4_basic_vs_optimized() {
    header("E4  Basic vs optimized rollback vs mixed-step fraction (depth 12)");
    row(&[
        format!("{:>10}", "mixed frac"),
        format!("{:>6}", "mode"),
        format!("{:>10}", "transfers"),
        format!("{:>10}", "rce sent"),
        format!("{:>12}", "rbk+rce B"),
        format!("{:>10}", "sim ms"),
    ]);
    for (label, mixed_every) in [
        ("0", None),
        ("1/6", Some(6)),
        ("1/3", Some(3)),
        ("1/2", Some(2)),
        ("1", Some(1)),
    ] {
        for mode in [RollbackMode::Basic, RollbackMode::Optimized] {
            let stats = Scenario::rollback(12, 4, mixed_every, 256, mode, 11).run();
            let mode_s = match mode {
                RollbackMode::Basic => "basic",
                RollbackMode::Optimized => "opt",
            };
            row(&[
                format!("{:>10}", label),
                format!("{:>6}", mode_s),
                format!("{:>10}", stats.transfers_rbk),
                format!("{:>10}", stats.rce_shipped),
                format!("{:>12}", stats.bytes_rbk + stats.rce_bytes),
                format!("{:>10.2}", stats.sim_us as f64 / 1000.0),
            ]);
        }
    }
}

/// E5 — itinerary-integrated savepoints & log discard (§4.4.2 / C3+C4).
fn e5_itinerary_log_policies() {
    use mar_itinerary::ItineraryBuilder;
    use mar_platform::{AgentSpec, PlatformBuilder};
    use mar_simnet::{NodeId, SimDuration};

    header("E5  Log policies over 24 RCE-logging steps (migrated bytes; §4.4.2)");
    row(&[
        format!("{:<26}", "policy"),
        format!("{:>10}", "discards"),
        format!("{:>10}", "SP removed"),
        format!("{:>14}", "fwd bytes"),
    ]);
    // Policy A: one monolithic sub (log only discarded at the very end).
    // Policy B: nested subs of 6 (savepoints removed as subs complete).
    // Policy C: four top-level subs of 6 (log discarded after each part).
    let run = |label: &str, builder: fn() -> mar_itinerary::Itinerary| {
        let it = builder();
        let mut b = PlatformBuilder::new(4)
            .seed(5)
            .behavior("bench", mar_bench::BenchAgent);
        for n in 1..4 {
            b = b.resources(NodeId(n), move || {
                let mut rms = mar_txn::RmRegistry::new();
                rms.register(Box::new(
                    mar_resources::BankRm::new("ledger", false)
                        .with_account("sink", 0)
                        .with_account("reserve", 1_000_000),
                ));
                rms
            });
        }
        let mut p = b.build();
        let mut spec = AgentSpec::new("bench", NodeId(0), it);
        spec.data.set_sro("notes", Value::list([]));
        let agent = p.launch(spec);
        assert!(p.run_until_settled(&[agent], SimDuration::from_secs(3600)));
        let m = p.snapshot();
        row(&[
            format!("{label:<26}"),
            format!("{:>10}", m.counter("log.discards")),
            format!("{:>10}", m.counter("log.savepoints_removed")),
            format!("{:>14}", m.counter("agent.transfer_bytes.forward")),
        ]);
    };
    run("A: one sub of 24", || {
        ItineraryBuilder::main("I")
            .sub("all", |s| {
                for i in 0..24u32 {
                    s.step(format!("rce#{i}"), 1 + (i % 3));
                }
            })
            .build()
            .unwrap()
    });
    run("B: nested subs of 6", || {
        ItineraryBuilder::main("I")
            .sub("outer", |s| {
                for part in 0..4u32 {
                    s.sub(format!("part{part}"), |n| {
                        for i in 0..6u32 {
                            let idx = part * 6 + i;
                            n.step(format!("rce#{idx}"), 1 + (idx % 3));
                        }
                    });
                }
            })
            .build()
            .unwrap()
    });
    run("C: 4 top-level subs of 6", || {
        let mut b = ItineraryBuilder::main("I");
        for part in 0..4u32 {
            b = b.sub(format!("part{part}"), |n| {
                for i in 0..6u32 {
                    let idx = part * 6 + i;
                    n.step(format!("rce#{idx}"), 1 + (idx % 3));
                }
            });
        }
        b.build().unwrap()
    });
}

/// E6 — state vs transition logging (§4.2): savepoint bytes in the log as a
/// function of SRO size and mutation fraction. Core-level, no simulator.
fn e6_logging_modes() {
    header("E6  State vs transition logging (log SP bytes, 8 savepoints)");
    row(&[
        format!("{:>8}", "SRO KB"),
        format!("{:>10}", "mutate %"),
        format!("{:>12}", "state B"),
        format!("{:>12}", "transition B"),
        format!("{:>8}", "ratio"),
    ]);
    for sro_kb in [1usize, 8, 64] {
        for mutate_pct in [5usize, 25, 100] {
            let measure = |mode: LoggingMode| {
                let main = samples::linear(8, &[1, 2]);
                let mut rec = AgentRecord::new(
                    AgentId(1),
                    "x",
                    0,
                    DataSpace::new(),
                    main,
                    mode,
                    RollbackMode::Optimized,
                );
                // SRO = many small objects so deltas can be partial.
                let objects = 32;
                let obj_size = sro_kb * 1024 / objects;
                for i in 0..objects {
                    rec.data
                        .set_sro(format!("obj{i:02}"), Value::Bytes(vec![0; obj_size]));
                }
                if mode == LoggingMode::Transition {
                    rec.data.enable_shadow();
                }
                let mut rng = SimRng::seed_from(9);
                for sp in 0..8 {
                    // Mutate a fraction of the objects between savepoints.
                    let k = (objects * mutate_pct).div_ceil(100);
                    for _ in 0..k {
                        let i = rng.below(objects as u64) as usize;
                        rec.data.set_sro(
                            format!("obj{i:02}"),
                            Value::Bytes(vec![sp as u8 + 1; obj_size]),
                        );
                    }
                    rec.table.on_step_committed();
                    let cursor = rec.cursor.clone();
                    rec.table.on_enter_sub(
                        &format!("s{sp}"),
                        &mut rec.data,
                        &cursor,
                        &mut rec.log,
                        mode,
                    );
                }
                rec.log.stats().savepoint_bytes
            };
            let state = measure(LoggingMode::State);
            let transition = measure(LoggingMode::Transition);
            row(&[
                format!("{:>8}", sro_kb),
                format!("{:>10}", mutate_pct),
                format!("{:>12}", state),
                format!("{:>12}", transition),
                format!("{:>8.2}", state as f64 / transition as f64),
            ]);
        }
    }
}

/// E7 — migration cost vs attached log size (§4.2's motivation for §4.4.2).
fn e7_migration_overhead() {
    header("E7  Migration cost vs rollback log size (LAN model)");
    let link = LinkParams::default();
    row(&[
        format!("{:>10}", "log KB"),
        format!("{:>14}", "record bytes"),
        format!("{:>12}", "one-way us"),
        format!("{:>10}", "overhead"),
    ]);
    let base_record = {
        let main = samples::linear(4, &[1]);
        AgentRecord::new(
            AgentId(1),
            "x",
            0,
            DataSpace::new(),
            main,
            LoggingMode::State,
            RollbackMode::Optimized,
        )
    };
    let base_size = base_record.encoded_size();
    let base_cost = link.message_us(base_size);
    for log_kb in [0usize, 1, 4, 16, 64, 256] {
        let total = base_size + log_kb * 1024;
        let cost = link.message_us(total);
        row(&[
            format!("{:>10}", log_kb),
            format!("{:>14}", total),
            format!("{:>12}", cost),
            format!("{:>9.2}x", cost as f64 / base_cost as f64),
        ]);
    }
}

/// E8 — RPC vs migration crossover (\[16\]-style model, §4.4.1).
fn e8_rpc_vs_migration() {
    header("E8  RPC vs migration crossover (ops where migration wins)");
    let model = CostModel::new(LinkParams::default());
    row(&[
        format!("{:>12}", "agent KB"),
        format!("{:>10}", "log KB"),
        format!("{:>16}", "crossover ops"),
    ]);
    for agent_kb in [2usize, 16, 64] {
        for log_kb in [0usize, 16, 64] {
            let k = model
                .crossover_ops(agent_kb * 1024, log_kb * 1024, true, 200, 400)
                .unwrap();
            row(&[
                format!("{:>12}", agent_kb),
                format!("{:>10}", log_kb),
                format!("{:>16}", k),
            ]);
        }
    }
}

/// E10 — batched compensation rounds: compensation 2PCs, rollback
/// transfers/bytes, and completion time on same-node chains, unbatched vs
/// batched (planner::batch fusion), per run length. This is the same
/// experiment family as the macro bench's `batching/*` entries in
/// `BENCH_macro.json`.
fn e10_batched_rollback() {
    header("E10 Batched compensation rounds (depth 16, 4 nodes, LAN)");
    row(&[
        format!("{:>8}", "run len"),
        format!("{:>6}", "mode"),
        format!("{:>8}", "batched"),
        format!("{:>10}", "comp 2PCs"),
        format!("{:>10}", "rbk moves"),
        format!("{:>12}", "rbk bytes"),
        format!("{:>10}", "sim ms"),
    ]);
    for run_len in [1usize, 4, 8, 16] {
        for mode in [RollbackMode::Basic, RollbackMode::Optimized] {
            let mode_s = match mode {
                RollbackMode::Basic => "basic",
                RollbackMode::Optimized => "opt",
            };
            let mut rows = Vec::new();
            for batch in [false, true] {
                let stats = Scenario::rollback_chain(16, 4, run_len, mode, 13)
                    .with_batching(batch)
                    .run();
                rows.push((batch, stats));
            }
            let (_, ref unbatched) = rows[0];
            let (_, ref batched) = rows[1];
            assert_eq!(
                unbatched.final_record, batched.final_record,
                "equal final state is the premise of the comparison"
            );
            for (batch, stats) in &rows {
                row(&[
                    format!("{:>8}", run_len),
                    format!("{:>6}", mode_s),
                    format!("{:>8}", if *batch { "yes" } else { "no" }),
                    format!("{:>10}", stats.batched_rounds),
                    format!("{:>10}", stats.transfers_rbk),
                    format!("{:>12}", stats.bytes_rbk),
                    format!("{:>10.2}", stats.sim_us as f64 / 1000.0),
                ]);
            }
        }
    }
}

/// E9 — rollback completion time vs failure density (§4.3 / C5).
fn e9_failure_sweep() {
    use mar_simnet::{FailurePlan, SimDuration};
    header("E9  Rollback completion under crashes (depth 8, basic mode)");
    row(&[
        format!("{:>12}", "node MTBF ms"),
        format!("{:>10}", "crashes"),
        format!("{:>12}", "sim ms"),
        format!("{:>10}", "slowdown"),
    ]);
    let baseline: RunStats = Scenario::rollback(8, 4, None, 0, RollbackMode::Basic, 3).run();
    row(&[
        format!("{:>12}", "none"),
        format!("{:>10}", 0),
        format!("{:>12.1}", baseline.sim_us as f64 / 1000.0),
        format!("{:>9.2}x", 1.0),
    ]);
    for mtbf_ms in [2_000u64, 1_000, 500] {
        let scenario = Scenario::rollback(8, 4, None, 0, RollbackMode::Basic, 3);
        let (mut p, agent) = scenario.start();
        FailurePlan {
            node_mtbf: Some(SimDuration::from_millis(mtbf_ms)),
            node_mttr: SimDuration::from_millis(200),
            horizon: SimDuration::from_secs(60),
            ..FailurePlan::none()
        }
        .install(p.world_mut());
        let ok = p.run_until_settled(&[agent], SimDuration::from_secs(3600));
        assert!(ok, "must complete despite failures");
        let report = p.report(agent).unwrap();
        let m = p.snapshot();
        row(&[
            format!("{:>12}", mtbf_ms),
            format!("{:>10}", m.counter("failure.node_crashes")),
            format!("{:>12.1}", report.finished_at_us as f64 / 1000.0),
            format!(
                "{:>9.2}x",
                report.finished_at_us as f64 / baseline.sim_us as f64
            ),
        ]);
    }
}
