//! The paper's evaluation: experiment tables E1–E12, each with the claim of
//! the paper it tests. Every number is a virtual-time, count or byte
//! quantity, so the tables are deterministic. `EXPERIMENTS.md` at the
//! workspace root is [`document`]'s output, and `tests/experiments.rs`
//! holds it byte for byte. After a change that moves a number on purpose,
//! regenerate it with
//!
//! ```sh
//! cargo run --release -p mar-bench --bin report > EXPERIMENTS.md
//! ```

use std::fmt::Write;

use mar_core::log::{LogEntry, LoggingMode};
use mar_core::{
    AgentId, AgentRecord, CostModel, DataSpace, LinkParams, RollbackMode, SavepointTable,
};
use mar_itinerary::{samples, Cursor};
use mar_simnet::SimRng;
use mar_wire::Value;

use crate::{RunStats, Scenario};

/// One experiment: its title, the paper claim it tests, and its table.
struct Experiment {
    /// The table's heading.
    title: &'static str,
    /// The claim of the paper the table tests (section or figure), and
    /// whether the reproduction bears it out.
    claim: &'static str,
    /// Fills the table, header row first.
    table: fn(&mut Table),
}

/// Every experiment, in table order.
const EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        title: "E1  Forward exactly-once execution (16 steps, 4 nodes, LAN)",
        claim: "§2, Fig. 1: a step is one transaction that moves the agent \
            from one stable queue into the next, exactly once. Borne out: \
            16 steps make 16 transfers at every payload size, and the cost \
            of a step grows with the record it moves (6.5 ms bare, 18.7 ms \
            with 16 KiB of SRO padding per step).",
        table: e1_forward_throughput,
    },
    Experiment {
        title: "E2  Rollback log entry sizes (encoded bytes)",
        claim: "§4.2, Fig. 2: the rollback log is savepoint entries and, per \
            step, a BOS, its operation entries and an EOS. Under state \
            logging a savepoint carries the whole SRO image, so it outweighs \
            a whole step's frame: 319 B for a 256 B SRO against \
            13 + 77 + 20 = 110 B.",
        table: e2_log_entries,
    },
    Experiment {
        title: "E3  Basic rollback vs depth (4 nodes, LAN; Fig. 3/4)",
        claim: "Fig. 3/4: the basic mechanism compensates one step per round \
            and carries the agent back to every step's node. Borne out: \
            rounds and transfers equal the depth, time grows by 18–19 ms \
            a round, and the bytes grow faster than the depth, \
            because every hop back carries the log of the steps not yet \
            undone.",
        table: e3_rollback_latency,
    },
    Experiment {
        title: "E4  Basic vs optimized rollback vs mixed-step fraction (depth 12)",
        claim: "§4.4.1, Fig. 5: the optimized mechanism moves the agent only \
            for mixed steps and ships the resource compensation entries (RCE \
            lists) of the others. Borne out: optimized transfers are 12 × \
            the mixed fraction, its bytes fall from 30,654 to 348 with no \
            mixed step, and at fraction 1 both modes are the same run. The \
            odd rows: every odd step is SRO-only (no RCE), and RCEs of a step \
            on the node where the agent already is run locally, unshipped. \
            So the six RCE steps at 0 ship 4 lists, at 1/6 and 1/3 the four \
            left ship 4, and at 1/2 no step is left with an RCE list to \
            ship.",
        table: e4_basic_vs_optimized,
    },
    Experiment {
        title: "E5  Log policies over 24 RCE-logging steps (migrated bytes; §4.4.2)",
        claim: "§4.4.2: a completed top-level sub-itinerary discards the log, \
            and a completed nested one removes its savepoints. Borne out for \
            the first: four top-level subs (C) move 52 % fewer forward bytes \
            than one sub (A). The second does not pay here: nested subs (B) \
            remove 4 savepoints but move 11 % more than A, since each nested \
            sub first adds the savepoint it later removes.",
        table: e5_itinerary_log_policies,
    },
    Experiment {
        title: "E6  State vs transition logging (log SP bytes, 8 savepoints)",
        claim: "§4.2: transition logging records what changed between \
            savepoints, not the whole SRO image. Borne out: it saves 7–18× \
            when 5 % of the objects change, and still 1.6–1.75× when \
            mutations touch every slot, since random picks leave some \
            objects unchanged.",
        table: e6_logging_modes,
    },
    Experiment {
        title: "E7  Migration cost vs rollback log size (LAN model)",
        claim: "§4.2's motivation for §4.4.2: the log travels with the agent, \
            so a long log makes every migration dear. On the LAN model a \
            256 KiB log makes a one-way transfer 26× the bare record's.",
        table: e7_migration_overhead,
    },
    Experiment {
        title: "E8  RPC vs migration crossover (ops where migration wins)",
        claim: "§4.4.1, after the performance model of [16]: moving the agent \
            pays only after enough remote operations, and the break-even \
            point rises with the agent's and the log's size (2 operations \
            for a 2 KiB agent with no log, 14 for 64 KiB of each). That is \
            why the optimized mechanism ships RCE lists instead of the \
            agent.",
        table: e8_rpc_vs_migration,
    },
    Experiment {
        title: "E9  Rollback completion under crashes (depth 8, basic mode)",
        claim: "§4.3: rollback is exactly-once and survives node crashes; it \
            only takes longer. Borne out: every run completes. The odd rows: \
            crashes are counted until the agent settles, from one seed's \
            schedule. At an MTBF of 2,000 ms none lands within the 164 ms \
            run. The equal counts of 3 at 1,000 and 500 ms are that sample's, \
            not a rate: with the same count the 500 ms run lasts 3.4× longer, \
            so the slowdown follows where and when a crash lands, not how \
            many land.",
        table: e9_failure_sweep,
    },
    Experiment {
        title: "E10 Batched compensation rounds (depth 16, 4 nodes, LAN)",
        claim: "Beyond the paper, which commits one compensation transaction \
            per step (Fig. 4b/5b): same-node runs fuse into one transaction. \
            Compensation 2PCs fall from 16 to 16 / run length; in basic mode \
            rollback moves and bytes fall with them; the final record is \
            asserted equal either way.",
        table: e10_batched_rollback,
    },
    Experiment {
        title: "E11 Pre-transfer log compaction (8 savepoints over a 1 KiB SRO, 4 nodes, LAN)",
        claim: "§4.4.2: the log dominates what a migrating agent moves, so \
            redundancy in its savepoints is paid for on every hop. Beyond \
            the paper, a pass before each transfer demotes repeated images \
            to markers. Under state logging it halves the transfer bytes; \
            under transition logging the deltas are already near-minimal, \
            the cost gate runs no pass and the bytes do not move. On a log \
            of repeated 512 B images the pass removes 78 % at 8 savepoints \
            and 88 % at 64.",
        table: e11_compaction,
    },
    Experiment {
        title: "E12 Two invisible switches: itinerary interning, the resident cache",
        claim: "Beyond the paper, two optimisations that change no virtual \
            time. Interning ships an 8-byte reference for an itinerary the \
            next node already holds: on a warm fleet it cuts the \
            record-carrying migration bytes 2.90×, and both arms settle at \
            the same instant. The resident cache keeps a decoded record \
            between same-node steps: 28 of 32 steps in same-node runs of 8 \
            are served from it, at equal virtual time. What either is worth \
            in wall clock is not claimed.",
        table: e12_invisible_switches,
    },
];

/// `EXPERIMENTS.md`: every table, under its title and claim.
pub fn document() -> String {
    let mut out = String::from(
        "# Experiments\n\n\
         The paper-level numbers of this reproduction: transfers, rollback \
         rounds, RCE lists and bytes, in virtual time on the simulated LAN. \
         They are deterministic. `crates/bench/src/experiments.rs` \
         generates this file, and its test fails on any changed byte. \
         Regenerate it with\n\n\
         ```sh\n\
         cargo run --release -p mar-bench --bin report > EXPERIMENTS.md\n\
         ```\n",
    );
    for e in &EXPERIMENTS {
        let mut rows = Table::default();
        (e.table)(&mut rows);
        let _ = write!(
            out,
            "\n## {}\n\n{}\n\n```text\n{}\n```\n",
            e.title,
            e.claim,
            rows.0.join("\n")
        );
    }
    out
}

/// An experiment's rows, cells joined by ` | `.
#[derive(Default)]
struct Table(Vec<String>);

impl Table {
    fn row(&mut self, cells: &[String]) {
        self.0.push(cells.join(" | "));
    }
}

/// E1 — forward execution cost vs agent payload size (Fig. 1 substrate).
fn e1_forward_throughput(t: &mut Table) {
    t.row(&[
        format!("{:>10}", "SRO pad/B"),
        format!("{:>10}", "sim ms"),
        format!("{:>12}", "ms/step"),
        format!("{:>10}", "transfers"),
        format!("{:>12}", "bytes moved"),
    ]);
    for pad in [0usize, 512, 4096, 16384] {
        let stats = Scenario::forward(16, 4, pad, 42).run();
        t.row(&[
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
fn e2_log_entries(t: &mut Table) {
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
    t.row(&[format!("{:<28}", "entry"), format!("{:>8}", "bytes")]);
    let sp_size = log.iter().next().unwrap().encoded_size();
    t.row(&[
        format!("{:<28}", "SP (256B SRO image + cursor)"),
        format!("{sp_size:>8}"),
    ]);
    t.row(&[
        format!("{:<28}", "BOS"),
        format!("{:>8}", bos.encoded_size()),
    ]);
    t.row(&[
        format!("{:<28}", "OE (bank.undo_transfer)"),
        format!("{:>8}", oe.encoded_size()),
    ]);
    t.row(&[
        format!("{:<28}", "EOS (2 alt nodes)"),
        format!("{:>8}", eos.encoded_size()),
    ]);
}

/// E3 — rollback latency and transfers vs depth (Fig. 3/4, basic).
fn e3_rollback_latency(t: &mut Table) {
    t.row(&[
        format!("{:>6}", "depth"),
        format!("{:>10}", "rounds"),
        format!("{:>10}", "transfers"),
        format!("{:>12}", "rbk bytes"),
        format!("{:>10}", "sim ms"),
    ]);
    for depth in [1usize, 2, 4, 8, 16, 32] {
        let stats = Scenario::rollback(depth, 4, None, 0, RollbackMode::Basic, 7).run();
        t.row(&[
            format!("{:>6}", depth),
            format!("{:>10}", stats.rounds),
            format!("{:>10}", stats.transfers_rbk),
            format!("{:>12}", stats.bytes_rbk),
            format!("{:>10.2}", stats.sim_us as f64 / 1000.0),
        ]);
    }
}

/// E4 — basic vs optimized vs mixed-entry fraction (Fig. 5 / C1+C2).
fn e4_basic_vs_optimized(t: &mut Table) {
    t.row(&[
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
            t.row(&[
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
fn e5_itinerary_log_policies(t: &mut Table) {
    use mar_itinerary::ItineraryBuilder;
    use mar_platform::{AgentSpec, PlatformBuilder};
    use mar_simnet::{NodeId, SimDuration};

    t.row(&[
        format!("{:<26}", "policy"),
        format!("{:>10}", "discards"),
        format!("{:>10}", "SP removed"),
        format!("{:>14}", "fwd bytes"),
    ]);
    // Policy A: one monolithic sub (log only discarded at the very end).
    // Policy B: nested subs of 6 (savepoints removed as subs complete).
    // Policy C: four top-level subs of 6 (log discarded after each part).
    let mut run = |label: &str, builder: fn() -> mar_itinerary::Itinerary| {
        let it = builder();
        let mut b = PlatformBuilder::new(4)
            .seed(5)
            .behavior("bench", crate::BenchAgent);
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
        t.row(&[
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
fn e6_logging_modes(t: &mut Table) {
    t.row(&[
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
            t.row(&[
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
fn e7_migration_overhead(t: &mut Table) {
    let link = LinkParams::default();
    t.row(&[
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
        t.row(&[
            format!("{:>10}", log_kb),
            format!("{:>14}", total),
            format!("{:>12}", cost),
            format!("{:>9.2}x", cost as f64 / base_cost as f64),
        ]);
    }
}

/// E8 — RPC vs migration crossover (\[16\]-style model, §4.4.1).
fn e8_rpc_vs_migration(t: &mut Table) {
    let model = CostModel::new(LinkParams::default());
    t.row(&[
        format!("{:>12}", "agent KB"),
        format!("{:>10}", "log KB"),
        format!("{:>16}", "crossover ops"),
    ]);
    for agent_kb in [2usize, 16, 64] {
        for log_kb in [0usize, 16, 64] {
            let k = model
                .crossover_ops(agent_kb * 1024, log_kb * 1024, true, 200, 400)
                .unwrap();
            t.row(&[
                format!("{:>12}", agent_kb),
                format!("{:>10}", log_kb),
                format!("{:>16}", k),
            ]);
        }
    }
}

/// E9 — rollback completion time vs failure density (§4.3 / C5).
fn e9_failure_sweep(t: &mut Table) {
    use mar_simnet::{FailurePlan, SimDuration};
    t.row(&[
        format!("{:>12}", "node MTBF ms"),
        format!("{:>10}", "crashes"),
        format!("{:>12}", "sim ms"),
        format!("{:>10}", "slowdown"),
    ]);
    let baseline: RunStats = Scenario::rollback(8, 4, None, 0, RollbackMode::Basic, 3).run();
    t.row(&[
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
        t.row(&[
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

/// E10 — batched compensation rounds: compensation 2PCs, rollback
/// transfers/bytes, and completion time on same-node chains, unbatched vs
/// batched (planner::batch fusion), per run length.
fn e10_batched_rollback(t: &mut Table) {
    t.row(&[
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
                t.row(&[
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

/// E11 — pre-transfer compaction on the savepoint-heavy scenario, off vs on
/// under both logging modes, then one pass over a log of repeated images.
fn e11_compaction(t: &mut Table) {
    t.row(&[
        format!("{:<10}", "logging"),
        format!("{:>7}", "compact"),
        format!("{:>12}", "transfer B"),
        format!("{:>7}", "passes"),
        format!("{:>8}", "skipped"),
        format!("{:>8}", "saved B"),
    ]);
    for (label, logging) in [
        ("state", LoggingMode::State),
        ("transition", LoggingMode::Transition),
    ] {
        let base = Scenario::savepoint_heavy(8, 4, 1024, logging, 5);
        for compact in [false, true] {
            let stats = base.clone().with_compaction(compact).run();
            t.row(&[
                format!("{label:<10}"),
                format!("{:>7}", if compact { "on" } else { "off" }),
                format!("{:>12}", stats.bytes_fwd + stats.bytes_rbk),
                format!("{:>7}", stats.compactions),
                format!("{:>8}", stats.compactions_skipped),
                format!("{:>8}", stats.compaction_saved),
            ]);
        }
    }
    t.0.push(String::new());
    t.row(&[
        format!("{:>10}", "savepoints"),
        format!("{:>8}", "log B"),
        format!("{:>12}", "compacted B"),
        format!("{:>8}", "saved %"),
    ]);
    for savepoints in [8usize, 64] {
        let report = redundant_image_log(savepoints, 512).compact(None);
        t.row(&[
            format!("{savepoints:>10}"),
            format!("{:>8}", report.bytes_before),
            format!("{:>12}", report.bytes_after),
            format!(
                "{:>8.1}",
                100.0 * report.saved_bytes() as f64 / report.bytes_before as f64
            ),
        ]);
    }
}

/// A log of `savepoints` explicit savepoints, each repeating the same
/// `image_bytes`-byte SRO image and followed by one empty step: the
/// duplicate-image redundancy compaction removes.
fn redundant_image_log(savepoints: usize, image_bytes: usize) -> mar_core::RollbackLog {
    use mar_core::log::{BosEntry, EosEntry, SpEntry, SroPayload};
    let main = samples::fig6();
    let cursor = Cursor::new(&main);
    let image: mar_core::ObjectMap = [("notes".to_owned(), Value::Bytes(vec![0xA5; image_bytes]))]
        .into_iter()
        .collect();
    let mut log = mar_core::RollbackLog::new();
    for seq in 0..savepoints as u64 {
        log.push(LogEntry::Savepoint(SpEntry {
            id: mar_core::SavepointId(seq),
            sub_id: None,
            explicit: true,
            cursor: cursor.clone(),
            table: SavepointTable::new(),
            sro: SroPayload::Full(image.clone()),
        }));
        log.push(LogEntry::BeginOfStep(BosEntry {
            node: 1,
            step_seq: seq,
            method: format!("m{seq}"),
        }));
        log.push(LogEntry::EndOfStep(EosEntry {
            node: 1,
            step_seq: seq,
            method: format!("m{seq}"),
            has_mixed: false,
            alt_nodes: vec![],
        }));
    }
    log
}

/// E12 — the two switches nothing simulated may see, off vs on: itinerary
/// interning on a warm fleet, the resident cache on same-node runs. Equal
/// virtual time is asserted, as the premise of the comparison.
fn e12_invisible_switches(t: &mut Table) {
    t.row(&[
        format!("{:>9}", "interning"),
        format!("{:>12}", "migration B"),
        format!("{:>10}", "ref hops"),
        format!("{:>11}", "decode hits"),
        format!("{:>10}", "settle ms"),
    ]);
    let warm = |interning| {
        crate::ItineraryFleetScenario {
            agents: 6,
            nodes: 4,
            laps: 6,
            name_pad: 128,
            seed: 47,
            interning,
        }
        .run()
    };
    let arms = [false, true].map(|on| (on, warm(on)));
    assert_eq!(
        arms[0].1.settle_us, arms[1].1.settle_us,
        "interning must not move virtual time"
    );
    for (on, stats) in &arms {
        t.row(&[
            format!("{:>9}", if *on { "on" } else { "off" }),
            format!("{:>12}", stats.migration_bytes),
            format!("{:>10}", stats.ref_transfers),
            format!("{:>11}", stats.cache_hits),
            format!("{:>10.2}", stats.settle_us as f64 / 1000.0),
        ]);
    }
    t.0.push(String::new());
    t.row(&[
        format!("{:>9}", "cache"),
        format!("{:>6}", "steps"),
        format!("{:>13}", "resident hits"),
        format!("{:>10}", "sim ms"),
    ]);
    let runs = Scenario::forward_runs(32, 4, 8, 256, 42);
    let arms = [false, true].map(|on| (on, runs.clone().with_resident_cache(on).run()));
    assert_eq!(
        (arms[0].1.sim_us, &arms[0].1.final_record),
        (arms[1].1.sim_us, &arms[1].1.final_record),
        "the resident cache must not move virtual time or the final record"
    );
    for (on, stats) in &arms {
        t.row(&[
            format!("{:>9}", if *on { "on" } else { "off" }),
            format!("{:>6}", stats.steps),
            format!("{:>13}", stats.metrics.counter("resident.hits")),
            format!("{:>10.2}", stats.sim_us as f64 / 1000.0),
        ]);
    }
}
