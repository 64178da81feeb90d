//! Full-stack smoke tests: forward execution and a simple partial rollback
//! over a few simulated nodes.

#[path = "../../core/tests/common/hostile.rs"]
mod hostile;

use mar_core::{AgentId, AgentRecord, DataSpace, LoggingMode, RollbackMode, RollbackScope};
use mar_itinerary::ItineraryBuilder;
use mar_platform::{
    metric_keys as mk, AgentBehavior, AgentSpec, MoleMsg, Platform, PlatformBuilder, ReportOutcome,
    StepCtx, StepDecision, MOLE,
};
use mar_resources::{comp_undo_transfer, BankRm, DirectoryRm};
use mar_simnet::{Address, NodeId, SimDuration, TraceKind};
use mar_txn::{RmRegistry, TxnError};
use mar_wire::Value;

/// Collects one directory entry per node into a strongly reversible vector.
struct Collector;

impl AgentBehavior for Collector {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        assert!(method.starts_with("collect"));
        let found = ctx.call(
            "dir",
            "query",
            &Value::map([("topic", Value::from("offers"))]),
        )?;
        ctx.sro_push("notes", found);
        Ok(StepDecision::Continue)
    }
}

/// Transfers money on two nodes; on the first visit to the decision step it
/// requests a rollback of the current sub-itinerary, on the second it
/// continues — state it remembers in an *uncompensated* weakly reversible
/// object, which is exactly how an agent "deals with the changed situation"
/// after a rollback (§3.2).
struct Trader;

impl AgentBehavior for Trader {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        match method {
            "reserve" => {
                ctx.call(
                    "bank",
                    "transfer",
                    &Value::map([
                        ("from", Value::from("alice")),
                        ("to", Value::from("escrow")),
                        ("amount", Value::from(40i64)),
                    ]),
                )?;
                ctx.compensate(comp_undo_transfer("bank", "alice", "escrow", 40))?;
                Ok(StepDecision::Continue)
            }
            "decide" => {
                let attempts = ctx.wro("attempts").and_then(Value::as_i64).unwrap_or(0);
                if attempts == 0 {
                    // A plain set_wro would be undone with the aborting step
                    // transaction; memos ride on the rollback request.
                    ctx.rollback_memo("attempts", Value::from(1i64));
                    Ok(StepDecision::Rollback(RollbackScope::CurrentSub))
                } else {
                    Ok(StepDecision::Continue)
                }
            }
            other => Ok(StepDecision::Fail(format!("unknown step {other}"))),
        }
    }
}

fn collector_platform(seed: u64) -> Platform {
    collector_builder(seed).build()
}

fn collector_builder(seed: u64) -> PlatformBuilder {
    let mut b = PlatformBuilder::new(4)
        .seed(seed)
        .behavior("collector", Collector);
    for n in 1..4u32 {
        b = b.resources(NodeId(n), move || {
            let mut rms = RmRegistry::new();
            rms.register(Box::new(
                DirectoryRm::new("dir")
                    .with_entry("offers", Value::from(format!("offer-from-node-{n}"))),
            ));
            rms
        });
    }
    b
}

#[test]
fn collector_visits_all_nodes_and_completes() {
    let mut p = collector_platform(1);
    let it = ItineraryBuilder::main("I")
        .sub("gather", |s| {
            s.step("collect1", 1)
                .step("collect2", 2)
                .step("collect3", 3);
        })
        .build()
        .unwrap();
    let agent = p.launch(AgentSpec::new("collector", NodeId(0), it));
    assert!(
        p.run_until_settled(&[agent], SimDuration::from_secs(60)),
        "agent should finish"
    );
    let report = p.report(agent).unwrap();
    assert_eq!(report.outcome, ReportOutcome::Completed);
    assert_eq!(report.steps_committed, 3);
    let notes = report.record.data.sro("notes").unwrap().as_list().unwrap();
    assert_eq!(notes.len(), 3);
    // Exactly-once: the agent is in no queue anymore.
    assert_eq!(p.residence_count(agent), 0);
    // The gather sub-itinerary is top-level: the log was discarded.
    assert!(report.record.log.is_empty());
    let m = p.snapshot();
    assert_eq!(m.counter(mk::STEPS_COMMITTED), 3);
    assert_eq!(m.counter(mk::AGENT_COMPLETED), 1);
    assert_eq!(m.counter(mk::LOG_DISCARDS), 1);
}

#[test]
fn deterministic_across_reruns() {
    let run = |seed| {
        let mut p = collector_platform(seed);
        let it = ItineraryBuilder::main("I")
            .sub("gather", |s| {
                s.step("collect1", 1).step("collect2", 2);
            })
            .build()
            .unwrap();
        let agent = p.launch(AgentSpec::new("collector", NodeId(0), it));
        p.run_until_settled(&[agent], SimDuration::from_secs(60));
        (p.report(agent).map(|r| r.finished_at_us), p.snapshot())
    };
    assert_eq!(run(7), run(7));
}

fn trader_platform(seed: u64, mode: RollbackMode) -> (Platform, mar_platform::AgentHandle) {
    let mut p = PlatformBuilder::new(3)
        .seed(seed)
        .behavior("trader", Trader)
        .resources(NodeId(1), || {
            let mut rms = RmRegistry::new();
            rms.register(Box::new(
                BankRm::new("bank", false)
                    .with_account("alice", 100)
                    .with_account("escrow", 0),
            ));
            rms
        })
        .build();
    let it = ItineraryBuilder::main("I")
        .sub("trade", |s| {
            s.step("reserve", 1).step("decide", 2);
        })
        .build()
        .unwrap();
    let mut spec = AgentSpec::new("trader", NodeId(0), it);
    spec.mode = mode;
    spec.logging = LoggingMode::State;
    let agent = p.launch(spec);
    (p, agent)
}

fn assert_trader_run(mode: RollbackMode) {
    let (mut p, agent) = trader_platform(3, mode);
    assert!(
        p.run_until_settled(&[agent], SimDuration::from_secs(120)),
        "agent should finish (mode {mode:?})"
    );
    let report = p.report(agent).unwrap();
    assert_eq!(report.outcome, ReportOutcome::Completed, "mode {mode:?}");
    // Committed steps: reserve, then (after the rollback compensated it)
    // reserve again and decide. The first decide aborted — never committed.
    assert_eq!(report.steps_committed, 3);

    let m = p.snapshot();
    assert_eq!(m.counter(mk::ROLLBACK_STARTED), 1);
    assert_eq!(m.counter(mk::ROLLBACK_COMPLETED), 1);

    // Compensation really ran: the net effect is exactly ONE transfer.
    let world = p.world_mut();
    let mole = world
        .service_mut::<mar_platform::MoleService>(NodeId(1), mar_platform::MOLE)
        .unwrap();
    let money = mole.rms().audit_money();
    assert_eq!(money.get("USD"), Some(&100), "conservation");
    // Final balances: alice 60, escrow 40 (one effective transfer).
    let audit = mole.rms();
    let bank = audit.get("bank").unwrap().audit_money();
    assert_eq!(bank.get("USD").and_then(Value::as_i64), Some(100));
    assert_eq!(p.residence_count(agent), 0);
}

#[test]
fn trader_rolls_back_and_recovers_basic() {
    assert_trader_run(RollbackMode::Basic);
}

#[test]
fn trader_rolls_back_and_recovers_optimized() {
    assert_trader_run(RollbackMode::Optimized);
}

/// The acceptance bar of the handle-based driver API: a ≥100-agent fleet
/// settles through `launch_fleet`/`drain_reports`, with completion
/// detection costing one mailbox event per agent — not a stable-store scan
/// per tick per node.
#[test]
fn fleet_of_100_settles_with_mailbox_events_only() {
    const FLEET: usize = 100;
    let mut p = collector_platform(11);
    let it = || {
        ItineraryBuilder::main("I")
            .sub("gather", |s| {
                s.step("collect1", 1).step("collect2", 2);
            })
            .build()
            .unwrap()
    };
    let handles = p.launch_fleet((0..FLEET).map(|_| AgentSpec::new("collector", NodeId(0), it())));
    assert_eq!(handles.len(), FLEET);
    assert!(
        p.run_until_settled(&handles, SimDuration::from_secs(600)),
        "fleet should settle"
    );
    for h in &handles {
        let report = p.report(*h).unwrap();
        assert_eq!(report.outcome, ReportOutcome::Completed, "{h}");
    }
    let m = p.snapshot();
    assert_eq!(m.counter(mk::AGENT_COMPLETED), FLEET as u64);
    // Exactly one mailbox event per completion was consumed.
    assert_eq!(m.counter(mk::DRIVER_MBOX_EVENTS), FLEET as u64);
    // Reports flowed once: local completions plus acked remote deliveries.
    assert!(m.counter(mk::DRIVER_MBOX_SCANS) > 0);
}

/// The queue items the run dropped, as traced: `(node, detail)` each. The
/// same drops are counted under `agent.items_dropped`, trace or no trace.
fn dropped_items(p: &Platform) -> Vec<(u32, &str)> {
    let records = p.world().trace().records().iter();
    let dropped = records.filter_map(|r| match &r.kind {
        TraceKind::Failure {
            node,
            counter,
            detail,
        } if *counter == mk::AGENT_ITEMS_DROPPED => Some((*node, detail.as_str())),
        _ => None,
    });
    dropped.collect()
}

/// A node survives what it is handed: a launched record that is valid but
/// for a data space nested 100,000 deep (200 KB, far inside the frame limit)
/// is dropped as an unreadable queue item — it used to overflow the stack of
/// the host that parsed it, and again after every restart, the item being
/// stable — and the agents queued around it complete.
#[test]
fn a_record_nested_past_the_stack_is_dropped_and_the_fleet_completes() {
    let mut p = collector_builder(23).trace(true).build();
    let it = || {
        ItineraryBuilder::main("I")
            .sub("gather", |s| {
                s.step("collect1", 1).step("collect2", 2);
            })
            .build()
            .unwrap()
    };
    let mut handles = p.launch_fleet((0..3).map(|_| AgentSpec::new("collector", NodeId(0), it())));
    let record = AgentRecord::new(
        AgentId(999),
        "collector",
        0,
        DataSpace::new(),
        it(),
        LoggingMode::State,
        RollbackMode::Optimized,
    );
    let deep = hostile::record_with_deep_data(&record.to_bytes().unwrap());
    let launch = MoleMsg::Launch {
        record: deep.into(),
    };
    p.world_mut()
        .post(Address::new(NodeId(0), MOLE), launch.encode());
    handles.extend(p.launch_fleet((0..3).map(|_| AgentSpec::new("collector", NodeId(0), it()))));

    assert!(
        p.run_until_settled(&handles, SimDuration::from_secs(600)),
        "the readable agents settle"
    );
    for h in &handles {
        assert_eq!(p.report(*h).unwrap().outcome, ReportOutcome::Completed);
    }
    let dropped = dropped_items(&p);
    assert!(
        matches!(dropped[..], [(0, detail)] if detail.contains("nested deeper")),
        "{dropped:?}"
    );
    assert_eq!(p.snapshot().counter(mk::AGENT_ITEMS_DROPPED), 1);
    assert!(p.queued_agents().is_empty(), "the item left the queue");
}

/// A record whose log frames but holds an entry that does not decode (the
/// lazy parse checks framing, not entries) travels like any other until
/// something needs its entries, and is dropped there — on the node and at
/// the operation pinned below — while the fleet around it completes. It
/// used to be dropped at its first hop whenever its log had reached a
/// kilobyte: the transfer gate decoded every such log to ask it a question.
#[test]
fn a_log_that_frames_but_does_not_decode_surfaces_where_its_entries_are_needed() {
    let collect = |build: fn(&mut mar_itinerary::SubBuilder)| {
        ItineraryBuilder::main("I")
            .sub("outer", build)
            .build()
            .unwrap()
    };
    // Twenty step frames of an earlier life, the first with a variant index
    // no log entry has: well over a kilobyte of log, a savepoint payload
    // that cannot pay for a compaction pass unless `blob` makes it.
    let hostile = |id: u64, agent_type: &str, blob: usize, itinerary| {
        let mut data = DataSpace::new();
        data.set_sro("blob", Value::from("b".repeat(blob)));
        let mut record = AgentRecord::new(
            AgentId(id),
            agent_type,
            0,
            data,
            itinerary,
            LoggingMode::State,
            RollbackMode::Optimized,
        );
        for k in 0..20 {
            record.log.append_step(0, k, "an-earlier-step", [], vec![]);
        }
        assert!(record.log.size_bytes() > 1024);
        let mut bytes = record.to_bytes().unwrap();
        let mut fields = mar_wire::FieldCursor::open(&bytes, 12).unwrap();
        for _ in 0..7 {
            fields.skip().unwrap();
        }
        fields.enter(2).unwrap();
        fields.enter_seq().unwrap();
        let first_entry = fields.skip().unwrap();
        bytes[first_entry.start + 1] = 9;
        mar_core::LazyRecord::parse(&bytes).expect("still frames");
        assert!(AgentRecord::from_bytes(&bytes).is_err(), "does not decode");
        bytes
    };
    let cases = [
        // Leaving a top-level sub-itinerary discards the log unread: the
        // agent completes, having crossed two nodes with its bad entry.
        (
            hostile(
                900,
                "collector",
                8,
                collect(|s| {
                    s.step("collect1", 1).step("collect2", 2);
                }),
            ),
            None,
        ),
        // Leaving a nested one removes its savepoint entry: decoded, and
        // dropped, on the node of the sub-itinerary's last step.
        (
            hostile(
                901,
                "collector",
                8,
                collect(|s| {
                    s.sub("inner", |i| {
                        i.step("collect1", 1).step("collect2", 2);
                    })
                    .step("collect3", 3);
                }),
            ),
            Some(2),
        ),
        // A rollback reads the log: dropped where the agent asked for one.
        (
            hostile(
                902,
                "trader",
                8,
                collect(|s| {
                    s.step("decide", 2);
                }),
            ),
            Some(2),
        ),
        // A savepoint payload that can pay for a pass is decoded for it, at
        // the gate of the first hop.
        (
            hostile(
                903,
                "collector",
                1200,
                collect(|s| {
                    s.step("collect1", 1).step("collect2", 2);
                }),
            ),
            Some(0),
        ),
    ];
    for (n, (record, dropped_on)) in cases.into_iter().enumerate() {
        let mut p = collector_builder(29 + n as u64)
            .behavior("trader", Trader)
            .trace(true)
            .build();
        let it = || {
            collect(|s| {
                s.step("collect1", 1).step("collect2", 2);
            })
        };
        let mut handles =
            p.launch_fleet((0..3).map(|_| AgentSpec::new("collector", NodeId(0), it())));
        let id = AgentRecord::peek_header(&record).unwrap().id;
        let launch = MoleMsg::Launch {
            record: record.into(),
        };
        p.world_mut()
            .post(Address::new(NodeId(0), MOLE), launch.encode());
        handles
            .extend(p.launch_fleet((0..3).map(|_| AgentSpec::new("collector", NodeId(0), it()))));
        p.run_until_settled(&handles, SimDuration::from_secs(600));
        p.run_for(SimDuration::from_secs(60));
        for h in &handles {
            assert_eq!(p.report(*h).unwrap().outcome, ReportOutcome::Completed);
        }
        let dropped = dropped_items(&p);
        let counted = p.snapshot().counter(mk::AGENT_ITEMS_DROPPED);
        match dropped_on {
            None => {
                assert!(dropped.is_empty(), "case {n}: {dropped:?}");
                assert_eq!(counted, 0, "case {n}");
                assert_eq!(p.snapshot().counter(mk::AGENT_COMPLETED), 7, "case {n}");
            }
            Some(node) => {
                assert!(
                    matches!(dropped[..], [(at, detail)]
                        if at == node && detail.contains("variant index 9")),
                    "case {n}: {dropped:?}"
                );
                assert_eq!(counted, 1, "case {n}");
                assert_eq!(p.snapshot().counter(mk::AGENT_COMPLETED), 6, "case {n}");
            }
        }
        assert!(
            p.queued_agents().is_empty(),
            "case {n}: {id:?} left the queues"
        );
    }
}

/// A rolling-back record whose itinerary frames but does not decode is
/// planned on as it is (the planner reads the log, never the itinerary),
/// runs its compensation rounds and moves between them, and is dropped where
/// its cursor is first needed: on the node where the rollback reaches its
/// savepoint. It used to be dropped at its first round, on node 2, because
/// planning began by decoding the whole record. The compensation that last
/// round ran is aborted with it: the bank it locked serves the next agent.
#[test]
fn an_itinerary_that_frames_but_does_not_decode_surfaces_where_the_rollback_resumes() {
    let it = || {
        ItineraryBuilder::main("I")
            .sub("gather", |s| {
                s.step("collect1", 1).step("collect2", 2);
            })
            .build()
            .unwrap()
    };
    let mut record = AgentRecord::new(
        AgentId(904),
        "collector",
        0,
        DataSpace::new(),
        it(),
        LoggingMode::State,
        RollbackMode::Basic,
    );
    let cursor = record.cursor.clone();
    let target = record.table.on_enter_sub(
        "gather",
        &mut record.data,
        &cursor,
        &mut record.log,
        LoggingMode::State,
    );
    // Two committed steps to compensate, the newest on node 2, where the
    // record is launched: basic mode runs one round there and moves the
    // agent to node 1 for the other, which gives 40 back from the escrow.
    let undo = (
        mar_core::comp::EntryKind::Resource,
        comp_undo_transfer("bank", "alice", "escrow", 40),
    );
    for (seq, node, ops) in [(0, 1, vec![undo]), (1, 2, vec![])] {
        record.log.append_step(node, seq, "collect", ops, vec![]);
        record.step_seq += 1;
        record.table.on_step_committed();
    }
    record.status = mar_core::AgentStatus::RollingBack { target };
    let mut bytes = record.to_bytes().unwrap();
    // The itinerary's last field is its `Order`, a unit variant: give it an
    // index `Order` does not have.
    let span = mar_core::itinspan::itinerary_span(&bytes).unwrap();
    assert_eq!(
        bytes[span.end - 2..span.end],
        [0x0d, 0x00],
        "Order::Sequence"
    );
    bytes[span.end - 1] = 9;
    mar_core::LazyRecord::parse(&bytes).expect("still frames");
    assert!(AgentRecord::from_bytes(&bytes).is_err(), "does not decode");

    let mut p = collector_builder(31)
        .behavior("trader", Trader)
        .resources(NodeId(1), || {
            let mut rms = RmRegistry::new();
            rms.register(Box::new(
                DirectoryRm::new("dir").with_entry("offers", Value::from("offer-from-node-1")),
            ));
            rms.register(Box::new(
                BankRm::new("bank", false)
                    .with_account("alice", 100)
                    .with_account("escrow", 40),
            ));
            rms
        })
        .trace(true)
        .build();
    let mut handles = p.launch_fleet((0..3).map(|_| AgentSpec::new("collector", NodeId(0), it())));
    p.world_mut().post(
        Address::new(NodeId(2), MOLE),
        MoleMsg::Launch {
            record: bytes.into(),
        }
        .encode(),
    );
    handles.extend(p.launch_fleet((0..3).map(|_| AgentSpec::new("collector", NodeId(0), it()))));
    assert!(p.run_until_settled(&handles, SimDuration::from_secs(600)));
    p.run_for(SimDuration::from_secs(60));
    for h in &handles {
        assert_eq!(p.report(*h).unwrap().outcome, ReportOutcome::Completed);
    }
    let dropped = dropped_items(&p);
    assert!(
        matches!(dropped[..], [(1, detail)] if detail.contains("variant index 9")),
        "{dropped:?}"
    );
    let m = p.snapshot();
    assert_eq!(m.counter(mk::AGENT_ITEMS_DROPPED), 1);
    // The round on node 2 committed and moved the agent; the one on node 1
    // planned, compensated, found no cursor to resume at, and aborted.
    assert_eq!(m.counter(mk::COMP_OPS), 1);
    assert_eq!(m.counter(mk::ROLLBACK_ROUNDS), 1);
    assert_eq!(m.counter(mk::TRANSFERS_ROLLBACK), 1);
    assert_eq!(m.counter(mk::ROLLBACK_COMPLETED), 0);
    assert_eq!(m.counter(mk::AGENT_COMPLETED), 6);
    assert!(p.queued_agents().is_empty(), "the item left the queue");

    // A trader reserves from the accounts the aborted round had locked.
    let trade = ItineraryBuilder::main("I")
        .sub("trade", |s| {
            s.step("reserve", 1).step("decide", 2);
        })
        .build()
        .unwrap();
    let trader = p.launch(AgentSpec::new("trader", NodeId(0), trade));
    assert!(p.run_until_settled(&[trader], SimDuration::from_secs(600)));
    assert_eq!(p.report(trader).unwrap().outcome, ReportOutcome::Completed);
    assert_eq!(p.snapshot().counter(mk::STEPS_ABORTED), 0);
}

/// Report / mailbox GC: after the driver drains a report, the stable
/// artifacts of the finished agent — the home `report/<id>` copy, the
/// completing node's `done/<id>` record and its outbox entry — are gone,
/// so a long-lived fleet platform does not grow stable storage per
/// finished agent. The report itself stays served from the driver cache,
/// and the money audit still sees the drained wallets.
#[test]
fn drained_reports_are_garbage_collected_from_stable_storage() {
    const FLEET: usize = 20;
    let mut p = collector_platform(17);
    let it = || {
        ItineraryBuilder::main("I")
            .sub("gather", |s| {
                s.step("collect1", 1).step("collect2", 2);
            })
            .build()
            .unwrap()
    };
    let handles = p.launch_fleet((0..FLEET).map(|_| AgentSpec::new("collector", NodeId(0), it())));
    assert!(p.run_until_settled(&handles, SimDuration::from_secs(600)));
    let m = p.snapshot();
    assert_eq!(m.counter(mk::DRIVER_REPORTS_GC), FLEET as u64);
    for node in p.world().node_ids() {
        for prefix in ["report/", "done/", "report-outbox/"] {
            assert_eq!(
                p.world().stable(node).keys_with_prefix(prefix),
                Vec::<String>::new(),
                "stale {prefix} artifacts on {node}"
            );
        }
    }
    // Reports still resolve (from the driver cache), exactly once each.
    for h in &handles {
        assert_eq!(p.report(*h).unwrap().outcome, ReportOutcome::Completed);
    }
}

/// Completions reached by hand-driven `run_for` must be visible to a
/// zero-deadline `run_until_settled` (it drains the mailboxes before
/// deciding, like the pre-handle implementation checked reports up front).
#[test]
fn settle_with_zero_deadline_sees_already_finished_agents() {
    let mut p = collector_platform(13);
    let it = ItineraryBuilder::main("I")
        .sub("gather", |s| {
            s.step("collect1", 1);
        })
        .build()
        .unwrap();
    let agent = p.launch(AgentSpec::new("collector", NodeId(0), it));
    p.run_for(SimDuration::from_secs(30)); // manual drive, no drain
    assert!(
        p.run_until_settled(&[agent], SimDuration::ZERO),
        "finished agent must be visible without advancing time"
    );
}

#[test]
fn optimized_mode_moves_agent_less() {
    let run = |mode| {
        let (mut p, agent) = trader_platform(5, mode);
        p.run_until_settled(&[agent], SimDuration::from_secs(120));
        p.snapshot().counter(mk::TRANSFERS_ROLLBACK)
    };
    let basic = run(RollbackMode::Basic);
    let optimized = run(RollbackMode::Optimized);
    // The compensated step (reserve@1) has only an RCE: the optimized mode
    // must not move the agent at all during rollback.
    assert!(basic >= 1, "basic transfers: {basic}");
    assert_eq!(optimized, 0, "optimized transfers: {optimized}");
}

fn capped_platform(seed: u64, cap: usize) -> Platform {
    let mut b = PlatformBuilder::new(4)
        .seed(seed)
        .report_cache_cap(cap)
        .behavior("collector", Collector);
    for n in 1..4u32 {
        b = b.resources(NodeId(n), move || {
            let mut rms = RmRegistry::new();
            rms.register(Box::new(
                DirectoryRm::new("dir")
                    .with_entry("offers", Value::from(format!("offer-from-node-{n}"))),
            ));
            rms
        });
    }
    b.build()
}

/// The driver's report cache is bounded: beyond the configured cap, the
/// least-recently-used reports are dropped (their stable artifacts were
/// already garbage-collected on drain, so they are gone for good) and the
/// loss is visible in `driver.reports_evicted`.
#[test]
fn report_cache_evicts_least_recently_used_beyond_cap() {
    const FLEET: usize = 5;
    const CAP: usize = 2;
    let mut p = capped_platform(19, CAP);
    let it = || {
        ItineraryBuilder::main("I")
            .sub("gather", |s| {
                s.step("collect1", 1);
            })
            .build()
            .unwrap()
    };
    let handles = p.launch_fleet((0..FLEET).map(|_| AgentSpec::new("collector", NodeId(0), it())));
    assert!(p.run_until_settled(&handles, SimDuration::from_secs(600)));
    assert_eq!(
        p.snapshot().counter(mk::DRIVER_REPORTS_EVICTED),
        (FLEET - CAP) as u64
    );
    let cached = handles.iter().filter(|h| p.report(**h).is_some()).count();
    assert_eq!(cached, CAP, "exactly the cap's worth of reports survive");
}

/// `Platform::forget` releases a report and every trace the driver keeps
/// of the agent; under the (large) default cap nothing is ever evicted.
#[test]
fn forget_releases_report_exactly_once() {
    let mut p = collector_platform(23);
    let it = ItineraryBuilder::main("I")
        .sub("gather", |s| {
            s.step("collect1", 1);
        })
        .build()
        .unwrap();
    let agent = p.launch(AgentSpec::new("collector", NodeId(0), it));
    assert!(p.run_until_settled(&[agent], SimDuration::from_secs(60)));

    let report = p.forget(agent).expect("report was cached");
    assert_eq!(report.outcome, ReportOutcome::Completed);
    assert!(p.forget(agent).is_none(), "second forget finds nothing");
    // A forgotten agent is as unknown to the driver as one it never
    // launched: no report, and nothing left in stable storage to find.
    assert!(p.report(agent).is_none());
    assert!(p.report(AgentId(9_999)).is_none());
    assert_eq!(p.snapshot().counter(mk::DRIVER_REPORTS_EVICTED), 0);
}

/// One collector agent launched at node 0 that migrates `hops` times, round
/// the resource nodes 1, 2, 3, 1, …, run to its end with tracing on.
fn tour(hops: u32) -> Platform {
    let mut p = collector_builder(31).trace(true).build();
    let it = ItineraryBuilder::main("I")
        .sub("gather", |s| {
            for i in 0..hops {
                s.step(format!("collect{i}"), 1 + i % 3);
            }
        })
        .build()
        .unwrap();
    let agent = p.launch(AgentSpec::new("collector", NodeId(0), it));
    assert!(p.run_until_settled(&[agent], SimDuration::from_secs(60)));
    assert_eq!(p.snapshot().counter(mk::TRANSFERS_FORWARD), u64::from(hops));
    p
}

/// A migrating hop forces two durable barriers: the source's prepare of its
/// own branch (its resource records, the hold on the item it took, the entry
/// naming the destination) and the destination's commit (the record under
/// its queue key, `2pc/done/`). The source's commit, once the decision is
/// back, only deletes, unforced, and is no barrier. What a tour costs besides
/// its hops is fixed, 4 barriers: the launch's queue item at home; the last
/// step, which completes in place (report, outbox entry); the report's
/// delivery home; and its `ReportAck`, which deletes the outbox entry,
/// forced. The `txnseq` floor each node writes with its first transaction id
/// rides that transaction's prepare.
#[test]
fn a_migrating_hop_forces_two_barriers() {
    const PER_HOP: u64 = 2;
    const FIXED: u64 = 1 + 1 + 1 + 1;
    for hops in [4, 10] {
        assert_eq!(
            tour(hops).snapshot().counter("stable.commits"),
            PER_HOP * u64::from(hops) + FIXED,
            "{hops} hops"
        );
    }
}

/// A fault-free migrating hop is two protocol messages: the source's
/// `Prepare`, which asks the destination to decide, and the destination's
/// `Decision`. Nothing else goes between the nodes of a tour but the report
/// home and its `ReportAck`.
#[test]
fn a_migrating_hop_sends_two_protocol_messages() {
    for hops in [4, 10] {
        let p = tour(hops);
        let between_nodes = p.world().trace().records().iter().filter(
            |r| matches!(&r.kind, TraceKind::MsgSent { from, .. } if from.0 != NodeId::EXTERNAL.0),
        );
        assert_eq!(
            between_nodes.count() as u64,
            2 * u64::from(hops) + 2,
            "{hops} hops"
        );
    }
}

/// The write budget of a hop: the record is written once, as the queue item
/// it becomes at the destination. Over a run of three migrations the stable
/// bytes are the record at launch, the record once per hop, the two copies of
/// the final report (completing node and home), and a fixed allowance for
/// every counter, marker, stub and outbox entry along the way.
#[test]
fn a_hop_writes_the_record_once() {
    const ALLOWANCE: u64 = 512;
    let mut p = collector_platform(29);
    let it = ItineraryBuilder::main("I")
        .sub("gather", |s| {
            s.step("collect1", 1)
                .step("collect2", 2)
                .step("collect3", 3);
        })
        .build()
        .unwrap();
    let mut spec = AgentSpec::new("collector", NodeId(0), it);
    // Ballast, so that a second copy of the record anywhere shows.
    spec.data
        .set_wro("ballast", Value::from("x".repeat(4 * 1024)));
    let launched = mar_core::AgentRecord::new(
        AgentId(1),
        "collector",
        0,
        spec.data.clone(),
        spec.itinerary.clone(),
        spec.logging,
        spec.mode,
    )
    .to_bytes()
    .unwrap()
    .len() as u64;
    let agent = p.launch(spec);
    assert!(p.run_until_settled(&[agent], SimDuration::from_secs(60)));
    let report = p.report(agent).unwrap();
    assert_eq!(report.outcome, ReportOutcome::Completed);
    let report = report.encode().len() as u64;

    let m = p.snapshot();
    assert_eq!(m.counter(mk::TRANSFERS_FORWARD), 3);
    let hops = m.counter(mk::TRANSFER_BYTES_FORWARD);
    assert!(hops > 3 * 4 * 1024);
    let records = launched + hops + 2 * report;
    let written = m.counter("stable.bytes_written");
    assert!(
        (records..=records + ALLOWANCE).contains(&written),
        "{written} stable bytes for {records} bytes of records"
    );
}
