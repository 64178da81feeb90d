//! Crash-window regression: a node that crashes anywhere inside a commit
//! wave recovers exactly its committed resource state.
//!
//! A commit wave is the stretch in which many step transactions on one node
//! sit between their in-place writes and their commit (a step that migrates
//! commits through a 2PC round-trip), while others commit around them. What
//! a commit makes durable must be that transaction's writes and nothing
//! else: a stable image that also captured a neighbour's in-flight write
//! restores it as committed after a crash, the neighbour's step then runs
//! again from its queue item, and the write is applied twice.
//!
//! The fleet has one account pair per agent, so there are no lock conflicts
//! and no retries: whatever the crash instant, every `acct/…` balance on
//! every node must end up exactly where the crash-free run leaves it. The
//! sweep crashes one resource node at every 10 µs across one wave, whose
//! bounds come from the crash-free run's own trace.
//!
//! The same node is then swept as a *participant*: from the first `Prepare`
//! that brings it a record to the last `Ack` of that wave. The record a
//! `Prepare` carries is written once, as the queue item it becomes, and held
//! until the decision; whatever the crash instant, balances, final reports
//! and `steps.committed` equal the crash-free run's, an agent is in at most
//! one queue at every pause, and an aborted transaction leaves neither a
//! `q/` key nor a hold behind.
//!
//! Last, the node is swept as a coordinator once more, past its wave's last
//! `Ack` up to its next forced barrier: there the `Ack`'s delete of the
//! decision is still pending, so the crash brings the decision back and
//! recovery re-sends it, and the run must still end as the crash-free one.

use std::collections::BTreeMap;

use mar_core::RollbackScope;
use mar_itinerary::ItineraryBuilder;
use mar_platform::{
    metric_keys as mk, AgentBehavior, AgentHandle, AgentReport, AgentSpec, MoleService, Platform,
    PlatformBuilder, StepCtx, StepDecision, MOLE,
};
use mar_resources::ops::Transfer;
use mar_resources::BankRm;
use mar_simnet::{NodeId, SimDuration, SimTime, StableFactory, TraceKind, TraceRecord, WalConfig};
use mar_txn::{PreparedEntry, RemoteWork, RmRegistry, TxnError};
use mar_wire::Value;

const NODES: u32 = 4;
const AGENTS: u64 = 12;
const STEPS: u64 = 4;
/// The resource node that crashes.
const VICTIM: u32 = 2;
const SWEEP_STEP_US: u64 = 10;
const DOWNTIME: SimDuration = SimDuration::from_millis(30);

/// Every step moves 1 from `s<k>` to `d<k>`, `k` being the agent's own.
struct PairAgent;

impl AgentBehavior for PairAgent {
    fn step(&self, _method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        let k = ctx.wro("acct").and_then(Value::as_u64).expect("acct set");
        ctx.invoke(&Transfer::new(
            "ledger",
            format!("s{k}"),
            format!("d{k}"),
            1,
        ))?;
        Ok(StepDecision::Continue)
    }
}

fn build(shards: usize, stable: &StableFactory) -> Platform {
    let mut b = PlatformBuilder::new(NODES as usize)
        .seed(1)
        .shards(shards)
        .stable_backend(stable.clone())
        .trace(true)
        .behavior("pair", PairAgent);
    for n in 1..NODES {
        b = b.resources(NodeId(n), ledger);
    }
    b.build()
}

/// A resource node's ledger: one account pair per agent.
fn ledger() -> RmRegistry {
    let mut ledger = BankRm::new("ledger", false);
    for k in 0..AGENTS {
        ledger = ledger
            .with_account(&format!("s{k}"), 1_000)
            .with_account(&format!("d{k}"), 0);
    }
    let mut rms = RmRegistry::new();
    rms.register(Box::new(ledger));
    rms
}

/// Agent `k` runs step `i` on resource node `1 + (k + i) % 3`: every step is
/// a migration, and every node serves a third of the fleet in every wave.
fn launch(p: &mut Platform) -> Vec<AgentHandle> {
    (0..AGENTS)
        .map(|k| {
            let itinerary = ItineraryBuilder::main(format!("I{k}"))
                .sub("S", |s| {
                    for i in 0..STEPS {
                        s.step(
                            format!("hop#{i}"),
                            1 + ((k + i) % (NODES as u64 - 1)) as u32,
                        );
                    }
                })
                .build()
                .expect("valid itinerary");
            let mut spec = AgentSpec::new("pair", NodeId(0), itinerary);
            spec.data.set_wro("acct", Value::from(k));
            p.launch(spec)
        })
        .collect()
}

/// The `acct/…` balances in a ledger image.
fn image_balances(image: &[u8]) -> BTreeMap<String, i64> {
    let mut store = mar_txn::TxStore::new();
    store.restore(image).expect("a ledger image restores");
    store
        .iter()
        .filter(|(key, _)| key.starts_with("acct/"))
        .map(|(key, v)| {
            let balance = mar_wire::from_slice(v).expect("a balance is an i64");
            (key.to_owned(), balance)
        })
        .collect()
}

/// Every `acct/…` balance of every node's ledger, from its committed view.
fn balances(p: &Platform) -> Vec<BTreeMap<String, i64>> {
    (1..NODES)
        .map(|n| {
            let mole = p
                .world()
                .service::<MoleService>(NodeId(n), MOLE)
                .expect("mole runs on every node");
            let ledger = mole.rms().get("ledger").expect("ledger registered");
            image_balances(&ledger.snapshot().expect("snapshot encodes"))
        })
        .collect()
}

fn settle(p: &mut Platform, handles: &[AgentHandle], what: &str) {
    assert!(
        p.run_until_settled(handles, SimDuration::from_secs(600)),
        "{what} must settle"
    );
}

/// A queue-item timer of `node`'s mole firing (its other timers have small tags).
fn is_item_timer(r: &TraceRecord, node: u32) -> bool {
    matches!(&r.kind, TraceKind::TimerFired { node: n, tag, .. }
        if *n == node && *tag > u64::from(u32::MAX))
}

/// The commit window of the victim's first wave, read off the crash-free
/// trace: the first and last instant at which the victim, as coordinator of
/// a step transaction, answers a participant's vote with its decision — the
/// handler that commits the step's resource writes.
///
/// The wave starts when the victim's first queue-item timer fires; its
/// step transactions all prepare at the same next node, whose votes are the
/// only messages from there that the victim answers on the spot (the acks
/// that follow are not answered). The wave ends where the next one's first
/// item timer fires.
fn commit_window(trace: &[TraceRecord]) -> (u64, u64) {
    let touching: Vec<&TraceRecord> = trace
        .iter()
        .filter(|r| match &r.kind {
            TraceKind::MsgSent { from, .. } => from.0 == VICTIM,
            TraceKind::MsgDelivered { to, .. } => to.0 == VICTIM,
            TraceKind::TimerFired { .. } => is_item_timer(r, VICTIM),
            _ => false,
        })
        .collect();
    let per_wave = (AGENTS / (NODES as u64 - 1)) as usize;
    let item_timers: Vec<usize> = (0..touching.len())
        .filter(|&i| matches!(touching[i].kind, TraceKind::TimerFired { .. }))
        .collect();
    assert!(
        item_timers.len() > per_wave,
        "the victim serves several waves"
    );
    let wave = &touching[item_timers[0]..item_timers[per_wave]];
    let next = wave
        .iter()
        .find_map(|r| match &r.kind {
            TraceKind::MsgSent { to, .. } => Some(to.0),
            _ => None,
        })
        .expect("the wave's first step prepares somewhere");
    let commits: Vec<u64> = wave
        .windows(2)
        .filter(|pair| {
            pair[0].at == pair[1].at
                && matches!(&pair[0].kind, TraceKind::MsgDelivered { from, .. } if from.0 == next)
                && matches!(&pair[1].kind, TraceKind::MsgSent { to, .. } if to.0 == next)
        })
        .map(|pair| pair[0].at.as_micros())
        .collect();
    assert_eq!(commits.len(), per_wave, "one commit per step of the wave");
    (commits[0], commits[per_wave - 1])
}

/// The home node: it launches every agent, so the first wave of `Prepare`s a
/// resource node receives comes from here.
const HOME: u32 = 0;
/// Virtual time between two looks at the queues of a crashing run.
const PAUSE: SimDuration = SimDuration::from_micros(500);

/// The victim's first wave as a participant, read off the crash-free trace:
/// from the first `Prepare` delivered to it to the last `Ack` it sends. The
/// wave's transactions are all coordinated by the home node, and until a
/// report is due — several waves later — the victim sends the home node
/// nothing but its vote and its ack for each of them.
fn prepare_window(trace: &[TraceRecord]) -> (u64, u64) {
    let per_wave = (AGENTS / (NODES as u64 - 1)) as usize;
    let first_prepare = trace
        .iter()
        .find_map(|r| match &r.kind {
            TraceKind::MsgDelivered { from, to, .. } if from.0 == HOME && to.0 == VICTIM => {
                Some(r.at.as_micros())
            }
            _ => None,
        })
        .expect("the home node prepares at the victim");
    let answers: Vec<u64> = trace
        .iter()
        .filter_map(|r| match &r.kind {
            TraceKind::MsgSent { from, to, .. } if from.0 == VICTIM && to.0 == HOME => {
                Some(r.at.as_micros())
            }
            _ => None,
        })
        .take(2 * per_wave)
        .collect();
    assert_eq!(answers.len(), 2 * per_wave, "a vote and an ack per step");
    (first_prepare, answers[2 * per_wave - 1])
}

/// What a run leaves behind, crash or no crash: every balance, every final
/// report (less the instant it was written at), and the step commits.
type Outcome = (Vec<BTreeMap<String, i64>>, Vec<AgentReport>, u64);

fn outcome(p: &mut Platform, handles: &[AgentHandle]) -> Outcome {
    let reports = handles
        .iter()
        .map(|&h| {
            let mut report = p.report(h).expect("settled agent has a report");
            report.finished_at_us = 0;
            report
        })
        .collect();
    let steps = p.snapshot().counter(mk::STEPS_COMMITTED);
    (balances(p), reports, steps)
}

/// Runs `p` to the end, stopping every [`PAUSE`] of the first `pauses` to
/// look at the queues: no agent is ever in two.
fn settle_with_pauses(p: &mut Platform, handles: &[AgentHandle], pauses: u64, what: &str) {
    for _ in 0..pauses {
        p.run_for(PAUSE);
        let mut queued: Vec<_> = p.queued_agents().into_iter().map(|(_, id)| id).collect();
        queued.sort();
        let agents = queued.len();
        queued.dedup();
        assert_eq!(queued.len(), agents, "an agent sits in two queues ({what})");
    }
    settle(p, handles, what);
}

/// The sweep: whatever instant of `window` the victim crashes at — as
/// coordinator, inside its commit wave; as participant, before a `Prepare`,
/// between the write of the record and the decision, between the decision
/// and the ack — the run ends as the crash-free one does.
fn sweep(shards: usize, stable: &StableFactory, window: fn(&[TraceRecord]) -> (u64, u64)) {
    let what = format!("shards={shards}, backend={}", stable.name());
    let mut p = build(shards, stable);
    let handles = launch(&mut p);
    settle(&mut p, &handles, &what);
    let expected = outcome(&mut p, &handles);
    assert_eq!(expected.2, AGENTS * STEPS);
    let (first, last) = window(p.world().trace().records());
    assert!(last > first, "the window has a width ({what})");
    // The pauses cover the window, the downtime and the recovery after it.
    let pauses = 2 * (last + DOWNTIME.as_micros()) / PAUSE.as_micros();

    // One step beyond each end frames the window.
    let mut at = first - SWEEP_STEP_US;
    while at <= last + SWEEP_STEP_US {
        let what = format!("crash at {at} us ({what})");
        let mut p = build(shards, stable);
        let crash = SimTime::from_micros(at);
        p.world_mut().schedule_crash(crash, NodeId(VICTIM));
        p.world_mut()
            .schedule_recover(crash + DOWNTIME, NodeId(VICTIM));
        let handles = launch(&mut p);
        settle_with_pauses(&mut p, &handles, pauses, &what);
        assert_eq!(outcome(&mut p, &handles), expected, "{what}");
        assert_eq!(
            p.snapshot().counter(mk::RECOVERY_PREPARED_REFUSED),
            0,
            "{what}"
        );
        at += SWEEP_STEP_US;
    }
}

#[test]
fn crash_in_commit_wave_keeps_balances_reference_1_shard() {
    sweep(1, &StableFactory::reference(), commit_window);
}

#[test]
fn crash_in_commit_wave_keeps_balances_reference_2_shards() {
    sweep(2, &StableFactory::reference(), commit_window);
}

#[test]
fn crash_in_commit_wave_keeps_balances_wal_1_shard() {
    sweep(1, &StableFactory::wal(WalConfig::default()), commit_window);
}

#[test]
fn crash_in_commit_wave_keeps_balances_wal_2_shards() {
    sweep(2, &StableFactory::wal(WalConfig::default()), commit_window);
}

#[test]
fn crash_of_a_participant_keeps_the_outcome_reference_1_shard() {
    sweep(1, &StableFactory::reference(), prepare_window);
}

#[test]
fn crash_of_a_participant_keeps_the_outcome_reference_2_shards() {
    sweep(2, &StableFactory::reference(), prepare_window);
}

#[test]
fn crash_of_a_participant_keeps_the_outcome_wal_1_shard() {
    sweep(1, &StableFactory::wal(WalConfig::default()), prepare_window);
}

#[test]
fn crash_of_a_participant_keeps_the_outcome_wal_2_shards() {
    sweep(2, &StableFactory::wal(WalConfig::default()), prepare_window);
}

/// The decision records in `node`'s view.
fn decisions(p: &Platform, node: u32) -> Vec<String> {
    let stable = p.world().stable(NodeId(node));
    stable.keys_with_prefix("2pc/decision/")
}

/// The last `Ack` of the victim's first wave as coordinator, read off the
/// crash-free trace. The wave's steps all move on to the same next node,
/// which until then sends the victim nothing but a vote and an ack for each.
fn last_ack(trace: &[TraceRecord]) -> u64 {
    let per_wave = (AGENTS / (NODES as u64 - 1)) as usize;
    let (_, last_commit) = commit_window(trace);
    let decided_at = |r: &&TraceRecord| {
        r.at.as_micros() == last_commit
            && matches!(&r.kind, TraceKind::MsgSent { from, .. } if from.0 == VICTIM)
    };
    let next = match &trace.iter().find(decided_at).expect("a decision").kind {
        TraceKind::MsgSent { to, .. } => to.0,
        _ => unreachable!(),
    };
    let answers: Vec<u64> = trace
        .iter()
        .filter_map(|r| match &r.kind {
            TraceKind::MsgDelivered { from, to, .. } if from.0 == next && to.0 == VICTIM => {
                Some(r.at.as_micros())
            }
            _ => None,
        })
        .take(2 * per_wave)
        .collect();
    assert_eq!(answers.len(), 2 * per_wave, "a vote and an ack per step");
    let ack = answers[2 * per_wave - 1];
    assert!(ack > last_commit, "the last answer is an ack");
    ack
}

/// The first instant after `ack` at which the victim's backend commits: the
/// next forced barrier, up to which the `Ack`'s delete is pending.
fn next_barrier(shards: usize, stable: &StableFactory, ack: u64) -> u64 {
    let mut p = build(shards, stable);
    launch(&mut p);
    p.world_mut().run_until(SimTime::from_micros(ack));
    let commits = |p: &Platform| p.world().stable(NodeId(VICTIM)).backend_stats().commits;
    let before = commits(&p);
    while commits(&p) == before {
        assert!(p.world_mut().step(), "the victim commits again");
    }
    p.world().now().as_micros()
}

/// The window the coordinator's `Ack` opens: its delete of the decision is
/// unforced, so from the last `Ack` of a wave to the victim's next forced
/// barrier a crash brings the decision back. Whatever the crash instant in
/// there, the decision reappears and recovery re-sends it; the settled
/// participant only acks again, so each agent is in at most one queue at
/// every pause, the run ends as the crash-free one does, and no decision is
/// left behind.
fn sweep_forgotten_decisions(shards: usize, stable: &StableFactory) {
    let what = format!("shards={shards}, backend={}", stable.name());
    let mut p = build(shards, stable);
    let handles = launch(&mut p);
    settle(&mut p, &handles, &what);
    let expected = outcome(&mut p, &handles);
    let ack = last_ack(p.world().trace().records());
    let barrier = next_barrier(shards, stable, ack);
    assert!(
        barrier >= ack + 2 * SWEEP_STEP_US,
        "the window has a width ({what})"
    );
    let pauses = 2 * (barrier + DOWNTIME.as_micros()) / PAUSE.as_micros();

    // Events at `at` itself run before the crash: the window is half-open.
    let mut at = ack;
    while at < barrier {
        let what = format!("crash at {at} us ({what})");
        let mut p = build(shards, stable);
        let handles = launch(&mut p);
        p.world_mut().run_until(SimTime::from_micros(at));
        p.world_mut().crash_now(NodeId(VICTIM));
        let back = decisions(&p, VICTIM);
        assert!(!back.is_empty(), "no decision came back ({what})");
        let up = SimTime::from_micros(at) + DOWNTIME;
        p.world_mut().schedule_recover(up, NodeId(VICTIM));
        p.world_mut().run_until(up);
        for key in &back {
            let participants = p.world().stable(NodeId(VICTIM)).get(key).unwrap();
            let participants: Vec<NodeId> = mar_wire::from_slice(participants).unwrap();
            for node in participants {
                let resent = p.world().trace().records().iter().any(|r| {
                    r.at == up
                        && matches!(&r.kind, TraceKind::MsgSent { from, to, .. }
                            if from.0 == VICTIM && to.0 == node.0)
                });
                assert!(resent, "{key} not re-sent to {node:?} ({what})");
            }
        }
        settle_with_pauses(&mut p, &handles, pauses, &what);
        assert_eq!(outcome(&mut p, &handles), expected, "{what}");
        for n in 0..NODES {
            assert_eq!(decisions(&p, n), Vec::<String>::new(), "node {n} ({what})");
        }
        at += SWEEP_STEP_US;
    }
}

#[test]
fn crash_after_the_last_ack_resends_the_decision_reference_1_shard() {
    sweep_forgotten_decisions(1, &StableFactory::reference());
}

#[test]
fn crash_after_the_last_ack_resends_the_decision_reference_2_shards() {
    sweep_forgotten_decisions(2, &StableFactory::reference());
}

#[test]
fn crash_after_the_last_ack_resends_the_decision_wal_1_shard() {
    sweep_forgotten_decisions(1, &StableFactory::wal(WalConfig::default()));
}

#[test]
fn crash_after_the_last_ack_resends_the_decision_wal_2_shards() {
    sweep_forgotten_decisions(2, &StableFactory::wal(WalConfig::default()));
}

/// The abort case: the coordinator crashes after its `Prepare`s went out and
/// before any vote came back, so it comes up knowing nothing of them. While
/// it is down the victim holds the records in place — stored once, under
/// queue keys that are not in its queue, named by prepared entries that hold
/// no record bytes. The presumed abort deletes the keys, the steps run again
/// under new transactions, and nothing of the aborted ones is left.
#[test]
fn an_aborted_prepare_leaves_no_queue_key_and_no_hold() {
    let stable = StableFactory::reference();
    let mut p = build(1, &stable);
    let handles = launch(&mut p);
    settle(&mut p, &handles, "crash-free run");
    let expected = outcome(&mut p, &handles);
    let (first_prepare, _) = prepare_window(p.world().trace().records());

    let mut p = build(1, &stable);
    let crash = SimTime::from_micros(first_prepare + SWEEP_STEP_US);
    p.world_mut().schedule_crash(crash, NodeId(HOME));
    p.world_mut()
        .schedule_recover(crash + DOWNTIME, NodeId(HOME));
    let handles = launch(&mut p);
    p.run_for(SimDuration::from_micros(
        first_prepare + DOWNTIME.as_micros() / 2,
    ));

    let victim = p.world().stable(NodeId(VICTIM));
    let entries = victim.keys_with_prefix("2pc/prepared/");
    let held = victim.keys_with_prefix("q/");
    assert!(!entries.is_empty(), "the victim is in doubt");
    assert_eq!(held.len(), entries.len(), "one record per prepared entry");
    for (entry, key) in entries.iter().zip(&held) {
        let entry = victim.get(entry).unwrap();
        let record = victim.get(key).unwrap();
        assert!(
            entry.len() <= 64 && record.len() > 2 * entry.len(),
            "a {}-byte entry holds a {}-byte record",
            entry.len(),
            record.len()
        );
    }
    let queued = p.queued_agents();
    assert!(
        queued.iter().all(|(node, _)| *node != NodeId(VICTIM)),
        "a held record is in no queue: {queued:?}"
    );
    assert_eq!(queued.len() as u64, AGENTS, "every agent is still at home");

    settle_with_pauses(&mut p, &handles, 200, "coordinator crash");
    assert_eq!(outcome(&mut p, &handles), expected);
    for n in 0..NODES {
        let stable = p.world().stable(NodeId(n));
        for prefix in ["q/", "2pc/prepared/"] {
            assert_eq!(
                stable.keys_with_prefix(prefix),
                Vec::<String>::new(),
                "node {n}"
            );
        }
    }
    // The aborted records used up queue numbers nothing else got.
    let qseq = p.world().stable(NodeId(VICTIM)).get("qseq").unwrap();
    let qseq: u64 = mar_wire::from_slice(qseq).unwrap();
    assert!(qseq > AGENTS * STEPS / (NODES as u64 - 1), "qseq {qseq}");
    // And nothing ran them: in the hops after the abort the victim, which
    // retries nothing here, fired one item timer per record it was left with.
    let trace = p.world().trace().records().iter();
    let item_timers = trace.filter(|r| is_item_timer(r, VICTIM)).count();
    assert_eq!(item_timers as u64, qseq - held.len() as u64);
}

/// A [`PairAgent`] that rolls its sub-itinerary back the first time it turns.
struct TurnsBack;

impl AgentBehavior for TurnsBack {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        if method == "turn" && ctx.wro("turned").is_none() {
            ctx.rollback_memo("turned", Value::from(true));
            return Ok(StepDecision::Rollback(RollbackScope::CurrentSub));
        }
        PairAgent.step(method, ctx)
    }
}

/// The staying case: an optimized rollback compensates a step on node 2 from
/// node 3 — the record stays, the RCE list is node 2's branch — so between
/// the decision and node 2's `Ack` the item is back under its key while its
/// transaction is still live. A launch that lands on node 3 in that gap kicks
/// the queue; the kick must pass the item by, and the item is scheduled by
/// the `Ack`: as much later than the launched one as the `Ack` came later.
#[test]
fn a_kick_between_decision_and_ack_passes_a_staying_item_by() {
    const STAYS_AT: u32 = 3;
    let spec = |k: u64, home: u32, steps: &[(&str, u32)]| {
        let itinerary = ItineraryBuilder::main(format!("I{k}")).sub("S", |s| {
            for (method, node) in steps {
                s.step(*method, *node);
            }
        });
        let itinerary = itinerary.build().expect("valid itinerary");
        let mut spec = AgentSpec::new("turns-back", NodeId(home), itinerary);
        spec.data.set_wro("acct", Value::from(k));
        spec
    };
    let mut p = PlatformBuilder::new(NODES as usize)
        .seed(1)
        .trace(true)
        .behavior("turns-back", TurnsBack);
    for n in 1..NODES {
        p = p.resources(NodeId(n), ledger);
    }
    let mut p = p.build();
    let stayer = p.launch(spec(0, HOME, &[("a", 1), ("b", 2), ("turn", STAYS_AT)]));
    let decided = |p: &Platform| {
        let stable = p.world().stable(NodeId(STAYS_AT));
        !stable.keys_with_prefix("2pc/decision/").is_empty()
    };
    while !decided(&p) {
        p.run_for(SimDuration::from_micros(SWEEP_STEP_US));
    }
    let bystander = p.launch(spec(1, STAYS_AT, &[("a", 1)]));
    while p
        .world()
        .stable(NodeId(STAYS_AT))
        .keys_with_prefix("q/")
        .len()
        < 2
    {
        p.run_for(SimDuration::from_micros(SWEEP_STEP_US));
    }
    assert!(decided(&p), "the launch lands before the ack");
    settle(&mut p, &[stayer, bystander], "staying rollback");
    assert_eq!(p.snapshot().counter(mk::ROLLBACK_COMPLETED), 1);

    let at_node = |r: &&TraceRecord, from: u32| {
        matches!(&r.kind, TraceKind::MsgDelivered { from: f, to, .. }
            if f.0 == from && to.0 == STAYS_AT)
    };
    let trace = p.world().trace().records();
    let kick = trace.iter().find(|r| at_node(r, u32::MAX)).unwrap().at;
    let later = trace.iter().filter(|r| r.at > kick);
    let ack = later.clone().find(|r| at_node(r, 2)).unwrap().at;
    let mut item_timers = later.filter(|r| is_item_timer(r, STAYS_AT));
    let (launched, stayed) = (item_timers.next().unwrap(), item_timers.next().unwrap());
    assert!(ack > kick);
    assert_eq!(stayed.at - launched.at, ack - kick);
}

/// A prepared entry that does not read back as stored is refused out loud:
/// one that does not decode is left out of the participant, one whose stub
/// names a queue key that is gone stays in doubt (and is presumed aborted),
/// and each is counted.
#[test]
fn a_bad_prepared_entry_is_counted_not_skipped() {
    let mut p = build(1, &StableFactory::reference());
    let handles = launch(&mut p);
    settle(&mut p, &handles, "crash-free run");
    let node = NodeId(VICTIM);
    let stub = (false, "q/000000099999".to_owned(), 10u64);
    let dangling = PreparedEntry {
        coordinator: NodeId(HOME),
        work: RemoteWork::new("held", mar_wire::to_bytes(&stub).unwrap()),
    };
    let stable = p.world_mut().stable_mut(node);
    stable.put("2pc/prepared/0.777", vec![0xff]);
    stable.put("2pc/prepared/0.778", mar_wire::to_bytes(&dangling).unwrap());
    p.world_mut().crash_now(node);
    p.world_mut().recover_now(node);
    p.world_mut().run_for(SimDuration::from_millis(200));
    assert_eq!(p.snapshot().counter(mk::RECOVERY_PREPARED_REFUSED), 2);
    // The dangling entry was in doubt, asked, and was told to abort.
    assert_eq!(
        p.world().stable(node).keys_with_prefix("2pc/prepared/"),
        vec!["2pc/prepared/0.777".to_owned()]
    );
}

/// A stored delta that does not decode ends its manager's replay instead of
/// being skipped: the node comes up at the committed state before the bad
/// record — here the base image — and every refused record is counted.
#[test]
fn a_bad_delta_ends_the_replay_and_is_counted() {
    let mut p = build(1, &StableFactory::reference());
    let handles = launch(&mut p);
    settle(&mut p, &handles, "crash-free run");
    let (node, deltas) = (1..NODES)
        .map(|n| {
            let stable = p.world().stable(NodeId(n));
            (NodeId(n), stable.keys_with_prefix("rm/ledger+"))
        })
        .find(|(_, deltas)| deltas.len() >= 2)
        .expect("some ledger ends the run with deltas behind its base");
    let base = p.world().stable(node).get("rm/ledger").unwrap().to_vec();

    p.world_mut().stable_mut(node).put(&deltas[0], vec![0xff]);
    p.world_mut().crash_now(node);
    p.world_mut().recover_now(node);
    p.world_mut().run_for(SimDuration::from_millis(1));
    assert_eq!(
        p.world()
            .metrics()
            .counter(mar_platform::metric_keys::RECOVERY_RM_RECORDS_REFUSED),
        deltas.len() as u64
    );
    assert_eq!(
        balances(&p)[node.0 as usize - 1],
        image_balances(&base),
        "later deltas were applied on top of the hole"
    );
}
