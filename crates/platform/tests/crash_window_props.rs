//! Crash-window regression: a node that crashes anywhere inside a commit
//! wave recovers exactly its committed resource state.
//!
//! A commit wave is the stretch in which many step transactions on one node
//! sit between their in-place writes and their commit (a step that migrates
//! prepares its own branch, asks the next node to decide, and commits when
//! the decision is back), while others commit around them. What a prepare
//! makes durable must be that transaction's writes and nothing else: a
//! stable image that also captured a neighbour's in-flight write restores it
//! as committed after a crash, the neighbour's step then runs again from its
//! queue item, and the write is applied twice.
//!
//! The fleet has one account pair per agent, so there are no lock conflicts
//! and no retries: whatever the crash instant, every `acct/…` balance on
//! every node must end up exactly where the crash-free run leaves it. The
//! sweep crashes one resource node at every 10 µs across one wave, whose
//! bounds come from the crash-free run's own trace — once over the wave, and
//! once as a coordinator in doubt: from the prepare barrier of the wave's
//! last transaction to the barrier that carries its unforced commit.
//!
//! The same node is then swept as the *participant* that decides: from the
//! first `Prepare` that brings it a record to the last of its decisions
//! landing at the coordinator. The record a `Prepare` carries is written
//! once, as the queue item it becomes, in the barrier that records the
//! commit; whatever the crash instant, balances, final reports and
//! `steps.committed` equal the crash-free run's, an agent is in at most one
//! queue at every pause, and nothing is left behind: no queue key, no
//! prepared entry, no decision.
//!
//! Last, the node is swept as a coordinator once more, past its wave's last
//! decision up to its next forced barrier: there the commit's deletes are
//! still pending, so the crash brings the prepared branches back in doubt,
//! recovery asks their decider, and the run must still end as the crash-free
//! one.

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

/// The victim's first wave as coordinator, read off the crash-free trace:
/// the instants it prepares its step transactions (each in the item timer's
/// handler that sends its `Prepare`) and the instants their decisions land,
/// each the handler that commits the step.
///
/// The wave starts when the victim's first queue-item timer fires; its step
/// transactions all move on to the same next node, which is sent nothing but
/// their `Prepare`s and until the wave's end sends the victim nothing but
/// their decisions. The wave ends where the next one's first item timer
/// fires.
fn coordinator_wave(trace: &[TraceRecord]) -> (Vec<u64>, Vec<u64>) {
    let per_wave = (AGENTS / (NODES as u64 - 1)) as usize;
    let item_timers: Vec<u64> = trace
        .iter()
        .filter(|r| is_item_timer(r, VICTIM))
        .map(|r| r.at.as_micros())
        .collect();
    assert!(
        item_timers.len() > per_wave,
        "the victim serves several waves"
    );
    // By instant: a handler's sends may be recorded before its timer.
    let (start, end) = (item_timers[0], item_timers[per_wave]);
    let wave = trace
        .iter()
        .filter(|r| (start..end).contains(&r.at.as_micros()));
    let sent_to = |r: &TraceRecord| match &r.kind {
        TraceKind::MsgSent { from, to, .. } if from.0 == VICTIM => Some(to.0),
        _ => None,
    };
    let next = wave
        .clone()
        .find(|r| r.at.as_micros() == start && sent_to(r).is_some())
        .and_then(sent_to)
        .expect("the wave's first step prepares somewhere");
    let prepares: Vec<u64> = wave
        .clone()
        .filter(|r| sent_to(r) == Some(next))
        .map(|r| r.at.as_micros())
        .collect();
    let decisions: Vec<u64> = wave
        .filter(|r| {
            matches!(&r.kind, TraceKind::MsgDelivered { from, to, .. }
                if from.0 == next && to.0 == VICTIM)
        })
        .map(|r| r.at.as_micros())
        .collect();
    assert_eq!(prepares.len(), per_wave, "one prepare per step of the wave");
    assert_eq!(
        decisions.len(),
        per_wave,
        "one decision per step of the wave"
    );
    (prepares, decisions)
}

/// The commit window of the victim's first wave: from its first prepare to
/// its last commit, the stretch in which its transactions are in doubt.
fn commit_window(trace: &[TraceRecord]) -> (u64, u64) {
    let (prepares, decisions) = coordinator_wave(trace);
    (prepares[0], *decisions.last().expect("a decision"))
}

/// The home node: it launches every agent, so the first wave of `Prepare`s a
/// resource node receives comes from here.
const HOME: u32 = 0;
/// Virtual time between two looks at the queues of a crashing run.
const PAUSE: SimDuration = SimDuration::from_micros(500);

/// The victim's first wave as the participant that decides, read off the
/// crash-free trace: from the first `Prepare` delivered to it to the last of
/// its decisions delivered home. The wave's transactions are all coordinated
/// by the home node, and until a report is due — several waves later — the
/// victim sends the home node nothing but its decision for each of them.
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
    let decisions: Vec<u64> = trace
        .iter()
        .filter_map(|r| match &r.kind {
            TraceKind::MsgDelivered { from, to, .. } if from.0 == VICTIM && to.0 == HOME => {
                Some(r.at.as_micros())
            }
            _ => None,
        })
        .take(per_wave)
        .collect();
    assert_eq!(decisions.len(), per_wave, "a decision per step");
    (first_prepare, decisions[per_wave - 1])
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

/// Nothing of a settled run's transactions is left on any node: no queue
/// key, no prepared entry of a participant or a coordinator, no decision.
fn assert_nothing_left(p: &Platform, what: &str) {
    for n in 0..NODES {
        let stable = p.world().stable(NodeId(n));
        for prefix in ["q/", "2pc/prepared/", "2pc/local/", "2pc/decision/"] {
            assert_eq!(
                stable.keys_with_prefix(prefix),
                Vec::<String>::new(),
                "node {n} ({what})"
            );
        }
    }
}

/// The sweep: whatever instant of `window` the victim crashes at — as
/// coordinator, inside its commit wave or in doubt; as the participant that
/// decides, before a `Prepare` or after its decision — the run ends as the
/// crash-free one does.
fn sweep(shards: usize, stable: &StableFactory, window: &dyn Fn(&[TraceRecord]) -> (u64, u64)) {
    let what = format!("shards={shards}, backend={}", stable.name());
    let mut p = build(shards, stable);
    let handles = launch(&mut p);
    settle(&mut p, &handles, &what);
    let expected = outcome(&mut p, &handles);
    assert_eq!(expected.2, AGENTS * STEPS);
    let (first, last) = window(p.world().trace().records());
    assert!(
        last > first,
        "the window has a width ({what}): {first}..{last}"
    );
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
        assert_nothing_left(&p, &what);
        at += SWEEP_STEP_US;
    }
}

#[test]
fn crash_in_commit_wave_keeps_balances_reference_1_shard() {
    sweep(1, &StableFactory::reference(), &commit_window);
}

#[test]
fn crash_in_commit_wave_keeps_balances_reference_2_shards() {
    sweep(2, &StableFactory::reference(), &commit_window);
}

#[test]
fn crash_in_commit_wave_keeps_balances_wal_1_shard() {
    sweep(1, &StableFactory::wal(WalConfig::default()), &commit_window);
}

#[test]
fn crash_in_commit_wave_keeps_balances_wal_2_shards() {
    sweep(2, &StableFactory::wal(WalConfig::default()), &commit_window);
}

/// The coordinator in doubt: the wave's last transaction, from the barrier
/// of its prepare — its delta record, the hold on its item, the entry naming
/// the decider — to the victim's next barrier after its decision landed,
/// which carries the commit's unforced deletes. A crash in there finds the
/// branch prepared, or committed but not yet durably, and either way
/// recovery asks the decider and commits it once.
fn sweep_in_doubt(shards: usize, stable: &StableFactory) {
    sweep(shards, stable, &|trace| {
        let (prepares, decisions) = coordinator_wave(trace);
        let last = *decisions.last().expect("a decision");
        (
            *prepares.last().expect("a prepare"),
            next_barrier(shards, stable, last),
        )
    });
}

#[test]
fn crash_of_a_coordinator_in_doubt_keeps_the_outcome_reference_1_shard() {
    sweep_in_doubt(1, &StableFactory::reference());
}

#[test]
fn crash_of_a_coordinator_in_doubt_keeps_the_outcome_reference_2_shards() {
    sweep_in_doubt(2, &StableFactory::reference());
}

#[test]
fn crash_of_a_coordinator_in_doubt_keeps_the_outcome_wal_1_shard() {
    sweep_in_doubt(1, &StableFactory::wal(WalConfig::default()));
}

#[test]
fn crash_of_a_coordinator_in_doubt_keeps_the_outcome_wal_2_shards() {
    sweep_in_doubt(2, &StableFactory::wal(WalConfig::default()));
}

#[test]
fn crash_of_a_participant_keeps_the_outcome_reference_1_shard() {
    sweep(1, &StableFactory::reference(), &prepare_window);
}

#[test]
fn crash_of_a_participant_keeps_the_outcome_reference_2_shards() {
    sweep(2, &StableFactory::reference(), &prepare_window);
}

#[test]
fn crash_of_a_participant_keeps_the_outcome_wal_1_shard() {
    sweep(
        1,
        &StableFactory::wal(WalConfig::default()),
        &prepare_window,
    );
}

#[test]
fn crash_of_a_participant_keeps_the_outcome_wal_2_shards() {
    sweep(
        2,
        &StableFactory::wal(WalConfig::default()),
        &prepare_window,
    );
}

/// The prepared local branches in `node`'s view.
fn in_doubt(p: &Platform, node: u32) -> Vec<String> {
    let stable = p.world().stable(NodeId(node));
    stable.keys_with_prefix("2pc/local/")
}

/// The first instant after `at` at which the victim's backend commits: the
/// next forced barrier, up to which the deletes of a commit at `at` are
/// pending.
fn next_barrier(shards: usize, stable: &StableFactory, at: u64) -> u64 {
    let mut p = build(shards, stable);
    launch(&mut p);
    p.world_mut().run_until(SimTime::from_micros(at));
    let commits = |p: &Platform| p.world().stable(NodeId(VICTIM)).backend_stats().commits;
    let before = commits(&p);
    while commits(&p) == before {
        assert!(p.world_mut().step(), "the victim commits again");
    }
    p.world().now().as_micros()
}

/// The window the coordinator's commit opens: it only deletes, unforced, so
/// from the last decision of a wave to the victim's next forced barrier a
/// crash brings the prepared branches back. Whatever the crash instant in
/// there, they reappear in doubt and recovery asks their decider; the
/// decider answers from its record, so each agent is in at most one queue at
/// every pause, the run ends as the crash-free one does, and no branch is
/// left in doubt.
fn sweep_undone_commits(shards: usize, stable: &StableFactory) {
    let what = format!("shards={shards}, backend={}", stable.name());
    let mut p = build(shards, stable);
    let handles = launch(&mut p);
    settle(&mut p, &handles, &what);
    let expected = outcome(&mut p, &handles);
    let (_, decided) = commit_window(p.world().trace().records());
    let barrier = next_barrier(shards, stable, decided);
    assert!(
        barrier >= decided + 2 * SWEEP_STEP_US,
        "the window has a width ({what})"
    );
    let pauses = 2 * (barrier + DOWNTIME.as_micros()) / PAUSE.as_micros();

    // Events at `at` itself run before the crash: the window is half-open.
    let mut at = decided;
    while at < barrier {
        let what = format!("crash at {at} us ({what})");
        let mut p = build(shards, stable);
        let handles = launch(&mut p);
        p.world_mut().run_until(SimTime::from_micros(at));
        p.world_mut().crash_now(NodeId(VICTIM));
        let back = in_doubt(&p, VICTIM);
        assert!(!back.is_empty(), "no branch came back ({what})");
        let up = SimTime::from_micros(at) + DOWNTIME;
        p.world_mut().schedule_recover(up, NodeId(VICTIM));
        p.world_mut().run_until(up);
        // One question per branch, sent at recovery: the wave's branches
        // all name the same decider.
        let asked = p.world().trace().records().iter().filter(|r| {
            r.at == up
                && matches!(&r.kind, TraceKind::MsgSent { from, to, .. }
                    if from.0 == VICTIM && to.0 != VICTIM)
        });
        assert_eq!(asked.count(), back.len(), "{back:?} not asked ({what})");
        settle_with_pauses(&mut p, &handles, pauses, &what);
        assert_eq!(outcome(&mut p, &handles), expected, "{what}");
        assert_nothing_left(&p, &what);
        at += SWEEP_STEP_US;
    }
}

#[test]
fn crash_after_the_last_decision_asks_the_decider_reference_1_shard() {
    sweep_undone_commits(1, &StableFactory::reference());
}

#[test]
fn crash_after_the_last_decision_asks_the_decider_reference_2_shards() {
    sweep_undone_commits(2, &StableFactory::reference());
}

#[test]
fn crash_after_the_last_decision_asks_the_decider_wal_1_shard() {
    sweep_undone_commits(1, &StableFactory::wal(WalConfig::default()));
}

#[test]
fn crash_after_the_last_decision_asks_the_decider_wal_2_shards() {
    sweep_undone_commits(2, &StableFactory::wal(WalConfig::default()));
}

/// The abort case: the home node's `Prepare`s to the victim are lost and it
/// crashes right after sending them, so it comes up in doubt, its items held
/// by its prepared branches — stored once, under queue keys that are not in
/// its queue, named by entries that hold no record bytes. Its questions reach
/// the victim first: the victim records the abort and answers it, the home
/// node releases the items, the steps run again under new transactions, and
/// nothing of the aborted ones is left.
#[test]
fn an_aborted_prepare_leaves_no_queue_key_and_no_hold() {
    let stable = StableFactory::reference();
    let mut p = build(1, &stable);
    let handles = launch(&mut p);
    settle(&mut p, &handles, "crash-free run");
    let expected = outcome(&mut p, &handles);
    let (first_prepare, _) = prepare_window(p.world().trace().records());

    let mut p = build(1, &stable);
    let crash = SimTime::from_micros(first_prepare - 500);
    p.world_mut()
        .schedule_link(SimTime::ZERO, NodeId(HOME), NodeId(VICTIM), false);
    p.world_mut().schedule_crash(crash, NodeId(HOME));
    p.world_mut()
        .schedule_link(crash, NodeId(HOME), NodeId(VICTIM), true);
    p.world_mut()
        .schedule_recover(crash + DOWNTIME, NodeId(HOME));
    let handles = launch(&mut p);
    p.run_for(SimDuration::from_micros(
        crash.as_micros() + DOWNTIME.as_micros() / 2,
    ));

    let home = p.world().stable(NodeId(HOME));
    let entries = home.keys_with_prefix("2pc/local/");
    let held = home.keys_with_prefix("q/");
    assert_eq!(entries.len() as u64, AGENTS, "the home node is in doubt");
    assert_eq!(held.len(), entries.len(), "one item per prepared branch");
    for (entry, key) in entries.iter().zip(&held) {
        let entry = home.get(entry).unwrap();
        let record = home.get(key).unwrap();
        assert!(
            entry.len() <= 64 && record.len() > 2 * entry.len(),
            "a {}-byte entry holds a {}-byte record",
            entry.len(),
            record.len()
        );
    }
    let queued = p.queued_agents();
    assert!(
        queued.iter().all(|(node, _)| *node != NodeId(HOME)),
        "a held item is in no queue: {queued:?}"
    );
    let per_node = AGENTS / (NODES as u64 - 1);
    assert_eq!(
        queued.len() as u64,
        AGENTS - per_node,
        "the victim's agents are nowhere, the others at their decider"
    );

    settle_with_pauses(&mut p, &handles, 200, "coordinator crash");
    assert_eq!(outcome(&mut p, &handles), expected);
    assert_nothing_left(&p, "coordinator crash");
    // The victim recorded the aborts it answered with.
    let victim = p.world().stable(NodeId(VICTIM));
    let aborted = victim
        .keys_with_prefix("2pc/done/")
        .into_iter()
        .filter(|key| victim.get(key) == Some(&[0]))
        .count();
    assert_eq!(aborted as u64, per_node);
    // And only the aborted items ran again: the home node fired one item
    // timer per agent before the crash, and one per aborted item after.
    let trace = p.world().trace().records().iter();
    let item_timers = trace.filter(|r| is_item_timer(r, HOME)).count();
    assert_eq!(item_timers as u64, AGENTS + per_node);
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
/// node 3 — the record stays, the RCE list is node 2's branch, and node 2
/// decides — so while the transaction is in doubt the record's new bytes sit
/// under a fresh queue key that node 3's prepared branch holds. A launch that
/// lands on node 3 in that gap kicks the queue; the kick must pass the held
/// item by, and the item is scheduled by the decision: as much later than the
/// launched one as the decision came later.
#[test]
fn a_kick_while_in_doubt_passes_a_held_staying_item_by() {
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
    let prepared = |p: &Platform| !in_doubt(p, STAYS_AT).is_empty();
    while !prepared(&p) {
        p.run_for(SimDuration::from_micros(SWEEP_STEP_US));
    }
    // The item it took and the record's new bytes, both held.
    let stored = |p: &Platform| p.world().stable(NodeId(STAYS_AT)).keys_with_prefix("q/");
    assert_eq!(stored(&p).len(), 2);
    assert!(p.queued_agents().is_empty(), "a held item is in no queue");
    let bystander = p.launch(spec(1, STAYS_AT, &[("a", 1)]));
    while stored(&p).len() < 3 {
        p.run_for(SimDuration::from_micros(SWEEP_STEP_US));
    }
    assert!(prepared(&p), "the launch lands before the decision");
    settle(&mut p, &[stayer, bystander], "staying rollback");
    assert_eq!(p.snapshot().counter(mk::ROLLBACK_COMPLETED), 1);

    let at_node = |r: &&TraceRecord, from: u32| {
        matches!(&r.kind, TraceKind::MsgDelivered { from: f, to, .. }
            if f.0 == from && to.0 == STAYS_AT)
    };
    let trace = p.world().trace().records();
    let kick = trace.iter().find(|r| at_node(r, u32::MAX)).unwrap().at;
    let later = trace.iter().filter(|r| r.at > kick);
    let decision = later.clone().find(|r| at_node(r, 2)).unwrap().at;
    let mut item_timers = later.filter(|r| is_item_timer(r, STAYS_AT));
    let (launched, stayed) = (item_timers.next().unwrap(), item_timers.next().unwrap());
    assert!(decision > kick);
    assert_eq!(stayed.at - launched.at, decision - kick);
}

/// A prepared entry that does not read back as stored is refused out loud:
/// one that does not decode is left out of the participant (or, a local
/// branch's, out of the coordinator), one whose stub names a queue key that
/// is gone stays in doubt (and is presumed aborted), and each is counted.
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
    stable.put(format!("2pc/local/{VICTIM}.779"), vec![0xff]);
    p.world_mut().crash_now(node);
    p.world_mut().recover_now(node);
    p.world_mut().run_for(SimDuration::from_millis(200));
    assert_eq!(p.snapshot().counter(mk::RECOVERY_PREPARED_REFUSED), 3);
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
