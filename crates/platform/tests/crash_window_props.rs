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

use std::collections::BTreeMap;

use mar_itinerary::ItineraryBuilder;
use mar_platform::{
    AgentBehavior, AgentHandle, AgentSpec, MoleService, Platform, PlatformBuilder, ReportOutcome,
    StepCtx, StepDecision, MOLE,
};
use mar_resources::ops::Transfer;
use mar_resources::BankRm;
use mar_simnet::{NodeId, SimDuration, SimTime, StableFactory, TraceKind, TraceRecord, WalConfig};
use mar_txn::{RmRegistry, TxnError};
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
        b = b.resources(NodeId(n), || {
            let mut ledger = BankRm::new("ledger", false);
            for k in 0..AGENTS {
                ledger = ledger
                    .with_account(&format!("s{k}"), 1_000)
                    .with_account(&format!("d{k}"), 0);
            }
            let mut rms = RmRegistry::new();
            rms.register(Box::new(ledger));
            rms
        });
    }
    b.build()
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
            TraceKind::TimerFired { node, tag, .. } => {
                *node == VICTIM && *tag > u64::from(u32::MAX)
            }
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

/// The sweep: whatever instant of the commit window the victim crashes at,
/// the fleet completes and every balance equals the crash-free run's.
fn sweep(shards: usize, stable: &StableFactory) {
    let what = format!("shards={shards}, backend={}", stable.name());
    let mut p = build(shards, stable);
    let handles = launch(&mut p);
    settle(&mut p, &handles, &what);
    let expected = balances(&p);
    let (first, last) = commit_window(p.world().trace().records());
    assert!(last > first, "the wave's commits are spread out ({what})");

    // One step beyond each end: a crash just before the first commit and
    // just after the last one frames the window.
    let mut at = first - SWEEP_STEP_US;
    while at <= last + SWEEP_STEP_US {
        let mut p = build(shards, stable);
        let crash = SimTime::from_micros(at);
        p.world_mut().schedule_crash(crash, NodeId(VICTIM));
        p.world_mut()
            .schedule_recover(crash + DOWNTIME, NodeId(VICTIM));
        let handles = launch(&mut p);
        settle(&mut p, &handles, &format!("crash at {at} us ({what})"));
        for &h in &handles {
            let report = p.report(h).expect("settled agent has a report");
            assert_eq!(
                report.outcome,
                ReportOutcome::Completed,
                "crash at {at} us ({what})"
            );
            assert_eq!(report.steps_committed, STEPS, "crash at {at} us ({what})");
        }
        assert_eq!(
            balances(&p),
            expected,
            "balances differ from the crash-free run after a crash at {at} us ({what})"
        );
        at += SWEEP_STEP_US;
    }
}

#[test]
fn crash_in_commit_wave_keeps_balances_reference_1_shard() {
    sweep(1, &StableFactory::reference());
}

#[test]
fn crash_in_commit_wave_keeps_balances_reference_2_shards() {
    sweep(2, &StableFactory::reference());
}

#[test]
fn crash_in_commit_wave_keeps_balances_wal_1_shard() {
    sweep(1, &StableFactory::wal(WalConfig::default()));
}

#[test]
fn crash_in_commit_wave_keeps_balances_wal_2_shards() {
    sweep(2, &StableFactory::wal(WalConfig::default()));
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
