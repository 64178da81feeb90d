//! End-to-end tests of presumed-abort 2PC driven through the simulator,
//! including node crashes at every interesting point of the protocol.
//!
//! The host service here is a miniature of what the agent platform does:
//! it executes the [`Action`] lists emitted by the state machines, persists
//! protocol records in stable storage, and retries on a timer.

use mar_simnet::{Address, Ctx, NodeId, Service, SimDuration, World, WorldConfig};
use mar_txn::{
    twopc::Action, Coordinator, Participant, PreparedEntry, RemoteWork, TxEnvelope, TxMsg, TxnId,
};
use mar_wire::{from_slice, to_bytes};

const TM: &str = "tm";
const RETRY_TAG: u64 = 1;
const RETRY_EVERY: SimDuration = SimDuration::from_millis(50);

/// External request to start a distributed commit.
#[derive(serde::Serialize, serde::Deserialize)]
struct StartCommit {
    seq: u64,
    participant: NodeId,
    /// Key/value the participant should write when the txn commits.
    key: String,
    value: Vec<u8>,
}

#[derive(Default)]
struct TmHost {
    co: Coordinator,
    pa: Participant,
    resolved: Vec<(TxnId, bool)>,
}

impl TmHost {
    fn send_tx(&self, ctx: &mut Ctx<'_>, to: NodeId, msg: TxMsg) {
        let env = TxEnvelope {
            from: ctx.node(),
            msg,
        };
        ctx.send(Address::new(to, TM), to_bytes(&env).expect("encode"));
    }

    fn run_actions(&mut self, ctx: &mut Ctx<'_>, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::PersistDecision { txn, participants } => {
                    ctx.stable_put(
                        format!("2pc/decision/{}", txn.key()),
                        to_bytes(&participants).unwrap(),
                    );
                }
                Action::ForgetDecision { txn } => {
                    ctx.stable_delete_unforced(&format!("2pc/decision/{}", txn.key()));
                }
                Action::SendPrepare { to, txn, work } => {
                    self.send_tx(ctx, to, TxMsg::Prepare { txn, work });
                }
                Action::SendDecision { to, txn, commit } => {
                    self.send_tx(ctx, to, TxMsg::Decision { txn, commit });
                }
                Action::CommitLocal { txn } => {
                    ctx.stable_put(format!("local_commit/{}", txn.key()), vec![1]);
                }
                Action::AbortLocal { txn } => {
                    ctx.stable_put(format!("local_abort/{}", txn.key()), vec![1]);
                }
                Action::Resolved { txn, committed } => {
                    self.resolved.push((txn, committed));
                }
                Action::PersistPrepared {
                    txn,
                    coordinator,
                    work,
                } => {
                    let entry = PreparedEntry { coordinator, work };
                    ctx.stable_put(
                        format!("2pc/prepared/{}", txn.key()),
                        to_bytes(&entry).unwrap(),
                    );
                }
                Action::SendVote { to, txn, ok } => {
                    self.send_tx(ctx, to, TxMsg::Vote { txn, ok });
                }
                Action::ApplyWork { txn, work } => {
                    let (key, value): (String, Vec<u8>) =
                        from_slice(&work.payload).expect("work payload");
                    // Exactly-once check: count applications per txn.
                    let ck = format!("applied_count/{}", txn.key());
                    let n = ctx.stable_get(&ck).map(|b| b[0]).unwrap_or(0);
                    ctx.stable_put(ck, vec![n + 1]);
                    ctx.stable_put(key, value);
                }
                Action::DiscardWork { txn } => {
                    ctx.stable_put(format!("discarded/{}", txn.key()), vec![1]);
                }
                Action::MarkDone { txn } => {
                    ctx.stable_delete(&format!("2pc/prepared/{}", txn.key()));
                    ctx.stable_put(format!("2pc/done/{}", txn.key()), vec![1]);
                }
                Action::SendAck { to, txn } => {
                    self.send_tx(ctx, to, TxMsg::Ack { txn });
                }
                Action::SendQuery { to, txn } => {
                    self.send_tx(ctx, to, TxMsg::Query { txn });
                }
            }
        }
    }
}

impl Service for TmHost {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Address, payload: &[u8]) {
        if from.node == NodeId::EXTERNAL {
            let start: StartCommit = from_slice(payload).expect("start msg");
            let txn = TxnId::new(ctx.node(), start.seq);
            let work = RemoteWork::new("put", to_bytes(&(start.key, start.value)).unwrap());
            let actions = self.co.commit_request(txn, vec![(start.participant, work)]);
            self.run_actions(ctx, actions);
            return;
        }
        let env: TxEnvelope = from_slice(payload).expect("tx envelope");
        let actions = match env.msg {
            TxMsg::Prepare { txn, work } => self.pa.on_prepare(txn, env.from, work, true),
            TxMsg::Vote { txn, ok } => self.co.on_vote(txn, env.from, ok),
            TxMsg::Decision { txn, commit } => self.pa.on_decision(txn, commit, env.from),
            TxMsg::Ack { txn } => self.co.on_ack(txn, env.from),
            TxMsg::Query { txn } => self.co.on_query(txn, env.from),
        };
        self.run_actions(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let mut actions = self.co.on_retry();
        actions.extend(self.pa.on_retry());
        self.run_actions(ctx, actions);
        ctx.set_timer(RETRY_EVERY, RETRY_TAG);
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Recover coordinator decisions.
        let mut decisions = Vec::new();
        for key in ctx.stable().keys_with_prefix("2pc/decision/") {
            let participants: Vec<NodeId> =
                from_slice(ctx.stable_get(&key).unwrap()).expect("decision record");
            let txn = parse_txn(key.rsplit('/').next().unwrap());
            decisions.push((txn, participants));
        }
        let co_actions = self.co.recover(decisions);
        // Recover participant state.
        let mut prepared = Vec::new();
        for key in ctx.stable().keys_with_prefix("2pc/prepared/") {
            let entry: PreparedEntry =
                from_slice(ctx.stable_get(&key).unwrap()).expect("prepared record");
            let txn = parse_txn(key.rsplit('/').next().unwrap());
            prepared.push((txn, entry));
        }
        let done = ctx
            .stable()
            .keys_with_prefix("2pc/done/")
            .iter()
            .map(|k| parse_txn(k.rsplit('/').next().unwrap()))
            .collect();
        self.pa.recover(prepared, done);
        let pa_actions = self.pa.on_retry();
        self.run_actions(ctx, co_actions);
        self.run_actions(ctx, pa_actions);
        ctx.set_timer(RETRY_EVERY, RETRY_TAG);
    }
}

fn parse_txn(key: &str) -> TxnId {
    let (node, seq) = key.split_once('.').expect("txn key");
    TxnId::new(NodeId(node.parse().unwrap()), seq.parse().unwrap())
}

fn build_world(seed: u64) -> (World, NodeId, NodeId) {
    let mut w = World::new(WorldConfig::with_seed(seed));
    let a = w.add_node();
    let b = w.add_node();
    for n in [a, b] {
        w.add_service(n, TM, || Box::new(TmHost::default()));
    }
    w.start();
    (w, a, b)
}

fn start_commit(w: &mut World, coordinator: NodeId, participant: NodeId, seq: u64) {
    let msg = StartCommit {
        seq,
        participant,
        key: format!("data/k{seq}"),
        value: vec![seq as u8],
    };
    w.post(Address::new(coordinator, TM), to_bytes(&msg).unwrap());
}

fn applied_once(w: &World, node: NodeId, txn: &TxnId) -> bool {
    w.stable(node)
        .get(&format!("applied_count/{}", txn.key()))
        .map(|b| b == [1])
        .unwrap_or(false)
}

#[test]
fn happy_path_applies_work_exactly_once() {
    let (mut w, a, b) = build_world(1);
    start_commit(&mut w, a, b, 1);
    w.run_for(SimDuration::from_secs(2));
    let txn = TxnId::new(a, 1);
    assert!(applied_once(&w, b, &txn));
    assert_eq!(w.stable(b).get("data/k1"), Some(&[1u8][..]));
    assert!(w.stable(a).contains(&format!("local_commit/{}", txn.key())));
    // Protocol garbage collected on the coordinator.
    assert!(!w.stable(a).contains(&format!("2pc/decision/{}", txn.key())));
}

#[test]
fn participant_crash_after_prepare_still_commits() {
    let (mut w, a, b) = build_world(2);
    start_commit(&mut w, a, b, 1);
    // Let the prepare land (LAN base latency ~1ms), then crash the
    // participant before the decision can be processed.
    w.run_for(SimDuration::from_millis(2));
    w.crash_for(b, SimDuration::from_millis(500));
    w.run_for(SimDuration::from_secs(5));
    let txn = TxnId::new(a, 1);
    assert!(
        applied_once(&w, b, &txn),
        "prepared work must be applied after recovery via query/decision"
    );
    assert_eq!(w.stable(b).get("data/k1"), Some(&[1u8][..]));
}

#[test]
fn coordinator_crash_after_decision_recovers_and_finishes() {
    let (mut w, a, b) = build_world(3);
    // Cut the link so the decision cannot reach the participant, forcing the
    // coordinator to persist the decision and then crash with it in flight.
    start_commit(&mut w, a, b, 1);
    w.run_for(SimDuration::from_millis(3)); // prepare + vote exchanged
    w.net_mut().set_link(a, b, false);
    w.run_for(SimDuration::from_millis(200));
    let txn = TxnId::new(a, 1);
    let decision_persisted = w.stable(a).contains(&format!("2pc/decision/{}", txn.key()));
    w.crash_for(a, SimDuration::from_millis(300));
    w.net_mut().set_link(a, b, true);
    w.run_for(SimDuration::from_secs(5));
    if decision_persisted {
        assert!(
            applied_once(&w, b, &txn),
            "commit must survive coordinator crash"
        );
        assert!(
            !w.stable(a).contains(&format!("2pc/decision/{}", txn.key())),
            "decision record should be forgotten after all acks"
        );
    } else {
        // The vote had not arrived yet: presumed abort is also a legal outcome.
        assert!(!applied_once(&w, b, &txn));
    }
}

/// The host forgets a decision with an unforced delete, which the `Ack`
/// handler's own batch does not make durable. A coordinator crash right after
/// the `Ack` brings the decision back; recovery re-sends it, the settled
/// participant only acks again, and the work stays applied once.
#[test]
fn coordinator_crash_right_after_the_ack_resends_and_applies_once() {
    let (mut w, a, b) = build_world(8);
    start_commit(&mut w, a, b, 1);
    let txn = TxnId::new(a, 1);
    let decision = format!("2pc/decision/{}", txn.key());
    let mut decided = false;
    while !decided || w.stable(a).contains(&decision) {
        assert!(w.step(), "the commit completes");
        decided |= w.stable(a).contains(&decision);
    }
    assert!(applied_once(&w, b, &txn));
    w.crash_now(a);
    w.recover_now(a);
    assert!(
        w.stable(a).contains(&decision),
        "the forgotten decision was not durable yet"
    );
    w.run_for(SimDuration::from_secs(2));
    assert!(applied_once(&w, b, &txn), "the re-sent decision re-applied");
    assert!(
        !w.stable(a).contains(&decision),
        "the second ack forgets the decision again"
    );
}

#[test]
fn coordinator_crash_before_decision_presumes_abort() {
    let (mut w, a, b) = build_world(4);
    // Stop votes from reaching the coordinator so it never decides.
    w.net_mut().set_link(a, b, false);
    start_commit(&mut w, a, b, 1);
    w.run_for(SimDuration::from_millis(100));
    w.crash_for(a, SimDuration::from_millis(100));
    w.net_mut().set_link(a, b, true);
    w.run_for(SimDuration::from_secs(5));
    let txn = TxnId::new(a, 1);
    // Participant never prepared (prepare was dropped) or prepared and then
    // learned abort via query. Either way the work must not be applied.
    assert!(!applied_once(&w, b, &txn));
    assert_eq!(w.stable(b).get("data/k1"), None);
    // No in-doubt state may linger.
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(w.stable(b).count_with_prefix("2pc/prepared/"), 0);
}

#[test]
fn link_flaps_are_ridden_out_by_retries() {
    let (mut w, a, b) = build_world(5);
    start_commit(&mut w, a, b, 1);
    // Flap the link every few ms for a while.
    for i in 0..20u64 {
        let t = mar_simnet::SimTime::from_micros(i * 5_000);
        w.schedule_link(t, a, b, i % 2 == 1);
    }
    w.run_for(SimDuration::from_secs(10));
    let txn = TxnId::new(a, 1);
    assert!(
        applied_once(&w, b, &txn),
        "retries must eventually complete the txn"
    );
}

#[test]
fn many_concurrent_transactions_all_settle() {
    let (mut w, a, b) = build_world(6);
    for seq in 1..=20 {
        start_commit(&mut w, a, b, seq);
    }
    for seq in 1..=20 {
        start_commit(&mut w, b, a, 100 + seq);
    }
    w.run_for(SimDuration::from_secs(5));
    for seq in 1..=20 {
        assert!(applied_once(&w, b, &TxnId::new(a, seq)));
        assert!(applied_once(&w, a, &TxnId::new(b, 100 + seq)));
    }
}

/// ROADMAP "duplicate-prepare regression test at the txn layer": a delayed
/// vote opens a `Prepare` retransmit window. A host that guards tentative
/// work execution with [`Participant::is_known`] (as the agent platform's
/// mole does for RCE lists) must validate — i.e. tentatively execute — the
/// branch exactly once, re-vote on the retransmission, and apply the work
/// exactly once after the late vote finally lands. This pins the protocol
/// contract the platform-level chain test exercises end to end.
#[test]
fn retransmitted_prepare_is_validated_once() {
    let a = NodeId(0);
    let b = NodeId(1);
    let txn = TxnId::new(a, 1);
    let work = RemoteWork::new("put", to_bytes(&("k".to_owned(), vec![1u8])).unwrap());

    let mut co = mar_txn::Coordinator::new();
    let mut pa = Participant::new();
    // Host-side mimic of the mole's prepare admission: the tentative
    // execution (here just a counter) runs ONLY for unknown transactions.
    let mut validations = 0u32;

    // 1. The coordinator starts the commit and sends the Prepare.
    let actions = co.commit_request(txn, vec![(b, work.clone())]);
    assert!(actions
        .iter()
        .any(|ac| matches!(ac, Action::SendPrepare { to, .. } if *to == b)));

    // The host pattern under test: tentative execution only for unknown
    // branches, exactly how the mole admits RCE prepares.
    let admit = |pa: &mut Participant, validations: &mut u32| {
        if !pa.is_known(txn) {
            *validations += 1; // the tentative RCE execution in the mole
        }
        pa.on_prepare(txn, a, work.clone(), true)
    };

    // 2. The participant admits the branch (one validation) and votes —
    //    but the vote is delayed in the network.
    let v1 = admit(&mut pa, &mut validations);
    assert!(v1
        .iter()
        .any(|ac| matches!(ac, Action::SendVote { ok: true, .. })));
    assert!(v1
        .iter()
        .any(|ac| matches!(ac, Action::PersistPrepared { .. })));

    // 3. No vote has arrived: the coordinator's retry timer re-sends the
    //    Prepare — the retransmit window.
    let retry = co.on_retry();
    assert!(
        retry.iter().any(
            |ac| matches!(ac, Action::SendPrepare { to, txn: t, .. } if *to == b && *t == txn)
        ),
        "coordinator must retransmit the unanswered prepare"
    );

    // 4. The retransmitted Prepare reaches the participant. The branch is
    //    known — the host must NOT validate (tentatively execute) again;
    //    the state machine just re-votes, without re-persisting.
    assert!(pa.is_known(txn), "prepared branch must be known");
    let v2 = admit(&mut pa, &mut validations);
    assert_eq!(validations, 1, "retransmit re-validated the branch");
    assert!(v2
        .iter()
        .any(|ac| matches!(ac, Action::SendVote { ok: true, .. })));
    assert!(
        !v2.iter()
            .any(|ac| matches!(ac, Action::PersistPrepared { .. })),
        "no second persist for a retransmitted prepare"
    );

    // 5. The delayed vote (and its duplicate) finally arrive; the first
    //    decides commit, the duplicate must not restart the protocol.
    let d1 = co.on_vote(txn, b, true);
    assert!(d1
        .iter()
        .any(|ac| matches!(ac, Action::SendDecision { commit: true, .. })));
    let _ = co.on_vote(txn, b, true);

    // 6. The decision applies the work exactly once; a duplicate decision
    //    only re-acks.
    let dec = pa.on_decision(txn, true, a);
    assert_eq!(
        dec.iter()
            .filter(|ac| matches!(ac, Action::ApplyWork { .. }))
            .count(),
        1
    );
    assert!(pa.is_known(txn), "settled branch stays known (done set)");
    let dup = pa.on_decision(txn, true, a);
    assert!(!dup.iter().any(|ac| matches!(ac, Action::ApplyWork { .. })));
    assert!(dup.iter().any(|ac| matches!(ac, Action::SendAck { .. })));
}

#[test]
fn repeated_crashes_never_double_apply() {
    let (mut w, a, b) = build_world(7);
    for seq in 1..=10 {
        start_commit(&mut w, a, b, seq);
    }
    // Crash both nodes a few times while the protocol runs.
    for i in 0..5u64 {
        w.run_for(SimDuration::from_millis(20));
        let victim = if i % 2 == 0 { b } else { a };
        w.crash_for(victim, SimDuration::from_millis(30));
    }
    w.run_for(SimDuration::from_secs(10));
    for seq in 1..=10 {
        let txn = TxnId::new(a, seq);
        let count = w
            .stable(b)
            .get(&format!("applied_count/{}", txn.key()))
            .map(|v| v[0])
            .unwrap_or(0);
        assert!(count <= 1, "txn {txn} applied {count} times");
        // If the coordinator committed locally, the participant must apply.
        let local = w.stable(a).contains(&format!("local_commit/{}", txn.key()));
        if local {
            assert_eq!(
                count, 1,
                "txn {txn} committed locally but not applied remotely"
            );
        }
    }
}
