//! End-to-end tests of presumed-abort 2PC, its last participant deciding,
//! driven through the simulator, including node crashes at every interesting
//! point of the protocol.
//!
//! The host service here is a miniature of what the agent platform does:
//! it executes the [`Action`] lists emitted by the state machines, persists
//! protocol records in stable storage, and retries on a timer. A
//! coordinator's own branch is one write, `local/<txn>`, stored when it
//! prepares and held by its entry `2pc/local/<txn>`; the commit deletes the
//! entry, unforced, and the abort both. Every transaction names one or two
//! participants; the last one decides.

use mar_simnet::{Address, Ctx, NodeId, Service, SimDuration, World, WorldConfig};
use mar_txn::{
    twopc::Action, Coordinator, LocalBranch, Participant, PreparedEntry, RemoteWork, TxEnvelope,
    TxMsg, TxnId,
};
use mar_wire::{from_slice, to_bytes};

const TM: &str = "tm";
const RETRY_TAG: u64 = 1;
const RETRY_EVERY: SimDuration = SimDuration::from_millis(50);

/// External request to start a distributed commit.
#[derive(serde::Serialize, serde::Deserialize)]
struct StartCommit {
    seq: u64,
    /// The remote branches; the last one decides.
    participants: Vec<NodeId>,
    /// Key/value each participant writes when the txn commits.
    key: String,
    value: Vec<u8>,
}

#[derive(Default)]
struct TmHost {
    co: Coordinator,
    pa: Participant,
    resolved: Vec<(TxnId, bool)>,
}

fn local_entry(txn: &TxnId) -> String {
    format!("2pc/local/{}", txn.key())
}

fn local_write(txn: &TxnId) -> String {
    format!("local/{}", txn.key())
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
                Action::PrepareLocal { txn, branch } => {
                    ctx.stable_put(local_write(&txn), vec![1]);
                    ctx.stable_put(local_entry(&txn), to_bytes(&branch).unwrap());
                }
                Action::PersistDecision { txn, participants } => {
                    ctx.stable_put(
                        format!("2pc/decision/{}", txn.key()),
                        to_bytes(&participants).unwrap(),
                    );
                }
                Action::ForgetDecision { txn } => {
                    ctx.stable_delete_unforced(&format!("2pc/decision/{}", txn.key()));
                }
                Action::SendPrepare {
                    to,
                    txn,
                    work,
                    decide,
                } => {
                    self.send_tx(ctx, to, TxMsg::Prepare { txn, work, decide });
                }
                Action::SendDecision { to, txn, commit } => {
                    self.send_tx(ctx, to, TxMsg::Decision { txn, commit });
                }
                Action::CommitLocal { txn } => {
                    ctx.stable_delete_unforced(&local_entry(&txn));
                }
                Action::AbortLocal { txn } => {
                    ctx.stable_delete_unforced(&local_entry(&txn));
                    ctx.stable_delete_unforced(&local_write(&txn));
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
                Action::MarkDone { txn, commit } => {
                    ctx.stable_delete(&format!("2pc/prepared/{}", txn.key()));
                    ctx.stable_put(format!("2pc/done/{}", txn.key()), vec![u8::from(commit)]);
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
            let branches = start
                .participants
                .into_iter()
                .map(|p| (p, work.clone()))
                .collect();
            let actions = self.co.commit_request(txn, branches);
            self.run_actions(ctx, actions);
            return;
        }
        let env: TxEnvelope = from_slice(payload).expect("tx envelope");
        let me = ctx.node();
        let actions = match env.msg {
            TxMsg::Prepare { txn, work, decide } => {
                self.pa.on_prepare(txn, env.from, Some(work), decide)
            }
            TxMsg::Vote { txn, ok } => self.co.on_vote(txn, env.from, ok),
            TxMsg::Decision { txn, commit } if txn.coordinator == me => {
                self.co.on_decision(txn, commit, env.from)
            }
            TxMsg::Decision { txn, commit } => self.pa.on_decision(txn, commit, env.from),
            TxMsg::Ack { txn } => self.co.on_ack(txn, env.from),
            TxMsg::Query { txn } if txn.coordinator == me => self.co.on_query(txn, env.from),
            TxMsg::Query { txn } => self.pa.on_query(txn, env.from),
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
        // Recover coordinator decisions and local branches in doubt.
        let mut decisions = Vec::new();
        for key in ctx.stable().keys_with_prefix("2pc/decision/") {
            let participants: Vec<NodeId> =
                from_slice(ctx.stable_get(&key).unwrap()).expect("decision record");
            decisions.push((parse_txn(&key), participants));
        }
        let mut in_doubt = Vec::new();
        for key in ctx.stable().keys_with_prefix("2pc/local/") {
            let branch: LocalBranch =
                from_slice(ctx.stable_get(&key).unwrap()).expect("local branch");
            in_doubt.push((parse_txn(&key), branch));
        }
        let co_actions = self.co.recover(decisions, in_doubt);
        // Recover participant state.
        let mut prepared = Vec::new();
        for key in ctx.stable().keys_with_prefix("2pc/prepared/") {
            let entry: PreparedEntry =
                from_slice(ctx.stable_get(&key).unwrap()).expect("prepared record");
            prepared.push((parse_txn(&key), entry));
        }
        let done = ctx
            .stable()
            .keys_with_prefix("2pc/done/")
            .iter()
            .map(|k| (parse_txn(k), ctx.stable_get(k) == Some(&[1])))
            .collect();
        self.pa.recover(prepared, done);
        let pa_actions = self.pa.on_retry();
        self.run_actions(ctx, co_actions);
        self.run_actions(ctx, pa_actions);
        ctx.set_timer(RETRY_EVERY, RETRY_TAG);
    }
}

fn parse_txn(key: &str) -> TxnId {
    let (node, seq) = key
        .rsplit('/')
        .next()
        .unwrap()
        .split_once('.')
        .expect("txn key");
    TxnId::new(NodeId(node.parse().unwrap()), seq.parse().unwrap())
}

fn build_world_of(seed: u64, nodes: usize) -> (World, Vec<NodeId>) {
    let mut w = World::new(WorldConfig::with_seed(seed));
    let ids: Vec<NodeId> = (0..nodes).map(|_| w.add_node()).collect();
    for &n in &ids {
        w.add_service(n, TM, || Box::new(TmHost::default()));
    }
    w.start();
    (w, ids)
}

fn build_world(seed: u64) -> (World, NodeId, NodeId) {
    let (w, ids) = build_world_of(seed, 2);
    (w, ids[0], ids[1])
}

fn start_commit_to(w: &mut World, coordinator: NodeId, participants: &[NodeId], seq: u64) {
    let msg = StartCommit {
        seq,
        participants: participants.to_vec(),
        key: format!("data/k{seq}"),
        value: vec![seq as u8],
    };
    w.post(Address::new(coordinator, TM), to_bytes(&msg).unwrap());
}

fn start_commit(w: &mut World, coordinator: NodeId, participant: NodeId, seq: u64) {
    start_commit_to(w, coordinator, &[participant], seq);
}

fn applied_once(w: &World, node: NodeId, txn: &TxnId) -> bool {
    applied(w, node, txn) == 1
}

fn applied(w: &World, node: NodeId, txn: &TxnId) -> u8 {
    w.stable(node)
        .get(&format!("applied_count/{}", txn.key()))
        .map_or(0, |b| b[0])
}

/// The coordinator's branch committed: its write is there, and no entry
/// holds it any more.
fn local_committed(w: &World, node: NodeId, txn: &TxnId) -> bool {
    let stable = w.stable(node);
    stable.contains(&local_write(txn)) && !stable.contains(&local_entry(txn))
}

/// Nothing of the transaction is left in doubt or undecided at `node`.
fn settled_at(w: &World, node: NodeId, txn: &TxnId) -> bool {
    let stable = w.stable(node);
    !stable.contains(&local_entry(txn))
        && !stable.contains(&format!("2pc/prepared/{}", txn.key()))
        && !stable.contains(&format!("2pc/decision/{}", txn.key()))
}

#[test]
fn happy_path_applies_work_exactly_once() {
    let (mut w, a, b) = build_world(1);
    start_commit(&mut w, a, b, 1);
    w.run_for(SimDuration::from_secs(2));
    let txn = TxnId::new(a, 1);
    assert!(applied_once(&w, b, &txn));
    assert_eq!(w.stable(b).get("data/k1"), Some(&[1u8][..]));
    assert_eq!(
        w.stable(b).get(&format!("2pc/done/{}", txn.key())),
        Some(&[1u8][..])
    );
    assert!(local_committed(&w, a, &txn));
    // Protocol garbage collected on both sides.
    assert!(settled_at(&w, a, &txn) && settled_at(&w, b, &txn));
}

/// The decider commits when the `Prepare` lands and its decision is on the
/// wire before it crashes: the coordinator commits, and the work stays
/// applied once across the decider's recovery.
#[test]
fn participant_crash_after_prepare_still_commits() {
    let (mut w, a, b) = build_world(2);
    start_commit(&mut w, a, b, 1);
    // Let the prepare land (LAN base latency ~1ms), then crash the decider.
    w.run_for(SimDuration::from_millis(2));
    w.crash_for(b, SimDuration::from_millis(500));
    w.run_for(SimDuration::from_secs(5));
    let txn = TxnId::new(a, 1);
    assert!(
        applied_once(&w, b, &txn),
        "the decided work survives the decider's crash, applied once"
    );
    assert_eq!(w.stable(b).get("data/k1"), Some(&[1u8][..]));
    assert!(local_committed(&w, a, &txn));
}

/// A decider that is down when the `Prepare` arrives misses it; the
/// coordinator's retry timer sends it again once it is back.
#[test]
fn decider_crash_before_the_prepare_lands_commits_on_the_retry() {
    let (mut w, a, b) = build_world(9);
    w.crash_for(b, SimDuration::from_millis(120));
    start_commit(&mut w, a, b, 1);
    w.run_for(SimDuration::from_secs(5));
    let txn = TxnId::new(a, 1);
    assert!(applied_once(&w, b, &txn));
    assert!(local_committed(&w, a, &txn));
    assert!(settled_at(&w, a, &txn));
}

/// The coordinator crashes in doubt, its decision on the wire: it recovers
/// with its branch prepared, asks the decider, and commits.
#[test]
fn coordinator_crash_after_decision_recovers_and_finishes() {
    let (mut w, a, b) = build_world(3);
    start_commit(&mut w, a, b, 1);
    let txn = TxnId::new(a, 1);
    // Crash the coordinator the moment the decider has committed: the
    // decision arrives while it is down.
    while applied(&w, b, &txn) == 0 {
        assert!(w.step(), "the prepare lands");
    }
    w.crash_for(a, SimDuration::from_millis(300));
    w.run_for(SimDuration::from_millis(200));
    assert!(
        w.stable(a).contains(&local_entry(&txn)),
        "the coordinator is in doubt"
    );
    w.run_for(SimDuration::from_secs(5));
    assert!(
        applied_once(&w, b, &txn),
        "commit must survive coordinator crash"
    );
    assert!(local_committed(&w, a, &txn), "the decider's answer commits");
    assert!(settled_at(&w, a, &txn), "the entry is forgotten");
}

/// With two participants the first is owed the decision, which the
/// coordinator forgets on its `Ack` with an unforced delete that the `Ack`
/// handler's own batch does not make durable. A coordinator crash right
/// after the `Ack` brings the decision back; recovery re-sends it, the
/// settled participant only acks again, and the work stays applied once.
#[test]
fn coordinator_crash_right_after_the_ack_resends_and_applies_once() {
    let (mut w, ids) = build_world_of(8, 3);
    let (a, p1, p2) = (ids[0], ids[1], ids[2]);
    start_commit_to(&mut w, a, &[p1, p2], 1);
    let txn = TxnId::new(a, 1);
    let decision = format!("2pc/decision/{}", txn.key());
    let mut decided = false;
    while !decided || w.stable(a).contains(&decision) {
        assert!(w.step(), "the commit completes");
        decided |= w.stable(a).contains(&decision);
    }
    assert!(applied_once(&w, p1, &txn) && applied_once(&w, p2, &txn));
    w.crash_now(a);
    w.recover_now(a);
    assert!(
        w.stable(a).contains(&decision),
        "the forgotten decision was not durable yet"
    );
    w.run_for(SimDuration::from_secs(2));
    assert!(
        applied_once(&w, p1, &txn),
        "the re-sent decision re-applied"
    );
    assert!(applied_once(&w, p2, &txn));
    assert!(
        !w.stable(a).contains(&decision),
        "the second ack forgets the decision again"
    );
    assert!(local_committed(&w, a, &txn));
}

/// The coordinator commits its branch with an unforced delete, which the
/// `Decision` handler's own batch does not make durable. A coordinator crash
/// right after it brings the entry back in doubt; recovery asks the decider,
/// the commit is applied again, and the work stays applied once.
#[test]
fn coordinator_crash_right_after_the_unforced_commit_applies_once() {
    let (mut w, a, b) = build_world(8);
    start_commit(&mut w, a, b, 1);
    let txn = TxnId::new(a, 1);
    let entry = local_entry(&txn);
    let mut prepared = false;
    while !prepared || w.stable(a).contains(&entry) {
        assert!(w.step(), "the commit completes");
        prepared |= w.stable(a).contains(&entry);
    }
    assert!(applied_once(&w, b, &txn));
    w.crash_now(a);
    w.recover_now(a);
    assert!(
        w.stable(a).contains(&entry),
        "the released entry was not durable yet"
    );
    w.run_for(SimDuration::from_secs(2));
    assert!(applied_once(&w, b, &txn), "the answer re-applied nothing");
    assert!(
        local_committed(&w, a, &txn),
        "the second commit releases the entry again"
    );
}

#[test]
fn coordinator_crash_before_decision_presumes_abort() {
    let (mut w, a, b) = build_world(4);
    // Drop the prepare, so the decider never hears of the transaction.
    w.net_mut().set_link(a, b, false);
    start_commit(&mut w, a, b, 1);
    w.run_for(SimDuration::from_millis(100));
    w.crash_for(a, SimDuration::from_millis(100));
    w.net_mut().set_link(a, b, true);
    w.run_for(SimDuration::from_secs(5));
    let txn = TxnId::new(a, 1);
    // The coordinator's question reached the decider first: it recorded an
    // abort, and the work must not be applied.
    assert!(!applied_once(&w, b, &txn));
    assert_eq!(w.stable(b).get("data/k1"), None);
    assert_eq!(
        w.stable(b).get(&format!("2pc/done/{}", txn.key())),
        Some(&[0u8][..])
    );
    // No in-doubt state may linger, and the coordinator's write is gone.
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(w.stable(b).count_with_prefix("2pc/prepared/"), 0);
    assert!(settled_at(&w, a, &txn));
    assert!(!w.stable(a).contains(&local_write(&txn)));
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
    assert!(local_committed(&w, a, &txn));
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
        assert!(local_committed(&w, a, &TxnId::new(a, seq)));
        assert!(local_committed(&w, b, &TxnId::new(b, 100 + seq)));
    }
}

/// ROADMAP "duplicate-prepare regression test at the txn layer": a delayed
/// answer opens a `Prepare` retransmit window. A host that guards tentative
/// work execution with [`Participant::is_known`] (as the agent platform's
/// mole does for RCE lists) must validate — i.e. tentatively execute — the
/// branch exactly once, answer the retransmission again, and apply the work
/// exactly once. This pins the protocol contract the platform-level chain
/// test exercises end to end, for a classic participant (its vote delayed)
/// and for the decider (its decision delayed).
#[test]
fn retransmitted_prepare_is_validated_once() {
    let a = NodeId(0);
    let b = NodeId(1);
    let txn = TxnId::new(a, 1);
    let work = RemoteWork::new("put", to_bytes(&("k".to_owned(), vec![1u8])).unwrap());
    for decide in [false, true] {
        let mut co = mar_txn::Coordinator::new();
        let mut pa = Participant::new();
        // Host-side mimic of the mole's prepare admission: the tentative
        // execution (here just a counter) runs ONLY for unknown transactions.
        let mut validations = 0u32;

        // 1. The coordinator starts the commit and sends the Prepare: the
        //    decider's if it is the only branch, a classic one before it.
        let branches = if decide {
            vec![(b, work.clone())]
        } else {
            vec![(b, work.clone()), (NodeId(2), work.clone())]
        };
        let actions = co.commit_request(txn, branches);
        assert!(actions.iter().any(|ac| matches!(
            ac,
            Action::SendPrepare { to, decide: d, .. } if *to == b && *d == decide
        )));

        // The host pattern under test: tentative execution only for unknown
        // branches, exactly how the mole admits RCE prepares.
        let admit = |pa: &mut Participant, validations: &mut u32| {
            if !pa.is_known(txn) {
                *validations += 1; // the tentative RCE execution in the mole
            }
            pa.on_prepare(txn, a, Some(work.clone()), decide)
        };
        let answered = |actions: &[Action]| {
            actions.iter().any(|ac| {
                matches!(ac, Action::SendVote { ok: true, .. })
                    || matches!(ac, Action::SendDecision { commit: true, .. })
            })
        };
        let applies = |actions: &[Action]| {
            actions
                .iter()
                .filter(|ac| matches!(ac, Action::ApplyWork { .. }))
                .count()
        };

        // 2. The participant admits the branch (one validation) and answers
        //    — but the answer is delayed in the network.
        let v1 = admit(&mut pa, &mut validations);
        assert!(answered(&v1), "{decide}: {v1:?}");
        let persisted = |actions: &[Action]| {
            actions.iter().any(|ac| {
                matches!(
                    ac,
                    Action::PersistPrepared { .. } | Action::MarkDone { commit: true, .. }
                )
            })
        };
        assert!(persisted(&v1), "{decide}: {v1:?}");
        assert_eq!(
            applies(&v1),
            usize::from(decide),
            "the decider applies at once"
        );

        // 3. Nothing has arrived for a full period: the coordinator's retry
        //    timer re-sends the Prepare — the retransmit window.
        assert!(co.on_retry().is_empty(), "not before a full period");
        let retry = co.on_retry();
        assert!(
            retry.iter().any(
                |ac| matches!(ac, Action::SendPrepare { to, txn: t, .. } if *to == b && *t == txn)
            ),
            "coordinator must retransmit the unanswered prepare"
        );

        // 4. The retransmitted Prepare reaches the participant. The branch
        //    is known — the host must NOT validate (tentatively execute)
        //    again; the state machine just answers, without re-persisting.
        assert!(pa.is_known(txn), "prepared branch must be known");
        let v2 = admit(&mut pa, &mut validations);
        assert_eq!(validations, 1, "retransmit re-validated the branch");
        assert!(answered(&v2));
        assert!(
            !persisted(&v2),
            "no second persist for a retransmitted prepare"
        );
        assert_eq!(applies(&v2), 0);

        // 5. The delayed answer (and its duplicate) finally arrive.
        if decide {
            let d1 = co.on_decision(txn, true, b);
            assert!(d1.contains(&Action::CommitLocal { txn }));
            assert!(
                co.on_decision(txn, true, b).is_empty(),
                "the duplicate is stale"
            );
            assert_eq!(co.in_flight(), 0);
            continue;
        }
        let d1 = co.on_vote(txn, b, true);
        assert!(d1
            .iter()
            .any(|ac| matches!(ac, Action::SendPrepare { decide: true, .. })));
        assert!(co.on_vote(txn, b, true).is_empty());
        co.on_decision(txn, true, NodeId(2));

        // 6. The decision applies the work exactly once; a duplicate
        //    decision only re-acks.
        let dec = pa.on_decision(txn, true, a);
        assert_eq!(applies(&dec), 1);
        assert!(pa.is_known(txn), "settled branch stays known (done set)");
        let dup = pa.on_decision(txn, true, a);
        assert_eq!(applies(&dup), 0);
        assert!(dup.iter().any(|ac| matches!(ac, Action::SendAck { .. })));
    }
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
        let count = applied(&w, b, &txn);
        assert!(count <= 1, "txn {txn} applied {count} times");
        // Atomic: the coordinator's branch committed iff the work applied.
        assert_eq!(
            local_committed(&w, a, &txn),
            count == 1,
            "txn {txn}: local and remote branches disagree"
        );
        assert!(settled_at(&w, a, &txn) && settled_at(&w, b, &txn), "{txn}");
    }
}

/// Two participants: the first is prepared the classic way and the second
/// decides. Crashes of every node while the transactions run leave each one
/// applied at both participants or at neither, in agreement with the
/// coordinator's branch, and nothing in doubt.
#[test]
fn two_participants_commit_atomically_under_crashes() {
    let (mut w, ids) = build_world_of(10, 3);
    let (a, p1, p2) = (ids[0], ids[1], ids[2]);
    for seq in 1..=10 {
        start_commit_to(&mut w, a, &[p1, p2], seq);
    }
    for i in 0..6u64 {
        w.run_for(SimDuration::from_millis(15));
        w.crash_for(ids[(i % 3) as usize], SimDuration::from_millis(40));
    }
    w.run_for(SimDuration::from_secs(10));
    let mut committed = 0;
    for seq in 1..=10 {
        let txn = TxnId::new(a, seq);
        let (n1, n2) = (applied(&w, p1, &txn), applied(&w, p2, &txn));
        assert!(n1 <= 1 && n2 <= 1, "txn {txn} applied {n1}/{n2} times");
        assert_eq!(n1, n2, "txn {txn}: the participants disagree");
        assert_eq!(local_committed(&w, a, &txn), n1 == 1, "txn {txn}");
        for node in [a, p1, p2] {
            assert!(settled_at(&w, node, &txn), "{txn} at {node:?}");
        }
        committed += usize::from(n1 == 1);
    }
    assert!(committed > 0, "some transaction commits");
}
