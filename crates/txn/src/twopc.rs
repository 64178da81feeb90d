//! Presumed-abort two-phase commit with the last participant deciding, as
//! pure state machines.
//!
//! The step transaction of the paper spans at most two nodes: the node
//! executing the step (coordinator, which also holds all resource branches
//! locally) and the next node's agent input queue (one remote participant).
//! The optimized rollback adds a second pattern: a compensation transaction
//! whose remote participant executes a resource-compensation-entry list.
//! Both reduce to the same protocol, implemented here for any number of
//! participants.
//!
//! # The last participant decides
//!
//! A transaction with `k` remote branches delegates its decision to the
//! last of them (the *last-agent* optimization, Gray & Reuter 1993). The
//! coordinator first prepares its own branch ([`Action::PrepareLocal`]);
//! then it prepares the `k − 1` other participants the classic way — a
//! `Prepare` answered by a `Vote` — and, once every one voted yes, sends the
//! last one a `Prepare` that asks it to decide. That participant applies its
//! work and records the outcome in one durable batch ([`Action::ApplyWork`],
//! [`Action::MarkDone`]), and sends the decision back. The coordinator
//! commits or aborts its own branch, tells the other participants, and
//! collects their `Ack`s. With `k = 1` — every forward hop — a commit is one
//! `Prepare` and one `Decision`.
//!
//! A decider's verdict is durable before it is sent, both ways: a refusal
//! records an abort, and a `Query` about a transaction it never heard of
//! records one before it answers, so a `Prepare` arriving later is refused
//! too. A coordinator that crashed in doubt has lost its work: it asks the
//! decider with a `Query` instead of sending the `Prepare` again. Which role
//! a `Decision` or a `Query` is for follows from the transaction id: it names
//! its coordinator ([`TxnId::coordinator`]).
//!
//! # Host contract
//!
//! [`Coordinator`] and [`Participant`] return [`Action`] lists; the hosting
//! service must execute them **in order, within the same event handler** —
//! handlers are atomic with respect to crashes in the simulator, and a
//! message a handler sends is not observable before the handler's stable
//! batch is durable, which gives the usual "log record + state change forced
//! together, before anyone hears of them" of a real write-ahead log:
//!
//! * `PrepareLocal` writes everything the local branch's commit would write,
//!   under keys its stored entry holds, together with the entry: the
//!   decider to ask and the other participants to tell. The `CommitLocal`
//!   that follows it only releases and deletes, and need not be forced: a
//!   crash that loses it brings the entry back in doubt, and the decider's
//!   answer applies the commit again.
//! * `PersistDecision` must write the decision record in the same handler
//!   as the `CommitLocal` after it.
//! * `ApplyWork`/`DiscardWork` + `MarkDone` must likewise be handled
//!   together.
//!
//! After a crash, the host reconstructs both machines from stable storage
//! ([`Coordinator::recover`], [`Participant::recover`]) and kicks their
//! retry methods on a timer.

use std::collections::{BTreeMap, BTreeSet};

use mar_simnet::NodeId;
use serde::{Deserialize, Serialize};

use crate::id::TxnId;
use crate::msg::RemoteWork;

/// Effects the host must carry out, in order. See the module docs for the
/// atomicity contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Durably prepare the local branch (coordinator side): everything its
    /// commit would write, under keys the stored entry holds, and `branch`.
    PrepareLocal {
        /// The transaction.
        txn: TxnId,
        /// What the coordinator must find again after a crash.
        branch: LocalBranch,
    },
    /// Durably record a *commit* decision with the participants that still
    /// need it, together with the local branch's commit (coordinator side).
    PersistDecision {
        /// The transaction.
        txn: TxnId,
        /// Participants that still need the decision.
        participants: Vec<NodeId>,
    },
    /// Remove the decision record (all participants acknowledged). The
    /// removal need not be forced: if a crash undoes it, recovery re-sends
    /// the decision, every participant has already settled and only acks
    /// again, and the next `ForgetDecision` removes the record once more.
    ForgetDecision {
        /// The transaction.
        txn: TxnId,
    },
    /// Send a `Prepare` carrying `work` to a participant.
    SendPrepare {
        /// Destination participant.
        to: NodeId,
        /// The transaction.
        txn: TxnId,
        /// Work to prepare remotely.
        work: RemoteWork,
        /// `true` for the last participant, which decides.
        decide: bool,
    },
    /// Send a decision: the coordinator's to a participant, or the
    /// decider's to the coordinator.
    SendDecision {
        /// Destination.
        to: NodeId,
        /// The transaction.
        txn: TxnId,
        /// Commit or abort.
        commit: bool,
    },
    /// Commit the local branch (resources, queue ops) now — after a
    /// `PrepareLocal`, from what it stored.
    CommitLocal {
        /// The transaction.
        txn: TxnId,
    },
    /// Abort the local branch now — after a `PrepareLocal`, deleting what it
    /// stored.
    AbortLocal {
        /// The transaction.
        txn: TxnId,
    },
    /// The transaction's fate is settled at this coordinator and its local
    /// branch committed or aborted. Participants may still be owed the
    /// decision (then a `ForgetDecision` follows their acks).
    Resolved {
        /// The transaction.
        txn: TxnId,
        /// Final outcome.
        committed: bool,
    },
    /// Durably store prepared work (participant side).
    PersistPrepared {
        /// The transaction.
        txn: TxnId,
        /// Coordinator to query on recovery.
        coordinator: NodeId,
        /// The prepared work.
        work: RemoteWork,
    },
    /// Send a vote to the coordinator.
    SendVote {
        /// Destination coordinator.
        to: NodeId,
        /// The transaction.
        txn: TxnId,
        /// `true` = prepared.
        ok: bool,
    },
    /// Apply the work: previously prepared work whose decision was commit,
    /// or, at the decider, the work it just committed.
    ApplyWork {
        /// The transaction.
        txn: TxnId,
        /// The work to apply.
        work: RemoteWork,
    },
    /// Discard previously prepared work (the decision was abort).
    DiscardWork {
        /// The transaction.
        txn: TxnId,
    },
    /// Durably record the outcome, replacing the prepared record if there
    /// is one: stale retransmissions can never re-apply the work, and a
    /// decider gives every later question the same answer.
    MarkDone {
        /// The transaction.
        txn: TxnId,
        /// The outcome.
        commit: bool,
    },
    /// Acknowledge the decision to the coordinator.
    SendAck {
        /// Destination coordinator.
        to: NodeId,
        /// The transaction.
        txn: TxnId,
    },
    /// Ask for the outcome of an in-doubt transaction: a participant asks
    /// its coordinator, a coordinator that crashed in doubt its decider.
    SendQuery {
        /// Destination.
        to: NodeId,
        /// The transaction.
        txn: TxnId,
    },
}

/// What a coordinator's prepared local branch remembers of the protocol:
/// the host stores it with the branch ([`Action::PrepareLocal`]) and hands
/// it back to [`Coordinator::recover`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalBranch {
    /// The last participant, which decides.
    pub decider: NodeId,
    /// The other participants, prepared the classic way, in order.
    pub others: Vec<NodeId>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum CoState {
    /// Classic prepares are out to the other participants; the decider is
    /// sent its work once every one voted yes.
    Preparing { work: RemoteWork },
    /// The decider decides. `work` is `None` once a crash lost it: the
    /// coordinator then asks instead.
    Delegated { work: Option<RemoteWork> },
    /// Committed here; the other participants still need the decision.
    Committing,
}

#[derive(Debug, Clone)]
struct CoTxn {
    state: CoState,
    decider: NodeId,
    others: Vec<(NodeId, RemoteWork)>,
    votes: BTreeSet<NodeId>,
    acks: BTreeSet<NodeId>,
    /// Something went out since the last retry tick: the next tick passes
    /// the transaction by, so a retransmission waits a full retry period.
    fresh: bool,
}

impl CoTxn {
    fn is_other(&self, node: NodeId) -> bool {
        self.others.iter().any(|(n, _)| *n == node)
    }

    fn decisions(&self, txn: TxnId, commit: bool) -> impl Iterator<Item = Action> + '_ {
        let unacked = self.others.iter().filter(|(to, _)| !self.acks.contains(to));
        unacked.map(move |(to, _)| Action::SendDecision {
            to: *to,
            txn,
            commit,
        })
    }
}

/// Coordinator side of presumed-abort 2PC (volatile; rebuilt on recovery).
#[derive(Debug, Default)]
pub struct Coordinator {
    txns: BTreeMap<TxnId, CoTxn>,
}

impl Coordinator {
    /// Creates an empty coordinator.
    pub fn new() -> Self {
        Coordinator::default()
    }

    /// Starts committing a transaction whose local branch is ready.
    ///
    /// With no remote branches the transaction commits immediately. With
    /// branches, the local branch is prepared, and the last branch is the
    /// decider: it is sent its `Prepare` at once if it is the only one, and
    /// otherwise once the others voted yes.
    pub fn commit_request(
        &mut self,
        txn: TxnId,
        mut branches: Vec<(NodeId, RemoteWork)>,
    ) -> Vec<Action> {
        let Some((decider, work)) = branches.pop() else {
            return vec![
                Action::CommitLocal { txn },
                Action::Resolved {
                    txn,
                    committed: true,
                },
            ];
        };
        let branch = LocalBranch {
            decider,
            others: branches.iter().map(|(n, _)| *n).collect(),
        };
        let mut actions = vec![Action::PrepareLocal { txn, branch }];
        let state = if branches.is_empty() {
            actions.push(Action::SendPrepare {
                to: decider,
                txn,
                work: work.clone(),
                decide: true,
            });
            CoState::Delegated { work: Some(work) }
        } else {
            actions.extend(branches.iter().map(|(to, work)| Action::SendPrepare {
                to: *to,
                txn,
                work: work.clone(),
                decide: false,
            }));
            CoState::Preparing { work }
        };
        self.txns.insert(
            txn,
            CoTxn {
                state,
                decider,
                others: branches,
                votes: BTreeSet::new(),
                acks: BTreeSet::new(),
                fresh: true,
            },
        );
        actions
    }

    /// Aborts a transaction this coordinator started whose decision is not
    /// delegated yet (a participant voted no). Once the decider was asked,
    /// only its answer settles the transaction, and this does nothing.
    pub fn abort_request(&mut self, txn: TxnId) -> Vec<Action> {
        if !matches!(
            self.txns.get(&txn).map(|co| &co.state),
            Some(CoState::Preparing { .. })
        ) {
            return Vec::new();
        }
        let co = self.txns.remove(&txn).expect("checked above");
        let mut actions = vec![Action::AbortLocal { txn }];
        actions.extend(co.decisions(txn, false));
        actions.push(Action::Resolved {
            txn,
            committed: false,
        });
        actions
    }

    /// Replaces the work shipped to one branch and re-sends its `Prepare`.
    ///
    /// Used when a participant cannot interpret the original payload (e.g.
    /// it carried a cache reference the receiver could not resolve) and the
    /// coordinator must retransmit a self-contained version. Valid for a
    /// classic branch that has not voted while the transaction is preparing,
    /// and for the decider while it decides; otherwise it is a stale report
    /// and nothing happens. The stored work is updated so later retries also
    /// carry the replacement.
    pub fn replace_work(&mut self, txn: TxnId, to: NodeId, work: RemoteWork) -> Vec<Action> {
        let Some(co) = self.txns.get_mut(&txn) else {
            return Vec::new();
        };
        let decide = match &mut co.state {
            CoState::Delegated { work: Some(slot) } if to == co.decider => {
                *slot = work.clone();
                true
            }
            CoState::Preparing { .. } if !co.votes.contains(&to) => {
                let Some(slot) = co.others.iter_mut().find(|(n, _)| *n == to) else {
                    return Vec::new();
                };
                slot.1 = work.clone();
                false
            }
            _ => return Vec::new(),
        };
        co.fresh = true;
        vec![Action::SendPrepare {
            to,
            txn,
            work,
            decide,
        }]
    }

    /// Handles a vote from a classic participant: once every one voted yes,
    /// the decision goes to the decider.
    pub fn on_vote(&mut self, txn: TxnId, from: NodeId, ok: bool) -> Vec<Action> {
        let Some(co) = self.txns.get_mut(&txn) else {
            return Vec::new(); // stale vote for a settled transaction
        };
        if !matches!(co.state, CoState::Preparing { .. }) || !co.is_other(from) {
            return Vec::new();
        }
        if !ok {
            return self.abort_request(txn);
        }
        co.votes.insert(from);
        if co.others.iter().any(|(n, _)| !co.votes.contains(n)) {
            return Vec::new(); // still waiting
        }
        let CoState::Preparing { work } = &co.state else {
            unreachable!("checked above");
        };
        let work = work.clone();
        co.state = CoState::Delegated {
            work: Some(work.clone()),
        };
        co.fresh = true;
        vec![Action::SendPrepare {
            to: co.decider,
            txn,
            work,
            decide: true,
        }]
    }

    /// Handles the decider's decision: the local branch commits or aborts,
    /// and the other participants are told.
    pub fn on_decision(&mut self, txn: TxnId, commit: bool, from: NodeId) -> Vec<Action> {
        let Some(co) = self.txns.get_mut(&txn) else {
            return Vec::new(); // a duplicate of a settled decision
        };
        if !matches!(co.state, CoState::Delegated { .. }) || from != co.decider {
            return Vec::new();
        }
        let resolved = Action::Resolved {
            txn,
            committed: commit,
        };
        if !commit {
            let co = self.txns.remove(&txn).expect("present");
            let mut actions = vec![Action::AbortLocal { txn }];
            actions.extend(co.decisions(txn, false));
            actions.push(resolved);
            return actions;
        }
        if co.others.is_empty() {
            self.txns.remove(&txn);
            return vec![Action::CommitLocal { txn }, resolved];
        }
        co.state = CoState::Committing;
        co.fresh = true;
        let mut actions = vec![
            Action::PersistDecision {
                txn,
                participants: co.others.iter().map(|(n, _)| *n).collect(),
            },
            Action::CommitLocal { txn },
        ];
        actions.extend(co.decisions(txn, true));
        actions.push(resolved);
        actions
    }

    /// Handles a decision acknowledgement from a classic participant.
    pub fn on_ack(&mut self, txn: TxnId, from: NodeId) -> Vec<Action> {
        let Some(co) = self.txns.get_mut(&txn) else {
            return Vec::new();
        };
        if co.state != CoState::Committing || !co.is_other(from) {
            return Vec::new();
        }
        co.acks.insert(from);
        if co.others.iter().any(|(n, _)| !co.acks.contains(n)) {
            return Vec::new();
        }
        self.txns.remove(&txn);
        vec![Action::ForgetDecision { txn }]
    }

    /// Answers a classic participant's outcome query.
    ///
    /// * Unknown transaction → abort (presumed abort: a forgotten
    ///   transaction can only have been aborted, or fully acknowledged).
    /// * Committing → commit.
    /// * Not decided yet → **no reply**: answering "abort" here would let a
    ///   prepared participant discard work the decider may yet commit. The
    ///   coordinator's own retry loop drives the transaction to its outcome.
    pub fn on_query(&mut self, txn: TxnId, from: NodeId) -> Vec<Action> {
        let commit = match self.txns.get(&txn).map(|co| &co.state) {
            Some(CoState::Committing) => true,
            Some(_) => return Vec::new(),
            None => false,
        };
        vec![Action::SendDecision {
            to: from,
            txn,
            commit,
        }]
    }

    /// Re-sends whatever the in-flight transactions are waiting on. The host
    /// calls this on a periodic timer; a transaction that sent something
    /// since the previous call is passed by once, so nothing is re-sent
    /// before it waited a full period.
    pub fn on_retry(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        for (&txn, co) in &mut self.txns {
            if std::mem::take(&mut co.fresh) {
                continue;
            }
            match &co.state {
                CoState::Preparing { .. } => {
                    let unvoted = co.others.iter().filter(|(to, _)| !co.votes.contains(to));
                    actions.extend(unvoted.map(|(to, work)| Action::SendPrepare {
                        to: *to,
                        txn,
                        work: work.clone(),
                        decide: false,
                    }));
                }
                CoState::Delegated { work: Some(work) } => actions.push(Action::SendPrepare {
                    to: co.decider,
                    txn,
                    work: work.clone(),
                    decide: true,
                }),
                CoState::Delegated { work: None } => actions.push(Action::SendQuery {
                    to: co.decider,
                    txn,
                }),
                CoState::Committing => actions.extend(co.decisions(txn, true)),
            }
        }
        actions
    }

    /// Rebuilds the transactions a crash left unfinished from stable
    /// storage, returning the messages that finish them: commit decisions
    /// still owed to participants (`decisions`) are re-sent, and the
    /// decider of every local branch still prepared (`in_doubt`) is asked.
    ///
    /// Transactions with neither record left nothing to finish: their
    /// participants will query and learn "abort" by presumption.
    pub fn recover(
        &mut self,
        decisions: Vec<(TxnId, Vec<NodeId>)>,
        in_doubt: Vec<(TxnId, LocalBranch)>,
    ) -> Vec<Action> {
        let recovered = |nodes: Vec<NodeId>| {
            let work = || RemoteWork::new("recovered", Vec::new());
            nodes.into_iter().map(|n| (n, work())).collect()
        };
        let mut actions = Vec::new();
        for (txn, participants) in decisions {
            let co = CoTxn {
                state: CoState::Committing,
                decider: NodeId::EXTERNAL,
                others: recovered(participants),
                votes: BTreeSet::new(),
                acks: BTreeSet::new(),
                fresh: true,
            };
            actions.extend(co.decisions(txn, true));
            self.txns.insert(txn, co);
        }
        for (txn, branch) in in_doubt {
            actions.push(Action::SendQuery {
                to: branch.decider,
                txn,
            });
            let co = CoTxn {
                state: CoState::Delegated { work: None },
                decider: branch.decider,
                others: recovered(branch.others),
                votes: BTreeSet::new(),
                acks: BTreeSet::new(),
                fresh: true,
            };
            self.txns.insert(txn, co);
        }
        actions
    }

    /// Transactions still in flight (for host timers / tests).
    pub fn in_flight(&self) -> usize {
        self.txns.len()
    }
}

/// Durable record of prepared work on a participant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreparedEntry {
    /// Coordinator to query for the outcome.
    pub coordinator: NodeId,
    /// The prepared work.
    pub work: RemoteWork,
}

/// Participant side of presumed-abort 2PC: a classic participant, or the
/// last one, which decides.
#[derive(Debug, Default)]
pub struct Participant {
    prepared: BTreeMap<TxnId, PreparedEntry>,
    /// Settled transactions and their outcome.
    done: BTreeMap<TxnId, bool>,
}

impl Participant {
    /// Creates an empty participant.
    pub fn new() -> Self {
        Participant::default()
    }

    /// Handles a `Prepare`: `work` is the work to prepare, or `None` if the
    /// host refuses it (it is not executable). `decide` says this node is
    /// the last participant, which commits the work at once — or records the
    /// refusal — and sends the decision back.
    pub fn on_prepare(
        &mut self,
        txn: TxnId,
        coordinator: NodeId,
        work: Option<RemoteWork>,
        decide: bool,
    ) -> Vec<Action> {
        let answer = |ok: bool| {
            if decide {
                Action::SendDecision {
                    to: coordinator,
                    txn,
                    commit: ok,
                }
            } else {
                Action::SendVote {
                    to: coordinator,
                    txn,
                    ok,
                }
            }
        };
        if let Some(&commit) = self.done.get(&txn) {
            // Stale retransmission of a settled transaction: it stays settled.
            return vec![answer(commit)];
        }
        if self.prepared.contains_key(&txn) {
            return vec![answer(true)];
        }
        if decide {
            let commit = work.is_some();
            self.done.insert(txn, commit);
            let apply = work.map(|work| Action::ApplyWork { txn, work });
            let mut actions = Vec::from_iter(apply);
            actions.push(Action::MarkDone { txn, commit });
            actions.push(answer(commit));
            return actions;
        }
        let Some(work) = work else {
            return vec![answer(false)];
        };
        let entry = PreparedEntry { coordinator, work };
        self.prepared.insert(txn, entry.clone());
        vec![
            Action::PersistPrepared {
                txn,
                coordinator,
                work: entry.work,
            },
            answer(true),
        ]
    }

    /// Handles a decision from `from` (normally the coordinator).
    pub fn on_decision(&mut self, txn: TxnId, commit: bool, from: NodeId) -> Vec<Action> {
        match self.prepared.remove(&txn) {
            Some(entry) => {
                self.done.insert(txn, commit);
                let mut actions = Vec::new();
                if commit {
                    actions.push(Action::ApplyWork {
                        txn,
                        work: entry.work,
                    });
                } else {
                    actions.push(Action::DiscardWork { txn });
                }
                actions.push(Action::MarkDone { txn, commit });
                actions.push(Action::SendAck {
                    to: entry.coordinator,
                    txn,
                });
                actions
            }
            None => {
                // Duplicate decision (our ack was lost) — ack idempotently.
                vec![Action::SendAck { to: from, txn }]
            }
        }
    }

    /// Answers a coordinator that asks its decider for the outcome: the
    /// recorded one, and for a transaction this node never heard of an abort
    /// it records first, so that a `Prepare` arriving later is refused. A
    /// branch still prepared here is in doubt itself: no answer.
    pub fn on_query(&mut self, txn: TxnId, from: NodeId) -> Vec<Action> {
        if self.prepared.contains_key(&txn) {
            return Vec::new();
        }
        let mut actions = Vec::new();
        let commit = *self.done.entry(txn).or_insert_with(|| {
            actions.push(Action::MarkDone { txn, commit: false });
            false
        });
        actions.push(Action::SendDecision {
            to: from,
            txn,
            commit,
        });
        actions
    }

    /// Queries the coordinator for every in-doubt transaction. The host
    /// calls this on a periodic timer and after recovery.
    pub fn on_retry(&self) -> Vec<Action> {
        self.prepared
            .iter()
            .map(|(txn, e)| Action::SendQuery {
                to: e.coordinator,
                txn: *txn,
            })
            .collect()
    }

    /// Rebuilds state from stable storage after a crash: the prepared
    /// entries, and the settled transactions with their outcome.
    pub fn recover(&mut self, prepared: Vec<(TxnId, PreparedEntry)>, done: Vec<(TxnId, bool)>) {
        self.prepared = prepared.into_iter().collect();
        self.done = done.into_iter().collect();
    }

    /// Number of in-doubt transactions.
    pub fn in_doubt(&self) -> usize {
        self.prepared.len()
    }

    /// The recorded outcome of `txn`, if it settled here.
    pub fn outcome(&self, txn: TxnId) -> Option<bool> {
        self.done.get(&txn).copied()
    }

    /// Whether this participant already holds or settled `txn`'s branch —
    /// a retransmitted `Prepare` for such a transaction must not be
    /// validated (= tentatively executed) again by the host;
    /// [`Self::on_prepare`] will simply answer again.
    pub fn is_known(&self, txn: TxnId) -> bool {
        self.done.contains_key(&txn) || self.prepared.contains_key(&txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CO: NodeId = NodeId(0);

    fn txn(seq: u64) -> TxnId {
        TxnId::new(CO, seq)
    }

    fn work() -> RemoteWork {
        RemoteWork::new("enqueue", vec![1, 2])
    }

    fn prepare(to: NodeId, work: RemoteWork, decide: bool) -> Action {
        Action::SendPrepare {
            to,
            txn: txn(1),
            work,
            decide,
        }
    }

    fn decision(to: NodeId, commit: bool) -> Action {
        Action::SendDecision {
            to,
            txn: txn(1),
            commit,
        }
    }

    fn resolved(committed: bool) -> Action {
        Action::Resolved {
            txn: txn(1),
            committed,
        }
    }

    fn branch(decider: NodeId, others: &[NodeId]) -> LocalBranch {
        LocalBranch {
            decider,
            others: others.to_vec(),
        }
    }

    #[test]
    fn local_only_commit_is_immediate() {
        let mut co = Coordinator::new();
        let actions = co.commit_request(txn(1), Vec::new());
        assert_eq!(
            actions,
            vec![Action::CommitLocal { txn: txn(1) }, resolved(true)]
        );
        assert_eq!(co.in_flight(), 0);
    }

    /// One remote branch: the coordinator prepares its own, the participant
    /// decides, and the commit is one `Prepare` and one `Decision`.
    #[test]
    fn happy_path_two_phase() {
        let mut co = Coordinator::new();
        let mut pa = Participant::new();
        let p = NodeId(2);

        let a1 = co.commit_request(txn(1), vec![(p, work())]);
        assert_eq!(
            a1,
            vec![
                Action::PrepareLocal {
                    txn: txn(1),
                    branch: branch(p, &[]),
                },
                prepare(p, work(), true),
            ]
        );

        let a2 = pa.on_prepare(txn(1), CO, Some(work()), true);
        assert_eq!(
            a2,
            vec![
                Action::ApplyWork {
                    txn: txn(1),
                    work: work(),
                },
                Action::MarkDone {
                    txn: txn(1),
                    commit: true,
                },
                decision(CO, true),
            ]
        );
        assert_eq!(pa.in_doubt(), 0, "the decider is never in doubt");
        assert_eq!(pa.outcome(txn(1)), Some(true));

        let a3 = co.on_decision(txn(1), true, p);
        assert_eq!(
            a3,
            vec![Action::CommitLocal { txn: txn(1) }, resolved(true)]
        );
        assert_eq!(co.in_flight(), 0, "no ack to wait for");
        assert_eq!(co.on_decision(txn(1), true, p), [], "a duplicate is stale");
    }

    /// A refusal is recorded before it is sent: a retransmitted `Prepare`
    /// that the decider would now accept is refused all the same.
    #[test]
    fn the_deciders_refusal_is_durable() {
        let mut co = Coordinator::new();
        let mut pa = Participant::new();
        let p = NodeId(2);
        co.commit_request(txn(1), vec![(p, work())]);
        let refused = pa.on_prepare(txn(1), CO, None, true);
        assert_eq!(
            refused,
            vec![
                Action::MarkDone {
                    txn: txn(1),
                    commit: false,
                },
                decision(CO, false),
            ]
        );
        assert_eq!(
            pa.on_prepare(txn(1), CO, Some(work()), true),
            [decision(CO, false)],
            "a re-sent Prepare is refused, not applied"
        );
        assert_eq!(
            co.on_decision(txn(1), false, p),
            vec![Action::AbortLocal { txn: txn(1) }, resolved(false)]
        );
        assert_eq!(co.in_flight(), 0);
    }

    /// A `Query` about a transaction the decider never heard of records an
    /// abort first, and answers it; the `Prepare` that was overtaken is
    /// refused when it lands.
    #[test]
    fn a_query_of_an_unknown_transaction_records_abort_and_a_late_prepare_is_refused() {
        let mut pa = Participant::new();
        assert_eq!(
            pa.on_query(txn(1), CO),
            vec![
                Action::MarkDone {
                    txn: txn(1),
                    commit: false,
                },
                decision(CO, false),
            ]
        );
        assert_eq!(
            pa.on_query(txn(1), CO),
            [decision(CO, false)],
            "recorded once, answered every time"
        );
        assert_eq!(
            pa.on_prepare(txn(1), CO, Some(work()), true),
            [decision(CO, false)]
        );
        assert_eq!(pa.outcome(txn(1)), Some(false));

        // A committed transaction is answered as committed.
        pa.on_prepare(txn(2), CO, Some(work()), true);
        assert_eq!(
            pa.on_query(txn(2), CO),
            [Action::SendDecision {
                to: CO,
                txn: txn(2),
                commit: true,
            }]
        );
    }

    /// Two remote branches: the first is prepared the classic way, and the
    /// second decides once it voted; the first then gets the decision from
    /// a durable record and acks it.
    #[test]
    fn with_two_branches_one_is_prepared_and_the_last_decides() {
        let mut co = Coordinator::new();
        let mut classic = Participant::new();
        let mut last = Participant::new();
        let (p1, p2) = (NodeId(1), NodeId(2));
        let w2 = RemoteWork::new("rce", vec![7]);

        let a1 = co.commit_request(txn(1), vec![(p1, work()), (p2, w2.clone())]);
        assert_eq!(
            a1,
            vec![
                Action::PrepareLocal {
                    txn: txn(1),
                    branch: branch(p2, &[p1]),
                },
                prepare(p1, work(), false),
            ]
        );
        let a2 = classic.on_prepare(txn(1), CO, Some(work()), false);
        assert!(matches!(a2[0], Action::PersistPrepared { .. }));
        assert!(matches!(a2[1], Action::SendVote { ok: true, .. }));
        assert_eq!(co.on_decision(txn(1), true, p2), [], "not asked yet");

        assert_eq!(
            co.on_vote(txn(1), p1, true),
            [prepare(p2, w2.clone(), true)]
        );
        assert!(co.on_query(txn(1), p1).is_empty(), "undecided: no answer");
        let a3 = last.on_prepare(txn(1), CO, Some(w2), true);
        assert_eq!(a3.last(), Some(&decision(CO, true)));

        let a4 = co.on_decision(txn(1), true, p2);
        assert_eq!(
            a4,
            vec![
                Action::PersistDecision {
                    txn: txn(1),
                    participants: vec![p1],
                },
                Action::CommitLocal { txn: txn(1) },
                decision(p1, true),
                resolved(true),
            ]
        );
        assert_eq!(co.on_query(txn(1), p1), [decision(p1, true)]);
        let a5 = classic.on_decision(txn(1), true, CO);
        assert!(matches!(a5[0], Action::ApplyWork { .. }));
        assert_eq!(
            a5[1],
            Action::MarkDone {
                txn: txn(1),
                commit: true,
            }
        );
        assert!(matches!(a5[2], Action::SendAck { .. }));
        assert_eq!(co.on_ack(txn(1), p2), [], "the decider owes no ack");
        assert_eq!(
            co.on_ack(txn(1), p1),
            [Action::ForgetDecision { txn: txn(1) }]
        );
        assert_eq!(co.in_flight(), 0);
        assert_eq!(classic.in_doubt(), 0);
    }

    /// The itinerary NACK path while the decider decides: the replacement
    /// goes out as a deciding `Prepare`, and retries carry it.
    #[test]
    fn replace_work_while_delegated_resends_to_the_decider() {
        let mut co = Coordinator::new();
        let p = NodeId(2);
        co.commit_request(txn(1), vec![(p, work())]);
        let fat = RemoteWork::new("enqueue", vec![9, 9, 9]);
        assert_eq!(
            co.replace_work(txn(1), p, fat.clone()),
            [prepare(p, fat.clone(), true)]
        );
        assert_eq!(co.replace_work(txn(1), NodeId(5), fat.clone()), []);
        assert_eq!(co.on_retry(), [], "sent this period");
        assert_eq!(co.on_retry(), [prepare(p, fat.clone(), true)]);
        co.on_decision(txn(1), true, p);
        assert_eq!(co.replace_work(txn(1), p, fat), [], "settled");
    }

    #[test]
    fn replace_work_resends_and_sticks_for_retries() {
        let mut co = Coordinator::new();
        let (p1, p2, p3) = (NodeId(2), NodeId(3), NodeId(4));
        co.commit_request(txn(1), vec![(p1, work()), (p2, work()), (p3, work())]);

        let fat = RemoteWork::new("enqueue", vec![9, 9, 9]);
        assert_eq!(
            co.replace_work(txn(1), p1, fat.clone()),
            vec![prepare(p1, fat.clone(), false)]
        );
        assert_eq!(
            co.replace_work(txn(1), p3, fat.clone()),
            [],
            "not asked yet"
        );

        // Retries keep shipping the replacement, not the original payload,
        // and the other branch its own.
        co.on_retry();
        let retries = co.on_retry();
        assert!(retries.contains(&prepare(p1, fat.clone(), false)));
        assert!(retries.contains(&prepare(p2, work(), false)));

        // A branch that already voted can no longer be replaced.
        co.on_vote(txn(1), p2, true);
        assert_eq!(co.replace_work(txn(1), p2, fat.clone()), Vec::new());
    }

    /// A classic participant's no vote aborts before the decider is asked.
    #[test]
    fn refused_vote_aborts() {
        let mut co = Coordinator::new();
        let (p1, p2) = (NodeId(2), NodeId(3));
        co.commit_request(txn(1), vec![(p1, work()), (p2, work())]);
        let actions = co.on_vote(txn(1), p1, false);
        assert_eq!(
            actions,
            vec![
                Action::AbortLocal { txn: txn(1) },
                decision(p1, false),
                resolved(false),
            ]
        );
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn decision_on_unprepared_participant_just_acks() {
        let mut pa = Participant::new();
        let actions = pa.on_decision(txn(9), true, NodeId(4));
        assert_eq!(
            actions,
            vec![Action::SendAck {
                to: NodeId(4),
                txn: txn(9)
            }]
        );
    }

    #[test]
    fn stale_prepare_after_done_cannot_reapply() {
        let mut pa = Participant::new();
        pa.on_prepare(txn(1), CO, Some(work()), false);
        pa.on_decision(txn(1), true, CO);
        assert_eq!(pa.outcome(txn(1)), Some(true));
        // A delayed duplicate Prepare must not re-prepare.
        let actions = pa.on_prepare(txn(1), CO, Some(work()), false);
        assert_eq!(
            actions,
            vec![Action::SendVote {
                to: CO,
                txn: txn(1),
                ok: true
            }]
        );
        assert_eq!(pa.in_doubt(), 0);
    }

    #[test]
    fn query_of_unknown_txn_presumes_abort() {
        let mut co = Coordinator::new();
        let actions = co.on_query(txn(5), NodeId(3));
        assert_eq!(
            actions,
            vec![Action::SendDecision {
                to: NodeId(3),
                txn: txn(5),
                commit: false
            }]
        );
    }

    #[test]
    fn query_while_preparing_gets_no_answer() {
        let mut co = Coordinator::new();
        let (p1, p2) = (NodeId(1), NodeId(2));
        co.commit_request(txn(1), vec![(p1, work()), (p2, work())]);
        // The classic participant is in doubt, but nothing is decided: an
        // "abort" reply here would contradict a later commit. Nor while the
        // decider decides.
        assert!(co.on_query(txn(1), p1).is_empty());
        co.on_vote(txn(1), p1, true);
        assert!(co.on_query(txn(1), p1).is_empty());
        // After the decider's commit the same query gets a commit.
        co.on_decision(txn(1), true, p2);
        assert_eq!(co.on_query(txn(1), p1), [decision(p1, true)]);
    }

    /// Retries re-send what each transaction waits on — an unvoted
    /// `Prepare`, the deciding one, an unacked decision — and nothing before
    /// it waited a full retry period: the tick after a send passes the
    /// transaction by, the one after re-sends.
    #[test]
    fn retry_resends_missing_pieces() {
        let mut co = Coordinator::new();
        let (p1, p2) = (NodeId(1), NodeId(2));
        co.commit_request(txn(1), vec![(p1, work()), (p2, work())]);
        assert_eq!(co.on_retry(), []);
        assert_eq!(co.on_retry(), [prepare(p1, work(), false)]);
        assert_eq!(co.on_retry(), [prepare(p1, work(), false)]);

        co.on_vote(txn(1), p1, true);
        assert_eq!(co.on_retry(), [], "the deciding Prepare just went out");
        assert_eq!(co.on_retry(), [prepare(p2, work(), true)]);

        co.on_decision(txn(1), true, p2);
        assert_eq!(co.on_retry(), [], "the decision just went out");
        assert_eq!(co.on_retry(), [decision(p1, true)]);
    }

    #[test]
    fn coordinator_recovery_resends_commit_decisions() {
        let mut co = Coordinator::new();
        let actions = co.recover(vec![(txn(7), vec![NodeId(3)])], Vec::new());
        assert_eq!(
            actions,
            vec![Action::SendDecision {
                to: NodeId(3),
                txn: txn(7),
                commit: true
            }]
        );
        // Ack completes it.
        let done = co.on_ack(txn(7), NodeId(3));
        assert_eq!(done, [Action::ForgetDecision { txn: txn(7) }]);
    }

    /// A coordinator that crashed with its branch prepared has lost the
    /// work: it asks the decider, and the answer settles its branch and the
    /// other participants'.
    #[test]
    fn coordinator_recovery_in_doubt_queries_the_decider() {
        let (p1, p2) = (NodeId(1), NodeId(2));
        for commit in [true, false] {
            let mut co = Coordinator::new();
            let actions = co.recover(Vec::new(), vec![(txn(1), branch(p2, &[p1]))]);
            assert_eq!(
                actions,
                [Action::SendQuery {
                    to: p2,
                    txn: txn(1)
                }]
            );
            assert_eq!(co.on_retry(), []);
            assert_eq!(
                co.on_retry(),
                [Action::SendQuery {
                    to: p2,
                    txn: txn(1)
                }],
                "asked again, never re-prepared"
            );
            assert_eq!(
                co.replace_work(txn(1), p2, work()),
                [],
                "no work to replace"
            );
            let settled = co.on_decision(txn(1), commit, p2);
            let local = if commit {
                Action::CommitLocal { txn: txn(1) }
            } else {
                Action::AbortLocal { txn: txn(1) }
            };
            assert!(settled.contains(&local), "{settled:?}");
            assert!(settled.contains(&decision(p1, commit)), "{settled:?}");
            assert_eq!(settled.last(), Some(&resolved(commit)));
        }
    }

    #[test]
    fn participant_recovery_queries_coordinator() {
        let mut pa = Participant::new();
        pa.recover(
            vec![(
                txn(4),
                PreparedEntry {
                    coordinator: NodeId(9),
                    work: work(),
                },
            )],
            vec![(txn(3), true), (txn(5), false)],
        );
        assert_eq!(pa.outcome(txn(3)), Some(true));
        assert_eq!(pa.outcome(txn(5)), Some(false));
        let actions = pa.on_retry();
        assert_eq!(
            actions,
            vec![Action::SendQuery {
                to: NodeId(9),
                txn: txn(4)
            }]
        );
        assert_eq!(pa.on_query(txn(4), NodeId(9)), [], "in doubt itself");
        // Presumed abort arrives.
        let a = pa.on_decision(txn(4), false, NodeId(9));
        assert!(matches!(a[0], Action::DiscardWork { .. }));
        assert_eq!(
            a[1],
            Action::MarkDone {
                txn: txn(4),
                commit: false
            }
        );
    }

    /// Neither a vote nor a decision from a node that may not give one
    /// settles anything.
    #[test]
    fn votes_from_strangers_do_not_commit() {
        let mut co = Coordinator::new();
        let (p1, p2) = (NodeId(1), NodeId(2));
        co.commit_request(txn(1), vec![(p1, work()), (p2, work())]);
        // A vote from a node that is not a participant must not trigger
        // the delegation, nor one from the decider, which does not vote.
        assert!(co.on_vote(txn(1), NodeId(99), true).is_empty());
        assert!(co.on_vote(txn(1), p2, true).is_empty());
        co.on_vote(txn(1), p1, true);
        assert!(co.on_decision(txn(1), true, p1).is_empty());
        assert!(co.on_decision(txn(1), true, NodeId(99)).is_empty());
        assert_eq!(co.in_flight(), 1);
    }
}
