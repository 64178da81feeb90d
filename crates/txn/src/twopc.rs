//! Presumed-abort two-phase commit, as pure state machines.
//!
//! The step transaction of the paper spans at most two nodes: the node
//! executing the step (coordinator, which also holds all resource branches
//! locally) and the next node's agent input queue (one remote participant).
//! The optimized rollback adds a second pattern: a compensation transaction
//! whose remote participant executes a resource-compensation-entry list.
//! Both reduce to the same protocol, implemented here for any number of
//! participants.
//!
//! # Host contract
//!
//! [`Coordinator`] and [`Participant`] return [`Action`] lists; the hosting
//! service must execute them **in order, within the same event handler** —
//! handlers are atomic with respect to crashes in the simulator, which gives
//! the usual "log record + state change forced together" durability
//! atomicity of a real write-ahead log:
//!
//! * `PersistDecision` must write the decision record *and* the local
//!   branch's committed state in the same handler.
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
    /// Durably record a *commit* decision with its participant set, together
    /// with the local branch's committed state (coordinator side).
    PersistDecision {
        /// The transaction.
        txn: TxnId,
        /// Participants that still need the decision.
        participants: Vec<NodeId>,
    },
    /// Remove the decision record (all participants acknowledged).
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
    },
    /// Send the decision to a participant.
    SendDecision {
        /// Destination participant.
        to: NodeId,
        /// The transaction.
        txn: TxnId,
        /// Commit or abort.
        commit: bool,
    },
    /// Commit the local branch (resources, queue ops) now.
    CommitLocal {
        /// The transaction.
        txn: TxnId,
    },
    /// Abort the local branch now.
    AbortLocal {
        /// The transaction.
        txn: TxnId,
    },
    /// Terminal: the transaction's fate is settled at this coordinator.
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
    /// Apply previously prepared work (the decision was commit).
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
    /// Durably replace the prepared record with a "done" marker, so stale
    /// retransmissions can never re-apply the work.
    MarkDone {
        /// The transaction.
        txn: TxnId,
    },
    /// Acknowledge the decision to the coordinator.
    SendAck {
        /// Destination coordinator.
        to: NodeId,
        /// The transaction.
        txn: TxnId,
    },
    /// Ask the coordinator for the outcome of an in-doubt transaction.
    SendQuery {
        /// Destination coordinator.
        to: NodeId,
        /// The transaction.
        txn: TxnId,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum CoState {
    Preparing,
    Committing,
}

#[derive(Debug, Clone)]
struct CoTxn {
    state: CoState,
    work: Vec<(NodeId, RemoteWork)>,
    votes: BTreeSet<NodeId>,
    acks: BTreeSet<NodeId>,
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
    /// With no remote branches the transaction commits immediately; with
    /// branches, prepares go out first.
    pub fn commit_request(
        &mut self,
        txn: TxnId,
        branches: Vec<(NodeId, RemoteWork)>,
    ) -> Vec<Action> {
        if branches.is_empty() {
            return vec![
                Action::CommitLocal { txn },
                Action::Resolved {
                    txn,
                    committed: true,
                },
            ];
        }
        let actions = branches
            .iter()
            .map(|(to, work)| Action::SendPrepare {
                to: *to,
                txn,
                work: work.clone(),
            })
            .collect();
        self.txns.insert(
            txn,
            CoTxn {
                state: CoState::Preparing,
                work: branches,
                votes: BTreeSet::new(),
                acks: BTreeSet::new(),
            },
        );
        actions
    }

    /// Aborts a transaction this coordinator started (e.g. local failure
    /// while waiting for votes).
    pub fn abort_request(&mut self, txn: TxnId) -> Vec<Action> {
        let mut actions = vec![Action::AbortLocal { txn }];
        if let Some(co) = self.txns.remove(&txn) {
            for (to, _) in &co.work {
                actions.push(Action::SendDecision {
                    to: *to,
                    txn,
                    commit: false,
                });
            }
        }
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
    /// coordinator must retransmit a self-contained version. Only valid
    /// while the transaction is still preparing and the branch has not
    /// voted; otherwise it is a stale report and nothing happens. The
    /// stored work is updated so later retries also carry the replacement.
    pub fn replace_work(&mut self, txn: TxnId, to: NodeId, work: RemoteWork) -> Vec<Action> {
        let Some(co) = self.txns.get_mut(&txn) else {
            return Vec::new();
        };
        if co.state != CoState::Preparing || co.votes.contains(&to) {
            return Vec::new();
        }
        let Some(slot) = co.work.iter_mut().find(|(n, _)| *n == to) else {
            return Vec::new();
        };
        slot.1 = work.clone();
        vec![Action::SendPrepare { to, txn, work }]
    }

    /// Handles a vote from a participant.
    pub fn on_vote(&mut self, txn: TxnId, from: NodeId, ok: bool) -> Vec<Action> {
        let Some(co) = self.txns.get_mut(&txn) else {
            return Vec::new(); // stale vote for a settled transaction
        };
        if co.state != CoState::Preparing {
            return Vec::new();
        }
        if !ok {
            return self.abort_request(txn);
        }
        co.votes.insert(from);
        let participants: Vec<NodeId> = co.work.iter().map(|(n, _)| *n).collect();
        if participants.iter().any(|n| !co.votes.contains(n)) {
            return Vec::new(); // still waiting
        }
        co.state = CoState::Committing;
        let mut actions = vec![
            Action::PersistDecision {
                txn,
                participants: participants.clone(),
            },
            Action::CommitLocal { txn },
        ];
        for to in participants {
            actions.push(Action::SendDecision {
                to,
                txn,
                commit: true,
            });
        }
        actions
    }

    /// Handles a decision acknowledgement.
    pub fn on_ack(&mut self, txn: TxnId, from: NodeId) -> Vec<Action> {
        let Some(co) = self.txns.get_mut(&txn) else {
            return Vec::new();
        };
        if co.state != CoState::Committing {
            return Vec::new();
        }
        co.acks.insert(from);
        let all_acked = co.work.iter().all(|(n, _)| co.acks.contains(n));
        if !all_acked {
            return Vec::new();
        }
        self.txns.remove(&txn);
        vec![
            Action::ForgetDecision { txn },
            Action::Resolved {
                txn,
                committed: true,
            },
        ]
    }

    /// Answers an outcome query.
    ///
    /// * Unknown transaction → abort (presumed abort: a forgotten
    ///   transaction can only have been aborted, or fully acknowledged).
    /// * Committing → commit.
    /// * Still preparing → **no reply**: answering "abort" here would let a
    ///   prepared participant discard work the coordinator may yet commit.
    ///   The coordinator's own retry loop re-sends prepares until the vote
    ///   arrives (or the host aborts the transaction).
    pub fn on_query(&mut self, txn: TxnId, from: NodeId) -> Vec<Action> {
        match self.txns.get(&txn).map(|co| &co.state) {
            Some(CoState::Committing) => vec![Action::SendDecision {
                to: from,
                txn,
                commit: true,
            }],
            Some(CoState::Preparing) => Vec::new(),
            None => vec![Action::SendDecision {
                to: from,
                txn,
                commit: false,
            }],
        }
    }

    /// Re-sends whatever the in-flight transactions are waiting on. The host
    /// calls this on a periodic timer.
    pub fn on_retry(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        for (txn, co) in &self.txns {
            match co.state {
                CoState::Preparing => {
                    for (to, work) in &co.work {
                        if !co.votes.contains(to) {
                            actions.push(Action::SendPrepare {
                                to: *to,
                                txn: *txn,
                                work: work.clone(),
                            });
                        }
                    }
                }
                CoState::Committing => {
                    for (to, _) in &co.work {
                        if !co.acks.contains(to) {
                            actions.push(Action::SendDecision {
                                to: *to,
                                txn: *txn,
                                commit: true,
                            });
                        }
                    }
                }
            }
        }
        actions
    }

    /// Rebuilds committing transactions from persisted decision records
    /// after a crash, returning decision re-sends.
    ///
    /// Transactions that were still *preparing* at crash time left no
    /// record; their participants will query and learn "abort" by
    /// presumption.
    pub fn recover(&mut self, decisions: Vec<(TxnId, Vec<NodeId>)>) -> Vec<Action> {
        let mut actions = Vec::new();
        for (txn, participants) in decisions {
            let work = participants
                .iter()
                .map(|n| (*n, RemoteWork::new("recovered", Vec::new())))
                .collect();
            self.txns.insert(
                txn,
                CoTxn {
                    state: CoState::Committing,
                    work,
                    votes: BTreeSet::new(),
                    acks: BTreeSet::new(),
                },
            );
            for to in participants {
                actions.push(Action::SendDecision {
                    to,
                    txn,
                    commit: true,
                });
            }
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

/// Participant side of presumed-abort 2PC.
#[derive(Debug, Default)]
pub struct Participant {
    prepared: BTreeMap<TxnId, PreparedEntry>,
    done: BTreeSet<TxnId>,
}

impl Participant {
    /// Creates an empty participant.
    pub fn new() -> Self {
        Participant::default()
    }

    /// Handles a `Prepare`. `accept` is the host's verdict on whether the
    /// work is executable (e.g. the queue exists).
    pub fn on_prepare(
        &mut self,
        txn: TxnId,
        coordinator: NodeId,
        work: RemoteWork,
        accept: bool,
    ) -> Vec<Action> {
        if self.done.contains(&txn) {
            // Stale retransmission of an already-settled transaction.
            return vec![Action::SendVote {
                to: coordinator,
                txn,
                ok: true,
            }];
        }
        if self.prepared.contains_key(&txn) {
            return vec![Action::SendVote {
                to: coordinator,
                txn,
                ok: true,
            }];
        }
        if !accept {
            return vec![Action::SendVote {
                to: coordinator,
                txn,
                ok: false,
            }];
        }
        let entry = PreparedEntry { coordinator, work };
        self.prepared.insert(txn, entry.clone());
        vec![
            Action::PersistPrepared {
                txn,
                coordinator,
                work: entry.work,
            },
            Action::SendVote {
                to: coordinator,
                txn,
                ok: true,
            },
        ]
    }

    /// Handles a decision from `from` (normally the coordinator).
    pub fn on_decision(&mut self, txn: TxnId, commit: bool, from: NodeId) -> Vec<Action> {
        match self.prepared.remove(&txn) {
            Some(entry) => {
                self.done.insert(txn);
                let mut actions = Vec::new();
                if commit {
                    actions.push(Action::ApplyWork {
                        txn,
                        work: entry.work,
                    });
                } else {
                    actions.push(Action::DiscardWork { txn });
                }
                actions.push(Action::MarkDone { txn });
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

    /// Rebuilds state from stable storage after a crash.
    pub fn recover(&mut self, prepared: Vec<(TxnId, PreparedEntry)>, done: Vec<TxnId>) {
        self.prepared = prepared.into_iter().collect();
        self.done = done.into_iter().collect();
    }

    /// Number of in-doubt transactions.
    pub fn in_doubt(&self) -> usize {
        self.prepared.len()
    }

    /// Whether `txn` already settled here.
    pub fn is_done(&self, txn: TxnId) -> bool {
        self.done.contains(&txn)
    }

    /// Whether this participant already holds or settled `txn`'s branch —
    /// a retransmitted `Prepare` for such a transaction must not be
    /// validated (= tentatively executed) again by the host;
    /// [`Self::on_prepare`] will simply re-send the vote.
    pub fn is_known(&self, txn: TxnId) -> bool {
        self.done.contains(&txn) || self.prepared.contains_key(&txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    fn work() -> RemoteWork {
        RemoteWork::new("enqueue", vec![1, 2])
    }

    #[test]
    fn local_only_commit_is_immediate() {
        let mut co = Coordinator::new();
        let actions = co.commit_request(txn(1), Vec::new());
        assert_eq!(
            actions,
            vec![
                Action::CommitLocal { txn: txn(1) },
                Action::Resolved {
                    txn: txn(1),
                    committed: true
                }
            ]
        );
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn happy_path_two_phase() {
        let mut co = Coordinator::new();
        let mut pa = Participant::new();
        let p = NodeId(2);

        let a1 = co.commit_request(txn(1), vec![(p, work())]);
        assert!(matches!(a1[0], Action::SendPrepare { to, .. } if to == p));

        let a2 = pa.on_prepare(txn(1), NodeId(0), work(), true);
        assert!(matches!(a2[0], Action::PersistPrepared { .. }));
        assert!(matches!(a2[1], Action::SendVote { ok: true, .. }));

        let a3 = co.on_vote(txn(1), p, true);
        assert_eq!(
            a3[0],
            Action::PersistDecision {
                txn: txn(1),
                participants: vec![p]
            }
        );
        assert_eq!(a3[1], Action::CommitLocal { txn: txn(1) });
        assert!(matches!(a3[2], Action::SendDecision { commit: true, .. }));

        let a4 = pa.on_decision(txn(1), true, NodeId(0));
        assert!(matches!(a4[0], Action::ApplyWork { .. }));
        assert!(matches!(a4[1], Action::MarkDone { .. }));
        assert!(matches!(a4[2], Action::SendAck { .. }));

        let a5 = co.on_ack(txn(1), p);
        assert_eq!(a5[0], Action::ForgetDecision { txn: txn(1) });
        assert!(matches!(
            a5[1],
            Action::Resolved {
                committed: true,
                ..
            }
        ));
        assert_eq!(co.in_flight(), 0);
        assert_eq!(pa.in_doubt(), 0);
    }

    #[test]
    fn replace_work_resends_and_sticks_for_retries() {
        let mut co = Coordinator::new();
        let p1 = NodeId(2);
        let p2 = NodeId(3);
        co.commit_request(txn(1), vec![(p1, work()), (p2, work())]);

        let fat = RemoteWork::new("enqueue", vec![9, 9, 9]);
        let a = co.replace_work(txn(1), p1, fat.clone());
        assert_eq!(
            a,
            vec![Action::SendPrepare {
                to: p1,
                txn: txn(1),
                work: fat.clone(),
            }]
        );

        // Retries keep shipping the replacement, not the original payload,
        // and the other branch its own.
        let retries = co.on_retry();
        assert!(retries.iter().any(
            |a| matches!(a, Action::SendPrepare { to, work: w, .. } if *to == p1 && *w == fat)
        ));
        assert!(retries.iter().any(
            |a| matches!(a, Action::SendPrepare { to, work: w, .. } if *to == p2 && *w == work())
        ));

        // A branch that already voted can no longer be replaced.
        co.on_vote(txn(1), p2, true);
        assert_eq!(co.replace_work(txn(1), p2, fat.clone()), Vec::new());

        // Stale reports for settled transactions are ignored.
        co.on_vote(txn(1), p1, true);
        assert_eq!(co.replace_work(txn(1), p1, fat), Vec::new());
    }

    #[test]
    fn refused_vote_aborts() {
        let mut co = Coordinator::new();
        let p = NodeId(2);
        co.commit_request(txn(1), vec![(p, work())]);
        let actions = co.on_vote(txn(1), p, false);
        assert_eq!(actions[0], Action::AbortLocal { txn: txn(1) });
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SendDecision { commit: false, .. })));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Resolved {
                committed: false,
                ..
            }
        )));
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
        pa.on_prepare(txn(1), NodeId(0), work(), true);
        pa.on_decision(txn(1), true, NodeId(0));
        assert!(pa.is_done(txn(1)));
        // A delayed duplicate Prepare must not re-prepare.
        let actions = pa.on_prepare(txn(1), NodeId(0), work(), true);
        assert_eq!(
            actions,
            vec![Action::SendVote {
                to: NodeId(0),
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
        let p = NodeId(2);
        co.commit_request(txn(1), vec![(p, work())]);
        // The participant is in doubt, but the coordinator has not decided:
        // an "abort" reply here would contradict a later commit.
        assert!(co.on_query(txn(1), p).is_empty());
        // After the vote arrives the same query gets a commit.
        co.on_vote(txn(1), p, true);
        assert_eq!(
            co.on_query(txn(1), p),
            vec![Action::SendDecision {
                to: p,
                txn: txn(1),
                commit: true
            }]
        );
    }

    #[test]
    fn retry_resends_missing_pieces() {
        let mut co = Coordinator::new();
        let (p1, p2) = (NodeId(1), NodeId(2));
        co.commit_request(txn(1), vec![(p1, work()), (p2, work())]);
        co.on_vote(txn(1), p1, true);
        // Still preparing: only p2's prepare is re-sent.
        let retries = co.on_retry();
        assert_eq!(retries.len(), 1);
        assert!(matches!(retries[0], Action::SendPrepare { to, .. } if to == p2));

        co.on_vote(txn(1), p2, true);
        co.on_ack(txn(1), p1);
        let retries = co.on_retry();
        assert_eq!(retries.len(), 1);
        assert!(matches!(retries[0], Action::SendDecision { to, commit: true, .. } if to == p2));
    }

    #[test]
    fn coordinator_recovery_resends_commit_decisions() {
        let mut co = Coordinator::new();
        let actions = co.recover(vec![(txn(7), vec![NodeId(3)])]);
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
        assert!(done.contains(&Action::ForgetDecision { txn: txn(7) }));
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
            vec![txn(3)],
        );
        assert!(pa.is_done(txn(3)));
        let actions = pa.on_retry();
        assert_eq!(
            actions,
            vec![Action::SendQuery {
                to: NodeId(9),
                txn: txn(4)
            }]
        );
        // Presumed abort arrives.
        let a = pa.on_decision(txn(4), false, NodeId(9));
        assert!(matches!(a[0], Action::DiscardWork { .. }));
    }

    #[test]
    fn votes_from_strangers_do_not_commit() {
        let mut co = Coordinator::new();
        let p = NodeId(2);
        co.commit_request(txn(1), vec![(p, work())]);
        // A vote from a node that is not a participant must not trigger commit.
        let actions = co.on_vote(txn(1), NodeId(99), true);
        assert!(actions.is_empty());
        assert_eq!(co.in_flight(), 1);
    }
}
