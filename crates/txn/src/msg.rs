//! Wire messages of the distributed commit protocol.

use mar_simnet::NodeId;
use serde::{Deserialize, Serialize};

use crate::id::TxnId;

/// A unit of remote work prepared at a participant: the host interprets
/// `kind` and applies `payload` when the transaction commits (the mole's
/// kinds and their typed form live in `mar-platform`'s `work` module).
///
/// The payload is a [`mar_wire::Bytes`] buffer: work items routinely carry
/// whole serialized agent records, and the compact `TAG_BYTES` framing
/// hands them through prepare/persist/apply as single memcpys instead of
/// re-transcoding them byte by byte.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteWork {
    /// Host-interpreted discriminator.
    pub kind: String,
    /// Opaque encoded work description.
    pub payload: mar_wire::Bytes,
}

impl RemoteWork {
    /// Constructs a work item.
    pub fn new(kind: impl Into<String>, payload: impl Into<mar_wire::Bytes>) -> Self {
        RemoteWork {
            kind: kind.into(),
            payload: payload.into(),
        }
    }
}

/// Messages exchanged between transaction coordinator and participants
/// (presumed-abort two-phase commit).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxMsg {
    /// Phase 1: ask a participant to durably prepare `work`.
    Prepare {
        /// The transaction.
        txn: TxnId,
        /// Work to prepare.
        work: RemoteWork,
    },
    /// Participant's vote.
    Vote {
        /// The transaction.
        txn: TxnId,
        /// `true` = prepared, `false` = refused.
        ok: bool,
    },
    /// Phase 2: the coordinator's decision.
    Decision {
        /// The transaction.
        txn: TxnId,
        /// `true` = commit, `false` = abort.
        commit: bool,
    },
    /// Participant confirms it applied/discarded the prepared work.
    Ack {
        /// The transaction.
        txn: TxnId,
    },
    /// Participant asks for the outcome after a timeout or recovery.
    /// Unknown transactions are answered with abort (presumed abort).
    Query {
        /// The transaction.
        txn: TxnId,
    },
}

impl TxMsg {
    /// The transaction this message belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            TxMsg::Prepare { txn, .. }
            | TxMsg::Vote { txn, .. }
            | TxMsg::Decision { txn, .. }
            | TxMsg::Ack { txn }
            | TxMsg::Query { txn } => *txn,
        }
    }
}

/// Envelope identifying the sender, since the protocol logic needs to know
/// which node a vote/ack came from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxEnvelope {
    /// The sending node.
    pub from: NodeId,
    /// The protocol message.
    pub msg: TxMsg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_roundtrip_on_wire() {
        let msgs = vec![
            TxMsg::Prepare {
                txn: TxnId::new(NodeId(1), 2),
                work: RemoteWork::new("enqueue", vec![1, 2, 3]),
            },
            TxMsg::Vote {
                txn: TxnId::new(NodeId(1), 2),
                ok: true,
            },
            TxMsg::Decision {
                txn: TxnId::new(NodeId(1), 2),
                commit: false,
            },
            TxMsg::Ack {
                txn: TxnId::new(NodeId(1), 2),
            },
            TxMsg::Query {
                txn: TxnId::new(NodeId(1), 2),
            },
        ];
        for m in msgs {
            let env = TxEnvelope {
                from: NodeId(7),
                msg: m.clone(),
            };
            let bytes = mar_wire::to_bytes(&env).unwrap();
            let back: TxEnvelope = mar_wire::from_slice(&bytes).unwrap();
            assert_eq!(back.msg, m);
            assert_eq!(back.msg.txn(), TxnId::new(NodeId(1), 2));
        }
    }
}
