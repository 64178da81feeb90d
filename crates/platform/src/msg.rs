//! Platform wire messages and agent reports.

use mar_core::{AgentId, AgentRecord};
use mar_simnet::{Counter, NodeId};
use mar_txn::TxMsg;
use mar_wire::FieldCursor;
use serde::{Deserialize, Serialize};

/// Number of fields in the serialized [`AgentReport`] layout
/// (`docs/WIRE.md`, "The agent report").
const REPORT_FIELDS: u64 = 6;

/// Messages exchanged between `mole` services (and injected externally).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MoleMsg {
    /// Launch an agent: enqueue the record at this node (external
    /// injection from the agent's owner).
    Launch {
        /// Serialized [`AgentRecord`].
        record: mar_wire::Bytes,
    },
    /// Distributed-commit protocol traffic.
    Tx {
        /// Sending node (participant/coordinator identity).
        from: NodeId,
        /// The protocol message.
        msg: TxMsg,
        /// With a `Prepare` that asks the last participant to decide: the
        /// counters the transaction adds to when it commits, which the
        /// decider counts — where the transaction commits, so once however
        /// the coordinator crashes. Empty otherwise.
        tally: Vec<(Tally, u64)>,
    },
    /// A copy of a finished agent's report, sent to its home node. The home
    /// node persists it, posts a completion event to its driver mailbox,
    /// and answers with [`MoleMsg::ReportAck`]; the completing node keeps
    /// the report in a stable outbox and retransmits until acked, so
    /// completion events reach the home mailbox exactly once despite
    /// crashes and lost messages.
    Report {
        /// Serialized [`AgentReport`].
        report: mar_wire::Bytes,
    },
    /// Home-node acknowledgement that an agent's report was persisted and
    /// its completion event posted to the driver mailbox.
    ReportAck {
        /// The acknowledged agent.
        agent: AgentId,
    },
    /// Receiver-side NACK for a `Prepare` whose agent record carried an
    /// itinerary *reference* (see `docs/WIRE.md`) the receiver could not
    /// resolve from its intern table. The coordinator answers by re-sending
    /// that branch's `Prepare` with the itinerary inlined.
    ItineraryMiss {
        /// The transaction whose `Prepare` was refused.
        txn: mar_txn::TxnId,
        /// The unresolved itinerary content hash.
        hash: u64,
    },
}

impl MoleMsg {
    /// Encodes for the wire.
    ///
    /// # Panics
    ///
    /// Panics on codec failure (messages are always encodable).
    pub fn encode(&self) -> Vec<u8> {
        mar_wire::to_bytes(self).expect("mole message encodes")
    }

    /// Decodes from the wire.
    ///
    /// # Errors
    ///
    /// Codec errors for malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, mar_wire::WireError> {
        mar_wire::from_slice(bytes)
    }
}

/// A counter a transaction adds to when it commits; [`Tally::key`] is its
/// handle. A transaction's commit counts its tallies once: at its
/// coordinator when it commits there alone, at the participant that decides
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tally {
    /// `steps.committed`.
    StepsCommitted,
    /// `rollback.started`.
    RollbackStarted,
    /// `rollback.completed`.
    RollbackCompleted,
    /// `rollback.rounds`.
    RollbackRounds,
    /// `rollback.batched_rounds`.
    RollbackBatchedRounds,
    /// `rollback.rounds_saved`.
    RollbackRoundsSaved,
    /// `agent.completed`.
    AgentCompleted,
    /// `agent.failed`.
    AgentFailed,
}

impl Tally {
    /// The metric the tally adds to.
    pub fn key(self) -> Counter {
        use crate::mole::keys;
        match self {
            Tally::StepsCommitted => keys::STEPS_COMMITTED,
            Tally::RollbackStarted => keys::ROLLBACK_STARTED,
            Tally::RollbackCompleted => keys::ROLLBACK_COMPLETED,
            Tally::RollbackRounds => keys::ROLLBACK_ROUNDS,
            Tally::RollbackBatchedRounds => keys::ROLLBACK_BATCHED_ROUNDS,
            Tally::RollbackRoundsSaved => keys::ROLLBACK_ROUNDS_SAVED,
            Tally::AgentCompleted => keys::AGENT_COMPLETED,
            Tally::AgentFailed => keys::AGENT_FAILED,
        }
    }
}

/// Final outcome of an agent run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReportOutcome {
    /// The whole itinerary committed.
    Completed,
    /// The agent gave up (reason attached).
    Failed(String),
}

/// The report written when an agent finishes, stored at the completing node
/// and copied to the agent's home node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentReport {
    /// The agent.
    pub id: AgentId,
    /// How it ended.
    pub outcome: ReportOutcome,
    /// Virtual time of completion (microseconds).
    pub finished_at_us: u64,
    /// Committed steps over the whole run.
    pub steps_committed: u64,
    /// The node the agent finished on — where its `done/<id>` record (and,
    /// for remote homes, the report outbox entry) live, so the driver can
    /// garbage-collect them after draining the report.
    pub finished_node: u32,
    /// The final agent record (data spaces, cursor, log).
    pub record: AgentRecord,
}

impl AgentReport {
    /// Encodes for storage/transfer.
    ///
    /// # Panics
    ///
    /// Panics on codec failure (reports are always encodable).
    pub fn encode(&self) -> Vec<u8> {
        mar_wire::to_bytes(self).expect("report encodes")
    }

    /// Decodes from storage.
    ///
    /// # Errors
    ///
    /// Codec errors for malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, mar_wire::WireError> {
        mar_wire::from_slice(bytes)
    }

    /// Decodes only the agent id from a serialized report — what the
    /// commit/delivery bookkeeping needs — without touching the outcome,
    /// the record, or its rollback log.
    ///
    /// # Errors
    ///
    /// Codec errors for inputs that do not start with a report.
    pub fn peek_id(bytes: &[u8]) -> Result<AgentId, mar_wire::WireError> {
        FieldCursor::open(bytes, REPORT_FIELDS)?.next()
    }

    /// Decodes only the final record's data space from a serialized report
    /// — what a money audit needs — skipping the record's itinerary,
    /// cursor, savepoint table, and rollback log entirely
    /// ([`mar_core::AgentRecord::peek_data`] applied inside the report).
    ///
    /// # Errors
    ///
    /// Codec errors for inputs that do not start with a report.
    pub fn peek_record_data(bytes: &[u8]) -> Result<mar_core::DataSpace, mar_core::CoreError> {
        let mut fields = FieldCursor::open(bytes, REPORT_FIELDS)?;
        // The record is the last field: everything before it is passed over.
        while fields.pending() > 1 {
            fields.skip()?;
        }
        Ok(AgentRecord::peek_data(&bytes[fields.position()..])?.data)
    }
}

/// Payload of a remote RCE branch: which agent is being compensated and the
/// resource compensation entries to execute (§4.4.1: "send (TransactionID,
/// RCEList) to resourceNode").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RceList {
    /// The agent being rolled back.
    pub agent: AgentId,
    /// The step being compensated.
    pub step_seq: u64,
    /// The resource compensation entries, in execution order.
    pub ops: Vec<mar_core::log::OpEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mole_msgs_roundtrip() {
        let msgs = vec![
            MoleMsg::Launch {
                record: vec![1, 2, 3].into(),
            },
            MoleMsg::Tx {
                from: NodeId(3),
                msg: TxMsg::Ack {
                    txn: mar_txn::TxnId::new(NodeId(1), 7),
                },
                tally: Vec::new(),
            },
            MoleMsg::Tx {
                from: NodeId(3),
                msg: TxMsg::Prepare {
                    txn: mar_txn::TxnId::new(NodeId(3), 8),
                    work: mar_txn::RemoteWork::new("enqueue-fwd", vec![1]),
                    decide: true,
                },
                tally: vec![(Tally::StepsCommitted, 1), (Tally::RollbackRounds, 3)],
            },
            MoleMsg::Report {
                report: vec![9].into(),
            },
            MoleMsg::ItineraryMiss {
                txn: mar_txn::TxnId::new(NodeId(2), 4),
                hash: 0xdead_beef_cafe_f00d,
            },
        ];
        for m in msgs {
            assert_eq!(MoleMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn report_peek_reads_only_the_data_space() {
        let mut data = mar_core::DataSpace::new();
        data.set_wro("wallet", mar_wire::Value::from(9i64));
        let record = mar_core::AgentRecord::new(
            AgentId(5),
            "t",
            1,
            data,
            mar_itinerary::samples::fig6(),
            mar_core::LoggingMode::State,
            mar_core::planner::RollbackMode::Optimized,
        );
        let report = AgentReport {
            id: AgentId(5),
            outcome: ReportOutcome::Completed,
            finished_at_us: 77,
            steps_committed: 3,
            finished_node: 2,
            record: record.clone(),
        };
        let bytes = report.encode();
        let peeked = AgentReport::peek_record_data(&bytes).unwrap();
        assert_eq!(peeked, record.data);
        assert!(AgentReport::peek_record_data(&[0xff]).is_err());
        assert_eq!(AgentReport::peek_id(&bytes).unwrap(), AgentId(5));
        assert!(AgentReport::peek_id(&[0xff]).is_err());
    }

    #[test]
    fn rce_list_roundtrips() {
        let list = RceList {
            agent: AgentId(4),
            step_seq: 2,
            ops: vec![mar_core::log::OpEntry {
                kind: mar_core::comp::EntryKind::Resource,
                op: mar_core::comp::CompOp::new("bank.undo_transfer", mar_wire::Value::Null),
                step_seq: 2,
            }],
        };
        let bytes = mar_wire::to_bytes(&list).unwrap();
        let back: RceList = mar_wire::from_slice(&bytes).unwrap();
        assert_eq!(back, list);
    }
}
