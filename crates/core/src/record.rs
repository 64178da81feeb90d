//! The serialized form of a mobile agent: what sits in input queues and
//! crosses the network.

use std::fmt;

use mar_itinerary::{Cursor, Itinerary};
use serde::{Deserialize, Serialize};

use crate::data::DataSpace;
use crate::log::{LoggingMode, RollbackLog};
use crate::planner::{RestorePlan, RollbackMode};
use crate::resident::RecordWalk;
use crate::savepoint::{SavepointId, SavepointTable};

/// Unique agent identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AgentId(pub u64);

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Execution status carried in the record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgentStatus {
    /// Normal forward execution.
    Forward,
    /// Rolling back towards the target savepoint.
    RollingBack {
        /// The savepoint being rolled back to.
        target: SavepointId,
    },
    /// The itinerary completed.
    Completed,
    /// The agent gave up (non-retryable failure or exhausted retries).
    Failed(String),
}

/// The complete migrating state of an agent: data spaces, itinerary, cursor,
/// savepoint bookkeeping, and the rollback log (§2, §4.2).
///
/// "Code" is the `agent_type` name, resolved against the platform's
/// behaviour registry on every node — mirroring how Mole shipped Java class
/// names resolved by each node's class loader.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentRecord {
    /// Unique id.
    pub id: AgentId,
    /// Behaviour type name (the agent's "code").
    pub agent_type: String,
    /// Node (location index) where results are reported.
    pub home: u32,
    /// Private data space (SRO + WRO).
    pub data: DataSpace,
    /// The (immutable) itinerary tree.
    pub itinerary: Itinerary,
    /// Execution position.
    pub cursor: Cursor,
    /// Savepoint bookkeeping.
    pub table: SavepointTable,
    /// The rollback log.
    pub log: RollbackLog,
    /// Monotone counter of committed steps.
    pub step_seq: u64,
    /// Current status.
    pub status: AgentStatus,
    /// SRO capture mode for savepoints.
    pub logging_mode: LoggingMode,
    /// Which rollback mechanism this agent uses.
    pub rollback_mode: RollbackMode,
}

impl AgentRecord {
    /// Creates a fresh agent about to start its itinerary.
    pub fn new(
        id: AgentId,
        agent_type: impl Into<String>,
        home: u32,
        data: DataSpace,
        itinerary: Itinerary,
        logging_mode: LoggingMode,
        rollback_mode: RollbackMode,
    ) -> Self {
        let cursor = Cursor::new(&itinerary);
        let mut data = data;
        if logging_mode == LoggingMode::Transition {
            data.enable_shadow();
        }
        AgentRecord {
            id,
            agent_type: agent_type.into(),
            home,
            data,
            itinerary,
            cursor,
            table: SavepointTable::new(),
            log: RollbackLog::new(),
            step_seq: 0,
            status: AgentStatus::Forward,
            logging_mode,
            rollback_mode,
        }
    }

    /// Serializes the record for migration or stable storage.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn to_bytes(&self) -> Result<Vec<u8>, crate::CoreError> {
        Ok(mar_wire::to_bytes(self)?)
    }

    /// Deserializes a record.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::CoreError> {
        Ok(mar_wire::from_slice(bytes)?)
    }

    /// Decodes only the identifying prefix of a serialized record — id,
    /// behaviour type (borrowed from `bytes`), home node — without touching
    /// the itinerary, savepoint table, or rollback log. Driver-side queue
    /// scans (`residence_count` and friends) use this instead of
    /// [`AgentRecord::from_bytes`], which deep-copies every log entry.
    ///
    /// # Errors
    ///
    /// Codec errors for inputs that do not start with a record.
    pub fn peek_header(bytes: &[u8]) -> Result<RecordHeader<'_>, crate::CoreError> {
        RecordWalk::open(bytes)?.header()
    }

    /// Like [`AgentRecord::peek_header`], but also decodes the private data
    /// space (the fourth field) so audits can inspect weakly reversible
    /// objects without deserializing the rest of the record.
    ///
    /// # Errors
    ///
    /// Codec errors for inputs that do not start with a record.
    pub fn peek_data(bytes: &[u8]) -> Result<RecordDataPeek, crate::CoreError> {
        let mut walk = RecordWalk::open(bytes)?;
        let header = walk.header()?;
        Ok(RecordDataPeek {
            id: header.id,
            agent_type: header.agent_type.to_owned(),
            home: header.home,
            data: walk.data()?,
        })
    }

    /// Encoded size in bytes — what a migration transfers (agent + log).
    pub fn encoded_size(&self) -> usize {
        mar_wire::encoded_size(self).unwrap_or(0)
    }

    /// Compacts the rollback log in place (see
    /// [`RollbackLog::compact`](crate::log::RollbackLog::compact)),
    /// supplying the transition-logging shadow when the data space carries
    /// one. The platform calls this before every remote transfer when
    /// compaction is enabled; it is also safe to call at any quiescent
    /// point — the compacted record is observationally equivalent for
    /// rollback and strictly no larger on the wire.
    pub fn compact_log(&mut self) -> crate::log::CompactionReport {
        self.log.compact(self.data.shadow())
    }

    /// Applies a restore plan: SROs are restored from the savepoint image,
    /// the cursor and savepoint bookkeeping rewind, and the agent switches
    /// back to forward execution. WROs are left exactly as the compensating
    /// operations produced them (§4.1).
    pub fn apply_restore(&mut self, plan: RestorePlan) {
        plan.apply(&mut self.data, &mut self.cursor, &mut self.table);
        self.status = AgentStatus::Forward;
    }
}

/// The identifying prefix of a serialized [`AgentRecord`]: the first three
/// fields of the wire layout, decoded borrowed (`agent_type` points into the
/// input buffer) and without reading anything beyond them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader<'a> {
    /// Unique id.
    pub id: AgentId,
    /// Behaviour type name, borrowed from the serialized record.
    pub agent_type: &'a str,
    /// Home node index.
    pub home: u32,
}

/// The prefix of a serialized [`AgentRecord`] up to and including the data
/// space — everything a money/state audit needs, still skipping the
/// itinerary, cursor, savepoint table, and rollback log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordDataPeek {
    /// Unique id.
    pub id: AgentId,
    /// Behaviour type name.
    pub agent_type: String,
    /// Home node index.
    pub home: u32,
    /// Private data space (SRO + WRO).
    pub data: DataSpace,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_itinerary::samples;
    use mar_wire::Value;

    fn record() -> AgentRecord {
        let mut data = DataSpace::new();
        data.set_sro("notes", Value::list([]));
        data.set_wro("wallet", Value::from(100i64));
        AgentRecord::new(
            AgentId(1),
            "shopper",
            0,
            data,
            samples::fig6(),
            LoggingMode::State,
            RollbackMode::Optimized,
        )
    }

    #[test]
    fn roundtrips_through_bytes() {
        let r = record();
        let bytes = r.to_bytes().unwrap();
        let back = AgentRecord::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(r.encoded_size(), bytes.len());
    }

    #[test]
    fn transition_mode_enables_shadow() {
        let r = AgentRecord::new(
            AgentId(2),
            "t",
            0,
            DataSpace::new(),
            samples::fig6(),
            LoggingMode::Transition,
            RollbackMode::Basic,
        );
        assert!(r.data.shadow().is_some());
    }

    #[test]
    fn peek_header_reads_prefix_borrowed() {
        let r = record();
        let bytes = r.to_bytes().unwrap();
        let h = AgentRecord::peek_header(&bytes).unwrap();
        assert_eq!(h.id, r.id);
        assert_eq!(h.agent_type, "shopper");
        assert_eq!(h.home, 0);
        // The borrowed name points into the serialized buffer.
        let range = bytes.as_ptr_range();
        assert!(range.contains(&h.agent_type.as_ptr()));
    }

    #[test]
    fn peek_data_stops_before_the_log() {
        let r = record();
        let bytes = r.to_bytes().unwrap();
        let p = AgentRecord::peek_data(&bytes).unwrap();
        assert_eq!(p.id, r.id);
        assert_eq!(p.home, 0);
        assert_eq!(p.data, r.data);
        assert_eq!(p.data.wro("wallet").and_then(Value::as_i64), Some(100));
    }

    #[test]
    fn peek_rejects_garbage() {
        assert!(AgentRecord::peek_header(&[0xff, 0x01]).is_err());
    }
}
