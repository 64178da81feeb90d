//! Log entry types: SP, BOS, OE, EOS (Fig. 2).

use mar_itinerary::Cursor;
use serde::{Deserialize, Serialize};

use crate::comp::{CompOp, EntryKind};
use crate::data::{ObjectMap, SroDelta};
use crate::savepoint::{SavepointId, SavepointTable};

/// The strongly-reversible-object payload of a savepoint entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SroPayload {
    /// A complete SRO image (state logging).
    Full(ObjectMap),
    /// Backward delta to the previous savepoint (transition logging).
    Delta(SroDelta),
    /// A *marker* (§4.4.2): the SRO state equals that of the referenced
    /// savepoint because no step committed in between. Stores no data.
    Ref(SavepointId),
}

impl SroPayload {
    /// True for marker payloads.
    pub fn is_marker(&self) -> bool {
        matches!(self, SroPayload::Ref(_))
    }
}

/// Savepoint entry: a point the agent can be rolled back to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpEntry {
    /// Unique savepoint identifier.
    pub id: SavepointId,
    /// The sub-itinerary this savepoint was created for (`None` for
    /// explicit, program-logic savepoints).
    pub sub_id: Option<String>,
    /// `true` if requested by the agent program, `false` if constituted
    /// automatically at a sub-itinerary boundary.
    pub explicit: bool,
    /// Cursor snapshot: where forward execution resumes after rollback.
    pub cursor: Cursor,
    /// Savepoint bookkeeping snapshot (active sub-itineraries and their
    /// savepoints) as of this point.
    pub table: SavepointTable,
    /// The SRO restore payload.
    pub sro: SroPayload,
}

/// Begin-of-step entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BosEntry {
    /// Node that executed the step.
    pub node: u32,
    /// Monotone step number of the agent.
    pub step_seq: u64,
    /// The step method (diagnostics).
    pub method: String,
}

/// Operation entry: one compensating operation for a committed step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpEntry {
    /// Entry type (RCE / ACE / MCE, §4.4.1).
    pub kind: EntryKind,
    /// The compensating operation and its parameters.
    pub op: CompOp,
    /// The step this entry belongs to.
    pub step_seq: u64,
}

/// End-of-step entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EosEntry {
    /// Node that executed the step (where resource compensation must run).
    pub node: u32,
    /// Monotone step number.
    pub step_seq: u64,
    /// The step method (diagnostics).
    pub method: String,
    /// Flag: does this step's compensation contain a mixed entry? (The
    /// §4.4.1 optimization examines only this flag instead of scanning the
    /// step's operation entries.)
    pub has_mixed: bool,
    /// Alternative nodes where the resource compensation could run
    /// (the §4.3 fault-tolerance hook).
    pub alt_nodes: Vec<u32>,
}

/// One entry of the agent rollback log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogEntry {
    /// Savepoint entry (SP).
    Savepoint(SpEntry),
    /// Begin-of-step entry (BOS).
    BeginOfStep(BosEntry),
    /// Operation entry (OE).
    Operation(OpEntry),
    /// End-of-step entry (EOS).
    EndOfStep(EosEntry),
}

impl LogEntry {
    /// Where [`LogEntry::Savepoint`] stands among the variants (the wire
    /// encodes a variant by its index in declaration order): what a reader
    /// that passes over encoded entries recognizes a savepoint entry by.
    pub(crate) const SAVEPOINT_VARIANT: u32 = 0;

    /// Short tag for diagnostics and stats.
    pub fn tag(&self) -> &'static str {
        match self {
            LogEntry::Savepoint(_) => "SP",
            LogEntry::BeginOfStep(_) => "BOS",
            LogEntry::Operation(_) => "OE",
            LogEntry::EndOfStep(_) => "EOS",
        }
    }

    /// The savepoint entry, if this is one.
    pub fn as_savepoint(&self) -> Option<&SpEntry> {
        match self {
            LogEntry::Savepoint(sp) => Some(sp),
            _ => None,
        }
    }

    /// Encoded size in bytes (what migration actually transfers).
    ///
    /// This encodes the entry (without cloning it) every time it is called.
    /// Entries stored in a [`RollbackLog`](crate::log::RollbackLog) have
    /// their size cached by the log itself — query the log (`size_bytes`,
    /// `stats`) instead of re-measuring entries taken from it.
    pub fn encoded_size(&self) -> usize {
        mar_wire::encoded_size(self).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_itinerary::{samples, Cursor};
    use mar_wire::Value;

    fn sp(id: u64) -> SpEntry {
        let main = samples::fig6();
        SpEntry {
            id: SavepointId(id),
            sub_id: Some("SI3".into()),
            explicit: false,
            cursor: Cursor::new(&main),
            table: SavepointTable::new(),
            sro: SroPayload::Full(ObjectMap::new()),
        }
    }

    #[test]
    fn tags() {
        assert_eq!(LogEntry::Savepoint(sp(1)).tag(), "SP");
        assert_eq!(
            LogEntry::BeginOfStep(BosEntry {
                node: 0,
                step_seq: 0,
                method: "m".into()
            })
            .tag(),
            "BOS"
        );
    }

    #[test]
    fn entries_roundtrip() {
        let entries = vec![
            LogEntry::Savepoint(sp(1)),
            LogEntry::BeginOfStep(BosEntry {
                node: 2,
                step_seq: 3,
                method: "buy".into(),
            }),
            LogEntry::Operation(OpEntry {
                kind: EntryKind::Mixed,
                op: CompOp::new("exchange.back", Value::from(5i64)),
                step_seq: 3,
            }),
            LogEntry::EndOfStep(EosEntry {
                node: 2,
                step_seq: 3,
                method: "buy".into(),
                has_mixed: true,
                alt_nodes: vec![4, 5],
            }),
        ];
        for e in entries {
            let bytes = mar_wire::to_bytes(&e).unwrap();
            let back: LogEntry = mar_wire::from_slice(&bytes).unwrap();
            assert_eq!(back, e);
            assert_eq!(e.encoded_size(), bytes.len());
        }
    }

    /// The sealed log counts savepoint bytes by variant index, undecoded:
    /// pinned here against the derive, one entry of each kind.
    #[test]
    fn savepoint_is_the_variant_the_wire_numbers_zero() {
        let entries = [
            LogEntry::Savepoint(sp(1)),
            LogEntry::BeginOfStep(BosEntry {
                node: 2,
                step_seq: 3,
                method: "buy".into(),
            }),
            LogEntry::Operation(OpEntry {
                kind: EntryKind::Resource,
                op: CompOp::new("undo", Value::Null),
                step_seq: 3,
            }),
            LogEntry::EndOfStep(EosEntry {
                node: 2,
                step_seq: 3,
                method: "buy".into(),
                has_mixed: false,
                alt_nodes: vec![],
            }),
        ];
        for (index, e) in entries.iter().enumerate() {
            let bytes = mar_wire::to_bytes(e).unwrap();
            let peeked = mar_wire::FieldCursor::values(&bytes, 1).peek_variant();
            assert_eq!(peeked, Some(index as u32), "{}", e.tag());
            assert_eq!(
                peeked == Some(LogEntry::SAVEPOINT_VARIANT),
                e.as_savepoint().is_some()
            );
        }
    }

    #[test]
    fn marker_payload() {
        assert!(SroPayload::Ref(SavepointId(3)).is_marker());
        assert!(!SroPayload::Full(ObjectMap::new()).is_marker());
    }
}
