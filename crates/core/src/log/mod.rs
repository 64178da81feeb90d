//! The agent rollback log (§4.2, Fig. 2).
//!
//! The log is attached to the agent and migrates with it. It holds, for
//! every committed step that may still be rolled back: a begin-of-step
//! entry, the operation entries describing the compensating operations, and
//! an end-of-step entry; savepoint entries mark the points the agent can be
//! rolled back to. It is persisted together with the agent at every
//! transaction commit.

//! Because the log migrates with the agent, its encoded size is a
//! first-class cost: the [`compact`] module shrinks redundant savepoint
//! payloads before a transfer without changing anything rollback or
//! savepoint removal can observe (see `docs/WIRE.md` for the wire-level
//! compatibility invariant).

pub mod compact;
mod entry;
#[allow(clippy::module_inception)]
mod log;
#[doc(hidden)]
pub mod reference;
mod segment;
mod stats;

pub use compact::CompactionReport;
pub use entry::{BosEntry, EosEntry, LogEntry, OpEntry, SpEntry, SroPayload};
pub use log::RollbackLog;
pub use stats::LogStats;

use serde::{Deserialize, Serialize};

/// How strongly reversible objects are captured in savepoint entries (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LoggingMode {
    /// State logging: each savepoint stores a complete SRO image.
    #[default]
    State,
    /// Transition logging: each savepoint stores the backward delta to the
    /// previous savepoint; the agent carries a shadow copy of the SRO state
    /// at the last savepoint (see [`crate::DataSpace`]).
    Transition,
}
