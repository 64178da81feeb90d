//! Plan data types produced by the rollback planners.

use mar_itinerary::Cursor;
use serde::{Deserialize, Serialize};

use crate::data::{DataSpace, ObjectMap};
use crate::log::OpEntry;
use crate::savepoint::{SavepointId, SavepointTable};

/// Which rollback mechanism an agent uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RollbackMode {
    /// Fig. 4: the agent moves back along its path, one node per
    /// compensation transaction.
    Basic,
    /// Fig. 5: the agent moves only for steps with mixed compensation
    /// entries; resource compensation entries are shipped to the resource
    /// node and run concurrently with local agent compensation entries.
    #[default]
    Optimized,
}

/// Everything needed to reinstate the agent at the target savepoint:
/// restored SRO image, rewound cursor, and savepoint bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RestorePlan {
    /// The reached savepoint.
    pub savepoint: SavepointId,
    /// The SRO state to restore.
    pub sro: ObjectMap,
    /// Where forward execution resumes.
    pub cursor: Cursor,
    /// Savepoint bookkeeping as of the savepoint.
    pub table: SavepointTable,
}

impl RestorePlan {
    /// Rewinds what the savepoint captured of a record, decoded or resident.
    pub(crate) fn apply(
        self,
        data: &mut DataSpace,
        cursor: &mut Cursor,
        table: &mut SavepointTable,
    ) {
        data.restore_sro(self.sro);
        *cursor = self.cursor;
        table.restore_from(&self.table);
        // The restored cursor may sit inside subs whose frames the rollback popped.
        table.reconcile_with_path(cursor.path().get(1..).unwrap_or_default(), self.savepoint);
    }
}

/// Where the next compensation transaction executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// The agent must be enqueued at this node (basic mode; optimized mode
    /// only when the next step's entries include a mixed entry).
    Node(u32),
    /// The agent stays where it is (optimized mode, no mixed entry).
    Local,
}

/// Outcome of Fig. 4a / Fig. 5a — how the rollback begins.
#[derive(Debug, Clone, PartialEq)]
pub enum StartPlan {
    /// The target savepoint was constituted directly before the aborting
    /// step: no compensation needed, restore immediately.
    AlreadyAtTarget(Box<RestorePlan>),
    /// Compensation rounds are needed, starting at the given destination.
    Go(Destination),
}

/// What happens after a compensation round's transaction commits.
#[derive(Debug, Clone, PartialEq)]
pub enum AfterRound {
    /// The target savepoint is reached: restore and resume forward
    /// execution.
    Reached(Box<RestorePlan>),
    /// More steps must be compensated.
    Continue(Destination),
}

/// One compensation transaction (Fig. 4b / Fig. 5b): which step is being
/// compensated, which operations run where, and how to continue.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    /// The compensated step's sequence number.
    pub step_seq: u64,
    /// The node that executed the step (where RCEs must run).
    pub step_node: u32,
    /// The step method (diagnostics).
    pub method: String,
    /// Whether the step's entries include a mixed compensation entry.
    pub mixed: bool,
    /// Operations to execute where the agent resides, in order. In basic
    /// mode (and for mixed steps) this is *all* of the step's entries; in
    /// split mode it is the agent compensation entries only.
    pub local_ops: Vec<OpEntry>,
    /// Resource compensation entries to ship to `step_node` (optimized,
    /// non-mixed steps only), executed there inside the same compensation
    /// transaction, concurrently with `local_ops` (§4.4.1).
    pub remote_rces: Vec<OpEntry>,
    /// How the rollback continues.
    pub after: AfterRound,
}

impl RoundPlan {
    /// Total number of compensating operations in this round.
    pub fn op_count(&self) -> usize {
        self.local_ops.len() + self.remote_rces.len()
    }
}
