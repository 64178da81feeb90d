//! # mar-core
//!
//! The paper's contribution: system mechanisms for the **partial rollback of
//! mobile agent execution** (Straßer & Rothermel, ICDCS 2000).
//!
//! An agent executed under an exactly-once protocol commits a transaction
//! per step; already-committed steps can only be undone *semantically*, by
//! compensation. This crate implements the complete mechanism:
//!
//! * [`theory`] — the augmented-state formalism of §3: histories,
//!   commutativity, soundness of compensation, and the classification of
//!   compensation types.
//! * [`DataSpace`] — the private agent data split into strongly reversible
//!   objects (restored from before-images) and weakly reversible objects
//!   (compensated by operations), §4.1.
//! * [`RollbackLog`] — the agent-attached log of savepoint, begin-of-step,
//!   operation, and end-of-step entries, with state or transition logging of
//!   SRO images, §4.2 — plus the pre-migration compaction pass
//!   ([`log::compact`], [`RollbackLog::compact`]) that shrinks redundant
//!   savepoint payloads without changing rollback behaviour or the wire
//!   format.
//! * [`comp`] — compensating operations with the three entry types of
//!   §4.4.1 (resource / agent / mixed) and their access enforcement.
//! * [`SavepointTable`] — itinerary-integrated savepoints: automatic
//!   constitution at sub-itinerary entry, marker savepoints, savepoint
//!   removal at sub-itinerary completion, and whole-log discard at top-level
//!   completion, §4.4.2.
//! * [`planner`] — the basic (Fig. 4) and optimized (Fig. 5) rollback
//!   algorithms as pure planners executed by the platform inside
//!   compensation transactions.
//! * [`CostModel`] — the migration-vs-RPC decision model of \[16\] referenced
//!   in §4.4.1.
//!
//! This crate is deliberately free of any simulator dependency: everything
//! here is protocol logic, testable in isolation (see the property tests in
//! [`planner`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comp;
mod costmodel;
mod data;
mod error;
pub mod itinspan;
pub mod log;
pub mod planner;
mod record;
mod resident;
mod savepoint;
pub mod theory;

pub use costmodel::{CostModel, LinkParams};
pub use data::{DataSpace, ObjectMap, SroDelta};
pub use error::{CompError, CoreError};
pub use log::{CompactionReport, LoggingMode, RollbackLog};
pub use planner::{
    compensation_round, plan_batch, plan_single, start_rollback, AfterRound, BatchPlan, BatchRun,
    CompUnit, Destination, FusedStep, RestorePlan, RollbackCursor, RollbackMode, RollbackSubject,
    RollbackView, RoundPlan, StartPlan,
};
pub use record::{AgentId, AgentRecord, AgentStatus, RecordDataPeek, RecordHeader};
pub use resident::{ItinerarySlot, LazyRecord, ResidentLog, ResidentRecord, SealedLog};
pub use savepoint::{LeaveOutcome, RollbackScope, SavepointId, SavepointTable, SubSavepoints};
