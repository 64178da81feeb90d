//! The rollback planners: the algorithms of Fig. 4 (basic) and Fig. 5
//! (optimized) as pure functions over what they read of the agent record —
//! the log, the data space's SRO shadow, the step counter and the two modes
//! ([`RollbackSubject`]). They run in place on an [`AgentRecord`] or on a
//! resident record whose log is materialized ([`RollbackView`]).
//!
//! A planner decides *what* each compensation transaction does — which
//! entries are popped, which compensating operations run where, whether the
//! agent has to move — while the platform executes the plan inside an
//! actual compensation transaction. Because planning is pure, a transaction
//! abort (crash, lock conflict) simply re-plans from the unchanged stable
//! state, which is precisely the paper's restart argument (§4.3).
//!
//! [`compensation_round`] is the single-round planner (one transaction per
//! compensated step); the [`batch`] layer fuses maximal same-destination
//! runs of such rounds into one [`BatchPlan`] — one transaction, one 2PC —
//! which is what the platform executes by default.

pub mod batch;
mod plan;

pub use batch::{
    plan_batch, plan_single, BatchPlan, BatchRun, CompUnit, FusedStep, RollbackCursor,
};
pub use plan::{AfterRound, Destination, RestorePlan, RollbackMode, RoundPlan, StartPlan};

use crate::data::{DataSpace, ObjectMap};
use crate::error::CoreError;
use crate::log::{LogEntry, LoggingMode, RollbackLog, SpEntry, SroPayload};
use crate::record::AgentRecord;
use crate::savepoint::SavepointId;

/// What the planners read and pop of an agent record: the log, the data
/// space (for its SRO shadow), the step counter and the two modes.
/// Implemented by [`AgentRecord`] and by [`RollbackView`], so there is one
/// planner for both record types, and neither is converted to the other.
pub trait RollbackSubject {
    /// The rollback log.
    fn log(&self) -> &RollbackLog;
    /// The rollback log, to pop entries from.
    fn log_mut(&mut self) -> &mut RollbackLog;
    /// The private data space.
    fn data(&self) -> &DataSpace;
    /// The private data space, to advance its SRO shadow.
    fn data_mut(&mut self) -> &mut DataSpace;
    /// Monotone counter of committed steps.
    fn step_seq(&self) -> u64;
    /// SRO capture mode for savepoints.
    fn logging_mode(&self) -> LoggingMode;
    /// Which rollback mechanism the agent uses.
    fn rollback_mode(&self) -> RollbackMode;
}

/// A resident record as the planners see it: its materialized log and its
/// data space, borrowed in place
/// ([`ResidentRecord::rollback_view`](crate::ResidentRecord::rollback_view)).
#[derive(Debug)]
pub struct RollbackView<'a> {
    pub(crate) log: &'a mut RollbackLog,
    pub(crate) data: &'a mut DataSpace,
    pub(crate) step_seq: u64,
    pub(crate) logging_mode: LoggingMode,
    pub(crate) rollback_mode: RollbackMode,
}

/// The same field accesses serve an owned record and a borrowing view: a
/// `&mut` field derefs to what the trait hands out.
macro_rules! rollback_subject {
    ($($subject:ty),*) => {$(
        impl RollbackSubject for $subject {
            fn log(&self) -> &RollbackLog { &self.log }
            fn log_mut(&mut self) -> &mut RollbackLog { &mut self.log }
            fn data(&self) -> &DataSpace { &self.data }
            fn data_mut(&mut self) -> &mut DataSpace { &mut self.data }
            fn step_seq(&self) -> u64 { self.step_seq }
            fn logging_mode(&self) -> LoggingMode { self.logging_mode }
            fn rollback_mode(&self) -> RollbackMode { self.rollback_mode }
        }
    )*};
}

rollback_subject!(AgentRecord, RollbackView<'_>);

/// Fig. 4a / Fig. 5a: after the aborting step transaction is rolled back,
/// decide how the rollback begins. Read-only: the log is not modified.
///
/// # Errors
///
/// [`CoreError::UnknownSavepoint`] if `target` is not in the log.
pub fn start_rollback<R: RollbackSubject>(
    record: &R,
    target: SavepointId,
) -> Result<StartPlan, CoreError> {
    if !record.log().contains_savepoint(target) {
        return Err(CoreError::UnknownSavepoint(target));
    }
    // "The first case is that the desired savepoint was set directly before
    // the aborting step transaction." (Fig. 4a)
    if let Some(sp) = record.log().top_savepoint() {
        if sp.id == target {
            return Ok(StartPlan::AlreadyAtTarget(Box::new(resolve_restore(
                record, sp,
            )?)));
        }
    }
    Ok(StartPlan::Go(first_destination(record)))
}

/// Where the first compensation transaction runs (the "next node" of
/// Fig. 4a / the optimized decision of Fig. 5a).
fn first_destination<R: RollbackSubject>(record: &R) -> Destination {
    match record.log().last_eos() {
        Some(eos) => match record.rollback_mode() {
            RollbackMode::Basic => Destination::Node(eos.node),
            RollbackMode::Optimized => {
                if eos.has_mixed {
                    Destination::Node(eos.node)
                } else {
                    Destination::Local
                }
            }
        },
        // Only savepoint entries above the target: no resource compensation
        // anywhere — the rollback completes wherever the agent is.
        None => Destination::Local,
    }
}

/// Fig. 4b / Fig. 5b: plans one compensation transaction. Pops the
/// compensated step's entries (and any intervening savepoint entries) from
/// the log and — under transition logging — advances the SRO shadow for
/// every savepoint entry read (§4.3 discussion).
///
/// The caller must run this on a *copy* of the record inside the
/// compensation transaction; the mutation becomes durable only at commit.
///
/// # Errors
///
/// [`CoreError::UnknownSavepoint`] if `target` is missing,
/// [`CoreError::CorruptLog`] if the log violates the entry grammar.
pub fn compensation_round<R: RollbackSubject>(
    record: &mut R,
    target: SavepointId,
) -> Result<RoundPlan, CoreError> {
    if !record.log().contains_savepoint(target) {
        return Err(CoreError::UnknownSavepoint(target));
    }

    // Phase A: pop savepoints above the target ("if last log entry is
    // savepoint: LOG.pop()", generalized to adjacent savepoints).
    pop_savepoints_above_target(record, target);

    // Reached without compensating anything? (Only markers/savepoints stood
    // between the abort point and the target.)
    if let Some(sp) = record.log().top_savepoint() {
        if sp.id == target {
            let restore = resolve_restore(record, sp)?;
            return Ok(RoundPlan {
                step_seq: record.step_seq(),
                step_node: 0,
                method: String::new(),
                mixed: false,
                local_ops: Vec::new(),
                remote_rces: Vec::new(),
                after: AfterRound::Reached(Box::new(restore)),
            });
        }
    }

    // Phase B: the end-of-step entry of the step to compensate.
    let eos = record.log_mut().pop_eos()?;

    // Phase C: operation entries until the begin-of-step entry. Popping
    // yields them newest-first, which *is* the compensation order ("in the
    // reverse order they appear in the log", §4.2).
    let mut ops = Vec::new();
    loop {
        match record.log_mut().pop() {
            Some(LogEntry::Operation(oe)) => {
                if oe.step_seq != eos.step_seq {
                    return Err(CoreError::CorruptLog(format!(
                        "operation entry of step {} inside step {}",
                        oe.step_seq, eos.step_seq
                    )));
                }
                ops.push(oe);
            }
            Some(LogEntry::BeginOfStep(bos)) => {
                if bos.step_seq != eos.step_seq {
                    return Err(CoreError::CorruptLog(format!(
                        "BOS {} does not match EOS {}",
                        bos.step_seq, eos.step_seq
                    )));
                }
                break;
            }
            Some(other) => {
                return Err(CoreError::CorruptLog(format!(
                    "unexpected {} inside step {}",
                    other.tag(),
                    eos.step_seq
                )));
            }
            None => {
                return Err(CoreError::CorruptLog("log ended inside a step".to_owned()));
            }
        }
    }

    // Phase D: split per mode (Fig. 5b). In the mixed case — and always in
    // basic mode — everything executes where the agent is.
    let split = record.rollback_mode() == RollbackMode::Optimized && !eos.has_mixed;
    let (local_ops, remote_rces) = if split {
        let (rces, aces): (Vec<_>, Vec<_>) = ops
            .into_iter()
            .partition(|oe| oe.kind == crate::comp::EntryKind::Resource);
        (aces, rces)
    } else {
        (ops, Vec::new())
    };

    // Phase E: pop further savepoints and decide how to continue.
    pop_savepoints_above_target(record, target);
    let after = match record.log().last() {
        Some(LogEntry::Savepoint(sp)) if sp.id == target => {
            let restore = resolve_restore(record, sp)?;
            AfterRound::Reached(Box::new(restore))
        }
        Some(LogEntry::EndOfStep(next_eos)) => {
            let dest = match record.rollback_mode() {
                RollbackMode::Basic => Destination::Node(next_eos.node),
                RollbackMode::Optimized => {
                    if next_eos.has_mixed {
                        Destination::Node(next_eos.node)
                    } else {
                        Destination::Local
                    }
                }
            };
            AfterRound::Continue(dest)
        }
        Some(other) => {
            return Err(CoreError::CorruptLog(format!(
                "expected SP or EOS after compensating step {}, found {}",
                eos.step_seq,
                other.tag()
            )));
        }
        None => return Err(CoreError::UnknownSavepoint(target)),
    };

    Ok(RoundPlan {
        step_seq: eos.step_seq,
        step_node: eos.node,
        method: eos.method,
        mixed: eos.has_mixed,
        local_ops,
        remote_rces,
        after,
    })
}

/// Pops non-target savepoint entries off the top of the log, applying their
/// backward deltas to the SRO shadow (transition logging). Walks the log's
/// savepoint segments directly: each popped savepoint is O(1), with no
/// entry scans in between.
fn pop_savepoints_above_target<R: RollbackSubject>(record: &mut R, target: SavepointId) {
    while record
        .log()
        .top_savepoint()
        .is_some_and(|sp| sp.id != target)
    {
        let sp = record
            .log_mut()
            .pop_top_savepoint()
            .expect("top_savepoint checked in loop condition");
        if let SroPayload::Delta(delta) = &sp.sro {
            record.data_mut().apply_delta_to_shadow(delta);
        }
    }
}

/// Builds the restore plan for the reached target savepoint.
fn resolve_restore<R: RollbackSubject>(record: &R, sp: &SpEntry) -> Result<RestorePlan, CoreError> {
    let sro: ObjectMap = match record.logging_mode() {
        LoggingMode::Transition => {
            // All savepoints above the target have been popped and their
            // deltas applied: the shadow *is* the SRO state at the target.
            record.data().shadow().cloned().ok_or_else(|| {
                CoreError::CorruptLog("transition logging without shadow copy".to_owned())
            })?
        }
        LoggingMode::State => match &sp.sro {
            SroPayload::Full(image) => image.clone(),
            SroPayload::Ref(ref_id) => {
                // Marker: an earlier savepoint carries the image; it is
                // still in the log because references always point below
                // the target. Marker *chains* (log compaction demotes
                // duplicate images to markers, and a marker written after
                // such a demotion references a marker) are followed to
                // their data-bearing root. A visited set detects (corrupt)
                // reference cycles exactly: unlike a hop-count bound tied
                // to the *post-rollback* segment count, it can never
                // misreport a legitimate long chain near the log head.
                let mut cur = *ref_id;
                let mut visited = std::collections::BTreeSet::from([sp.id]);
                loop {
                    if !visited.insert(cur) {
                        return Err(CoreError::CorruptLog(format!(
                            "marker cycle while resolving {}",
                            sp.id
                        )));
                    }
                    let referenced = record
                        .log()
                        .find_savepoint(cur)
                        .ok_or(CoreError::UnknownSavepoint(cur))?;
                    match &referenced.sro {
                        SroPayload::Full(image) => break image.clone(),
                        SroPayload::Ref(next) => {
                            cur = *next;
                        }
                        other => {
                            return Err(CoreError::CorruptLog(format!(
                                "marker {} resolves to non-image savepoint ({:?})",
                                sp.id, other
                            )));
                        }
                    }
                }
            }
            SroPayload::Delta(_) => {
                return Err(CoreError::CorruptLog(
                    "delta savepoint under state logging".to_owned(),
                ));
            }
        },
    };
    Ok(RestorePlan {
        savepoint: sp.id,
        sro,
        cursor: sp.cursor.clone(),
        table: sp.table.clone(),
    })
}

#[cfg(test)]
mod tests;
