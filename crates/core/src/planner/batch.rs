//! The batching layer over the Fig. 4b / Fig. 5b round planner.
//!
//! [`compensation_round`] plans one compensation transaction per compensated
//! step, so rolling back k steps costs k transactions (k 2PCs) and — in
//! basic mode — up to k agent hops, even when every step ran on the same
//! node. This module fuses maximal runs of consecutive steps whose
//! compensation executes at the same destination into a single
//! [`BatchPlan`]: one compensation transaction, one 2PC, one RCE list, with
//! the compensating operations still applied newest-first across the fused
//! steps (§4.2's order is preserved because fusion never reorders rounds,
//! it only merges their transaction boundaries).
//!
//! # Fusion rule
//!
//! Two adjacent compensation units (steps, newest-first, ignoring
//! intervening savepoint entries) fuse when their compensation work lands
//! on the same destination:
//!
//! * **Basic mode** (Fig. 4): the agent executes everything at the step's
//!   node, so units fuse iff their `eos.node` is equal — the agent then
//!   makes *one* hop for the whole run instead of one per step.
//! * **Optimized mode** (Fig. 5): mixed steps pin the agent to their node
//!   and therefore never fuse; non-mixed units fuse iff their `eos.node` is
//!   equal, so the run's resource compensation entries travel as one RCE
//!   list to one resource node (one 2PC participant) while the agent
//!   compensation entries run where the agent is.
//!
//! A multi-round rollback therefore costs O(distinct destination runs)
//! transactions instead of O(k).
//!
//! # Layering
//!
//! [`RollbackCursor`] is the pure lookahead: it walks the segment-indexed
//! log newest-first (the PR-1 segment walk makes this a suffix scan that
//! stops at the target savepoint) and partitions the remaining work into
//! maximal fusable runs *without mutating anything*. [`plan_batch`] then
//! drives [`compensation_round`] — the executable specification of a single
//! round — once per fused step and merges the results, so every batched
//! plan is, step for step, exactly what the unbatched planner would have
//! produced (property-checked in `tests/planner_batch_props.rs`).

use crate::error::CoreError;
use crate::log::{LogEntry, OpEntry, RollbackLog};
use crate::planner::{compensation_round, AfterRound, RollbackMode, RollbackSubject, RoundPlan};
use crate::savepoint::SavepointId;

/// One step's worth of pending compensation work, as seen by the
/// [`RollbackCursor`] lookahead (a read-only projection of an EOS entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompUnit {
    /// The step's sequence number.
    pub step_seq: u64,
    /// The node the step executed on (where its RCEs must run).
    pub node: u32,
    /// Whether the step logged a mixed compensation entry.
    pub mixed: bool,
}

/// A maximal run of consecutive [`CompUnit`]s that fuse into one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRun {
    /// The shared `eos.node` of the run.
    pub node: u32,
    /// Whether any fused step logged a mixed compensation entry. In
    /// optimized mode a mixed run is always a single step (mixed units
    /// never fuse); basic-mode runs fuse regardless and may contain
    /// several.
    pub mixed: bool,
    /// Number of fused steps (≥ 1).
    pub len: usize,
    /// Sequence number of the newest step in the run.
    pub newest_seq: u64,
    /// Sequence number of the oldest step in the run.
    pub oldest_seq: u64,
}

/// Whether `next` extends a run currently characterized by `(node, mixed)`.
fn fuses(mode: RollbackMode, node: u32, mixed: bool, next: &CompUnit) -> bool {
    match mode {
        // The agent is at the run's node anyway; any same-node step joins.
        RollbackMode::Basic => node == next.node,
        // Mixed steps pin the agent and stay solo; non-mixed steps join
        // iff their RCE list targets the same resource node.
        RollbackMode::Optimized => !mixed && !next.mixed && node == next.node,
    }
}

/// Read-only lookahead over the compensation work between the abort point
/// and a target savepoint, newest-first. Yields [`CompUnit`]s via
/// [`Iterator`], or whole fused [`BatchRun`]s via [`Self::next_run`].
///
/// The walk is a suffix scan of the segment-indexed log: it touches only
/// entries above the target savepoint and stops there.
pub struct RollbackCursor<'a> {
    units: std::iter::Peekable<Box<dyn Iterator<Item = CompUnit> + 'a>>,
    mode: RollbackMode,
}

impl<'a> RollbackCursor<'a> {
    /// Starts a walk from the newest log entry down to (exclusive) the
    /// savepoint entry of `target`. The caller is responsible for `target`
    /// being in the log; a missing target simply yields every unit.
    pub fn new(log: &'a RollbackLog, mode: RollbackMode, target: SavepointId) -> Self {
        let units: Box<dyn Iterator<Item = CompUnit> + 'a> = Box::new(
            log.iter_rev()
                .take_while(move |e| !matches!(e, LogEntry::Savepoint(sp) if sp.id == target))
                .filter_map(|e| match e {
                    LogEntry::EndOfStep(eos) => Some(CompUnit {
                        step_seq: eos.step_seq,
                        node: eos.node,
                        mixed: eos.has_mixed,
                    }),
                    _ => None,
                }),
        );
        RollbackCursor {
            units: units.peekable(),
            mode,
        }
    }

    /// Consumes and returns the maximal fusable run at the current
    /// position, or `None` when only savepoint entries remain above the
    /// target.
    pub fn next_run(&mut self) -> Option<BatchRun> {
        let first = self.units.next()?;
        let mut run = BatchRun {
            node: first.node,
            mixed: first.mixed,
            len: 1,
            newest_seq: first.step_seq,
            oldest_seq: first.step_seq,
        };
        while let Some(next) = self.units.peek() {
            if !fuses(self.mode, run.node, run.mixed, next) {
                break;
            }
            run.len += 1;
            run.mixed |= next.mixed;
            run.oldest_seq = next.step_seq;
            self.units.next();
        }
        Some(run)
    }

    /// Drains the cursor into the full run partition (diagnostics and the
    /// property tests' independent oracle).
    pub fn runs(mut self) -> Vec<BatchRun> {
        let mut out = Vec::new();
        while let Some(run) = self.next_run() {
            out.push(run);
        }
        out
    }
}

impl Iterator for RollbackCursor<'_> {
    type Item = CompUnit;

    fn next(&mut self) -> Option<CompUnit> {
        self.units.next()
    }
}

/// One fused step inside a [`BatchPlan`] — exactly the fields of the
/// [`RoundPlan`] the single-round planner emitted for it, minus the
/// continuation (which belongs to the batch).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedStep {
    /// The compensated step's sequence number.
    pub step_seq: u64,
    /// The node that executed the step.
    pub step_node: u32,
    /// The step method (diagnostics).
    pub method: String,
    /// Whether the step logged a mixed compensation entry.
    pub mixed: bool,
    /// Operations executing where the agent resides, newest-first.
    pub local_ops: Vec<OpEntry>,
    /// Resource compensation entries for `step_node`, newest-first.
    pub remote_rces: Vec<OpEntry>,
}

impl FusedStep {
    /// Field-wise equality with the [`RoundPlan`] the single-round planner
    /// would emit for the same step (the equivalence the property tests
    /// check).
    pub fn matches_round(&self, round: &RoundPlan) -> bool {
        self.step_seq == round.step_seq
            && self.step_node == round.step_node
            && self.method == round.method
            && self.mixed == round.mixed
            && self.local_ops == round.local_ops
            && self.remote_rces == round.remote_rces
    }
}

/// One batched compensation transaction: a maximal fused run of steps plus
/// the continuation. Executed atomically by the platform — one 2PC, one
/// shipped RCE list — in place of `steps.len()` single-round transactions.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// The fused steps, newest-first. Empty iff only savepoint entries
    /// stood between the abort point and the target (`after` is then
    /// [`AfterRound::Reached`]).
    pub steps: Vec<FusedStep>,
    /// How the rollback continues after this transaction commits.
    pub after: AfterRound,
}

impl BatchPlan {
    /// Number of single-round transactions this batch replaces.
    pub fn rounds_fused(&self) -> usize {
        self.steps.len()
    }

    /// The shared `eos.node` of the fused steps (`None` for the empty
    /// savepoints-only batch).
    pub fn step_node(&self) -> Option<u32> {
        self.steps.first().map(|s| s.step_node)
    }

    /// Operations to execute where the agent resides, in execution order
    /// (newest step first, each step's ops newest-first).
    pub fn local_ops(&self) -> impl Iterator<Item = &OpEntry> {
        self.steps.iter().flat_map(|s| s.local_ops.iter())
    }

    /// Resource compensation entries for [`Self::step_node`], in execution
    /// order across the fused steps.
    pub fn remote_rces(&self) -> impl Iterator<Item = &OpEntry> {
        self.steps.iter().flat_map(|s| s.remote_rces.iter())
    }

    /// Whether any resource compensation entries must run remotely.
    pub fn has_remote_rces(&self) -> bool {
        self.steps.iter().any(|s| !s.remote_rces.is_empty())
    }

    /// Total number of compensating operations in the batch.
    pub fn op_count(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.local_ops.len() + s.remote_rces.len())
            .sum()
    }
}

/// Plans one batched compensation transaction: the maximal fusable run at
/// the top of the log (see the [module docs](self) for the fusion rule),
/// popped from the log exactly as `run_len` consecutive
/// [`compensation_round`] calls would have done.
///
/// Like the single-round planner, this mutates the record and must run on a
/// *copy* inside the compensation transaction; an abort re-plans from the
/// unchanged stable state.
///
/// # Errors
///
/// [`CoreError::UnknownSavepoint`] if `target` is missing,
/// [`CoreError::CorruptLog`] if the log violates the entry grammar.
pub fn plan_batch<R: RollbackSubject>(
    record: &mut R,
    target: SavepointId,
) -> Result<BatchPlan, CoreError> {
    plan_fused(record, target, usize::MAX)
}

/// Plans a batch of exactly one round — the unbatched Fig. 4b / Fig. 5b
/// behaviour boxed in the batch interface, so the platform driver has a
/// single execution path whether batching is enabled or not.
///
/// # Errors
///
/// Same as [`plan_batch`].
pub fn plan_single<R: RollbackSubject>(
    record: &mut R,
    target: SavepointId,
) -> Result<BatchPlan, CoreError> {
    plan_fused(record, target, 1)
}

fn plan_fused<R: RollbackSubject>(
    record: &mut R,
    target: SavepointId,
    limit: usize,
) -> Result<BatchPlan, CoreError> {
    if !record.log().contains_savepoint(target) {
        return Err(CoreError::UnknownSavepoint(target));
    }
    let run_len = {
        let mut cursor = RollbackCursor::new(record.log(), record.rollback_mode(), target);
        cursor.next_run().map_or(0, |run| run.len.min(limit))
    };
    if run_len == 0 {
        // Only savepoint entries above the target: the single-round planner
        // emits one op-less "reached" round; the batch is empty.
        let round = compensation_round(record, target)?;
        debug_assert!(round.local_ops.is_empty() && round.remote_rces.is_empty());
        return Ok(BatchPlan {
            steps: Vec::new(),
            after: round.after,
        });
    }
    let mut steps = Vec::with_capacity(run_len);
    let mut after = None;
    for _ in 0..run_len {
        debug_assert!(
            after.is_none() || matches!(after, Some(AfterRound::Continue(_))),
            "a fused run never extends past a reached target"
        );
        let RoundPlan {
            step_seq,
            step_node,
            method,
            mixed,
            local_ops,
            remote_rces,
            after: round_after,
        } = compensation_round(record, target)?;
        after = Some(round_after);
        steps.push(FusedStep {
            step_seq,
            step_node,
            method,
            mixed,
            local_ops,
            remote_rces,
        });
    }
    Ok(BatchPlan {
        steps,
        after: after.expect("run_len >= 1 planned at least one round"),
    })
}
