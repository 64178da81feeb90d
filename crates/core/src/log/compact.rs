//! Log compaction: shrinking the rollback log before a migration without
//! changing what rollback can observe (ROADMAP "log compaction on
//! migration"; see `docs/WIRE.md` for the wire-level invariant).
//!
//! The log an agent drags from node to node is the dominant transfer cost
//! (§4.4.2). Three kinds of redundancy accumulate in savepoint entries while
//! the rest of the log (BOS/OE/EOS frames — the compensation program itself)
//! must be preserved verbatim:
//!
//! 1. **Duplicate full images** (state logging): a savepoint constituted
//!    after steps that never touched a strongly reversible object stores the
//!    same image as the previous data-bearing savepoint, byte for byte. The
//!    §4.4.2 marker rule only catches the *zero-steps-in-between* case;
//!    compaction demotes the general case to a [`SroPayload::Ref`] marker.
//! 2. **Non-minimal deltas** (transition logging): composing deltas when
//!    savepoints are removed ([`RollbackLog::remove_savepoint`]) can leave
//!    *identity* entries — keys "restored" to the value they already have at
//!    the only state the delta is ever applied to. Compaction re-derives
//!    each delta against the reconstructed savepoint states and keeps only
//!    the keys that actually change; a delta that becomes empty is demoted
//!    to a marker.
//! 3. **Marker chains**: demotions (and rollback/removal histories) can
//!    leave `Ref → Ref → … → data` chains. Compaction collapses every
//!    marker to reference its data-bearing root directly.
//!
//! The pass rewrites savepoint *payloads* only — entry count, entry order,
//! savepoint ids, cursors, and table snapshots are untouched — so the
//! compacted log serializes to the same flat `SP | BOS OE* EOS` wire layout
//! and stays readable by pre-compaction readers.
//! `NaiveLog::compact` (in `crate::log::reference`, hidden from these docs) is the
//! executable specification of the same transformation; the model-based
//! property tests require both to produce byte-identical logs.

use std::collections::BTreeMap;
use std::fmt;

use crate::data::{ObjectMap, SroDelta};
use crate::log::entry::{LogEntry, SpEntry, SroPayload};
use crate::log::log::RollbackLog;
use crate::savepoint::SavepointId;

/// What one [`RollbackLog::compact`] pass did, with before/after byte
/// totals. Returned by the production and the reference implementation so
/// the property tests can require the two to agree action-for-action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Savepoint entries examined (the only entries compaction may touch).
    pub savepoints: usize,
    /// Marker chains re-pointed at their data-bearing root.
    pub refs_collapsed: usize,
    /// Full images demoted to markers (duplicate of the previous
    /// data-bearing savepoint's image).
    pub images_demoted: usize,
    /// Empty backward deltas demoted to markers.
    pub deltas_demoted: usize,
    /// Identity keys pruned out of non-minimal deltas.
    pub delta_keys_pruned: usize,
    /// Encoded log size before the pass.
    pub bytes_before: usize,
    /// Encoded log size after the pass.
    pub bytes_after: usize,
}

impl CompactionReport {
    /// True if the pass rewrote at least one payload.
    pub fn changed(&self) -> bool {
        self.refs_collapsed + self.images_demoted + self.deltas_demoted + self.delta_keys_pruned > 0
    }

    /// Bytes the pass shaved off the log (what a migration no longer
    /// transfers).
    pub fn saved_bytes(&self) -> usize {
        self.bytes_before.saturating_sub(self.bytes_after)
    }
}

impl fmt::Display for CompactionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} B (saved {}; {} image(s) demoted, {} empty delta(s) demoted, \
             {} delta key(s) pruned, {} ref(s) collapsed over {} savepoint(s))",
            self.bytes_before,
            self.bytes_after,
            self.saved_bytes(),
            self.images_demoted,
            self.deltas_demoted,
            self.delta_keys_pruned,
            self.refs_collapsed,
            self.savepoints
        )
    }
}

/// How a processed savepoint looks to savepoints above it: a marker
/// referencing another savepoint, or a data-bearing entry.
pub(crate) enum Resolved {
    /// Marker payload referencing the given savepoint.
    Marker(SavepointId),
    /// Full or delta payload (a valid chain root).
    Data,
}

/// Follows a marker chain through already-processed savepoints to its
/// data-bearing root. Returns `None` when the chain dangles (a reference to
/// a savepoint no longer in the log, or — in corrupt logs — a forward
/// reference), in which case the marker is left untouched. `bound` caps the
/// walk so a (corrupt) reference cycle cannot loop forever.
pub(crate) fn resolve_root(
    seen: &BTreeMap<SavepointId, Resolved>,
    start: SavepointId,
    bound: usize,
) -> Option<SavepointId> {
    let mut cur = start;
    for _ in 0..=bound {
        match seen.get(&cur) {
            Some(Resolved::Data) => return Some(cur),
            Some(Resolved::Marker(next)) => cur = *next,
            None => return None,
        }
    }
    None
}

/// Re-derives `delta` against the state it is actually applied to during
/// rollback. Returns the minimal equivalent delta, the state *below* the
/// savepoint (= `delta` applied to `state`), and how many identity keys the
/// minimization dropped.
pub(crate) fn minimize_delta(delta: &SroDelta, state: &ObjectMap) -> (SroDelta, ObjectMap, usize) {
    let mut below = state.clone();
    delta.apply(&mut below);
    let minimal = SroDelta::diff(state, &below);
    let pruned = (delta.changed.len() + delta.removed.len())
        .saturating_sub(minimal.changed.len() + minimal.removed.len());
    (minimal, below, pruned)
}

fn sp_of(entry: &LogEntry) -> &SpEntry {
    match entry {
        LogEntry::Savepoint(sp) => sp,
        _ => unreachable!("segments start at savepoint entries"),
    }
}

fn set_payload(entry: &mut LogEntry, sro: SroPayload) {
    match entry {
        LogEntry::Savepoint(sp) => sp.sro = sro,
        _ => unreachable!("segments start at savepoint entries"),
    }
}

impl RollbackLog {
    /// Compacts the log in place, returning what changed.
    ///
    /// Rewrites savepoint payloads only — duplicate full images and empty
    /// deltas become [`SroPayload::Ref`] markers, deltas are re-minimized
    /// against the reconstructed savepoint states, and marker chains are
    /// collapsed to their data-bearing root (see the [module
    /// docs](crate::log::compact)). The entry sequence, the savepoint id
    /// set, every cursor/table snapshot, and all BOS/OE/EOS entries are
    /// unchanged, so rollback and savepoint removal behave identically on
    /// the compacted log, and the serialized form stays a valid flat log
    /// readable by pre-compaction readers.
    ///
    /// `shadow` is the SRO state at the newest savepoint still in the log —
    /// [`DataSpace::shadow`](crate::DataSpace::shadow) under transition
    /// logging, `None` under state logging (which skips the delta pass).
    /// The pass is idempotent: compacting a compacted log changes nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use mar_core::log::{LoggingMode, RollbackLog, SroPayload};
    /// use mar_core::{DataSpace, SavepointTable};
    /// use mar_itinerary::{samples, Cursor};
    /// use mar_wire::Value;
    ///
    /// let main = samples::fig6();
    /// let cursor = Cursor::new(&main);
    /// let (mut data, mut table, mut log) =
    ///     (DataSpace::new(), SavepointTable::new(), RollbackLog::new());
    /// data.set_sro("notes", Value::Bytes(vec![0xA5; 256]));
    ///
    /// // Savepoint, a step that never touches the SRO state, savepoint:
    /// // both savepoints store the same 256-byte image.
    /// let a = table.on_enter_sub("A", &mut data, &cursor, &mut log, LoggingMode::State);
    /// log.append_step(1, 0, "observe", [], vec![]);
    /// table.on_step_committed();
    /// let b = table.on_enter_sub("B", &mut data, &cursor, &mut log, LoggingMode::State);
    ///
    /// let report = log.compact(None);
    /// assert_eq!(report.images_demoted, 1);
    /// assert!(report.saved_bytes() > 200);
    /// // B is now a marker onto A; restoring B still yields the same image.
    /// assert_eq!(log.find_savepoint(b).unwrap().sro, SroPayload::Ref(a));
    /// assert!(matches!(
    ///     log.find_savepoint(a).unwrap().sro,
    ///     SroPayload::Full(_)
    /// ));
    /// ```
    pub fn compact(&mut self, shadow: Option<&ObjectMap>) -> CompactionReport {
        let mut report = CompactionReport {
            savepoints: self.segments.len(),
            bytes_before: self.size_bytes(),
            ..CompactionReport::default()
        };

        // Pass 1 — delta re-minimization (transition logging). Walking
        // newest → oldest reconstructs the SRO state at every savepoint
        // exactly the way rollback does: starting from the shadow and
        // applying each backward delta in turn; markers and full images
        // leave the rollback shadow untouched.
        if let Some(shadow) = shadow {
            let mut state = shadow.clone();
            for i in (0..self.segments.len()).rev() {
                let minimized = match &sp_of(&self.segments[i].sp.entry).sro {
                    SroPayload::Delta(d) => {
                        let (minimal, below, pruned) = minimize_delta(d, &state);
                        let out = (pruned > 0).then_some((minimal, pruned));
                        state = below;
                        out
                    }
                    _ => None,
                };
                if let Some((minimal, pruned)) = minimized {
                    report.delta_keys_pruned += pruned;
                    let (old, new) = self.segments[i]
                        .sp
                        .remeasure(|e| set_payload(e, SroPayload::Delta(minimal)));
                    self.resize_savepoint_bytes(old, new);
                }
            }
        }

        // Pass 2 — demotion and chain collapse, oldest → newest, so that a
        // marker created by a demotion is immediately chased through by the
        // markers above it.
        let mut seen: BTreeMap<SavepointId, Resolved> = BTreeMap::new();
        let mut last_data: Option<(SavepointId, usize)> = None;
        let bound = self.segments.len();
        for i in 0..self.segments.len() {
            enum Action {
                CollapseRef(SavepointId),
                DemoteImage(SavepointId),
                DemoteDelta(SavepointId),
            }
            let sp = sp_of(&self.segments[i].sp.entry);
            let id = sp.id;
            let action = match &sp.sro {
                SroPayload::Ref(t) => resolve_root(&seen, *t, bound)
                    .filter(|root| root != t)
                    .map(Action::CollapseRef),
                SroPayload::Full(img) => last_data.and_then(|(d_id, d_pos)| {
                    match &sp_of(&self.segments[d_pos].sp.entry).sro {
                        SroPayload::Full(d_img) if d_img == img => Some(Action::DemoteImage(d_id)),
                        _ => None,
                    }
                }),
                SroPayload::Delta(d) if d.is_empty() => {
                    last_data.map(|(d_id, _)| Action::DemoteDelta(d_id))
                }
                SroPayload::Delta(_) => None,
            };
            match action {
                Some(action) => {
                    let (target, was_marker) = match &action {
                        Action::CollapseRef(t) => (*t, true),
                        Action::DemoteImage(t) | Action::DemoteDelta(t) => (*t, false),
                    };
                    match action {
                        Action::CollapseRef(_) => report.refs_collapsed += 1,
                        Action::DemoteImage(_) => report.images_demoted += 1,
                        Action::DemoteDelta(_) => report.deltas_demoted += 1,
                    }
                    let (old, new) = self.segments[i]
                        .sp
                        .remeasure(|e| set_payload(e, SroPayload::Ref(target)));
                    self.resize_savepoint_bytes(old, new);
                    if !was_marker {
                        self.counts.markers += 1;
                    }
                    seen.insert(id, Resolved::Marker(target));
                }
                None => {
                    match &sp_of(&self.segments[i].sp.entry).sro {
                        SroPayload::Ref(t) => {
                            seen.insert(id, Resolved::Marker(*t));
                        }
                        SroPayload::Full(_) | SroPayload::Delta(_) => {
                            seen.insert(id, Resolved::Data);
                            last_data = Some((id, i));
                        }
                    };
                }
            }
        }

        report.bytes_after = self.size_bytes();
        self.mark_compacted();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comp::{CompOp, EntryKind};
    use crate::log::entry::{BosEntry, EosEntry, OpEntry};
    use crate::log::LoggingMode;
    use crate::savepoint::SavepointTable;
    use crate::DataSpace;
    use mar_itinerary::{samples, Cursor};
    use mar_wire::Value;

    fn sp_entry(id: u64, sro: SroPayload) -> LogEntry {
        let main = samples::fig6();
        LogEntry::Savepoint(SpEntry {
            id: SavepointId(id),
            sub_id: None,
            explicit: true,
            cursor: Cursor::new(&main),
            table: SavepointTable::new(),
            sro,
        })
    }

    fn step(seq: u64) -> [LogEntry; 3] {
        [
            LogEntry::BeginOfStep(BosEntry {
                node: 1,
                step_seq: seq,
                method: format!("m{seq}"),
            }),
            LogEntry::Operation(OpEntry {
                kind: EntryKind::Resource,
                op: CompOp::new("undo", Value::from(seq as i64)),
                step_seq: seq,
            }),
            LogEntry::EndOfStep(EosEntry {
                node: 1,
                step_seq: seq,
                method: format!("m{seq}"),
                has_mixed: false,
                alt_nodes: vec![],
            }),
        ]
    }

    fn big_image(tag: i64) -> ObjectMap {
        [
            ("blob".to_owned(), Value::Bytes(vec![0xAB; 128])),
            ("tag".to_owned(), Value::from(tag)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn duplicate_images_demote_to_markers() {
        let mut log = RollbackLog::new();
        log.push(sp_entry(0, SroPayload::Full(big_image(7))));
        for e in step(0) {
            log.push(e);
        }
        log.push(sp_entry(1, SroPayload::Full(big_image(7))));
        for e in step(1) {
            log.push(e);
        }
        log.push(sp_entry(2, SroPayload::Full(big_image(7))));
        let before = log.size_bytes();
        let report = log.compact(None);
        assert_eq!(report.images_demoted, 2);
        assert_eq!(report.bytes_before, before);
        assert_eq!(report.bytes_after, log.size_bytes());
        assert!(report.saved_bytes() > 200, "two 128-byte blobs gone");
        assert_eq!(
            log.find_savepoint(SavepointId(1)).unwrap().sro,
            SroPayload::Ref(SavepointId(0))
        );
        assert_eq!(
            log.find_savepoint(SavepointId(2)).unwrap().sro,
            SroPayload::Ref(SavepointId(0)),
            "demotion chains collapse to the data root in the same pass"
        );
        assert_eq!(log.stats().markers, 2);
        log.validate().unwrap();
    }

    #[test]
    fn distinct_images_are_kept() {
        let mut log = RollbackLog::new();
        log.push(sp_entry(0, SroPayload::Full(big_image(1))));
        for e in step(0) {
            log.push(e);
        }
        log.push(sp_entry(1, SroPayload::Full(big_image(2))));
        let report = log.compact(None);
        assert!(!report.changed());
        assert_eq!(report.saved_bytes(), 0);
    }

    #[test]
    fn ref_chains_collapse_to_root() {
        let mut log = RollbackLog::new();
        log.push(sp_entry(0, SroPayload::Full(big_image(1))));
        log.push(sp_entry(1, SroPayload::Ref(SavepointId(0))));
        log.push(sp_entry(2, SroPayload::Ref(SavepointId(1))));
        log.push(sp_entry(3, SroPayload::Ref(SavepointId(2))));
        let report = log.compact(None);
        assert_eq!(report.refs_collapsed, 2, "SP2 and SP3 re-pointed");
        for id in [1u64, 2, 3] {
            assert_eq!(
                log.find_savepoint(SavepointId(id)).unwrap().sro,
                SroPayload::Ref(SavepointId(0))
            );
        }
    }

    #[test]
    fn dangling_refs_are_left_alone() {
        let mut log = RollbackLog::new();
        log.push(sp_entry(0, SroPayload::Ref(SavepointId(99))));
        let report = log.compact(None);
        assert!(!report.changed());
        assert_eq!(
            log.find_savepoint(SavepointId(0)).unwrap().sro,
            SroPayload::Ref(SavepointId(99))
        );
    }

    #[test]
    fn empty_deltas_demote_and_identity_keys_prune() {
        // Transition logging: build states via the real shadow machinery.
        let main = samples::fig6();
        let cursor = Cursor::new(&main);
        let mut data = DataSpace::new();
        data.set_sro("v", Value::from(1i64));
        data.enable_shadow();
        let mut table = SavepointTable::new();
        let mut log = RollbackLog::new();
        let _a = table.on_enter_sub("A", &mut data, &cursor, &mut log, LoggingMode::Transition);
        table.on_step_committed();
        // No SRO change: B's delta is empty (but not a marker — a step
        // committed in between, so the §4.4.2 marker rule cannot fire).
        let b = table.on_enter_sub("B", &mut data, &cursor, &mut log, LoggingMode::Transition);
        assert!(matches!(
            &log.find_savepoint(b).unwrap().sro,
            SroPayload::Delta(d) if d.is_empty()
        ));
        table.on_step_committed();
        data.set_sro("v", Value::from(2i64));
        let c = table.on_enter_sub("C", &mut data, &cursor, &mut log, LoggingMode::Transition);

        let shadow = data.shadow().cloned().unwrap();
        let report = log.compact(Some(&shadow));
        assert_eq!(report.deltas_demoted, 1);
        assert!(log.find_savepoint(b).unwrap().sro.is_marker());
        // C's real delta is untouched.
        assert!(matches!(
            &log.find_savepoint(c).unwrap().sro,
            SroPayload::Delta(d) if !d.is_empty()
        ));
    }

    #[test]
    fn composed_identity_entries_are_pruned() {
        // v: 1 → 2 → 1 across three savepoints; removing the middle one
        // composes C's delta into {v: 1} although the state at C is already
        // v = 1 — a pure identity entry.
        let main = samples::fig6();
        let cursor = Cursor::new(&main);
        let mut data = DataSpace::new();
        data.set_sro("v", Value::from(1i64));
        data.enable_shadow();
        let mut table = SavepointTable::new();
        let mut log = RollbackLog::new();
        let _a = table.on_enter_sub("A", &mut data, &cursor, &mut log, LoggingMode::Transition);
        table.on_step_committed();
        data.set_sro("v", Value::from(2i64));
        let b = table.on_enter_sub("B", &mut data, &cursor, &mut log, LoggingMode::Transition);
        table.on_step_committed();
        data.set_sro("v", Value::from(1i64));
        let c = table.on_enter_sub("C", &mut data, &cursor, &mut log, LoggingMode::Transition);
        log.remove_savepoint(b, &mut data).unwrap();
        assert!(matches!(
            &log.find_savepoint(c).unwrap().sro,
            SroPayload::Delta(d) if !d.is_empty()
        ));

        let shadow = data.shadow().cloned().unwrap();
        let report = log.compact(Some(&shadow));
        assert_eq!(report.delta_keys_pruned, 1);
        assert_eq!(report.deltas_demoted, 1, "pruned-empty delta demotes too");
        assert!(log.find_savepoint(c).unwrap().sro.is_marker());
    }

    #[test]
    fn removing_delta_referenced_by_demoted_marker_keeps_marker_restorable() {
        // Regression: compaction demotes B's empty delta to Ref(A); removing
        // A (a delta savepoint) must hand A's delta to the marker instead of
        // composing it past the marker into C — otherwise rolling back to B
        // would restore the state *below* A. Both the compacted and the
        // uncompacted history must end up byte-identical after the removal.
        let build = || {
            let main = samples::fig6();
            let cursor = Cursor::new(&main);
            let mut data = DataSpace::new();
            data.set_sro("v", Value::from(1i64));
            data.enable_shadow();
            let mut table = SavepointTable::new();
            let mut log = RollbackLog::new();
            // v: 1 -> 2 before A, unchanged before B, 2 -> 3 before C.
            table.on_step_committed();
            data.set_sro("v", Value::from(2i64));
            let a = table.on_enter_sub("A", &mut data, &cursor, &mut log, LoggingMode::Transition);
            table.on_step_committed();
            let b = table.on_enter_sub("B", &mut data, &cursor, &mut log, LoggingMode::Transition);
            table.on_step_committed();
            data.set_sro("v", Value::from(3i64));
            let c = table.on_enter_sub("C", &mut data, &cursor, &mut log, LoggingMode::Transition);
            (log, data, a, b, c)
        };

        let (mut raw, mut raw_data, a, b, _c) = build();
        let (mut compacted, mut compact_data, _, _, _) = build();
        let shadow = compact_data.shadow().cloned().unwrap();
        let report = compacted.compact(Some(&shadow));
        assert_eq!(report.deltas_demoted, 1);
        assert_eq!(compacted.find_savepoint(b).unwrap().sro, SroPayload::Ref(a));

        raw.remove_savepoint(a, &mut raw_data).unwrap();
        compacted.remove_savepoint(a, &mut compact_data).unwrap();
        // The marker became the removed delta's carrier: restoring *at* B
        // still yields v = 2 (the shadow walk), and popping *past* B now
        // applies A's backward delta (v -> 1), exactly like the uncompacted
        // history where B (an empty delta) absorbed A's delta by composition.
        match (
            &raw.find_savepoint(b).unwrap().sro,
            &compacted.find_savepoint(b).unwrap().sro,
        ) {
            (SroPayload::Delta(d_raw), SroPayload::Delta(d_cmp)) => {
                assert_eq!(d_raw, d_cmp);
                assert_eq!(d_cmp.changed.get("v").and_then(Value::as_i64), Some(1));
            }
            other => panic!("expected delta carriers, got {other:?}"),
        }
        assert_eq!(raw_data, compact_data);
        assert_eq!(
            mar_wire::to_bytes(&raw).unwrap(),
            mar_wire::to_bytes(&compacted).unwrap(),
            "removal must commute with compaction"
        );
    }

    #[test]
    fn compaction_is_idempotent() {
        let mut log = RollbackLog::new();
        log.push(sp_entry(0, SroPayload::Full(big_image(7))));
        for e in step(0) {
            log.push(e);
        }
        log.push(sp_entry(1, SroPayload::Full(big_image(7))));
        log.push(sp_entry(2, SroPayload::Ref(SavepointId(1))));
        let first = log.compact(None);
        assert!(first.changed());
        let snapshot = mar_wire::to_bytes(&log).unwrap();
        let second = log.compact(None);
        assert!(!second.changed());
        assert_eq!(second.saved_bytes(), 0);
        assert_eq!(mar_wire::to_bytes(&log).unwrap(), snapshot);
    }

    #[test]
    fn accounting_stays_exact_after_compaction() {
        use crate::log::LogStats;
        let mut log = RollbackLog::new();
        log.push(sp_entry(0, SroPayload::Full(big_image(7))));
        for e in step(0) {
            log.push(e);
        }
        log.push(sp_entry(1, SroPayload::Full(big_image(7))));
        log.push(sp_entry(2, SroPayload::Ref(SavepointId(1))));
        log.compact(None);
        assert_eq!(log.stats(), LogStats::of(&log));
        assert_eq!(log.stats().total_bytes, log.size_bytes());
        // A compacted log still round-trips through the unchanged wire
        // format.
        let bytes = mar_wire::to_bytes(&log).unwrap();
        let back: RollbackLog = mar_wire::from_slice(&bytes).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn report_display_is_informative() {
        let mut log = RollbackLog::new();
        log.push(sp_entry(0, SroPayload::Full(big_image(7))));
        log.push(sp_entry(1, SroPayload::Ref(SavepointId(0))));
        let report = log.compact(None);
        let s = report.to_string();
        assert!(s.contains("saved 0"), "{s}");
    }
}
