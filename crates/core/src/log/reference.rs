//! An executable specification of the rollback log.
//!
//! [`NaiveLog`] is the original flat-vector implementation of the rollback
//! log, kept verbatim as the reference model for the segment-indexed
//! [`RollbackLog`](crate::log::RollbackLog): every query is a linear scan
//! and every size is recomputed by encoding, which makes its behaviour easy
//! to audit. The model-based property tests (`crates/core/tests/`) drive
//! both implementations with identical operation sequences and require
//! observational equivalence — including byte-identical serialization.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::data::{DataSpace, ObjectMap};
use crate::error::CoreError;
use crate::log::compact::{minimize_delta, resolve_root, CompactionReport, Resolved};
use crate::log::entry::{EosEntry, LogEntry, SpEntry, SroPayload};
use crate::savepoint::SavepointId;

/// Flat-vector rollback log: the specification implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct NaiveLog {
    entries: Vec<LogEntry>,
    bytes: usize,
}

impl NaiveLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        NaiveLog::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: LogEntry) {
        self.bytes += entry.encoded_size();
        self.entries.push(entry);
    }

    /// Removes and returns the last entry.
    pub fn pop(&mut self) -> Option<LogEntry> {
        let e = self.entries.pop()?;
        self.bytes = self.bytes.saturating_sub(e.encoded_size());
        Some(e)
    }

    /// The last entry, if any.
    pub fn last(&self) -> Option<&LogEntry> {
        self.entries.last()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total encoded size of all entries in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// Iterates oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter()
    }

    /// Discards everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// Finds a savepoint entry by id (linear scan).
    pub fn find_savepoint(&self, id: SavepointId) -> Option<&SpEntry> {
        self.entries.iter().find_map(|e| match e {
            LogEntry::Savepoint(sp) if sp.id == id => Some(sp),
            _ => None,
        })
    }

    /// Whether the log contains the savepoint.
    pub fn contains_savepoint(&self, id: SavepointId) -> bool {
        self.find_savepoint(id).is_some()
    }

    /// The id of the most recent data-bearing (non-marker) savepoint.
    pub fn last_data_savepoint(&self) -> Option<SavepointId> {
        self.entries.iter().rev().find_map(|e| match e {
            LogEntry::Savepoint(sp) if !sp.sro.is_marker() => Some(sp.id),
            _ => None,
        })
    }

    /// The most recent end-of-step entry.
    pub fn last_eos(&self) -> Option<&EosEntry> {
        self.entries.iter().rev().find_map(|e| match e {
            LogEntry::EndOfStep(eos) => Some(eos),
            _ => None,
        })
    }

    /// Removes the savepoint entry `id` (§4.4.2 semantics; see
    /// [`RollbackLog::remove_savepoint`](crate::log::RollbackLog::remove_savepoint)).
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptLog`] on payload inconsistencies.
    pub fn remove_savepoint(
        &mut self,
        id: SavepointId,
        data: &mut DataSpace,
    ) -> Result<bool, CoreError> {
        let Some(idx) = self
            .entries
            .iter()
            .position(|e| matches!(e, LogEntry::Savepoint(sp) if sp.id == id))
        else {
            return Ok(false);
        };
        let LogEntry::Savepoint(removed) = self.entries.remove(idx) else {
            unreachable!("position matched a savepoint");
        };
        self.bytes = self
            .bytes
            .saturating_sub(LogEntry::Savepoint(removed.clone()).encoded_size());

        match &removed.sro {
            SroPayload::Delta(delta) => {
                // Mirror of the production log: the first delta savepoint
                // above composes the removed delta in; a marker referencing
                // the removed savepoint becomes the delta's carrier instead
                // (further such markers are re-pointed at the carrier).
                let carrier = self.entries[idx..].iter().position(|e| match e {
                    LogEntry::Savepoint(sp) => match &sp.sro {
                        SroPayload::Delta(_) => true,
                        SroPayload::Ref(r) => *r == id,
                        SroPayload::Full(_) => false,
                    },
                    _ => false,
                });
                match carrier {
                    Some(off) => {
                        let j = idx + off;
                        let LogEntry::Savepoint(sp) = &mut self.entries[j] else {
                            unreachable!("position matched a savepoint");
                        };
                        let carrier_id = sp.id;
                        let old_size = LogEntry::Savepoint(sp.clone()).encoded_size();
                        sp.sro = match &sp.sro {
                            SroPayload::Delta(next) => SroPayload::Delta(next.compose(delta)),
                            SroPayload::Ref(_) => SroPayload::Delta(delta.clone()),
                            SroPayload::Full(_) => {
                                unreachable!("carrier scan matched delta or ref")
                            }
                        };
                        let new_size = LogEntry::Savepoint(sp.clone()).encoded_size();
                        self.bytes = self.bytes.saturating_sub(old_size) + new_size;
                        for e in self.entries[j + 1..].iter_mut() {
                            if let LogEntry::Savepoint(sp) = e {
                                if sp.sro == SroPayload::Ref(id) {
                                    let old_size = LogEntry::Savepoint(sp.clone()).encoded_size();
                                    sp.sro = SroPayload::Ref(carrier_id);
                                    let new_size = LogEntry::Savepoint(sp.clone()).encoded_size();
                                    self.bytes = self.bytes.saturating_sub(old_size) + new_size;
                                }
                            }
                        }
                    }
                    None => {
                        data.apply_delta_to_shadow(delta);
                    }
                }
            }
            SroPayload::Full(image) => {
                for e in self.entries[idx..].iter_mut() {
                    if let LogEntry::Savepoint(sp) = e {
                        if sp.sro == SroPayload::Ref(id) {
                            let old_size = LogEntry::Savepoint(sp.clone()).encoded_size();
                            sp.sro = SroPayload::Full(image.clone());
                            let new_size = LogEntry::Savepoint(sp.clone()).encoded_size();
                            self.bytes = self.bytes.saturating_sub(old_size) + new_size;
                        }
                    }
                }
            }
            SroPayload::Ref(target) => {
                // Mirror of the production log: re-point newer markers that
                // referenced the removed marker so they never dangle.
                let target = *target;
                for e in self.entries[idx..].iter_mut() {
                    if let LogEntry::Savepoint(sp) = e {
                        if sp.sro == SroPayload::Ref(id) {
                            let old_size = LogEntry::Savepoint(sp.clone()).encoded_size();
                            sp.sro = SroPayload::Ref(target);
                            let new_size = LogEntry::Savepoint(sp.clone()).encoded_size();
                            self.bytes = self.bytes.saturating_sub(old_size) + new_size;
                        }
                    }
                }
            }
        }
        Ok(true)
    }

    /// Compacts the log: the straight-line specification of
    /// [`RollbackLog::compact`](crate::log::RollbackLog::compact), against
    /// which the model-based property tests check the segment-indexed
    /// implementation (including byte-identical serialization afterwards).
    ///
    /// Everything here is a plain scan over the flat entry vector, and the
    /// byte total is recomputed from scratch at the end by re-encoding
    /// every entry.
    pub fn compact(&mut self, shadow: Option<&ObjectMap>) -> CompactionReport {
        let sp_positions: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, LogEntry::Savepoint(_)).then_some(i))
            .collect();
        let mut report = CompactionReport {
            savepoints: sp_positions.len(),
            bytes_before: self.bytes,
            ..CompactionReport::default()
        };

        // Pass 1 — delta re-minimization (see the production docs): walk
        // newest → oldest reconstructing the SRO state at each savepoint
        // from the shadow, exactly like the rollback shadow walk.
        if let Some(shadow) = shadow {
            let mut state = shadow.clone();
            for &i in sp_positions.iter().rev() {
                let LogEntry::Savepoint(sp) = &mut self.entries[i] else {
                    unreachable!("positions selected above");
                };
                if let SroPayload::Delta(d) = &sp.sro {
                    let (minimal, below, pruned) = minimize_delta(d, &state);
                    if pruned > 0 {
                        report.delta_keys_pruned += pruned;
                        sp.sro = SroPayload::Delta(minimal);
                    }
                    state = below;
                }
            }
        }

        // Pass 2 — demotion and marker-chain collapse, oldest → newest.
        let mut seen: BTreeMap<SavepointId, Resolved> = BTreeMap::new();
        let mut last_data: Option<(SavepointId, Option<ObjectMap>)> = None;
        let bound = sp_positions.len();
        for &i in &sp_positions {
            let LogEntry::Savepoint(sp) = &mut self.entries[i] else {
                unreachable!("positions selected above");
            };
            match sp.sro.clone() {
                SroPayload::Ref(t) => {
                    let resolved = match resolve_root(&seen, t, bound) {
                        Some(root) if root != t => {
                            report.refs_collapsed += 1;
                            sp.sro = SroPayload::Ref(root);
                            root
                        }
                        _ => t,
                    };
                    seen.insert(sp.id, Resolved::Marker(resolved));
                }
                SroPayload::Full(img) => {
                    match &last_data {
                        Some((d_id, Some(d_img))) if *d_img == img => {
                            report.images_demoted += 1;
                            sp.sro = SroPayload::Ref(*d_id);
                            seen.insert(sp.id, Resolved::Marker(*d_id));
                        }
                        _ => {
                            seen.insert(sp.id, Resolved::Data);
                            last_data = Some((sp.id, Some(img)));
                        }
                    };
                }
                SroPayload::Delta(d) => match &last_data {
                    Some((d_id, _)) if d.is_empty() => {
                        report.deltas_demoted += 1;
                        sp.sro = SroPayload::Ref(*d_id);
                        seen.insert(sp.id, Resolved::Marker(*d_id));
                    }
                    _ => {
                        seen.insert(sp.id, Resolved::Data);
                        last_data = Some((sp.id, None));
                    }
                },
            }
        }

        // Spec-style accounting: recount everything.
        self.bytes = self.entries.iter().map(LogEntry::encoded_size).sum();
        report.bytes_after = self.bytes;
        report
    }
}
