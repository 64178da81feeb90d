//! Internal storage of the segment-indexed rollback log.
//!
//! The log is a stack, but almost every expensive query is about savepoint
//! entries. Entries are therefore grouped into *segments*: each segment is
//! one savepoint entry plus the non-savepoint entries logged after it (its
//! *tail*), and a side index maps [`SavepointId`]s to segment positions.
//! Entries that precede the first savepoint live in a head run owned by
//! [`crate::log::RollbackLog`] directly.
//!
//! Every stored entry carries a lazily cached encoded size: computed at most
//! once per entry (at push time, or on first demand for entries that arrived
//! via deserialization) and invalidated when the entry is mutated in place.
//! Nothing in this module ever clones an entry to measure it.

use crate::log::entry::LogEntry;

/// The lazily computed entry-size cache: an atomic, so [`Stored`] — and
/// with the sibling [`RollupCell`] the whole log — is `Sync`, which the
/// sharded simulator requires.
#[derive(Debug, Default)]
pub(crate) struct SizeCell(std::sync::atomic::AtomicUsize);

impl SizeCell {
    pub(crate) fn get(&self) -> usize {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub(crate) fn set(&self, v: usize) {
        self.0.store(v, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Clone for SizeCell {
    fn clone(&self) -> Self {
        let cell = SizeCell::default();
        cell.set(self.get());
        cell
    }
}

/// The lazily built per-kind byte-rollup cache ([`ByteRollup`]), lock-free
/// and accessed only through copy-in/copy-out `get`/`set`. Mutation only ever
/// happens through `&mut RollbackLog` methods, so the only concurrent
/// access is read-vs-read — including two `stats()` calls racing to fill
/// the cache, which write identical values. The `valid` flag is published
/// with release ordering after the fields, so a reader that observes
/// `valid` sees fully written fields.
#[derive(Debug, Default)]
pub(crate) struct RollupCell {
    valid: std::sync::atomic::AtomicBool,
    savepoint_bytes: std::sync::atomic::AtomicUsize,
    op_bytes: std::sync::atomic::AtomicUsize,
    frame_bytes: std::sync::atomic::AtomicUsize,
}

impl RollupCell {
    pub(crate) fn get(&self) -> Option<ByteRollup> {
        use std::sync::atomic::Ordering::{Acquire, Relaxed};
        if !self.valid.load(Acquire) {
            return None;
        }
        Some(ByteRollup {
            savepoint_bytes: self.savepoint_bytes.load(Relaxed),
            op_bytes: self.op_bytes.load(Relaxed),
            frame_bytes: self.frame_bytes.load(Relaxed),
        })
    }

    pub(crate) fn set(&self, v: Option<ByteRollup>) {
        use std::sync::atomic::Ordering::{Relaxed, Release};
        match v {
            Some(r) => {
                self.savepoint_bytes.store(r.savepoint_bytes, Relaxed);
                self.op_bytes.store(r.op_bytes, Relaxed);
                self.frame_bytes.store(r.frame_bytes, Relaxed);
                self.valid.store(true, Release);
            }
            None => self.valid.store(false, Release),
        }
    }
}

impl Clone for RollupCell {
    fn clone(&self) -> Self {
        let cell = RollupCell::default();
        cell.set(self.get());
        cell
    }
}

/// One log entry plus its cached encoded size (`0` = not yet computed; real
/// encodings are never empty).
#[derive(Debug, Clone)]
pub(crate) struct Stored {
    pub(crate) entry: LogEntry,
    size: SizeCell,
}

impl Stored {
    /// Wraps an entry without computing its size (deserialization path).
    pub(crate) fn deferred(entry: LogEntry) -> Stored {
        Stored {
            entry,
            size: SizeCell::default(),
        }
    }

    /// Wraps an entry and computes its size eagerly (push path).
    pub(crate) fn measured(entry: LogEntry) -> Stored {
        let s = Stored::deferred(entry);
        s.size();
        s
    }

    /// The encoded size in bytes, computed on first use.
    pub(crate) fn size(&self) -> usize {
        match self.size.get() {
            0 => {
                let s = self.entry.encoded_size();
                if s != 0 {
                    self.size.set(s);
                }
                s
            }
            s => s,
        }
    }

    /// Invalidates the cached size after an in-place mutation and returns
    /// `(old, new)` sizes. Costs at most two encodes and zero clones.
    pub(crate) fn remeasure(&mut self, mutate: impl FnOnce(&mut LogEntry)) -> (usize, usize) {
        let old = self.size();
        mutate(&mut self.entry);
        self.size.set(0);
        (old, self.size())
    }
}

/// A run of non-savepoint entries, stored as chunks so that splicing one
/// run onto another — the hot part of savepoint removal — is an O(1) chunk
/// append instead of an O(len) move of large `LogEntry` values.
///
/// Invariant: no chunk is empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tail {
    chunks: Vec<Vec<Stored>>,
}

impl Tail {
    pub(crate) fn push(&mut self, stored: Stored) {
        match self.chunks.last_mut() {
            Some(chunk) => chunk.push(stored),
            None => self.chunks.push(vec![stored]),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Stored> {
        let chunk = self.chunks.last_mut()?;
        let stored = chunk.pop().expect("no chunk is empty");
        if chunk.is_empty() {
            self.chunks.pop();
        }
        Some(stored)
    }

    pub(crate) fn last(&self) -> Option<&Stored> {
        self.chunks
            .last()
            .map(|c| c.last().expect("no chunk is empty"))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Appends all of `other`'s entries after `self`'s, in order, without
    /// moving individual entries.
    pub(crate) fn absorb(&mut self, other: Tail) {
        self.chunks.extend(other.chunks);
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Stored> {
        self.chunks.iter().flatten()
    }

    pub(crate) fn iter_rev(&self) -> impl Iterator<Item = &Stored> {
        self.chunks.iter().rev().flat_map(|c| c.iter().rev())
    }

    pub(crate) fn into_iter_stored(self) -> impl Iterator<Item = Stored> {
        self.chunks.into_iter().flatten()
    }
}

/// One savepoint entry (`sp`, always [`LogEntry::Savepoint`]) and the
/// entries logged after it, up to the next savepoint.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    pub(crate) sp: Stored,
    pub(crate) tail: Tail,
}

impl Segment {
    pub(crate) fn new(sp: Stored) -> Segment {
        debug_assert!(
            matches!(sp.entry, LogEntry::Savepoint(_)),
            "segments start at savepoint entries"
        );
        Segment {
            sp,
            tail: Tail::default(),
        }
    }
}

/// Eagerly maintained per-entry-kind counts (no sizes involved, so these
/// stay exact even for freshly deserialized logs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) savepoints: usize,
    pub(crate) markers: usize,
    pub(crate) bos: usize,
    pub(crate) ops: usize,
    pub(crate) eos: usize,
}

impl Counts {
    pub(crate) fn total(&self) -> usize {
        self.savepoints + self.bos + self.ops + self.eos
    }

    pub(crate) fn add(&mut self, entry: &LogEntry) {
        match entry {
            LogEntry::Savepoint(sp) => {
                self.savepoints += 1;
                if sp.sro.is_marker() {
                    self.markers += 1;
                }
            }
            LogEntry::BeginOfStep(_) => self.bos += 1,
            LogEntry::Operation(_) => self.ops += 1,
            LogEntry::EndOfStep(_) => self.eos += 1,
        }
    }

    pub(crate) fn remove(&mut self, entry: &LogEntry) {
        match entry {
            LogEntry::Savepoint(sp) => {
                self.savepoints -= 1;
                if sp.sro.is_marker() {
                    self.markers -= 1;
                }
            }
            LogEntry::BeginOfStep(_) => self.bos -= 1,
            LogEntry::Operation(_) => self.ops -= 1,
            LogEntry::EndOfStep(_) => self.eos -= 1,
        }
    }
}

/// Lazily built per-entry-kind byte totals. `None` after deserialization
/// (the wire format carries only the grand total); built on the first
/// `stats()` call and maintained incrementally afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ByteRollup {
    pub(crate) savepoint_bytes: usize,
    pub(crate) op_bytes: usize,
    pub(crate) frame_bytes: usize,
}

impl ByteRollup {
    pub(crate) fn add(&mut self, entry: &LogEntry, size: usize) {
        match entry {
            LogEntry::Savepoint(_) => self.savepoint_bytes += size,
            LogEntry::Operation(_) => self.op_bytes += size,
            LogEntry::BeginOfStep(_) | LogEntry::EndOfStep(_) => self.frame_bytes += size,
        }
    }

    pub(crate) fn remove(&mut self, entry: &LogEntry, size: usize) {
        match entry {
            LogEntry::Savepoint(_) => {
                self.savepoint_bytes = self.savepoint_bytes.saturating_sub(size);
            }
            LogEntry::Operation(_) => self.op_bytes = self.op_bytes.saturating_sub(size),
            LogEntry::BeginOfStep(_) | LogEntry::EndOfStep(_) => {
                self.frame_bytes = self.frame_bytes.saturating_sub(size);
            }
        }
    }
}
