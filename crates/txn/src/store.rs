//! A transactional key-value store: the state engine behind every resource
//! manager.
//!
//! Writes are applied in place under no-wait 2PL with before-image undo.
//! What survives a crash is what the hosting node persisted at commit: a
//! [`TxStore::snapshot`] of the committed state as the base image, and on
//! top of it one delta record per committed transaction
//! ([`TxStore::commit`]) — the after-images of the keys in its undo log.
//! Uncommitted changes die with the node, which *is* the abort.

use std::collections::BTreeMap;

use mar_wire::{from_slice, to_bytes, Bytes, WireResult};
use serde::{Deserialize, Serialize};

use crate::error::TxnError;
use crate::id::TxnId;
use crate::lock::{LockMode, LockTable};
use crate::undo::UndoLog;

/// The stable record of one committed transaction at one store (§2: a
/// step's resource changes become durable at commit, and only those).
#[derive(Serialize, Deserialize)]
struct Delta {
    /// After-image per written key, in first-write order; `None` = removed.
    writes: Vec<(String, Option<Bytes>)>,
    /// High-water mark of the owning manager's sequence counter (0 if it
    /// has none), so ids stay unique across a crash.
    seq: u64,
}

/// Transactional byte-value store with per-key locking.
#[derive(Debug, Default)]
pub struct TxStore {
    data: BTreeMap<String, Vec<u8>>,
    locks: LockTable,
    undo: BTreeMap<TxnId, UndoLog>,
    /// High-water mark of [`next_seq`](Self::next_seq). Not transactional:
    /// an aborted transaction's numbers are skipped, never reissued.
    seq: u64,
}

impl TxStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TxStore::default()
    }

    /// Reads `key` under a shared lock.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] if another transaction holds a conflicting
    /// lock.
    pub fn read(&mut self, txn: TxnId, key: &str) -> Result<Option<&[u8]>, TxnError> {
        self.locks.acquire(txn, key, LockMode::Shared)?;
        Ok(self.data.get(key).map(Vec::as_slice))
    }

    /// Writes `value` under `key` with an exclusive lock, recording the
    /// before-image for abort.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] on lock conflict.
    pub fn write(&mut self, txn: TxnId, key: &str, value: Vec<u8>) -> Result<(), TxnError> {
        self.locks.acquire(txn, key, LockMode::Exclusive)?;
        let before = self.data.get(key).cloned();
        self.undo.entry(txn).or_default().remember(key, before);
        self.data.insert(key.to_owned(), value);
        Ok(())
    }

    /// Deletes `key` under an exclusive lock.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] on lock conflict.
    pub fn remove(&mut self, txn: TxnId, key: &str) -> Result<(), TxnError> {
        self.locks.acquire(txn, key, LockMode::Exclusive)?;
        let before = self.data.get(key).cloned();
        self.undo.entry(txn).or_default().remember(key, before);
        self.data.remove(key);
        Ok(())
    }

    /// Keys under `prefix`, taking shared locks on each returned key.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] if any matching key is locked exclusively by
    /// another transaction.
    pub fn scan_keys(&mut self, txn: TxnId, prefix: &str) -> Result<Vec<String>, TxnError> {
        let keys: Vec<String> = self
            .data
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &keys {
            self.locks.acquire(txn, k, LockMode::Shared)?;
        }
        Ok(keys)
    }

    /// The next number of the owning manager's one id sequence (booking
    /// ids, coin serials, audit keys). The mark is part of every delta record
    /// and base image, so a number is never issued twice across a crash.
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Commits `txn`: drops its undo log, releases its locks, and hands back
    /// what it wrote as a delta record for stable storage — the undo log's
    /// keys are the write set, so the record is their current values, stamped
    /// with the sequence high-water mark. `None` if the transaction wrote
    /// nothing.
    pub fn commit(&mut self, txn: TxnId) -> Option<Vec<u8>> {
        let log = self.undo.remove(&txn);
        self.locks.release_all(txn);
        let writes: Vec<_> = log
            .iter()
            .flat_map(UndoLog::records)
            .map(|rec| {
                let after = self.data.get(&rec.key).map(|v| Bytes::from(v.as_slice()));
                (rec.key.clone(), after)
            })
            .collect();
        if writes.is_empty() {
            return None;
        }
        let delta = Delta {
            writes,
            seq: self.seq,
        };
        Some(to_bytes(&delta).expect("strings, byte strings and integers always encode"))
    }

    /// Aborts `txn`: restores all before-images and releases its locks.
    pub fn abort(&mut self, txn: TxnId) {
        if let Some(log) = self.undo.remove(&txn) {
            log.unwind(|key, before| match before {
                Some(v) => {
                    self.data.insert(key.to_owned(), v.to_vec());
                }
                None => {
                    self.data.remove(key);
                }
            });
        }
        self.locks.release_all(txn);
    }

    /// Whether `txn` has pending (uncommitted) changes or locks.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.undo.contains_key(&txn) || self.locks.has_locks(txn)
    }

    /// Non-transactional write for initial setup before the world starts.
    pub fn seed(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.data.insert(key.into(), value);
    }

    /// Non-transactional read (test inspection / snapshots).
    pub fn peek(&self, key: &str) -> Option<&[u8]> {
        self.data.get(key).map(Vec::as_slice)
    }

    /// Serializes the committed state and the sequence mark. Live
    /// transactions may hold in-place writes; their keys appear with the
    /// before-image from the undo log instead (2PL: a key is in at most one
    /// live undo log), so the image never contains an uncommitted write.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn snapshot(&self) -> WireResult<Vec<u8>> {
        if self.undo.is_empty() {
            return to_bytes(&(&self.data, self.seq));
        }
        let mut committed: BTreeMap<&str, &[u8]> = self.iter().collect();
        for rec in self.undo.values().flat_map(UndoLog::records) {
            match &rec.before {
                Some(v) => committed.insert(&rec.key, v),
                None => committed.remove(rec.key.as_str()),
            };
        }
        to_bytes(&(committed, self.seq))
    }

    /// Replaces the committed state from a snapshot (crash recovery).
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn restore(&mut self, bytes: &[u8]) -> WireResult<()> {
        (self.data, self.seq) = from_slice(bytes)?;
        self.undo.clear();
        self.locks = LockTable::new();
        Ok(())
    }

    /// Re-applies a delta record [`commit`](Self::commit) returned on top
    /// of restored state (crash recovery, deltas in commit order), sequence
    /// mark included.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> WireResult<()> {
        let delta: Delta = from_slice(bytes)?;
        for (key, after) in delta.writes {
            match after {
                Some(v) => self.data.insert(key, v.into_vec()),
                None => self.data.remove(&key),
            };
        }
        self.seq = self.seq.max(delta.seq);
        Ok(())
    }

    /// Lock conflict count (for experiments).
    pub fn conflicts(&self) -> u64 {
        self.locks.conflicts()
    }

    /// Number of keys in the committed + in-flight state.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterates over all current `(key, value)` pairs (non-transactional).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.data.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_simnet::NodeId;

    fn t(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    #[test]
    fn write_then_abort_restores() {
        let mut s = TxStore::new();
        s.seed("a", vec![1]);
        s.write(t(1), "a", vec![2]).unwrap();
        s.write(t(1), "b", vec![3]).unwrap();
        assert_eq!(s.peek("a"), Some(&[2u8][..]));
        s.abort(t(1));
        assert_eq!(s.peek("a"), Some(&[1u8][..]));
        assert_eq!(s.peek("b"), None);
        assert!(!s.is_active(t(1)));
    }

    #[test]
    fn write_then_commit_persists() {
        let mut s = TxStore::new();
        s.write(t(1), "a", vec![7]).unwrap();
        s.commit(t(1));
        assert_eq!(s.peek("a"), Some(&[7u8][..]));
        // Lock released: another txn can write.
        s.write(t(2), "a", vec![8]).unwrap();
        s.commit(t(2));
        assert_eq!(s.peek("a"), Some(&[8u8][..]));
    }

    #[test]
    fn isolation_under_no_wait() {
        let mut s = TxStore::new();
        s.seed("a", vec![1]);
        s.write(t(1), "a", vec![2]).unwrap();
        // Reader is refused instead of seeing the dirty value.
        let err = s.read(t(2), "a").unwrap_err();
        assert!(err.is_transient());
        s.abort(t(1));
        assert_eq!(s.read(t(2), "a").unwrap(), Some(&[1u8][..]));
    }

    #[test]
    fn remove_is_undoable() {
        let mut s = TxStore::new();
        s.seed("a", vec![1]);
        s.remove(t(1), "a").unwrap();
        assert_eq!(s.peek("a"), None);
        s.abort(t(1));
        assert_eq!(s.peek("a"), Some(&[1u8][..]));
    }

    #[test]
    fn scan_locks_matches() {
        let mut s = TxStore::new();
        s.seed("q/1", vec![]);
        s.seed("q/2", vec![]);
        s.seed("r/1", vec![]);
        let keys = s.scan_keys(t(1), "q/").unwrap();
        assert_eq!(keys, ["q/1", "q/2"]);
        // Writer conflicts with the scan's shared locks.
        assert!(s.write(t(2), "q/1", vec![1]).is_err());
        s.commit(t(1));
        assert!(s.write(t(2), "q/1", vec![1]).is_ok());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = TxStore::new();
        s.write(t(1), "k", vec![1, 2]).unwrap();
        s.commit(t(1));
        assert_eq!(s.next_seq(), 1);
        let snap = s.snapshot().unwrap();
        let mut s2 = TxStore::new();
        s2.restore(&snap).unwrap();
        assert_eq!(s2.peek("k"), Some(&[1u8, 2][..]));
        assert_eq!(s2.len(), 1);
        assert_eq!(s2.next_seq(), 2, "the image carries the sequence mark");
    }

    #[test]
    fn snapshot_is_the_committed_view() {
        let mut s = TxStore::new();
        s.seed("a", vec![1]);
        s.seed("b", vec![2]);
        let committed = s.snapshot().unwrap();
        // In-flight: an overwrite, a removal and an insertion.
        s.write(t(1), "a", vec![9]).unwrap();
        s.remove(t(2), "b").unwrap();
        s.write(t(2), "c", vec![3]).unwrap();
        assert_eq!(s.snapshot().unwrap(), committed);
        s.commit(t(2));
        let mut s2 = TxStore::new();
        s2.restore(&s.snapshot().unwrap()).unwrap();
        assert_eq!(s2.peek("a"), Some(&[1u8][..]), "t1 is still in flight");
        assert_eq!(s2.peek("b"), None);
        assert_eq!(s2.peek("c"), Some(&[3u8][..]));
    }

    #[test]
    fn commit_yields_the_write_set_and_delta_replays_it() {
        let mut s = TxStore::new();
        s.seed("a", vec![1]);
        s.seed("b", vec![2]);
        let base = s.snapshot().unwrap();
        s.read(t(1), "a").unwrap();
        assert_eq!(s.commit(t(1)), None, "a read-only commit");
        assert_eq!(s.commit(t(7)), None, "an unknown transaction");

        s.write(t(2), "a", vec![5]).unwrap();
        s.write(t(2), "a", vec![6]).unwrap();
        s.remove(t(2), "b").unwrap();
        s.write(t(2), "c", vec![7]).unwrap();
        s.write(t(3), "d", vec![8]).unwrap();
        assert_eq!((s.next_seq(), s.next_seq()), (1, 2));
        let delta = s.commit(t(2)).expect("t2 wrote");

        let mut s2 = TxStore::new();
        s2.restore(&base).unwrap();
        s2.apply_delta(&delta).unwrap();
        assert_eq!(s2.next_seq(), 3, "the delta carries the sequence mark");
        s.next_seq();
        assert_eq!(s2.peek("a"), Some(&[6u8][..]), "the last write wins");
        assert_eq!(s2.peek("b"), None, "a removal is replayed as a removal");
        assert_eq!(s2.peek("c"), Some(&[7u8][..]));
        assert_eq!(s2.peek("d"), None, "t3's write is not t2's");
        assert_eq!(s2.snapshot().unwrap(), s.snapshot().unwrap());
    }

    #[test]
    fn abort_unknown_txn_is_noop() {
        let mut s = TxStore::new();
        s.seed("a", vec![1]);
        s.abort(t(5));
        assert_eq!(s.peek("a"), Some(&[1u8][..]));
    }
}
