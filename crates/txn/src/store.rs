//! A transactional key-value store: the state engine behind every resource
//! manager.
//!
//! Writes are applied in place under no-wait 2PL with before-image undo.
//! What survives a crash is what the hosting node persisted: a
//! [`TxStore::snapshot`] of the committed state as the base image, and on
//! top of it one delta record per transaction ([`TxStore::delta`]) — the
//! after-images of the keys in its write set, written when the transaction
//! prepares or commits. Recovery applies a committed transaction's record
//! ([`TxStore::apply_delta`]) and redoes an in-doubt one under its
//! transaction ([`TxStore::redo`]); changes that reached no record die with
//! the node, which *is* the abort.

use std::fmt;

use mar_wire::{from_slice, to_bytes, Bytes, WireResult};
use serde::de::{MapAccess, Visitor};
use serde::ser::{SerializeMap, SerializeSeq, SerializeStruct};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::error::TxnError;
use crate::id::TxnId;
use crate::lock::Slots;

/// The stable record of one committed transaction at one store (§2: a
/// step's resource changes become durable at commit, and only those).
#[derive(Deserialize)]
struct Delta {
    /// After-image per written key, in first-write order; `None` = removed.
    writes: Vec<(String, Option<Bytes>)>,
    /// High-water mark of the owning manager's sequence counter (0 if it
    /// has none), so ids stay unique across a crash.
    seq: u64,
}

/// A [`Delta`] encoded from a live transaction's write set, keys and
/// after-images by reference: the same bytes, nothing copied.
struct DeltaOf<'a> {
    slots: &'a Slots,
    txn: TxnId,
    seq: u64,
}

/// A byte string by reference, encoded as [`Bytes`] encodes its own.
struct ByteRef<'a>(&'a [u8]);

impl Serialize for ByteRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0)
    }
}

/// The write set of a [`DeltaOf`].
struct WritesOf<'a>(&'a DeltaOf<'a>);

impl Serialize for WritesOf<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let writes = self.0.slots.write_set(self.0.txn);
        let mut seq = serializer.serialize_seq(Some(writes.len()))?;
        for (key, after) in writes {
            seq.serialize_element(&(key, after.map(ByteRef)))?;
        }
        seq.end()
    }
}

impl Serialize for DeltaOf<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut delta = serializer.serialize_struct("Delta", 2)?;
        delta.serialize_field("writes", &WritesOf(self))?;
        delta.serialize_field("seq", &self.seq)?;
        delta.end()
    }
}

/// The committed state of a store, encoded as the map it is without
/// building it: every key in order, the ones a live transaction wrote at
/// their before-image (values element-wise, as a `Vec<u8>` encodes).
struct CommittedView<'a>(&'a Slots);

impl Serialize for CommittedView<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let (len, entries) = self.0.committed_view();
        let mut map = serializer.serialize_map(Some(len))?;
        for (key, value) in entries {
            map.serialize_entry(key, value)?;
        }
        map.end()
    }
}

/// A base image decoded straight into slots.
struct Image(Slots);

impl<'de> Deserialize<'de> for Image {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct ImageVisitor;
        impl<'de> Visitor<'de> for ImageVisitor {
            type Value = Image;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Image, A::Error> {
                let mut slots = Slots::default();
                while let Some((key, value)) = map.next_entry::<String, Vec<u8>>()? {
                    slots.assign(key, Some(value));
                }
                Ok(Image(slots))
            }
        }
        deserializer.deserialize_map(ImageVisitor)
    }
}

/// Transactional byte-value store with per-key locking.
#[derive(Debug, Default)]
pub struct TxStore {
    slots: Slots,
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
        self.slots.read(txn, key)
    }

    /// Writes `value` under `key` with an exclusive lock, keeping the
    /// before-image for abort.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] on lock conflict.
    pub fn write(&mut self, txn: TxnId, key: &str, value: Vec<u8>) -> Result<(), TxnError> {
        self.slots.put(txn, key, Some(value))
    }

    /// Deletes `key` under an exclusive lock.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] on lock conflict.
    pub fn remove(&mut self, txn: TxnId, key: &str) -> Result<(), TxnError> {
        self.slots.put(txn, key, None)
    }

    /// Keys under `prefix`, taking shared locks on each returned key.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] if any matching key is locked exclusively by
    /// another transaction; the keys before it stay locked.
    pub fn scan_keys(&mut self, txn: TxnId, prefix: &str) -> Result<Vec<String>, TxnError> {
        self.slots.scan(txn, prefix)
    }

    /// The next number of the owning manager's one id sequence (booking
    /// ids, coin serials, audit keys). The mark is part of every delta record
    /// and base image, so a number is never issued twice across a crash.
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// What `txn` wrote, as a delta record for stable storage: the current
    /// value of every key in its write set, stamped with the sequence
    /// high-water mark. `None` if the transaction wrote nothing. The
    /// transaction stays live: a prepared branch stores its record and keeps
    /// its locks until the decision.
    pub fn delta(&self, txn: TxnId) -> Option<Vec<u8>> {
        if self.slots.write_set(txn).len() == 0 {
            return None;
        }
        let delta = DeltaOf {
            slots: &self.slots,
            txn,
            seq: self.seq,
        };
        Some(to_bytes(&delta).expect("strings, byte strings and integers always encode"))
    }

    /// Commits `txn`: drops its before-images and releases its locks. Its
    /// record is [`delta`](Self::delta), taken before.
    pub fn commit(&mut self, txn: TxnId) {
        self.slots.end(txn, true);
    }

    /// Aborts `txn`: restores all before-images and releases its locks.
    pub fn abort(&mut self, txn: TxnId) {
        self.slots.end(txn, false);
    }

    /// Whether `txn` has pending (uncommitted) changes or locks.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.slots.has_locks(txn)
    }

    /// Non-transactional write for initial setup before the world starts.
    pub fn seed(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.slots.assign(key.into(), Some(value));
    }

    /// Non-transactional read (test inspection / snapshots).
    pub fn peek(&self, key: &str) -> Option<&[u8]> {
        self.slots.get(key)
    }

    /// Serializes the committed state and the sequence mark. Live
    /// transactions may hold in-place writes; their keys appear with the
    /// before-image their transaction keeps instead (2PL: a key has at most
    /// one live writer), so the image never contains an uncommitted write.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn snapshot(&self) -> WireResult<Vec<u8>> {
        to_bytes(&(CommittedView(&self.slots), self.seq))
    }

    /// Replaces the committed state from a snapshot (crash recovery).
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn restore(&mut self, bytes: &[u8]) -> WireResult<()> {
        let (Image(slots), seq) = from_slice(bytes)?;
        (self.slots, self.seq) = (slots, seq);
        Ok(())
    }

    /// Re-applies a delta record [`delta`](Self::delta) returned on top of
    /// restored state (crash recovery, deltas in commit order), sequence
    /// mark included.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> WireResult<()> {
        let delta: Delta = from_slice(bytes)?;
        for (key, after) in delta.writes {
            self.slots.assign(key, after.map(Bytes::into_vec));
        }
        self.seq = self.seq.max(delta.seq);
        Ok(())
    }

    /// Redoes the delta record of a transaction that is in doubt after a
    /// crash: `txn` takes the exclusive lock on every key the record writes
    /// and keeps its before-image, as its own writes did, so that the
    /// decision can still go either way — [`commit`](Self::commit) keeps the
    /// after-images, [`abort`](Self::abort) restores what the recovered
    /// state held before. The sequence mark is taken over as by
    /// [`apply_delta`](Self::apply_delta).
    ///
    /// # Errors
    ///
    /// Codec errors, before anything changed; [`TxnError::WouldBlock`] if
    /// another transaction holds one of the keys, which two-phase locking
    /// rules out for records written by one store.
    pub fn redo(&mut self, txn: TxnId, bytes: &[u8]) -> Result<(), TxnError> {
        let delta: Delta = from_slice(bytes)?;
        for (key, after) in delta.writes {
            self.slots.put(txn, &key, after.map(Bytes::into_vec))?;
        }
        self.seq = self.seq.max(delta.seq);
        Ok(())
    }

    /// Lock conflict count (for experiments).
    pub fn conflicts(&self) -> u64 {
        self.slots.conflicts()
    }

    /// Number of keys in the committed + in-flight state.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all current `(key, value)` pairs (non-transactional).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.slots.iter()
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
        assert_eq!(s.delta(t(1)), None, "a read-only transaction");
        s.commit(t(1));
        assert_eq!(s.delta(t(7)), None, "an unknown transaction");

        s.write(t(2), "a", vec![5]).unwrap();
        s.write(t(2), "a", vec![6]).unwrap();
        s.remove(t(2), "b").unwrap();
        s.write(t(2), "c", vec![7]).unwrap();
        s.write(t(3), "d", vec![8]).unwrap();
        assert_eq!((s.next_seq(), s.next_seq()), (1, 2));
        let delta = s.delta(t(2)).expect("t2 wrote");
        assert!(s.is_active(t(2)), "taking the record commits nothing");
        s.commit(t(2));

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

    /// An in-doubt record redone after a crash is the transaction's again:
    /// its keys are locked exclusively, and the decision can go either way.
    #[test]
    fn redo_retakes_the_locks_and_either_decision_holds() {
        let mut s = TxStore::new();
        s.seed("a", vec![1]);
        s.seed("b", vec![2]);
        s.next_seq();
        let base = s.snapshot().unwrap();
        s.write(t(1), "a", vec![5]).unwrap();
        s.remove(t(1), "b").unwrap();
        s.write(t(1), "c", vec![7]).unwrap();
        let delta = s.delta(t(1)).unwrap();

        for commit in [true, false] {
            let mut r = TxStore::new();
            r.restore(&base).unwrap();
            r.redo(t(1), &delta).unwrap();
            assert!(r.is_active(t(1)));
            for key in ["a", "b", "c"] {
                assert!(r.read(t(2), key).unwrap_err().is_transient(), "{key}");
                assert!(r.write(t(2), key, vec![0]).is_err(), "{key}");
            }
            assert_eq!(r.snapshot().unwrap(), base, "in doubt is not committed");
            assert_eq!(r.peek("a"), Some(&[5u8][..]));
            assert_eq!(r.peek("b"), None);
            if commit {
                r.commit(t(1));
                assert_eq!(r.peek("c"), Some(&[7u8][..]));
                assert_eq!(r.next_seq(), 2, "the record's sequence mark");
            } else {
                r.abort(t(1));
                assert_eq!(r.snapshot().unwrap(), base);
            }
            assert!(!r.is_active(t(1)));
            r.write(t(2), "a", vec![9]).unwrap();
        }
        let mut r = TxStore::new();
        assert!(r.redo(t(1), &[0xff]).is_err());
        assert!(
            !r.is_active(t(1)),
            "a record that does not decode changes nothing"
        );
    }

    #[test]
    fn abort_unknown_txn_is_noop() {
        let mut s = TxStore::new();
        s.seed("a", vec![1]);
        s.abort(t(5));
        assert_eq!(s.peek("a"), Some(&[1u8][..]));
    }
}
