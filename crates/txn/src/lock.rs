//! Strict two-phase locking with a no-wait policy.
//!
//! Lock conflicts return [`TxnError::WouldBlock`] immediately instead of
//! queueing the requester. The caller aborts and retries the transaction
//! after a (randomized) backoff. No-wait keeps the simulation deterministic,
//! cannot deadlock, and — combined with strictness (all locks held until
//! commit/abort) — still yields serializable histories, which is all the
//! paper's step/compensation transactions require.
//!
//! The lock state lives beside the data it guards. [`Slots`] keeps one slot
//! per key — its value, its exclusive holder and its first sharer — and per
//! live transaction the slots it holds and the before-images of the ones it
//! wrote. [`crate::TxStore`] and [`LockTable`] are both built on it, so the
//! rules — shared and exclusive, the upgrade, the holder a refusal names —
//! exist once.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::mem;
use std::ops::{Bound, Index, IndexMut};

use crate::error::TxnError;
use crate::id::TxnId;

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) access.
    Shared,
    /// Exclusive (write) access.
    Exclusive,
}

/// No transaction: an unset holder field.
const NONE: u32 = u32::MAX;

/// One key's slot: its value and its lock state. A transaction is named by
/// its handle, its index in [`Slots::txns`].
#[derive(Debug)]
struct Slot {
    /// The current value, a live writer's included; `None`: absent. A slot
    /// is absent only while locked (a read of an absent key locks it, and a
    /// removal keeps the key's lock until its transaction ends).
    value: Option<Vec<u8>>,
    /// The exclusive holder.
    exclusive: u32,
    /// The lowest-id sharer. Further sharers, in id order, are in
    /// [`Slots::more_sharers`]: most keys have at most one.
    sharer: u32,
}

/// A lock a transaction holds: the slot, and where its key ends in
/// [`Txn::keys`].
#[derive(Debug)]
struct Held {
    slot: u32,
    key_end: u32,
}

/// A transaction's first write of a slot: the value the slot had before,
/// moved out of it.
#[derive(Debug)]
struct Write {
    slot: u32,
    /// The lock's index in [`Txn::held`], which names the key.
    held: u32,
    before: Option<Vec<u8>>,
}

/// One transaction at one store. An ended transaction's entry is reused
/// with its buffers, so a transaction that locks no more keys than an
/// earlier one does not go to the allocator for its bookkeeping.
#[derive(Debug, Default)]
struct Txn {
    /// `None` while the entry is free.
    id: Option<TxnId>,
    /// The locks it holds, in the order it took them.
    held: Vec<Held>,
    /// Their keys, end to end.
    keys: String,
    /// Its write set in first-write order.
    writes: Vec<Write>,
}

impl Txn {
    fn key(&self, held: usize) -> &str {
        let start = match held {
            0 => 0,
            i => self.held[i - 1].key_end as usize,
        };
        &self.keys[start..self.held[held].key_end as usize]
    }
}

/// Slots per chunk of [`SlotChunks`].
const CHUNK: usize = 128;

/// Slots by number, in fixed-size chunks that never move: a growing store
/// adds a chunk instead of copying every slot into a buffer twice the size,
/// which would leave the old buffer behind as free heap and hold up to
/// twice the slots' bytes at the peak.
#[derive(Debug, Default)]
struct SlotChunks(Vec<Vec<Slot>>);

impl SlotChunks {
    fn push(&mut self, slot: Slot) -> u32 {
        let full = self.0.last().map_or(true, |chunk| chunk.len() == CHUNK);
        if full {
            self.0.push(Vec::with_capacity(CHUNK));
        }
        let chunks = self.0.len() - 1;
        let chunk = &mut self.0[chunks];
        chunk.push(slot);
        u32::try_from(chunks * CHUNK + chunk.len() - 1).expect("fewer than 2^32 slots")
    }
}

impl Index<usize> for SlotChunks {
    type Output = Slot;

    fn index(&self, s: usize) -> &Slot {
        &self.0[s / CHUNK][s % CHUNK]
    }
}

impl IndexMut<usize> for SlotChunks {
    fn index_mut(&mut self, s: usize) -> &mut Slot {
        &mut self.0[s / CHUNK][s % CHUNK]
    }
}

/// Keys, their slots, and the live transactions that lock and write them:
/// the state engine of [`crate::TxStore`] and [`LockTable`].
///
/// An operation looks its key up once and then works on the slot. A write
/// moves the before-image out of the slot into its transaction's write set,
/// and a transaction ends by walking its own lists of held and written
/// slots.
#[derive(Debug, Default)]
pub(crate) struct Slots {
    index: BTreeMap<String, u32>,
    slots: SlotChunks,
    /// Slots of keys that left the index, for reuse.
    free: Vec<u32>,
    /// Slots with a value.
    present: usize,
    txns: Vec<Txn>,
    /// Free entries of `txns`.
    idle: Vec<u32>,
    /// The entry of the transaction that locked last: a step's operations
    /// come one after another.
    last_txn: u32,
    /// A slot's sharers after the first, in id order.
    more_sharers: BTreeMap<u32, Vec<u32>>,
    conflicts: u64,
}

impl Slots {
    fn find(&self, key: &str) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// The slot of `key`, made (absent) if there is none.
    fn slot_of(&mut self, key: &str) -> u32 {
        // Keys that grow with a sequence number (audit records) come past
        // the last one: known new without a search.
        let past_end = self
            .index
            .last_key_value()
            .map_or(true, |(last, _)| key > last.as_str());
        if !past_end {
            if let Some(s) = self.find(key) {
                return s;
            }
        }
        let s = Self::new_slot(&mut self.slots, &mut self.free);
        self.index.insert(key.to_owned(), s);
        s
    }

    /// An absent, unlocked slot, a free one if there is one.
    fn new_slot(slots: &mut SlotChunks, free: &mut Vec<u32>) -> u32 {
        let slot = Slot {
            value: None,
            exclusive: NONE,
            sharer: NONE,
        };
        match free.pop() {
            Some(s) => {
                slots[s as usize] = slot;
                s
            }
            None => slots.push(slot),
        }
    }

    /// Sets slot `s`'s value, returning the one it had.
    fn set(&mut self, s: u32, value: Option<Vec<u8>>) -> Option<Vec<u8>> {
        let before = mem::replace(&mut self.slots[s as usize].value, value);
        match (&before, &self.slots[s as usize].value) {
            (None, Some(_)) => self.present += 1,
            (Some(_), None) => self.present -= 1,
            _ => {}
        }
        before
    }

    fn value(&self, s: u32) -> Option<&[u8]> {
        self.slots[s as usize].value.as_deref()
    }

    /// Drops `key`'s slot if nothing holds it: no value and no lock.
    fn drop_if_unused(&mut self, s: u32, key: &str) {
        let slot = &self.slots[s as usize];
        if slot.value.is_none() && slot.exclusive == NONE && slot.sharer == NONE {
            self.index.remove(key);
            self.free.push(s);
        }
    }

    /// Non-transactional write (set-up, recovery): `None` removes. The key
    /// is looked up once and, if new, kept as it comes.
    pub(crate) fn assign(&mut self, key: String, value: Option<Vec<u8>>) {
        let s = match self.index.entry(key) {
            Entry::Vacant(_) if value.is_none() => return,
            Entry::Vacant(e) => *e.insert(Self::new_slot(&mut self.slots, &mut self.free)),
            Entry::Occupied(e) => {
                let s = *e.get();
                let slot = &self.slots[s as usize];
                if value.is_none() && slot.exclusive == NONE && slot.sharer == NONE {
                    e.remove();
                    self.free.push(s);
                }
                s
            }
        };
        self.set(s, value);
    }

    pub(crate) fn get(&self, key: &str) -> Option<&[u8]> {
        self.find(key).and_then(|s| self.value(s))
    }

    /// The handle of transaction `id`: the last one used, else a search.
    fn txn(&self, id: TxnId) -> Option<u32> {
        let last = self.txns.get(self.last_txn as usize);
        if last.is_some_and(|t| t.id == Some(id)) {
            return Some(self.last_txn);
        }
        let h = self.txns.iter().position(|t| t.id == Some(id))?;
        Some(h as u32)
    }

    fn id(&self, h: u32) -> TxnId {
        self.txns[h as usize].id.expect("a holder is live")
    }

    /// The lowest-id sharer of slot `s` other than `h`, or [`NONE`].
    fn other_sharer(&self, s: u32, h: u32) -> u32 {
        match self.slots[s as usize].sharer {
            first if first != h => first,
            _ => self.more_sharers.get(&s).map_or(NONE, |more| more[0]),
        }
    }

    /// Adds `h` to slot `s`'s sharers; `false` if it was one.
    fn add_sharer(&mut self, s: u32, h: u32) -> bool {
        let first = self.slots[s as usize].sharer;
        if first == NONE {
            self.slots[s as usize].sharer = h;
            return true;
        }
        if first == h || self.more_sharers.get(&s).is_some_and(|m| m.contains(&h)) {
            return false;
        }
        let txns = &self.txns;
        let id = |h: u32| txns[h as usize].id;
        let more = self.more_sharers.entry(s).or_default();
        if id(h) < id(first) {
            self.slots[s as usize].sharer = h;
            more.insert(0, first);
        } else {
            let at = more.partition_point(|&o| id(o) < id(h));
            more.insert(at, h);
        }
        true
    }

    /// Removes `h` from slot `s`'s sharers; `false` if it was none.
    fn remove_sharer(&mut self, s: u32, h: u32) -> bool {
        let first = self.slots[s as usize].sharer;
        if first == NONE {
            return false;
        }
        let Some(more) = self.more_sharers.get_mut(&s) else {
            if first == h {
                self.slots[s as usize].sharer = NONE;
            }
            return first == h;
        };
        if first == h {
            self.slots[s as usize].sharer = more.remove(0);
        } else if let Some(at) = more.iter().position(|&o| o == h) {
            more.remove(at);
        } else {
            return false;
        }
        if more.is_empty() {
            self.more_sharers.remove(&s);
        }
        true
    }

    /// Takes slot `s` (of `key`) in `mode` for `h`, upgrading a shared lock
    /// to exclusive when `h` is the sole sharer. `Ok(true)`: `h` holds the
    /// slot exclusively now and did not before.
    fn acquire(&mut self, h: u32, s: u32, key: &str, mode: LockMode) -> Result<bool, TxnError> {
        let slot = &self.slots[s as usize];
        let holder = match (slot.exclusive, mode) {
            (x, _) if x == h => return Ok(false),
            (NONE, LockMode::Shared) => NONE,
            (NONE, LockMode::Exclusive) => self.other_sharer(s, h),
            (x, _) => x,
        };
        if holder != NONE {
            self.conflicts += 1;
            return Err(TxnError::WouldBlock {
                key: key.to_owned(),
                holder: self.id(holder),
            });
        }
        let newly_held = match mode {
            LockMode::Shared => self.add_sharer(s, h),
            LockMode::Exclusive => {
                let was_sharer = self.remove_sharer(s, h);
                self.slots[s as usize].exclusive = h;
                !was_sharer
            }
        };
        if newly_held {
            let txn = &mut self.txns[h as usize];
            txn.keys.push_str(key);
            let key_end = u32::try_from(txn.keys.len()).expect("a transaction's keys fit in 4 GiB");
            txn.held.push(Held { slot: s, key_end });
        }
        Ok(mode == LockMode::Exclusive)
    }

    /// The handle of transaction `id`, given one if it has none.
    fn begin(&mut self, id: TxnId) -> u32 {
        let h = self.txn(id).unwrap_or_else(|| {
            let h = self.idle.pop().unwrap_or_else(|| {
                self.txns.push(Txn::default());
                (self.txns.len() - 1) as u32
            });
            self.txns[h as usize].id = Some(id);
            h
        });
        self.last_txn = h;
        h
    }

    /// Takes slot `s` (of `key`) in `mode` for `h`, as
    /// [`acquire`](Self::acquire). A refused transaction that holds nothing
    /// leaves no entry behind.
    fn lock_slot(&mut self, h: u32, s: u32, key: &str, mode: LockMode) -> Result<bool, TxnError> {
        let refused = self.acquire(h, s, key, mode);
        if refused.is_err() && self.txns[h as usize].held.is_empty() {
            self.txns[h as usize].id = None;
            self.idle.push(h);
        }
        refused
    }

    /// Takes `key` in `mode` for `id`: the transaction's handle, the key's
    /// slot, and whether the lock is newly exclusive. A write right after a
    /// read of the same key finds the slot as the transaction's last lock,
    /// without a search.
    fn lock(&mut self, id: TxnId, key: &str, mode: LockMode) -> Result<(u32, u32, bool), TxnError> {
        let h = self.begin(id);
        let txn = &self.txns[h as usize];
        let s = match txn.held.last() {
            Some(last) if txn.key(txn.held.len() - 1) == key => last.slot,
            _ => self.slot_of(key),
        };
        let newly_exclusive = self.lock_slot(h, s, key, mode)?;
        Ok((h, s, newly_exclusive))
    }

    /// Reads `key` under a shared lock.
    pub(crate) fn read(&mut self, id: TxnId, key: &str) -> Result<Option<&[u8]>, TxnError> {
        let (_, s, _) = self.lock(id, key, LockMode::Shared)?;
        Ok(self.value(s))
    }

    /// Sets `key` to `value` (`None` removes) under an exclusive lock; the
    /// first write of a key in a transaction moves its before-image into the
    /// transaction's write set.
    pub(crate) fn put(
        &mut self,
        id: TxnId,
        key: &str,
        value: Option<Vec<u8>>,
    ) -> Result<(), TxnError> {
        let (h, s, first_write) = self.lock(id, key, LockMode::Exclusive)?;
        let before = self.set(s, value);
        if first_write {
            let txn = &mut self.txns[h as usize];
            let held = txn.held.iter().rposition(|l| l.slot == s).expect("locked");
            txn.writes.push(Write {
                slot: s,
                held: held as u32,
                before,
            });
        }
        Ok(())
    }

    /// Keys under `prefix` with a value, taking a shared lock on each in
    /// key order; a refusal keeps the locks taken before it.
    pub(crate) fn scan(&mut self, id: TxnId, prefix: &str) -> Result<Vec<String>, TxnError> {
        let matches: Vec<(String, u32)> = self
            .index
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter(|&(_, &s)| self.value(s).is_some())
            .map(|(k, &s)| (k.clone(), s))
            .collect();
        for (key, s) in &matches {
            let h = self.begin(id);
            self.lock_slot(h, *s, key, LockMode::Shared)?;
        }
        Ok(matches.into_iter().map(|(k, _)| k).collect())
    }

    /// Ends transaction `id`: an abort first puts every before-image back,
    /// newest first; then every lock goes, and with it every slot left
    /// without value or lock.
    pub(crate) fn end(&mut self, id: TxnId, commit: bool) {
        let Some(h) = self.txn(id) else {
            return;
        };
        let mut txn = mem::take(&mut self.txns[h as usize]);
        if commit {
            txn.writes.clear();
        } else {
            for write in txn.writes.drain(..).rev() {
                self.set(write.slot, write.before);
            }
        }
        for (i, held) in txn.held.iter().enumerate() {
            let s = held.slot;
            if self.slots[s as usize].exclusive == h {
                self.slots[s as usize].exclusive = NONE;
            } else {
                self.remove_sharer(s, h);
            }
            self.drop_if_unused(s, txn.key(i));
        }
        txn.held.clear();
        txn.keys.clear();
        txn.id = None;
        self.txns[h as usize] = txn;
        self.idle.push(h);
    }

    /// The write set of `id` in first-write order: each key with its
    /// current value (`None`: removed). Empty for an unknown transaction.
    pub(crate) fn write_set(
        &self,
        id: TxnId,
    ) -> impl ExactSizeIterator<Item = (&str, Option<&[u8]>)> {
        let txn = self.txn(id).map(|h| &self.txns[h as usize]);
        let writes = txn.map_or(&[][..], |t| t.writes.as_slice());
        writes.iter().map(move |w| {
            let key = txn.expect("a write has a transaction").key(w.held as usize);
            (key, self.value(w.slot))
        })
    }

    /// The committed value of slot `s`: a live writer's before-image, else
    /// the slot's value.
    fn committed(&self, s: u32) -> Option<&[u8]> {
        let slot = &self.slots[s as usize];
        if slot.exclusive != NONE {
            let writes = &self.txns[slot.exclusive as usize].writes;
            if let Some(w) = writes.iter().find(|w| w.slot == s) {
                return w.before.as_deref();
            }
        }
        slot.value.as_deref()
    }

    /// The committed state in key order: every key a live transaction wrote
    /// at its before-image, and how many keys that is.
    pub(crate) fn committed_view(&self) -> (usize, impl Iterator<Item = (&str, &[u8])>) {
        let mut len = self.present;
        for write in self.txns.iter().flat_map(|t| &t.writes) {
            len += usize::from(write.before.is_some());
            len -= usize::from(self.value(write.slot).is_some());
        }
        let entries = self
            .index
            .iter()
            .filter_map(|(k, &s)| Some((k.as_str(), self.committed(s)?)));
        (len, entries)
    }

    /// Every key with a value, in key order, live writes included.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        let present = |(k, &s)| Some((String::as_str(k), self.value(s)?));
        self.index.iter().filter_map(present)
    }

    /// Keys with a value.
    pub(crate) fn len(&self) -> usize {
        self.present
    }

    /// Whether `id` holds `key` in a mode at least as strong as `mode`.
    fn holds(&self, id: TxnId, key: &str, mode: LockMode) -> bool {
        let (Some(s), Some(h)) = (self.find(key), self.txn(id)) else {
            return false;
        };
        let slot = &self.slots[s as usize];
        slot.exclusive == h
            || mode == LockMode::Shared
                && (slot.sharer == h || self.more_sharers.get(&s).is_some_and(|m| m.contains(&h)))
    }

    /// Whether `id` holds any lock.
    pub(crate) fn has_locks(&self, id: TxnId) -> bool {
        self.txn(id)
            .is_some_and(|h| !self.txns[h as usize].held.is_empty())
    }

    /// Lock conflicts so far.
    pub(crate) fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

/// A per-resource-manager lock table: the slots of a [`crate::TxStore`]
/// without values, so every key it knows is a locked one.
#[derive(Debug, Default)]
pub struct LockTable {
    slots: Slots,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Acquires `key` in `mode` for `txn`, upgrading a shared lock to
    /// exclusive when `txn` is the sole sharer.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] on any conflict with another transaction.
    pub fn acquire(&mut self, txn: TxnId, key: &str, mode: LockMode) -> Result<(), TxnError> {
        self.slots.lock(txn, key, mode).map(drop)
    }

    /// Releases every lock held by `txn` (strict 2PL release at end of
    /// transaction).
    pub fn release_all(&mut self, txn: TxnId) {
        self.slots.end(txn, true);
    }

    /// Whether `txn` holds `key` in a mode at least as strong as `mode`.
    pub fn holds(&self, txn: TxnId, key: &str, mode: LockMode) -> bool {
        self.slots.holds(txn, key, mode)
    }

    /// Number of conflicts observed so far (for the experiments).
    pub fn conflicts(&self) -> u64 {
        self.slots.conflicts()
    }

    /// Number of keys with at least one lock held.
    pub fn locked_keys(&self) -> usize {
        self.slots.index.len()
    }

    /// Whether `txn` holds any lock.
    pub fn has_locks(&self, txn: TxnId) -> bool {
        self.slots.has_locks(txn)
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
    fn shared_locks_coexist() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), "a", LockMode::Shared).unwrap();
        lt.acquire(t(2), "a", LockMode::Shared).unwrap();
        assert!(lt.holds(t(1), "a", LockMode::Shared));
        assert!(lt.holds(t(2), "a", LockMode::Shared));
    }

    #[test]
    fn exclusive_conflicts_with_shared() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), "a", LockMode::Shared).unwrap();
        let err = lt.acquire(t(2), "a", LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, TxnError::WouldBlock { holder, .. } if holder == t(1)));
        assert_eq!(lt.conflicts(), 1);
    }

    #[test]
    fn exclusive_blocks_everything() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), "a", LockMode::Exclusive).unwrap();
        assert!(lt.acquire(t(2), "a", LockMode::Shared).is_err());
        assert!(lt.acquire(t(2), "a", LockMode::Exclusive).is_err());
        // Holder itself is unaffected (reentrant).
        lt.acquire(t(1), "a", LockMode::Shared).unwrap();
        lt.acquire(t(1), "a", LockMode::Exclusive).unwrap();
    }

    #[test]
    fn upgrade_when_sole_sharer() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), "a", LockMode::Shared).unwrap();
        lt.acquire(t(1), "a", LockMode::Exclusive).unwrap();
        assert!(lt.holds(t(1), "a", LockMode::Exclusive));
    }

    #[test]
    fn upgrade_denied_with_other_sharers() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), "a", LockMode::Shared).unwrap();
        lt.acquire(t(2), "a", LockMode::Shared).unwrap();
        assert!(lt.acquire(t(1), "a", LockMode::Exclusive).is_err());
        // Still holds its shared lock after the failed upgrade.
        assert!(lt.holds(t(1), "a", LockMode::Shared));
    }

    /// A refusal names the lowest-id other sharer, whatever order the
    /// sharers came in, and a sharer that leaves hands the place on.
    #[test]
    fn a_refusal_names_the_lowest_id_other_sharer() {
        let mut lt = LockTable::new();
        for n in [5, 3, 9, 4] {
            lt.acquire(t(n), "a", LockMode::Shared).unwrap();
        }
        let holder = |lt: &mut LockTable, n| match lt.acquire(t(n), "a", LockMode::Exclusive) {
            Err(TxnError::WouldBlock { holder, .. }) => holder,
            other => panic!("{other:?}"),
        };
        assert_eq!(holder(&mut lt, 3), t(4));
        assert_eq!(holder(&mut lt, 7), t(3));
        lt.release_all(t(3));
        lt.release_all(t(4));
        assert_eq!(holder(&mut lt, 9), t(5));
        lt.release_all(t(5));
        lt.acquire(t(9), "a", LockMode::Exclusive).unwrap();
        assert_eq!(holder(&mut lt, 3), t(9));
    }

    #[test]
    fn release_all_frees_keys() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), "a", LockMode::Exclusive).unwrap();
        lt.acquire(t(1), "b", LockMode::Shared).unwrap();
        assert!(lt.has_locks(t(1)));
        lt.release_all(t(1));
        assert!(!lt.has_locks(t(1)));
        assert_eq!(lt.locked_keys(), 0);
        lt.acquire(t(2), "a", LockMode::Exclusive).unwrap();
    }

    #[test]
    fn release_unknown_txn_is_noop() {
        let mut lt = LockTable::new();
        lt.release_all(t(9));
        assert_eq!(lt.locked_keys(), 0);
    }
}
