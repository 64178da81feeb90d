//! Per-node stable storage behind a pluggable backend trait.
//!
//! Stable storage survives node crashes — it holds agent input queues,
//! transaction decision records, and prepared writes. The public surface is
//! [`StableStore`], an ordered key-value map of byte strings with prefix
//! scans plus write accounting for the experiments; the durability substrate
//! behind it is a [`StableBackend`] chosen per world through
//! [`StableFactory`]:
//!
//! * [`MemBackend`] — the reference (model) backend: a plain ordered map
//!   with an undo list, so uncommitted mutations are rolled back by a
//!   crash. Its behaviour *is* the durability contract every other backend
//!   is tested against.
//! * [`wal::WalBackend`] — a log-structured backend: mutations append
//!   checksummed, length-framed records to a write-ahead log, a
//!   group-[`commit`] barrier makes them durable in one batch, the log is a
//!   sequence of segments that a cleaner keeps to a few (the oldest one's
//!   live records copied forward, then the segment unlinked), and recovery
//!   replays the segments in order, discarding any torn tail of the newest.
//!
//! The kernel brackets every service callback with
//! [`StableStore::begin_batch`] / [`StableStore::end_batch`], so the many
//! small writes a step transaction produces coalesce into one commit
//! barrier per event (counted under `stable.commits`). Mutations made
//! outside a batch — driver and test writes through
//! [`crate::World::stable_mut`] — auto-commit individually, keeping the
//! "stable means crash-surviving" contract for every caller.
//!
//! A barrier and a flush to the device are two steps. [`commit`] makes a
//! batch survive a node crash (and, on a file-backed WAL, writes it to the
//! head segment's file, so it survives the process too); [`sync`] flushes
//! everything committed so far to the device — one `fsync` of the head,
//! plus one of the directory when the cleaner unlinked or a roll created a
//! segment — so it survives the machine. The kernel's bracket commits
//! without syncing and syncs by the output-commit rule of
//! [`crate::World`]: before any other node can have seen a barrier's
//! effects, and before an entry point returns. Every other caller —
//! [`StableStore::commit`], [`StableStore::flush`], a forced mutation
//! outside a batch — commits and syncs at once.
//!
//! A mutation is *forced* unless it is made through
//! [`StableStore::delete_unforced`]. Only a forced mutation makes its batch
//! a barrier; an unforced one stays pending on the backend and becomes
//! durable with the node's next forced barrier (or
//! [`StableStore::flush`]) — a crash before then rolls it back.
//!
//! [`commit`]: StableBackend::commit
//! [`sync`]: StableBackend::sync

pub mod wal;

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

pub use wal::{WalBackend, WalConfig};

/// Operation counters reported by a [`StableBackend`].
///
/// `commits` and `records` are backend-independent by construction (every
/// backend counts the same mutations and the same barriers); the remaining
/// fields are populated only by backends with the matching mechanism (log,
/// device flushes, the cleaner, recovery replay).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Commit barriers that found at least one pending mutation.
    pub commits: u64,
    /// Log `fsync`s: a segment file flushed by [`StableBackend::sync`], by
    /// a segment roll (the closing head), or by recovery cutting a torn
    /// tail.
    pub syncs: u64,
    /// Directory `fsync`s: the ones that make a segment's create or unlink
    /// durable, at most one per [`StableBackend::sync`].
    pub dir_syncs: u64,
    /// Mutation records accepted (puts plus effective deletes).
    pub records: u64,
    /// Bytes appended to the write-ahead log (cumulative).
    pub wal_bytes: u64,
    /// Segments cleaned: the oldest segment's live frames copied to the
    /// head, so that it can be unlinked.
    pub checkpoints: u64,
    /// Bytes of live frames the cleaner copied (cumulative).
    pub checkpoint_bytes: u64,
    /// Recovery passes executed.
    pub recoveries: u64,
    /// Records replayed by recovery passes (cumulative).
    pub replayed_records: u64,
    /// Bytes read back (every live segment) by recovery passes
    /// (cumulative) — the recovery-cost axis of the chaos benchmarks.
    pub replayed_bytes: u64,
    /// Torn (partially written) log bytes discarded by recovery.
    pub torn_bytes_discarded: u64,
}

/// A durability substrate for one node's stable storage.
///
/// Backends are object-safe ([`crate::World`] holds them as
/// `Box<dyn StableBackend>`) and must uphold one contract, pinned by the
/// conformance suite in `tests/backend_conformance.rs`:
///
/// * the *view* (what [`get`]/[`iter`] observe) always reflects every
///   mutation applied so far, committed or not;
/// * [`commit`] makes all pending mutations crash-durable and returns
///   whether there were any — a *mutation* is a put, or a delete that
///   removed a present key;
/// * [`sync`] flushes what [`commit`] made durable to the device; it
///   changes nothing a [`crash`] keeps;
/// * [`crash`] destroys volatile state: the view reverts to the last
///   committed state;
/// * [`recover`] rebuilds the view after a crash and is idempotent.
///
/// [`get`]: StableBackend::get
/// [`iter`]: StableBackend::iter
/// [`commit`]: StableBackend::commit
/// [`sync`]: StableBackend::sync
/// [`crash`]: StableBackend::crash
/// [`recover`]: StableBackend::recover
pub trait StableBackend: Any + Send + fmt::Debug {
    /// Short backend name (used in factory `Debug` output and bench arms).
    fn name(&self) -> &'static str;

    /// Writes `value` under `key`, replacing any previous value.
    fn put(&mut self, key: String, value: Vec<u8>);

    /// Reads the value stored under `key`.
    fn get(&self, key: &str) -> Option<&[u8]>;

    /// Removes `key`, returning the previous value if present. Deleting an
    /// absent key is not a mutation (no record, no pending commit work).
    fn delete(&mut self, key: &str) -> Option<Vec<u8>>;

    /// [`delete`](Self::delete) for a caller that does not read the value:
    /// whether `key` was present. A backend that must keep the removed
    /// value itself keeps it without a copy.
    fn discard(&mut self, key: &str) -> bool {
        self.delete(key).is_some()
    }

    /// Number of entries in the view.
    fn len(&self) -> usize;

    /// Returns `true` if the view holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(key, value)` pairs in lexicographic key order.
    fn iter<'a>(&'a self) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a>;

    /// Iterates over the `(key, value)` pairs whose key starts with
    /// `prefix`, in lexicographic key order.
    fn iter_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a>;

    /// Group-commit barrier: makes every mutation since the previous
    /// barrier crash-durable. Returns `true` iff at least one mutation was
    /// pending (so callers can count occupied barriers consistently across
    /// backends).
    fn commit(&mut self) -> bool;

    /// Flushes every committed byte not yet on the device in one `fsync`.
    /// Returns `true` iff there was any. A simulated [`crash`] keeps what
    /// [`commit`] made durable whether or not it was synced; what `sync`
    /// adds is survival of the machine. The default — for backends with
    /// nothing below memory — does nothing.
    ///
    /// [`commit`]: StableBackend::commit
    /// [`crash`]: StableBackend::crash
    fn sync(&mut self) -> bool {
        false
    }

    /// Whether committed bytes, or a segment the cleaner freed, await a
    /// [`sync`](StableBackend::sync).
    fn unsynced(&self) -> bool {
        false
    }

    /// Simulates the node crash: volatile state is destroyed and the view
    /// reverts to the last committed state.
    fn crash(&mut self);

    /// Rebuilds the view after a crash. Idempotent: recovering twice leaves
    /// the same view as recovering once.
    fn recover(&mut self);

    /// Backend operation counters.
    fn stats(&self) -> BackendStats;

    /// Clones the backend including its current view and counters
    /// (object-safe stand-in for `Clone`).
    fn clone_backend(&self) -> Box<dyn StableBackend>;

    /// Downcast access for backend-specific test hooks (e.g. torn-tail
    /// injection on [`wal::WalBackend`]).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Ordered iteration over the keys of `map` starting with `prefix`.
fn prefix_range<'a, V>(
    map: &'a BTreeMap<String, V>,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a str, &'a V)> + 'a {
    map.range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(prefix))
        .map(|(k, v)| (k.as_str(), v))
}

/// The reference (model) backend: an ordered map plus an undo list of the
/// mutations since the last commit barrier, so a crash rolls uncommitted
/// work back. Simple enough to be obviously correct — the crash-injection
/// proptests compare every other backend against it.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    view: BTreeMap<String, Vec<u8>>,
    /// `(key, previous value)` per uncommitted mutation, applied in reverse
    /// on crash.
    undo: Vec<(String, Option<Vec<u8>>)>,
    stats: BackendStats,
}

impl MemBackend {
    /// Creates an empty reference backend.
    pub fn new() -> Self {
        MemBackend::default()
    }
}

impl StableBackend for MemBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn put(&mut self, key: String, value: Vec<u8>) {
        let prev = self.view.insert(key.clone(), value);
        self.undo.push((key, prev));
        self.stats.records += 1;
    }

    fn get(&self, key: &str) -> Option<&[u8]> {
        self.view.get(key).map(Vec::as_slice)
    }

    fn delete(&mut self, key: &str) -> Option<Vec<u8>> {
        let prev = self.view.remove(key)?;
        self.undo.push((key.to_owned(), Some(prev.clone())));
        self.stats.records += 1;
        Some(prev)
    }

    fn discard(&mut self, key: &str) -> bool {
        let Some(prev) = self.view.remove(key) else {
            return false;
        };
        self.undo.push((key.to_owned(), Some(prev)));
        self.stats.records += 1;
        true
    }

    fn len(&self) -> usize {
        self.view.len()
    }

    fn iter<'a>(&'a self) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a> {
        Box::new(self.view.iter().map(|(k, v)| (k.as_str(), v.as_slice())))
    }

    fn iter_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a> {
        Box::new(prefix_range(&self.view, prefix).map(|(k, v)| (k, v.as_slice())))
    }

    fn commit(&mut self) -> bool {
        let had_pending = !self.undo.is_empty();
        if had_pending {
            self.undo.clear();
            self.stats.commits += 1;
        }
        had_pending
    }

    fn crash(&mut self) {
        for (key, prev) in self.undo.drain(..).rev() {
            match prev {
                Some(v) => self.view.insert(key, v),
                None => self.view.remove(&key),
            };
        }
    }

    fn recover(&mut self) {
        self.stats.recoveries += 1;
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn clone_backend(&self) -> Box<dyn StableBackend> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Constructor for the stable backend of every node in a world — set on
/// [`crate::WorldConfig::stable`].
///
/// # Examples
///
/// ```
/// use mar_simnet::{StableFactory, WalConfig, WorldConfig};
/// let mut cfg = WorldConfig::with_seed(7);
/// cfg.stable = StableFactory::wal(WalConfig::default());
/// assert_eq!(cfg.stable.name(), "wal");
/// ```
#[derive(Clone)]
pub struct StableFactory {
    name: &'static str,
    make: Arc<dyn Fn(crate::node::NodeId) -> Box<dyn StableBackend> + Send + Sync>,
}

impl StableFactory {
    /// The reference in-memory backend (the default).
    pub fn reference() -> Self {
        StableFactory {
            name: "reference",
            make: Arc::new(|_| Box::new(MemBackend::new())),
        }
    }

    /// The log-structured WAL backend with the given tuning. With
    /// [`WalConfig::path`] set the backend is file-backed per node
    /// (recovering whatever an earlier process committed there); the
    /// factory is then named `"wal-file"`.
    pub fn wal(cfg: WalConfig) -> Self {
        let name = if cfg.path.is_some() {
            "wal-file"
        } else {
            "wal"
        };
        StableFactory {
            name,
            make: Arc::new(move |node| Box::new(WalBackend::open(cfg.clone(), node))),
        }
    }

    /// The backend name this factory produces.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Builds the backend instance for `node`.
    pub fn make(&self, node: crate::node::NodeId) -> Box<dyn StableBackend> {
        (self.make)(node)
    }

    /// Builds a [`StableStore`] wrapping a fresh backend instance for
    /// `node`.
    pub fn make_store(&self, node: crate::node::NodeId) -> StableStore {
        StableStore::with_backend(self.make(node))
    }
}

impl Default for StableFactory {
    fn default() -> Self {
        StableFactory::reference()
    }
}

impl fmt::Debug for StableFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StableFactory")
            .field("name", &self.name)
            .finish()
    }
}

/// Crash-surviving key-value store of one node.
///
/// Wraps a [`StableBackend`] with the write accounting the experiments
/// report and the group-commit batching protocol: between
/// [`begin_batch`](StableStore::begin_batch) and
/// [`end_batch`](StableStore::end_batch) (or
/// [`commit`](StableStore::commit)) mutations stay pending on the backend;
/// outside a batch every forced mutation auto-commits and syncs, so ad-hoc
/// writes are durable immediately.
///
/// # Examples
///
/// ```
/// use mar_simnet::StableStore;
/// let mut s = StableStore::new();
/// s.put("q/00001", b"agent".to_vec());
/// assert_eq!(s.get("q/00001"), Some(&b"agent"[..]));
/// assert_eq!(s.first_with_prefix("q/"), Some(("q/00001", &b"agent"[..])));
/// ```
#[derive(Debug)]
pub struct StableStore {
    backend: Box<dyn StableBackend>,
    write_ops: u64,
    bytes_written: u64,
    in_batch: bool,
    /// Whether the open batch holds a forced mutation.
    forced: bool,
}

impl Default for StableStore {
    fn default() -> Self {
        StableStore::with_backend(Box::new(MemBackend::new()))
    }
}

impl Clone for StableStore {
    fn clone(&self) -> Self {
        StableStore {
            backend: self.backend.clone_backend(),
            write_ops: self.write_ops,
            bytes_written: self.bytes_written,
            in_batch: self.in_batch,
            forced: self.forced,
        }
    }
}

impl StableStore {
    /// Creates an empty store on the reference backend.
    pub fn new() -> Self {
        StableStore::default()
    }

    /// Creates an empty store on the given backend.
    pub fn with_backend(backend: Box<dyn StableBackend>) -> Self {
        StableStore {
            backend,
            write_ops: 0,
            bytes_written: 0,
            in_batch: false,
            forced: false,
        }
    }

    /// Creates an empty store on a WAL backend (convenience for tests).
    pub fn wal(cfg: WalConfig) -> Self {
        StableStore::with_backend(Box::new(WalBackend::new(cfg)))
    }

    /// Called after a forced mutation: marks the open batch a barrier, or
    /// commits and syncs at once outside a batch.
    fn forced_mutation(&mut self) {
        if self.in_batch {
            self.forced = true;
        } else {
            self.backend.commit();
            self.backend.sync();
        }
    }

    /// Writes `value` under `key`, replacing any previous value.
    pub fn put(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.write_ops += 1;
        self.bytes_written += value.len() as u64;
        self.backend.put(key.into(), value);
        self.forced_mutation();
    }

    /// Reads the value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.backend.get(key)
    }

    /// Removes `key`, returning the previous value if present.
    pub fn delete(&mut self, key: &str) -> Option<Vec<u8>> {
        let prev = self.backend.delete(key);
        if prev.is_some() {
            self.write_ops += 1;
            self.forced_mutation();
        }
        prev
    }

    /// Removes `key` without forcing: the delete is pending on the backend,
    /// in or out of a batch, until the node's next forced barrier, and a
    /// crash before that brings the key back. Only for a record whose
    /// resurrection the caller tolerates. Accounted like
    /// [`delete`](StableStore::delete); returns whether `key` was present,
    /// not its value, which no such caller reads.
    pub fn delete_unforced(&mut self, key: &str) -> bool {
        let present = self.backend.discard(key);
        self.write_ops += u64::from(present);
        present
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.backend.get(key).is_some()
    }

    /// All keys starting with `prefix`, in lexicographic order.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.backend
            .iter_prefix(prefix)
            .map(|(k, _)| k.to_owned())
            .collect()
    }

    /// The lexicographically first `(key, value)` pair under `prefix`,
    /// borrowed from the store (hot queue polls copy nothing).
    pub fn first_with_prefix<'a>(&'a self, prefix: &'a str) -> Option<(&'a str, &'a [u8])> {
        self.backend.iter_prefix(prefix).next()
    }

    /// Number of entries under `prefix`.
    pub fn count_with_prefix(&self, prefix: &str) -> usize {
        self.backend.iter_prefix(prefix).count()
    }

    /// Deletes every key under `prefix`, returning how many were removed.
    /// Each removed key counts as one write operation, exactly as the
    /// equivalent sequence of [`delete`](StableStore::delete) calls would.
    pub fn delete_prefix(&mut self, prefix: &str) -> usize {
        let keys = self.keys_with_prefix(prefix);
        for k in &keys {
            self.backend.discard(k);
        }
        let n = keys.len();
        self.write_ops += n as u64;
        if n > 0 {
            self.forced_mutation();
        }
        n
    }

    /// Number of entries in the store.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Returns `true` if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Total write operations performed (including deletes).
    pub fn write_ops(&self) -> u64 {
        self.write_ops
    }

    /// Total bytes written by `put` calls.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Iterates over all `(key, value)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.backend.iter()
    }

    // ----- batching and crash/recovery (kernel protocol) ------------------

    /// Opens a group-commit batch: subsequent mutations stay pending until
    /// [`end_batch`](StableStore::end_batch) or
    /// [`commit`](StableStore::commit). The kernel brackets every service
    /// callback with `begin_batch`/`end_batch`.
    pub fn begin_batch(&mut self) {
        self.in_batch = true;
    }

    /// Closes the batch without syncing. A batch that holds a forced
    /// mutation is a barrier: every pending mutation, unforced ones from
    /// earlier batches included, becomes crash-durable at once, and the call
    /// returns `true`. A batch without one leaves its mutations pending and
    /// returns `false`. What the barrier committed reaches the device at the
    /// next [`sync`](StableStore::sync).
    pub fn end_batch(&mut self) -> bool {
        self.in_batch = false;
        std::mem::take(&mut self.forced) && self.backend.commit()
    }

    /// [`end_batch`](StableStore::end_batch), then a
    /// [`sync`](StableStore::sync): the barrier is on the device when the
    /// call returns.
    pub fn commit(&mut self) -> bool {
        let barrier = self.end_batch();
        self.backend.sync();
        barrier
    }

    /// A barrier whatever the batch holds: makes every pending mutation,
    /// unforced ones included, crash-durable, and syncs. Returns `true` iff
    /// any was pending. A graceful shutdown calls this, so that a restart
    /// never depends on torn-tail discard.
    pub fn flush(&mut self) -> bool {
        self.in_batch = false;
        self.forced = false;
        let had_pending = self.backend.commit();
        self.backend.sync();
        had_pending
    }

    /// Flushes every committed byte not yet on the device (one `fsync` on
    /// a file-backed WAL). Returns `true` iff there was any.
    pub fn sync(&mut self) -> bool {
        self.backend.sync()
    }

    /// Whether committed bytes await a [`sync`](StableStore::sync).
    pub fn unsynced(&self) -> bool {
        self.backend.unsynced()
    }

    /// Crash hook: destroys backend volatile state; uncommitted mutations
    /// are lost.
    pub fn crash_volatile(&mut self) {
        self.in_batch = false;
        self.forced = false;
        self.backend.crash();
    }

    /// Recovery hook: rebuilds the backend view (idempotent).
    pub fn recover(&mut self) {
        self.backend.recover();
    }

    /// Operation counters of the underlying backend.
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Name of the underlying backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Direct access to the backend (backend-specific test hooks).
    pub fn backend_mut(&mut self) -> &mut dyn StableBackend {
        &mut *self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut s = StableStore::new();
        assert!(s.is_empty());
        s.put("a", vec![1]);
        assert!(s.contains("a"));
        assert_eq!(s.get("a"), Some(&[1u8][..]));
        assert_eq!(s.delete("a"), Some(vec![1]));
        assert_eq!(s.delete("a"), None);
        assert!(s.is_empty());
    }

    #[test]
    fn prefix_scans_ordered() {
        let mut s = StableStore::new();
        s.put("q/2", vec![2]);
        s.put("q/1", vec![1]);
        s.put("r/1", vec![9]);
        assert_eq!(s.keys_with_prefix("q/"), ["q/1", "q/2"]);
        assert_eq!(s.first_with_prefix("q/").unwrap().0, "q/1");
        assert_eq!(s.count_with_prefix("q/"), 2);
        assert_eq!(s.first_with_prefix("zz"), None);
    }

    #[test]
    fn delete_prefix_removes_only_matches() {
        let mut s = StableStore::new();
        s.put("q/1", vec![]);
        s.put("q/2", vec![]);
        s.put("x", vec![]);
        assert_eq!(s.delete_prefix("q/"), 2);
        assert_eq!(s.len(), 1);
        assert!(s.contains("x"));
    }

    #[test]
    fn write_accounting() {
        let mut s = StableStore::new();
        s.put("a", vec![0; 10]);
        s.put("b", vec![0; 5]);
        s.delete("a");
        assert_eq!(s.write_ops(), 3);
        assert_eq!(s.bytes_written(), 15);
    }

    #[test]
    fn delete_prefix_counts_one_op_per_removed_key() {
        // Pinned: removing N keys through `delete_prefix` accounts exactly
        // like N individual `delete` calls.
        let mut bulk = StableStore::new();
        let mut single = StableStore::new();
        for s in [&mut bulk, &mut single] {
            s.put("q/1", vec![1]);
            s.put("q/2", vec![2]);
            s.put("q/3", vec![3]);
            s.put("x", vec![9]);
        }
        assert_eq!(bulk.delete_prefix("q/"), 3);
        for k in ["q/1", "q/2", "q/3"] {
            single.delete(k);
        }
        assert_eq!(bulk.write_ops(), single.write_ops());
        assert_eq!(bulk.write_ops(), 4 + 3);
        // Deleting a prefix with no matches is not a write.
        let before = bulk.write_ops();
        assert_eq!(bulk.delete_prefix("none/"), 0);
        assert_eq!(bulk.write_ops(), before);
    }

    #[test]
    fn first_with_prefix_borrows() {
        let mut s = StableStore::new();
        s.put("q/1", vec![7]);
        let (k, v): (&str, &[u8]) = s.first_with_prefix("q/").unwrap();
        assert_eq!((k, v), ("q/1", &[7u8][..]));
    }

    #[test]
    fn prefix_is_not_confused_by_similar_keys() {
        let mut s = StableStore::new();
        s.put("ab", vec![]);
        s.put("abc", vec![]);
        s.put("abd", vec![]);
        assert_eq!(s.keys_with_prefix("abc"), ["abc"]);
    }

    #[test]
    fn reference_backend_crash_drops_uncommitted_batch() {
        let mut s = StableStore::new();
        s.put("committed", vec![1]);
        s.begin_batch();
        s.put("pending", vec![2]);
        s.delete("committed");
        s.crash_volatile();
        s.recover();
        assert_eq!(s.get("committed"), Some(&[1u8][..]));
        assert_eq!(s.get("pending"), None);
    }

    #[test]
    fn commit_reports_batch_occupancy() {
        let mut s = StableStore::new();
        s.begin_batch();
        assert!(!s.commit(), "empty batch");
        s.begin_batch();
        s.delete("missing");
        assert!(!s.commit(), "no-op delete is not a mutation");
        s.begin_batch();
        s.put("k", vec![1]);
        assert!(s.commit(), "batch with a mutation");
    }

    /// An empty store on each backend.
    fn stores() -> [StableStore; 2] {
        [StableStore::new(), StableStore::wal(WalConfig::default())]
    }

    /// The WAL's durable log length; `None` on the reference backend.
    fn durable_log_len(s: &mut StableStore) -> Option<usize> {
        let wal = s.backend_mut().as_any_mut().downcast_mut::<WalBackend>();
        wal.map(|wal| wal.durable_log_len())
    }

    #[test]
    fn an_unforced_delete_is_not_a_barrier_and_rides_the_next_one() {
        for mut s in stores() {
            let name = s.backend_name();
            s.put("decision", vec![1]);
            let (commits, durable) = (s.backend_stats().commits, durable_log_len(&mut s));
            s.begin_batch();
            assert!(s.delete_unforced("decision"), "{name}");
            assert!(
                !s.delete_unforced("decision"),
                "{name}: absent, no mutation"
            );
            assert!(!s.contains("decision"), "{name}: the view has the delete");
            assert!(!s.commit(), "{name}: an unforced delete forces nothing");
            assert_eq!(s.backend_stats().commits, commits, "{name}");
            assert_eq!(durable_log_len(&mut s), durable, "{name}");
            assert_eq!(s.write_ops(), 2, "{name}: accounted like a delete");

            // The next forced batch carries it.
            s.begin_batch();
            s.put("other", vec![2]);
            assert!(s.commit(), "{name}");
            assert_eq!(s.backend_stats().commits, commits + 1, "{name}");
            s.crash_volatile();
            s.recover();
            assert!(!s.contains("decision"), "{name}: durable with the barrier");
            assert_eq!(s.get("other"), Some(&[2u8][..]), "{name}");
        }
    }

    #[test]
    fn a_crash_before_the_next_barrier_restores_an_unforced_delete() {
        for mut s in stores() {
            let name = s.backend_name();
            s.put("decision", vec![1]);
            s.put("x", vec![3]);
            s.begin_batch();
            s.delete_unforced("decision");
            assert!(!s.commit(), "{name}");
            // Outside a batch an unforced delete does not auto-commit either.
            s.delete_unforced("x");
            s.crash_volatile();
            s.recover();
            assert_eq!(s.get("decision"), Some(&[1u8][..]), "{name}");
            assert_eq!(s.get("x"), Some(&[3u8][..]), "{name}");
        }
    }

    #[test]
    fn flush_makes_an_unforced_delete_durable() {
        for mut s in stores() {
            let name = s.backend_name();
            s.put("decision", vec![1]);
            s.begin_batch();
            s.delete_unforced("decision");
            assert!(s.flush(), "{name}: the pending delete is flushed");
            assert!(!s.flush(), "{name}: nothing left pending");
            s.crash_volatile();
            s.recover();
            assert!(!s.contains("decision"), "{name}");
        }
    }

    /// An empty store on each backend, the WAL file-backed in a directory
    /// of its own (removed by the caller).
    fn stores_on_disk(tag: &str) -> ([StableStore; 2], std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("mar-stable-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = WalConfig {
            path: Some(dir.clone()),
            ..WalConfig::default()
        };
        let wal = StableStore::with_backend(Box::new(WalBackend::open(cfg, crate::NodeId(0))));
        ([StableStore::new(), wal], dir)
    }

    #[test]
    fn end_batch_commits_without_syncing() {
        let (stores, dir) = stores_on_disk("end-batch");
        for mut s in stores {
            let on_disk = s.backend_name() == "wal";
            for i in 0..3u8 {
                s.begin_batch();
                s.put(format!("k{i}"), vec![i]);
                assert!(s.end_batch(), "a forced batch is a barrier");
            }
            assert_eq!(s.backend_stats().commits, 3);
            assert_eq!(s.unsynced(), on_disk);
            assert_eq!(s.backend_stats().syncs, 0);
            // One sync covers the three barriers.
            assert_eq!(s.sync(), on_disk);
            assert!(!s.unsynced());
            assert_eq!(s.backend_stats().syncs, u64::from(on_disk));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_flush_and_an_out_of_batch_put_each_sync_at_once() {
        let (stores, dir) = stores_on_disk("sync-at-once");
        for mut s in stores {
            let per_call = u64::from(s.backend_name() == "wal");
            s.begin_batch();
            s.put("a", vec![1]);
            assert!(s.commit());
            assert!(!s.unsynced());
            assert_eq!(s.backend_stats().syncs, per_call);
            s.begin_batch();
            s.delete_unforced("a");
            assert!(s.flush());
            assert!(!s.unsynced());
            assert_eq!(s.backend_stats().syncs, 2 * per_call);
            s.put("b", vec![2]);
            assert!(!s.unsynced());
            assert_eq!(s.backend_stats().syncs, 3 * per_call);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_after_an_unsynced_barrier_keeps_it() {
        let (stores, dir) = stores_on_disk("crash-unsynced");
        for mut s in stores {
            let name = s.backend_name();
            s.begin_batch();
            s.put("k", vec![7]);
            assert!(s.end_batch());
            s.begin_batch();
            s.put("pending", vec![8]);
            s.crash_volatile();
            s.recover();
            assert_eq!(s.get("k"), Some(&[7u8][..]), "{name}");
            assert_eq!(s.get("pending"), None, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn factory_builds_named_backends() {
        assert_eq!(StableFactory::default().name(), "reference");
        assert_eq!(StableFactory::wal(WalConfig::default()).name(), "wal");
        let store = StableFactory::default().make_store(crate::node::NodeId(0));
        assert_eq!(store.backend_name(), "reference");
    }

    #[test]
    fn clone_preserves_view_and_accounting() {
        let mut s = StableStore::wal(WalConfig::default());
        s.put("a", vec![1, 2, 3]);
        let c = s.clone();
        assert_eq!(c.get("a"), Some(&[1u8, 2, 3][..]));
        assert_eq!(c.write_ops(), s.write_ops());
        assert_eq!(c.backend_stats(), s.backend_stats());
    }
}
