//! Resource managers and their registry.
//!
//! A resource manager exposes named operations invoked from agent steps and
//! from compensating operations. All operations of a step run inside the
//! *step transaction* (paper §2); commit/abort fans out to every manager on
//! the node.
//!
//! Durability is log + checkpoint at this boundary: a transaction yields
//! one delta record per manager it wrote to, stored when it prepares — or,
//! without a prepare, when it commits — and the registry decides by a fixed
//! size rule when a manager's committed deltas are folded into a fresh base
//! image ([`RmRegistry::prepare_all`], [`RmRegistry::commit_all`]). The
//! hosting node only maps the resulting [`RmWrite`]s onto its stable storage.
//!
//! Delta records are numbered per manager, monotonically: a prepared record
//! is stored under its final number, and two transactions that write one key
//! store their records in the order two-phase locking ran them. So recovery
//! restores the base, then applies the stored records in number order —
//! committed ones with [`RmRegistry::apply_delta`], in-doubt ones under
//! their transaction with [`RmRegistry::redo_delta`].

use std::collections::{BTreeMap, BTreeSet};

use mar_simnet::SimTime;
use mar_wire::Value;

use crate::error::TxnError;
use crate::id::TxnId;
use crate::store::TxStore;

/// Per-invocation context handed to resource operations.
#[derive(Debug, Clone, Copy)]
pub struct OpCtx {
    /// The enclosing (step or compensation) transaction.
    pub txn: TxnId,
    /// Current virtual time — used by time-dependent policies such as
    /// refund windows.
    pub now: SimTime,
}

/// A transactional resource hosted on a node.
///
/// Implementations keep their state in a [`crate::TxStore`] (or anything
/// with equivalent undo/lock semantics) so that `abort` really reverts.
/// Managers must be `Send`: the hosting node may be processed by any of the
/// simulator's worker-thread shards.
pub trait ResourceManager: Send {
    /// The resource's registry name (unique per node), e.g. `"bank"`.
    fn name(&self) -> &str;

    /// Executes `op` with `params` inside transaction `ctx.txn`.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] on lock conflicts (caller aborts and
    /// retries), [`TxnError::Rejected`] for business rules, or
    /// [`TxnError::BadRequest`] for malformed parameters.
    fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError>;

    /// The transactional store the resource keeps its state in; the seven
    /// methods below are this store's.
    fn store(&self) -> &TxStore;

    /// [`store`](Self::store), mutably.
    fn store_mut(&mut self) -> &mut TxStore;

    /// The transaction's effects on this resource as a delta record for
    /// stable storage: what `txn` wrote, plus the high-water mark of any
    /// sequence counter the resource keeps. `None` if the transaction changed
    /// nothing here. The transaction stays live and keeps its locks.
    fn prepare(&self, txn: TxnId) -> Option<Vec<u8>> {
        self.store().delta(txn)
    }

    /// Makes the transaction's effects on this resource permanent.
    fn commit(&mut self, txn: TxnId) {
        self.store_mut().commit(txn);
    }

    /// Reverts the transaction's effects on this resource.
    fn abort(&mut self, txn: TxnId) {
        self.store_mut().abort(txn);
    }

    /// Serializes the committed state — the base image. Other transactions
    /// may be live; none of their writes may appear in it.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    fn snapshot(&self) -> Result<Vec<u8>, TxnError> {
        Ok(self.store().snapshot()?)
    }

    /// Restores committed state from a base image after a crash.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), TxnError> {
        Ok(self.store_mut().restore(bytes)?)
    }

    /// Re-applies a delta record [`prepare`](Self::prepare) returned, on top
    /// of the restored base and every earlier delta (crash recovery).
    ///
    /// # Errors
    ///
    /// Codec errors only.
    fn apply_delta(&mut self, bytes: &[u8]) -> Result<(), TxnError> {
        Ok(self.store_mut().apply_delta(bytes)?)
    }

    /// Redoes a delta record [`prepare`](Self::prepare) returned under its
    /// transaction `txn`, which is in doubt after a crash: locks and all, so
    /// that the decision can still commit or abort it.
    ///
    /// # Errors
    ///
    /// Codec errors, or a lock conflict two-phase locking rules out.
    fn redo(&mut self, txn: TxnId, bytes: &[u8]) -> Result<(), TxnError> {
        self.store_mut().redo(txn, bytes)
    }

    /// Reports the committed money this resource holds, as a map from
    /// currency code to amount — the raw material of the conservation
    /// audits in the test suite. Resources that hold no money (registries,
    /// read-only services) keep the default.
    fn audit_money(&self) -> Value {
        Value::Null
    }
}

/// One stable-storage update a prepare or a commit asks of the hosting
/// node. All writes of one [`RmRegistry::prepare_all`] or
/// [`RmRegistry::commit_all`] belong to that call's own atomic stable batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmWrite {
    /// Store delta record number `seq` of resource `name`.
    Delta {
        /// The resource.
        name: String,
        /// The record's number, above every number the resource issued before.
        seq: u64,
        /// The record.
        bytes: Vec<u8>,
    },
    /// Replace the base image of resource `name` and drop its committed
    /// delta records numbered `folded`, which the image now contains.
    Base {
        /// The resource.
        name: String,
        /// The committed state.
        bytes: Vec<u8>,
        /// The delta records the image supersedes, by number.
        folded: Vec<u64>,
    },
}

/// A registered manager and what stable storage holds for it.
struct Hosted {
    rm: Box<dyn ResourceManager>,
    /// Size of the stored base image; `None` until the first record that
    /// touches the resource writes one.
    base_len: Option<usize>,
    /// Committed delta records stored behind the base: their numbers, and
    /// their bytes in total.
    committed: BTreeSet<u64>,
    delta_bytes: usize,
    /// Delta records stored by prepared transactions still in doubt: number
    /// and size. A fold leaves them stored; the decision commits or drops them.
    in_doubt: BTreeMap<TxnId, (u64, usize)>,
    /// The highest delta number issued.
    last_seq: u64,
}

impl Hosted {
    /// Whether a record of `len` bytes is a fold's turn: once the committed
    /// deltas stored since the last base image would reach that image's own
    /// size with it, and at the first record, when there is no image.
    fn folds_at(&self, len: usize) -> bool {
        self.base_len
            .map_or(true, |base| self.delta_bytes + len >= base)
    }

    /// A fresh base image of the committed state, superseding every
    /// committed delta record; in-doubt ones stay, as the image leaves their
    /// writes out.
    fn fold(&mut self, name: &str) -> Result<RmWrite, TxnError> {
        let bytes = self.rm.snapshot()?;
        self.base_len = Some(bytes.len());
        self.delta_bytes = 0;
        Ok(RmWrite::Base {
            name: name.to_owned(),
            bytes,
            folded: Vec::from_iter(std::mem::take(&mut self.committed)),
        })
    }

    fn next_delta(&mut self, name: &str, bytes: Vec<u8>) -> (u64, RmWrite) {
        self.last_seq += 1;
        let seq = self.last_seq;
        let name = name.to_owned();
        (seq, RmWrite::Delta { name, seq, bytes })
    }
}

/// The set of resource managers on one node.
#[derive(Default)]
pub struct RmRegistry {
    rms: BTreeMap<String, Hosted>,
}

impl RmRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        RmRegistry::default()
    }

    /// Registers a resource manager.
    ///
    /// # Panics
    ///
    /// Panics if a resource with the same name already exists.
    pub fn register(&mut self, rm: Box<dyn ResourceManager>) {
        let name = rm.name().to_owned();
        let hosted = Hosted {
            rm,
            base_len: None,
            committed: BTreeSet::new(),
            delta_bytes: 0,
            in_doubt: BTreeMap::new(),
            last_seq: 0,
        };
        let prev = self.rms.insert(name.clone(), hosted);
        assert!(prev.is_none(), "resource {name:?} registered twice");
    }

    /// Invokes an operation on the named resource.
    ///
    /// # Errors
    ///
    /// [`TxnError::NoSuchResource`] if the resource is absent, otherwise
    /// whatever the resource returns.
    pub fn invoke(
        &mut self,
        ctx: OpCtx,
        resource: &str,
        op: &str,
        params: &Value,
    ) -> Result<Value, TxnError> {
        let hosted = self
            .rms
            .get_mut(resource)
            .ok_or_else(|| TxnError::NoSuchResource(resource.to_owned()))?;
        hosted.rm.invoke(ctx, op, params)
    }

    /// Prepares `txn` on every resource and returns what the host must write
    /// to stable storage for it, in the prepare's own forced batch: per
    /// resource the transaction wrote to, its delta record under its final
    /// number — preceded, when the size rule says it is a fold's turn, by a
    /// fresh base image of the committed state that supersedes the committed
    /// deltas. The transaction keeps its locks and stays in doubt until
    /// [`commit_all`](Self::commit_all), which then writes nothing, or
    /// [`abort_all`](Self::abort_all), after which the host deletes the
    /// records. Preparing twice writes nothing the second time.
    ///
    /// # Errors
    ///
    /// Codec errors from a base image.
    pub fn prepare_all(&mut self, txn: TxnId) -> Result<Vec<RmWrite>, TxnError> {
        let mut writes = Vec::new();
        for (name, hosted) in &mut self.rms {
            if hosted.in_doubt.contains_key(&txn) {
                continue;
            }
            let Some(bytes) = hosted.rm.prepare(txn) else {
                continue;
            };
            if hosted.folds_at(bytes.len()) {
                writes.push(hosted.fold(name)?);
            }
            let len = bytes.len();
            let (seq, write) = hosted.next_delta(name, bytes);
            hosted.in_doubt.insert(txn, (seq, len));
            writes.push(write);
        }
        Ok(writes)
    }

    /// Commits `txn` on every resource and returns what the host must write
    /// to stable storage for it. A prepared transaction's records are stored
    /// already: they become committed ones, and nothing is written. Without
    /// a prepare, per resource the transaction wrote to: its delta record —
    /// or, when it is a fold's turn, a fresh base image that contains the
    /// commit and supersedes the committed deltas. The rule keeps both the
    /// bytes written per commit and the records replayed at recovery
    /// proportional to what transactions wrote, however large the resource
    /// grows. A resource the transaction did not touch writes nothing.
    ///
    /// # Errors
    ///
    /// Codec errors from a base image.
    pub fn commit_all(&mut self, txn: TxnId) -> Result<Vec<RmWrite>, TxnError> {
        let mut writes = Vec::new();
        for (name, hosted) in &mut self.rms {
            if let Some((seq, len)) = hosted.in_doubt.remove(&txn) {
                hosted.rm.commit(txn);
                hosted.committed.insert(seq);
                hosted.delta_bytes += len;
                continue;
            }
            let bytes = hosted.rm.prepare(txn);
            hosted.rm.commit(txn);
            let Some(bytes) = bytes else {
                continue;
            };
            if hosted.folds_at(bytes.len()) {
                writes.push(hosted.fold(name)?);
            } else {
                hosted.delta_bytes += bytes.len();
                let (seq, write) = hosted.next_delta(name, bytes);
                hosted.committed.insert(seq);
                writes.push(write);
            }
        }
        Ok(writes)
    }

    /// Aborts `txn` on every resource. A prepared transaction's records are
    /// the host's to delete.
    pub fn abort_all(&mut self, txn: TxnId) {
        for hosted in self.rms.values_mut() {
            hosted.rm.abort(txn);
            hosted.in_doubt.remove(&txn);
        }
    }

    /// Crash recovery, first step: restores resource `name` from its stored
    /// base image (ignores unknown names so nodes can be reconfigured
    /// between runs).
    ///
    /// # Errors
    ///
    /// Codec errors from the resource. It then keeps its factory state, and
    /// [`apply_delta`](Self::apply_delta) and
    /// [`redo_delta`](Self::redo_delta) refuse its delta records.
    pub fn restore_base(&mut self, name: &str, bytes: &[u8]) -> Result<(), TxnError> {
        if let Some(hosted) = self.rms.get_mut(name) {
            hosted.base_len = None;
            hosted.committed.clear();
            hosted.delta_bytes = 0;
            hosted.in_doubt.clear();
            hosted.rm.restore(bytes)?;
            hosted.base_len = Some(bytes.len());
        }
        Ok(())
    }

    /// Crash recovery, next steps: re-applies the committed delta record
    /// number `seq` of resource `name`. Call after
    /// [`restore_base`](Self::restore_base), once per stored record in
    /// number order (with [`redo_delta`](Self::redo_delta) for the in-doubt
    /// ones); the registry then continues the numbering past the highest
    /// stored number, and the fold rule exactly where the crashed one stood.
    ///
    /// # Errors
    ///
    /// Codec errors from the resource. Replay of that resource stops there:
    /// it stays at the committed state before the bad record instead of
    /// taking later deltas on top of a hole, every later record is refused,
    /// and the next record that touches it is preceded by a base image that
    /// supersedes all of them.
    pub fn apply_delta(&mut self, name: &str, seq: u64, bytes: &[u8]) -> Result<(), TxnError> {
        let Some(hosted) = self.rms.get_mut(name) else {
            return Ok(());
        };
        // Counted even if refused, so the next base folds it away.
        hosted.last_seq = hosted.last_seq.max(seq);
        hosted.committed.insert(seq);
        hosted.delta_bytes += bytes.len();
        Self::replay(hosted, name, seq, |rm| rm.apply_delta(bytes))
    }

    /// Crash recovery: redoes delta record number `seq` of resource `name`,
    /// which the prepared transaction `txn` stored and which is in doubt,
    /// under `txn` — its keys locked again, as before the crash — so the
    /// decision [`commit_all`](Self::commit_all) or
    /// [`abort_all`](Self::abort_all) finishes it. Called in number order
    /// among the [`apply_delta`](Self::apply_delta) calls.
    ///
    /// # Errors
    ///
    /// As [`apply_delta`](Self::apply_delta).
    pub fn redo_delta(
        &mut self,
        name: &str,
        seq: u64,
        txn: TxnId,
        bytes: &[u8],
    ) -> Result<(), TxnError> {
        let Some(hosted) = self.rms.get_mut(name) else {
            return Ok(());
        };
        hosted.last_seq = hosted.last_seq.max(seq);
        hosted.in_doubt.insert(txn, (seq, bytes.len()));
        Self::replay(hosted, name, seq, |rm| rm.redo(txn, bytes))
    }

    fn replay(
        hosted: &mut Hosted,
        name: &str,
        seq: u64,
        apply: impl FnOnce(&mut dyn ResourceManager) -> Result<(), TxnError>,
    ) -> Result<(), TxnError> {
        if hosted.base_len.is_none() {
            return Err(TxnError::Codec(format!(
                "delta {seq} of {name:?} follows a record that did not restore"
            )));
        }
        let applied = apply(hosted.rm.as_mut());
        if applied.is_err() {
            hosted.base_len = None;
        }
        applied
    }

    /// Direct access to a resource (test inspection).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Box<dyn ResourceManager>> {
        self.rms.get_mut(name).map(|hosted| &mut hosted.rm)
    }

    /// Direct read access to a resource.
    pub fn get(&self, name: &str) -> Option<&dyn ResourceManager> {
        self.rms.get(name).map(|hosted| hosted.rm.as_ref())
    }

    /// Sums `audit_money` over all resources, per currency.
    pub fn audit_money(&self) -> std::collections::BTreeMap<String, i64> {
        let mut out = std::collections::BTreeMap::new();
        for hosted in self.rms.values() {
            if let Value::Map(m) = hosted.rm.audit_money() {
                for (cur, v) in m {
                    if let Some(amount) = v.as_i64() {
                        *out.entry(cur).or_insert(0) += amount;
                    }
                }
            }
        }
        out
    }

    /// Registered resource names.
    pub fn names(&self) -> Vec<String> {
        self.rms.keys().cloned().collect()
    }

    /// Number of registered resources.
    pub fn len(&self) -> usize {
        self.rms.len()
    }

    /// True if no resources are registered.
    pub fn is_empty(&self) -> bool {
        self.rms.is_empty()
    }
}

impl std::fmt::Debug for RmRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmRegistry")
            .field("resources", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_simnet::NodeId;

    /// A trivial counter resource used to exercise the registry plumbing.
    struct Counter {
        store: TxStore,
    }

    impl Counter {
        fn new() -> Self {
            let mut store = TxStore::new();
            store.seed("n", mar_wire::to_bytes(&0i64).unwrap());
            // Ballast, so the base image outweighs a few deltas.
            store.seed("pad", vec![0; 32]);
            Counter { store }
        }
    }

    impl ResourceManager for Counter {
        fn name(&self) -> &str {
            "counter"
        }

        fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError> {
            match op {
                "add" => {
                    let delta = params
                        .as_i64()
                        .ok_or_else(|| TxnError::BadRequest("add expects an integer".to_owned()))?;
                    let cur: i64 =
                        mar_wire::from_slice(self.store.read(ctx.txn, "n")?.unwrap_or(&[]))?;
                    let next = cur + delta;
                    self.store.write(ctx.txn, "n", mar_wire::to_bytes(&next)?)?;
                    Ok(Value::from(next))
                }
                "pad" => {
                    self.store.write(ctx.txn, "pad", vec![1; 32])?;
                    Ok(Value::Null)
                }
                "get" => {
                    let cur: i64 =
                        mar_wire::from_slice(self.store.read(ctx.txn, "n")?.unwrap_or(&[]))?;
                    Ok(Value::from(cur))
                }
                other => Err(TxnError::BadRequest(format!("unknown op {other}"))),
            }
        }

        fn store(&self) -> &TxStore {
            &self.store
        }

        fn store_mut(&mut self) -> &mut TxStore {
            &mut self.store
        }
    }

    fn ctx(seq: u64) -> OpCtx {
        OpCtx {
            txn: TxnId::new(NodeId(0), seq),
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn invoke_commit_abort_cycle() {
        let mut reg = RmRegistry::new();
        reg.register(Box::new(Counter::new()));
        let v = reg
            .invoke(ctx(1), "counter", "add", &Value::from(5i64))
            .unwrap();
        assert_eq!(v.as_i64(), Some(5));
        reg.commit_all(ctx(1).txn).unwrap();

        reg.invoke(ctx(2), "counter", "add", &Value::from(3i64))
            .unwrap();
        reg.abort_all(ctx(2).txn);
        let v = reg.invoke(ctx(3), "counter", "get", &Value::Null).unwrap();
        assert_eq!(v.as_i64(), Some(5), "aborted add must not stick");
    }

    #[test]
    fn unknown_resource_and_op() {
        let mut reg = RmRegistry::new();
        reg.register(Box::new(Counter::new()));
        assert!(matches!(
            reg.invoke(ctx(1), "nope", "get", &Value::Null),
            Err(TxnError::NoSuchResource(_))
        ));
        assert!(matches!(
            reg.invoke(ctx(1), "counter", "nope", &Value::Null),
            Err(TxnError::BadRequest(_))
        ));
    }

    /// The first commit writes the base, later ones a delta each until the
    /// deltas would outweigh the base; numbers only grow; a read-only commit
    /// writes nothing; base + deltas recover the committed value.
    #[test]
    fn snapshot_restore_via_registry() {
        let mut reg = RmRegistry::new();
        reg.register(Box::new(Counter::new()));
        let mut base = Vec::new();
        let mut deltas: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut folds = 0;
        let mut last = 0;
        for seq in 1..=8 {
            reg.invoke(ctx(seq), "counter", "add", &Value::from(3i64))
                .unwrap();
            for w in reg.commit_all(ctx(seq).txn).unwrap() {
                match w {
                    RmWrite::Base {
                        name,
                        bytes,
                        folded,
                    } => {
                        assert_eq!(name, "counter");
                        assert_eq!(folded, Vec::from_iter(deltas.iter().map(|d| d.0)));
                        folds += u64::from(!folded.is_empty());
                        base = bytes;
                        deltas.clear();
                    }
                    RmWrite::Delta { seq, bytes, .. } => {
                        assert!(seq > last, "{seq} after {last}");
                        last = seq;
                        deltas.push((seq, bytes));
                    }
                }
            }
            assert!(
                deltas.iter().map(|d| d.1.len()).sum::<usize>() < base.len(),
                "deltas never outweigh their base"
            );
        }
        assert!(folds > 0 && !deltas.is_empty(), "{folds} folds, {deltas:?}");
        reg.invoke(ctx(9), "counter", "get", &Value::Null).unwrap();
        assert_eq!(reg.commit_all(ctx(9).txn).unwrap(), []);

        let mut reg2 = RmRegistry::new();
        reg2.register(Box::new(Counter::new()));
        reg2.restore_base("counter", &base).unwrap();
        reg2.restore_base("gone", &base).unwrap();
        for (seq, d) in &deltas {
            reg2.apply_delta("counter", *seq, d).unwrap();
        }
        let v = reg2
            .invoke(ctx(10), "counter", "get", &Value::Null)
            .unwrap();
        assert_eq!(v.as_i64(), Some(24));
        assert_eq!(reg2.commit_all(ctx(10).txn).unwrap(), []);
        reg2.invoke(ctx(11), "counter", "add", &Value::from(1i64))
            .unwrap();
        let next = reg2.commit_all(ctx(11).txn).unwrap();
        assert!(
            matches!(&next[..], [RmWrite::Delta { seq, .. }] if *seq == last + 1),
            "numbering resumes past the highest stored record: {next:?}"
        );
    }

    /// A prepared transaction's delta is stored at prepare, under its final
    /// number: the commit writes nothing more, an abort leaves its record to
    /// the host to delete, and a fold while it is in doubt keeps it.
    #[test]
    fn a_prepared_delta_is_written_once_and_outlives_a_fold() {
        let mut reg = RmRegistry::new();
        reg.register(Box::new(Counter::new()));
        let add =
            |reg: &mut RmRegistry, seq| reg.invoke(ctx(seq), "counter", "add", &Value::from(1i64));
        add(&mut reg, 1).unwrap();
        let first = reg.prepare_all(ctx(1).txn).unwrap();
        let [RmWrite::Base { folded, .. }, RmWrite::Delta { seq: 1, .. }] = &first[..] else {
            panic!("the first record folds the factory state: {first:?}");
        };
        assert!(folded.is_empty());
        assert_eq!(reg.prepare_all(ctx(1).txn).unwrap(), [], "prepared once");
        assert!(add(&mut reg, 2).is_err(), "in doubt, the key stays locked");
        reg.abort_all(ctx(2).txn);
        assert_eq!(reg.commit_all(ctx(1).txn).unwrap(), []);

        // Transaction 3 stays in doubt while committed deltas pile up to a fold.
        add(&mut reg, 3).unwrap();
        let Some(RmWrite::Delta { seq: held, .. }) = reg.prepare_all(ctx(3).txn).unwrap().pop()
        else {
            panic!("a delta");
        };
        let mut folds = Vec::new();
        for seq in 4..=12 {
            reg.invoke(ctx(seq), "counter", "pad", &Value::Null)
                .unwrap();
            for w in reg.commit_all(ctx(seq).txn).unwrap() {
                if let RmWrite::Base { folded, .. } = w {
                    folds.push(folded);
                }
            }
        }
        assert!(!folds.is_empty(), "a fold came");
        assert!(
            folds.iter().all(|f| !f.contains(&held)),
            "{folds:?} kept {held}"
        );
        let snapshot_n = |reg: &RmRegistry| {
            let snap = reg.get("counter").unwrap().snapshot().unwrap();
            let (map, _): (BTreeMap<String, Vec<u8>>, u64) = mar_wire::from_slice(&snap).unwrap();
            mar_wire::from_slice::<i64>(&map["n"]).unwrap()
        };
        assert_eq!(snapshot_n(&reg), 1, "an in-doubt write is in no base image");
        assert_eq!(reg.commit_all(ctx(3).txn).unwrap(), []);
        assert_eq!(snapshot_n(&reg), 2);
        // The next fold supersedes it, now committed.
        let mut folded = Vec::new();
        for seq in 13..=30 {
            reg.invoke(ctx(seq), "counter", "pad", &Value::Null)
                .unwrap();
            for w in reg.commit_all(ctx(seq).txn).unwrap() {
                if let RmWrite::Base { folded: f, .. } = w {
                    folded.extend(f);
                }
            }
        }
        assert!(folded.contains(&held), "{folded:?}");
    }

    /// Recovery redoes an in-doubt delta under its transaction: locked, and
    /// either decision finishes it.
    #[test]
    fn recovery_redoes_an_in_doubt_delta_under_its_transaction() {
        let mut reg = RmRegistry::new();
        reg.register(Box::new(Counter::new()));
        reg.invoke(ctx(1), "counter", "add", &Value::from(5i64))
            .unwrap();
        let writes = reg.prepare_all(ctx(1).txn).unwrap();
        let [RmWrite::Base { bytes: base, .. }, RmWrite::Delta { seq, bytes, .. }] = &writes[..]
        else {
            panic!("{writes:?}");
        };
        for commit in [true, false] {
            let mut r = RmRegistry::new();
            r.register(Box::new(Counter::new()));
            r.restore_base("counter", base).unwrap();
            r.redo_delta("counter", *seq, ctx(1).txn, bytes).unwrap();
            assert!(r.invoke(ctx(2), "counter", "get", &Value::Null).is_err());
            r.abort_all(ctx(2).txn);
            if commit {
                assert_eq!(r.commit_all(ctx(1).txn).unwrap(), []);
            } else {
                r.abort_all(ctx(1).txn);
            }
            let v = r.invoke(ctx(3), "counter", "get", &Value::Null).unwrap();
            assert_eq!(v.as_i64(), Some(if commit { 5 } else { 0 }));
            r.commit_all(ctx(3).txn).unwrap();
            r.invoke(ctx(4), "counter", "add", &Value::from(1i64))
                .unwrap();
            let next = r.commit_all(ctx(4).txn).unwrap();
            let next_seq = next.iter().find_map(|w| match w {
                RmWrite::Delta { seq, .. } => Some(*seq),
                RmWrite::Base { .. } => None,
            });
            assert!(next_seq.map_or(true, |n| n > *seq), "{next:?}");
        }
    }

    /// A stored delta that does not decode ends the replay: the resource
    /// stays at the committed state before it, the later deltas are refused,
    /// and the next commit writes a base that supersedes all three.
    #[test]
    fn replay_stops_at_a_bad_delta() {
        let mut reg = RmRegistry::new();
        reg.register(Box::new(Counter::new()));
        let mut stored = Vec::new();
        for seq in 1..=4 {
            reg.invoke(ctx(seq), "counter", "add", &Value::from(3i64))
                .unwrap();
            stored.extend(reg.commit_all(ctx(seq).txn).unwrap());
        }
        let [RmWrite::Base { bytes: base, .. }, RmWrite::Delta { bytes: d1, .. }, RmWrite::Delta { .. }, RmWrite::Delta { bytes: d3, .. }] =
            &stored[..]
        else {
            panic!("a base and three deltas, got {stored:?}");
        };

        let mut reg2 = RmRegistry::new();
        reg2.register(Box::new(Counter::new()));
        reg2.restore_base("counter", base).unwrap();
        reg2.apply_delta("counter", 1, d1).unwrap();
        assert!(reg2.apply_delta("counter", 2, &[0xff]).is_err());
        assert!(reg2.apply_delta("counter", 3, d3).is_err());
        let v = reg2.invoke(ctx(5), "counter", "add", &Value::from(1i64));
        assert_eq!(v.unwrap().as_i64(), Some(7), "the base and the first delta");
        assert!(matches!(
            &reg2.commit_all(ctx(5).txn).unwrap()[..],
            [RmWrite::Base { folded, .. }] if *folded == [1, 2, 3]
        ));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = RmRegistry::new();
        reg.register(Box::new(Counter::new()));
        reg.register(Box::new(Counter::new()));
    }
}
