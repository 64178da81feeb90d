//! Resource managers and their registry.
//!
//! A resource manager exposes named operations invoked from agent steps and
//! from compensating operations. All operations of a step run inside the
//! *step transaction* (paper §2); commit/abort fans out to every manager on
//! the node.
//!
//! Durability is log + checkpoint at this boundary: a commit yields one
//! delta record per manager the transaction wrote to, and the registry
//! decides by a fixed size rule when a manager's deltas are folded into a
//! fresh base image ([`RmRegistry::commit_all`]). The hosting node only maps
//! the resulting [`RmWrite`]s onto its stable storage.

use std::collections::BTreeMap;

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

    /// The transactional store the resource keeps its state in; the five
    /// methods below are this store's.
    fn store(&self) -> &TxStore;

    /// [`store`](Self::store), mutably.
    fn store_mut(&mut self) -> &mut TxStore;

    /// Makes the transaction's effects on this resource permanent and
    /// returns them as a delta record for stable storage: what `txn` wrote,
    /// plus the high-water mark of any sequence counter the resource keeps.
    /// `None` if the transaction changed nothing here.
    fn commit(&mut self, txn: TxnId) -> Option<Vec<u8>> {
        self.store_mut().commit(txn)
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

    /// Re-applies a delta record [`commit`](Self::commit) returned, on top
    /// of the restored base and every earlier delta (crash recovery).
    ///
    /// # Errors
    ///
    /// Codec errors only.
    fn apply_delta(&mut self, bytes: &[u8]) -> Result<(), TxnError> {
        Ok(self.store_mut().apply_delta(bytes)?)
    }

    /// Reports the committed money this resource holds, as a map from
    /// currency code to amount — the raw material of the conservation
    /// audits in the test suite. Resources that hold no money (registries,
    /// read-only services) keep the default.
    fn audit_money(&self) -> Value {
        Value::Null
    }
}

/// One stable-storage update a commit asks of the hosting node. All writes
/// of one [`RmRegistry::commit_all`] belong to the commit's own atomic
/// stable batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmWrite {
    /// Append delta record number `seq` (1-based since the last base) of
    /// resource `name`.
    Delta {
        /// The resource.
        name: String,
        /// Position of the record behind the resource's base image.
        seq: u64,
        /// The record.
        bytes: Vec<u8>,
    },
    /// Replace the base image of resource `name` and drop its delta records
    /// `1..=folded`, which the image now contains.
    Base {
        /// The resource.
        name: String,
        /// The committed state.
        bytes: Vec<u8>,
        /// How many delta records the image supersedes.
        folded: u64,
    },
}

/// A registered manager and the size of what stable storage holds for it.
struct Hosted {
    rm: Box<dyn ResourceManager>,
    /// Size of the stored base image; `None` until the first commit that
    /// touches the resource writes one.
    base_len: Option<usize>,
    /// Delta records stored behind the base: how many, and their bytes.
    deltas: u64,
    delta_bytes: usize,
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
            deltas: 0,
            delta_bytes: 0,
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

    /// Commits `txn` on every resource and returns what the host must write
    /// to stable storage for it: per resource the transaction wrote to, its
    /// delta record — or, once the deltas stored since the last base image
    /// would reach that image's own size (and at the first commit, when
    /// there is none), a fresh base image that supersedes them. The rule
    /// keeps both the bytes written per commit and the records replayed at
    /// recovery proportional to what transactions wrote, however large the
    /// resource grows. A resource the transaction did not touch writes
    /// nothing.
    ///
    /// # Errors
    ///
    /// Codec errors from a base image.
    pub fn commit_all(&mut self, txn: TxnId) -> Result<Vec<RmWrite>, TxnError> {
        let mut writes = Vec::new();
        for (name, hosted) in &mut self.rms {
            let Some(bytes) = hosted.rm.commit(txn) else {
                continue;
            };
            let name = name.clone();
            match hosted.base_len {
                Some(base) if hosted.delta_bytes + bytes.len() < base => {
                    hosted.deltas += 1;
                    hosted.delta_bytes += bytes.len();
                    let seq = hosted.deltas;
                    writes.push(RmWrite::Delta { name, seq, bytes });
                }
                _ => {
                    let bytes = hosted.rm.snapshot()?;
                    let folded = std::mem::take(&mut hosted.deltas);
                    hosted.base_len = Some(bytes.len());
                    hosted.delta_bytes = 0;
                    writes.push(RmWrite::Base {
                        name,
                        bytes,
                        folded,
                    });
                }
            }
        }
        Ok(writes)
    }

    /// Aborts `txn` on every resource.
    pub fn abort_all(&mut self, txn: TxnId) {
        for hosted in self.rms.values_mut() {
            hosted.rm.abort(txn);
        }
    }

    /// Crash recovery, first half: restores resource `name` from its stored
    /// base image (ignores unknown names so nodes can be reconfigured
    /// between runs).
    ///
    /// # Errors
    ///
    /// Codec errors from the resource. It then keeps its factory state, and
    /// [`apply_delta`](Self::apply_delta) refuses its delta records.
    pub fn restore_base(&mut self, name: &str, bytes: &[u8]) -> Result<(), TxnError> {
        if let Some(hosted) = self.rms.get_mut(name) {
            hosted.base_len = None;
            hosted.deltas = 0;
            hosted.delta_bytes = 0;
            hosted.rm.restore(bytes)?;
            hosted.base_len = Some(bytes.len());
        }
        Ok(())
    }

    /// Crash recovery, second half: re-applies the next stored delta record
    /// of resource `name`. Call after [`restore_base`](Self::restore_base),
    /// once per record in `seq` order; the registry then continues the
    /// numbering and the fold rule exactly where the crashed one stood.
    ///
    /// # Errors
    ///
    /// Codec errors from the resource. Replay of that resource stops there:
    /// it stays at the committed state before the bad record instead of
    /// taking later deltas on top of a hole, every later record is refused,
    /// and the next commit that touches it writes a base image that
    /// supersedes all of them.
    pub fn apply_delta(&mut self, name: &str, bytes: &[u8]) -> Result<(), TxnError> {
        if let Some(hosted) = self.rms.get_mut(name) {
            // Counted even if refused, so the next base folds it away.
            hosted.deltas += 1;
            hosted.delta_bytes += bytes.len();
            if hosted.base_len.is_none() {
                return Err(TxnError::Codec(format!(
                    "delta {} of {name:?} follows a record that did not restore",
                    hosted.deltas
                )));
            }
            if let Err(e) = hosted.rm.apply_delta(bytes) {
                hosted.base_len = None;
                return Err(e);
            }
        }
        Ok(())
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
    /// deltas would outweigh the base; a read-only commit writes nothing;
    /// base + deltas recover the committed value.
    #[test]
    fn snapshot_restore_via_registry() {
        let mut reg = RmRegistry::new();
        reg.register(Box::new(Counter::new()));
        let mut base = Vec::new();
        let mut deltas = Vec::new();
        let mut folds = 0;
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
                        assert_eq!(folded, deltas.len() as u64);
                        folds += u64::from(folded > 0);
                        base = bytes;
                        deltas.clear();
                    }
                    RmWrite::Delta { seq, bytes, .. } => {
                        deltas.push(bytes);
                        assert_eq!(seq, deltas.len() as u64);
                    }
                }
            }
            assert!(
                deltas.iter().map(Vec::len).sum::<usize>() < base.len(),
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
        for d in &deltas {
            reg2.apply_delta("counter", d).unwrap();
        }
        let v = reg2
            .invoke(ctx(10), "counter", "get", &Value::Null)
            .unwrap();
        assert_eq!(v.as_i64(), Some(24));
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
        reg2.apply_delta("counter", d1).unwrap();
        assert!(reg2.apply_delta("counter", &[0xff]).is_err());
        assert!(reg2.apply_delta("counter", d3).is_err());
        let v = reg2.invoke(ctx(5), "counter", "add", &Value::from(1i64));
        assert_eq!(v.unwrap().as_i64(), Some(7), "the base and the first delta");
        assert!(matches!(
            &reg2.commit_all(ctx(5).txn).unwrap()[..],
            [RmWrite::Base { folded: 3, .. }]
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
