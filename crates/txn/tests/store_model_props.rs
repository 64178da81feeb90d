//! Model property for the durability contract of [`TxStore`] and
//! [`RmRegistry`]: random interleavings of `write` / `remove` / `commit` /
//! `abort` over several live transactions, on keys they share and keys they
//! do not, held against a plain map of what has committed.
//!
//! (a) The base image (`snapshot`) always decodes to the model's committed
//!     map — an in-flight write never shows in it.
//! (b) The host's stable view — the last base image plus the delta records
//!     written since, however many folds the size rule triggered — recovers
//!     a fresh registry to that same map after every commit, and the
//!     recovered registry is interchangeable with the live one: given the
//!     same transaction it asks the host for the same write.
//! (c) A removed key stays removed after recovery.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mar_simnet::{NodeId, SimTime};
use mar_txn::{OpCtx, ResourceManager, RmRegistry, RmWrite, TxStore, TxnError, TxnId};
use mar_wire::Value;

type Map = BTreeMap<String, Vec<u8>>;

/// A bare key-value manager: `put` writes `key` := `[val]`, `del` removes it.
struct Kv {
    store: TxStore,
}

impl ResourceManager for Kv {
    fn name(&self) -> &str {
        "kv"
    }
    fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError> {
        let key = params.get("key").and_then(Value::as_str).expect("key");
        match op {
            "put" => {
                let val = params.get("val").and_then(Value::as_u64).expect("val");
                self.store.write(ctx.txn, key, vec![val as u8])?;
            }
            "del" => self.store.remove(ctx.txn, key)?,
            other => return Err(TxnError::BadRequest(other.to_owned())),
        }
        Ok(Value::Null)
    }
    fn store(&self) -> &TxStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut TxStore {
        &mut self.store
    }
}

/// What the node factory builds, before and after a crash: the seeded
/// state. The ballast lets a base image outweigh a handful of deltas.
fn seeded() -> (RmRegistry, Map) {
    let mut store = TxStore::new();
    let mut model = Map::new();
    for k in 0..4 {
        store.seed(format!("seed{k}"), vec![k; 8]);
        model.insert(format!("seed{k}"), vec![k; 8]);
    }
    let mut reg = RmRegistry::new();
    reg.register(Box::new(Kv { store }));
    (reg, model)
}

/// The host's side of the contract, as `mole` implements it on stable keys.
#[derive(Default)]
struct Stable {
    base: Option<Vec<u8>>,
    deltas: Vec<Vec<u8>>,
    folds: usize,
}

impl Stable {
    fn apply(&mut self, writes: Vec<RmWrite>) {
        for write in writes {
            match write {
                RmWrite::Delta { name, seq, bytes } => {
                    assert_eq!(name, "kv");
                    assert!(self.base.is_some(), "a delta needs a base to sit on");
                    self.deltas.push(bytes);
                    assert_eq!(seq, self.deltas.len() as u64, "deltas number from 1");
                }
                RmWrite::Base {
                    name,
                    bytes,
                    folded,
                } => {
                    assert_eq!(name, "kv");
                    assert_eq!(folded, self.deltas.len() as u64, "a fold drops every delta");
                    self.folds += usize::from(folded > 0);
                    self.base = Some(bytes);
                    self.deltas.clear();
                }
            }
        }
        let delta_bytes: usize = self.deltas.iter().map(Vec::len).sum();
        assert!(
            delta_bytes < self.base.as_ref().map_or(1, Vec::len),
            "stored deltas never outweigh their base"
        );
    }

    /// Crash recovery: the factory's registry, then base, then deltas.
    fn recover(&self) -> RmRegistry {
        let (mut reg, _) = seeded();
        if let Some(base) = &self.base {
            reg.restore_base("kv", base).unwrap();
        }
        for delta in &self.deltas {
            reg.apply_delta("kv", delta).unwrap();
        }
        reg
    }
}

fn committed_view(reg: &RmRegistry) -> Map {
    let snap = reg.get("kv").expect("registered").snapshot().unwrap();
    let (map, _seq): (Map, u64) =
        mar_wire::from_slice(&snap).expect("a base image is a key-value map and a sequence mark");
    map
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(1), seq)
}

fn invoke(reg: &mut RmRegistry, txn: TxnId, op: &str, key: &str, val: u8) -> bool {
    let ctx = OpCtx {
        txn,
        now: SimTime::ZERO,
    };
    let params = Value::map([("key", Value::from(key)), ("val", Value::from(val as u64))]);
    match reg.invoke(ctx, "kv", op, &params) {
        Ok(_) => true,
        Err(e) => {
            assert!(e.is_transient(), "only lock conflicts refuse: {e}");
            false
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Put { slot: usize, key: u8, val: u8 },
    Del { slot: usize, key: u8 },
    Commit { slot: usize },
    Abort { slot: usize },
}

const SLOTS: usize = 3;

fn op_strategy() -> impl Strategy<Value = Op> {
    // Keys 0..4 are shared by every slot (lock conflicts), keys 4..6 are
    // folded into a per-slot name (never conflict).
    prop_oneof![
        4 => (0..SLOTS, 0u8..6, any::<u8>()).prop_map(|(slot, key, val)| Op::Put { slot, key, val }),
        2 => (0..SLOTS, 0u8..6).prop_map(|(slot, key)| Op::Del { slot, key }),
        2 => (0..SLOTS).prop_map(|slot| Op::Commit { slot }),
        1 => (0..SLOTS).prop_map(|slot| Op::Abort { slot }),
    ]
}

fn key_name(slot: usize, key: u8) -> String {
    if key < 4 {
        format!("shared{key}")
    } else {
        format!("own{slot}-{key}")
    }
}

/// Runs `ops` against a live registry, the committed-map model and the
/// host's stable view, checking (a) after every operation and (b), (c)
/// after every commit. Returns how many folds the size rule triggered.
fn check(ops: &[Op]) -> usize {
    let (mut reg, mut committed) = seeded();
    let mut stable = Stable::default();
    // Per slot: the live transaction and the writes it got through, in
    // order (`None` = remove).
    type Pending = Vec<(String, Option<u8>)>;
    let mut next_txn = SLOTS as u64;
    let mut live: Vec<(TxnId, Pending)> = (0..SLOTS as u64).map(|s| (txn(s), Vec::new())).collect();
    let mut retire = |slot: &mut (TxnId, Pending)| {
        next_txn += 1;
        std::mem::replace(slot, (txn(next_txn), Vec::new()))
    };

    for &op in ops {
        match op {
            Op::Put { slot, key, val } => {
                let name = key_name(slot, key);
                if invoke(&mut reg, live[slot].0, "put", &name, val) {
                    live[slot].1.push((name, Some(val)));
                }
            }
            Op::Del { slot, key } => {
                let name = key_name(slot, key);
                if invoke(&mut reg, live[slot].0, "del", &name, 0) {
                    live[slot].1.push((name, None));
                }
            }
            Op::Commit { slot } => {
                let (id, pending) = retire(&mut live[slot]);
                // (b) A registry recovered from the stable history is
                // interchangeable with the live one: given the same
                // transaction, it asks the host for the same write —
                // numbering, fold decision and (on a fold) the base image,
                // which on the live side must leave out what the other
                // slots have in flight.
                let mut twin = stable.recover();
                for (key, after) in &pending {
                    let op = if after.is_some() { "put" } else { "del" };
                    assert!(invoke(&mut twin, id, op, key, after.unwrap_or(0)));
                }
                let writes = reg.commit_all(id).unwrap();
                assert_eq!(writes, twin.commit_all(id).unwrap(), "after {op:?}");
                stable.apply(writes);

                for (key, after) in &pending {
                    match after {
                        Some(val) => committed.insert(key.clone(), vec![*val]),
                        None => committed.remove(key),
                    };
                }
                // ... and every prefix of the history recovers the map,
                let view = committed_view(&stable.recover());
                assert_eq!(view, committed, "recovery after {op:?}");
                // (c) in which a key this commit removed last is absent.
                let last: BTreeMap<_, _> = pending.iter().cloned().collect();
                for (key, _) in last.iter().filter(|(_, after)| after.is_none()) {
                    assert!(!view.contains_key(key), "{key} resurrected by recovery");
                }
            }
            Op::Abort { slot } => {
                let (id, _) = retire(&mut live[slot]);
                reg.abort_all(id);
            }
        }
        // (a) whatever is in flight, the base image is the committed map.
        assert_eq!(committed_view(&reg), committed, "snapshot after {op:?}");
    }
    stable.folds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn base_and_deltas_track_the_committed_map(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        check(&ops);
    }
}

/// A pinned history long enough that the size rule folds several times, so
/// (b) is known to have crossed folds and not only accumulated deltas.
#[test]
fn long_history_crosses_several_folds() {
    let mut ops = Vec::new();
    for i in 0..200u32 {
        let slot = (i % 3) as usize;
        ops.push(Op::Put {
            slot,
            key: (i % 6) as u8,
            val: i as u8,
        });
        if i % 5 == 0 {
            ops.push(Op::Del {
                slot,
                key: ((i + 1) % 6) as u8,
            });
        }
        if i % 2 == 1 {
            ops.push(Op::Commit { slot });
        }
        if i % 17 == 0 {
            ops.push(Op::Abort {
                slot: (slot + 1) % 3,
            });
        }
    }
    assert!(check(&ops) >= 3, "the history should fold at least 3 times");
}
