//! Model property for the durability contract of [`TxStore`] and
//! [`RmRegistry`]: random interleavings of `write` / `remove` / `prepare` /
//! `commit` / `abort` over several live transactions, on keys they share and
//! keys they do not, with crashes in between, held against a plain map of
//! what has committed.
//!
//! (a) The base image (`snapshot`) always decodes to the model's committed
//!     map — an in-flight write, prepared or not, never shows in it.
//! (b) The host's stable view — the last base image plus the delta records
//!     written since, however many folds the size rule triggered, in-doubt
//!     ones redone under their transaction — recovers a fresh registry to
//!     that same map after every commit and at every crash, and the
//!     recovered registry is interchangeable with the live one: given the
//!     same transaction it asks the host for the same writes, up to the
//!     numbers of records an abort deleted.
//! (c) A removed key stays removed after recovery.
//! (d) A fold deletes committed deltas only: an in-doubt delta outlives it,
//!     and is committed or dropped by its decision.
//! (e) Delta numbers only grow past every stored one, across crashes: no
//!     two stored deltas ever share one.
//! (f) A redone in-doubt delta holds its keys exclusively again.

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

/// The host's side of the contract, as `mole` implements it on stable keys:
/// the base image, the delta records by number, and per prepared
/// transaction the numbers of the records its entry holds.
#[derive(Default)]
struct Stable {
    base: Option<Vec<u8>>,
    deltas: BTreeMap<u64, Vec<u8>>,
    in_doubt: BTreeMap<TxnId, Vec<u64>>,
    folds: usize,
    /// Folds that happened while a delta was in doubt.
    folds_past_doubt: usize,
}

impl Stable {
    /// Stores `writes`; those of a prepare are held by `prepared`'s entry.
    fn apply(&mut self, writes: Vec<RmWrite>, prepared: Option<TxnId>) {
        let mut held = Vec::new();
        for write in writes {
            match write {
                RmWrite::Delta { name, seq, bytes } => {
                    assert_eq!(name, "kv");
                    assert!(self.base.is_some(), "a delta needs a base to sit on");
                    // (e) past every stored number.
                    let last = self.deltas.keys().next_back();
                    assert!(
                        last.map_or(true, |&last| seq > last),
                        "{seq} after {last:?}"
                    );
                    self.deltas.insert(seq, bytes);
                    held.push(seq);
                }
                RmWrite::Base {
                    name,
                    bytes,
                    folded,
                } => {
                    assert_eq!(name, "kv");
                    // (d) every committed delta, and no in-doubt one.
                    let doubt: Vec<u64> = self.in_doubt.values().flatten().copied().collect();
                    let committed: Vec<u64> = self
                        .deltas
                        .keys()
                        .filter(|s| !doubt.contains(s))
                        .copied()
                        .collect();
                    assert_eq!(folded, committed, "a fold drops every committed delta");
                    for seq in &folded {
                        self.deltas.remove(seq);
                    }
                    self.folds += usize::from(!folded.is_empty());
                    self.folds_past_doubt += usize::from(!doubt.is_empty());
                    self.base = Some(bytes);
                }
            }
        }
        match prepared {
            Some(id) => assert!(self.in_doubt.insert(id, held).is_none(), "prepared twice"),
            None => assert!(held.len() <= 1, "one delta per commit"),
        }
        let delta_bytes: usize = self.committed().map(|(_, d)| d.len()).sum();
        assert!(
            delta_bytes < self.base.as_ref().map_or(1, Vec::len),
            "stored committed deltas never outweigh their base"
        );
    }

    fn committed(&self) -> impl Iterator<Item = (&u64, &Vec<u8>)> {
        let doubt: Vec<u64> = self.in_doubt.values().flatten().copied().collect();
        self.deltas.iter().filter(move |(s, _)| !doubt.contains(s))
    }

    /// The decision on a prepared transaction: its records stay, now
    /// committed, or go.
    fn decide(&mut self, id: TxnId, commit: bool) {
        let held = self.in_doubt.remove(&id).expect("prepared");
        if !commit {
            for seq in held {
                self.deltas.remove(&seq);
            }
        }
    }

    /// Crash recovery: the factory's registry, then base, then deltas in
    /// number order, the in-doubt ones redone under their transaction.
    fn recover(&self) -> RmRegistry {
        let (mut reg, _) = seeded();
        if let Some(base) = &self.base {
            reg.restore_base("kv", base).unwrap();
        }
        for (&seq, delta) in &self.deltas {
            let owner = self.in_doubt.iter().find(|(_, held)| held.contains(&seq));
            match owner {
                Some((&id, _)) => reg.redo_delta("kv", seq, id, delta).unwrap(),
                None => reg.apply_delta("kv", seq, delta).unwrap(),
            }
        }
        reg
    }
}

/// `writes` with the delta numbers left out: a recovered registry numbers
/// past the stored records, a live one past every number it issued.
fn unnumbered(writes: &[RmWrite]) -> Vec<RmWrite> {
    let strip = |w: &RmWrite| match w {
        RmWrite::Delta { name, bytes, .. } => RmWrite::Delta {
            name: name.clone(),
            seq: 0,
            bytes: bytes.clone(),
        },
        base => base.clone(),
    };
    writes.iter().map(strip).collect()
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
    Prepare { slot: usize },
    Commit { slot: usize },
    Abort { slot: usize },
    Crash,
}

const SLOTS: usize = 3;

fn op_strategy() -> impl Strategy<Value = Op> {
    // Keys 0..4 are shared by every slot (lock conflicts), keys 4..6 are
    // folded into a per-slot name (never conflict).
    prop_oneof![
        4 => (0..SLOTS, 0u8..6, any::<u8>()).prop_map(|(slot, key, val)| Op::Put { slot, key, val }),
        2 => (0..SLOTS, 0u8..6).prop_map(|(slot, key)| Op::Del { slot, key }),
        1 => (0..SLOTS).prop_map(|slot| Op::Prepare { slot }),
        2 => (0..SLOTS).prop_map(|slot| Op::Commit { slot }),
        1 => (0..SLOTS).prop_map(|slot| Op::Abort { slot }),
        1 => Just(Op::Crash),
    ]
}

fn key_name(slot: usize, key: u8) -> String {
    if key < 4 {
        format!("shared{key}")
    } else {
        format!("own{slot}-{key}")
    }
}

/// One slot's live transaction: its id, the writes it got through, in order
/// (`None` = remove), and whether it prepared.
struct Live {
    id: TxnId,
    pending: Vec<(String, Option<u8>)>,
    prepared: bool,
}

/// What [`check`] saw: folds, and folds while a delta was in doubt.
struct Seen {
    folds: usize,
    folds_past_doubt: usize,
    crashes_in_doubt: usize,
}

/// Runs `ops` against a live registry, the committed-map model and the
/// host's stable view, checking (a) after every operation, (b)–(e) after
/// every commit and crash, and (f) at every crash.
fn check(ops: &[Op]) -> Seen {
    let (mut reg, mut committed) = seeded();
    let mut stable = Stable::default();
    let mut next_txn = SLOTS as u64;
    let mut fresh = || {
        next_txn += 1;
        Live {
            id: txn(next_txn),
            pending: Vec::new(),
            prepared: false,
        }
    };
    let mut live: Vec<Live> = (0..SLOTS).map(|_| fresh()).collect();
    let mut crashes_in_doubt = 0;

    for &op in ops {
        match op {
            Op::Put { slot, .. } | Op::Del { slot, .. } if live[slot].prepared => {}
            Op::Put { slot, key, val } => {
                let name = key_name(slot, key);
                if invoke(&mut reg, live[slot].id, "put", &name, val) {
                    live[slot].pending.push((name, Some(val)));
                }
            }
            Op::Del { slot, key } => {
                let name = key_name(slot, key);
                if invoke(&mut reg, live[slot].id, "del", &name, 0) {
                    live[slot].pending.push((name, None));
                }
            }
            Op::Prepare { slot } if live[slot].prepared => {}
            Op::Prepare { slot } => {
                let id = live[slot].id;
                let writes = reg.prepare_all(id).unwrap();
                stable.apply(writes, Some(id));
                live[slot].prepared = true;
                assert_eq!(reg.prepare_all(id).unwrap(), [], "prepared once");
            }
            Op::Commit { slot } => {
                let Live {
                    id,
                    pending,
                    prepared,
                } = std::mem::replace(&mut live[slot], fresh());
                if prepared {
                    assert_eq!(reg.commit_all(id).unwrap(), [], "stored at prepare");
                    stable.decide(id, true);
                } else {
                    // (b) A registry recovered from the stable history is
                    // interchangeable with the live one: given the same
                    // transaction, it asks the host for the same write —
                    // fold decision and (on a fold) the base image, which on
                    // the live side must leave out what the other slots have
                    // in flight, prepared or not.
                    let mut twin = stable.recover();
                    for (key, after) in &pending {
                        let op = if after.is_some() { "put" } else { "del" };
                        assert!(invoke(&mut twin, id, op, key, after.unwrap_or(0)));
                    }
                    let writes = reg.commit_all(id).unwrap();
                    let twins = twin.commit_all(id).unwrap();
                    assert_eq!(unnumbered(&writes), unnumbered(&twins), "after {op:?}");
                    stable.apply(writes, None);
                }
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
                let Live { id, prepared, .. } = std::mem::replace(&mut live[slot], fresh());
                reg.abort_all(id);
                if prepared {
                    stable.decide(id, false);
                }
            }
            Op::Crash => {
                // Volatile state dies: what did not prepare is aborted, what
                // did is redone in doubt from the stable view.
                reg = stable.recover();
                crashes_in_doubt += usize::from(!stable.in_doubt.is_empty());
                for slot in &mut live {
                    if !slot.prepared {
                        *slot = fresh();
                        continue;
                    }
                    // (f) Its keys are its own again: a probe is refused.
                    let probe = txn(u64::MAX);
                    for (key, _) in &slot.pending {
                        assert!(!invoke(&mut reg, probe, "put", key, 0), "{key} unlocked");
                    }
                    reg.abort_all(probe);
                }
            }
        }
        // (a) whatever is in flight, the base image is the committed map.
        assert_eq!(committed_view(&reg), committed, "snapshot after {op:?}");
    }
    Seen {
        folds: stable.folds,
        folds_past_doubt: stable.folds_past_doubt,
        crashes_in_doubt,
    }
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

/// A pinned history long enough that the size rule folds several times —
/// some of them while a delta is in doubt — and crashes land while one is,
/// so (b)–(f) are known to have crossed folds and redos and not only
/// accumulated deltas.
#[test]
fn long_history_crosses_several_folds() {
    let mut ops = Vec::new();
    for i in 0..240u32 {
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
        if i % 7 == 3 {
            ops.push(Op::Prepare { slot });
        }
        if i % 2 == 1 {
            ops.push(Op::Commit { slot });
        }
        if i % 17 == 0 {
            ops.push(Op::Abort {
                slot: (slot + 1) % 3,
            });
        }
        if i % 23 == 4 {
            ops.push(Op::Crash);
        }
    }
    let seen = check(&ops);
    assert!(seen.folds >= 3, "the history should fold at least 3 times");
    assert!(
        seen.folds_past_doubt >= 1,
        "a fold should pass a delta in doubt"
    );
    assert!(
        seen.crashes_in_doubt >= 1,
        "a crash should find a delta in doubt"
    );
}
