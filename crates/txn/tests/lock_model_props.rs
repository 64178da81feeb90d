//! Model property for the isolation contract of [`TxStore`]: random
//! `read` / `write` / `remove` / `scan_keys` / `commit` / `abort` / `delta`
//! / `snapshot` over four live transactions and a handful of keys, held
//! against a naive model — per key its exclusive owner, its sharer set and
//! its value; per transaction its write set in first-write order with the
//! before-images.
//!
//! Every operation's result equals the model's, the refusals included: a
//! `WouldBlock` names the key and the holder no-wait 2PL reports, which is
//! the exclusive owner, else the lowest-id other sharer. That text reaches
//! transient item errors and compensation reasons, so it is pinned here.
//! After every operation the conflict count, `is_active` of every
//! transaction, `len`, `iter` and `peek` of every key equal the model's
//! too, and `delta` and `snapshot` encode what the model says, byte for
//! byte.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use mar_simnet::NodeId;
use mar_txn::{TxStore, TxnError, TxnId};
use mar_wire::Bytes;
use serde::Serialize;

const KEYS: [&str; 6] = ["a", "q/1", "q/2", "q/3", "r/1", "r/2"];
const PREFIXES: [&str; 4] = ["q/", "r/", "", "z"];
/// Live transactions at a time.
const TXNS: usize = 4;

/// The delta record as the store encodes it: after-images of the write set
/// in first-write order, and the sequence mark.
#[derive(Serialize)]
struct Delta {
    writes: Vec<(String, Option<Bytes>)>,
    seq: u64,
}

/// A transaction's write set: each key with its value before the first
/// write, in first-write order.
type WriteSet = Vec<(String, Option<Vec<u8>>)>;

#[derive(Default)]
struct Key {
    exclusive: Option<TxnId>,
    sharers: BTreeSet<TxnId>,
    value: Option<Vec<u8>>,
}

#[derive(Default)]
struct Model {
    keys: BTreeMap<String, Key>,
    writes: BTreeMap<TxnId, WriteSet>,
    conflicts: u64,
    /// Refusals whose holder was a sharer, not an exclusive owner.
    sharer_refusals: usize,
    /// Scans refused after locking at least one key.
    scans_cut: usize,
}

enum Mode {
    Shared,
    Exclusive,
}

impl Model {
    fn lock(&mut self, txn: TxnId, key: &str, mode: Mode) -> Result<(), TxnError> {
        let entry = self.keys.entry(key.to_owned()).or_default();
        let holder = match entry.exclusive {
            Some(owner) if owner == txn => return Ok(()),
            Some(owner) => Some(owner),
            None => match mode {
                Mode::Shared => None,
                Mode::Exclusive => {
                    let other = entry.sharers.iter().copied().find(|&s| s != txn);
                    self.sharer_refusals += usize::from(other.is_some());
                    other
                }
            },
        };
        if let Some(holder) = holder {
            self.conflicts += 1;
            return Err(TxnError::WouldBlock {
                key: key.to_owned(),
                holder,
            });
        }
        match mode {
            Mode::Shared => {
                entry.sharers.insert(txn);
            }
            Mode::Exclusive => {
                entry.sharers.remove(&txn);
                entry.exclusive = Some(txn);
            }
        }
        Ok(())
    }

    fn read(&mut self, txn: TxnId, key: &str) -> Result<Option<Vec<u8>>, TxnError> {
        self.lock(txn, key, Mode::Shared)?;
        Ok(self.keys[key].value.clone())
    }

    fn put(&mut self, txn: TxnId, key: &str, value: Option<Vec<u8>>) -> Result<(), TxnError> {
        self.lock(txn, key, Mode::Exclusive)?;
        let entry = self.keys.get_mut(key).expect("locked");
        let before = std::mem::replace(&mut entry.value, value);
        let writes = self.writes.entry(txn).or_default();
        if !writes.iter().any(|(k, _)| k == key) {
            writes.push((key.to_owned(), before));
        }
        Ok(())
    }

    fn scan_keys(&mut self, txn: TxnId, prefix: &str) -> Result<Vec<String>, TxnError> {
        let keys: Vec<String> = self
            .keys
            .iter()
            .filter(|(k, e)| k.starts_with(prefix) && e.value.is_some())
            .map(|(k, _)| k.clone())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            if let Err(e) = self.lock(txn, k, Mode::Shared) {
                self.scans_cut += usize::from(i > 0);
                return Err(e);
            }
        }
        Ok(keys)
    }

    fn end(&mut self, txn: TxnId, commit: bool) {
        let writes = self.writes.remove(&txn).unwrap_or_default();
        if !commit {
            for (key, before) in writes.into_iter().rev() {
                self.keys.get_mut(&key).expect("written").value = before;
            }
        }
        for entry in self.keys.values_mut() {
            entry.sharers.remove(&txn);
            if entry.exclusive == Some(txn) {
                entry.exclusive = None;
            }
        }
    }

    fn is_active(&self, txn: TxnId) -> bool {
        self.keys
            .values()
            .any(|e| e.exclusive == Some(txn) || e.sharers.contains(&txn))
    }

    fn current(&self) -> Vec<(String, Vec<u8>)> {
        let present = self
            .keys
            .iter()
            .filter_map(|(k, e)| Some((k, e.value.as_ref()?)));
        present.map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    fn delta(&self, txn: TxnId) -> Option<Vec<u8>> {
        let writes = self.writes.get(&txn).filter(|w| !w.is_empty())?;
        let writes = writes
            .iter()
            .map(|(k, _)| (k.clone(), self.keys[k].value.clone().map(Bytes::from)))
            .collect();
        Some(mar_wire::to_bytes(&Delta { writes, seq: 0 }).unwrap())
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut committed: BTreeMap<String, Option<Vec<u8>>> = self
            .keys
            .iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect();
        for (key, before) in self.writes.values().flatten() {
            committed.insert(key.clone(), before.clone());
        }
        let committed: BTreeMap<String, Vec<u8>> = committed
            .into_iter()
            .filter_map(|(k, v)| Some((k, v?)))
            .collect();
        mar_wire::to_bytes(&(committed, 0u64)).unwrap()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { t: usize, key: usize },
    Write { t: usize, key: usize, val: u8 },
    Remove { t: usize, key: usize },
    Scan { t: usize, prefix: usize },
    Commit { t: usize },
    Abort { t: usize },
    Delta { t: usize },
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0..KEYS.len();
    prop_oneof![
        4 => (0..TXNS, key.clone()).prop_map(|(t, key)| Op::Read { t, key }),
        4 => (0..TXNS, key.clone(), any::<u8>()).prop_map(|(t, key, val)| Op::Write { t, key, val }),
        2 => (0..TXNS, key).prop_map(|(t, key)| Op::Remove { t, key }),
        2 => (0..TXNS, 0..PREFIXES.len()).prop_map(|(t, prefix)| Op::Scan { t, prefix }),
        2 => (0..TXNS).prop_map(|t| Op::Commit { t }),
        1 => (0..TXNS).prop_map(|t| Op::Abort { t }),
        1 => (0..TXNS).prop_map(|t| Op::Delta { t }),
        1 => Just(Op::Snapshot),
    ]
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(1), seq)
}

/// Runs `ops` from a seeded store against the model, checking everything
/// after every operation. A committed or aborted transaction's place is
/// taken by a fresh one with a higher id, so the lowest-id sharer is not
/// always the lowest place. Returns the model, for its counts.
fn check(ops: &[Op]) -> Model {
    let mut store = TxStore::new();
    let mut model = Model::default();
    for (i, key) in KEYS.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
        store.seed(*key, vec![i as u8]);
        model.keys.entry((*key).to_owned()).or_default().value = Some(vec![i as u8]);
    }
    let mut live: Vec<TxnId> = (0..TXNS as u64).map(|i| txn(10 - i)).collect();
    let mut next = 10;

    for &op in ops {
        match op {
            Op::Read { t, key } => {
                let got = store
                    .read(live[t], KEYS[key])
                    .map(|v| v.map(<[u8]>::to_vec));
                assert_eq!(got, model.read(live[t], KEYS[key]), "{op:?}");
            }
            Op::Write { t, key, val } => {
                let got = store.write(live[t], KEYS[key], vec![val]);
                assert_eq!(
                    got,
                    model.put(live[t], KEYS[key], Some(vec![val])),
                    "{op:?}"
                );
            }
            Op::Remove { t, key } => {
                let got = store.remove(live[t], KEYS[key]);
                assert_eq!(got, model.put(live[t], KEYS[key], None), "{op:?}");
            }
            Op::Scan { t, prefix } => {
                let got = store.scan_keys(live[t], PREFIXES[prefix]);
                assert_eq!(got, model.scan_keys(live[t], PREFIXES[prefix]), "{op:?}");
            }
            Op::Commit { t } | Op::Abort { t } => {
                let commit = matches!(op, Op::Commit { .. });
                if commit {
                    store.commit(live[t]);
                } else {
                    store.abort(live[t]);
                }
                model.end(live[t], commit);
                next += 1;
                live[t] = txn(next);
            }
            Op::Delta { t } => assert_eq!(store.delta(live[t]), model.delta(live[t]), "{op:?}"),
            Op::Snapshot => assert_eq!(store.snapshot().unwrap(), model.snapshot()),
        }

        assert_eq!(store.conflicts(), model.conflicts, "after {op:?}");
        for &id in &live {
            assert_eq!(
                store.is_active(id),
                model.is_active(id),
                "{id} after {op:?}"
            );
        }
        let current = model.current();
        assert_eq!(store.len(), current.len(), "after {op:?}");
        assert_eq!(store.is_empty(), current.is_empty());
        let iter: Vec<(String, Vec<u8>)> = store
            .iter()
            .map(|(k, v)| (k.to_owned(), v.to_vec()))
            .collect();
        assert_eq!(iter, current, "after {op:?}");
        for key in KEYS {
            let want = model.keys.get(key).and_then(|e| e.value.as_deref());
            assert_eq!(store.peek(key), want, "{key} after {op:?}");
        }
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_store_is_the_naive_lock_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        check(&ops);
    }
}

/// The random histories reach what the property is about: conflicts, with
/// sharers as holders, and scans refused midway.
#[test]
fn random_histories_conflict_on_sharers_and_cut_scans() {
    let mut rng = proptest::TestRng::for_test("lock_model_coverage");
    let strategy = proptest::collection::vec(op_strategy(), 40..60);
    let (mut conflicts, mut sharer_refusals, mut scans_cut) = (0, 0, 0);
    for _ in 0..200 {
        let model = check(&strategy.generate(&mut rng));
        conflicts += model.conflicts;
        sharer_refusals += model.sharer_refusals;
        scans_cut += model.scans_cut;
    }
    assert!(conflicts > 100, "{conflicts} conflicts");
    assert!(
        sharer_refusals > 10,
        "{sharer_refusals} refusals by a sharer"
    );
    assert!(scans_cut > 0, "no scan was refused midway");
}

/// A read of an absent key takes a shared lock: a writer is refused, and
/// the reader is active though it changed nothing.
#[test]
fn a_read_of_an_absent_key_locks_it() {
    let (t1, t2) = (0, 1);
    check(&[
        Op::Read { t: t1, key: 1 },
        Op::Write {
            t: t2,
            key: 1,
            val: 7,
        },
        Op::Delta { t: t1 },
        Op::Commit { t: t1 },
        Op::Write {
            t: t2,
            key: 1,
            val: 7,
        },
    ]);
    let mut s = TxStore::new();
    assert_eq!(s.read(txn(1), "x"), Ok(None));
    assert!(s.is_active(txn(1)));
    assert_eq!(
        s.write(txn(2), "x", vec![1]),
        Err(TxnError::WouldBlock {
            key: "x".into(),
            holder: txn(1)
        })
    );
    assert_eq!(s.len(), 0);
}

/// A scan that meets a conflict midway keeps the shared locks it took on
/// the keys before it.
#[test]
fn a_scan_cut_midway_keeps_the_locks_before_the_conflict() {
    let mut s = TxStore::new();
    for key in ["q/1", "q/2", "q/3"] {
        s.seed(key, vec![0]);
    }
    s.write(txn(1), "q/2", vec![1]).unwrap();
    assert_eq!(
        s.scan_keys(txn(2), "q/"),
        Err(TxnError::WouldBlock {
            key: "q/2".into(),
            holder: txn(1)
        })
    );
    assert!(s.write(txn(3), "q/1", vec![2]).is_err(), "q/1 stays locked");
    assert!(
        s.write(txn(3), "q/3", vec![2]).is_ok(),
        "q/3 was never reached"
    );
    let model = check(&[
        Op::Write {
            t: 3,
            key: 1,
            val: 1,
        },
        Op::Commit { t: 3 },
        Op::Write {
            t: 0,
            key: 2,
            val: 1,
        },
        Op::Scan { t: 1, prefix: 0 },
        Op::Write {
            t: 2,
            key: 1,
            val: 2,
        },
        Op::Write {
            t: 2,
            key: 3,
            val: 2,
        },
        Op::Snapshot,
    ]);
    assert_eq!(model.scans_cut, 1);
}

/// A remove and then a write of one key in one transaction: one entry in
/// the delta, the after-image the write's; an abort brings the seeded value
/// back.
#[test]
fn a_remove_then_a_write_of_one_key_is_one_write() {
    let mut s = TxStore::new();
    s.seed("a", vec![1]);
    s.remove(txn(1), "a").unwrap();
    s.write(txn(1), "a", vec![2]).unwrap();
    let delta = Delta {
        writes: vec![("a".into(), Some(Bytes::from(vec![2])))],
        seq: 0,
    };
    assert_eq!(s.delta(txn(1)), Some(mar_wire::to_bytes(&delta).unwrap()));
    s.abort(txn(1));
    assert_eq!(s.peek("a"), Some(&[1u8][..]));
    for commit in [false, true] {
        let end = if commit {
            Op::Commit { t: 0 }
        } else {
            Op::Abort { t: 0 }
        };
        check(&[
            Op::Remove { t: 0, key: 0 },
            Op::Snapshot,
            Op::Write {
                t: 0,
                key: 0,
                val: 2,
            },
            Op::Delta { t: 0 },
            end,
            Op::Snapshot,
        ]);
    }
}

/// An aborted insert leaves no key behind, and no lock.
#[test]
fn an_aborted_insert_leaves_nothing() {
    let mut s = TxStore::new();
    s.write(txn(1), "new", vec![1]).unwrap();
    assert_eq!(s.len(), 1);
    s.abort(txn(1));
    assert_eq!((s.len(), s.peek("new")), (0, None));
    assert!(!s.is_active(txn(1)));
    assert_eq!(s.scan_keys(txn(2), ""), Ok(Vec::new()));
    s.write(txn(3), "new", vec![2]).unwrap();
    check(&[
        Op::Write {
            t: 0,
            key: 1,
            val: 1,
        },
        Op::Scan { t: 1, prefix: 2 },
        Op::Abort { t: 0 },
        Op::Scan { t: 1, prefix: 2 },
        Op::Snapshot,
    ]);
}
