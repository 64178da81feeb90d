//! Backend conformance suite: one shared test body instantiated against
//! every stable backend, so adding a backend means adding one
//! `conformance_suite!` line — the contract itself is written once.
//!
//! The contract (see [`mar_simnet::StableBackend`]):
//!
//! * the view reflects every mutation, committed or not;
//! * prefix scans are ordered and exact;
//! * write accounting counts puts and effective deletes, per key;
//! * `commit` reports batch occupancy (a no-op delete is not a mutation);
//! * a crash reverts to the last committed state; recovery is idempotent.

use mar_simnet::{StableStore, WalConfig};

/// Full ordered dump of a store (the byte-identity currency of the
/// crash-injection and shard-equivalence suites).
fn dump(s: &StableStore) -> Vec<(String, Vec<u8>)> {
    s.iter().map(|(k, v)| (k.to_owned(), v.to_vec())).collect()
}

macro_rules! conformance_suite {
    ($backend:ident, $make:expr) => {
        mod $backend {
            use super::dump;
            // `WalConfig` is used by the wal arms only.
            #[allow(unused_imports)]
            use mar_simnet::{StableStore, WalConfig};

            fn store() -> StableStore {
                $make
            }

            #[test]
            fn put_get_delete_roundtrip() {
                let mut s = store();
                assert!(s.is_empty());
                s.put("a", vec![1]);
                assert!(s.contains("a"));
                assert_eq!(s.get("a"), Some(&[1u8][..]));
                s.put("a", vec![2]);
                assert_eq!(s.get("a"), Some(&[2u8][..]), "put replaces");
                assert_eq!(s.delete("a"), Some(vec![2]));
                assert_eq!(s.delete("a"), None);
                assert!(s.is_empty());
            }

            #[test]
            fn prefix_scans_are_ordered_and_exact() {
                let mut s = store();
                s.put("q/2", vec![2]);
                s.put("q/1", vec![1]);
                s.put("q/10", vec![10]);
                s.put("r/1", vec![9]);
                s.put("q", vec![0]);
                assert_eq!(s.keys_with_prefix("q/"), ["q/1", "q/10", "q/2"]);
                assert_eq!(s.first_with_prefix("q/"), Some(("q/1", &[1u8][..])));
                assert_eq!(s.count_with_prefix("q/"), 3);
                assert_eq!(s.first_with_prefix("zz"), None);
                // Similar keys do not leak into the prefix.
                assert_eq!(s.keys_with_prefix("q/1"), ["q/1", "q/10"]);
            }

            #[test]
            fn accounting_counts_every_mutation_per_key() {
                let mut s = store();
                s.put("q/1", vec![0; 10]);
                s.put("q/2", vec![0; 5]);
                s.put("x", vec![0; 3]);
                assert_eq!((s.write_ops(), s.bytes_written()), (3, 18));
                s.delete("missing"); // not a write
                assert_eq!(s.write_ops(), 3);
                assert_eq!(s.delete_prefix("q/"), 2);
                assert_eq!(s.write_ops(), 5, "delete_prefix counts per key");
                assert_eq!(s.delete_prefix("q/"), 0);
                assert_eq!(s.write_ops(), 5);
            }

            #[test]
            fn commit_reports_batch_occupancy() {
                let mut s = store();
                s.begin_batch();
                assert!(!s.commit(), "empty batch");
                s.begin_batch();
                s.delete("missing");
                assert!(!s.commit(), "no-op delete is not a mutation");
                s.begin_batch();
                s.put("k", vec![1]);
                assert!(s.commit());
                assert_eq!(s.backend_stats().commits, 1);
            }

            #[test]
            fn crash_reverts_to_last_committed_state() {
                let mut s = store();
                s.begin_batch();
                s.put("a", vec![1]);
                s.put("b", vec![2]);
                assert!(s.commit());
                s.begin_batch();
                s.put("b", vec![20]);
                s.put("c", vec![3]);
                s.delete("a");
                // No commit: the crash must undo all three mutations.
                s.crash_volatile();
                s.recover();
                assert_eq!(
                    dump(&s),
                    vec![("a".to_owned(), vec![1]), ("b".to_owned(), vec![2])]
                );
            }

            #[test]
            fn autocommitted_writes_survive_crashes() {
                // Mutations outside a batch (driver/test writes) are
                // durable immediately.
                let mut s = store();
                s.put("a", vec![1]);
                s.delete("a");
                s.put("b", vec![2]);
                s.crash_volatile();
                s.recover();
                assert_eq!(dump(&s), vec![("b".to_owned(), vec![2])]);
            }

            #[test]
            fn recovery_is_idempotent() {
                let mut s = store();
                for i in 0..30 {
                    s.put(format!("k/{i:02}"), vec![i as u8; 16]);
                }
                s.delete_prefix("k/1");
                s.crash_volatile();
                s.recover();
                let once = dump(&s);
                s.recover();
                assert_eq!(dump(&s), once);
                s.crash_volatile();
                s.recover();
                s.recover();
                assert_eq!(dump(&s), once);
            }
        }
    };
}

conformance_suite!(reference, StableStore::new());
conformance_suite!(wal_default, StableStore::wal(WalConfig::default()));
// Tiny segments force rolls and cleans constantly,
// so the same contract is exercised across log rollovers.
conformance_suite!(
    wal_tiny_checkpoint,
    StableStore::wal(WalConfig {
        checkpoint_bytes: 48,
        path: None
    })
);

/// The same mutation script produces byte-identical dumps and identical
/// commit/record counts on every backend — the property the platform-level
/// fingerprint tests rely on.
#[test]
fn backends_agree_on_a_mixed_script() {
    let mut stores = [
        StableStore::new(),
        StableStore::wal(WalConfig::default()),
        StableStore::wal(WalConfig {
            checkpoint_bytes: 48,
            path: None,
        }),
    ];
    for s in &mut stores {
        for round in 0..8u8 {
            s.begin_batch();
            for i in 0..6u8 {
                s.put(format!("q/{:02}/{round}", i), vec![round; 1 + i as usize]);
            }
            s.delete(&format!("q/{:02}/{}", round % 6, round.saturating_sub(1)));
            s.commit();
            if round % 3 == 2 {
                s.crash_volatile();
                s.recover();
            }
        }
        s.delete_prefix("q/00");
    }
    let [a, b, c] = stores;
    assert_eq!(dump(&a), dump(&b));
    assert_eq!(dump(&a), dump(&c));
    assert_eq!(
        (a.write_ops(), a.bytes_written()),
        (b.write_ops(), b.bytes_written())
    );
    assert_eq!(
        (a.write_ops(), a.bytes_written()),
        (c.write_ops(), c.bytes_written())
    );
    assert_eq!(a.backend_stats().commits, b.backend_stats().commits);
    assert_eq!(a.backend_stats().records, b.backend_stats().records);
    assert_eq!(a.backend_stats().commits, c.backend_stats().commits);
}
