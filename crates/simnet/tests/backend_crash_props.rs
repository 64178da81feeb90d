//! Trait-boundary crash-injection proptests: random mutation scripts with
//! commit barriers, crashes, and torn-WAL suffixes run simultaneously
//! against the reference backend (the executable durability model) and the
//! WAL backend. After *every* operation the two views must be
//! byte-identical, and the backend-independent counters (commits, records)
//! must agree.
//!
//! The torn-tail operation models the paper's failure window: a node dies
//! while a committed batch is being flushed, leaving a partially framed
//! record at the end of the durable log. The reference model never saw the
//! torn record (it was lost mid-write), so recovery discarding it is
//! exactly what makes the two backends agree.
//!
//! A file-backed arm runs the same scripts on a WAL in a directory of its
//! own, and at every crash also reopens the node from its files with
//! [`WalBackend::open`]: what a restarted process reads must be the
//! reference's committed view. A power-loss arm drives the in-memory WAL
//! through its device model ([`WalBackend::power_loss`]): what survives a
//! machine crash is the committed view as of the last sync, or of a later
//! barrier — never less, and never anything but a prefix of the barriers.
//!
//! Scripts draw from one of two key spaces, so that rolls happen in both
//! regimes of the segment rule: two keys with short values keep the live
//! set under the segment floor, which then sets every roll; a dozen keys
//! with values up to 1 KiB keep it far above, and the live set sets the
//! roll. Either way the cleaner never writes more than the log.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use mar_simnet::stable::wal::{encode_put_frame, MAX_LIVE_SEGMENTS};
use mar_simnet::{NodeId, StableBackend, StableStore, WalBackend, WalConfig};

/// One scripted operation, applied to both stores in lockstep.
#[derive(Debug, Clone)]
enum Op {
    /// Put `key(k)` with a value of `len` bytes (filled with `fill`).
    Put { k: u8, len: u16, fill: u8 },
    /// Delete `key(k)` (may be a no-op).
    Delete { k: u8 },
    /// Delete everything under `prefix(p)`.
    DeletePrefix { p: u8 },
    /// Group-commit barrier.
    Commit,
    /// Crash both nodes and recover: uncommitted mutations are lost.
    CrashRecover,
    /// Crash with a torn durable tail on the WAL: a partial put frame for
    /// `key(k)` cut after `cut % frame_len` bytes is appended as if the
    /// flush was interrupted. The reference model never saw it.
    CrashTorn { k: u8, len: u8, cut: u16 },
}

/// Small key space with two prefix families so `DeletePrefix` bites.
fn key(k: u8) -> String {
    format!("{}/{:02}", if k % 2 == 0 { "q" } else { "log" }, k % 12)
}

fn prefix(p: u8) -> &'static str {
    if p % 2 == 0 {
        "q/"
    } else {
        "log/"
    }
}

fn dump(s: &StableStore) -> Vec<(String, Vec<u8>)> {
    s.iter().map(|(k, v)| (k.to_owned(), v.to_vec())).collect()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>(), any::<u8>())
            .prop_map(|(k, len, fill)| Op::Put { k, len, fill }),
        2 => any::<u8>().prop_map(|k| Op::Delete { k }),
        1 => any::<u8>().prop_map(|p| Op::DeletePrefix { p }),
        3 => Just(Op::Commit),
        1 => Just(Op::CrashRecover),
        1 => (any::<u8>(), any::<u8>(), any::<u16>())
            .prop_map(|(k, len, cut)| Op::CrashTorn { k, len, cut }),
    ]
}

/// One of the two key spaces a script draws from.
#[derive(Debug, Clone, Copy)]
enum Space {
    /// `key(0)` and `key(1)` with values under 16 bytes: two put frames,
    /// 56 bytes at most, under every segment floor these scripts use.
    Small,
    /// `key`'s dozen keys with values under 1 KiB: a live set far above
    /// the floor.
    Large,
}

impl Space {
    fn key(self, k: u8) -> u8 {
        match self {
            Space::Small => k % 2,
            Space::Large => k,
        }
    }

    fn len(self, len: u16) -> u16 {
        match self {
            Space::Small => len % 16,
            Space::Large => len % 1024,
        }
    }

    fn strategy() -> impl Strategy<Value = Space> {
        any::<bool>().prop_map(|small| if small { Space::Small } else { Space::Large })
    }
}

/// A script of up to 80 operations in one key space.
fn script_strategy() -> impl Strategy<Value = Vec<Op>> {
    (
        Space::strategy(),
        proptest::collection::vec(op_strategy(), 1..80),
    )
        .prop_map(|(space, ops)| {
            let narrowed = |op| match op {
                Op::Put { k, len, fill } => Op::Put {
                    k: space.key(k),
                    len: space.len(len),
                    fill,
                },
                Op::Delete { k } => Op::Delete { k: space.key(k) },
                op => op,
            };
            ops.into_iter().map(narrowed).collect()
        })
}

/// Put-frame bytes of the view: what cleaning every key would copy.
fn live_bytes<'a>(view: impl Iterator<Item = (&'a str, &'a [u8])>) -> usize {
    let mut frames = Vec::new();
    for (k, v) in view {
        encode_put_frame(&mut frames, k, v);
    }
    frames.len()
}

/// Segment rolls of a script, by which side of the floor the live set was
/// on when the head closed.
#[derive(Debug, Default, Clone, Copy)]
struct Rolls {
    /// The live set under the floor: the floor set the segment size.
    below_floor: u64,
    /// The live set at or above the floor: it set the segment size.
    above_floor: u64,
}

/// The WAL under `store`.
fn wal_of(store: &mut StableStore) -> &mut WalBackend {
    store
        .backend_mut()
        .as_any_mut()
        .downcast_mut::<WalBackend>()
        .expect("wal store holds a WalBackend")
}

/// Applies `ops` to a reference store and a WAL store in lockstep,
/// asserting view equivalence after every single operation, and that the
/// cleaner never wrote more than the log. With [`WalConfig::path`] set the
/// WAL is file-backed, and every crash also reopens it from its files.
/// Returns the segment rolls the script reached.
fn run_script(ops: &[Op], wal_cfg: WalConfig) -> Rolls {
    let mut rolls = Rolls::default();
    let mut reference = StableStore::new();
    let mut wal = StableStore::with_backend(Box::new(WalBackend::open(wal_cfg.clone(), NodeId(0))));
    let reopen = |reference: &StableStore, i: usize| {
        if wal_cfg.path.is_some() {
            let files =
                StableStore::with_backend(Box::new(WalBackend::open(wal_cfg.clone(), NodeId(0))));
            assert_eq!(dump(reference), dump(&files), "reopened files after op {i}");
        }
    };
    reference.begin_batch();
    wal.begin_batch();

    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Put { k, len, fill } => {
                let value = vec![*fill; *len as usize];
                reference.put(key(*k), value.clone());
                wal.put(key(*k), value);
            }
            Op::Delete { k } => {
                let a = reference.delete(&key(*k));
                let b = wal.delete(&key(*k));
                assert_eq!(a, b, "delete disagreement at op {i}");
            }
            Op::DeletePrefix { p } => {
                let a = reference.delete_prefix(prefix(*p));
                let b = wal.delete_prefix(prefix(*p));
                assert_eq!(a, b, "delete_prefix disagreement at op {i}");
            }
            Op::Commit => {
                let head = wal_of(&mut wal).segment_gens().last().copied();
                let a = reference.commit();
                let b = wal.commit();
                assert_eq!(a, b, "commit occupancy disagreement at op {i}");
                if wal_of(&mut wal).segment_gens().last().copied() != head {
                    if live_bytes(wal.iter()) < wal_cfg.checkpoint_bytes {
                        rolls.below_floor += 1;
                    } else {
                        rolls.above_floor += 1;
                    }
                }
                reference.begin_batch();
                wal.begin_batch();
            }
            Op::CrashRecover => {
                reference.crash_volatile();
                wal.crash_volatile();
                reference.recover();
                wal.recover();
                reopen(&reference, i);
                reference.begin_batch();
                wal.begin_batch();
            }
            Op::CrashTorn { k, len, cut } => {
                // Build a valid put frame and tear it strictly before its
                // end: a complete frame would be legitimately durable on
                // the WAL side but unknown to the reference model.
                let mut frame = Vec::new();
                encode_put_frame(&mut frame, &key(*k), &vec![0xAB; *len as usize]);
                let cut = (*cut as usize) % frame.len();
                wal_of(&mut wal).inject_torn_tail(&frame[..cut]);
                reference.crash_volatile();
                wal.crash_volatile();
                reference.recover();
                wal.recover();
                reopen(&reference, i);
                reference.begin_batch();
                wal.begin_batch();
            }
        }
        assert_eq!(
            dump(&reference),
            dump(&wal),
            "views diverged after op {i}: {op:?}"
        );
        assert_eq!(
            (reference.write_ops(), reference.bytes_written()),
            (wal.write_ops(), wal.bytes_written()),
            "accounting diverged after op {i}"
        );
        let live = wal_of(&mut wal).segment_gens();
        assert!(live.len() <= MAX_LIVE_SEGMENTS, "{live:?} after op {i}");
        let stats = wal.backend_stats();
        assert!(
            stats.checkpoint_bytes <= stats.wal_bytes,
            "the cleaner wrote {} bytes, the log {}, after op {i}",
            stats.checkpoint_bytes,
            stats.wal_bytes
        );
    }

    // Backend-independent counters agree at the end of the script.
    let (r, w) = (reference.backend_stats(), wal.backend_stats());
    assert_eq!(r.commits, w.commits, "commit counts diverged");
    assert_eq!(r.records, w.records, "record counts diverged");
    rolls
}

/// A directory of its own for one file-backed script, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mar-wal-props-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn cfg(&self, checkpoint_bytes: usize) -> WalConfig {
        WalConfig {
            checkpoint_bytes,
            path: Some(self.0.clone()),
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One operation of a power-loss script, on an in-memory WAL.
#[derive(Debug, Clone)]
enum DeviceOp {
    /// Put `key(k)` with a value of `len` bytes, new to this op.
    Put { k: u8, len: u16 },
    /// Delete `key(k)` (may be a no-op).
    Delete { k: u8 },
    /// Group-commit barrier.
    Commit,
    /// Every committed byte to the device, the cleaner's unlink included.
    Sync,
    /// A machine crash.
    PowerLoss,
    /// A machine crash after the first `steps % 6` device steps of a sync.
    PowerLossDuringSync { steps: u8 },
}

fn device_op_strategy() -> impl Strategy<Value = DeviceOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(k, len)| DeviceOp::Put { k, len }),
        2 => any::<u8>().prop_map(|k| DeviceOp::Delete { k }),
        3 => Just(DeviceOp::Commit),
        2 => Just(DeviceOp::Sync),
        1 => Just(DeviceOp::PowerLoss),
        1 => any::<u8>().prop_map(|steps| DeviceOp::PowerLossDuringSync { steps }),
    ]
}

/// A power-loss script of up to 120 operations in one key space.
fn device_script_strategy() -> impl Strategy<Value = Vec<DeviceOp>> {
    (
        Space::strategy(),
        proptest::collection::vec(device_op_strategy(), 1..120),
    )
        .prop_map(|(space, ops)| {
            let narrowed = |op| match op {
                DeviceOp::Put { k, len } => DeviceOp::Put {
                    k: space.key(k),
                    len: space.len(len),
                },
                DeviceOp::Delete { k } => DeviceOp::Delete { k: space.key(k) },
                op => op,
            };
            ops.into_iter().map(narrowed).collect()
        })
}

fn view(b: &WalBackend) -> Vec<(String, Vec<u8>)> {
    b.iter().map(|(k, v)| (k.to_owned(), v.to_vec())).collect()
}

/// Runs `ops` on an in-memory WAL with `checkpoint_bytes`-byte segments.
/// After every power loss the view must be the committed view of a barrier
/// no older than the last completed sync: a sync loses nothing, and what
/// the device holds beyond it is a prefix of the later barriers.
fn run_power_script(ops: &[DeviceOp], checkpoint_bytes: usize) {
    let mut wal = WalBackend::new(WalConfig {
        checkpoint_bytes,
        path: None,
    });
    // The committed views since the last completed sync, that one first.
    let mut since_sync = vec![view(&wal)];
    for (i, op) in ops.iter().enumerate() {
        match *op {
            DeviceOp::Put { k, len } => {
                wal.put(key(k), vec![i as u8; usize::from(len)]);
            }
            DeviceOp::Delete { k } => {
                wal.delete(&key(k));
            }
            DeviceOp::Commit => {
                if wal.commit() {
                    since_sync.push(view(&wal));
                }
            }
            DeviceOp::Sync => {
                wal.sync();
                since_sync.drain(..since_sync.len() - 1);
            }
            DeviceOp::PowerLoss | DeviceOp::PowerLossDuringSync { .. } => {
                if let DeviceOp::PowerLossDuringSync { steps } = *op {
                    wal.power_loss_during_sync(usize::from(steps % 6));
                } else {
                    wal.power_loss();
                }
                let got = view(&wal);
                assert!(
                    since_sync.contains(&got),
                    "op {i}: recovered {got:?}, not one of the committed views \
                     since the last sync {since_sync:?}"
                );
                since_sync = vec![got];
            }
        }
        let live = wal.segment_gens();
        assert!(live.len() <= MAX_LIVE_SEGMENTS, "{live:?} after op {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reference scripts on a file-backed WAL, its segments small
    /// enough that scripts roll and clean all the time; every crash also
    /// reopens the node from its files.
    #[test]
    fn file_backed_wal_matches_reference_model_and_reopens_to_it(
        ops in script_strategy(),
    ) {
        let dir = TempDir::new("script");
        run_script(&ops, dir.cfg(96));
    }

    /// Power loss at any point, mid-sync included, with segments of a few
    /// frames: the cleaner's copy → head flush → unlink → directory sync
    /// order never loses a synced barrier or revives a deleted key.
    #[test]
    fn a_power_loss_keeps_every_synced_barrier(
        ops in device_script_strategy(),
    ) {
        run_power_script(&ops, 64);
    }

    /// Random scripts on the default WAL tuning.
    #[test]
    fn wal_matches_reference_model(
        ops in script_strategy(),
    ) {
        run_script(&ops, WalConfig::default());
    }

    /// The same property with tiny segments, so scripts constantly roll
    /// the head and clean the oldest segment.
    #[test]
    fn wal_matches_reference_model_across_checkpoints(
        ops in script_strategy(),
    ) {
        run_script(&ops, WalConfig { checkpoint_bytes: 96, path: None });
    }
}

/// Pinned regression script: torn tails at both cut extremes, a delete-only
/// batch, and segment rolls — reproduces without proptest shrinking.
#[test]
fn pinned_torn_tail_script() {
    let ops = vec![
        Op::Put {
            k: 0,
            len: 40,
            fill: 1,
        },
        Op::Put {
            k: 2,
            len: 40,
            fill: 2,
        },
        Op::Commit,
        Op::CrashTorn {
            k: 4,
            len: 10,
            cut: 0,
        },
        Op::Put {
            k: 1,
            len: 8,
            fill: 3,
        },
        Op::Commit,
        Op::CrashTorn {
            k: 1,
            len: 30,
            cut: u16::MAX,
        },
        Op::Delete { k: 1 },
        Op::Commit,
        Op::DeletePrefix { p: 0 },
        Op::Commit,
        Op::CrashRecover,
    ];
    run_script(
        &ops,
        WalConfig {
            checkpoint_bytes: 96,
            path: None,
        },
    );
}

/// Pinned: a file-backed script long enough to clean many times, with
/// crashes between cleans and a torn tail; the files reopen to the
/// reference at every crash, and the cleaner must have run. Its puts
/// overwrite six keys in turn, so the segments it fills die.
#[test]
fn pinned_file_backed_script_cleans_and_reopens() {
    let mut ops = Vec::new();
    for round in 0..40u8 {
        ops.push(Op::Put {
            k: round % 3,
            len: 60,
            fill: round,
        });
        ops.push(Op::Put {
            k: 3 + round % 3,
            len: 20,
            fill: round,
        });
        if round % 3 == 0 {
            ops.push(Op::Delete { k: round % 3 });
        }
        ops.push(Op::Commit);
        if round % 7 == 6 {
            ops.push(Op::CrashRecover);
        }
        if round % 11 == 10 {
            ops.push(Op::CrashTorn {
                k: round,
                len: 30,
                cut: u16::from(round),
            });
        }
    }
    let dir = TempDir::new("pinned");
    run_script(&ops, dir.cfg(96));
    let reopened = WalBackend::open(dir.cfg(96), NodeId(0));
    assert!(
        reopened.segment_gens()[0] > 10,
        "the cleaner ran and unlinked"
    );
}

/// Pinned: one 1 KiB value that never dies under a stream of small
/// overwrites, on a 96-byte floor, in memory and file-backed. Were the
/// floor the segment size, a segment would close every five barriers and
/// every other clean would copy the 1 KiB value again: the cleaner would
/// write several times what the log did.
#[test]
fn a_value_that_never_dies_is_not_copied_at_every_roll() {
    let mut ops = vec![
        Op::Put {
            k: 0,
            len: 1024,
            fill: 1,
        },
        Op::Commit,
    ];
    for round in 0..300u16 {
        ops.push(Op::Put {
            k: 1,
            len: 8,
            fill: round as u8,
        });
        ops.push(Op::Commit);
    }
    let dir = TempDir::new("long-lived");
    for cfg in [
        WalConfig {
            checkpoint_bytes: 96,
            path: None,
        },
        dir.cfg(96),
    ] {
        let rolls = run_script(&ops, cfg);
        assert_eq!(rolls.below_floor, 0);
        assert!(rolls.above_floor >= 5, "{rolls:?}");
    }
}

/// Generated scripts roll on both sides of the floor: in the small key
/// space the floor sets the segment size, in the large one the live set.
#[test]
fn generated_scripts_roll_on_both_sides_of_the_floor() {
    let mut rng = proptest::TestRng::for_test("generated_scripts_roll_on_both_sides_of_the_floor");
    let mut total = Rolls::default();
    for _ in 0..64 {
        let ops = script_strategy().generate(&mut rng);
        let rolls = run_script(
            &ops,
            WalConfig {
                checkpoint_bytes: 96,
                path: None,
            },
        );
        total.below_floor += rolls.below_floor;
        total.above_floor += rolls.above_floor;
    }
    eprintln!("rolls of 64 generated scripts: {total:?}");
    assert!(total.below_floor >= 20, "{total:?}");
    assert!(total.above_floor >= 20, "{total:?}");
}

/// Pinned: the live segments of a node never exceed [`MAX_LIVE_SEGMENTS`],
/// in memory and on disk, through batches of every size around the
/// segment size — unsynced barriers between syncs included.
#[test]
fn live_segments_never_exceed_the_bound() {
    let dir = TempDir::new("bound");
    let segment = 128;
    let mut stores = [
        StableStore::wal(WalConfig {
            checkpoint_bytes: segment,
            path: None,
        }),
        StableStore::with_backend(Box::new(WalBackend::open(dir.cfg(segment), NodeId(0)))),
    ];
    for s in &mut stores {
        for i in 0..400usize {
            s.begin_batch();
            for j in 0..i % 5 {
                s.put(
                    format!("q/{:03}", (i * 7 + j) % 50),
                    vec![i as u8; (i * 13) % 300],
                );
            }
            if i % 4 == 0 {
                s.delete(&format!("q/{:03}", i % 50));
            }
            s.end_batch();
            // The output-commit rule syncs about once per dozen barriers.
            if i % 12 == 11 {
                s.sync();
            }
            let live = wal_of(s).segment_gens();
            assert!(live.len() <= MAX_LIVE_SEGMENTS, "{live:?} at batch {i}");
        }
        assert!(s.backend_stats().checkpoints > 10, "the cleaner ran");
    }
    let files = std::fs::read_dir(&dir.0).expect("wal dir").count();
    assert!(files <= MAX_LIVE_SEGMENTS, "{files} files");
}
