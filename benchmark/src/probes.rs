//! Layer probes: after a traced round, replay that round's own artefacts —
//! sampled records, snapshot sizes, message sizes — through each layer's
//! public functions and time them.
//!
//! Every probe times calls made from this file; nothing under `crates/` is
//! instrumented. A probe's result is nanoseconds per operation (or per KiB)
//! on inputs the round really produced, so multiplying it by the operation
//! count the round's counters report estimates the layer's busy time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use mar_core::comp::ResourceOp;
use mar_core::itinspan::itinerary_span;
use mar_core::{
    plan_batch, start_rollback, AfterRound, AgentRecord, ItinerarySlot, LazyRecord, ResidentRecord,
    RollbackScope, StartPlan,
};
use mar_net::transport::{Loopback, SocketTransport, Transport};
use mar_net::{NetMsg, Peer};
use mar_resources::ops::Transfer;
use mar_simnet::{NodeId, SimTime, StableStore, WalBackend};
use mar_txn::{LockMode, LockTable, OpCtx, ResourceManager, TxStore, TxnId};
use mar_wire::{frame, Value};

use crate::round::RoundOutcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{ledger, wal_config, Workload};

/// Records replayed per probe: enough for a stable mean, cheap enough to
/// run after every traced round.
const RECORDS_MAX: usize = 48;
/// Repetitions of the fixed-input probes.
const REPS: u32 = 200;

/// Probe results of one round, by per-layer metric name.
pub type Probed = BTreeMap<&'static str, f64>;

/// Mean nanoseconds per call of `f` over `reps` calls.
fn mean_ns<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / f64::from(reps.max(1))
}

fn per_kib(ns: f64, bytes: usize) -> f64 {
    if bytes == 0 {
        0.0
    } else {
        ns / (bytes as f64 / 1024.0)
    }
}

/// Runs every probe on `outcome`'s artefacts.
pub fn run(
    workload: Workload,
    outcome: &RoundOutcome,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> Probed {
    let mut out = Probed::new();
    let records: Vec<&[u8]> = outcome
        .artefacts
        .records
        .iter()
        .take(RECORDS_MAX)
        .map(Vec::as_slice)
        .collect();
    let s = tracer.enter("probe.wire");
    wire(&records, outcome, &mut out);
    tracer.exit(s);
    let s = tracer.enter("probe.core");
    core(&records, &mut out);
    tracer.exit(s);
    let s = tracer.enter("probe.itinerary");
    itinerary(&records, &mut out);
    tracer.exit(s);
    let s = tracer.enter("probe.txn");
    txn(outcome.agents, &mut out);
    tracer.exit(s);
    let s = tracer.enter("probe.resources");
    resources(outcome, &mut out);
    tracer.exit(s);
    let s = tracer.enter("probe.simnet");
    simnet(outcome, out_dir, &mut out);
    tracer.exit(s);
    if workload == Workload::NetTravel {
        let s = tracer.enter("probe.net");
        net(outcome, &mut out);
        tracer.exit(s);
    }
    out
}

/// The mean size of one simulated message — the payload a frame carries.
fn typical_frame_bytes(outcome: &RoundOutcome) -> usize {
    let msgs = outcome.counter("net.msgs_delivered").max(1);
    (outcome.counter("net.bytes_sent") / msgs).max(1) as usize
}

fn wire(records: &[&[u8]], outcome: &RoundOutcome, out: &mut Probed) {
    // Data-space values of the sampled records: what a step decodes,
    // mutates and re-encodes.
    let values: Vec<Value> = records
        .iter()
        .filter_map(|b| AgentRecord::from_bytes(b).ok())
        .map(|rec| {
            Value::map([
                ("sro", Value::Map(rec.data.sro_map().clone())),
                ("wro", Value::Map(rec.data.wro_map().clone())),
            ])
        })
        .collect();
    let encoded: Vec<Vec<u8>> = values
        .iter()
        .map(|v| mar_wire::to_bytes(v).expect("value encodes"))
        .collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    if bytes > 0 {
        let enc = mean_ns(8, || {
            for v in &values {
                black_box(mar_wire::to_bytes(v).expect("value encodes"));
            }
        });
        let dec = mean_ns(8, || {
            for b in &encoded {
                black_box(mar_wire::from_slice::<Value>(b).expect("value decodes"));
            }
        });
        out.insert("wire.encode_ns_per_kib", per_kib(enc, bytes));
        out.insert("wire.decode_ns_per_kib", per_kib(dec, bytes));
        out.insert("wire.decode_encode_ratio", dec / enc);
    }
    let payload = vec![0xA5u8; typical_frame_bytes(outcome)];
    let mut framed = Vec::with_capacity(payload.len() + 8);
    out.insert(
        "wire.frame_write_ns",
        mean_ns(REPS, || {
            framed.clear();
            frame::write_frame(&mut framed, &payload).expect("frame writes");
        }),
    );
    out.insert(
        "wire.frame_read_ns",
        mean_ns(REPS, || {
            frame::read_frame(&mut framed.as_slice()).expect("frame reads")
        }),
    );
    let record_bytes: usize = records.iter().map(|b| b.len()).sum();
    if record_bytes > 0 {
        let ns = mean_ns(8, || {
            for b in records {
                black_box(mar_wire::content_hash64(b));
            }
        });
        out.insert("wire.hash_ns_per_kib", per_kib(ns, record_bytes));
    }
}

fn core(records: &[&[u8]], out: &mut Probed) {
    if records.is_empty() {
        return;
    }
    let n = records.len() as f64;
    let sizes: Vec<f64> = records.iter().map(|b| b.len() as f64).collect();
    out.insert("core.record_bytes_p50", median(&sizes));
    let log_bytes: usize = records
        .iter()
        .filter_map(|b| LazyRecord::parse(b).ok())
        .map(|r| r.log_size_bytes())
        .sum();
    out.insert(
        "core.log_bytes_share",
        log_bytes as f64 / sizes.iter().sum::<f64>(),
    );
    let decoded: Vec<AgentRecord> = records
        .iter()
        .filter_map(|b| AgentRecord::from_bytes(b).ok())
        .collect();
    out.insert(
        "core.record_encode_ns",
        mean_ns(4, || {
            for r in &decoded {
                black_box(r.to_bytes().expect("record encodes"));
            }
        }) / n,
    );
    out.insert(
        "core.record_decode_ns",
        mean_ns(4, || {
            for b in records {
                black_box(AgentRecord::from_bytes(b).expect("record decodes"));
            }
        }) / n,
    );
    out.insert(
        "core.lazy_parse_ns",
        mean_ns(4, || {
            for b in records {
                black_box(LazyRecord::parse(b).expect("record parses"));
            }
        }) / n,
    );
    out.insert(
        "core.transfer_encode_ns",
        mean_ns(4, || {
            for b in records {
                let mut r = ResidentRecord::from_bytes(b).expect("record parses");
                black_box(r.to_transfer_bytes().expect("transfer encodes"));
            }
        }) / n,
    );
    // Compaction and planning mutate: clone outside the timed part.
    let mut fresh = decoded.clone();
    let t = Instant::now();
    for r in &mut fresh {
        black_box(r.compact_log());
    }
    out.insert("core.compact_ns", t.elapsed().as_nanos() as f64 / n);

    let mut plan_ns = 0u128;
    let mut rounds = 0usize;
    for rec in &decoded {
        let Ok(target) = rec.table.resolve(RollbackScope::CurrentSub) else {
            continue;
        };
        let mut copy = rec.clone();
        let t = Instant::now();
        if let Ok(StartPlan::Go(_)) = start_rollback(&copy, target) {
            while let Ok(batch) = plan_batch(&mut copy, target) {
                rounds += batch.rounds_fused();
                if matches!(batch.after, AfterRound::Reached(_)) {
                    break;
                }
            }
        }
        plan_ns += t.elapsed().as_nanos();
    }
    if rounds > 0 {
        out.insert("core.plan_ns_per_round", plan_ns as f64 / rounds as f64);
    }
}

fn itinerary(records: &[&[u8]], out: &mut Probed) {
    let spans: Vec<&[u8]> = records
        .iter()
        .filter_map(|b| itinerary_span(b).ok().map(|r| &b[r]))
        .collect();
    if spans.is_empty() {
        return;
    }
    let ns = mean_ns(4, || {
        for span in &spans {
            let slot = ItinerarySlot::from_span(span).expect("itinerary span");
            black_box(slot.tree().expect("itinerary decodes"));
        }
    });
    out.insert("itinerary.decode_ns", ns / spans.len() as f64);
}

fn txn(agents: usize, out: &mut Probed) {
    let mut locks = LockTable::new();
    let id = TxnId::new(NodeId(1), 1);
    out.insert(
        "txn.lock_ns",
        mean_ns(REPS, || {
            locks
                .acquire(id, "acct/s0", LockMode::Exclusive)
                .expect("uncontended lock");
            locks.release_all(id);
        }),
    );
    // A store shaped like the workload's ledger: two accounts per agent.
    let mut store = TxStore::new();
    for k in 0..agents {
        let balance = mar_wire::to_bytes(&1_000_000i64).expect("i64 encodes");
        store.seed(format!("acct/s{k}"), balance.clone());
        store.seed(format!("acct/d{k}"), balance);
    }
    let bytes = store.snapshot().expect("store snapshots").len();
    let ns = mean_ns(20, || store.snapshot().expect("store snapshots"));
    out.insert("txn.store_snapshot_ns_per_kib", per_kib(ns, bytes));
}

fn resources(outcome: &RoundOutcome, out: &mut Probed) {
    let sizes: Vec<f64> = outcome
        .artefacts
        .rm_snapshot_bytes
        .iter()
        .map(|b| *b as f64)
        .collect();
    if !sizes.is_empty() {
        out.insert("resources.snapshot_bytes_p50", median(&sizes));
    }
    // A standalone ledger with the workload's account count.
    let agents = outcome.agents;
    let mut bank = ledger(agents);
    out.insert(
        "resources.snapshot_ns",
        mean_ns(20, || bank.snapshot().expect("ledger snapshots")),
    );
    let mut seq = 0u64;
    out.insert(
        "resources.invoke_commit_ns",
        mean_ns(REPS, || {
            seq += 1;
            let k = seq as usize % agents;
            let op = Transfer::new("ledger", format!("s{k}"), format!("d{k}"), 1);
            let txn = TxnId::new(NodeId(1), seq);
            let ctx = OpCtx {
                txn,
                now: SimTime::ZERO,
            };
            let result = bank.invoke(ctx, op.op(), &op.params());
            bank.commit(txn);
            result.expect("transfer succeeds")
        }),
    );
}

fn simnet(outcome: &RoundOutcome, out_dir: &Path, out: &mut Probed) {
    // Most stable bytes are resource snapshots, so the per-KiB cost is
    // taken at their size (allocator behaviour changes with block size);
    // without resources, at the mean write size.
    let writes = outcome.counter("stable.writes").max(1);
    let mean_write = outcome.counter("stable.bytes_written") / writes;
    let snapshot = outcome.artefacts.rm_snapshot_bytes.iter().copied().max();
    let value_bytes = snapshot.unwrap_or(0).max(mean_write).max(1) as usize;
    let value = vec![0x5Au8; value_bytes];
    let mut store = StableStore::new();
    // Outside a batch every put is its own commit barrier; the kernel
    // brackets each service callback with `begin_batch` … `commit`.
    store.begin_batch();
    let mut i = 0u32;
    let put = mean_ns(REPS, || {
        i += 1;
        store.put(format!("q/{}", i % 64), value.clone());
    });
    out.insert("simnet.stable_put_ns_per_kib", per_kib(put, value_bytes));
    let mut commit_ns = 0u128;
    for i in 0..REPS {
        store.begin_batch();
        store.put(format!("q/{}", i % 64), vec![1]);
        let t = Instant::now();
        black_box(store.commit());
        commit_ns += t.elapsed().as_nanos();
    }
    out.insert(
        "simnet.stable_commit_ns",
        commit_ns as f64 / f64::from(REPS),
    );

    // One small put and a commit barrier on a file-backed store: the flush
    // cost of this sandbox's file system, not of a device.
    let dir = out_dir.join(format!("probe-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = WalBackend::open(wal_config(dir.clone()), NodeId(0));
    let mut file_store = StableStore::with_backend(Box::new(backend));
    let samples: Vec<f64> = (0..15)
        .map(|i| {
            file_store.begin_batch();
            file_store.put(format!("q/{i}"), vec![0x5A; 64]);
            let t = Instant::now();
            black_box(file_store.commit());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    out.insert("simnet.fsync_ns_p50", median(&samples));
    drop(file_store);
    let _ = std::fs::remove_dir_all(&dir);

    if !outcome.artefacts.wal_reopen_ns.is_empty() {
        let ms: Vec<f64> = outcome
            .artefacts
            .wal_reopen_ns
            .iter()
            .map(|ns| *ns as f64 / 1e6)
            .collect();
        out.insert("simnet.wal_reopen_ms_p50", median(&ms));
    }
}

fn net(outcome: &RoundOutcome, out: &mut Probed) {
    // The mean relayed frame: payload bytes over frames in both directions.
    let frames =
        (outcome.counter("net.frames_sent") + outcome.counter("net.frames_received")).max(1);
    let frame_bytes = (outcome.counter("net.payload_bytes") / frames).max(16) as usize;
    let payload = vec![0xA5u8; frame_bytes];
    if let Ok((a, b)) = UnixStream::pair() {
        if let (Ok(mut a), Ok(mut b)) = (SocketTransport::unix(a), SocketTransport::unix(b)) {
            let ns = mean_ns(REPS, || {
                a.send(&payload).expect("uds send");
                let ping = b.recv().expect("uds recv");
                b.send(&payload).expect("uds send");
                (ping, a.recv().expect("uds recv"))
            });
            out.insert("net.uds_frame_rtt_us", ns / 1e3);
        }
    }
    let (a, b) = Loopback::pair();
    let mut driver = Peer::new(a);
    let mut host = Peer::new(b);
    let mut end_us = 0u64;
    out.insert(
        "net.peer_send_recv_ns",
        mean_ns(REPS, || {
            end_us += 1_000;
            driver
                .send(&NetMsg::RunWindow { end_us })
                .expect("loopback send");
            let window = host.recv().expect("loopback recv");
            host.send(&NetMsg::WindowDone {
                end_us,
                egress: Vec::new(),
                next_min_us: Some(end_us),
            })
            .expect("loopback send");
            (window, driver.recv().expect("loopback recv"))
        }),
    );
}
