//! The decoder sweep (`counting_alloc::sweep`) over what a node of this
//! crate reads back or is handed: a prepared entry out of `2pc/prepared/`, a
//! 2PC message off the wire, a resource's base image and delta record out of
//! `rm/`. A value or a typed error — no panic, no abort, at most 4 KiB +
//! 256 B per input byte requested from the allocator.

#[path = "../../core/tests/common/counting_alloc.rs"]
mod counting_alloc;
#[path = "../../core/tests/common/hostile.rs"]
mod hostile;

use counting_alloc::{sweep, Counting};
use mar_simnet::NodeId;
use mar_txn::{PreparedEntry, RemoteWork, TxEnvelope, TxMsg, TxStore, TxnId};

#[global_allocator]
static ALLOC: Counting = Counting;

fn work() -> RemoteWork {
    let items = vec![
        RemoteWork::new("rce", vec![9, 8]),
        RemoteWork::new("enqueue-rbk", vec![0xAA; 5]),
    ];
    RemoteWork::new("batch", mar_wire::to_bytes(&items).unwrap())
}

#[test]
fn a_prepared_entry_and_a_prepare_survive_the_sweep() {
    let entry = PreparedEntry {
        coordinator: NodeId(3),
        work: work(),
    };
    sweep(&mar_wire::to_bytes(&entry).unwrap(), |b| {
        let _ = mar_wire::from_slice::<PreparedEntry>(b);
    });
    let prepare = TxEnvelope {
        from: NodeId(3),
        msg: TxMsg::Prepare {
            txn: TxnId::new(NodeId(3), 41),
            work: work(),
            decide: true,
        },
    };
    sweep(&mar_wire::to_bytes(&prepare).unwrap(), |b| {
        let _ = mar_wire::from_slice::<TxEnvelope>(b);
    });
}

#[test]
fn a_base_image_and_a_delta_record_survive_the_sweep() {
    let mut store = TxStore::new();
    for k in 0..4u8 {
        store.seed(format!("acct/{k}"), vec![k; 8]);
    }
    let base = store.snapshot().unwrap();
    let txn = TxnId::new(NodeId(0), 1);
    store.write(txn, "acct/1", vec![7; 8]).unwrap();
    store.remove(txn, "acct/2").unwrap();
    let delta = store.delta(txn).expect("the transaction wrote");
    sweep(&base, |b| {
        let _ = TxStore::new().restore(b);
    });
    sweep(&delta, |b| {
        let _ = TxStore::new().apply_delta(b);
    });
}
