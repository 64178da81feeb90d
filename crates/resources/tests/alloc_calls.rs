//! How often one bank `transfer` goes to the allocator, counted with a
//! counting `#[global_allocator]`: the operation as a step invokes it
//! through the node's registry, then the prepare that hands its delta record
//! to stable storage. A ledger pays per key touched, not per key held: the
//! calls are equal on a ledger of 100 and of 10,000 accounts, and few.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mar_resources::BankRm;
use mar_simnet::{NodeId, SimTime};
use mar_txn::{OpCtx, RmRegistry, TxnId};
use mar_wire::Value;

thread_local! {
    /// How often this thread has asked (`alloc` and `realloc` calls).
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts.
struct Counting;

fn count() {
    // `try_with`: an allocation made while the thread tears down is not
    // counted rather than a panic inside the allocator.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded to `System` with its arguments unchanged,
// so `System`'s guarantees are this allocator's. The counter is a
// thread-local `Cell<usize>` with a const initializer and no destructor:
// touching it never allocates, which keeps `alloc` from re-entering itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout` (the caller's contract for `dealloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with how many times the calling thread
/// went to the allocator meanwhile.
fn calls_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

fn ctx(seq: u64) -> OpCtx {
    OpCtx {
        txn: TxnId::new(NodeId(1), seq),
        now: SimTime::ZERO,
    }
}

fn transfer(from: usize, to: usize) -> Value {
    Value::map([
        ("from", Value::from(format!("s{from}"))),
        ("to", Value::from(format!("d{to}"))),
        ("amount", Value::from(1i64)),
    ])
}

/// The allocator calls of one transfer's `invoke` and of its `prepare_all`
/// on a ledger of `pairs` account pairs, shaped like the benchmark's, after
/// a few committed transfers have written its first base image and delta
/// records. Each is the least over the next transfers that write no fold:
/// an insertion into a B-tree splits a node now and then (about one in five
/// appends), and when depends on how many keys the ledger holds, as does
/// when a fold is due.
fn transfer_calls(pairs: usize) -> (usize, usize) {
    let mut bank = BankRm::new("ledger", false);
    for k in 0..pairs {
        bank = bank
            .with_account(&format!("s{k}"), 1_000_000)
            .with_account(&format!("d{k}"), 0);
    }
    let mut reg = RmRegistry::new();
    reg.register(Box::new(bank));
    let mut least = (usize::MAX, usize::MAX);
    for seq in 1..=24 {
        let k = seq as usize * 7 % pairs;
        let params = transfer(k, (k + 1) % pairs);
        let txn = ctx(seq);
        let (out, invoke) = calls_by(|| reg.invoke(txn, "ledger", "transfer", &params));
        out.unwrap();
        let (writes, prepare) = calls_by(|| reg.prepare_all(txn.txn).unwrap());
        reg.commit_all(txn.txn).unwrap();
        // A delta record and no fold.
        if seq > 8 && writes.len() == 1 {
            least = (least.0.min(invoke), least.1.min(prepare));
        }
    }
    least
}

#[test]
fn a_transfer_pays_per_key_touched_not_per_key_held() {
    let small = transfer_calls(50);
    let large = transfer_calls(5_000);
    assert_eq!(
        small, large,
        "(invoke, prepare_all) allocator calls at 100 and at 10,000 accounts"
    );
    let (invoke, prepare) = small;
    assert!(
        invoke + prepare <= 30,
        "one transfer went to the allocator {invoke} times in invoke and \
         {prepare} in prepare_all"
    );
}
