//! A global allocator that counts the bytes each thread asks for (and how
//! often it asks), so a test can bound what a decoder allocates by the
//! length of its input. Install it
//! in the test binary with `#[global_allocator]`. [`sweep`] is the decoder
//! sweep built on it; it reads the sibling module `hostile`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested so far (never decremented).
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// How many times it has asked (`alloc` and `realloc` calls).
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts.
pub struct Counting;

fn count(bytes: usize) {
    // `try_with`: an allocation made while the thread tears down is not
    // counted rather than a panic inside the allocator.
    let _ = REQUESTED.try_with(|c| c.set(c.get().saturating_add(bytes)));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded to `System` with its arguments unchanged,
// so `System`'s guarantees are this allocator's. The counters are
// thread-local `Cell<usize>`s with const initializers and no destructor:
// touching them never allocates, which is what keeps `alloc` from
// re-entering itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout` (the caller's contract for `dealloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the bytes the calling thread
/// requested from the allocator meanwhile (grown buffers count at each size).
pub fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// Runs `f` and returns its result with how many times the calling thread
/// went to the allocator meanwhile (a grown buffer counts at each growth).
// One test binary of the eight that include this file asks.
#[allow(dead_code)]
pub fn calls_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// What a decoder may request from the allocator per input byte, and on top
/// of it. Decoded values are wider than their encodings (a one-byte `Null`
/// is a 32-byte `Value`, a one-entry map a whole B-tree node), growing
/// buffers count at every size, and an error carries a message.
pub const ALLOC_PER_BYTE: usize = 256;
/// See [`ALLOC_PER_BYTE`].
pub const ALLOC_BASE: usize = 4096;

/// Runs `read` — a decoder and nothing else — over `bytes` and holds what it
/// requested to the bound. That it returned is the other half: no panic, no
/// abort, a value or a typed error.
pub fn bounded<T>(bytes: &[u8], read: impl FnOnce(&[u8]) -> T) -> T {
    let (out, requested) = requested_by(|| read(bytes));
    let bound = ALLOC_BASE + ALLOC_PER_BYTE * bytes.len();
    assert!(
        requested <= bound,
        "decoding {} bytes requested {requested} (bound {bound}); input starts {:02x?}",
        bytes.len(),
        &bytes[..bytes.len().min(24)]
    );
    out
}

/// [`bounded`] over `valid` and every hostile variant of it
/// (`hostile::each`).
pub fn sweep(valid: &[u8], mut read: impl FnMut(&[u8])) {
    bounded(valid, &mut read);
    super::hostile::each(valid, |bytes| bounded(bytes, &mut read));
}
