//! How often an encode goes to the allocator, counted with a counting
//! `#[global_allocator]`. `to_bytes` and `encoded_size` encode into a
//! per-thread buffer that keeps its capacity: a warm `to_bytes` asks once,
//! for the exact-length copy it returns, and `encoded_size` not at all. A
//! buffer grown past 64 KiB is released after use, and an encode nested in
//! a `Serialize` impl encodes into a buffer of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serde::ser::{Serialize, SerializeStruct, Serializer};

thread_local! {
    /// How often this thread has asked (`alloc` and `realloc` calls).
    static CALLS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread holds from the allocator, net of what it gave back.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts.
struct Counting;

fn count(grown: isize) {
    // `try_with`: an allocation made while the thread tears down is not
    // counted rather than a panic inside the allocator.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE.try_with(|l| l.set(l.get() + grown));
}

// SAFETY: every call is forwarded to `System` with its arguments unchanged,
// so `System`'s guarantees are this allocator's. The counters are
// thread-local `Cell`s with const initializers and no destructor: touching
// them never allocates, which keeps `alloc` from re-entering itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|l| l.set(l.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout` (the caller's contract for `dealloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
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

/// A value shaped like a log entry: a few scalars, a string, a byte run.
fn entry(n: u64) -> (u64, String, mar_wire::Bytes, Option<i64>) {
    (n, format!("step-{n}"), vec![7u8; 200].into(), Some(-3))
}

#[test]
fn a_warm_to_bytes_asks_once_and_returns_no_slack() {
    let value = entry(1);
    let cold = mar_wire::to_bytes(&value).unwrap();
    for n in 0..50 {
        let value = entry(n);
        let (bytes, calls) = calls_by(|| mar_wire::to_bytes(&value).unwrap());
        assert_eq!(calls, 1, "n={n}");
        assert_eq!(bytes.len(), bytes.capacity(), "n={n}");
        if n == 1 {
            assert_eq!(bytes, cold);
        }
    }
}

#[test]
fn encoded_size_does_not_allocate() {
    let warm = mar_wire::to_bytes(&entry(0)).unwrap();
    for n in 0..50 {
        let value = entry(n);
        let (size, calls) = calls_by(|| mar_wire::encoded_size(&value).unwrap());
        assert_eq!(calls, 0, "n={n}");
        assert_eq!(size, mar_wire::to_bytes(&value).unwrap().len());
    }
    assert!(!warm.is_empty());
}

#[test]
fn a_buffer_grown_past_the_cap_is_released() {
    let small = entry(0);
    mar_wire::to_bytes(&small).unwrap();
    let big = mar_wire::Bytes::from(vec![1u8; 256 * 1024]);
    let before = LIVE.with(Cell::get);
    let bytes = mar_wire::to_bytes(&big).unwrap();
    assert_eq!(bytes.len(), bytes.capacity());
    drop(bytes);
    let held = LIVE.with(Cell::get) - before;
    assert!(
        held < 4 * 1024,
        "{held} bytes still held after a 256 KiB encode was dropped"
    );
    // The next small encode grows a buffer again, then asks once per call.
    let (_, regrow) = calls_by(|| mar_wire::to_bytes(&small).unwrap());
    assert!(regrow > 1, "{regrow} calls after the release");
    let (_, warm) = calls_by(|| mar_wire::to_bytes(&small).unwrap());
    assert_eq!(warm, 1);
}

/// Serializes its fields and, inside that, encodes its inner value
/// itself: a `to_bytes` nested in a `to_bytes`.
struct Nests {
    id: u64,
    inner: (u64, String),
}

impl Serialize for Nests {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let inner = mar_wire::to_bytes(&self.inner).map_err(serde::ser::Error::custom)?;
        let size = mar_wire::encoded_size(&self.inner).map_err(serde::ser::Error::custom)?;
        assert_eq!(size, inner.len());
        let mut st = s.serialize_struct("Nests", 2)?;
        st.serialize_field("id", &self.id)?;
        st.serialize_field("inner", &mar_wire::Bytes::from(inner))?;
        st.end()
    }
}

#[test]
fn a_nested_encode_encodes_correctly() {
    let value = Nests {
        id: 9,
        inner: (41, "inner".to_owned()),
    };
    let inner = mar_wire::to_bytes(&value.inner).unwrap();
    let by_hand = mar_wire::to_bytes(&(9u64, mar_wire::Bytes::from(inner.clone()))).unwrap();
    for _ in 0..3 {
        let bytes = mar_wire::to_bytes(&value).unwrap();
        assert_eq!(bytes, by_hand);
        assert_eq!(mar_wire::encoded_size(&value).unwrap(), by_hand.len());
        let (id, back): (u64, mar_wire::Bytes) = mar_wire::from_slice(&bytes).unwrap();
        assert_eq!((id, back.into_vec()), (9, inner.clone()));
    }
}
