//! What the kernel trace costs the allocator, counted with a counting
//! `#[global_allocator]`: a two-node world whose services ping-pong `n`
//! messages and re-arm a 1 ms timer, run once traced and once untraced. A
//! record holds no copy of a service name and the shard's buffer keeps its
//! capacity, so the difference is the buffers' growth — a few dozen calls,
//! the same at every `n` — and not a few calls per record.
//!
//! And what a callback costs it: the shard hands every callback the same
//! command list, so a service that only re-arms a timer runs `n` callbacks
//! on a bounded number of allocator calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mar_simnet::{Address, Ctx, NodeId, Service, SimDuration, World, WorldConfig};

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

/// Answers every message until it has sent `left`, and keeps a 1 ms timer
/// armed meanwhile.
struct PingPong {
    peer: NodeId,
    left: u32,
    serve: bool,
}

impl Service for PingPong {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
        if self.serve {
            self.answer(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Address, _payload: &[u8]) {
        self.answer(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.left > 0 {
            ctx.set_timer(SimDuration::from_millis(1), tag + 1);
        }
    }
}

impl PingPong {
    fn answer(&mut self, ctx: &mut Ctx<'_>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(Address::new(self.peer, "pp"), vec![0; 16]);
        }
    }
}

/// Runs `n` round trips to quiescence; the records the trace kept.
fn ping_pong(n: u32, trace: bool) -> usize {
    let mut cfg = WorldConfig::with_seed(7);
    cfg.trace = trace;
    let mut w = World::new(cfg);
    let (a, b) = (w.add_node(), w.add_node());
    for (node, peer, serve) in [(a, b, true), (b, a, false)] {
        w.add_service(node, "pp", move || {
            Box::new(PingPong {
                peer,
                left: n,
                serve,
            })
        });
    }
    w.start();
    w.run_to_quiescence(u64::MAX);
    assert_eq!(w.trace().dropped(), 0);
    w.trace().records().len()
}

#[test]
fn tracing_costs_the_allocator_a_bounded_number_of_calls_at_any_run_length() {
    for n in [500, 1_000, 2_000] {
        let (untraced, plain) = calls_by(|| ping_pong(n, false));
        let (traced, with_trace) = calls_by(|| ping_pong(n, true));
        assert_eq!(untraced, 0);
        assert!(traced > 4 * n as usize, "n={n}: {traced} records");
        let extra = with_trace.saturating_sub(plain);
        assert!(
            extra < 64,
            "n={n}: {extra} more allocator calls traced ({with_trace}) than untraced ({plain}) \
             for {traced} records"
        );
    }
}

/// Re-arms a 1 ms timer until it has fired `left` times.
struct Ticker {
    left: u32,
}

impl Service for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Address, _payload: &[u8]) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.left > 0 {
            self.left -= 1;
            ctx.set_timer(SimDuration::from_millis(1), tag + 1);
        }
    }
}

#[test]
fn a_callback_reuses_the_shards_command_list() {
    for n in [1_000, 2_000] {
        let mut w = World::new(WorldConfig::with_seed(7));
        let node = w.add_node();
        w.add_service(node, "tick", move || Box::new(Ticker { left: n }));
        w.start();
        let (events, calls) = calls_by(|| w.run_to_quiescence(u64::MAX));
        assert_eq!(events, u64::from(n) + 1, "n={n}");
        assert!(
            calls < 64,
            "n={n}: {calls} allocator calls for {n} timer callbacks"
        );
    }
}
