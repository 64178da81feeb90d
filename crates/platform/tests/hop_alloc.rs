//! How often a migrating hop goes to the allocator, counted with a counting
//! `#[global_allocator]`: an agent that moves between two nodes on every
//! step, after a first agent of the same type has warmed both nodes. The
//! calls of a 40-hop agent less those of a 20-hop one are what 20 hops
//! cost, with the launch, the report and the settling left out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mar_itinerary::ItineraryBuilder;
use mar_platform::{
    AgentBehavior, AgentSpec, Platform, PlatformBuilder, ReportOutcome, StepCtx, StepDecision,
};
use mar_resources::ops::Transfer;
use mar_resources::BankRm;
use mar_simnet::{NodeId, SimDuration};
use mar_txn::{RmRegistry, TxnError};

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

/// Moves one unit between two accounts of the node's ledger: a step with a
/// resource delta, as the benchmark's forward hop has.
struct Hopper;

impl AgentBehavior for Hopper {
    fn step(&self, _method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        ctx.invoke(&Transfer::new("ledger", "reserve", "sink", 1))?;
        Ok(StepDecision::Continue)
    }
}

fn platform() -> Platform {
    let mut b = PlatformBuilder::new(2).seed(5).behavior("hopper", Hopper);
    for n in 0..2 {
        b = b.resources(NodeId(n), || {
            let mut rms = RmRegistry::new();
            rms.register(Box::new(
                BankRm::new("ledger", false)
                    .with_account("sink", 0)
                    .with_account("reserve", 1_000_000),
            ));
            rms
        });
    }
    b.build()
}

/// An agent that starts on node 0 and moves on every one of its `hops`
/// steps.
fn hopper(hops: u32) -> AgentSpec {
    let itinerary = ItineraryBuilder::main("I")
        .sub("tour", |s| {
            for i in 0..hops {
                s.step("hop", (i + 1) % 2);
            }
        })
        .build()
        .unwrap();
    AgentSpec::new("hopper", NodeId(0), itinerary)
}

/// The allocator calls of running one `hops`-step agent to its report.
fn run(p: &mut Platform, hops: u32) -> usize {
    let ((), calls) = calls_by(|| {
        let agent = p.launch(hopper(hops));
        assert!(p.run_until_settled(&[agent], SimDuration::from_secs(600)));
        let report = p.report(agent).expect("a report");
        assert_eq!(report.outcome, ReportOutcome::Completed);
        assert_eq!(report.steps_committed, u64::from(hops));
    });
    calls
}

/// A warmed hop's allocator calls per committed step. The hop encodes its
/// record once, prices its inline form without an encode, and encodes into
/// buffers that keep their capacity.
#[test]
fn a_warmed_hop_allocates_a_bounded_number_of_times_per_step() {
    let mut p = platform();
    run(&mut p, 40);
    let short = run(&mut p, 20);
    let long = run(&mut p, 40);
    let per_step = long.saturating_sub(short) as f64 / 20.0;
    eprintln!("allocator calls: 20 hops {short}, 40 hops {long}, {per_step:.1} per step");
    assert!(
        per_step <= PER_STEP_MAX,
        "{per_step:.1} allocator calls per committed hop (20 hops {short}, 40 hops {long})"
    );
}

/// The bound: a hop costs 172.9 calls in release and 181.9 in debug. It
/// cost 217.4 in release while it encoded its inline form to price it,
/// walked its record once per intern-table call and grew every encode
/// buffer from empty.
const PER_STEP_MAX: f64 = 200.0;
