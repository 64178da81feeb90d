//! Travel agency: the classic mobile-agent e-commerce scenario.
//!
//! An agent books two premium flight legs on different airline nodes, then
//! tries to book a hotel. The hotel is full — abort-and-restart cannot fix
//! that — so the agent initiates a partial rollback: the committed flight
//! bookings are compensated (cancellation fees apply!) and the agent
//! retries the trip on the budget route instead.
//!
//! Run with: `cargo run --example travel_agency`

use mobile_agent_rollback::core::RollbackScope;
use mobile_agent_rollback::itinerary::ItineraryBuilder;
use mobile_agent_rollback::platform::{
    AgentBehavior, AgentSpec, PlatformBuilder, ReportOutcome, StepCtx, StepDecision,
};
use mobile_agent_rollback::resources::ops::BookFlight;
use mobile_agent_rollback::resources::{BankRm, FlightRm, RefundPolicy, ShopRm};
use mobile_agent_rollback::simnet::{NodeId, SimDuration};
use mobile_agent_rollback::txn::{RmRegistry, TxnError};
use mobile_agent_rollback::wire::Value;

const HOME: u32 = 0;
const AIR_A: u32 = 1; // premium airline, leg 1
const AIR_B: u32 = 2; // premium airline, leg 2
const HOTELS: u32 = 3; // hotel broker
const BUDGET: u32 = 4; // budget airline (fallback)

struct Traveller;

impl Traveller {
    /// Pays the fare from the local bank branch and books the flight; the
    /// whole pair is compensated by ONE resource compensation entry: the
    /// cancellation refunds the fare minus the fee back to the account.
    ///
    /// The withdrawal is a deliberate use of the raw escape hatch — it logs
    /// no compensation of its own, because the typed booking op derives the
    /// pair's entry from its result (the `booking_id`): cancelling refunds
    /// the fare back to the account.
    fn book_flight(ctx: &mut StepCtx<'_>, flight: &str, price: i64) -> Result<(), TxnError> {
        ctx.call(
            "bank",
            "withdraw",
            &Value::map([
                ("account", Value::from("alice")),
                ("amount", Value::from(price)),
            ]),
        )?;
        let booking = ctx.invoke(&BookFlight::new(
            "air", flight, "alice", price, "bank", "alice",
        ))?;
        ctx.sro_push("bookings", Value::from(booking.booking_id));
        Ok(())
    }

    fn on_budget_route(ctx: &StepCtx<'_>) -> bool {
        ctx.wro("premium_failed")
            .and_then(Value::as_bool)
            .unwrap_or(false)
    }
}

impl AgentBehavior for Traveller {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        let budget_route = Self::on_budget_route(ctx);
        match method {
            "choose_route" => {
                println!(
                    "agent: taking the {} route",
                    if budget_route { "budget" } else { "premium" }
                );
                // Checkpoint the route decision. The step wrote no strongly
                // reversible object, so this savepoint's image duplicates
                // the one taken at sub entry — pre-transfer log compaction
                // demotes it to a marker.
                ctx.request_savepoint();
                Ok(StepDecision::Continue)
            }
            "book_leg1" | "book_leg2" => {
                if budget_route {
                    return Ok(StepDecision::Continue); // skip premium legs
                }
                let (flight, price) = if method == "book_leg1" {
                    ("PA-100", 300)
                } else {
                    ("PB-200", 280)
                };
                Self::book_flight(ctx, flight, price)?;
                Ok(StepDecision::Continue)
            }
            "book_hotel" => {
                if budget_route {
                    println!("agent: budget route, sleeping on the red-eye");
                    return Ok(StepDecision::Continue);
                }
                let result = ctx.call(
                    "hotel",
                    "buy_paid",
                    &Value::map([
                        ("sku", Value::from("suite")),
                        ("qty", Value::from(1i64)),
                        ("paid", Value::from(150i64)),
                    ]),
                );
                match result {
                    Ok(_) => Ok(StepDecision::Continue),
                    Err(TxnError::Rejected { reason, .. }) => {
                        // Out of rooms: restarting the step won't help (§1:
                        // "an abort and restart of the step transaction is
                        // not sufficient"). Roll the whole trip back; the
                        // memo survives as weakly reversible state.
                        println!("agent: hotel refused ({reason}); rolling back the premium trip");
                        ctx.rollback_memo("premium_failed", Value::Bool(true));
                        Ok(StepDecision::Rollback(RollbackScope::CurrentSub))
                    }
                    Err(e) => Err(e),
                }
            }
            "book_budget" => {
                if !budget_route {
                    return Ok(StepDecision::Continue); // premium pass: skip
                }
                Self::book_flight(ctx, "BUD-1", 150)?;
                Ok(StepDecision::Continue)
            }
            other => Ok(StepDecision::Fail(format!("unknown step {other}"))),
        }
    }
}

/// Airline node: a flight service plus a local bank branch holding part of
/// alice's travel budget (resources are node-local, §2).
fn airline_node(
    flights: Vec<(&'static str, i64, i64)>,
    budget: i64,
    fee_permille: u64,
) -> RmRegistry {
    let mut rms = RmRegistry::new();
    let mut air = FlightRm::new("air", fee_permille);
    for (f, price, seats) in flights {
        air = air.with_flight(f, price, seats);
    }
    rms.register(Box::new(air));
    rms.register(Box::new(
        BankRm::new("bank", false).with_account("alice", budget),
    ));
    rms
}

fn main() {
    let mut platform = PlatformBuilder::new(5)
        .seed(2026)
        .behavior("traveller", Traveller)
        .resources(NodeId(AIR_A), || {
            airline_node(vec![("PA-100", 300, 5)], 600, 100)
        })
        .resources(NodeId(AIR_B), || {
            airline_node(vec![("PB-200", 280, 5)], 400, 100)
        })
        .resources(NodeId(HOTELS), || {
            let mut rms = RmRegistry::new();
            // Zero rooms: the suite is always sold out.
            rms.register(Box::new(
                ShopRm::new("hotel", RefundPolicy::default()).with_item("suite", 150, 0),
            ));
            rms
        })
        .resources(NodeId(BUDGET), || {
            airline_node(vec![("BUD-1", 150, 9)], 200, 0)
        })
        .build();

    let itinerary = ItineraryBuilder::main("trip")
        .sub("travel", |s| {
            s.step("choose_route", AIR_A)
                .step("book_leg1", AIR_A)
                .step("book_leg2", AIR_B)
                .step("book_hotel", HOTELS)
                .step("book_budget", BUDGET);
        })
        .build()
        .expect("valid itinerary");

    // The traveller carries its trip requirements as strongly reversible
    // state: every savepoint image repeats them, so checkpoints taken while
    // they are unchanged are pure redundancy for compaction to remove.
    let mut spec = AgentSpec::new("traveller", NodeId(HOME), itinerary);
    spec.data.set_sro(
        "requirements",
        Value::map([
            ("passenger", Value::from("alice")),
            (
                "route",
                Value::list([Value::from("HOME"), Value::from("A"), Value::from("B")]),
            ),
            ("class", Value::from("premium-or-budget")),
            ("max_total", Value::from(800i64)),
            (
                "notes",
                Value::from("window seat; late checkout; refundable only"),
            ),
            // A scanned visa page travels with the requirements: the fat
            // payload every savepoint image repeats, which makes the
            // pre-transfer compaction pass worth its CPU under the cost
            // model (sub-kilobyte logs are skipped — see quickstart).
            ("visa_scan", Value::Bytes(vec![0x42; 2048])),
        ]),
    );
    let agent = platform.launch(spec);
    assert!(
        platform.run_until_settled(&[agent], SimDuration::from_secs(300)),
        "agent should settle"
    );

    let report = platform.report(agent).expect("report");
    println!("\noutcome: {:?}", report.outcome);
    assert_eq!(report.outcome, ReportOutcome::Completed);
    let bookings = report
        .record
        .data
        .sro("bookings")
        .unwrap()
        .as_list()
        .unwrap();
    println!("final bookings: {bookings:?}");
    assert_eq!(bookings.len(), 1, "only the budget booking survives");

    let m = platform.snapshot();
    println!("\nwhat happened:");
    for key in [
        "steps.committed",
        "rollback.started",
        "rollback.completed",
        "rollback.rounds",
        "comp.ops",
        "agent.transfers.forward",
        "agent.transfers.rollback",
        "agent.transfer_bytes.forward",
        "agent.transfer_bytes.rollback",
        "log.compactions",
        "log.compactions_skipped",
        "log.compaction_saved_bytes",
        "rollback.batched_rounds",
        "rollback.rounds_saved",
    ] {
        println!("  {key:<28} {}", m.counter(key));
    }

    // Final log accounting, raw vs compacted (the in-flight savings are the
    // log.compaction_saved_bytes counter above).
    let mut final_rec = report.record.clone();
    let raw_bytes = final_rec.log.size_bytes();
    final_rec.compact_log();
    println!("\nfinal log:       {}", final_rec.log.stats());
    println!(
        "compacted vs raw: {} B -> {} B",
        raw_bytes,
        final_rec.log.size_bytes()
    );

    // The premium bookings were compensated — but the cancellation fees
    // stayed with the airlines: the rollback produced an *equivalent*, not
    // identical, state (§3.2). Total money is conserved.
    let money = platform.money_audit(&[]);
    println!("\nmoney audit: {money:?} (conserved: 600+400+200)");
    assert_eq!(money.get("USD"), Some(&1_200));
}
