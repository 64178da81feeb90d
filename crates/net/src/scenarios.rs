//! Scenario registry: world builders both the driver and node-host
//! processes compile in.
//!
//! A distributed run never ships behaviour code — the driver's
//! [`NetMsg::Topology`](crate::proto::NetMsg::Topology) names a scenario,
//! and every process constructs the identical
//! [`PlatformBuilder`] from this registry (same seed, same latency model,
//! same resources), then owns its slice of the nodes. Keeping the builders
//! here, used by the binaries, the integration tests, and the CI smoke
//! run alike, is what makes "the host runs the same world as the
//! in-process control" checkable rather than aspirational.

use mar_core::RollbackScope;
use mar_itinerary::ItineraryBuilder;
use mar_platform::{AgentBehavior, AgentSpec, PlatformBuilder, StepCtx, StepDecision};
use mar_resources::ops::BookFlight;
use mar_resources::{BankRm, FlightRm, RefundPolicy, ShopRm};
use mar_simnet::NodeId;
use mar_txn::{RmRegistry, TxnError};
use mar_wire::Value;

/// Scenario name of [`travel_builder`].
pub const TRAVEL: &str = "travel";

/// Node count of the travel scenario.
pub const TRAVEL_NODES: u32 = 5;

const HOME: u32 = 0;
const AIR_A: u32 = 1;
const AIR_B: u32 = 2;
const HOTELS: u32 = 3;
const BUDGET: u32 = 4;

/// The travel-agency traveller (the repository's flagship example, minus
/// the narration): two premium flight legs, a hotel that is always full,
/// a partial rollback with cancellation fees, and a budget-route retry.
struct Traveller;

impl Traveller {
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
                ctx.request_savepoint();
                Ok(StepDecision::Continue)
            }
            "book_leg1" | "book_leg2" => {
                if budget_route {
                    return Ok(StepDecision::Continue);
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
                    Err(TxnError::Rejected { .. }) => {
                        ctx.rollback_memo("premium_failed", Value::Bool(true));
                        Ok(StepDecision::Rollback(RollbackScope::CurrentSub))
                    }
                    Err(e) => Err(e),
                }
            }
            "book_budget" => {
                if !budget_route {
                    return Ok(StepDecision::Continue);
                }
                Self::book_flight(ctx, "BUD-1", 150)?;
                Ok(StepDecision::Continue)
            }
            other => Ok(StepDecision::Fail(format!("unknown step {other}"))),
        }
    }
}

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

/// The travel-agency world: 5 nodes, seeded resources sized so a fleet of
/// agents contends for seats. Total committed money in the system is
/// 6000 + 4000 + 2000 = 12000 USD at every quiescent point, whatever the
/// agents did — the audit every deployment shape must reproduce.
pub fn travel_builder(seed: u64) -> PlatformBuilder {
    PlatformBuilder::new(TRAVEL_NODES as usize)
        .seed(seed)
        .behavior("traveller", Traveller)
        .resources(NodeId(AIR_A), || {
            airline_node(vec![("PA-100", 300, 64)], 6_000, 100)
        })
        .resources(NodeId(AIR_B), || {
            airline_node(vec![("PB-200", 280, 64)], 4_000, 100)
        })
        .resources(NodeId(HOTELS), || {
            let mut rms = RmRegistry::new();
            // Zero rooms: the suite is always sold out, every agent rolls
            // its premium legs back and retries on the budget route.
            rms.register(Box::new(
                ShopRm::new("hotel", RefundPolicy::default()).with_item("suite", 150, 0),
            ));
            rms
        })
        .resources(NodeId(BUDGET), || {
            airline_node(vec![("BUD-1", 150, 64)], 2_000, 0)
        })
}

/// Launch specs for a fleet of `agents` travellers, all starting from the
/// home node.
pub fn travel_fleet(agents: u32) -> Vec<AgentSpec> {
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
    (0..agents)
        .map(|_| {
            let mut spec = AgentSpec::new("traveller", NodeId(HOME), itinerary.clone());
            spec.data.set_sro(
                "requirements",
                Value::map([
                    ("passenger", Value::from("alice")),
                    ("class", Value::from("premium-or-budget")),
                    ("visa_scan", Value::Bytes(vec![0x42; 2048])),
                ]),
            );
            spec
        })
        .collect()
}

/// The builder for a scenario name, or `None` for an unknown name.
pub fn builder(scenario: &str, seed: u64) -> Option<PlatformBuilder> {
    match scenario {
        TRAVEL => Some(travel_builder(seed)),
        _ => None,
    }
}

/// The node count of a scenario name.
pub fn node_count(scenario: &str) -> Option<u32> {
    match scenario {
        TRAVEL => Some(TRAVEL_NODES),
        _ => None,
    }
}

/// The fleet specs of a scenario name.
pub fn fleet(scenario: &str, agents: u32) -> Option<Vec<AgentSpec>> {
    match scenario {
        TRAVEL => Some(travel_fleet(agents)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_simnet::SimDuration;

    #[test]
    fn travel_scenario_settles_in_process() {
        let mut p = builder(TRAVEL, 11).unwrap().build();
        let handles = p.launch_fleet(fleet(TRAVEL, 2).unwrap());
        assert!(p.run_until_settled(&handles, SimDuration::from_secs(600)));
        for h in &handles {
            let r = p.report(*h).expect("report");
            assert_eq!(r.outcome, mar_platform::ReportOutcome::Completed);
        }
        assert_eq!(p.money_audit(&[]).get("USD"), Some(&12_000));
    }
}
