//! Quickstart: a three-node world, an information-gathering agent, and a
//! partial rollback triggered by the agent's own program logic.
//!
//! Run with: `cargo run --example quickstart`

use mobile_agent_rollback::core::RollbackScope;
use mobile_agent_rollback::itinerary::ItineraryBuilder;
use mobile_agent_rollback::platform::{
    AgentBehavior, AgentSpec, PlatformBuilder, StepCtx, StepDecision,
};
use mobile_agent_rollback::resources::ops::{QueryTopic, Transfer};
use mobile_agent_rollback::resources::{BankRm, DirectoryRm};
use mobile_agent_rollback::simnet::{NodeId, SimDuration};
use mobile_agent_rollback::txn::{RmRegistry, TxnError};
use mobile_agent_rollback::wire::Value;

/// A shopping scout: gathers offers, reserves budget, and rolls the
/// reservation back when the offers look bad.
struct Scout;

impl AgentBehavior for Scout {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        match method {
            // Query the local directory; results go into a *strongly
            // reversible* vector (restored from a before-image on rollback).
            // Read-only typed op: `query` decodes the result and logs
            // nothing — there is nothing to compensate.
            "scan_offers" => {
                let offers = ctx.query(&QueryTopic::new("dir", "gpu"))?;
                ctx.sro_push("offers", Value::List(offers));
                // Checkpoint the gathered offers: an explicit savepoint is
                // constituted at the end of this step.
                ctx.request_savepoint();
                Ok(StepDecision::Continue)
            }
            // Reserve budget by moving money to an escrow account. The
            // typed op executes the transfer AND logs its compensating
            // transfer in one call, under the kind its handler is registered
            // with (a pure resource compensation entry, §4.4.1) — the raw
            // pair `ctx.call(..)` + `ctx.compensate(comp_undo_transfer(..))`
            // remains available as the escape hatch and writes the
            // identical log frame.
            "reserve_budget" => {
                ctx.invoke(&Transfer::new("bank", "scout", "escrow", 500))?;
                // Another checkpoint. No SRO changed since the last one, so
                // this savepoint's image duplicates it — the redundancy
                // pre-transfer log compaction demotes to a marker. (This
                // scout's log is tiny, though: the cost model concludes the
                // wire bytes saved cannot pay for the pass and *skips* it —
                // watch `log.compactions_skipped` below. The travel_agency
                // example carries a fat enough state to make it fire.)
                ctx.request_savepoint();
                Ok(StepDecision::Continue)
            }
            // Program logic: if we've not yet retried, decide the strategy
            // failed and roll the whole sub-task back (§2: "the program
            // logic of the agent detects that the current strategy does not
            // lead to the agent's goal").
            "evaluate" => {
                let retried = ctx.wro("retried").and_then(Value::as_bool).unwrap_or(false);
                if retried {
                    println!("agent: retry succeeded, finishing");
                    Ok(StepDecision::Continue)
                } else {
                    println!("agent: offers too expensive, rolling back the sub-task");
                    // Rides on the rollback request itself; a plain WRO
                    // write would be undone with the aborting step txn.
                    ctx.rollback_memo("retried", Value::Bool(true));
                    Ok(StepDecision::Rollback(RollbackScope::CurrentSub))
                }
            }
            other => Ok(StepDecision::Fail(format!("unknown step {other}"))),
        }
    }
}

fn main() {
    // Three nodes: 0 = the agent's home, 1 = market, 2 = bank branch.
    // Compaction rewrites redundant savepoint payloads before every remote
    // transfer (see the byte counts printed at the end).
    let mut platform = PlatformBuilder::new(3)
        .seed(42)
        .behavior("scout", Scout)
        .resources(NodeId(1), || {
            let mut rms = RmRegistry::new();
            rms.register(Box::new(
                DirectoryRm::new("dir")
                    .with_entry("gpu", Value::from("vendor-a: 740 USD"))
                    .with_entry("gpu", Value::from("vendor-b: 810 USD")),
            ));
            rms
        })
        .resources(NodeId(2), || {
            let mut rms = RmRegistry::new();
            rms.register(Box::new(
                BankRm::new("bank", false)
                    .with_account("scout", 1_000)
                    .with_account("escrow", 0),
            ));
            rms
        })
        .build();

    // The itinerary: one top-level sub-task (= rollback scope + log
    // truncation point) visiting the market and the bank.
    let itinerary = ItineraryBuilder::main("I")
        .sub("shop", |s| {
            s.step("scan_offers", 1)
                .step("reserve_budget", 2)
                .step("evaluate", 1);
        })
        .build()
        .expect("valid itinerary");

    let agent = platform.launch(AgentSpec::new("scout", NodeId(0), itinerary));
    let done = platform.run_until_settled(&[agent], SimDuration::from_secs(120));
    assert!(done, "agent should settle");

    let report = platform.report(agent).expect("report");
    println!("\noutcome:        {:?}", report.outcome);
    println!("steps committed: {}", report.steps_committed);
    println!(
        "virtual time:    {:.3}s",
        report.finished_at_us as f64 / 1e6
    );

    let m = platform.snapshot();
    println!("\nselected metrics:");
    for key in [
        "steps.committed",
        "rollback.started",
        "rollback.completed",
        "rollback.rounds",
        "agent.transfers.forward",
        "agent.transfers.rollback",
        "agent.transfer_bytes.forward",
        "log.compactions",
        "log.compactions_skipped",
        "log.compaction_saved_bytes",
        "rollback.batched_rounds",
        "rollback.rounds_saved",
    ] {
        println!("  {key:<28} {}", m.counter(key));
    }

    // Final log accounting: what the agent carried home, raw vs compacted.
    // (The top-level sub completed, so most of the log was discarded; the
    // in-flight savings show up in log.compaction_saved_bytes above.)
    let mut final_rec = report.record.clone();
    let raw_bytes = final_rec.log.size_bytes();
    final_rec.compact_log();
    println!("\nfinal log:       {}", final_rec.log.stats());
    println!(
        "compacted vs raw: {} B -> {} B",
        raw_bytes,
        final_rec.log.size_bytes()
    );

    // Money never leaks, even across the rollback.
    let money = platform.money_audit(&[]);
    println!("\nmoney audit: {money:?}");
    assert_eq!(money.get("USD"), Some(&1_000));
}
