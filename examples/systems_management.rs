//! Systems management: a configuration-rollout agent with nested rollback
//! scopes.
//!
//! The agent rolls a new configuration out to a canary server and then to
//! the fleet. On one fleet server it lacks permission — the paper's own
//! introductory example of a situation where "an abort and restart of the
//! step transaction is not sufficient" (§1). The agent rolls back the
//! *enclosing* scope (canary + fleet), retracting every configuration it
//! published, and reports the rollout as abandoned.
//!
//! Run with: `cargo run --example systems_management`

use mobile_agent_rollback::core::RollbackScope;
use mobile_agent_rollback::itinerary::ItineraryBuilder;
use mobile_agent_rollback::platform::{
    AgentBehavior, AgentSpec, PlatformBuilder, ReportOutcome, StepCtx, StepDecision,
};
use mobile_agent_rollback::resources::ops::{PublishEntry, QueryTopic};
use mobile_agent_rollback::resources::DirectoryRm;
use mobile_agent_rollback::simnet::{NodeId, SimDuration};
use mobile_agent_rollback::txn::{RmRegistry, TxnError};
use mobile_agent_rollback::wire::Value;

const OPS: u32 = 0; // operator workstation
const CANARY: u32 = 1;
const FLEET1: u32 = 2;
const FLEET2: u32 = 3; // the agent lacks permission here
const FLEET3: u32 = 4;

struct Rollout;

impl AgentBehavior for Rollout {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        let abandoned = ctx
            .wro("abandoned")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        match method {
            "push_config" => {
                if abandoned {
                    return Ok(StepDecision::Continue); // second pass: no-op walk-through
                }
                // Permission check against the server's ACL directory — a
                // read-only typed op, nothing logged.
                let acl = ctx.query(&QueryTopic::new("cfg", "acl"))?;
                let allowed = acl.iter().any(|v| v.as_str() == Some("rollout-agent"));
                if !allowed {
                    // The paper's §1 case: lacking permission cannot be
                    // fixed by restarting the step — roll back the whole
                    // rollout (canary included): Enclosing(1) from inside
                    // the "fleet" sub reaches "rollout".
                    println!(
                        "agent: permission denied on {} — rolling back the rollout",
                        ctx.node()
                    );
                    ctx.rollback_memo("abandoned", Value::Bool(true));
                    return Ok(StepDecision::Rollback(RollbackScope::Enclosing(1)));
                }
                // Publish + derived retraction, atomically logged.
                ctx.invoke(&PublishEntry::new(
                    "cfg",
                    "config",
                    Value::from("v2: enable-tls=true"),
                ))?;
                ctx.sro_push("updated", Value::from(ctx.node().0 as i64));
                Ok(StepDecision::Continue)
            }
            other => Ok(StepDecision::Fail(format!("unknown step {other}"))),
        }
    }
}

fn server(allow_agent: bool) -> RmRegistry {
    let mut rms = RmRegistry::new();
    let mut dir = DirectoryRm::new("cfg").with_entry("config", Value::from("v1: enable-tls=false"));
    if allow_agent {
        dir = dir.with_entry("acl", Value::from("rollout-agent"));
    }
    rms.register(Box::new(dir));
    rms
}

fn main() {
    let mut platform = PlatformBuilder::new(5)
        .seed(11)
        .behavior("rollout", Rollout)
        .resources(NodeId(CANARY), || server(true))
        .resources(NodeId(FLEET1), || server(true))
        .resources(NodeId(FLEET2), || server(false)) // no permission here
        .resources(NodeId(FLEET3), || server(true))
        .build();

    // Nested scopes: rolling back "fleet" would keep the canary config;
    // the agent instead targets the enclosing "rollout" scope.
    let itinerary = ItineraryBuilder::main("I")
        .sub("rollout", |s| {
            s.sub("canary", |c| {
                c.step("push_config", CANARY);
            })
            .sub("fleet", |f| {
                f.step("push_config", FLEET1)
                    .step("push_config", FLEET2)
                    .step("push_config", FLEET3);
            });
        })
        .build()
        .expect("valid itinerary");

    let agent = platform.launch(AgentSpec::new("rollout", NodeId(OPS), itinerary));
    assert!(
        platform.run_until_settled(&[agent], SimDuration::from_secs(300)),
        "agent should settle"
    );

    let report = platform.report(agent).expect("report");
    assert_eq!(report.outcome, ReportOutcome::Completed);
    println!("\noutcome: {:?}", report.outcome);

    // Every published config was retracted: all servers still run v1.
    let mut world = platform;
    for node in [CANARY, FLEET1, FLEET2, FLEET3] {
        let mole = world
            .world_mut()
            .service_mut::<mobile_agent_rollback::platform::MoleService>(
                NodeId(node),
                mobile_agent_rollback::platform::MOLE,
            )
            .unwrap();
        let snap = mole.rms().get("cfg").unwrap().snapshot().unwrap();
        let mut entries = mobile_agent_rollback::txn::TxStore::new();
        entries.restore(&snap).unwrap();
        let configs = entries
            .iter()
            .filter(|(k, _)| k.starts_with("e/config/"))
            .count();
        println!("node {node}: {configs} config version(s)");
        assert_eq!(configs, 1, "only v1 must remain on node {node}");
    }

    let m = world.snapshot();
    println!("\nwhat happened:");
    for key in [
        "steps.committed",
        "rollback.started",
        "rollback.rounds",
        "comp.ops",
        "log.savepoints_removed",
    ] {
        println!("  {key:<28} {}", m.counter(key));
    }
    assert_eq!(m.counter("rollback.started"), 1);
    // Two successful pushes (canary + fleet1) were compensated.
    assert_eq!(m.counter("comp.ops"), 2);
}
