//! Shared scenario builders for the integration tests.

use mobile_agent_rollback::core::{LoggingMode, RollbackMode, RollbackScope};
use mobile_agent_rollback::itinerary::{Itinerary, ItineraryBuilder};
use mobile_agent_rollback::platform::{
    AgentBehavior, AgentSpec, Platform, PlatformBuilder, StepCtx, StepDecision,
};
use mobile_agent_rollback::resources::{
    comp_convert_back, comp_undo_transfer, comp_wro_add, BankRm, DirectoryRm, ExchangeRm,
};
use mobile_agent_rollback::simnet::NodeId;
use mobile_agent_rollback::txn::{RmRegistry, TxnError};
use mobile_agent_rollback::wire::Value;

/// A configurable test agent driven by step-name conventions:
///
/// * `deposit` — moves 10 reserve→sink in the local ledger, logs the RCE,
///   and bumps a WRO counter with a matching ACE.
/// * `mixed` — converts 10 USD→EUR wallet cash at the local exchange
///   (logs the mixed compensation entry).
/// * `collect` — directory query into an SRO list (no compensation).
/// * `rollback_once` — requests a rollback of the current sub on first
///   visit (memo `rolled`), continues afterwards.
/// * `rollback_enclosing_once` — same, but `Enclosing(1)`.
/// * `noop`      — does nothing.
pub struct ScriptedAgent;

impl AgentBehavior for ScriptedAgent {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        let base = method.split('#').next().unwrap_or(method);
        match base {
            "deposit" => {
                // A conserving money movement: reserve → sink.
                ctx.call(
                    "ledger",
                    "transfer",
                    &Value::map([
                        ("from", Value::from("reserve")),
                        ("to", Value::from("sink")),
                        ("amount", Value::from(10i64)),
                    ]),
                )?;
                ctx.compensate(comp_undo_transfer("ledger", "reserve", "sink", 10))?;
                let n = ctx.wro("counter").and_then(Value::as_i64).unwrap_or(0);
                ctx.set_wro("counter", Value::from(n + 1));
                ctx.compensate(comp_wro_add("counter", -1))?;
                Ok(StepDecision::Continue)
            }
            "mixed" => {
                let mut wallet = mobile_agent_rollback::resources::Wallet::from_value(
                    ctx.wro("wallet").expect("wallet"),
                )
                .expect("wallet decodes");
                wallet.take(10, "USD").map_err(|s| TxnError::Rejected {
                    resource: "wallet".into(),
                    reason: format!("short {s}"),
                })?;
                let coin_v = ctx.call(
                    "fx",
                    "convert",
                    &Value::map([
                        ("from", Value::from("USD")),
                        ("to", Value::from("EUR")),
                        ("amount", Value::from(10i64)),
                    ]),
                )?;
                let coin = mobile_agent_rollback::resources::coin_from_value(&coin_v)?;
                let received = coin.value;
                wallet.add_coin(coin);
                ctx.set_wro("wallet", wallet.to_value().unwrap());
                ctx.compensate(comp_convert_back("fx", "USD", "EUR", received, "wallet"))?;
                Ok(StepDecision::Continue)
            }
            "collect" => {
                let r = ctx.call("dir", "query", &Value::map([("topic", Value::from("t"))]))?;
                ctx.sro_push("notes", r);
                Ok(StepDecision::Continue)
            }
            "rollback_once" | "rollback_enclosing_once" => {
                let rolled = ctx.wro("rolled").and_then(Value::as_bool).unwrap_or(false);
                if rolled {
                    Ok(StepDecision::Continue)
                } else {
                    ctx.rollback_memo("rolled", Value::Bool(true));
                    let scope = if base == "rollback_once" {
                        RollbackScope::CurrentSub
                    } else {
                        RollbackScope::Enclosing(1)
                    };
                    Ok(StepDecision::Rollback(scope))
                }
            }
            "savepoint" => {
                ctx.request_savepoint();
                Ok(StepDecision::Continue)
            }
            "noop" => Ok(StepDecision::Continue),
            other => Ok(StepDecision::Fail(format!("unknown step {other}"))),
        }
    }
}

/// Registry with ledger + directory + exchange on one node.
pub fn full_node(node: u32) -> RmRegistry {
    let mut rms = RmRegistry::new();
    rms.register(Box::new(
        BankRm::new("ledger", false)
            .with_account("sink", 0)
            .with_account("reserve", 10_000),
    ));
    rms.register(Box::new(
        DirectoryRm::new("dir").with_entry("t", Value::from(format!("entry-{node}"))),
    ));
    rms.register(Box::new(
        ExchangeRm::new("fx")
            .with_rate("USD", "EUR", 1, 1)
            .with_reserve("USD", 10_000)
            .with_reserve("EUR", 10_000),
    ));
    rms
}

/// A platform of `n` nodes (node 0 is the agent home, nodes 1.. carry the
/// full resource set).
pub fn platform(nodes: u32, seed: u64) -> Platform {
    let mut b = PlatformBuilder::new(nodes as usize)
        .seed(seed)
        .behavior("scripted", ScriptedAgent);
    for n in 1..nodes {
        b = b.resources(NodeId(n), move || full_node(n));
    }
    b.build()
}

/// Launches a scripted agent with a funded wallet.
pub fn launch(
    p: &mut Platform,
    itinerary: Itinerary,
    logging: LoggingMode,
    mode: RollbackMode,
) -> mobile_agent_rollback::platform::AgentHandle {
    let mut spec = AgentSpec::new("scripted", NodeId(0), itinerary);
    spec.logging = logging;
    spec.mode = mode;
    let wallet = mobile_agent_rollback::resources::Wallet::with_coins([
        mobile_agent_rollback::resources::Coin {
            serial: "seed-1".into(),
            value: 100,
            currency: "USD".into(),
        },
    ]);
    spec.data.set_wro("wallet", wallet.to_value().unwrap());
    spec.data.set_wro("counter", Value::from(0i64));
    spec.data.set_sro("notes", Value::list([]));
    p.launch(spec)
}

/// Committed balance of the ledger's `sink` account on `node`.
#[allow(dead_code)]
pub fn sink_balance(p: &mut Platform, node: u32) -> i64 {
    let mole = p
        .world_mut()
        .service_mut::<mobile_agent_rollback::platform::MoleService>(
            NodeId(node),
            mobile_agent_rollback::platform::MOLE,
        )
        .expect("mole");
    let snap = mole
        .rms()
        .get("ledger")
        .expect("ledger")
        .snapshot()
        .unwrap();
    let mut entries = mobile_agent_rollback::txn::TxStore::new();
    entries.restore(&snap).unwrap();
    entries
        .peek("acct/sink")
        .and_then(|b| mobile_agent_rollback::wire::from_slice(b).ok())
        .unwrap_or(0)
}

/// Simple linear itinerary: one top-level sub with the given steps.
/// Step names may carry a `#k` suffix to keep methods unique per position.
#[allow(dead_code)] // not every test binary uses every helper
pub fn linear(steps: &[(&str, u32)]) -> Itinerary {
    ItineraryBuilder::main("I")
        .sub("S", |s| {
            for (i, (m, loc)) in steps.iter().enumerate() {
                s.step(format!("{m}#{i}"), *loc);
            }
        })
        .build()
        .expect("valid itinerary")
}
