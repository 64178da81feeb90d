//! Shared scenario machinery for the platform property suites: the
//! step-name-scripted agent behaviour, the random fleet / crash-schedule
//! generators, and the run fingerprint helpers. The shard-equivalence,
//! step-path-cache, and stable-backend suites all drive the same generated
//! scenarios — parameterized over shard counts, cache modes, and stable
//! backends — so the generators live here once.

// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

use std::collections::BTreeMap;

use proptest::prelude::*;

use mar_core::{LoggingMode, RollbackMode, RollbackScope};
use mar_platform::{
    AgentBehavior, AgentHandle, AgentSpec, Platform, PlatformBuilder, StepCtx, StepDecision,
};
use mar_resources::ops::Transfer;
use mar_resources::BankRm;
use mar_simnet::{NodeId, SimTime, StableFactory};
use mar_txn::{RmRegistry, TxnError};
use mar_wire::Value;

/// Step-name-scripted agent: `rce` transfers and logs an RCE, `sro:N` pads
/// a strongly reversible list, `sp` transfers and requests a savepoint,
/// `rbk` rolls the sub back once.
pub struct Scripted;

impl AgentBehavior for Scripted {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        let base = method.split('#').next().unwrap_or(method);
        if let Some(size) = base.strip_prefix("sro:") {
            let size: usize = size.parse().unwrap_or(0);
            ctx.sro_push("notes", Value::Bytes(vec![0x5A; size]));
            return Ok(StepDecision::Continue);
        }
        match base {
            "rce" => {
                ctx.invoke(&Transfer::new("ledger", "reserve", "sink", 7))?;
                Ok(StepDecision::Continue)
            }
            "sp" => {
                ctx.invoke(&Transfer::new("ledger", "reserve", "sink", 3))?;
                ctx.request_savepoint();
                Ok(StepDecision::Continue)
            }
            "rbk" => {
                if ctx.wro("rolled").and_then(Value::as_bool).unwrap_or(false) {
                    Ok(StepDecision::Continue)
                } else {
                    ctx.rollback_memo("rolled", Value::Bool(true));
                    Ok(StepDecision::Rollback(RollbackScope::CurrentSub))
                }
            }
            other => Ok(StepDecision::Fail(format!("unknown step {other}"))),
        }
    }
}

/// One generated step: kind index × node.
#[derive(Debug, Clone, Copy)]
pub struct GenStep {
    pub kind: u8,
    pub node: u32,
}

/// One generated agent: home node, per-step (kind, node) script, and
/// whether the script ends in a rollback step.
#[derive(Debug, Clone)]
pub struct GenAgent {
    pub home: u32,
    pub steps: Vec<(u8, u32)>,
    pub rollback: bool,
}

/// One generated crash: node, crash time, and outage length (virtual ms).
#[derive(Debug, Clone, Copy)]
pub struct GenCrash {
    pub node: u32,
    pub at_ms: u64,
    pub down_ms: u64,
}

/// Maps a generated step kind to a scripted method name.
pub fn step_name(kind: u8, i: usize) -> String {
    match kind % 4 {
        0 => format!("rce#{i}"),
        1 => format!("sro:96#{i}"),
        2 => format!("sp#{i}"),
        _ => format!("rce#{i}"),
    }
}

/// The builder behind every test platform: `nodes` nodes, the [`Scripted`]
/// behaviour, and a `BankRm` ledger on every node but 0. Suites set the
/// axis they vary (shards, cache, interning, routing) on the result.
pub fn scripted_builder(nodes: u32, seed: u64, stable: &StableFactory) -> PlatformBuilder {
    let mut b = PlatformBuilder::new(nodes as usize)
        .seed(seed)
        .stable_backend(stable.clone())
        .behavior("scripted", Scripted);
    for n in 1..nodes {
        b = b.resources(NodeId(n), move || {
            let mut rms = RmRegistry::new();
            rms.register(Box::new(
                BankRm::new("ledger", false)
                    .with_account("sink", 0)
                    .with_account("reserve", 100_000),
            ));
            rms
        });
    }
    b
}

/// Builds the standard test platform ([`scripted_builder`]) — parameterized
/// over shard count, resident-cache mode, and stable backend.
pub fn build_platform(
    nodes: u32,
    seed: u64,
    shards: usize,
    resident_cache: bool,
    stable: &StableFactory,
) -> Platform {
    scripted_builder(nodes, seed, stable)
        .shards(shards)
        .resident_cache(resident_cache)
        .build()
}

/// Like [`build_platform`], but parameterized over itinerary interning
/// instead of the resident cache, with kernel tracing enabled so suites can
/// compare send/deliver timelines byte for byte.
pub fn build_platform_itin(
    nodes: u32,
    seed: u64,
    shards: usize,
    interning: bool,
    stable: &StableFactory,
) -> Platform {
    scripted_builder(nodes, seed, stable)
        .shards(shards)
        .trace(true)
        .itinerary_interning(interning)
        .build()
}

/// Drops the `itinerary.*` counters — the one metric family allowed to
/// differ between an interning-on run and its interning-off control.
pub fn strip_itinerary_counters(counters: BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters
        .into_iter()
        .filter(|(k, _)| !k.starts_with("itinerary."))
        .collect()
}

/// Schedules the generated crashes (nodes folded into `1..nodes`, so node 0
/// — every agent's possible home — stays up for report delivery checks that
/// need it).
pub fn schedule_crashes(p: &mut Platform, nodes: u32, crashes: &[GenCrash]) {
    for c in crashes {
        let node = NodeId(1 + c.node % (nodes - 1));
        let at = SimTime::from_micros(c.at_ms * 1000);
        let back = SimTime::from_micros((c.at_ms + c.down_ms) * 1000);
        p.world_mut().schedule_crash(at, node);
        p.world_mut().schedule_recover(back, node);
    }
}

/// Launches every generated agent (state logging, optimized rollback) and
/// returns the handles in launch order.
pub fn launch_agents(p: &mut Platform, nodes: u32, agents: &[GenAgent]) -> Vec<AgentHandle> {
    let mut handles = Vec::new();
    for (ai, a) in agents.iter().enumerate() {
        let it = {
            let mut b = mar_itinerary::ItineraryBuilder::main(format!("I{ai}"));
            b = b.sub("S", |s| {
                for (i, &(kind, node)) in a.steps.iter().enumerate() {
                    s.step(step_name(kind, i), 1 + node % (nodes - 1));
                }
                if a.rollback {
                    let last = a.steps.last().map_or(1, |&(_, n)| 1 + n % (nodes - 1));
                    s.step(format!("rbk#{}", a.steps.len()), last);
                }
            });
            b.build().expect("valid generated itinerary")
        };
        let mut spec = AgentSpec::new("scripted", NodeId(a.home % nodes), it);
        spec.logging = LoggingMode::State;
        spec.mode = RollbackMode::Optimized;
        spec.data.set_sro("notes", Value::list([]));
        handles.push(p.launch(spec));
    }
    handles
}

/// Per-node dump of the complete stable store — the byte-identity currency
/// of every equivalence suite.
pub fn stable_dump(p: &Platform) -> Vec<BTreeMap<String, Vec<u8>>> {
    p.world()
        .node_ids()
        .into_iter()
        .map(|n| {
            p.world()
                .stable(n)
                .iter()
                .map(|(k, v)| (k.to_owned(), v.to_vec()))
                .collect()
        })
        .collect()
}

/// Counters whose values legitimately depend on the engine (sequential vs
/// windowed) rather than on the simulated scenario.
pub fn strip_engine_counters(mut counters: BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters.remove(mar_simnet::metric_keys::WINDOWS);
    counters
}

/// Strategy: 2–4 agents with 1–4 steps each over `nodes` nodes.
pub fn gen_agents(nodes: u32) -> impl Strategy<Value = Vec<GenAgent>> {
    proptest::collection::vec(
        (
            0u32..nodes,
            proptest::collection::vec((0u8..3, 0u32..(nodes - 1)), 1..5),
            any::<bool>(),
        )
            .prop_map(|(home, steps, rollback)| GenAgent {
                home,
                steps,
                rollback,
            }),
        2..5,
    )
}

/// Strategy: up to 2 crash/recover pairs in the first 100 virtual ms.
pub fn gen_crashes(nodes: u32) -> impl Strategy<Value = Vec<GenCrash>> {
    proptest::collection::vec(
        (0u32..(nodes - 1), 1u64..40, 5u64..60).prop_map(|(node, at_ms, down_ms)| GenCrash {
            node,
            at_ms,
            down_ms,
        }),
        0..3,
    )
}
