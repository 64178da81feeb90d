//! The four workloads: what a round's inputs are and how its world is built.
//!
//! The generator ([`generate`]) is the only code that sees the seed. It
//! returns plain inputs — launch specs, ledger sizes, the crash schedule —
//! and the platform under test receives nothing else.

use std::path::PathBuf;

use mar_core::{RollbackMode, RollbackScope};
use mar_itinerary::{Itinerary, ItineraryBuilder};
use mar_platform::{
    AgentBehavior, AgentSpec, PlatformBuilder, StableFactory, StepCtx, StepDecision, WalConfig,
};
use mar_resources::ops::{ConvertCash, Transfer};
use mar_resources::{BankRm, Coin, ExchangeRm, Wallet};
use mar_simnet::{NodeId, SimRng};
use mar_txn::{RmRegistry, TxnError};
use mar_wire::Value;

/// Nodes of the three in-process workloads: node 0 hosts no resources, nodes
/// 1..=7 each carry a ledger (and, on `rollback_mix`, an exchange).
pub const NODES: u32 = 8;
const RESOURCE_NODES: u32 = NODES - 1;
/// Steps per agent before the optional rollback trigger.
pub const STEPS: usize = 16;
/// Hosts (threads, connections) of `net_travel`.
pub const NET_HOSTS: u32 = 2;

const OPENING_BALANCE: i64 = 1_000_000;
const FX_RESERVE: i64 = 1_000_000;
const WALLET_USD: i64 = 1_000;

/// A workload, by its fixed name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Forward path, every step a migration.
    FwdHop,
    /// The paper's mechanism: rollback, compaction, compensation.
    RollbackMix,
    /// File-backed WAL with a crash and recovery every round.
    WalCrash,
    /// The travel scenario over a Unix socket.
    NetTravel,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::FwdHop,
        Workload::RollbackMix,
        Workload::WalCrash,
        Workload::NetTravel,
    ];

    /// The name later issues cite.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FwdHop => "fwd_hop",
            Workload::RollbackMix => "rollback_mix",
            Workload::WalCrash => "wal_crash",
            Workload::NetTravel => "net_travel",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fleet size at full scale.
    pub fn agents(self, smoke: bool) -> usize {
        let full = match self {
            Workload::FwdHop => 400,
            Workload::RollbackMix | Workload::WalCrash => 100,
            // The largest fleet the scenario's seats and budgets complete
            // without failures; smoke shrinks the round count instead.
            Workload::NetTravel => return 12,
        };
        if smoke {
            full / 20
        } else {
            full
        }
    }

    /// Rounds in one seed cycle: round `r` runs on world seed
    /// `seed + r % cycle`, and the count and virtual-time metrics are taken
    /// over the first cycle, so they do not depend on how many rounds fit
    /// into the measuring time. Sized so a cycle pools >= 1000 settle-time
    /// samples where a cycle fits into the run (`wal_crash` pools 400: its
    /// p99 has 4 samples beyond it).
    pub fn cycle(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Workload::FwdHop, false) => 3,
            (Workload::RollbackMix, false) => 10,
            (Workload::WalCrash, false) => 4,
            (Workload::NetTravel, false) => 84,
            (Workload::NetTravel, true) => 8,
            (_, true) => 2,
        }
    }

    /// Committed steps per agent, the closed form the output check uses.
    pub fn steps_per_agent(self) -> u64 {
        match self {
            Workload::FwdHop | Workload::WalCrash => STEPS as u64,
            // 16 steps, rolled back by the 17th, then all 17 again.
            Workload::RollbackMix => 2 * STEPS as u64 + 1,
            // choose_route + two legs + hotel (rolls back) + the five again
            // on the budget route, minus the hotel step that never commits
            // on the first pass.
            Workload::NetTravel => 8,
        }
    }
}

/// One round's generated inputs.
pub struct RoundInput {
    /// Seed of the simulated world (latency jitter, event keys).
    pub world_seed: u64,
    /// Fleet launch specs, in launch order. Empty for `net_travel`, whose
    /// fleet comes from the scenario registry every process compiles in.
    pub specs: Vec<AgentSpec>,
    /// Fleet size.
    pub agents: usize,
    /// Expected money audit per currency at every quiescent point.
    pub money: Vec<(&'static str, i64)>,
}

fn wallet_value() -> Value {
    Wallet::with_coins([Coin {
        serial: "bench-1".into(),
        value: WALLET_USD,
        currency: "USD".into(),
    }])
    .to_value()
    .expect("wallet encodes")
}

/// `STEPS` steps starting at resource node `1 + start`, `run` consecutive
/// steps per node. Step names carry no agent identity, so the fleet shares
/// `RESOURCE_NODES` itinerary shapes and the intern tables warm up.
fn itinerary(workload: Workload, start: u32, run: usize) -> Itinerary {
    ItineraryBuilder::main("I")
        .sub("S", |s| {
            for i in 0..STEPS {
                let node = 1 + (start + (i / run) as u32) % RESOURCE_NODES;
                let method = match workload {
                    Workload::RollbackMix if i == 0 => "pad2k",
                    Workload::RollbackMix if i == 9 => "fx",
                    Workload::RollbackMix if i % 4 == 3 => "tsp",
                    Workload::WalCrash if i % 2 == 1 => "pad1k",
                    _ => "t",
                };
                s.step(format!("{method}#{i}"), node);
            }
            if workload == Workload::RollbackMix {
                let last = 1 + (start + ((STEPS - 1) / run) as u32) % RESOURCE_NODES;
                s.step(format!("rb#{STEPS}"), last);
            }
        })
        .build()
        .expect("valid itinerary")
}

/// Generates the inputs of one round from its seed.
pub fn generate(workload: Workload, smoke: bool, round_seed: u64) -> RoundInput {
    let agents = workload.agents(smoke);
    if workload == Workload::NetTravel {
        return RoundInput {
            world_seed: round_seed,
            specs: Vec::new(),
            agents,
            money: vec![("USD", 12_000)],
        };
    }
    let mut rng = SimRng::seed_from(round_seed ^ 0x6265_6e63_686d_6172);
    // Start nodes: every shape equally often, assigned in seeded order.
    let mut starts: Vec<u32> = (0..agents as u32).map(|a| a % RESOURCE_NODES).collect();
    rng.shuffle(&mut starts);
    let run = if workload == Workload::RollbackMix {
        4
    } else {
        1
    };
    let shapes: Vec<Itinerary> = (0..RESOURCE_NODES)
        .map(|start| itinerary(workload, start, run))
        .collect();
    let specs = starts
        .iter()
        .enumerate()
        .map(|(k, &start)| {
            let home = NodeId(k as u32 % NODES);
            let mut spec = AgentSpec::new("fleet", home, shapes[start as usize].clone());
            spec.data.set_wro("acct", Value::from(k as u64));
            spec.data
                .set_wro("amt", Value::from(rng.range(1, 10) as i64));
            if workload == Workload::RollbackMix {
                spec.data.set_wro("wallet", wallet_value());
                spec.data.set_sro("notes", Value::list([]));
                spec.mode = if k % 2 == 0 {
                    RollbackMode::Optimized
                } else {
                    RollbackMode::Basic
                };
            }
            if workload == Workload::WalCrash {
                spec.data.set_sro("notes", Value::list([]));
            }
            spec
        })
        .collect();
    let ledgers = i64::from(RESOURCE_NODES) * agents as i64 * OPENING_BALANCE;
    let money = if workload == Workload::RollbackMix {
        let fx = i64::from(RESOURCE_NODES) * FX_RESERVE;
        vec![
            ("EUR", fx),
            ("USD", ledgers + fx + agents as i64 * WALLET_USD),
        ]
    } else {
        vec![("USD", ledgers)]
    };
    RoundInput {
        world_seed: round_seed,
        specs,
        agents,
        money,
    }
}

/// The fleet agent of the three in-process workloads. The step name before
/// `#` selects the work; the account pair and amount come from the agent's
/// own WROs.
struct FleetAgent;

impl FleetAgent {
    fn transfer(ctx: &mut StepCtx<'_>) -> Result<(), TxnError> {
        let k = ctx.wro("acct").and_then(Value::as_u64).unwrap_or(0);
        let amount = ctx.wro("amt").and_then(Value::as_i64).unwrap_or(1);
        ctx.invoke(&Transfer::new(
            "ledger",
            format!("s{k}"),
            format!("d{k}"),
            amount,
        ))
    }
}

impl AgentBehavior for FleetAgent {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        match method.split('#').next().unwrap_or(method) {
            "t" => Self::transfer(ctx)?,
            "tsp" => {
                Self::transfer(ctx)?;
                ctx.request_savepoint();
            }
            "pad1k" => ctx.sro_push("notes", Value::Bytes(vec![0xA5; 1024])),
            "pad2k" => ctx.sro_push("notes", Value::Bytes(vec![0xA5; 2048])),
            "fx" => {
                let mut wallet = ctx
                    .wro("wallet")
                    .and_then(|v| Wallet::from_value(v).ok())
                    .ok_or_else(|| TxnError::Rejected {
                        resource: "wallet".into(),
                        reason: "no wallet".into(),
                    })?;
                wallet.take(2, "USD").map_err(|short| TxnError::Rejected {
                    resource: "wallet".into(),
                    reason: format!("short {short}"),
                })?;
                let coin = ctx.invoke(&ConvertCash::new("fx", "USD", "EUR", 2, "wallet"))?;
                wallet.add_coin(coin);
                ctx.set_wro("wallet", wallet.to_value().expect("wallet encodes"));
            }
            "rb" => {
                let rolled = ctx.wro("rolled").and_then(Value::as_bool).unwrap_or(false);
                if !rolled {
                    ctx.rollback_memo("rolled", Value::Bool(true));
                    return Ok(StepDecision::Rollback(RollbackScope::CurrentSub));
                }
            }
            other => return Ok(StepDecision::Fail(format!("unknown step {other}"))),
        }
        Ok(StepDecision::Continue)
    }
}

/// The builder of an in-process workload's world. `wal_dir` selects the
/// file-backed WAL backend (`wal_crash`); `None` keeps the reference
/// backend.
pub fn builder(
    workload: Workload,
    input: &RoundInput,
    shards: usize,
    wal_dir: Option<PathBuf>,
) -> PlatformBuilder {
    let stable = match wal_dir {
        Some(dir) => StableFactory::wal(wal_config(dir)),
        None => StableFactory::reference(),
    };
    let mut b = PlatformBuilder::new(NODES as usize)
        .seed(input.world_seed)
        .shards(shards)
        .stable_backend(stable)
        .behavior("fleet", FleetAgent);
    let agents = input.agents;
    let with_fx = workload == Workload::RollbackMix;
    for n in 1..NODES {
        b = b.resources(NodeId(n), move || {
            let mut rms = RmRegistry::new();
            rms.register(Box::new(ledger(agents)));
            if with_fx {
                rms.register(Box::new(
                    ExchangeRm::new("fx")
                        .with_rate("USD", "EUR", 1, 1)
                        .with_reserve("USD", FX_RESERVE)
                        .with_reserve("EUR", FX_RESERVE),
                ));
            }
            rms
        });
    }
    b
}

/// The file-backed WAL of `wal_crash`: a checkpoint every 64 KiB of log, an
/// fsync at every group-commit barrier (the backend's only flush policy).
pub fn wal_config(dir: PathBuf) -> WalConfig {
    WalConfig {
        checkpoint_bytes: 64 * 1024,
        path: Some(dir),
    }
}

/// A ledger with one `s<k>` → `d<k>` account pair per agent.
pub fn ledger(agents: usize) -> BankRm {
    let mut bank = BankRm::new("ledger", false);
    for k in 0..agents {
        bank = bank
            .with_account(&format!("s{k}"), OPENING_BALANCE)
            .with_account(&format!("d{k}"), 0);
    }
    bank
}
