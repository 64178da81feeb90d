//! Benchmark scenarios shared by the experiment tables (`EXPERIMENTS.md`,
//! printed by the `report` binary) and the tests of this crate. Everything
//! here is deterministic per seed.

pub mod experiments;

use mar_core::{LoggingMode, RollbackMode, RollbackScope};
use mar_itinerary::{Itinerary, ItineraryBuilder};
use mar_platform::{
    AgentBehavior, AgentHandle, AgentSpec, Platform, PlatformBuilder, ReportOutcome, StepCtx,
    StepDecision,
};
use mar_resources::ops::{ConvertCash, Transfer};
use mar_resources::{BankRm, ExchangeRm};
use mar_simnet::{LatencyModel, MetricsSnapshot, NodeId, SimDuration};
pub use mar_simnet::{StableFactory, WalConfig};
use mar_txn::{RmRegistry, TxnError};
use mar_wire::Value;

/// What a step of the benchmark agent does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Resource-only work: ledger transfer + RCE.
    Rce,
    /// Like [`StepKind::Rce`], plus an explicit savepoint at the end of the
    /// step — the savepoint-heavy pattern the log-compaction experiment
    /// measures.
    RceSave,
    /// Currency exchange against the wallet: logs a mixed entry.
    Mixed,
    /// SRO-only information gathering: pads the `notes` SRO with `usize`
    /// bytes, logging no compensating operations at all.
    Sro(usize),
    /// Triggers one rollback of the current sub on first execution.
    RollbackOnce,
    /// Pure visit: touches no data at all, so the record stays minimal and
    /// the itinerary dominates every migration (the interning workload shape).
    Noop,
}

/// The benchmark agent: executes [`StepKind`]s encoded into step names
/// (`"rce#i"`, `"mixed#i"`, `"sro:1024#i"`, `"rollback#i"`).
pub struct BenchAgent;

impl AgentBehavior for BenchAgent {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        let base = method.split('#').next().unwrap_or(method);
        if let Some(size) = base.strip_prefix("sro:") {
            let size: usize = size.parse().unwrap_or(0);
            ctx.sro_push("notes", Value::Bytes(vec![0xA5; size]));
            return Ok(StepDecision::Continue);
        }
        match base {
            "noop" => Ok(StepDecision::Continue),
            "rce" | "rcesp" => {
                // Typed op: forward transfer + derived RCE in one call
                // (byte-identical log frame to the raw pair, so the
                // experiment tables stay comparable).
                ctx.invoke(&Transfer::new("ledger", "reserve", "sink", 5))?;
                if base == "rcesp" {
                    ctx.request_savepoint();
                }
                Ok(StepDecision::Continue)
            }
            "mixed" => {
                let mut wallet =
                    mar_resources::Wallet::from_value(ctx.wro("wallet").expect("wallet"))
                        .expect("wallet decodes");
                wallet.take(2, "USD").map_err(|s| TxnError::Rejected {
                    resource: "wallet".into(),
                    reason: format!("short {s}"),
                })?;
                let coin = ctx.invoke(&ConvertCash::new("fx", "USD", "EUR", 2, "wallet"))?;
                wallet.add_coin(coin);
                ctx.set_wro("wallet", wallet.to_value().unwrap());
                Ok(StepDecision::Continue)
            }
            "rollback" => {
                let rolled = ctx.wro("rolled").and_then(Value::as_bool).unwrap_or(false);
                if rolled {
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

/// A benchmark scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of nodes (node 0 = home, the rest carry resources).
    pub nodes: u32,
    /// World seed.
    pub seed: u64,
    /// Rollback mechanism.
    pub mode: RollbackMode,
    /// SRO capture mode.
    pub logging: LoggingMode,
    /// The steps (kind, node) of the single top-level sub-itinerary.
    pub steps: Vec<(StepKind, u32)>,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Compact the rollback log before every remote transfer (table E11's
    /// toggle).
    pub compact: bool,
    /// Fuse same-destination compensation rounds into one transaction (the
    /// batched-vs-unbatched experiment toggle).
    pub batch: bool,
    /// Keep decoded agent records resident in volatile node memory between
    /// same-node steps (table E12's toggle; platform default is on).
    pub resident_cache: bool,
    /// Stable-storage backend every node is built with (the default is the
    /// reference in-memory model).
    pub stable: StableFactory,
}

impl Scenario {
    /// Shared constructor defaults: LAN latency, state logging, raw
    /// transfers (compaction per experiment toggle), batching on, fixed
    /// mode-split routing. Every scenario family starts here so a new
    /// runtime knob has exactly one default site.
    fn base(nodes: u32, seed: u64, mode: RollbackMode, steps: Vec<(StepKind, u32)>) -> Scenario {
        assert!(
            nodes >= 2,
            "scenarios need a home node plus >= 1 resource node"
        );
        Scenario {
            nodes,
            seed,
            mode,
            logging: LoggingMode::State,
            steps,
            latency: LatencyModel::lan(),
            compact: false,
            batch: true,
            resident_cache: true,
            stable: StableFactory::reference(),
        }
    }

    /// A rollback scenario: `depth` work steps round-robin over the nodes,
    /// then one rollback trigger. `mixed_every = Some(k)` makes every k-th
    /// step a mixed one; `sro_pad` adds that many SRO bytes per step.
    pub fn rollback(
        depth: usize,
        nodes: u32,
        mixed_every: Option<usize>,
        sro_pad: usize,
        mode: RollbackMode,
        seed: u64,
    ) -> Scenario {
        let mut steps = Vec::new();
        for i in 0..depth {
            let node = 1 + (i as u32 % (nodes - 1));
            let kind = match mixed_every {
                Some(k) if k > 0 && i % k == 0 => StepKind::Mixed,
                _ if sro_pad > 0 && i % 2 == 1 => StepKind::Sro(sro_pad),
                _ => StepKind::Rce,
            };
            steps.push((kind, node));
        }
        steps.push((StepKind::RollbackOnce, 1 + (depth as u32 % (nodes - 1))));
        Scenario::base(nodes, seed, mode, steps)
    }

    /// The log-compaction scenario: one `sro_pad`-byte information-
    /// gathering step establishes a fat SRO state, then `depth` resource
    /// steps each end with an explicit savepoint while never touching the
    /// SROs again. Under state logging every one of those savepoints
    /// repeats the identical image — the redundancy
    /// [`RollbackLog::compact`](mar_core::RollbackLog::compact) removes
    /// before each transfer; under transition logging they carry empty
    /// deltas that compaction demotes to markers. Finishes with one
    /// rollback of the sub so the compacted log also drives a full
    /// compensation run.
    pub fn savepoint_heavy(
        depth: usize,
        nodes: u32,
        sro_pad: usize,
        logging: LoggingMode,
        seed: u64,
    ) -> Scenario {
        let mut steps = vec![(StepKind::Sro(sro_pad), 1)];
        for i in 0..depth {
            let node = 1 + (i as u32 % (nodes - 1));
            steps.push((StepKind::RceSave, node));
        }
        steps.push((StepKind::RollbackOnce, 1 + (depth as u32 % (nodes - 1))));
        Scenario {
            logging,
            ..Scenario::base(nodes, seed, RollbackMode::Optimized, steps)
        }
    }

    /// The batching scenario (table E10): `depth` resource steps in *runs* of `run_len`
    /// consecutive steps on the same node (cycling through the nodes run
    /// by run), then one rollback of the whole sub. Unbatched, the
    /// rollback commits one compensation transaction (one 2PC) per step;
    /// batched, each same-node run fuses into a single transaction — and
    /// in basic mode into a single agent hop.
    pub fn rollback_chain(
        depth: usize,
        nodes: u32,
        run_len: usize,
        mode: RollbackMode,
        seed: u64,
    ) -> Scenario {
        let run_len = run_len.max(1);
        let mut steps = Vec::new();
        for i in 0..depth {
            let node = 1 + ((i / run_len) as u32 % (nodes - 1));
            steps.push((StepKind::Rce, node));
        }
        let trigger = steps.last().map_or(1, |(_, n)| *n);
        steps.push((StepKind::RollbackOnce, trigger));
        Scenario::base(nodes, seed, mode, steps)
    }

    /// Toggles pre-transfer log compaction.
    pub fn with_compaction(mut self, on: bool) -> Scenario {
        self.compact = on;
        self
    }

    /// Toggles batched compensation rounds.
    pub fn with_batching(mut self, on: bool) -> Scenario {
        self.batch = on;
        self
    }

    /// Toggles the per-node resident-record cache (table E12's control arm).
    pub fn with_resident_cache(mut self, on: bool) -> Scenario {
        self.resident_cache = on;
        self
    }

    /// Selects the stable-storage backend.
    pub fn with_stable_backend(mut self, stable: StableFactory) -> Scenario {
        self.stable = stable;
        self
    }

    /// A forward-only scenario: `depth` steps with `sro_pad` bytes of SRO
    /// growth per step.
    pub fn forward(depth: usize, nodes: u32, sro_pad: usize, seed: u64) -> Scenario {
        let steps = (0..depth)
            .map(|i| {
                let node = 1 + (i as u32 % (nodes - 1));
                if sro_pad > 0 {
                    (StepKind::Sro(sro_pad), node)
                } else {
                    (StepKind::Rce, node)
                }
            })
            .collect();
        Scenario::base(nodes, seed, RollbackMode::Optimized, steps)
    }

    /// Like [`Scenario::forward`], but the steps come in *runs* of
    /// `run_len` consecutive steps on the same node (cycling through the
    /// nodes run by run) — the locality pattern the resident-record cache
    /// serves: within a run, only the first step decodes anything.
    pub fn forward_runs(
        depth: usize,
        nodes: u32,
        run_len: usize,
        sro_pad: usize,
        seed: u64,
    ) -> Scenario {
        assert!(
            nodes >= 2,
            "scenarios need a home node plus >= 1 resource node"
        );
        let run_len = run_len.max(1);
        let steps = (0..depth)
            .map(|i| {
                let node = 1 + ((i / run_len) as u32 % (nodes - 1));
                if sro_pad > 0 {
                    (StepKind::Sro(sro_pad), node)
                } else {
                    (StepKind::Rce, node)
                }
            })
            .collect();
        Scenario::base(nodes, seed, RollbackMode::Optimized, steps)
    }

    fn itinerary(&self) -> Itinerary {
        ItineraryBuilder::main("I")
            .sub("S", |s| {
                for (i, (kind, node)) in self.steps.iter().enumerate() {
                    let name = match kind {
                        StepKind::Rce => format!("rce#{i}"),
                        StepKind::RceSave => format!("rcesp#{i}"),
                        StepKind::Mixed => format!("mixed#{i}"),
                        StepKind::Sro(n) => format!("sro:{n}#{i}"),
                        StepKind::RollbackOnce => format!("rollback#{i}"),
                        StepKind::Noop => format!("noop#{i}"),
                    };
                    s.step(name, *node);
                }
            })
            .build()
            .expect("valid scenario itinerary")
    }

    /// Builds the platform and launches the agent.
    pub fn start(&self) -> (Platform, AgentHandle) {
        let mut b = PlatformBuilder::new(self.nodes as usize)
            .seed(self.seed)
            .latency(self.latency)
            .compact_on_transfer(self.compact)
            .batch_rollback(self.batch)
            .resident_cache(self.resident_cache)
            .stable_backend(self.stable.clone())
            .behavior("bench", BenchAgent);
        for n in 1..self.nodes {
            b = b.resources(NodeId(n), move || {
                let mut rms = RmRegistry::new();
                rms.register(Box::new(
                    BankRm::new("ledger", false)
                        .with_account("sink", 0)
                        .with_account("reserve", 1_000_000),
                ));
                rms.register(Box::new(
                    ExchangeRm::new("fx")
                        .with_rate("USD", "EUR", 1, 1)
                        .with_reserve("USD", 1_000_000)
                        .with_reserve("EUR", 1_000_000),
                ));
                rms
            });
        }
        let mut p = b.build();
        let mut spec = AgentSpec::new("bench", NodeId(0), self.itinerary());
        spec.mode = self.mode;
        spec.logging = self.logging;
        let wallet = mar_resources::Wallet::with_coins([mar_resources::Coin {
            serial: "bench-1".into(),
            value: 1_000,
            currency: "USD".into(),
        }]);
        spec.data.set_wro("wallet", wallet.to_value().unwrap());
        spec.data.set_sro("notes", Value::list([]));
        let agent = p.launch(spec);
        (p, agent)
    }

    /// Runs the scenario to completion and collects the numbers.
    ///
    /// # Panics
    ///
    /// Panics if the agent does not complete (scenarios are constructed to
    /// succeed; a hang is a bug worth a loud failure).
    pub fn run(&self) -> RunStats {
        let (mut p, agent) = self.start();
        let done = p.run_until_settled(&[agent], SimDuration::from_secs(3_600));
        assert!(done, "scenario did not settle: {self:?}");
        let report = p.report(agent).expect("report");
        assert_eq!(
            report.outcome,
            ReportOutcome::Completed,
            "scenario failed: {self:?}"
        );
        let final_record = report.record.to_bytes().expect("final record encodes");
        RunStats::collect(
            report.finished_at_us,
            report.steps_committed,
            final_record,
            p.snapshot(),
        )
    }
}

/// The fleet scenario (the 4-shard floor of `tests/shard_floor.rs`): `agents`
/// agents, each walking `steps` ledger-transfer steps round-robin over the
/// resource nodes, all launched in one [`Platform::launch_fleet`] call and
/// settled through the home-node driver mailboxes. The stats expose the driver-cost counters
/// that pin completion detection at O(completions): one mailbox event per
/// agent, zero whole-store scans.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Fleet size.
    pub agents: usize,
    /// Number of nodes (node 0 = shared home).
    pub nodes: u32,
    /// Resource steps per agent.
    pub steps: usize,
    /// World seed.
    pub seed: u64,
    /// Worker-thread shards the simulated nodes are partitioned across
    /// (1 = the sequential engine).
    pub shards: usize,
    /// Spread agent homes round-robin over every node instead of sharing
    /// node 0. With one shared home, every launch, report delivery, and
    /// mailbox drain serializes on the home's shard; spreading the homes is
    /// what a deployment that wants kernel-level parallelism would do.
    pub home_spread: bool,
}

impl FleetScenario {
    /// Builds the platform and launches the fleet.
    pub fn start(&self) -> (Platform, Vec<AgentHandle>) {
        let mut b = PlatformBuilder::new(self.nodes as usize)
            .seed(self.seed)
            .shards(self.shards)
            .behavior("bench", BenchAgent);
        for n in 1..self.nodes {
            b = b.resources(NodeId(n), move || {
                let mut rms = RmRegistry::new();
                rms.register(Box::new(
                    BankRm::new("ledger", false)
                        .with_account("sink", 0)
                        .with_account("reserve", 1_000_000),
                ));
                rms
            });
        }
        let mut p = b.build();
        let nodes = self.nodes;
        let steps = self.steps;
        let home_spread = self.home_spread;
        let specs = (0..self.agents).map(|a| {
            let itinerary = ItineraryBuilder::main("I")
                .sub("S", |s| {
                    for i in 0..steps {
                        // Stagger starting nodes so the fleet spreads over
                        // the ledgers instead of convoying on node 1.
                        let node = 1 + ((a + i) as u32 % (nodes - 1));
                        s.step(format!("rce#{i}"), node);
                    }
                })
                .build()
                .expect("valid fleet itinerary");
            let home = if home_spread {
                NodeId(a as u32 % nodes)
            } else {
                NodeId(0)
            };
            AgentSpec::new("bench", home, itinerary)
        });
        let handles = p.launch_fleet(specs);
        (p, handles)
    }

    /// Runs a started fleet to completion and collects the numbers.
    ///
    /// # Panics
    ///
    /// Panics if any agent fails to settle or complete.
    pub fn settle(&self, p: &mut Platform, handles: &[AgentHandle]) -> FleetStats {
        let settled = p.run_until_settled(handles, SimDuration::from_secs(36_000));
        assert!(settled, "fleet did not settle: {self:?}");
        let mut settle_us = 0;
        for h in handles {
            let report = p.report(*h).expect("report");
            assert_eq!(report.outcome, ReportOutcome::Completed, "{h}: {self:?}");
            settle_us = settle_us.max(report.finished_at_us);
        }
        let m = p.snapshot();
        FleetStats {
            agents: self.agents as u64,
            settle_us,
            completed: m.counter("agent.completed"),
            mbox_events: m.counter("driver.mbox_events"),
            mbox_scans: m.counter("driver.mbox_scans"),
            steps_committed: m.counter("steps.committed"),
            metrics: m,
        }
    }

    /// [`FleetScenario::start`], then [`FleetScenario::settle`].
    pub fn run(&self) -> FleetStats {
        let (mut p, handles) = self.start();
        self.settle(&mut p, &handles)
    }
}

/// The measured quantities of one [`FleetScenario`] run.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Fleet size.
    pub agents: u64,
    /// Virtual time at which the *last* agent finished (settle latency).
    pub settle_us: u64,
    /// Agents completed.
    pub completed: u64,
    /// Driver mailbox events consumed — O(completions) by construction.
    pub mbox_events: u64,
    /// Driver mailbox probes (one per distinct home node per drain).
    pub mbox_scans: u64,
    /// Step transactions committed across the fleet.
    pub steps_committed: u64,
    /// Raw metrics for anything else.
    pub metrics: MetricsSnapshot,
}

/// The itinerary-interning scenario (table E12): `agents`
/// agents all walking the *same* itinerary — `laps` cycles over the
/// resource nodes, step names padded with `name_pad` bytes so the
/// itinerary dominates every migration — with content-addressed interning
/// on or off. After each directed edge's first traversal, every further
/// migration over it ships an 8-byte itinerary reference instead of the
/// tree, and each node decodes the shared tree once.
#[derive(Debug, Clone)]
pub struct ItineraryFleetScenario {
    /// Fleet size (all agents share one itinerary ⇒ one content hash).
    pub agents: usize,
    /// Number of nodes (node 0 = shared home).
    pub nodes: u32,
    /// Cycles over nodes `1..nodes` per agent.
    pub laps: usize,
    /// Padding bytes appended to every step name (after the `#`, so the
    /// behaviour dispatch is unaffected) — the itinerary-weight dial.
    pub name_pad: usize,
    /// World seed.
    pub seed: u64,
    /// Content-addressed interning on (the platform default) or off (the
    /// ship-inline-every-hop control).
    pub interning: bool,
}

impl ItineraryFleetScenario {
    /// Runs the fleet to completion and collects the numbers.
    ///
    /// # Panics
    ///
    /// Panics if any agent fails to settle or complete.
    pub fn run(&self) -> ItineraryStats {
        let mut b = PlatformBuilder::new(self.nodes as usize)
            .seed(self.seed)
            .itinerary_interning(self.interning)
            .behavior("bench", BenchAgent);
        for n in 1..self.nodes {
            b = b.resources(NodeId(n), RmRegistry::new);
        }
        let mut p = b.build();
        let pad = "x".repeat(self.name_pad);
        let nodes = self.nodes;
        // One top-level sub per lap: completing a lap discards the rollback
        // log (§4.4.2), so migrations carry at most one lap of log entries
        // while the full multi-lap itinerary rides every hop — the
        // itinerary-heavy shape this experiment measures.
        let mut ib = ItineraryBuilder::main("I");
        for lap in 0..self.laps {
            let pad = &pad;
            ib = ib.sub(format!("L{lap}"), |s| {
                for n in 1..nodes {
                    s.step(format!("noop#{lap}-{n}-{pad}"), n);
                }
            });
        }
        let itinerary = ib.build().expect("valid itinerary scenario");
        let specs = (0..self.agents).map(|_| AgentSpec::new("bench", NodeId(0), itinerary.clone()));
        let handles = p.launch_fleet(specs);
        let settled = p.run_until_settled(&handles, SimDuration::from_secs(36_000));
        assert!(settled, "itinerary fleet did not settle: {self:?}");
        let mut settle_us = 0;
        for h in &handles {
            let report = p.report(*h).expect("report");
            assert_eq!(report.outcome, ReportOutcome::Completed, "{h}: {self:?}");
            settle_us = settle_us.max(report.finished_at_us);
        }
        let m = p.snapshot();
        ItineraryStats {
            settle_us,
            steps_committed: m.counter("steps.committed"),
            migration_bytes: m.counter("itinerary.migration_bytes"),
            wire_bytes_saved: m.counter("itinerary.wire_bytes_saved"),
            ref_transfers: m.counter("itinerary.ref_transfers"),
            cache_hits: m.counter("itinerary.cache_hits"),
            cache_misses: m.counter("itinerary.cache_misses"),
            refetches: m.counter("itinerary.refetches"),
            net_bytes: m.counter("net.bytes_sent"),
            metrics: m,
        }
    }
}

/// The measured quantities of one [`ItineraryFleetScenario`] run.
#[derive(Debug, Clone)]
pub struct ItineraryStats {
    /// Virtual time at which the last agent finished.
    pub settle_us: u64,
    /// Step transactions committed across the fleet.
    pub steps_committed: u64,
    /// Actual record-carrying `Prepare` payload bytes put on the wire.
    pub migration_bytes: u64,
    /// Bytes the reference form saved vs the inline encoding.
    pub wire_bytes_saved: u64,
    /// Migrations that shipped an itinerary reference.
    pub ref_transfers: u64,
    /// Intern-table hits (shared decodes).
    pub cache_hits: u64,
    /// Intern-table misses (first contact / unresolvable references).
    pub cache_misses: u64,
    /// Inline retransmissions after a receiver NACK.
    pub refetches: u64,
    /// Total (billed) network bytes sent.
    pub net_bytes: u64,
    /// Raw metrics for anything else.
    pub metrics: MetricsSnapshot,
}

/// The measured quantities of one scenario run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Virtual completion time in microseconds.
    pub sim_us: u64,
    /// Committed steps.
    pub steps: u64,
    /// Forward agent transfers.
    pub transfers_fwd: u64,
    /// Bytes moved by forward transfers.
    pub bytes_fwd: u64,
    /// Rollback agent transfers (the §4.4.1 optimization target).
    pub transfers_rbk: u64,
    /// Bytes moved by rollback transfers.
    pub bytes_rbk: u64,
    /// RCE lists shipped.
    pub rce_shipped: u64,
    /// Bytes of shipped RCE lists.
    pub rce_bytes: u64,
    /// Compensation rounds committed (one per compensated step, batched or
    /// not).
    pub rounds: u64,
    /// Batched compensation transactions committed — the compensation 2PC
    /// count (equals `rounds` when batching is off).
    pub batched_rounds: u64,
    /// Compensation transactions saved by fusion.
    pub rounds_saved: u64,
    /// Pre-transfer log compaction passes that changed the log.
    pub compactions: u64,
    /// Pre-transfer compaction passes skipped by the clean-bit / cost gate.
    pub compactions_skipped: u64,
    /// Bytes shaved off rollback logs by pre-transfer compaction.
    pub compaction_saved: u64,
    /// Total network bytes sent.
    pub net_bytes: u64,
    /// The finished agent's serialized record — the final stable state, for
    /// equal-state assertions between experiment arms.
    pub final_record: Vec<u8>,
    /// Raw metrics for anything else.
    pub metrics: MetricsSnapshot,
}

impl RunStats {
    fn collect(sim_us: u64, steps: u64, final_record: Vec<u8>, m: MetricsSnapshot) -> RunStats {
        RunStats {
            sim_us,
            steps,
            transfers_fwd: m.counter("agent.transfers.forward"),
            bytes_fwd: m.counter("agent.transfer_bytes.forward"),
            transfers_rbk: m.counter("agent.transfers.rollback"),
            bytes_rbk: m.counter("agent.transfer_bytes.rollback"),
            rce_shipped: m.counter("rollback.rce_shipped"),
            rce_bytes: m.counter("rollback.rce_bytes"),
            rounds: m.counter("rollback.rounds"),
            batched_rounds: m.counter("rollback.batched_rounds"),
            rounds_saved: m.counter("rollback.rounds_saved"),
            compactions: m.counter("log.compactions"),
            compactions_skipped: m.counter("log.compactions_skipped"),
            compaction_saved: m.counter("log.compaction_saved_bytes"),
            net_bytes: m.counter("net.bytes_sent"),
            final_record,
            metrics: m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_settles_with_one_mailbox_event_per_agent() {
        let stats = FleetScenario {
            agents: 100,
            nodes: 4,
            steps: 2,
            seed: 23,
            shards: 1,
            home_spread: false,
        }
        .run();
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.mbox_events, 100, "one completion event per agent");
        assert_eq!(stats.steps_committed, 200);
        assert!(stats.settle_us > 0);
    }

    #[test]
    fn forward_scenario_runs() {
        let s = Scenario::forward(6, 4, 128, 1);
        let stats = s.run();
        assert_eq!(stats.steps, 6);
        assert_eq!(stats.transfers_rbk, 0);
    }

    #[test]
    fn rollback_scenario_modes_agree_on_rounds() {
        let basic = Scenario::rollback(4, 4, None, 0, RollbackMode::Basic, 2).run();
        let opt = Scenario::rollback(4, 4, None, 0, RollbackMode::Optimized, 2).run();
        assert_eq!(basic.rounds, opt.rounds);
        assert_eq!(opt.transfers_rbk, 0);
        assert_eq!(basic.transfers_rbk, 4);
    }

    #[test]
    fn compaction_shrinks_transfers_without_changing_outcomes() {
        let base = Scenario::savepoint_heavy(8, 4, 1024, LoggingMode::State, 5);
        let off = base.clone().run();
        let on = base.with_compaction(true).run();
        // Same execution, fewer bytes on the wire.
        assert_eq!(off.steps, on.steps);
        assert_eq!(off.rounds, on.rounds);
        assert_eq!(off.transfers_fwd, on.transfers_fwd);
        assert_eq!(off.transfers_rbk, on.transfers_rbk);
        assert_eq!(off.compactions, 0);
        assert!(on.compactions > 0, "compaction passes must have run");
        assert!(on.compaction_saved > 0);
        let total_off = off.bytes_fwd + off.bytes_rbk;
        let total_on = on.bytes_fwd + on.bytes_rbk;
        assert!(
            (total_on as f64) < 0.8 * total_off as f64,
            "expected >= 20% transfer-byte reduction, got {total_off} -> {total_on}"
        );
    }

    #[test]
    fn compaction_under_transition_logging_is_safe() {
        let base = Scenario::savepoint_heavy(8, 4, 1024, LoggingMode::Transition, 5);
        let off = base.clone().run();
        let on = base.with_compaction(true).run();
        assert_eq!(off.steps, on.steps);
        assert_eq!(off.rounds, on.rounds);
        assert!(on.bytes_fwd + on.bytes_rbk <= off.bytes_fwd + off.bytes_rbk);
    }

    #[test]
    fn batching_cuts_compensation_transactions_at_equal_final_state() {
        // (depth, run length, seed); the second is E10's run length 8.
        for (depth, run_len, seed) in [(12, 6, 17), (16, 8, 13)] {
            for mode in [RollbackMode::Basic, RollbackMode::Optimized] {
                let label = format!("{mode:?} chain{depth}x{run_len}");
                let base = Scenario::rollback_chain(depth, 4, run_len, mode, seed);
                let unbatched = base.clone().with_batching(false).run();
                let batched = base.clone().with_batching(true).run();
                // Same execution, same compensated work, identical final state.
                assert_eq!(unbatched.steps, batched.steps, "{label}");
                assert_eq!(unbatched.rounds, batched.rounds, "{label}");
                assert_eq!(unbatched.final_record, batched.final_record, "{label}");
                // Unbatched: one transaction per round; batched: one per
                // same-node run (two runs in both chains → 2 transactions).
                assert_eq!(unbatched.batched_rounds, depth as u64, "{label}");
                assert_eq!(unbatched.rounds_saved, 0, "{label}");
                assert_eq!(batched.batched_rounds, 2, "{label}");
                assert_eq!(batched.rounds_saved, depth as u64 - 2, "{label}");
                if mode == RollbackMode::Basic {
                    // Fusion also fuses the backward walk: one hop per run.
                    assert!(
                        batched.transfers_rbk < unbatched.transfers_rbk,
                        "{label}: basic-mode batching must save agent hops"
                    );
                    assert!(batched.bytes_rbk < unbatched.bytes_rbk, "{label}");
                } else {
                    // Fig. 5's split: the run on the node the rollback
                    // starts on compensates there, the other run's RCE
                    // list is shipped to it.
                    assert_eq!(batched.rce_shipped, 1, "{label}");
                }
            }
        }
    }

    #[test]
    fn wal_backend_is_invisible_to_scenarios() {
        let base = Scenario::forward(12, 4, 256, 3);
        let reference = base.clone().run();
        let wal = base
            .with_stable_backend(StableFactory::wal(WalConfig::default()))
            .run();
        assert_eq!(reference.final_record, wal.final_record);
        assert_eq!(reference.sim_us, wal.sim_us);
        assert_eq!(
            reference.metrics.counters, wal.metrics.counters,
            "backend choice must not change any counter"
        );
        let writes = wal.metrics.counter("stable.writes");
        let commits = wal.metrics.counter("stable.commits");
        assert!(commits > 0 && commits < writes, "group commit must batch");
    }

    /// What group commit batches in steady state, measured marginally — two
    /// run depths differenced, so the constant launch/report events cancel:
    /// one barrier per step commit, carrying 3 record writes (queue delete,
    /// queue put, one resource delta or base image) besides the delta
    /// records a base image folds away (`rm.deltas_folded`), plus one write
    /// of the transaction id floor per block of 64 ids (`TXN_FLOOR_AHEAD`).
    #[test]
    fn a_step_commit_is_one_barrier_of_three_record_writes() {
        let depth = |d: usize| {
            let r = Scenario::forward(d, 2, 0, 42)
                .with_stable_backend(StableFactory::wal(WalConfig::default()))
                .run();
            assert_eq!(r.metrics.counter("steps.committed"), d as u64);
            (
                r.metrics.counter("stable.writes"),
                r.metrics.counter("stable.commits"),
                r.metrics.counter("rm.deltas_folded"),
            )
        };
        let (w1, c1, f1) = depth(32);
        let (w2, c2, f2) = depth(96);
        assert_eq!(c2 - c1, 64, "one barrier per step commit");
        assert_eq!((w2 - w1) - (f2 - f1), 3 * 64 + 64 / 64);
    }

    #[test]
    fn itinerary_interning_halves_warm_fleet_migration_bytes() {
        let base = ItineraryFleetScenario {
            agents: 6,
            nodes: 4,
            laps: 6,
            name_pad: 128,
            seed: 47,
            interning: true,
        };
        let on = base.clone().run();
        let off = ItineraryFleetScenario {
            interning: false,
            ..base.clone()
        }
        .run();
        // Billed-size equivalence: the interned arm runs the identical
        // virtual schedule and commits the identical steps.
        assert_eq!(on.settle_us, off.settle_us);
        assert_eq!(on.steps_committed, off.steps_committed);
        assert_eq!(on.net_bytes, off.net_bytes, "billed bytes must match");
        // …while the real wire traffic drops by at least 2x.
        assert_eq!(off.ref_transfers, 0);
        assert!(on.ref_transfers > 0, "warm fleet must ship references");
        assert_eq!(on.refetches, 0, "nothing evicts at cap 256");
        assert_eq!(
            on.migration_bytes + on.wire_bytes_saved,
            off.migration_bytes
        );
        assert!(
            (off.migration_bytes as f64) >= 2.0 * on.migration_bytes as f64,
            "expected >= 2x migration-byte reduction, got {} -> {}",
            off.migration_bytes,
            on.migration_bytes
        );

        // Cold: one agent, one lap — every edge is first contact, so nothing
        // ships by reference and the bytes equal the inline arm's. This is
        // the bound a crash-cold node restarts from.
        let cold = |interning| {
            ItineraryFleetScenario {
                agents: 1,
                laps: 1,
                interning,
                ..base.clone()
            }
            .run()
        };
        let cold_on = cold(true);
        assert_eq!(cold_on.ref_transfers, 0, "first contact ships inline");
        assert_eq!(cold_on.migration_bytes, cold(false).migration_bytes);
    }
}
