//! Building a platform: a simulated network of Mole-like nodes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use mar_core::comp::CompOpRegistry;
use mar_core::{DataSpace, LoggingMode, RollbackMode};
use mar_itinerary::Itinerary;
use mar_simnet::{LatencyModel, NodeId, StableFactory, World, WorldConfig};
use mar_txn::RmRegistry;

use crate::behavior::BehaviorRegistry;
use crate::driver::Platform;
use crate::mole::{MoleCfg, MoleService, MOLE};

/// Everything needed to launch one agent.
#[derive(Debug, Clone)]
pub struct AgentSpec {
    /// Behaviour type name (must be registered).
    pub agent_type: String,
    /// Node the agent starts from and reports back to.
    pub home: NodeId,
    /// Initial private data space.
    pub data: DataSpace,
    /// The (validated) main itinerary.
    pub itinerary: Itinerary,
    /// SRO capture mode.
    pub logging: LoggingMode,
    /// Rollback mechanism.
    pub mode: RollbackMode,
}

impl AgentSpec {
    /// A spec with default modes (state logging, optimized rollback).
    pub fn new(agent_type: impl Into<String>, home: NodeId, itinerary: Itinerary) -> Self {
        AgentSpec {
            agent_type: agent_type.into(),
            home,
            data: DataSpace::new(),
            itinerary,
            logging: LoggingMode::State,
            mode: RollbackMode::Optimized,
        }
    }
}

/// A configuration error surfaced by [`PlatformBuilder::try_build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An agent type was registered twice (the first registration wins
    /// until the build fails).
    DuplicateBehavior(String),
    /// The world cannot run the configuration; the reason is
    /// [`WorldConfig::check`]'s.
    World(&'static str),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateBehavior(name) => {
                write!(f, "agent type {name:?} registered twice")
            }
            BuildError::World(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`Platform`].
pub struct PlatformBuilder {
    nodes: usize,
    seed: u64,
    latency: LatencyModel,
    trace: bool,
    mole_cfg: MoleCfg,
    behaviors: BehaviorRegistry,
    comps: CompOpRegistry,
    resources: BTreeMap<u32, Arc<dyn Fn() -> RmRegistry + Send + Sync>>,
    shards: usize,
    stable: StableFactory,
    errors: Vec<BuildError>,
}

impl PlatformBuilder {
    /// Starts a builder for a world of `nodes` nodes. The default
    /// compensation registry already contains every `mar-resources`
    /// handler.
    pub fn new(nodes: usize) -> Self {
        let mut comps = CompOpRegistry::new();
        mar_resources::register_compensations(&mut comps);
        PlatformBuilder {
            nodes,
            seed: 0,
            latency: LatencyModel::lan(),
            trace: false,
            mole_cfg: MoleCfg::default(),
            behaviors: BehaviorRegistry::new(),
            comps,
            resources: BTreeMap::new(),
            shards: 1,
            stable: StableFactory::default(),
            errors: Vec::new(),
        }
    }

    /// Selects the stable-storage backend every node uses. The default is
    /// the reference in-memory backend; [`StableFactory::wal`] swaps in the
    /// log-structured group-commit backend. Any conformant backend yields
    /// byte-identical runs — only write-cost metrics change.
    pub fn stable_backend(mut self, stable: StableFactory) -> Self {
        self.stable = stable;
        self
    }

    /// Partitions the simulated nodes across `n` worker-thread shards.
    /// Results are byte-identical at any shard count; `1` (the default)
    /// keeps the sequential dispatch loop. `n` must be at least 1, and more
    /// than 1 needs a latency model with a positive minimum: otherwise
    /// [`PlatformBuilder::try_build`] returns [`BuildError::World`].
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sets the world seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Enables kernel tracing.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Enables (or disables) rollback-log compaction before every remote
    /// agent transfer: duplicate savepoint images and empty deltas are
    /// demoted to markers, shrinking `agent.transfer_bytes.*` without
    /// changing rollback behaviour. See
    /// [`mar_core::RollbackLog::compact`]. **On by default**; disable to
    /// reproduce the raw-byte transfer experiments.
    pub fn compact_on_transfer(mut self, on: bool) -> Self {
        self.mole_cfg.compact_on_transfer = on;
        self
    }

    /// Enables (or disables) batched compensation rounds: maximal
    /// same-destination runs of rollback rounds fuse into one compensation
    /// transaction — one 2PC instead of one per compensated step
    /// ([`mar_core::plan_batch`]). **On by default**; disable for the
    /// unbatched one-round-per-transaction control behaviour.
    pub fn batch_rollback(mut self, on: bool) -> Self {
        self.mole_cfg.batch_rollback = on;
        self
    }

    /// Enables (or disables) the per-node resident-record cache: while an
    /// agent stays on a node, its decoded record lives in volatile memory
    /// between steps (installed only by committing step transactions) and
    /// the stable queue write is a spliced O(delta) encode. Durability and
    /// crash recovery are unchanged — stable bytes are written on every
    /// commit and recovery re-decodes them. **On by default**; disable for
    /// the `resident/*` control arm.
    pub fn resident_cache(mut self, on: bool) -> Self {
        self.mole_cfg.resident_cache = on;
        self
    }

    /// Enables (or disables) content-addressed itinerary interning: nodes
    /// intern encoded itineraries by FNV-64 hash, migrations to a
    /// destination known to hold the hash ship an 8-byte reference instead
    /// of the tree, and each node decodes a given itinerary at most once
    /// (`Arc`-shared thereafter). The simulated schedule, traces, and byte
    /// counters are billed at the inline size either way — only the
    /// `itinerary.*` metrics (and real wall-clock/wire costs) change.
    /// **On by default**; disable for the `itinerary/*` control arm.
    pub fn itinerary_interning(mut self, on: bool) -> Self {
        self.mole_cfg.itinerary_interning = on;
        self
    }

    /// Registers an agent behaviour. A duplicate name is recorded and
    /// surfaces as a [`BuildError`] from [`PlatformBuilder::try_build`] —
    /// the first registration stays active, so the error cannot be masked
    /// by silent replacement.
    pub fn behavior(
        mut self,
        agent_type: impl Into<String>,
        behavior: impl crate::behavior::AgentBehavior + 'static,
    ) -> Self {
        if let Err(dup) = self.behaviors.register(agent_type, behavior) {
            self.errors.push(BuildError::DuplicateBehavior(dup.0));
        }
        self
    }

    /// Extends the compensation registry (e.g. application-specific
    /// handlers).
    pub fn compensations(mut self, f: impl FnOnce(&mut CompOpRegistry)) -> Self {
        f(&mut self.comps);
        self
    }

    /// Installs the resource factory for a node. The factory runs once at
    /// start and again after every crash (committed state is then restored
    /// from stable storage).
    pub fn resources(
        mut self,
        node: NodeId,
        factory: impl Fn() -> RmRegistry + Send + Sync + 'static,
    ) -> Self {
        self.resources.insert(node.0, Arc::new(factory));
        self
    }

    /// Builds and starts the platform, surfacing configuration errors (a
    /// duplicate behaviour name, a shard count the world cannot run) as
    /// values.
    ///
    /// # Errors
    ///
    /// The first [`BuildError`] recorded while configuring.
    pub fn try_build(self) -> Result<Platform, BuildError> {
        let mut world = self.try_build_world(None)?;
        world.start();
        Ok(Platform::new(world))
    }

    /// Builds the world for **one process** of a distributed deployment:
    /// all `nodes` node ids exist (so per-node random streams and event
    /// keys are identical in every process), but the `mole` service and
    /// resources are installed only on the nodes in `owned`; every other
    /// node is marked remote ([`World::mark_remote`]), so events routed to
    /// it divert to the egress buffer instead of a local queue.
    ///
    /// The returned world is **not started** — the hosting process starts
    /// it when its coordinator says so (after a crash-recovery restart the
    /// clock must be advanced to the resume time first). The shard count is
    /// forced to 1: distributed windows run on the sequential engine
    /// ([`World::run_window`]), the process split *is* the sharding. A
    /// driver process that owns no nodes passes an empty `owned` slice.
    ///
    /// # Errors
    ///
    /// The first [`BuildError`] recorded while configuring.
    pub fn try_build_remote(self, owned: &[NodeId]) -> Result<World, BuildError> {
        self.try_build_world(Some(owned))
    }

    /// Shared world construction: `owned` of `None` means "this process
    /// owns every node" (single-process build, honours the shard setting).
    fn try_build_world(self, owned: Option<&[NodeId]>) -> Result<World, BuildError> {
        if let Some(err) = self.errors.into_iter().next() {
            return Err(err);
        }
        let mut cfg = WorldConfig::with_seed(self.seed);
        cfg.latency = self.latency;
        cfg.trace = self.trace;
        cfg.shards = if owned.is_some() { 1 } else { self.shards };
        cfg.stable = self.stable;
        cfg.check().map_err(BuildError::World)?;
        let owned_set: Option<BTreeSet<u32>> = owned.map(|o| o.iter().map(|n| n.0).collect());
        let mut world = World::new(cfg);
        let behaviors = Arc::new(self.behaviors);
        let comps = Arc::new(self.comps);
        for i in 0..self.nodes {
            let node = world.add_node();
            debug_assert_eq!(node.0 as usize, i);
            if let Some(set) = &owned_set {
                if !set.contains(&node.0) {
                    world.mark_remote(node);
                    continue;
                }
            }
            let behaviors = behaviors.clone();
            let comps = comps.clone();
            let mole_cfg = self.mole_cfg.clone();
            let factory = self.resources.get(&node.0).cloned();
            world.add_service(node, MOLE, move || {
                let rms = factory.as_ref().map(|f| f()).unwrap_or_default();
                Box::new(MoleService::new(
                    mole_cfg.clone(),
                    behaviors.clone(),
                    comps.clone(),
                    rms,
                ))
            });
        }
        Ok(world)
    }

    /// Builds and starts the platform.
    ///
    /// # Panics
    ///
    /// Panics on any [`BuildError`]; examples and tests use this, programs
    /// that want the error as a value use [`PlatformBuilder::try_build`].
    pub fn build(self) -> Platform {
        self.try_build().expect("platform configuration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::AgentBehavior;
    use crate::{StepCtx, StepDecision};
    use mar_txn::TxnError;

    struct Nop;
    impl AgentBehavior for Nop {
        fn step(&self, _m: &str, _ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
            Ok(StepDecision::Continue)
        }
    }

    #[test]
    fn duplicate_behavior_fails_the_build() {
        let err = PlatformBuilder::new(1)
            .behavior("a", Nop)
            .behavior("a", Nop)
            .try_build()
            .unwrap_err();
        assert_eq!(err, BuildError::DuplicateBehavior("a".to_owned()));
    }

    #[test]
    fn zero_shards_fail_the_build() {
        let err = PlatformBuilder::new(1).shards(0).try_build().unwrap_err();
        assert!(matches!(err, BuildError::World(why) if why.contains("at least one shard")));
    }

    #[test]
    fn shards_without_lookahead_fail_the_build() {
        let zero = mar_simnet::SimDuration::ZERO;
        let err = PlatformBuilder::new(2)
            .latency(LatencyModel::fixed(zero, zero))
            .shards(2)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, BuildError::World(why) if why.contains("lookahead")));
    }

    #[test]
    fn clean_build_succeeds() {
        let p = PlatformBuilder::new(2)
            .behavior("a", Nop)
            .try_build()
            .unwrap();
        assert_eq!(p.world().node_count(), 2);
    }
}
