//! Driving a running platform: launching agents and harvesting their
//! reports.
//!
//! [`Platform::launch`] returns an [`AgentHandle`] — the agent's id plus
//! its home node. Completion is event-driven: when an agent finishes, the
//! completing mole persists the report, ships it to the home node (stable
//! outbox, retransmitted until acked), and the home mole posts one entry to
//! its *driver mailbox*. [`Platform::drain_reports`] consumes those
//! entries, so driving a fleet costs O(completions) stable reads — not the
//! O(ticks × nodes × stable-keys) of scanning every node's store each poll
//! tick (the `driver.*` metrics make this measurable).
//!
//! The launch/drain/audit logic itself lives in [`crate::harvest`], shared
//! with the distributed (`mar-net`) driver; [`Platform`] binds it to a
//! [`World`] in the same process.

use std::collections::BTreeMap;

use mar_core::{AgentId, AgentRecord};
use mar_simnet::{MetricsSnapshot, NodeId, SimDuration, World};

use crate::harvest::{audit_wallets, money_audit_world, DriverCore};
use crate::mole::queued_records;
use crate::msg::AgentReport;
use crate::AgentSpec;

/// How long [`Platform::run_until_settled`] lets virtual time advance
/// between mailbox drains.
pub(crate) const SETTLE_TICK: SimDuration = SimDuration::from_millis(50);

/// A launched agent: its id plus the home node its report will arrive at.
///
/// The handle is the unit of driving — [`Platform::run_until_settled`]
/// waits on handles, [`Platform::report`] accepts them (or raw
/// [`AgentId`]s) — and it is `Copy`, so it can be passed around freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AgentHandle {
    id: AgentId,
    home: NodeId,
}

impl AgentHandle {
    pub(crate) fn new(id: AgentId, home: NodeId) -> Self {
        AgentHandle { id, home }
    }

    /// The agent's unique id.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// The node the agent's report arrives at.
    pub fn home(&self) -> NodeId {
        self.home
    }
}

impl From<AgentHandle> for AgentId {
    fn from(h: AgentHandle) -> AgentId {
        h.id
    }
}

impl std::fmt::Display for AgentHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.id, self.home)
    }
}

/// A running platform: the simulated agent system plus driver conveniences.
pub struct Platform {
    pub(crate) world: World,
    core: DriverCore,
}

impl Platform {
    pub(crate) fn with_report_cache_cap(world: World, report_cap: usize) -> Self {
        Platform {
            world,
            core: DriverCore::new(report_cap),
        }
    }

    /// Releases an agent's cached report (and the driver's memory of its
    /// home), returning the report if it was still cached. Long-lived
    /// drivers call this once they are done with a finished agent so the
    /// cache holds only reports still of interest.
    pub fn forget(&mut self, agent: impl Into<AgentId>) -> Option<AgentReport> {
        self.core.forget(agent.into())
    }

    /// Launches an agent, returning its handle. The agent starts processing
    /// once the simulation runs; its completion report arrives at the
    /// handle's home node.
    pub fn launch(&mut self, spec: AgentSpec) -> AgentHandle {
        let (handle, addr, payload) = self.core.launch(spec);
        self.world.post(addr, payload);
        handle
    }

    /// Launches a whole fleet in one call, returning a handle per spec (in
    /// order). Sugar over [`Platform::launch`] sized for the N-agent
    /// scenarios [`Platform::drain_reports`] is built to drive.
    pub fn launch_fleet(&mut self, specs: impl IntoIterator<Item = AgentSpec>) -> Vec<AgentHandle> {
        specs.into_iter().map(|s| self.launch(s)).collect()
    }

    /// Runs the simulation for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Consumes every completion event currently waiting in the driver
    /// mailboxes of the launched agents' home nodes, returning the newly
    /// arrived reports (oldest first per node). Already-drained reports are
    /// not returned again; [`Platform::report`] serves them from cache.
    ///
    /// Cost: one bounded prefix probe per distinct home node plus one
    /// stable read per *new* completion — O(completions) over a whole run.
    pub fn drain_reports(&mut self) -> Vec<AgentReport> {
        self.core.drain_reports(&mut self.world)
    }

    /// Runs until all listed agents have reports or `deadline` virtual time
    /// elapses. Returns `true` if everyone finished.
    ///
    /// Completion is detected through the home mailboxes
    /// ([`Platform::drain_reports`]): per tick this costs one probe per
    /// distinct home node, and one stable read per completion overall —
    /// independent of node count, queue depth, and log sizes.
    pub fn run_until_settled(&mut self, agents: &[AgentHandle], deadline: SimDuration) -> bool {
        // Completions that arrived while the caller drove the world by hand
        // are already waiting in the mailboxes: drain before deciding
        // anything (also makes a zero deadline an honest "are we done?").
        self.drain_reports();
        let mut pending: Vec<AgentId> = agents
            .iter()
            .map(|h| h.id)
            .filter(|id| !self.core.is_completed(*id))
            .collect();
        let end = self.world.now() + deadline;
        while !pending.is_empty() && self.world.now() < end {
            self.world.run_for(SETTLE_TICK);
            self.drain_reports();
            pending.retain(|id| !self.core.is_completed(*id));
        }
        pending.is_empty()
    }

    /// The report of a finished agent launched through this driver, if
    /// any: served from the cache, after draining the home mailboxes once
    /// if it is not there yet.
    pub fn report(&mut self, agent: impl Into<AgentId>) -> Option<AgentReport> {
        self.core.report(&mut self.world, agent.into())
    }

    /// How many stable queue entries currently hold this agent — the
    /// exactly-once residence invariant says this is ≤ 1 at any pause (0
    /// once finished): a record a prepared transaction still holds is not
    /// in its queue yet. Queue entries are identified by a borrowed header
    /// peek ([`AgentRecord::peek_header`]); no rollback log is decoded.
    pub fn residence_count(&self, agent: impl Into<AgentId>) -> usize {
        let agent = agent.into();
        self.queued_agents()
            .into_iter()
            .filter(|(_, id)| *id == agent)
            .count()
    }

    /// The agents currently sitting in stable queues, identified by a
    /// borrowed header peek per entry — the cheap scan for "where is
    /// everyone" questions. For deep inspection of an in-flight record use
    /// [`Platform::queued_records`].
    pub fn queued_agents(&self) -> Vec<(NodeId, AgentId)> {
        let mut out = Vec::new();
        for node in self.world.node_ids() {
            for bytes in queued_records(self.world.stable(node)) {
                if let Ok(header) = AgentRecord::peek_header(bytes) {
                    out.push((node, header.id));
                }
            }
        }
        out
    }

    /// All agent records currently sitting in stable queues, fully decoded
    /// (rollback log included) — the expensive deep-inspection walk, kept
    /// for tests that assert on in-flight log contents.
    pub fn queued_records(&self) -> Vec<(NodeId, AgentRecord)> {
        let mut out = Vec::new();
        for node in self.world.node_ids() {
            for bytes in queued_records(self.world.stable(node)) {
                if let Ok(rec) = AgentRecord::from_bytes(bytes) {
                    out.push((node, rec));
                }
            }
        }
        out
    }

    /// Sums all committed money in the system per currency: resource
    /// holdings plus wallet coins and credit notes stored under the given
    /// WRO keys (in queued records and final reports). Meaningful at
    /// quiescent points. Read-only: resources are inspected through
    /// [`World::service`], and queued records / reports are decoded only up
    /// to their data space ([`AgentRecord::peek_data`]) — the rollback logs
    /// never leave stable storage.
    pub fn money_audit(&self, wallet_keys: &[&str]) -> BTreeMap<String, i64> {
        let mut total = money_audit_world(&self.world, wallet_keys);
        // Drained reports: their stable artifacts were garbage-collected
        // (exactly when the report entered this cache), so the cache is the
        // one remaining copy — no agent is ever counted twice.
        for report in self.core.cached_reports() {
            audit_wallets(&report.record.data, wallet_keys, &mut total);
        }
        total
    }

    /// The current metrics snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.world.snapshot()
    }

    /// The underlying world (crash injection, link control, inspection).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("now", &self.world.now())
            .field("nodes", &self.world.node_count())
            .field("launched", &self.core.launched_count())
            .field("reports", &self.core.cached_count())
            .finish()
    }
}
