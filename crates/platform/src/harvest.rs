//! Driver-side harvest logic, shared across deployment shapes.
//!
//! The in-process [`crate::Platform`] and the distributed driver in
//! `mar-net` run the *same* launch/drain/garbage-collect/audit code; what
//! differs is how the driver reaches a node's stable store. [`DriverCore`]
//! holds the driver's book-keeping (launched homes, the bounded report
//! cache, the completed set) and expresses every stable access through the
//! [`DriverStable`] trait — implemented directly on [`World`] for the
//! single-process platform, and as remote procedure calls to node hosts by
//! the `mar-net` driver. All driver stable traffic happens at quiescent
//! points (between simulation windows), so the RPC form needs no
//! interleaving with in-flight simulation events.

use std::collections::{BTreeMap, BTreeSet};

use mar_core::{AgentId, AgentRecord, DataSpace};
use mar_simnet::{Address, Counter, NodeId, World};

use crate::driver::AgentHandle;
use crate::lru::Lru;
use crate::mole::{
    keys, queued_records, MoleService, HOME_REPORT_PREFIX, MBOX_PREFIX, MOLE, OUTBOX_PREFIX,
    REPORT_PREFIX,
};
use crate::msg::{AgentReport, MoleMsg};
use crate::AgentSpec;

/// How a driver reaches node stable stores (and its own metrics), abstract
/// over the process boundary.
///
/// The in-process implementation on [`World`] touches the stores directly;
/// the `mar-net` driver forwards each call to the host that owns the node.
/// Semantics the harvest logic relies on: reads observe all prior deletes
/// through the same handle, and deletes are durable once
/// [`commit_deletes`](DriverStable::commit_deletes) returns.
pub trait DriverStable {
    /// The keys under `prefix` in `node`'s stable store, in sorted order.
    fn keys_with_prefix(&mut self, node: NodeId, prefix: &str) -> Vec<String>;
    /// Reads one stable key.
    fn get(&mut self, node: NodeId, key: &str) -> Option<Vec<u8>>;
    /// Deletes one stable key (no-op if absent).
    fn delete(&mut self, node: NodeId, key: &str);
    /// Makes every delete since the previous call durable. The default does
    /// nothing, for a handle whose deletes are durable when
    /// [`delete`](DriverStable::delete) returns.
    fn commit_deletes(&mut self) {}
    /// Increments a `driver.*` metric by one on the driver's own meter.
    fn metric_inc(&mut self, key: Counter);
}

/// A driver's deletes join one open batch per node they touch, and
/// [`commit_deletes`](DriverStable::commit_deletes) closes each with one
/// barrier and one sync, instead of one per delete. The harvest runs between
/// simulation entry points, so no event (and no simulated crash) can land
/// while a batch is open.
impl DriverStable for World {
    fn keys_with_prefix(&mut self, node: NodeId, prefix: &str) -> Vec<String> {
        self.stable(node).keys_with_prefix(prefix)
    }

    fn get(&mut self, node: NodeId, key: &str) -> Option<Vec<u8>> {
        self.stable(node).get(key).map(<[u8]>::to_vec)
    }

    fn delete(&mut self, node: NodeId, key: &str) {
        let store = self.stable_mut(node);
        store.begin_batch();
        store.delete(key);
    }

    fn commit_deletes(&mut self) {
        for node in self.node_ids() {
            self.stable_mut(node).commit();
        }
    }

    fn metric_inc(&mut self, key: Counter) {
        self.metrics().inc(key);
    }
}

/// The driver's book-keeping, independent of how the world is reached:
/// agent-id allocation, launched homes, the LRU-bounded report cache, and
/// the set of completions seen.
#[derive(Debug)]
pub struct DriverCore {
    next_agent: u64,
    /// Home node of every agent launched through this driver.
    homes: BTreeMap<AgentId, NodeId>,
    /// Reports already drained from home mailboxes, bounded by `report_cap`
    /// with least-recently-used eviction.
    reports: BTreeMap<AgentId, AgentReport>,
    lru: Lru<AgentId>,
    report_cap: usize,
    /// Ids of every agent whose completion this driver has seen. Settle
    /// detection reads this, not the report cache, so evicting a bulky
    /// report never makes a finished agent look unfinished.
    completed: BTreeSet<AgentId>,
}

impl DriverCore {
    /// Default bound on the report cache.
    pub const DEFAULT_REPORT_CAP: usize = 100_000;

    /// A fresh core with the given report-cache bound (clamped to ≥ 1).
    pub fn new(report_cap: usize) -> Self {
        DriverCore {
            next_agent: 1,
            homes: BTreeMap::new(),
            reports: BTreeMap::new(),
            lru: Lru::new(),
            report_cap: report_cap.max(1),
            completed: BTreeSet::new(),
        }
    }

    /// Allocates the next agent id and builds its launch message. The
    /// caller posts the returned payload to the returned address; the home
    /// registration for mailbox draining happens here.
    pub fn launch(&mut self, spec: AgentSpec) -> (AgentHandle, Address, Vec<u8>) {
        let id = AgentId(self.next_agent);
        self.next_agent += 1;
        let home = spec.home;
        let record = AgentRecord::new(
            id,
            spec.agent_type,
            home.0,
            spec.data,
            spec.itinerary,
            spec.logging,
            spec.mode,
        );
        let msg = MoleMsg::Launch {
            record: record.to_bytes().expect("record encodes").into(),
        };
        self.homes.insert(id, home);
        (
            AgentHandle::new(id, home),
            Address::new(home, MOLE),
            msg.encode(),
        )
    }

    /// Whether this driver has seen `agent`'s completion event.
    pub fn is_completed(&self, agent: AgentId) -> bool {
        self.completed.contains(&agent)
    }

    /// Number of agents launched and still remembered.
    pub fn launched_count(&self) -> usize {
        self.homes.len()
    }

    /// Number of reports currently cached.
    pub fn cached_count(&self) -> usize {
        self.reports.len()
    }

    /// The cached reports (ordered by agent id). Money audits read wallet
    /// totals from here — a drained report's stable artifacts are gone, so
    /// the cache is the one remaining copy.
    pub fn cached_reports(&self) -> impl Iterator<Item = &AgentReport> {
        self.reports.values()
    }

    /// The report of a finished agent launched through this driver, if
    /// any: served from the cache (marking it most recently used), after
    /// draining the home mailboxes once if it is not there yet.
    pub fn report(
        &mut self,
        stable: &mut impl DriverStable,
        agent: AgentId,
    ) -> Option<AgentReport> {
        if !self.reports.contains_key(&agent) {
            self.drain_reports(stable);
        }
        let r = self.reports.get(&agent)?.clone();
        self.lru.touch(agent);
        Some(r)
    }

    /// Releases an agent's cached report (and the driver's memory of its
    /// home), returning the report if it was still cached.
    pub fn forget(&mut self, agent: AgentId) -> Option<AgentReport> {
        self.homes.remove(&agent);
        self.completed.remove(&agent);
        self.lru.remove(&agent);
        self.reports.remove(&agent)
    }

    /// Inserts a freshly drained report, evicting the least recently used
    /// entries once the cap is exceeded. Evicted reports are gone for good
    /// (their stable artifacts were garbage-collected on drain); the
    /// `driver.reports_evicted` counter makes that loss observable.
    fn cache_report(
        &mut self,
        stable: &mut impl DriverStable,
        agent: AgentId,
        report: AgentReport,
    ) {
        self.completed.insert(agent);
        self.reports.insert(agent, report);
        self.lru.touch(agent);
        while self.reports.len() > self.report_cap {
            let Some(victim) = self.lru.pop_oldest() else {
                break;
            };
            self.reports.remove(&victim);
            stable.metric_inc(keys::DRIVER_REPORTS_EVICTED);
        }
    }

    /// Consumes every completion event currently waiting in the driver
    /// mailboxes of the launched agents' home nodes, returning the newly
    /// arrived reports (oldest first per node). Already-drained reports are
    /// not returned again.
    ///
    /// Cost: one bounded prefix probe per distinct home node plus one
    /// stable read per *new* completion — O(completions) over a whole run.
    pub fn drain_reports(&mut self, stable: &mut impl DriverStable) -> Vec<AgentReport> {
        let homes: Vec<NodeId> = {
            let mut v: Vec<NodeId> = self.homes.values().copied().collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut fresh = Vec::new();
        for node in homes {
            stable.metric_inc(keys::DRIVER_MBOX_SCANS);
            for key in stable.keys_with_prefix(node, MBOX_PREFIX) {
                let raw_id = stable
                    .get(node, &key)
                    .and_then(|b| mar_wire::from_slice::<u64>(&b).ok());
                // The mailbox is owned by the driver: consuming the event
                // deletes it, so a whole run reads each completion once.
                stable.delete(node, &key);
                let Some(raw_id) = raw_id else { continue };
                let agent = AgentId(raw_id);
                stable.metric_inc(keys::DRIVER_MBOX_EVENTS);
                if let Some(known) = self.reports.get(&agent) {
                    // A late duplicate delivery (lost ack + crash-driven
                    // retransmission) re-created artifacts that were
                    // already collected once: collect them again, without
                    // surfacing the report a second time.
                    let finished = known.finished_node;
                    gc_report_artifacts(stable, node, finished, raw_id);
                    continue;
                }
                let report = stable
                    .get(node, &format!("{HOME_REPORT_PREFIX}{raw_id}"))
                    .and_then(|b| AgentReport::decode(&b).ok());
                if let Some(report) = report {
                    gc_report_artifacts(stable, node, report.finished_node, raw_id);
                    stable.metric_inc(keys::DRIVER_REPORTS_GC);
                    self.cache_report(stable, agent, report.clone());
                    fresh.push(report);
                }
            }
        }
        stable.commit_deletes();
        fresh
    }
}

/// Driver-acknowledged retention: once a report is safely in the driver's
/// cache, its stable artifacts — the home node's `report/<id>` copy, and
/// the completing node's `done/<id>` record plus its outbox entry — are
/// deleted, so long-lived fleets do not grow stable storage by one full
/// record per finished agent. Deleting the outbox entry first means no
/// further retransmission can resurrect the report (idempotent: re-running
/// on an already-collected agent deletes nothing).
fn gc_report_artifacts(stable: &mut impl DriverStable, home: NodeId, finished_node: u32, id: u64) {
    let finished = NodeId(finished_node);
    stable.delete(finished, &format!("{OUTBOX_PREFIX}{id}"));
    stable.delete(finished, &format!("{REPORT_PREFIX}{id}"));
    stable.delete(home, &format!("{HOME_REPORT_PREFIX}{id}"));
}

/// Adds the wallet coins and credit notes stored under `wallet_keys` in one
/// agent data space into `total`, keyed by currency.
pub fn audit_wallets(data: &DataSpace, wallet_keys: &[&str], total: &mut BTreeMap<String, i64>) {
    for key in wallet_keys {
        if let Some(v) = data.wro(key) {
            if let Ok(w) = mar_resources::Wallet::from_value(v) {
                for coin in &w.coins {
                    *total.entry(coin.currency.clone()).or_insert(0) += coin.value;
                }
                for note in &w.credit_notes {
                    *total.entry(note.currency.clone()).or_insert(0) += note.amount;
                }
            }
        }
    }
}

/// Sums all committed money held *inside this world* per currency: resource
/// holdings plus wallet coins and credit notes under the given WRO keys in
/// queued records and not-yet-drained final reports. Meaningful at
/// quiescent points; read-only.
///
/// Nodes marked remote contribute nothing (they host no services and their
/// stores stay empty), so in a distributed deployment each host audits
/// exactly its owned nodes and the driver sums host totals with its own
/// cached reports ([`audit_wallets`] over [`DriverCore::cached_reports`]).
pub fn money_audit_world(world: &World, wallet_keys: &[&str]) -> BTreeMap<String, i64> {
    let mut total: BTreeMap<String, i64> = BTreeMap::new();
    for node in world.node_ids() {
        if let Some(mole) = world.service::<MoleService>(node, MOLE) {
            for (cur, amount) in mole.rms().audit_money() {
                *total.entry(cur).or_insert(0) += amount;
            }
        }
    }
    for node in world.node_ids() {
        for bytes in queued_records(world.stable(node)) {
            if let Ok(peek) = AgentRecord::peek_data(bytes) {
                audit_wallets(&peek.data, wallet_keys, &mut total);
            }
        }
        // Finished agents not yet drained by the driver: their final
        // records live in "done/" reports.
        for key in world.stable(node).keys_with_prefix(REPORT_PREFIX) {
            if let Some(bytes) = world.stable(node).get(&key) {
                if let Ok(data) = AgentReport::peek_record_data(bytes) {
                    audit_wallets(&data, wallet_keys, &mut total);
                }
            }
        }
    }
    total
}
