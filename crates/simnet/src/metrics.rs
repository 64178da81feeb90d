//! Counters collected during a simulation run.
//!
//! Every experiment in `EXPERIMENTS.md` is computed from a
//! [`MetricsSnapshot`], so metric updates must be deterministic. Under the
//! sharded runtime each shard records into its own registry and the kernel
//! folds them in shard order at run boundaries, so totals are independent of
//! thread timing.
//!
//! Every counter is declared once, in the table below, and recorded by its
//! [`Counter`] handle into a fixed array of atomics: one relaxed `fetch_add`
//! that needs only `&self`, so read-only probe paths such as
//! [`crate::World::service`] and the platform driver can count their own work.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A counter of the table: an index into every registry, and a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u16);

impl Counter {
    /// The handle of the counter named `name`, looked up at compile time.
    const fn named(name: &str) -> Counter {
        let mut i = 0;
        while !eq(NAMES[i].as_bytes(), name.as_bytes()) {
            i += 1;
        }
        Counter(i as u16)
    }

    /// The counter's name, the key it has in a [`MetricsSnapshot`].
    pub fn name(self) -> &'static str {
        NAMES[self.0 as usize]
    }
}

const fn eq(a: &[u8], b: &[u8]) -> bool {
    let mut i = 0;
    while i < a.len() && i < b.len() && a[i] == b[i] {
        i += 1;
    }
    i == a.len() && i == b.len()
}

impl AsRef<str> for Counter {
    fn as_ref(&self) -> &str {
        self.name()
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Declares the counter table: [`NAMES`] in handle order, and one module
/// of [`Counter`] handles per section.
macro_rules! counters {
    ($($(#[$sdoc:meta])* mod $sec:ident {
        $($(#[$doc:meta])* $name:ident = $key:literal;)*
    })*) => {
        /// Every counter's name, by handle.
        const NAMES: &[&str] = &[$($($key,)*)*];

        $($(#[$sdoc])* pub mod $sec {
            use super::Counter;

            $($(#[$doc])* pub const $name: Counter = Counter::named($key);)*

            /// Every counter of this section.
            pub const ALL: &[Counter] = &[$($name),*];
        })*
    };
}

counters! {
    /// The kernel's counters (`mar_simnet::metric_keys`).
    mod kernel {
        /// Messages successfully delivered.
        MSGS_DELIVERED = "net.msgs_delivered";
        /// Messages dropped because the destination node was down.
        MSGS_DROPPED_NODE_DOWN = "net.msgs_dropped_node_down";
        /// Messages dropped because the link was down.
        MSGS_DROPPED_LINK_DOWN = "net.msgs_dropped_link_down";
        /// Total payload bytes accepted for sending.
        BYTES_SENT = "net.bytes_sent";
        /// Stable-storage write operations.
        STABLE_WRITES = "stable.writes";
        /// Stable-storage bytes written.
        STABLE_BYTES = "stable.bytes_written";
        /// Stable-storage group-commit barriers that contained a mutation (one
        /// per service callback that wrote, independent of backend and shards).
        STABLE_COMMITS = "stable.commits";
        /// Node crash events.
        NODE_CRASHES = "failure.node_crashes";
        /// Node recovery events.
        NODE_RECOVERIES = "failure.node_recoveries";
        /// Timer events fired.
        TIMERS_FIRED = "kernel.timers_fired";
        /// Events processed by the kernel.
        EVENTS = "kernel.events";
        /// Windows executed by the sharded runtime (0 in sequential runs).
        WINDOWS = "kernel.windows";
    }
    /// The node runtime's counters (`mar_platform::metric_keys`).
    mod platform {
        /// Agents accepted for execution.
        AGENT_LAUNCHED = "agent.launched";
        /// Agents whose itinerary completed.
        AGENT_COMPLETED = "agent.completed";
        /// Agents that gave up.
        AGENT_FAILED = "agent.failed";
        /// Queue items dropped unread: they could not even fail their agent.
        AGENT_ITEMS_DROPPED = "agent.items_dropped";
        /// Messages to a node's runtime that did not decode (ignored).
        AGENT_MSGS_UNDECODABLE = "agent.msgs_undecodable";
        /// Agent transfers during forward execution.
        TRANSFERS_FORWARD = "agent.transfers.forward";
        /// Agent transfers during rollback (the §4.4.1 optimization target).
        TRANSFERS_ROLLBACK = "agent.transfers.rollback";
        /// Bytes of agent records moved forward.
        TRANSFER_BYTES_FORWARD = "agent.transfer_bytes.forward";
        /// Bytes of agent records moved during rollback.
        TRANSFER_BYTES_ROLLBACK = "agent.transfer_bytes.rollback";
        /// Step transactions committed.
        STEPS_COMMITTED = "steps.committed";
        /// Step transactions aborted for transient reasons (lock conflicts).
        STEPS_ABORTED = "steps.aborted_transient";
        /// Rollbacks initiated.
        ROLLBACK_STARTED = "rollback.started";
        /// Rollbacks that reached their savepoint.
        ROLLBACK_COMPLETED = "rollback.completed";
        /// Compensation rounds committed — one per compensated step, whether
        /// or not several were fused into one transaction (so the count stays
        /// comparable with unbatched runs).
        ROLLBACK_ROUNDS = "rollback.rounds";
        /// Batched compensation transactions committed (each is one 2PC; fuses
        /// one or more rounds).
        ROLLBACK_BATCHED_ROUNDS = "rollback.batched_rounds";
        /// Compensation transactions (and their 2PCs) saved by fusion:
        /// `rounds - batched_rounds`, accumulated per batch.
        ROLLBACK_ROUNDS_SAVED = "rollback.rounds_saved";
        /// Prepared RCE lists that failed when redone after a crash although
        /// the decision was commit (the heuristic-damage corner of 2PC).
        ROLLBACK_REDO_FAILED = "rollback.redo_failed";
        /// RCE lists shipped to resource nodes (optimized mode).
        RCE_SHIPPED = "rollback.rce_shipped";
        /// Bytes of shipped RCE lists.
        RCE_BYTES = "rollback.rce_bytes";
        /// Compensating operations executed.
        COMP_OPS = "comp.ops";
        /// Transient compensation failures (retried).
        COMP_TRANSIENT = "comp.failures_transient";
        /// Permanent compensation failures (agent fails).
        COMP_PERMANENT = "comp.failures_permanent";
        /// Resource delta records deleted because a fresh base image, written
        /// by the same commit, contains them.
        RM_DELTAS_FOLDED = "rm.deltas_folded";
        /// Whole-log discards at top-level sub-itinerary completion.
        LOG_DISCARDS = "log.discards";
        /// Bytes freed by log discards.
        LOG_DISCARD_BYTES = "log.discard_bytes";
        /// Savepoint entries removed when sub-itineraries completed.
        SAVEPOINTS_REMOVED = "log.savepoints_removed";
        /// Pre-transfer log compaction passes that rewrote at least one
        /// savepoint payload.
        LOG_COMPACTIONS = "log.compactions";
        /// Pre-transfer compaction passes skipped because the log was clean
        /// since its last pass or the cost model said the CPU time cannot pay
        /// for the bytes saved.
        LOG_COMPACTIONS_SKIPPED = "log.compactions_skipped";
        /// Bytes shaved off rollback logs by pre-transfer compaction.
        LOG_COMPACTION_SAVED_BYTES = "log.compaction_saved_bytes";
        /// Transactions committed: counted where each commits — at its
        /// coordinator when it has no remote branch, at the participant that
        /// decides otherwise (`mar_platform::Tally` holds the rest of what a
        /// commit counts).
        TXN_COMMITTED = "txn.committed";
        /// Distributed transactions aborted at this coordinator.
        TXN_ABORTED = "txn.aborted";
        /// Report retransmissions from a completing node's stable outbox (the
        /// home node's ack was lost or late).
        REPORT_RETRANSMITS = "report.retransmits";
        /// Completion events consumed from driver mailboxes — one per finished
        /// agent, however long the run.
        DRIVER_MBOX_EVENTS = "driver.mbox_events";
        /// Driver passes over home-node mailboxes (each is one bounded prefix
        /// probe, not a store walk).
        DRIVER_MBOX_SCANS = "driver.mbox_scans";
        /// Finished-agent artifacts garbage-collected after the driver drained
        /// the report: the home `report/<id>` copy, the completing node's
        /// `done/<id>` record and its outbox entry — one increment per agent.
        DRIVER_REPORTS_GC = "driver.reports_gc";
        /// Cached reports dropped by the driver's LRU cap
        /// (`DriverCore::DEFAULT_REPORT_CAP`);
        /// a non-zero value means some finished agents' reports are no longer
        /// retrievable from memory.
        DRIVER_REPORTS_EVICTED = "driver.reports_evicted";
        /// Queue items served from the node's volatile resident-record cache —
        /// steps that decoded nothing at all.
        RESIDENT_HITS = "resident.hits";
        /// Queue items parsed from stable bytes (cache cold, disabled, or the
        /// agent just arrived / retried).
        RESIDENT_MISSES = "resident.misses";
        /// Itinerary intern-table lookups that found the content hash already
        /// interned (a parsed record adopting the shared decode, or an inbound
        /// reference resolving).
        ITINERARY_CACHE_HITS = "itinerary.cache_hits";
        /// Intern-table lookups that came up empty: a newly interned itinerary,
        /// or an inbound reference this node could not resolve (NACKed).
        ITINERARY_CACHE_MISSES = "itinerary.cache_misses";
        /// Inline retransmits of a `Prepare` after a receiver NACKed its
        /// itinerary reference (`MoleMsg::ItineraryMiss`).
        ITINERARY_REFETCHES = "itinerary.refetches";
        /// Interned itineraries dropped by the intern table's capacity bound.
        ITINERARY_EVICTIONS = "itinerary.evictions";
        /// `Prepare` messages that shipped the agent record with its itinerary
        /// replaced by a content-hash reference frame.
        ITINERARY_REF_TRANSFERS = "itinerary.ref_transfers";
        /// Wire bytes the reference form saved versus the inline encoding of
        /// the same message (the schedule is still billed at the inline size;
        /// this counter is where the real savings surface).
        ITINERARY_WIRE_BYTES_SAVED = "itinerary.wire_bytes_saved";
        /// Actual wire bytes of `Prepare` messages carrying an agent record
        /// (reference-compressed or not) — the denominator of the
        /// migration-byte reduction.
        ITINERARY_MIGRATION_BYTES = "itinerary.migration_bytes";
        /// Stored resource base images and delta records that recovery could
        /// not restore (the manager stays at the state before the first one).
        RECOVERY_RM_RECORDS_REFUSED = "recovery.rm_records_refused";
        /// Prepared entries that did not read back as what this node stored: one
        /// that does not decode, or whose stub names a queue key that is gone.
        RECOVERY_PREPARED_REFUSED = "recovery.prepared_refused";
    }
    /// The socket driver's transport diagnostics (`mar_net::netkeys`),
    /// recorded on the driver's meter. These exist **only** in distributed
    /// runs; every other counter must sum (across hosts plus driver) to the
    /// single-process control's value.
    mod net {
        /// Protocol frames sent by the driver (replays included).
        FRAMES_SENT = "net.frames_sent";
        /// Protocol frames received by the driver (duplicates excluded).
        FRAMES_RECEIVED = "net.frames_received";
        /// Simulation deliveries relayed between processes.
        EVENTS_RELAYED = "net.events_relayed";
        /// Simulator-billed bytes of relayed deliveries — the byte count the
        /// schedule and `net.bytes_sent` accounting already charged.
        BILLED_BYTES = "net.billed_bytes";
        /// Actual payload bytes of relayed deliveries as shipped in frames
        /// (≤ billed when reference compression trimmed a payload after
        /// billing).
        PAYLOAD_BYTES = "net.payload_bytes";
        /// Lockstep windows executed.
        WINDOWS = "net.windows";
        /// Deliveries dropped because the owning host was down.
        HOST_DOWN_DROPS = "net.host_down_drops";
        /// Host re-handshakes after a connection died (resumed or fresh).
        RECONNECTS = "net.reconnects";
        /// Re-handshakes that opened a **fresh** session: the host process was
        /// restarted and recovered from its WAL.
        RESTARTS = "net.restarts";
        /// Re-handshakes that **resumed** the existing session: a connection
        /// outage healed with no simulation-visible effect.
        PARTITIONS_HEALED = "net.partitions_healed";
        /// Hosts declared permanently failed after `down_grace` expired.
        SUPERVISOR_GAVE_UP = "net.supervisor_gave_up";
    }
}

/// Metrics registry owned by the simulation world (one per shard plus the
/// world-level fold target); `default()` is all zeros. Recording takes
/// `&self`.
pub struct Metrics {
    counters: [AtomicU64; NAMES.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Metrics {
    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.0 as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.0 as usize].load(Ordering::Relaxed)
    }

    /// Freezes the current state into an immutable snapshot: every counter
    /// that is not zero, by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let values = self.counters.iter().map(|c| c.load(Ordering::Relaxed));
        let counters = NAMES.iter().zip(values).filter(|(_, v)| *v != 0);
        MetricsSnapshot {
            counters: counters.map(|(name, v)| ((*name).to_owned(), v)).collect(),
        }
    }

    /// Moves every count out of `other` into `self` (the deterministic shard
    /// fold: counter addition is commutative, and the kernel folds shards in
    /// id order).
    pub(crate) fn absorb(&self, other: &Metrics) {
        for (mine, theirs) in self.counters.iter().zip(&other.counters) {
            if theirs.load(Ordering::Relaxed) != 0 {
                mine.fetch_add(theirs.swap(0, Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }
}

/// Immutable, serializable copy of the metrics at some point in time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Value of a counter, by name or [`Counter`] (zero if absent).
    pub fn counter(&self, name: impl AsRef<str>) -> u64 {
        self.counters.get(name.as_ref()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.inc(kernel::EVENTS);
        m.add(kernel::EVENTS, 2);
        m.add(kernel::EVENTS, 0);
        assert_eq!(m.counter(kernel::EVENTS), 3);
        assert_eq!(m.counter(kernel::TIMERS_FIRED), 0);
    }

    #[test]
    fn recording_needs_only_a_shared_reference() {
        let m = Metrics::default();
        let r: &Metrics = &m;
        r.inc(platform::COMP_OPS);
        assert_eq!(r.counter(platform::COMP_OPS), 1);
    }

    #[test]
    fn absorb_moves_and_merges() {
        let a = Metrics::default();
        let b = Metrics::default();
        let (x, y) = (kernel::EVENTS, net::WINDOWS);
        a.add(x, 1);
        b.add(x, 2);
        b.add(y, 5);
        a.absorb(&b);
        assert_eq!(a.counter(x), 3);
        assert_eq!(a.counter(y), 5);
        // `b` was drained.
        assert_eq!(b.counter(x), 0);
    }

    #[test]
    fn snapshot_serializes() {
        let m = Metrics::default();
        m.inc(kernel::WINDOWS);
        let snap = m.snapshot();
        assert_eq!(snap.counter(kernel::WINDOWS), 1);
        assert_eq!(snap.counter("kernel.windows"), 1);
        let bytes = mar_wire::to_bytes(&snap).unwrap();
        let back: MetricsSnapshot = mar_wire::from_slice(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    /// Benchmarks, examples and the driver read counters by name: a rename
    /// or a removal must show up here.
    #[test]
    fn the_names_are_pinned_and_unique() {
        let mut names = NAMES.to_vec();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "agent.completed",
                "agent.failed",
                "agent.items_dropped",
                "agent.launched",
                "agent.msgs_undecodable",
                "agent.transfer_bytes.forward",
                "agent.transfer_bytes.rollback",
                "agent.transfers.forward",
                "agent.transfers.rollback",
                "comp.failures_permanent",
                "comp.failures_transient",
                "comp.ops",
                "driver.mbox_events",
                "driver.mbox_scans",
                "driver.reports_evicted",
                "driver.reports_gc",
                "failure.node_crashes",
                "failure.node_recoveries",
                "itinerary.cache_hits",
                "itinerary.cache_misses",
                "itinerary.evictions",
                "itinerary.migration_bytes",
                "itinerary.ref_transfers",
                "itinerary.refetches",
                "itinerary.wire_bytes_saved",
                "kernel.events",
                "kernel.timers_fired",
                "kernel.windows",
                "log.compaction_saved_bytes",
                "log.compactions",
                "log.compactions_skipped",
                "log.discard_bytes",
                "log.discards",
                "log.savepoints_removed",
                "net.billed_bytes",
                "net.bytes_sent",
                "net.events_relayed",
                "net.frames_received",
                "net.frames_sent",
                "net.host_down_drops",
                "net.msgs_delivered",
                "net.msgs_dropped_link_down",
                "net.msgs_dropped_node_down",
                "net.partitions_healed",
                "net.payload_bytes",
                "net.reconnects",
                "net.restarts",
                "net.supervisor_gave_up",
                "net.windows",
                "recovery.prepared_refused",
                "recovery.rm_records_refused",
                "report.retransmits",
                "resident.hits",
                "resident.misses",
                "rm.deltas_folded",
                "rollback.batched_rounds",
                "rollback.completed",
                "rollback.rce_bytes",
                "rollback.rce_shipped",
                "rollback.redo_failed",
                "rollback.rounds",
                "rollback.rounds_saved",
                "rollback.started",
                "stable.bytes_written",
                "stable.commits",
                "stable.writes",
                "steps.aborted_transient",
                "steps.committed",
                "txn.aborted",
                "txn.committed",
            ]
        );
        names.dedup();
        assert_eq!(names.len(), NAMES.len(), "a name is declared twice");
        let sections = [kernel::ALL, platform::ALL, net::ALL];
        let handles: Vec<Counter> = sections.concat();
        assert_eq!(handles.len(), NAMES.len());
        for (i, c) in handles.iter().enumerate() {
            assert_eq!(c.0 as usize, i, "{} is out of handle order", c.name());
        }
    }

    #[test]
    fn a_fresh_registry_snapshots_to_an_empty_map() {
        assert!(Metrics::default().snapshot().counters.is_empty());
    }

    #[test]
    fn a_fold_target_holds_no_zero_key() {
        let (target, shard) = (Metrics::default(), Metrics::default());
        shard.inc(platform::STEPS_COMMITTED);
        shard.add(kernel::BYTES_SENT, 0);
        target.absorb(&shard);
        target.absorb(&shard);
        let snap = target.snapshot();
        assert_eq!(snap.counters, [("steps.committed".into(), 1)].into());
        assert!(shard.snapshot().counters.is_empty());
    }
}
