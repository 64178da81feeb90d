//! Counters collected during a simulation run.
//!
//! Every experiment in EXPERIMENTS.md is computed from a [`MetricsSnapshot`],
//! so metric updates must be deterministic. Under the sharded runtime each
//! shard records into its own registry and the kernel folds them in shard
//! order at run boundaries, so totals are independent of thread timing.
//!
//! The registry itself uses interior mutability (atomic counters behind a
//! read-mostly lock), so recording needs only `&self`: read-only probe paths
//! such as [`crate::World::service`] and the platform driver can count their
//! own work without exclusive access to the world.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use serde::{Deserialize, Serialize};

/// Metrics registry owned by the simulation world (one per shard plus the
/// world-level fold target). Recording takes `&self`.
#[derive(Default)]
pub struct Metrics {
    counters: RwLock<BTreeMap<String, AtomicU64>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        {
            // Fast path: the counter exists; no allocation, shared lock.
            let counters = self.counters.read().expect("metrics lock");
            if let Some(c) = counters.get(name) {
                c.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        let mut counters = self.counters.write().expect("metrics lock");
        counters
            .entry(name.to_owned())
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the named counter by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .read()
            .expect("metrics lock")
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Freezes the current state into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// Moves every count out of `other` into `self` (the deterministic shard
    /// fold: counter addition is commutative, and the kernel folds shards in
    /// id order). `other` keeps its keys at zero, so its next window counts
    /// on the shared-lock path without allocating a key again.
    pub(crate) fn absorb(&self, other: &Metrics) {
        for (k, v) in other.counters.read().expect("metrics lock").iter() {
            self.add(k, v.swap(0, Ordering::Relaxed));
        }
    }
}

impl Clone for Metrics {
    fn clone(&self) -> Self {
        let snap = self.snapshot();
        let m = Metrics::new();
        for (k, v) in &snap.counters {
            m.add(k, *v);
        }
        m
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
            .field(
                "counters",
                &self.counters.read().expect("metrics lock").len(),
            )
            .finish()
    }
}

/// Immutable, serializable copy of the metrics at some point in time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Value of a counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Difference of each counter relative to an earlier snapshot.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> BTreeMap<String, i64> {
        let mut out = BTreeMap::new();
        for (k, v) in &self.counters {
            let before = earlier.counter(k) as i64;
            let d = *v as i64 - before;
            if d != 0 {
                out.insert(k.clone(), d);
            }
        }
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k:<48} {v}")?;
        }
        Ok(())
    }
}

/// Well-known metric names used by the kernel; higher layers define theirs
/// next to the code that emits them.
pub mod keys {
    /// Messages successfully delivered.
    pub const MSGS_DELIVERED: &str = "net.msgs_delivered";
    /// Messages dropped because the destination node was down.
    pub const MSGS_DROPPED_NODE_DOWN: &str = "net.msgs_dropped_node_down";
    /// Messages dropped because the link was down.
    pub const MSGS_DROPPED_LINK_DOWN: &str = "net.msgs_dropped_link_down";
    /// Total payload bytes accepted for sending.
    pub const BYTES_SENT: &str = "net.bytes_sent";
    /// Stable-storage write operations.
    pub const STABLE_WRITES: &str = "stable.writes";
    /// Stable-storage bytes written.
    pub const STABLE_BYTES: &str = "stable.bytes_written";
    /// Stable-storage group-commit barriers that contained a mutation (one
    /// per service callback that wrote, independent of backend and shards).
    pub const STABLE_COMMITS: &str = "stable.commits";
    /// Node crash events.
    pub const NODE_CRASHES: &str = "failure.node_crashes";
    /// Node recovery events.
    pub const NODE_RECOVERIES: &str = "failure.node_recoveries";
    /// Timer events fired.
    pub const TIMERS_FIRED: &str = "kernel.timers_fired";
    /// Events processed by the kernel.
    pub const EVENTS: &str = "kernel.events";
    /// Windows executed by the sharded runtime (0 in sequential runs).
    pub const WINDOWS: &str = "kernel.windows";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.inc("a");
        m.add("a", 2);
        m.add("a", 0);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn recording_needs_only_a_shared_reference() {
        let m = Metrics::new();
        let r: &Metrics = &m;
        r.inc("probe");
        assert_eq!(r.counter("probe"), 1);
    }

    #[test]
    fn absorb_moves_and_merges() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.add("x", 1);
        b.add("x", 2);
        b.add("y", 5);
        a.absorb(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        // `b` was drained.
        assert_eq!(b.counter("x"), 0);
    }

    #[test]
    fn absorb_keeps_the_drained_keys_and_moves_only_the_delta() {
        let (a, b) = (Metrics::new(), Metrics::new());
        b.add("x", 2);
        b.add("y", 5);
        a.absorb(&b);
        let zeros: BTreeMap<String, u64> = [("x".into(), 0), ("y".into(), 0)].into();
        assert_eq!(b.snapshot().counters, zeros);
        // With a reader holding the lock, only the shared-lock path of `add`
        // can finish: a re-inserted key would wait for the write lock.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = b.counters.read().expect("metrics lock");
        std::thread::scope(|s| {
            s.spawn(|| {
                b.add("x", 4);
                tx.send(()).expect("test receiver");
            });
            let done = rx.recv_timeout(std::time::Duration::from_secs(5));
            drop(reader);
            assert!(done.is_ok(), "add after absorb took the write lock");
        });
        a.absorb(&b);
        assert_eq!((a.counter("x"), a.counter("y")), (6, 5));
        assert_eq!((b.counter("x"), b.counter("y")), (0, 0));
    }

    #[test]
    fn snapshot_delta() {
        let m = Metrics::new();
        m.add("x", 5);
        let before = m.snapshot();
        m.add("x", 2);
        m.add("y", 1);
        let after = m.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.get("x"), Some(&2));
        assert_eq!(d.get("y"), Some(&1));
    }

    #[test]
    fn snapshot_serializes() {
        let m = Metrics::new();
        m.inc("k");
        let snap = m.snapshot();
        let bytes = mar_wire::to_bytes(&snap).unwrap();
        let back: MetricsSnapshot = mar_wire::from_slice(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn display_contains_names() {
        let m = Metrics::new();
        m.inc("some.counter");
        let text = m.snapshot().to_string();
        assert!(text.contains("some.counter"));
    }
}
