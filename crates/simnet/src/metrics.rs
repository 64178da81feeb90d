//! Counters and histograms collected during a simulation run.
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
use std::sync::{Mutex, RwLock};

use serde::{Deserialize, Serialize};

/// Aggregate statistics for one observed quantity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest observation (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl Default for HistSummary {
    fn default() -> Self {
        HistSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl HistSummary {
    /// Arithmetic mean, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another summary of the same quantity into this one (shard
    /// fold in-process, host fold across processes).
    pub fn merge(&mut self, other: &HistSummary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Metrics registry owned by the simulation world (one per shard plus the
/// world-level fold target). Recording takes `&self`.
#[derive(Default)]
pub struct Metrics {
    counters: RwLock<BTreeMap<String, AtomicU64>>,
    hists: Mutex<BTreeMap<String, HistSummary>>,
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

    /// Records an observation in the named histogram.
    pub fn observe(&self, name: &str, v: f64) {
        self.hists
            .lock()
            .expect("metrics lock")
            .entry(name.to_owned())
            .or_default()
            .observe(v);
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

    /// Current summary of a histogram, if any observation was made.
    pub fn hist(&self, name: &str) -> Option<HistSummary> {
        self.hists.lock().expect("metrics lock").get(name).copied()
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
            hists: self.hists.lock().expect("metrics lock").clone(),
        }
    }

    /// Resets all counters and histograms.
    pub fn clear(&self) {
        self.counters.write().expect("metrics lock").clear();
        self.hists.lock().expect("metrics lock").clear();
    }

    /// Moves every count and observation out of `other` into `self` (the
    /// deterministic shard fold: counter addition and histogram merging are
    /// commutative, and the kernel folds shards in id order).
    pub(crate) fn absorb(&self, other: &Metrics) {
        let drained: Vec<(String, u64)> = {
            let mut counters = other.counters.write().expect("metrics lock");
            let drained = counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .filter(|(_, v)| *v > 0)
                .collect();
            counters.clear();
            drained
        };
        for (k, v) in drained {
            self.add(&k, v);
        }
        let hists = std::mem::take(&mut *other.hists.lock().expect("metrics lock"));
        if !hists.is_empty() {
            let mut own = self.hists.lock().expect("metrics lock");
            for (k, h) in hists {
                own.entry(k).or_default().merge(&h);
            }
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
        *m.hists.lock().expect("metrics lock") = snap.hists;
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
            .field("hists", &self.hists.lock().expect("metrics lock").len())
            .finish()
    }
}

/// Immutable, serializable copy of the metrics at some point in time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub hists: BTreeMap<String, HistSummary>,
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
        for (k, h) in &self.hists {
            writeln!(
                f,
                "{k:<48} n={} mean={:.2} min={:.2} max={:.2}",
                h.count,
                h.mean(),
                h.min,
                h.max
            )?;
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
        r.observe("h", 1.5);
        assert_eq!(r.counter("probe"), 1);
        assert_eq!(r.hist("h").unwrap().count, 1);
    }

    #[test]
    fn histogram_summary() {
        let m = Metrics::new();
        m.observe("h", 1.0);
        m.observe("h", 3.0);
        let h = m.hist("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), 2.0);
        assert_eq!((h.min, h.max), (1.0, 3.0));
    }

    #[test]
    fn absorb_moves_and_merges() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.add("x", 1);
        b.add("x", 2);
        b.add("y", 5);
        b.observe("h", 2.0);
        a.observe("h", 4.0);
        a.absorb(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        let h = a.hist("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max), (2.0, 4.0));
        // `b` was drained.
        assert_eq!(b.counter("x"), 0);
        assert!(b.hist("h").is_none());
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
        m.observe("h", 2.5);
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
