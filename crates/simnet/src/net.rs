//! Network model: latency, message sizes, and link failures.
//!
//! The paper assumes a network with reliable transfer but allows *temporary*
//! network crashes (§4.3). Links here can be taken down and brought back up;
//! while a link is down, sends over it are dropped (and counted), and the
//! retry logic of the layers above provides reliability — exactly the
//! environment the rollback mechanism must tolerate.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::SimDuration;

/// Fixed per-message envelope overhead added to the payload size (addresses,
/// type tags, checksums of a realistic transport).
pub const MSG_OVERHEAD_BYTES: usize = 32;

/// Latency model for one message: `base + per_kb * kilobytes`, scaled by a
/// symmetric jitter factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Fixed cost per message (propagation + handling).
    pub base: SimDuration,
    /// Additional cost per 1024 payload bytes (serialization + bandwidth).
    pub per_kb: SimDuration,
    /// Jitter fraction in `[0, 1)`: the final latency is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl LatencyModel {
    /// A 1 ms / 0.1 ms-per-KB LAN-like model with 10% jitter.
    pub fn lan() -> Self {
        LatencyModel {
            base: SimDuration::from_millis(1),
            per_kb: SimDuration::from_micros(100),
            jitter: 0.10,
        }
    }

    /// A 40 ms / 1 ms-per-KB WAN-like model with 20% jitter.
    pub fn wan() -> Self {
        LatencyModel {
            base: SimDuration::from_millis(40),
            per_kb: SimDuration::from_millis(1),
            jitter: 0.20,
        }
    }

    /// Deterministic zero-jitter model, handy in unit tests.
    pub fn fixed(base: SimDuration, per_kb: SimDuration) -> Self {
        LatencyModel {
            base,
            per_kb,
            jitter: 0.0,
        }
    }

    /// Guaranteed lower bound on any sampled inter-node latency: the base
    /// cost scaled by the worst-case jitter factor. Every possible
    /// [`LatencyModel::sample`] result is `>=` this value (payload cost is
    /// non-negative and the jitter factor is at least `1 - jitter`), so the
    /// sharded runtime can use it as conservative lookahead: a message sent
    /// at time `t` to another node is never due before `t + min_latency()`.
    pub fn min_latency(&self) -> SimDuration {
        let worst = (1.0 - self.jitter).max(0.0);
        SimDuration::from_micros((self.base.as_micros() as f64 * worst).floor() as u64)
    }

    /// Samples the latency for a message of `bytes` payload bytes.
    pub fn sample(&self, bytes: usize, rng: &mut SimRng) -> SimDuration {
        let total_bytes = (bytes + MSG_OVERHEAD_BYTES) as u64;
        let kb_cost =
            SimDuration::from_micros(self.per_kb.as_micros().saturating_mul(total_bytes) / 1024);
        let raw = self.base + kb_cost;
        if self.jitter <= 0.0 {
            raw
        } else {
            let factor = 1.0 + self.jitter * (2.0 * rng.f64() - 1.0);
            raw.mul_f64(factor.max(0.0))
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::lan()
    }
}

/// Delivery delay for messages between services on the same node.
const LOCAL_DELAY: SimDuration = SimDuration::from_micros(10);

/// Connectivity and latency state of the simulated network.
#[derive(Debug, Clone)]
pub struct Network {
    latency: LatencyModel,
    down_links: BTreeSet<(NodeId, NodeId)>,
}

fn norm(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Network {
    /// Creates a fully connected network with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        Network {
            latency,
            down_links: BTreeSet::new(),
        }
    }

    /// The configured latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Returns `true` if the (symmetric) link between `a` and `b` is up.
    /// A node's link to itself is always up.
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        a == b || !self.down_links.contains(&norm(a, b))
    }

    /// Sets the symmetric link state between `a` and `b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, up: bool) {
        if a == b {
            return;
        }
        if up {
            self.down_links.remove(&norm(a, b));
        } else {
            self.down_links.insert(norm(a, b));
        }
    }

    /// Takes down every link between the two groups (a partition).
    pub fn partition(&mut self, side_a: &[NodeId], side_b: &[NodeId]) {
        for &a in side_a {
            for &b in side_b {
                self.set_link(a, b, false);
            }
        }
    }

    /// Brings all links back up.
    pub fn heal_all(&mut self) {
        self.down_links.clear();
    }

    /// Number of links currently down.
    pub fn down_link_count(&self) -> usize {
        self.down_links.len()
    }

    /// Latency for delivering `bytes` from `from` to `to`, or `None` if the
    /// link is down (the message is lost).
    pub fn delivery_latency(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        if from == to {
            return Some(LOCAL_DELAY);
        }
        if !self.link_up(from, to) {
            return None;
        }
        Some(self.latency.sample(bytes, rng))
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new(LatencyModel::lan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_size() {
        let m = LatencyModel::fixed(SimDuration::from_millis(1), SimDuration::from_micros(100));
        let mut rng = SimRng::seed_from(1);
        let small = m.sample(100, &mut rng);
        let large = m.sample(100_000, &mut rng);
        assert!(large > small);
        // base(1000) + 100 * (100 + 32) / 1024 = 1012us
        assert_eq!(small.as_micros(), 1_012);
    }

    #[test]
    fn min_latency_bounds_all_samples() {
        let m = LatencyModel::lan();
        assert_eq!(m.min_latency().as_micros(), 900);
        let mut rng = SimRng::seed_from(9);
        for i in 0..500 {
            let s = m.sample(i * 37, &mut rng);
            assert!(s >= m.min_latency(), "sample {s:?} below lookahead bound");
        }
        // Zero-jitter model: bound is exactly the base.
        let f = LatencyModel::fixed(SimDuration::from_millis(2), SimDuration::ZERO);
        assert_eq!(f.min_latency(), SimDuration::from_millis(2));
    }

    #[test]
    fn jitter_bounds() {
        let m = LatencyModel {
            base: SimDuration::from_millis(10),
            per_kb: SimDuration::ZERO,
            jitter: 0.5,
        };
        let mut rng = SimRng::seed_from(2);
        for _ in 0..200 {
            let us = m.sample(0, &mut rng).as_micros();
            assert!(
                (5_000..=15_000).contains(&us),
                "latency {us}us out of bounds"
            );
        }
    }

    #[test]
    fn links_are_symmetric() {
        let mut net = Network::default();
        let (a, b) = (NodeId(1), NodeId(2));
        assert!(net.link_up(a, b));
        net.set_link(b, a, false);
        assert!(!net.link_up(a, b));
        assert!(!net.link_up(b, a));
        net.set_link(a, b, true);
        assert!(net.link_up(a, b));
    }

    #[test]
    fn self_link_never_down() {
        let mut net = Network::default();
        net.set_link(NodeId(1), NodeId(1), false);
        assert!(net.link_up(NodeId(1), NodeId(1)));
    }

    #[test]
    fn partition_and_heal() {
        let mut net = Network::default();
        let left = [NodeId(0), NodeId(1)];
        let right = [NodeId(2), NodeId(3)];
        net.partition(&left, &right);
        assert!(!net.link_up(NodeId(0), NodeId(3)));
        assert!(net.link_up(NodeId(0), NodeId(1)));
        assert_eq!(net.down_link_count(), 4);
        net.heal_all();
        assert!(net.link_up(NodeId(0), NodeId(3)));
    }

    #[test]
    fn delivery_latency_none_when_down() {
        let mut net = Network::default();
        let mut rng = SimRng::seed_from(3);
        net.set_link(NodeId(1), NodeId(2), false);
        assert!(net
            .delivery_latency(NodeId(1), NodeId(2), 10, &mut rng)
            .is_none());
        // Local delivery unaffected.
        assert!(net
            .delivery_latency(NodeId(1), NodeId(1), 10, &mut rng)
            .is_some());
    }
}
