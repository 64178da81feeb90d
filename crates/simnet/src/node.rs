//! Nodes, services, and addresses.
//!
//! A node hosts named *services* (message-driven state machines). Volatile
//! service state is destroyed by a crash and rebuilt from the registered
//! factory on recovery; only the node's [`StableStore`] survives — the same
//! failure model the paper's protocols are designed for.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ctx::Ctx;
use crate::rng::SimRng;
use crate::stable::StableStore;

/// Identifier of a simulated node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Pseudo-node used as the source address of externally injected
    /// messages (test drivers, agent owners).
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::EXTERNAL {
            f.write_str("N(ext)")
        } else {
            write!(f, "N{}", self.0)
        }
    }
}

/// Address of a service instance: a node plus a service name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address {
    /// The hosting node.
    pub node: NodeId,
    /// The service name (a registered `&'static str`).
    pub service: &'static str,
}

impl Address {
    /// Constructs an address.
    pub const fn new(node: NodeId, service: &'static str) -> Self {
        Address { node, service }
    }

    /// The address external messages appear to come from.
    pub const fn external() -> Self {
        Address {
            node: NodeId::EXTERNAL,
            service: "external",
        }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.node, self.service)
    }
}

/// A message-driven state machine hosted on a node.
///
/// Services must be `Any` so tests and drivers can downcast them via
/// [`crate::World::service_mut`], and `Send` so nodes can be partitioned
/// across worker-thread shards.
pub trait Service: Any + Send {
    /// Handles a message delivered to this service.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Address, payload: &[u8]);

    /// Handles a timer set through [`Ctx::set_timer`]. Timers set before the
    /// node's last crash never fire.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}

    /// Called when the node starts, and again after every recovery (with a
    /// freshly rebuilt service instance). Recovery logic goes here.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// Factory used to (re)build a service instance at start and after a crash.
pub type ServiceFactory = Box<dyn Fn() -> Box<dyn Service> + Send>;

pub(crate) struct NodeSlot {
    pub id: NodeId,
    pub up: bool,
    /// Incremented on every crash; timers carry the epoch they were set in.
    pub epoch: u64,
    pub services: BTreeMap<&'static str, Box<dyn Service>>,
    pub factories: Vec<(&'static str, ServiceFactory)>,
    pub stable: StableStore,
    /// Per-node deterministic RNG stream, derived from the world seed and
    /// the node id only — invariant under resharding.
    pub rng: SimRng,
    /// Per-node counter for event keys of events this node's callbacks
    /// create. Never reset (not even by a crash) so keys stay unique.
    pub event_seq: u64,
}

impl NodeSlot {
    pub fn new(id: NodeId, rng: SimRng, stable: StableStore) -> Self {
        NodeSlot {
            id,
            up: true,
            epoch: 0,
            services: BTreeMap::new(),
            factories: Vec::new(),
            stable,
            rng,
            event_seq: 0,
        }
    }

    /// Takes the next per-origin event sequence number.
    pub fn next_event_seq(&mut self) -> u64 {
        let s = self.event_seq;
        self.event_seq += 1;
        s
    }

    /// Destroys volatile state (crash). Stable storage survives, but its
    /// backend loses anything not yet group-committed.
    pub fn crash(&mut self) {
        self.up = false;
        self.epoch += 1;
        self.services.clear();
        self.stable.crash_volatile();
    }

    /// Rebuilds services from factories (recovery). `on_start` is invoked by
    /// the kernel afterwards; the stable backend recovers first so services
    /// see the replayed store.
    pub fn rebuild(&mut self) {
        self.up = true;
        self.stable.recover();
        self.services.clear();
        for (name, factory) in &self.factories {
            self.services.insert(name, factory());
        }
    }
}

impl fmt::Debug for NodeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeSlot")
            .field("id", &self.id)
            .field("up", &self.up)
            .field("epoch", &self.epoch)
            .field("services", &self.services.keys().collect::<Vec<_>>())
            .field("stable_entries", &self.stable.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Service for Nop {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Address, _payload: &[u8]) {}
    }

    #[test]
    fn crash_clears_services_and_bumps_epoch() {
        let mut slot = NodeSlot::new(NodeId(1), SimRng::seed_from(0), StableStore::new());
        slot.factories.push(("svc", Box::new(|| Box::new(Nop))));
        slot.rebuild();
        assert!(slot.services.contains_key("svc"));
        slot.crash();
        assert!(!slot.up);
        assert_eq!(slot.epoch, 1);
        assert!(slot.services.is_empty());
        slot.rebuild();
        assert!(slot.up);
        assert!(slot.services.contains_key("svc"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "N3");
        assert_eq!(NodeId::EXTERNAL.to_string(), "N(ext)");
        assert_eq!(Address::new(NodeId(1), "tm").to_string(), "N1/tm");
    }
}
