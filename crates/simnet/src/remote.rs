//! The remote-node seam of the kernel: wire-facing events.
//!
//! A distributed deployment runs one [`crate::World`] per process, each
//! world holding *all* node ids (so per-node random streams and event keys
//! are identical everywhere) but hosting services only on the nodes the
//! process owns. Nodes owned by another process are marked **remote** via
//! [`crate::World::mark_remote`]; events routed to them are diverted — with
//! their deterministic `(time, origin, seq)` key already computed — into an
//! egress buffer ([`crate::World::take_remote_egress`]) instead of a local
//! queue, shipped over a real transport, and re-inserted at the owner with
//! [`crate::World::inject_remote`]. Because the key travels with the event,
//! the receiving world processes it in exactly the global order the
//! single-process simulation would have used.

use mar_wire::Bytes;
use serde::{Deserialize, Serialize};

use crate::node::{Address, NodeId};
use crate::time::SimTime;

/// A delivery event captured at the remote-egress seam, in a form that can
/// cross a process boundary (no `&'static str`, no queue internals).
///
/// The fields are exactly the event key plus the delivery payload of the
/// kernel's internal `Deliver` event; see [`crate::World::inject_remote`]
/// for the re-insertion contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteEvent {
    /// Virtual time the delivery is due, in microseconds.
    pub at_us: u64,
    /// Event-key origin: the id of the node whose callback created the
    /// event, or the reserved driver origin (`u64::MAX`).
    pub origin: u64,
    /// Per-origin sequence number (third key component).
    pub seq: u64,
    /// Sending node (`u32::MAX` for external/driver injections).
    pub from_node: u32,
    /// Sending service name.
    pub from_service: String,
    /// Destination node.
    pub to_node: u32,
    /// Destination service name.
    pub to_service: String,
    /// Message payload bytes, framed as one `TAG_BYTES` run on the wire.
    pub payload: Bytes,
    /// Billed (logical) size used for latency and byte accounting; equals
    /// `payload.len()` unless the sender used reference compression.
    pub billed: u64,
}

impl RemoteEvent {
    /// The destination address, with the service name interned.
    pub fn to_address(&self) -> Address {
        Address::new(NodeId(self.to_node), intern_service_name(&self.to_service))
    }

    /// The source address, with the service name interned.
    pub fn from_address(&self) -> Address {
        Address::new(
            NodeId(self.from_node),
            intern_service_name(&self.from_service),
        )
    }

    /// The due time as a [`SimTime`].
    pub fn at(&self) -> SimTime {
        SimTime::from_micros(self.at_us)
    }
}

/// Interns a service name, returning a `&'static str` equal to `name`.
///
/// [`Address`] stores service names as `&'static str` (registration uses
/// string literals); events decoded from the wire carry owned strings, so
/// re-insertion needs a leak-once process-wide intern table. The set of
/// distinct service names is tiny and fixed by the program, so the leak is
/// bounded.
pub fn intern_service_name(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static TABLE: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut table = TABLE.lock().expect("service-name intern table");
    if let Some(existing) = table.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_pointer() {
        let a = intern_service_name("mole-test-name");
        let b = intern_service_name("mole-test-name");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "mole-test-name");
    }

    #[test]
    fn remote_event_addresses_roundtrip() {
        let ev = RemoteEvent {
            at_us: 42,
            origin: 3,
            seq: 7,
            from_node: 3,
            from_service: "mole".to_owned(),
            to_node: 5,
            to_service: "mole".to_owned(),
            payload: Bytes::from(vec![1, 2, 3]),
            billed: 3,
        };
        assert_eq!(ev.to_address(), Address::new(NodeId(5), "mole"));
        assert_eq!(ev.from_address().node, NodeId(3));
        assert_eq!(ev.at(), SimTime::from_micros(42));
    }
}
