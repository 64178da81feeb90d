//! The context handed to service callbacks.
//!
//! A [`Ctx`] gives a service synchronous access to its node's stable storage
//! and deterministic randomness, and buffers outgoing effects (messages,
//! timers) which the kernel applies after the callback returns.

use crate::metrics::{keys, Metrics};
use crate::node::{Address, NodeId};
use crate::rng::SimRng;
use crate::stable::StableStore;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind};

#[derive(Debug)]
pub(crate) enum Command {
    Send {
        from: Address,
        to: Address,
        payload: Vec<u8>,
        /// Logical size the message is billed at (latency, byte counters,
        /// trace). Equals `payload.len()` except for reference-compressed
        /// payloads, which are billed at their rehydrated size so that
        /// volatile-cache state never shifts the simulated schedule.
        billed: usize,
    },
    SetTimer {
        node: NodeId,
        service: &'static str,
        tag: u64,
        epoch: u64,
        delay: SimDuration,
    },
}

/// Execution context of a service callback.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) service: &'static str,
    pub(crate) epoch: u64,
    pub(crate) stable: &'a mut StableStore,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) metrics: &'a Metrics,
    pub(crate) trace: &'a mut Trace,
    pub(crate) commands: &'a mut Vec<Command>,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this service runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This service's own address.
    pub fn self_address(&self) -> Address {
        Address::new(self.node, self.service)
    }

    /// Deterministic random number generator (a per-node stream, so draws
    /// are independent of how nodes are partitioned into shards).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Metrics registry for custom counters.
    pub fn metrics(&self) -> &Metrics {
        self.metrics
    }

    /// Sends `payload` to `to`. Delivery is asynchronous; the message is
    /// dropped (with a metric) if the link or destination node is down.
    pub fn send(&mut self, to: Address, payload: Vec<u8>) {
        let billed = payload.len();
        self.send_billed(to, payload, billed);
    }

    /// Like [`Ctx::send`], but bills the message — network latency,
    /// `net.bytes_sent`, and both trace records — at `billed` bytes instead
    /// of `payload.len()`.
    ///
    /// This is the hook for content-addressed compression: a sender that
    /// replaces a payload section with a cache reference passes the
    /// *rehydrated* size here, so the simulated schedule, byte counters,
    /// and traces stay identical whether or not the (volatile) cache was
    /// warm. The real savings are reported through dedicated metrics by the
    /// caller.
    pub fn send_billed(&mut self, to: Address, payload: Vec<u8>, billed: usize) {
        let from = self.self_address();
        if self.trace.enabled() {
            self.trace.record(
                self.now,
                TraceKind::MsgSent {
                    from: (from.node.0, from.service.to_owned()),
                    to: (to.node.0, to.service.to_owned()),
                    bytes: billed,
                },
            );
        }
        self.metrics.add(keys::BYTES_SENT, billed as u64);
        self.commands.push(Command::Send {
            from,
            to,
            payload,
            billed,
        });
    }

    /// Schedules `on_timer(tag)` after `delay`. The timer dies if the node
    /// crashes before it fires.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.commands.push(Command::SetTimer {
            node: self.node,
            service: self.service,
            tag,
            epoch: self.epoch,
            delay,
        });
    }

    /// Writes to this node's stable storage (crash-surviving), recording
    /// write metrics.
    pub fn stable_put(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.metrics.inc(keys::STABLE_WRITES);
        self.metrics.add(keys::STABLE_BYTES, value.len() as u64);
        self.stable.put(key, value);
    }

    /// Reads from stable storage.
    pub fn stable_get(&self, key: &str) -> Option<&[u8]> {
        self.stable.get(key)
    }

    /// Deletes a stable key, returning the previous value.
    pub fn stable_delete(&mut self, key: &str) -> Option<Vec<u8>> {
        self.metrics.inc(keys::STABLE_WRITES);
        self.stable.delete(key)
    }

    /// Direct access to the stable store for scans.
    pub fn stable(&mut self) -> &mut StableStore {
        self.stable
    }

    /// Emits an application-level trace marker.
    pub fn trace(&mut self, label: &'static str, detail: impl Into<String>) {
        if self.trace.enabled() {
            self.trace.record(
                self.now,
                TraceKind::Custom {
                    node: self.node.0,
                    label: label.to_owned(),
                    detail: detail.into(),
                },
            );
        }
    }
}
