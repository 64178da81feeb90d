//! The simulation kernel.
//!
//! [`World`] owns the clock, the nodes, and the network, and advances them
//! deterministically: same seed and same setup ⇒ same event order, same
//! metrics, same trace.
//!
//! # Sharded runtime
//!
//! Nodes are partitioned round-robin across `WorldConfig::shards` shards
//! (node `n` lives on shard `n % N`). Each shard owns its nodes' slots, an
//! event queue, a clock cursor, and its own metrics/trace buffers, so a
//! multi-shard run can process shards on worker threads. Determinism across
//! shard counts comes from two rules:
//!
//! 1. Every event carries the key `(virtual_time, origin, seq)`, where
//!    `origin` is the id of the *node* whose callback created the event (the
//!    driver uses a reserved origin) and `seq` is a per-origin counter. The
//!    key depends only on the event's cause, never on the shard layout, so
//!    the induced total order is identical at any shard count.
//! 2. Randomness is drawn from per-node streams derived from `(seed, node)`
//!    only; message latency is drawn from the *sender's* stream.
//!
//! Multi-shard runs use conservative time windows: with lookahead `L =`
//! [`crate::LatencyModel::min_latency`], every cross-shard message created at
//! time `t` is due no earlier than `t + L`, so all shards can process the
//! window `[m, m + L)` (where `m` is the global minimum pending time) in
//! parallel without ever receiving an event "in the past". Cross-shard
//! events travel through per-shard inboxes and are merged into the
//! destination queue, where the origin-based key restores the global order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use crate::ctx::{Command, Ctx};
use crate::event::{Event, EventKey, EventQueue, DRIVER_ORIGIN};
use crate::metrics::{keys, Metrics, MetricsSnapshot};
use crate::net::{LatencyModel, Network};
use crate::node::{Address, NodeId, NodeSlot, Service};
use crate::remote::RemoteEvent;
use crate::rng::SimRng;
use crate::stable::{StableFactory, StableStore};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind, TraceRecord};

/// Maximum number of trace records a trace keeps.
const TRACE_CAP: usize = 100_000;

/// Static configuration of a [`World`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Seed for the deterministic random streams.
    pub seed: u64,
    /// Inter-node message latency model.
    pub latency: LatencyModel,
    /// Whether to record a kernel trace.
    pub trace: bool,
    /// Number of shards the nodes are partitioned into. `1` (the default)
    /// runs the classic sequential dispatch loop; results are identical at
    /// any value. `0` means **auto**: one shard per available hardware
    /// thread ([`std::thread::available_parallelism`]), falling back to the
    /// sequential engine when the latency model has no usable lookahead.
    pub shards: usize,
    /// Stable-storage backend constructor used for every node. The default
    /// is the reference in-memory backend; results are identical with any
    /// conformant backend.
    pub stable: StableFactory,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0,
            latency: LatencyModel::lan(),
            trace: false,
            shards: 1,
            stable: StableFactory::default(),
        }
    }
}

impl WorldConfig {
    /// Convenience constructor with just a seed.
    pub fn with_seed(seed: u64) -> Self {
        WorldConfig {
            seed,
            ..WorldConfig::default()
        }
    }
}

/// Execution profile of a sharded run, collected when
/// [`World::set_shard_profiling`] is on (see that method for the exact
/// measurement mode). All values accumulate across runs.
#[derive(Debug, Clone, Default)]
pub struct ShardProfile {
    /// Number of conservative time windows executed.
    pub windows: u64,
    /// Busy (event-processing) wall time per shard, in nanoseconds.
    pub busy_ns: Vec<u64>,
    /// Critical-path time: the sum over windows of the *maximum* per-shard
    /// busy time in that window — the time an ideal parallel execution of
    /// the same schedule needs, independent of how many cores the host
    /// actually has.
    pub critical_ns: u64,
}

/// End (exclusive) of the conservative window that opens at the global
/// minimum pending event time `min_us`: nothing created inside it can land
/// before the end, because every delivery costs at least the lookahead (the
/// latency model's minimum). Capped just past the run boundary `until_us`,
/// and at least one instant long so a zero lookahead still makes progress.
/// The in-process windowed engines and `mar-net`'s lockstep driver all
/// schedule with this one formula, which is what makes their runs agree.
pub fn window_end(min_us: u64, lookahead_us: u64, until_us: u64) -> u64 {
    min_us
        .saturating_add(lookahead_us)
        .min(until_us.saturating_add(1))
        .max(min_us.saturating_add(1))
}

/// Per-shard state: the nodes owned by this shard plus everything their
/// callbacks touch. A `Shard` is self-contained so a worker thread can
/// process it with `&mut` while other shards run in parallel.
struct Shard {
    id: usize,
    n_shards: usize,
    n_nodes: usize,
    queue: EventQueue,
    slots: Vec<NodeSlot>,
    /// Replica of the network state; all shards apply the same link events,
    /// so replicas never diverge.
    net: Network,
    metrics: Metrics,
    trace: Trace,
    /// Records drained from `trace` after each event, tagged with the key
    /// of the event that produced them for the deterministic global merge.
    trace_buf: Vec<(SimTime, u64, u64, TraceRecord)>,
    /// Cross-shard events created while processing: `(dest_shard, key, ev)`.
    outbox: Vec<(usize, EventKey, Event)>,
    /// Nodes owned by another process (see [`World::mark_remote`]); events
    /// routed to them are diverted into `egress` instead of a queue.
    remote: Vec<bool>,
    /// Deliveries destined to remote nodes, with their keys, awaiting
    /// [`World::take_remote_egress`].
    egress: Vec<RemoteEvent>,
}

impl Shard {
    fn local_slot(&self, node: NodeId) -> Option<usize> {
        let i = node.0 as usize;
        if node != NodeId::EXTERNAL && i < self.n_nodes && i % self.n_shards == self.id {
            Some(i / self.n_shards)
        } else {
            None
        }
    }

    fn owned_slot(&mut self, node: NodeId) -> &mut NodeSlot {
        let idx = self
            .local_slot(node)
            .expect("node not hosted on this shard");
        &mut self.slots[idx]
    }

    /// Shard that will process events addressed to `node`; events for
    /// addresses outside the world stay on this shard (and are dropped at
    /// delivery time, exactly like the pre-sharding kernel).
    fn shard_of_or_self(&self, node: NodeId) -> usize {
        let i = node.0 as usize;
        if node != NodeId::EXTERNAL && i < self.n_nodes {
            i % self.n_shards
        } else {
            self.id
        }
    }

    /// Processes one event popped from this shard's queue.
    fn process_event(&mut self, key: EventKey, ev: Event) {
        let now = key.0;
        // Link events are replicated into every shard queue so each replica
        // of the network stays current; only shard 0 accounts for them, so
        // counters and the trace are independent of the shard count.
        let is_link = matches!(ev, Event::LinkDown { .. } | Event::LinkUp { .. });
        if !is_link || self.id == 0 {
            self.metrics.inc(keys::EVENTS);
        }
        match ev {
            Event::Deliver {
                from,
                to,
                payload,
                billed,
            } => self.handle_deliver(now, from, to, payload, billed),
            Event::Timer {
                node,
                service,
                tag,
                epoch,
            } => self.handle_timer(now, node, service, tag, epoch),
            Event::NodeDown { node } => self.crash_now_internal(now, node),
            Event::NodeUp { node } => self.recover_now_internal(now, node),
            Event::LinkDown { a, b } => self.set_link_internal(now, a, b, false),
            Event::LinkUp { a, b } => self.set_link_internal(now, a, b, true),
        }
        self.drain_trace(key);
    }

    /// Moves records produced while handling the event keyed `key` into the
    /// merge buffer.
    fn drain_trace(&mut self, key: EventKey) {
        if self.trace.enabled() {
            for rec in self.trace.take_records() {
                self.trace_buf.push((rec.at, key.1, key.2, rec));
            }
        }
    }

    /// Pops and processes every queued event with `time < end`.
    fn process_until(&mut self, end_us: u64) {
        while let Some(key) = self.queue.peek_key() {
            if key.0.as_micros() >= end_us {
                break;
            }
            let (key, ev) = self.queue.pop().expect("peeked event vanished");
            self.process_event(key, ev);
        }
    }

    fn with_service<F>(&mut self, now: SimTime, node: NodeId, service: &'static str, f: F) -> bool
    where
        F: FnOnce(&mut Box<dyn Service>, &mut Ctx<'_>),
    {
        let mut commands = Vec::new();
        let idx = self
            .local_slot(node)
            .expect("node not hosted on this shard");
        let found = {
            let slot = &mut self.slots[idx];
            match slot.services.remove(service) {
                Some(mut svc) => {
                    // Group-commit bracket: every stable mutation the
                    // callback makes becomes durable in one barrier here —
                    // this is what turns a step transaction's many small
                    // writes into a single backend commit.
                    slot.stable.begin_batch();
                    {
                        let mut ctx = Ctx {
                            now,
                            node: slot.id,
                            service,
                            epoch: slot.epoch,
                            stable: &mut slot.stable,
                            rng: &mut slot.rng,
                            metrics: &self.metrics,
                            trace: &mut self.trace,
                            commands: &mut commands,
                        };
                        f(&mut svc, &mut ctx);
                    }
                    if slot.stable.commit() {
                        self.metrics.inc(keys::STABLE_COMMITS);
                    }
                    slot.services.insert(service, svc);
                    true
                }
                None => false,
            }
        };
        self.apply(now, commands);
        found
    }

    fn apply(&mut self, now: SimTime, commands: Vec<Command>) {
        for cmd in commands {
            match cmd {
                Command::Send {
                    from,
                    to,
                    payload,
                    billed,
                } => self.route(now, from, to, payload, billed),
                Command::SetTimer {
                    node,
                    service,
                    tag,
                    epoch,
                    delay,
                } => {
                    let at = now + delay;
                    let seq = self.owned_slot(node).next_event_seq();
                    self.queue.push(
                        (at, node.0 as u64, seq),
                        Event::Timer {
                            node,
                            service,
                            tag,
                            epoch,
                        },
                    );
                }
            }
        }
    }

    /// Routes a message sent by a node hosted on this shard. Latency (and
    /// thus the event key) comes from the sender's own stream, so it does
    /// not depend on the shard layout.
    fn route(&mut self, now: SimTime, from: Address, to: Address, payload: Vec<u8>, billed: usize) {
        let sidx = self.local_slot(from.node).expect("send from foreign node");
        // Latency is charged on the *billed* size: a reference-compressed
        // payload travels on the schedule of its rehydrated form, so
        // volatile cache state can never shift the simulation.
        let latency = {
            let slot = &mut self.slots[sidx];
            self.net
                .delivery_latency(from.node, to.node, billed, &mut slot.rng)
        };
        match latency {
            Some(latency) => {
                let at = now + latency;
                let seq = self.slots[sidx].next_event_seq();
                let key = (at, from.node.0 as u64, seq);
                // A remote destination gets the event — key and all — in
                // the egress buffer; the owning process re-inserts it, so
                // the global order is unchanged by the process split.
                if self
                    .remote
                    .get(to.node.0 as usize)
                    .copied()
                    .unwrap_or(false)
                {
                    self.egress
                        .push(remote_event(key, from, to, payload, billed));
                    return;
                }
                let dest = self.shard_of_or_self(to.node);
                let ev = Event::Deliver {
                    from,
                    to,
                    payload,
                    billed,
                };
                if dest == self.id {
                    self.queue.push(key, ev);
                } else {
                    self.outbox.push((dest, key, ev));
                }
            }
            None => {
                self.metrics.inc(keys::MSGS_DROPPED_LINK_DOWN);
                self.trace.record(
                    now,
                    TraceKind::MsgDroppedLinkDown {
                        from: from.node.0,
                        to: to.node.0,
                    },
                );
            }
        }
    }

    fn handle_deliver(
        &mut self,
        now: SimTime,
        from: Address,
        to: Address,
        payload: Vec<u8>,
        billed: usize,
    ) {
        let Some(idx) = self.local_slot(to.node) else {
            // Destination outside the world (e.g. EXTERNAL): dropped silently.
            return;
        };
        if !self.slots[idx].up {
            self.metrics.inc(keys::MSGS_DROPPED_NODE_DOWN);
            self.trace
                .record(now, TraceKind::MsgDroppedNodeDown { node: to.node.0 });
            return;
        }
        if self.trace.enabled() {
            self.trace.record(
                now,
                TraceKind::MsgDelivered {
                    from: (from.node.0, from.service.to_owned()),
                    to: (to.node.0, to.service.to_owned()),
                    bytes: billed,
                },
            );
        }
        let delivered = self.with_service(now, to.node, to.service, |svc, ctx| {
            svc.on_message(ctx, from, &payload)
        });
        if delivered {
            self.metrics.inc(keys::MSGS_DELIVERED);
        }
    }

    fn handle_timer(
        &mut self,
        now: SimTime,
        node: NodeId,
        service: &'static str,
        tag: u64,
        epoch: u64,
    ) {
        let Some(idx) = self.local_slot(node) else {
            return;
        };
        {
            let slot = &self.slots[idx];
            // Timers set before a crash must not fire into the rebuilt world.
            if !slot.up || slot.epoch != epoch {
                return;
            }
        }
        let fired = self.with_service(now, node, service, |svc, ctx| svc.on_timer(ctx, tag));
        if fired {
            self.metrics.inc(keys::TIMERS_FIRED);
            if self.trace.enabled() {
                self.trace.record(
                    now,
                    TraceKind::TimerFired {
                        node: node.0,
                        service: service.to_owned(),
                        tag,
                    },
                );
            }
        }
    }

    fn crash_now_internal(&mut self, now: SimTime, node: NodeId) {
        let slot = self.owned_slot(node);
        if !slot.up {
            return;
        }
        slot.crash();
        self.metrics.inc(keys::NODE_CRASHES);
        self.trace
            .record(now, TraceKind::NodeCrashed { node: node.0 });
    }

    fn recover_now_internal(&mut self, now: SimTime, node: NodeId) {
        {
            let slot = self.owned_slot(node);
            if slot.up {
                return;
            }
            slot.rebuild();
        }
        self.metrics.inc(keys::NODE_RECOVERIES);
        self.trace
            .record(now, TraceKind::NodeRecovered { node: node.0 });
        let idx = self
            .local_slot(node)
            .expect("node not hosted on this shard");
        let names: Vec<&'static str> = self.slots[idx].services.keys().copied().collect();
        for name in names {
            self.with_service(now, node, name, |svc, ctx| svc.on_start(ctx));
        }
    }

    fn set_link_internal(&mut self, now: SimTime, a: NodeId, b: NodeId, up: bool) {
        self.net.set_link(a, b, up);
        if self.id == 0 {
            self.trace
                .record(now, TraceKind::LinkChanged { a: a.0, b: b.0, up });
        }
    }
}

/// Packs a keyed delivery into its wire-facing form for the egress buffer.
fn remote_event(
    key: EventKey,
    from: Address,
    to: Address,
    payload: Vec<u8>,
    billed: usize,
) -> RemoteEvent {
    RemoteEvent {
        at_us: key.0.as_micros(),
        origin: key.1,
        seq: key.2,
        from_node: from.node.0,
        from_service: from.service.to_owned(),
        to_node: to.node.0,
        to_service: to.service.to_owned(),
        payload,
        billed: billed as u64,
    }
}

/// The deterministic discrete-event world.
pub struct World {
    time: SimTime,
    shards: Vec<Shard>,
    n_nodes: usize,
    /// Canonical network state; shards hold replicas.
    net: Network,
    net_dirty: bool,
    driver_rng: SimRng,
    driver_seq: u64,
    metrics: Metrics,
    trace: Trace,
    seed: u64,
    stable_factory: StableFactory,
    lookahead: SimDuration,
    profiling: bool,
    profile: ShardProfile,
    /// Per-node remote flags (see [`World::mark_remote`]); shards hold
    /// replicas.
    remote: Vec<bool>,
    /// Driver-injected deliveries destined to remote nodes.
    egress: Vec<RemoteEvent>,
}

impl World {
    /// Creates an empty world.
    ///
    /// `cfg.shards == 0` selects the shard count automatically: one shard
    /// per available hardware thread, or the sequential engine when the
    /// latency model's lookahead is unusable. Results are byte-identical at
    /// any shard count, so auto mode never changes a simulation.
    ///
    /// # Panics
    ///
    /// Panics if an *explicit* `cfg.shards > 1` is combined with a latency
    /// model whose [`LatencyModel::min_latency`] is below 1µs —
    /// conservative parallel windows need strictly positive cross-shard
    /// lookahead.
    pub fn new(cfg: WorldConfig) -> Self {
        let lookahead = cfg.latency.min_latency();
        let n_shards = if cfg.shards == 0 {
            if lookahead >= SimDuration::from_micros(1) {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            } else {
                1
            }
        } else {
            cfg.shards
        };
        assert!(
            n_shards == 1 || lookahead >= SimDuration::from_micros(1),
            "sharded runtime needs >= 1us latency lookahead (base * (1 - jitter)); \
             use shards = 1 with zero-latency models"
        );
        let net = Network::new(cfg.latency);
        let shards = (0..n_shards)
            .map(|id| Shard {
                id,
                n_shards,
                n_nodes: 0,
                queue: EventQueue::new(),
                slots: Vec::new(),
                net: net.clone(),
                metrics: Metrics::new(),
                trace: Trace::new(cfg.trace, TRACE_CAP),
                trace_buf: Vec::new(),
                outbox: Vec::new(),
                remote: Vec::new(),
                egress: Vec::new(),
            })
            .collect();
        World {
            time: SimTime::ZERO,
            shards,
            n_nodes: 0,
            net,
            net_dirty: false,
            driver_rng: SimRng::seed_from(cfg.seed),
            driver_seq: 0,
            metrics: Metrics::new(),
            trace: Trace::new(cfg.trace, TRACE_CAP),
            seed: cfg.seed,
            stable_factory: cfg.stable,
            lookahead,
            profiling: false,
            profile: ShardProfile {
                windows: 0,
                busy_ns: vec![0; n_shards],
                critical_ns: 0,
            },
            remote: Vec::new(),
            egress: Vec::new(),
        }
    }

    // ----- topology -------------------------------------------------------

    /// Adds a node; ids are assigned densely starting at 0. Node `n` is
    /// hosted on shard `n % shards`.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.n_nodes as u32);
        // The per-node stream depends only on (seed, node id), never on the
        // shard layout or on draws made by other nodes.
        let mut base = SimRng::seed_from(self.seed);
        let rng = base.fork(0x4E0D_E000u64.wrapping_add(id.0 as u64));
        let s = self.n_nodes % self.shards.len();
        let stable = self.stable_factory.make_store(id);
        self.shards[s].slots.push(NodeSlot::new(id, rng, stable));
        self.n_nodes += 1;
        self.remote.push(false);
        for sh in &mut self.shards {
            sh.n_nodes = self.n_nodes;
            sh.remote.push(false);
        }
        id
    }

    /// Registers a service on `node`. The factory is also used to rebuild
    /// the service after a crash. Call before [`World::start`].
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the name is already taken.
    pub fn add_service<F>(&mut self, node: NodeId, name: &'static str, factory: F)
    where
        F: Fn() -> Box<dyn Service> + Send + 'static,
    {
        let slot = self.slot_mut(node);
        assert!(
            !slot.services.contains_key(name),
            "service {name} already registered on {node}"
        );
        slot.services.insert(name, factory());
        slot.factories.push((name, Box::new(factory)));
    }

    /// Invokes `on_start` on every service (nodes in id order, services in
    /// name order). Call once after wiring the topology.
    pub fn start(&mut self) {
        self.sync_replicas_if_dirty();
        let n = self.shards.len();
        for id in 0..self.n_nodes {
            let node = NodeId(id as u32);
            let s = id % n;
            let names: Vec<&'static str> = self.shards[s].slots[id / n]
                .services
                .keys()
                .copied()
                .collect();
            let now = self.time;
            self.driver_call_on_shard(s, |sh| {
                for name in names {
                    sh.with_service(now, node, name, |svc, ctx| svc.on_start(ctx));
                }
            });
        }
        self.sync();
    }

    // ----- time -----------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Processes the next event (in the global `(time, origin, seq)` order,
    /// across all shards). Returns `false` when the queues are empty.
    pub fn step(&mut self) -> bool {
        self.sync_replicas_if_dirty();
        let stepped = self.step_inner();
        self.sync();
        stepped
    }

    /// Runs all events with `time <= until`, then advances the clock to
    /// `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.sync_replicas_if_dirty();
        if self.profiling {
            self.run_windows_profiled(until);
        } else if self.shards.len() == 1 {
            while let Some(at) = self.shards[0].queue.peek_time() {
                if at > until {
                    break;
                }
                self.step_inner();
            }
        } else {
            self.run_windows_threaded(until);
        }
        if self.time < until {
            self.time = until;
        }
        self.sync();
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.time + d;
        self.run_until(until);
    }

    /// Runs until the event queues drain or `max_events` were processed.
    /// Returns the number of events processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.sync_replicas_if_dirty();
        let mut n = 0;
        while n < max_events && self.step_inner() {
            n += 1;
        }
        self.sync();
        n
    }

    // ----- failures -------------------------------------------------------

    /// Crashes `node` immediately: volatile state is lost, stable storage
    /// survives. No-op if already down.
    pub fn crash_now(&mut self, node: NodeId) {
        self.sync_replicas_if_dirty();
        let s = node.0 as usize % self.shards.len();
        let now = self.time;
        self.driver_call_on_shard(s, |sh| sh.crash_now_internal(now, node));
        self.sync();
    }

    /// Recovers `node` immediately: services are rebuilt from factories and
    /// `on_start` runs on each. No-op if already up.
    pub fn recover_now(&mut self, node: NodeId) {
        self.sync_replicas_if_dirty();
        let s = node.0 as usize % self.shards.len();
        let now = self.time;
        self.driver_call_on_shard(s, |sh| sh.recover_now_internal(now, node));
        self.sync();
    }

    /// Crashes `node` now and schedules recovery after `downtime`.
    pub fn crash_for(&mut self, node: NodeId, downtime: SimDuration) {
        self.crash_now(node);
        let at = self.time + downtime;
        let key = self.next_driver_key(at);
        let s = node.0 as usize % self.shards.len();
        self.shards[s].queue.push(key, Event::NodeUp { node });
    }

    /// Schedules a crash at absolute time `at` (clamped to now).
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        let key = self.next_driver_key(at.max(self.time));
        let s = node.0 as usize % self.shards.len();
        self.shards[s].queue.push(key, Event::NodeDown { node });
    }

    /// Schedules a recovery at absolute time `at` (clamped to now).
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        let key = self.next_driver_key(at.max(self.time));
        let s = node.0 as usize % self.shards.len();
        self.shards[s].queue.push(key, Event::NodeUp { node });
    }

    /// Schedules a link state change at absolute time `at`. The event is
    /// replicated into every shard queue (same key) so each network replica
    /// applies it at the right point in virtual time.
    pub fn schedule_link(&mut self, at: SimTime, a: NodeId, b: NodeId, up: bool) {
        let key = self.next_driver_key(at.max(self.time));
        for sh in &mut self.shards {
            let ev = if up {
                Event::LinkUp { a, b }
            } else {
                Event::LinkDown { a, b }
            };
            sh.queue.push(key, ev);
        }
    }

    // ----- injection & inspection ------------------------------------------

    /// Injects a message from the outside world (e.g. the agent owner).
    pub fn post(&mut self, to: Address, payload: Vec<u8>) {
        self.sync_replicas_if_dirty();
        self.metrics.add(keys::BYTES_SENT, payload.len() as u64);
        match self.net.delivery_latency(
            NodeId::EXTERNAL,
            to.node,
            payload.len(),
            &mut self.driver_rng,
        ) {
            Some(latency) => {
                let at = self.time + latency;
                let key = self.next_driver_key(at);
                let billed = payload.len();
                // Latency draw, byte accounting, and the driver key are
                // identical whether the destination is local or remote, so
                // a process split never shifts the schedule.
                if self
                    .remote
                    .get(to.node.0 as usize)
                    .copied()
                    .unwrap_or(false)
                {
                    self.egress
                        .push(remote_event(key, Address::external(), to, payload, billed));
                    return;
                }
                let dest = if (to.node.0 as usize) < self.n_nodes {
                    to.node.0 as usize % self.shards.len()
                } else {
                    0
                };
                self.shards[dest].queue.push(
                    key,
                    Event::Deliver {
                        from: Address::external(),
                        to,
                        payload,
                        billed,
                    },
                );
            }
            None => {
                self.metrics.inc(keys::MSGS_DROPPED_LINK_DOWN);
                self.trace.record(
                    self.time,
                    TraceKind::MsgDroppedLinkDown {
                        from: NodeId::EXTERNAL.0,
                        to: to.node.0,
                    },
                );
            }
        }
    }

    /// Immutable access to a node's stable storage (test inspection).
    pub fn stable(&self, node: NodeId) -> &StableStore {
        &self.slot(node).stable
    }

    /// Mutable access to a node's stable storage (test setup).
    pub fn stable_mut(&mut self, node: NodeId) -> &mut StableStore {
        &mut self.slot_mut(node).stable
    }

    /// Commit barrier across every **local** node's stable store: any
    /// pending mutations are made crash-durable now. The kernel already
    /// brackets every event in `begin_batch`/`commit`, so at a quiescent
    /// point this is a no-op safety net; a graceful shutdown calls it so a
    /// restart never depends on torn-tail discard. Returns how many stores
    /// actually had pending work.
    pub fn flush_stable(&mut self) -> u64 {
        let mut flushed = 0;
        for node in self.node_ids() {
            if self.is_remote(node) {
                continue;
            }
            if self.stable_mut(node).commit() {
                flushed += 1;
            }
        }
        flushed
    }

    /// Backend durability stats summed over every **local** node's stable
    /// store — recovery-cost reporting for supervised restarts.
    pub fn stable_totals(&self) -> crate::stable::BackendStats {
        let mut total = crate::stable::BackendStats::default();
        for node in self.node_ids() {
            if self.is_remote(node) {
                continue;
            }
            let s = self.stable(node).backend_stats();
            total.commits += s.commits;
            total.records += s.records;
            total.wal_bytes += s.wal_bytes;
            total.checkpoints += s.checkpoints;
            total.checkpoint_bytes += s.checkpoint_bytes;
            total.recoveries += s.recoveries;
            total.replayed_records += s.replayed_records;
            total.replayed_bytes += s.replayed_bytes;
            total.torn_bytes_discarded += s.torn_bytes_discarded;
        }
        total
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.slot(node).up
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// All node ids in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.n_nodes as u32).map(NodeId).collect()
    }

    /// Downcasts a service for direct inspection or driving from tests.
    pub fn service_mut<T: Service>(&mut self, node: NodeId, name: &'static str) -> Option<&mut T> {
        let slot = self.slot_mut(node);
        let svc = slot.services.get_mut(name)?;
        let any: &mut dyn std::any::Any = svc.as_mut();
        any.downcast_mut::<T>()
    }

    /// Read-only access to a hosted service instance — the non-mutating
    /// sibling of [`World::service_mut`], for driver-side inspection
    /// (audits, test assertions) that must not require `&mut World`.
    pub fn service<T: Service>(&self, node: NodeId, name: &'static str) -> Option<&T> {
        let slot = self.slot(node);
        let svc = slot.services.get(name)?;
        let any: &dyn std::any::Any = svc.as_ref();
        any.downcast_ref::<T>()
    }

    /// The metrics registry. Recording takes `&self`, so read-only probe
    /// paths can count their own work.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Convenience snapshot of the metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The kernel trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The network (for link control). Changes are propagated to shard
    /// replicas before the next event is processed.
    pub fn net_mut(&mut self) -> &mut Network {
        self.net_dirty = true;
        &mut self.net
    }

    /// The network state.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Derives an independent random stream (e.g. for failure planning)
    /// from the driver's stream.
    pub fn rng_fork(&mut self, tag: u64) -> SimRng {
        self.driver_rng.fork(tag)
    }

    /// Number of events waiting across all shard queues. Link state changes
    /// are replicated per shard and count once per replica.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Number of shards the world was configured with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Enables critical-path profiling. While on, `run_until`/`run_for`
    /// execute the same conservative windows as the threaded engine but
    /// process shards one at a time under a timer, accumulating per-shard
    /// busy time and the critical path (max busy per window, summed) into
    /// [`World::shard_profile`]. This measures the parallel schedule's
    /// span exactly, independent of host core count; virtual-time results
    /// are identical to unprofiled runs.
    pub fn set_shard_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// The accumulated profile (see [`World::set_shard_profiling`]).
    pub fn shard_profile(&self) -> &ShardProfile {
        &self.profile
    }

    // ----- distributed execution seam ---------------------------------------

    /// Marks `node` as **remote**: owned by another process in a
    /// distributed deployment. The node keeps its id, its random stream,
    /// and its slot (so local nodes' schedules are unaffected), but events
    /// routed to it are diverted — with their deterministic keys — into the
    /// egress buffer ([`World::take_remote_egress`]) instead of a queue.
    ///
    /// Register no services on remote nodes; mark before [`World::start`].
    pub fn mark_remote(&mut self, node: NodeId) {
        let i = node.0 as usize;
        assert!(i < self.n_nodes, "mark_remote: unknown node {node}");
        self.remote[i] = true;
        for sh in &mut self.shards {
            sh.remote[i] = true;
        }
    }

    /// Whether `node` is marked remote.
    pub fn is_remote(&self, node: NodeId) -> bool {
        self.remote.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// Drains every delivery diverted to remote nodes since the last call,
    /// in a deterministic order (driver injections first, then shard id
    /// order). The events carry their `(time, origin, seq)` keys; ship them
    /// to the owning process and re-insert with [`World::inject_remote`].
    pub fn take_remote_egress(&mut self) -> Vec<RemoteEvent> {
        let mut out = std::mem::take(&mut self.egress);
        for sh in &mut self.shards {
            out.append(&mut sh.egress);
        }
        out
    }

    /// Re-inserts a delivery diverted by a peer world's remote-egress seam.
    /// The destination must be a local (non-remote) node of this world; the
    /// event joins the queue under its original key, restoring the exact
    /// global order of the single-process simulation.
    ///
    /// # Panics
    ///
    /// Panics if the destination node is unknown or marked remote here.
    pub fn inject_remote(&mut self, ev: RemoteEvent) {
        let to = ev.to_address();
        let i = to.node.0 as usize;
        assert!(
            i < self.n_nodes && !self.remote[i],
            "inject_remote: node {} is not local to this world",
            to.node
        );
        let key: EventKey = (ev.at(), ev.origin, ev.seq);
        debug_assert!(key.0 >= self.time, "remote event injected into the past");
        let from = ev.from_address();
        let billed = ev.billed as usize;
        let dest = i % self.shards.len();
        self.shards[dest].queue.push(
            key,
            Event::Deliver {
                from,
                to,
                payload: ev.payload,
                billed,
            },
        );
    }

    /// Earliest pending event time across all queues, in microseconds —
    /// the local contribution to a distributed coordinator's global-minimum
    /// computation.
    pub fn local_min_us(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|sh| sh.queue.peek_time())
            .map(|t| t.as_micros())
            .min()
    }

    /// Processes every queued event with `time < end_us` — one conservative
    /// window of a distributed lockstep run. The window end must come from
    /// the coordinator's global-minimum formula so no in-window event is
    /// still in flight between processes. The clock advances to
    /// `end_us - 1` (the last instant processed); the coordinator finalizes
    /// run boundaries with [`World::advance_clock_to`].
    ///
    /// # Panics
    ///
    /// Panics unless the world runs the sequential engine (`shards == 1`);
    /// distributed deployments parallelize across processes, not shards.
    pub fn run_window(&mut self, end_us: u64) {
        assert_eq!(
            self.shards.len(),
            1,
            "run_window requires the sequential engine (shards = 1)"
        );
        self.sync_replicas_if_dirty();
        self.exec_window(end_us);
        self.sync();
    }

    /// Advances the clock to `us` microseconds without processing events
    /// (no-op if the clock is already past). Used by distributed runs to
    /// finalize a `run_until` boundary, and by a restarted process to
    /// resume at the coordinator's current time before [`World::start`]
    /// replays recovery.
    pub fn advance_clock_to(&mut self, us: u64) {
        let t = SimTime::from_micros(us);
        if t > self.time {
            self.time = t;
        }
        self.sync();
    }

    // ----- internals --------------------------------------------------------

    fn slot(&self, node: NodeId) -> &NodeSlot {
        let n = self.shards.len();
        &self.shards[node.0 as usize % n].slots[node.0 as usize / n]
    }

    fn slot_mut(&mut self, node: NodeId) -> &mut NodeSlot {
        let n = self.shards.len();
        &mut self.shards[node.0 as usize % n].slots[node.0 as usize / n]
    }

    fn next_driver_key(&mut self, at: SimTime) -> EventKey {
        let key = (at, DRIVER_ORIGIN, self.driver_seq);
        self.driver_seq += 1;
        key
    }

    /// Runs a driver-initiated action on one shard and files any trace
    /// records it produced under a fresh driver key.
    fn driver_call_on_shard(&mut self, s: usize, f: impl FnOnce(&mut Shard)) {
        let key = self.next_driver_key(self.time);
        let shard = &mut self.shards[s];
        f(shard);
        shard.drain_trace(key);
        self.drain_outboxes();
    }

    /// Moves cross-shard events deposited in outboxes into the destination
    /// queues (sequential paths; the threaded engine uses inboxes instead).
    fn drain_outboxes(&mut self) {
        for i in 0..self.shards.len() {
            if self.shards[i].outbox.is_empty() {
                continue;
            }
            let items = std::mem::take(&mut self.shards[i].outbox);
            for (dest, key, ev) in items {
                self.shards[dest].queue.push(key, ev);
            }
        }
    }

    /// Pops and processes the globally earliest event. The scan over shard
    /// queues makes this the exact merged order the windowed engines also
    /// produce.
    fn step_inner(&mut self) -> bool {
        let Some((s, _)) = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, sh)| sh.queue.peek_key().map(|k| (i, k)))
            .min_by_key(|&(i, k)| (k, i))
        else {
            return false;
        };
        let (key, ev) = self.shards[s].queue.pop().expect("peeked event vanished");
        debug_assert!(key.0 >= self.time, "event queue went backwards");
        self.time = key.0;
        self.shards[s].process_event(key, ev);
        self.drain_outboxes();
        true
    }

    /// The sequential window body: every shard processes its events with
    /// `time < end_us`, one shard at a time, cross-shard deposits move to
    /// their queues, and the clock advances to `end_us - 1` (the last
    /// instant processed). With profiling on, each shard runs under a timer.
    fn exec_window(&mut self, end_us: u64) {
        let mut window_max = 0u64;
        for i in 0..self.shards.len() {
            let t0 = self.profiling.then(Instant::now);
            self.shards[i].process_until(end_us);
            if let Some(t0) = t0 {
                let busy = t0.elapsed().as_nanos() as u64;
                self.profile.busy_ns[i] += busy;
                window_max = window_max.max(busy);
            }
        }
        if self.profiling {
            self.profile.windows += 1;
            self.profile.critical_ns += window_max;
        }
        self.drain_outboxes();
        let processed_up_to = SimTime::from_micros(end_us.saturating_sub(1));
        if processed_up_to > self.time {
            self.time = processed_up_to;
        }
    }

    /// Instrumented sequential-window engine: identical window schedule to
    /// the threaded engine, but shards run one at a time under a timer so
    /// per-shard busy time and the critical path can be measured exactly
    /// even on a single-core host.
    fn run_windows_profiled(&mut self, until: SimTime) {
        let until_us = until.as_micros();
        let lookahead_us = self.lookahead.as_micros();
        while let Some(m) = self.local_min_us() {
            if m > until_us {
                break;
            }
            self.exec_window(window_end(m, lookahead_us, until_us));
            self.metrics.inc(keys::WINDOWS);
        }
    }

    /// Parallel engine: one worker thread per shard, three barrier waits per
    /// window (publish local minima → leader fixes the window → process and
    /// deposit cross-shard events → make deposits visible).
    fn run_windows_threaded(&mut self, until: SimTime) {
        const DONE: u64 = u64::MAX;
        let n = self.shards.len();
        let until_us = until.as_micros();
        let lookahead_us = self.lookahead.as_micros();
        let barrier = Barrier::new(n);
        let window = AtomicU64::new(0);
        let next_min = AtomicU64::new(u64::MAX);
        let windows = AtomicU64::new(0);
        let inboxes: Vec<Mutex<Vec<(EventKey, Event)>>> =
            (0..n).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for shard in &mut self.shards {
                let barrier = &barrier;
                let window = &window;
                let next_min = &next_min;
                let windows = &windows;
                let inboxes = &inboxes;
                scope.spawn(move || loop {
                    // Drain events deposited for us in the previous window.
                    let items = std::mem::take(&mut *inboxes[shard.id].lock().expect("inbox"));
                    for (key, ev) in items {
                        shard.queue.push(key, ev);
                    }
                    let local = shard
                        .queue
                        .peek_time()
                        .map(|t| t.as_micros())
                        .unwrap_or(u64::MAX);
                    next_min.fetch_min(local, Ordering::AcqRel);
                    if barrier.wait().is_leader() {
                        let m = next_min.swap(u64::MAX, Ordering::AcqRel);
                        let w = if m == u64::MAX || m > until_us {
                            DONE
                        } else {
                            windows.fetch_add(1, Ordering::Relaxed);
                            window_end(m, lookahead_us, until_us)
                        };
                        window.store(w, Ordering::Release);
                    }
                    barrier.wait();
                    let end = window.load(Ordering::Acquire);
                    if end == DONE {
                        break;
                    }
                    while let Some(key) = shard.queue.peek_key() {
                        if key.0.as_micros() >= end {
                            break;
                        }
                        let (key, ev) = shard.queue.pop().expect("peeked event vanished");
                        shard.process_event(key, ev);
                        for (dest, dkey, dev) in shard.outbox.drain(..) {
                            debug_assert!(
                                dkey.0.as_micros() >= end,
                                "cross-shard event due inside the current window"
                            );
                            inboxes[dest].lock().expect("inbox").push((dkey, dev));
                        }
                    }
                    // Make this window's deposits visible before anyone
                    // drains inboxes for the next one.
                    barrier.wait();
                });
            }
        });
        self.metrics
            .add(keys::WINDOWS, windows.load(Ordering::Relaxed));
    }

    fn sync_replicas_if_dirty(&mut self) {
        if self.net_dirty {
            for sh in &mut self.shards {
                sh.net = self.net.clone();
            }
            self.net_dirty = false;
        }
    }

    /// Folds shard-local state into the world-level views: metrics (shard
    /// id order; counter addition is commutative so totals are layout
    /// independent), trace records (stable merge by event key), and the
    /// canonical network (all replicas are identical — copy shard 0's).
    /// Runs at the end of every public mutating entry point, so `&self`
    /// accessors always see up-to-date global state.
    fn sync(&mut self) {
        self.sync_replicas_if_dirty();
        for sh in &self.shards {
            self.metrics.absorb(&sh.metrics);
        }
        if self.trace.enabled() {
            let mut recs: Vec<(SimTime, u64, u64, TraceRecord)> = Vec::new();
            for sh in &mut self.shards {
                self.trace.add_dropped(sh.trace.dropped());
                sh.trace.clear();
                recs.append(&mut sh.trace_buf);
            }
            recs.sort_by_key(|r| (r.0, r.1, r.2));
            for (_, _, _, rec) in recs {
                self.trace.push_record(rec);
            }
        } else {
            for sh in &mut self.shards {
                sh.trace_buf.clear();
            }
        }
        if let Some(sh) = self.shards.first() {
            self.net = sh.net.clone();
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("time", &self.time)
            .field("nodes", &self.n_nodes)
            .field("shards", &self.shards.len())
            .field("pending_events", &self.pending_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every message back to the sender and counts deliveries.
    struct Echo {
        seen: u32,
    }

    impl Service for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Address, payload: &[u8]) {
            self.seen += 1;
            if from.node != NodeId::EXTERNAL && payload != b"stop" {
                ctx.send(from, b"stop".to_vec());
            }
        }
    }

    /// Sends one message to a peer when started.
    struct Starter {
        peer: Address,
    }

    impl Service for Starter {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Address, _payload: &[u8]) {}
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, b"hello".to_vec());
        }
    }

    fn two_node_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(WorldConfig::with_seed(1));
        let a = w.add_node();
        let b = w.add_node();
        (w, a, b)
    }

    #[test]
    fn message_roundtrip() {
        let (mut w, a, b) = two_node_world();
        let echo_b = Address::new(b, "echo");
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
        w.add_service(a, "starter", move || Box::new(Starter { peer: echo_b }));
        w.add_service(b, "echo", || Box::new(Echo { seen: 0 }));
        w.start();
        w.run_to_quiescence(100);
        // starter(a) -> echo(b) -> reply lands back on starter(a).
        assert_eq!(w.service_mut::<Echo>(b, "echo").unwrap().seen, 1);
        assert_eq!(w.service_mut::<Echo>(a, "echo").unwrap().seen, 0);
        assert_eq!(w.metrics().counter(keys::MSGS_DELIVERED), 2);
    }

    #[test]
    fn post_injects_external_messages() {
        let (mut w, a, _) = two_node_world();
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
        w.start();
        w.post(Address::new(a, "echo"), b"x".to_vec());
        w.run_to_quiescence(10);
        assert_eq!(w.service_mut::<Echo>(a, "echo").unwrap().seen, 1);
    }

    #[test]
    fn crash_drops_in_flight_and_resets_state() {
        let (mut w, a, b) = two_node_world();
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
        w.add_service(b, "echo", || Box::new(Echo { seen: 0 }));
        w.start();
        w.post(Address::new(b, "echo"), b"x".to_vec());
        w.crash_now(b); // message still in flight
        w.run_to_quiescence(10);
        assert_eq!(w.metrics().counter(keys::MSGS_DROPPED_NODE_DOWN), 1);
        assert!(!w.is_up(b));
        w.recover_now(b);
        assert!(w.is_up(b));
        // State was rebuilt from the factory.
        assert_eq!(w.service_mut::<Echo>(b, "echo").unwrap().seen, 0);
        let _ = a;
    }

    #[test]
    fn link_down_drops_at_send_time() {
        let (mut w, a, b) = two_node_world();
        w.add_service(b, "echo", || Box::new(Echo { seen: 0 }));
        let target = Address::new(b, "echo");
        w.add_service(a, "starter", move || Box::new(Starter { peer: target }));
        w.net_mut().set_link(a, b, false);
        w.start();
        w.run_to_quiescence(10);
        assert_eq!(w.metrics().counter(keys::MSGS_DROPPED_LINK_DOWN), 1);
        assert_eq!(w.service_mut::<Echo>(b, "echo").unwrap().seen, 0);
    }

    /// Sets a timer on start; counts fires.
    struct Ticker {
        fires: u32,
        period: SimDuration,
    }

    impl Service for Ticker {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Address, _payload: &[u8]) {}
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.period, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            self.fires += 1;
            if self.fires < 3 {
                ctx.set_timer(self.period, 1);
            }
        }
    }

    #[test]
    fn timers_fire_and_respect_crash_epochs() {
        let (mut w, a, _) = two_node_world();
        w.add_service(a, "tick", || {
            Box::new(Ticker {
                fires: 0,
                period: SimDuration::from_millis(10),
            })
        });
        w.start();
        w.run_for(SimDuration::from_millis(15));
        assert_eq!(w.service_mut::<Ticker>(a, "tick").unwrap().fires, 1);
        // Crash: pending timer (set at 10ms for 20ms) must not fire after recovery,
        // but on_start arms a fresh one.
        w.crash_for(a, SimDuration::from_millis(1));
        w.run_for(SimDuration::from_millis(100));
        let t = w.service_mut::<Ticker>(a, "tick").unwrap();
        assert_eq!(t.fires, 3, "fresh timers only, from the rebuilt service");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let (mut w, _, _) = two_node_world();
        w.run_until(SimTime::from_micros(500));
        assert_eq!(w.now(), SimTime::from_micros(500));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (MetricsSnapshot, Vec<crate::trace::TraceRecord>) {
            let mut cfg = WorldConfig::with_seed(seed);
            cfg.trace = true;
            let mut w = World::new(cfg);
            let a = w.add_node();
            let b = w.add_node();
            let echo_b = Address::new(b, "echo");
            w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
            w.add_service(a, "starter", move || Box::new(Starter { peer: echo_b }));
            w.add_service(b, "echo", || Box::new(Echo { seen: 0 }));
            w.start();
            w.crash_for(b, SimDuration::from_millis(3));
            w.run_to_quiescence(1000);
            (w.snapshot(), w.trace().records().to_vec())
        }
        let (m1, t1) = run(7);
        let (m2, t2) = run(7);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
        let (_, t3) = run(8);
        assert_ne!(t1, t3, "different seeds should change jitter timings");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_service_name_panics() {
        let (mut w, a, _) = two_node_world();
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
    }

    // ----- sharded runtime ---------------------------------------------------

    /// Observable outcome of [`shard_scenario`]: metrics snapshot, trace,
    /// and a per-node stable-store dump.
    type ScenarioOutcome = (
        MetricsSnapshot,
        Vec<TraceRecord>,
        Vec<Vec<(String, Vec<u8>)>>,
    );

    /// Builds a busy little world: 6 nodes, echo + ping-pong + tickers, a
    /// mid-run crash and a link flap, returning its observable outcome.
    fn shard_scenario(shards: usize, threaded_runs: bool) -> ScenarioOutcome {
        let mut cfg = WorldConfig::with_seed(42);
        cfg.shards = shards;
        run_scenario(cfg, false, threaded_runs).0
    }

    /// [`shard_scenario`] on any world configuration, optionally under the
    /// profiled engine; also returns the accumulated profile.
    fn run_scenario(
        mut cfg: WorldConfig,
        profiled: bool,
        split_runs: bool,
    ) -> (ScenarioOutcome, ShardProfile) {
        cfg.trace = true;
        let mut w = World::new(cfg);
        let nodes: Vec<NodeId> = (0..6).map(|_| w.add_node()).collect();
        for (i, &n) in nodes.iter().enumerate() {
            w.add_service(n, "echo", || Box::new(Echo { seen: 0 }));
            let peer = Address::new(nodes[(i + 1) % nodes.len()], "echo");
            w.add_service(n, "starter", move || Box::new(Starter { peer }));
            w.add_service(n, "tick", || {
                Box::new(Ticker {
                    fires: 0,
                    period: SimDuration::from_millis(7),
                })
            });
        }
        w.set_shard_profiling(profiled);
        w.start();
        // Persist something per delivery so stable stores diverge if order does.
        w.schedule_crash(SimTime::from_micros(9000), nodes[3]);
        w.schedule_recover(SimTime::from_micros(14000), nodes[3]);
        w.schedule_link(SimTime::from_micros(4000), nodes[1], nodes[2], false);
        w.schedule_link(SimTime::from_micros(21000), nodes[1], nodes[2], true);
        for &n in &nodes {
            w.post(Address::new(n, "echo"), b"kick".to_vec());
        }
        if split_runs {
            // Several run_until calls so the windowed engine stops/starts.
            for _ in 0..10 {
                w.run_for(SimDuration::from_millis(5));
            }
        } else {
            w.run_until(SimTime::from_micros(50000));
        }
        let stables = nodes
            .iter()
            .map(|&n| {
                w.stable(n)
                    .iter()
                    .map(|(k, v)| (k.to_owned(), v.to_vec()))
                    .collect()
            })
            .collect();
        let outcome = (w.snapshot(), w.trace().records().to_vec(), stables);
        (outcome, w.shard_profile().clone())
    }

    /// Counters that describe the execution engine rather than the
    /// simulated protocol; they may differ between engines.
    fn strip_engine_counters(m: &mut MetricsSnapshot) {
        m.counters.remove(keys::WINDOWS);
    }

    #[test]
    fn shard_counts_are_observationally_equivalent() {
        let (mut m1, t1, s1) = shard_scenario(1, false);
        for shards in [2, 4] {
            let (mut mn, tn, sn) = shard_scenario(shards, true);
            strip_engine_counters(&mut m1);
            strip_engine_counters(&mut mn);
            assert_eq!(m1, mn, "metrics diverged at shards={shards}");
            assert_eq!(t1, tn, "trace diverged at shards={shards}");
            assert_eq!(s1, sn, "stable stores diverged at shards={shards}");
        }
    }

    #[test]
    fn profiled_runs_match_threaded_and_populate_profile() {
        let (mut m_thr, t_thr, s_thr) = shard_scenario(3, true);
        let mut cfg = WorldConfig::with_seed(42);
        cfg.shards = 3;
        let ((mut m_prof, t_prof, s_prof), p) = run_scenario(cfg, true, true);
        strip_engine_counters(&mut m_thr);
        strip_engine_counters(&mut m_prof);
        assert_eq!(m_thr, m_prof);
        assert_eq!(t_thr, t_prof);
        assert_eq!(s_thr, s_prof);
        assert!(p.windows > 0, "profiling should count windows");
        assert_eq!(p.busy_ns.len(), 3);
        assert!(p.critical_ns > 0);
        assert!(
            p.critical_ns <= p.busy_ns.iter().sum::<u64>(),
            "critical path cannot exceed total busy time"
        );

        // Zero lookahead on one shard: every window is the one-instant
        // `max(m + 1)` case of `window_end`, and the windowed body must
        // still reproduce the 1-shard reference loop.
        let mut cfg = WorldConfig::with_seed(42);
        cfg.latency = LatencyModel::fixed(SimDuration::ZERO, SimDuration::ZERO);
        let ((mut m_ref, t_ref, s_ref), _) = run_scenario(cfg.clone(), false, false);
        let ((mut m_win, t_win, s_win), p) = run_scenario(cfg, true, false);
        assert_eq!(window_end(7, 0, 100), 8);
        assert_eq!(m_win.counter(keys::WINDOWS), p.windows);
        strip_engine_counters(&mut m_ref);
        strip_engine_counters(&mut m_win);
        assert_eq!(m_ref, m_win);
        assert_eq!(t_ref, t_win);
        assert_eq!(s_ref, s_win);
        assert!(p.windows > 0 && p.busy_ns.len() == 1);
    }

    #[test]
    fn step_order_is_global_across_shards() {
        let mut cfg = WorldConfig::with_seed(5);
        cfg.shards = 3;
        let mut w = World::new(cfg);
        let nodes: Vec<NodeId> = (0..6).map(|_| w.add_node()).collect();
        for &n in &nodes {
            w.add_service(n, "echo", || Box::new(Echo { seen: 0 }));
        }
        w.start();
        for &n in &nodes {
            w.post(Address::new(n, "echo"), b"x".to_vec());
        }
        let mut last = SimTime::ZERO;
        while w.step() {
            assert!(w.now() >= last, "time went backwards across shards");
            last = w.now();
        }
        assert_eq!(w.metrics().counter(keys::MSGS_DELIVERED), 6);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_rejects_multiple_shards() {
        let mut cfg = WorldConfig::with_seed(1);
        cfg.latency = LatencyModel::fixed(SimDuration::ZERO, SimDuration::ZERO);
        cfg.shards = 2;
        let _ = World::new(cfg);
    }

    #[test]
    fn auto_shards_resolve_from_parallelism() {
        let mut cfg = WorldConfig::with_seed(1);
        cfg.shards = 0;
        let w = World::new(cfg);
        assert!(w.shard_count() >= 1);

        // With a model that cannot guarantee lookahead, auto mode falls back
        // to sequential instead of panicking like an explicit request would.
        let mut cfg = WorldConfig::with_seed(1);
        cfg.latency = LatencyModel::fixed(SimDuration::ZERO, SimDuration::ZERO);
        cfg.shards = 0;
        assert_eq!(World::new(cfg).shard_count(), 1);
    }

    // ----- remote-egress seam ------------------------------------------------

    /// Ping-pongs with a peer, persisting every delivery, so a process
    /// split that reorders or loses anything shows up in stable dumps.
    struct Pinger {
        peer: Address,
        count: u32,
    }

    impl Service for Pinger {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Address, payload: &[u8]) {
            self.count += 1;
            ctx.stable_put(format!("seen/{:03}", self.count), payload.to_vec());
            if self.count < 5 {
                ctx.send(self.peer, vec![self.count as u8]);
            }
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, b"go".to_vec());
        }
    }

    fn pinger_world(owned: Option<&[u32]>) -> World {
        let mut w = World::new(WorldConfig::with_seed(11));
        let nodes: Vec<NodeId> = (0..4).map(|_| w.add_node()).collect();
        for (i, &n) in nodes.iter().enumerate() {
            let local = match owned {
                Some(set) => set.contains(&n.0),
                None => true,
            };
            if local {
                let peer = Address::new(nodes[(i + 1) % nodes.len()], "ping");
                w.add_service(n, "ping", move || Box::new(Pinger { peer, count: 0 }));
            } else {
                w.mark_remote(n);
            }
        }
        w.start();
        w
    }

    /// Mirrors the coordinator of a distributed run: relay pending egress
    /// (from `start()` or the previous window), then run the next window of
    /// the global-minimum schedule.
    fn run_split_until(worlds: &mut [World], until_us: u64, lookahead_us: u64) {
        loop {
            let egress: Vec<RemoteEvent> = worlds
                .iter_mut()
                .flat_map(World::take_remote_egress)
                .collect();
            for ev in egress {
                let owner = worlds
                    .iter_mut()
                    .find(|w| !w.is_remote(NodeId(ev.to_node)))
                    .expect("every node has an owner");
                owner.inject_remote(ev);
            }
            let Some(m) = worlds.iter().filter_map(World::local_min_us).min() else {
                break;
            };
            if m > until_us {
                break;
            }
            let end = window_end(m, lookahead_us, until_us);
            for w in worlds.iter_mut() {
                w.run_window(end);
            }
        }
        for w in worlds.iter_mut() {
            w.advance_clock_to(until_us);
        }
    }

    #[test]
    fn remote_split_matches_single_process_run() {
        let mut control = pinger_world(None);
        control.run_until(SimTime::from_micros(100_000));

        let lookahead = LatencyModel::lan().min_latency().as_micros();
        let mut halves = [pinger_world(Some(&[0, 2])), pinger_world(Some(&[1, 3]))];
        run_split_until(&mut halves, 100_000, lookahead);

        for n in 0..4u32 {
            let node = NodeId(n);
            let owner = halves
                .iter()
                .find(|w| !w.is_remote(node))
                .expect("owner exists");
            let dump = |w: &World| -> Vec<(String, Vec<u8>)> {
                w.stable(node)
                    .iter()
                    .map(|(k, v)| (k.to_owned(), v.to_vec()))
                    .collect()
            };
            assert_eq!(dump(&control), dump(owner), "stable diverged on {node}");
            assert_eq!(owner.now(), control.now());
        }
        // Counters split across the two processes must sum to the control's.
        let c = control.snapshot();
        let (a, b) = (halves[0].snapshot(), halves[1].snapshot());
        for key in [
            keys::MSGS_DELIVERED,
            keys::BYTES_SENT,
            keys::STABLE_WRITES,
            keys::STABLE_COMMITS,
            keys::EVENTS,
        ] {
            assert_eq!(
                c.counter(key),
                a.counter(key) + b.counter(key),
                "counter {key} diverged"
            );
        }
    }

    #[test]
    fn driver_post_to_remote_node_diverts_with_billing() {
        let mut w = pinger_world(Some(&[0, 2]));
        let before = w.snapshot().counter(keys::BYTES_SENT);
        w.post(Address::new(NodeId(1), "ping"), b"ext".to_vec());
        assert_eq!(w.snapshot().counter(keys::BYTES_SENT), before + 3);
        let egress = w.take_remote_egress();
        // Driver injections drain ahead of the shards' egress.
        let ev = egress.first().expect("post diverted");
        assert_eq!(ev.to_node, 1);
        assert_eq!(ev.origin, DRIVER_ORIGIN);
        assert_eq!(ev.payload, b"ext");
        assert_eq!(ev.from_node, NodeId::EXTERNAL.0);
    }

    #[test]
    #[should_panic(expected = "not local")]
    fn inject_remote_rejects_foreign_destination() {
        let mut w = pinger_world(Some(&[0, 2]));
        let ev = RemoteEvent {
            at_us: 10,
            origin: 0,
            seq: 0,
            from_node: 0,
            from_service: "ping".to_owned(),
            to_node: 1,
            to_service: "ping".to_owned(),
            payload: vec![],
            billed: 0,
        };
        w.inject_remote(ev);
    }
}
