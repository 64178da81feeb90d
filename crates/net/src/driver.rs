//! The driver process: fleet coordinator of a distributed deployment.
//!
//! [`NetPlatform`] mirrors the in-process `mar_platform::Platform` API —
//! launch, run-until-settled, drain reports, audit money — but the nodes
//! live in separate host processes reached over length-framed TCP or
//! Unix-domain sockets. The driver hosts an **all-remote** world of its
//! own: `World::post` there draws the same driver random stream, bills the
//! same bytes, and allocates the same `(time, origin, seq)` event keys as
//! the single-process control, then diverts the delivery to the egress
//! buffer for relaying — so a launch costs exactly what it costs
//! in-process, and the global event schedule is bit-identical.
//!
//! # The lockstep window protocol
//!
//! The driver is the hub; hosts never talk to each other. Each round:
//!
//! 1. relay diverted deliveries to their owners (`Inject`),
//! 2. compute the global minimum `m` of every host's earliest pending
//!    event and everything just injected,
//! 3. issue `RunWindow { end }` with `end = min(m + lookahead, until + 1)`
//!    (`lookahead` = the latency model's minimum — no event created in the
//!    window can land before `end`),
//! 4. collect `WindowDone { egress, next_min }` from every host.
//!
//! Per-connection FIFO ordering is the only barrier needed: a host sees
//! its `Inject` before the `RunWindow` that may consume it. The steady
//! state costs one round trip per window because `WindowDone` piggybacks
//! the next minimum.
//!
//! # Failure handling: resume, restart, give up
//!
//! Each host slot holds a [`Peer`] *session* that outlives connections.
//! When a connection dies (error, clean close, or the `io_timeout`
//! watchdog), the driver detaches it and **stalls** — the lockstep
//! schedule waits, because proceeding without the host would change the
//! event schedule. Three things can end the stall:
//!
//! * the host reconnects with `Hello { resume: true }` and the session
//!   resumes: both sides replay unacknowledged frames, the receiver drops
//!   what it already processed, and the run continues **byte-identical**
//!   to an undisturbed one (`net.partitions_healed`);
//! * the host reconnects fresh (`resume: false` — the process was
//!   restarted): the slot's session resets, queued relays are dropped
//!   exactly as the simulator drops messages to a crashed node, the host
//!   rebuilds from its WAL at `resume_us`, and platform retransmission
//!   recovers the lost work (`net.restarts`);
//! * `down_grace` expires: the driver declares the host failed
//!   (`net.supervisor_gave_up`), drops its relays, and runs the remaining
//!   fleet to a **partial** settle instead of hanging — reports from
//!   surviving hosts still drain, and the caller sees `settled == false`
//!   plus [`NetPlatform::failed_hosts`].

use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

use mar_core::AgentId;
use mar_platform::{audit_wallets, AgentHandle, AgentReport, AgentSpec, DriverCore, DriverStable};
use mar_simnet::{window_end, MetricsSnapshot, NodeId, RemoteEvent, SimDuration, World};
use mar_wire::Bytes;

use crate::proto::{
    ownership, recv_ctl, send_ctl, NetMsg, Peer, RpcOp, RpcReply, PROTOCOL_VERSION,
};
use crate::scenarios;
use crate::transport::{Accept, Endpoint, Listener, Transport};

/// Transport-diagnostic metric names, recorded on the driver's meter.
/// These exist **only** in distributed runs; every other counter must sum
/// (across hosts plus driver) to the single-process control's value.
pub mod netkeys {
    /// Protocol frames sent by the driver (replays included).
    pub const FRAMES_SENT: &str = "net.frames_sent";
    /// Protocol frames received by the driver (duplicates excluded).
    pub const FRAMES_RECEIVED: &str = "net.frames_received";
    /// Simulation deliveries relayed between processes.
    pub const EVENTS_RELAYED: &str = "net.events_relayed";
    /// Simulator-billed bytes of relayed deliveries — the byte count the
    /// schedule and `net.bytes_sent` accounting already charged.
    pub const BILLED_BYTES: &str = "net.billed_bytes";
    /// Actual payload bytes of relayed deliveries as shipped in frames
    /// (≤ billed when reference compression trimmed a payload after
    /// billing).
    pub const PAYLOAD_BYTES: &str = "net.payload_bytes";
    /// Lockstep windows executed.
    pub const WINDOWS: &str = "net.windows";
    /// Deliveries dropped because the owning host was down.
    pub const HOST_DOWN_DROPS: &str = "net.host_down_drops";
    /// Host re-handshakes after a connection died (resumed or fresh).
    pub const RECONNECTS: &str = "net.reconnects";
    /// Re-handshakes that opened a **fresh** session: the host process was
    /// restarted and recovered from its WAL.
    pub const RESTARTS: &str = "net.restarts";
    /// Re-handshakes that **resumed** the existing session: a connection
    /// outage healed with no simulation-visible effect.
    pub const PARTITIONS_HEALED: &str = "net.partitions_healed";
    /// Hosts declared permanently failed after `down_grace` expired.
    pub const SUPERVISOR_GAVE_UP: &str = "net.supervisor_gave_up";

    /// Whether `key` is one of the transport diagnostics above (excluded
    /// from distributed-vs-control counter comparisons).
    pub fn is_transport_diag(key: &str) -> bool {
        [
            FRAMES_SENT,
            FRAMES_RECEIVED,
            EVENTS_RELAYED,
            BILLED_BYTES,
            PAYLOAD_BYTES,
            WINDOWS,
            HOST_DOWN_DROPS,
            RECONNECTS,
            RESTARTS,
            PARTITIONS_HEALED,
            SUPERVISOR_GAVE_UP,
        ]
        .contains(&key)
    }
}

/// Same tick the in-process driver uses between mailbox drains — the
/// counts of `driver.*` metrics match the control only because the drain
/// cadence does.
const SETTLE_TICK: SimDuration = SimDuration::from_millis(50);

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct NetCfg {
    /// Endpoint to listen on.
    pub endpoint: Endpoint,
    /// Number of node-host processes.
    pub hosts: u32,
    /// Scenario name (see [`crate::scenarios`]).
    pub scenario: String,
    /// World seed.
    pub seed: u64,
    /// Wall-clock wait for all hosts to connect at startup.
    pub accept_deadline: Duration,
    /// Per-read watchdog on host connections.
    pub io_timeout: Duration,
    /// How long the lockstep schedule stalls for a downed host to come
    /// back (resumed or restarted) before the driver gives up on it and
    /// degrades to a partial fleet.
    pub down_grace: Duration,
}

impl NetCfg {
    /// A config with production defaults.
    pub fn new(endpoint: Endpoint, hosts: u32, scenario: impl Into<String>, seed: u64) -> Self {
        NetCfg {
            endpoint,
            hosts,
            scenario: scenario.into(),
            seed,
            accept_deadline: Duration::from_secs(30),
            io_timeout: Duration::from_secs(30),
            down_grace: Duration::from_secs(20),
        }
    }
}

/// What a resilient receive is waiting for.
enum Expect {
    WindowDone { end_us: u64 },
    Rpc { id: u64 },
}

struct HostSlot {
    /// The session: sequence state plus replay buffer, connection
    /// attached or not.
    peer: Peer<Box<dyn Transport>>,
    /// A session epoch is established (initial `Ready` seen); resumes
    /// keep it, fresh handshakes reset it.
    session_live: bool,
    /// Bumped on every session reset — in-flight awaits notice their
    /// reply became void.
    epoch: u64,
    /// Permanently failed: `down_grace` expired with no reconnection.
    failed: bool,
    /// When the current outage started (None while attached).
    down_since: Option<Instant>,
    /// The slot has completed at least one handshake ever.
    ever_joined: bool,
    /// Deliveries awaiting relay to this host.
    pending: Vec<RemoteEvent>,
    /// The host's earliest pending event, as last reported.
    next_min: Option<u64>,
}

impl HostSlot {
    fn attached(&self) -> bool {
        !self.failed && self.peer.is_attached()
    }
}

/// Everything that talks to the outside: the driver's all-remote world,
/// the connection source, and the per-host sessions. Split from
/// [`NetPlatform`] so the shared `DriverCore` harvest logic can borrow it
/// as its [`DriverStable`] while the core itself is borrowed mutably.
struct NetState {
    world: World,
    acceptor: Box<dyn Accept>,
    slots: Vec<HostSlot>,
    owned: Vec<Vec<u32>>,
    /// node id → owning host id.
    owner_of: Vec<u32>,
    scenario: String,
    seed: u64,
    n_nodes: u32,
    lookahead_us: u64,
    io_timeout: Duration,
    down_grace: Duration,
    /// Called with `net.windows` after every counted window.
    on_window: Option<Box<dyn FnMut(u64)>>,
    rpc_seq: u64,
}

/// The distributed platform driver; see the module docs for the protocol.
pub struct NetPlatform {
    core: DriverCore,
    net: NetState,
}

impl NetPlatform {
    /// Binds the endpoint, waits for all `cfg.hosts` node hosts to connect
    /// and handshake, and returns a ready-to-launch platform.
    ///
    /// # Errors
    ///
    /// Bind/accept failures, handshake protocol violations, unknown
    /// scenarios, and hosts that fail to appear within the accept
    /// deadline.
    pub fn start(cfg: NetCfg) -> io::Result<NetPlatform> {
        let listener = Listener::bind(&cfg.endpoint)?;
        listener.set_nonblocking(true)?;
        NetPlatform::start_with(Box::new(listener), cfg)
    }

    /// [`NetPlatform::start`] with an explicit connection source — chaos
    /// tests hand the driver fault-wrapped loopback ends through a
    /// [`crate::transport::ChannelAcceptor`] instead of a bound socket.
    ///
    /// # Errors
    ///
    /// As [`NetPlatform::start`], minus the bind.
    pub fn start_with(acceptor: Box<dyn Accept>, cfg: NetCfg) -> io::Result<NetPlatform> {
        let n_nodes = scenarios::node_count(&cfg.scenario)
            .ok_or_else(|| invalid(format!("unknown scenario {:?}", cfg.scenario)))?;
        let builder = scenarios::builder(&cfg.scenario, cfg.seed)
            .ok_or_else(|| invalid(format!("unknown scenario {:?}", cfg.scenario)))?;
        let world = builder
            .try_build_remote(&[])
            .map_err(|e| invalid(format!("driver world build failed: {e}")))?;
        let lookahead_us = world.net().latency_model().min_latency().as_micros();
        let owned = ownership(n_nodes, cfg.hosts);
        let mut owner_of = vec![0u32; n_nodes as usize];
        for (h, nodes) in owned.iter().enumerate() {
            for &n in nodes {
                owner_of[n as usize] = h as u32;
            }
        }
        let slots = (0..cfg.hosts)
            .map(|_| HostSlot {
                peer: Peer::detached(),
                session_live: false,
                epoch: 0,
                failed: false,
                down_since: None,
                ever_joined: false,
                pending: Vec::new(),
                next_min: None,
            })
            .collect();
        let mut net = NetState {
            world,
            acceptor,
            slots,
            owned,
            owner_of,
            scenario: cfg.scenario,
            seed: cfg.seed,
            n_nodes,
            lookahead_us,
            io_timeout: cfg.io_timeout,
            down_grace: cfg.down_grace,
            on_window: None,
            rpc_seq: 0,
        };
        let deadline = Instant::now() + cfg.accept_deadline;
        while net.slots.iter().any(|s| !s.session_live) {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "hosts did not all connect within the accept deadline",
                ));
            }
            if !net.poll_accepts()? {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        Ok(NetPlatform {
            core: DriverCore::new(DriverCore::DEFAULT_REPORT_CAP),
            net,
        })
    }

    /// Launches an agent — identical cost accounting to the in-process
    /// platform (driver random stream, billed bytes, event key), with the
    /// delivery relayed to the home node's host on the next window.
    pub fn launch(&mut self, spec: AgentSpec) -> AgentHandle {
        let (handle, addr, payload) = self.core.launch(spec);
        self.net.world.post(addr, payload);
        handle
    }

    /// Launches a whole fleet, returning one handle per spec in order.
    pub fn launch_fleet(&mut self, specs: impl IntoIterator<Item = AgentSpec>) -> Vec<AgentHandle> {
        specs.into_iter().map(|s| self.launch(s)).collect()
    }

    /// Installs the per-window hook: called between windows — every reply
    /// in, every host idle — with the count so far (`net.windows`). A fault
    /// drill blocks here, so its fault lands the same way on every run.
    pub fn on_window(&mut self, hook: impl FnMut(u64) + 'static) {
        self.net.on_window = Some(Box::new(hook));
    }

    /// Runs the distributed simulation for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = (self.net.world.now() + d).as_micros();
        self.net.run_until(target);
    }

    /// Drains completion events from home-node mailboxes over RPC — the
    /// same O(completions) harvest as in-process, at quiescent points.
    pub fn drain_reports(&mut self) -> Vec<AgentReport> {
        self.core.drain_reports(&mut self.net)
    }

    /// Runs until all listed agents have reports or `deadline` virtual
    /// time elapses; `true` if everyone finished. While a host is down the
    /// loop paces itself in wall clock, so a supervised restart has time
    /// to land before the virtual deadline burns away.
    pub fn run_until_settled(&mut self, agents: &[AgentHandle], deadline: SimDuration) -> bool {
        self.drain_reports();
        let mut pending: Vec<AgentId> = agents
            .iter()
            .map(|h| h.id())
            .filter(|id| !self.core.is_completed(*id))
            .collect();
        let end = self.net.world.now() + deadline;
        while !pending.is_empty() && self.net.world.now() < end {
            if self
                .net
                .slots
                .iter()
                .any(|s| !s.failed && !s.peer.is_attached())
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            self.run_for(SETTLE_TICK);
            self.drain_reports();
            pending.retain(|id| !self.core.is_completed(*id));
        }
        pending.is_empty()
    }

    /// A finished agent's report (drains once if not yet cached).
    pub fn report(&mut self, agent: impl Into<AgentId>) -> Option<AgentReport> {
        self.core.report(&mut self.net, agent.into())
    }

    /// Sums committed money across every host (RPC per host) plus the
    /// driver's cached reports — the distributed form of the in-process
    /// money audit, and equal to it at quiescent points.
    pub fn money_audit(&mut self, wallet_keys: &[&str]) -> BTreeMap<String, i64> {
        let mut total: BTreeMap<String, i64> = BTreeMap::new();
        let op = RpcOp::MoneyAudit {
            wallet_keys: wallet_keys.iter().map(|s| (*s).to_owned()).collect(),
        };
        for h in 0..self.net.slots.len() {
            if let Some(RpcReply::Audit(entries)) = self.net.rpc(h, op.clone()) {
                for (cur, amount) in entries {
                    *total.entry(cur).or_insert(0) += amount;
                }
            }
        }
        for report in self.core.cached_reports() {
            audit_wallets(&report.record.data, wallet_keys, &mut total);
        }
        total
    }

    /// Metrics summed across every process: each host's snapshot (RPC)
    /// merged into the driver's own. Transport diagnostics
    /// ([`netkeys`]) appear only here, never in a host or control run.
    pub fn snapshot(&mut self) -> MetricsSnapshot {
        let mut merged = self.net.world.snapshot();
        for h in 0..self.net.slots.len() {
            if let Some(RpcReply::Snapshot(snap)) = self.net.rpc(h, RpcOp::Snapshot) {
                for (k, v) in snap.counters {
                    *merged.counters.entry(k).or_insert(0) += v;
                }
            }
        }
        merged
    }

    /// The driver's own (all-remote) world — billing and diagnostics
    /// inspection.
    pub fn driver_world(&self) -> &World {
        &self.net.world
    }

    /// Current virtual time.
    pub fn now(&self) -> mar_simnet::SimTime {
        self.net.world.now()
    }

    /// Hosts the driver gave up on (restart budget/grace exhausted) — the
    /// structured failure summary behind a partial settle.
    pub fn failed_hosts(&self) -> Vec<u32> {
        self.net
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.failed)
            .map(|(h, _)| h as u32)
            .collect()
    }

    /// Tells every host the run is over. Errors are ignored — a host that
    /// already vanished needs no shutdown.
    pub fn shutdown(&mut self) {
        for slot in &mut self.net.slots {
            if slot.attached() {
                let _ = slot.peer.send(&NetMsg::Shutdown);
            }
            slot.peer = Peer::detached();
            slot.session_live = false;
        }
    }
}

impl NetState {
    /// Accepts any waiting connections and handshakes them into host
    /// slots; `true` if at least one host (re)joined.
    fn poll_accepts(&mut self) -> io::Result<bool> {
        let mut any = false;
        while let Some(mut transport) = self.acceptor.poll()? {
            let _ = transport.set_read_timeout(Some(self.io_timeout));
            // A broken hello poisons one connection, nothing else: the
            // transport is dropped and the loop keeps accepting.
            if self.handshake(transport).is_ok() {
                any = true;
            }
        }
        Ok(any)
    }

    /// Runs the hello/topology exchange on a fresh connection and installs
    /// it in its slot — resuming the existing session when the host kept
    /// its state, resetting to a fresh one when the process was restarted.
    fn handshake(&mut self, mut transport: Box<dyn Transport>) -> io::Result<()> {
        let (host_id, resume) = match recv_ctl(&mut transport)? {
            Some(NetMsg::Hello {
                version,
                host_id,
                resume,
            }) if version == PROTOCOL_VERSION => (host_id, resume),
            Some(NetMsg::Hello { version, .. }) => {
                return Err(invalid(format!("host speaks protocol {version}")));
            }
            other => return Err(invalid(format!("expected Hello, got {other:?}"))),
        };
        self.world.metrics().inc(netkeys::FRAMES_RECEIVED);
        if host_id as usize >= self.slots.len() {
            return Err(invalid(format!("host id {host_id} out of range")));
        }
        if self.slots[host_id as usize].failed {
            // Too late: the fleet already degraded past this host. A
            // deterministic end state beats a half-rejoined straggler.
            return Err(invalid(format!("host {host_id} was given up on")));
        }
        let resume_ok = resume && self.slots[host_id as usize].session_live;
        let rejoin = self.slots[host_id as usize].ever_joined;
        send_ctl(
            &mut transport,
            &NetMsg::Topology {
                version: PROTOCOL_VERSION,
                scenario: self.scenario.clone(),
                seed: self.seed,
                n_nodes: self.n_nodes,
                owned: self.owned[host_id as usize].clone(),
                resume_us: self.world.now().as_micros(),
                resume_ok,
            },
        )?;
        self.world.metrics().inc(netkeys::FRAMES_SENT);
        if resume_ok {
            let slot = &mut self.slots[host_id as usize];
            drop(slot.peer.detach()); // replace a stale half-dead connection
            slot.peer.attach(transport);
            match slot.peer.replay_unacked() {
                Ok(replayed) => {
                    self.world
                        .metrics()
                        .add(netkeys::FRAMES_SENT, replayed as u64);
                }
                Err(e) => {
                    self.slots[host_id as usize].peer.detach();
                    return Err(e);
                }
            }
        } else {
            self.reset_session(host_id as usize);
            let slot = &mut self.slots[host_id as usize];
            slot.peer = Peer::new(transport);
            // First session frame must be Ready: the host builds (or
            // recovers) its world before sending it, so this read waits
            // out WAL replay under the io watchdog. Any failure leaves the
            // slot detached — a half-handshaken transport must not linger.
            let (egress, next_min) = match slot.peer.recv() {
                Ok(Some(NetMsg::Ready {
                    egress,
                    next_min_us,
                })) => (egress, next_min_us),
                Ok(other) => {
                    slot.peer = Peer::detached();
                    return Err(invalid(format!("expected Ready, got {other:?}")));
                }
                Err(e) => {
                    slot.peer = Peer::detached();
                    return Err(e);
                }
            };
            self.world.metrics().inc(netkeys::FRAMES_RECEIVED);
            let slot = &mut self.slots[host_id as usize];
            slot.session_live = true;
            slot.next_min = next_min;
            self.route(egress);
        }
        let slot = &mut self.slots[host_id as usize];
        slot.down_since = None;
        slot.ever_joined = true;
        if rejoin {
            self.world.metrics().inc(netkeys::RECONNECTS);
            if resume_ok {
                self.world.metrics().inc(netkeys::PARTITIONS_HEALED);
            } else {
                self.world.metrics().inc(netkeys::RESTARTS);
            }
        }
        Ok(())
    }

    /// Voids the slot's session: epoch bump (in-flight awaits return
    /// empty-handed), fresh sequence state, queued relays dropped — the
    /// distributed analogue of the simulator dropping messages to a
    /// crashed node.
    fn reset_session(&mut self, h: usize) {
        let slot = &mut self.slots[h];
        slot.epoch += 1;
        slot.peer = Peer::detached();
        slot.session_live = false;
        slot.next_min = None;
        let dropped = slot.pending.len() as u64;
        slot.pending.clear();
        if dropped > 0 {
            self.world.metrics().add(netkeys::HOST_DOWN_DROPS, dropped);
        }
    }

    /// Marks the slot's connection dead (session kept for resumption).
    fn on_conn_error(&mut self, h: usize) {
        let slot = &mut self.slots[h];
        drop(slot.peer.detach());
        if slot.down_since.is_none() {
            slot.down_since = Some(Instant::now());
        }
    }

    /// Declares a host permanently failed and degrades the fleet.
    fn give_up(&mut self, h: usize) {
        self.reset_session(h);
        let slot = &mut self.slots[h];
        slot.failed = true;
        slot.down_since = None;
        self.world.metrics().inc(netkeys::SUPERVISOR_GAVE_UP);
    }

    /// Blocks until slot `h` is attached with a live session, accepting
    /// reconnections meanwhile; `false` once the host is (or becomes)
    /// permanently failed.
    fn wait_attached(&mut self, h: usize) -> bool {
        loop {
            if self.slots[h].failed {
                return false;
            }
            if self.slots[h].attached() && self.slots[h].session_live {
                return true;
            }
            let grace_expired = match self.slots[h].down_since {
                Some(t) => t.elapsed() > self.down_grace,
                // A live slot missing its session (half-finished fresh
                // handshake): start the outage clock now.
                None => {
                    self.slots[h].down_since = Some(Instant::now());
                    false
                }
            };
            if grace_expired {
                self.give_up(h);
                return false;
            }
            match self.poll_accepts() {
                Ok(true) => {}
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Commits one message to host `h`'s session; `false` means the host
    /// is failed. A send never stalls: while the connection is down the
    /// frame is only retained — replayed if the session resumes, lost with
    /// it if the host comes back restarted — and the stall is the awaited
    /// reply's. So it changes nothing that a dead connection shows at the
    /// first write on a Unix socket and only at the next read on TCP. A
    /// transport error does **not** retry the send: the frame is already
    /// retained, and re-sending would duplicate it.
    fn send_to(&mut self, h: usize, msg: &NetMsg) -> bool {
        if self.slots[h].failed {
            return false;
        }
        if self.slots[h].peer.send(msg).is_err() {
            self.on_conn_error(h);
        }
        self.world.metrics().inc(netkeys::FRAMES_SENT);
        true
    }

    /// Receives until the expected reply arrives, riding out reconnects
    /// and replays. Stray state-bearing frames (an unsolicited
    /// `WindowDone` from a graceful host shutdown, a stale RPC reply) are
    /// folded into slot state and skipped. Returns `None` if the host
    /// failed or its session was reset (the awaited reply died with it).
    fn recv_reply(&mut self, h: usize, expect: &Expect) -> Option<NetMsg> {
        let entry_epoch = self.slots[h].epoch;
        loop {
            if !self.wait_attached(h) || self.slots[h].epoch != entry_epoch {
                return None;
            }
            let msg = match self.slots[h].peer.recv() {
                Ok(Some(msg)) => msg,
                Ok(None) | Err(_) => {
                    // Clean close, watchdog expiry, or poisoned frame: the
                    // connection is gone either way; stall for a resume.
                    self.on_conn_error(h);
                    continue;
                }
            };
            self.world.metrics().inc(netkeys::FRAMES_RECEIVED);
            match msg {
                NetMsg::WindowDone {
                    end_us,
                    egress,
                    next_min_us,
                } => {
                    self.slots[h].next_min = next_min_us;
                    self.route(egress);
                    if matches!(expect, Expect::WindowDone { end_us: want } if *want == end_us) {
                        return Some(NetMsg::WindowDone {
                            end_us,
                            egress: Vec::new(),
                            next_min_us,
                        });
                    }
                }
                NetMsg::RpcReply { id, reply } => {
                    if matches!(expect, Expect::Rpc { id: want } if *want == id) {
                        return Some(NetMsg::RpcReply { id, reply });
                    }
                }
                _ => {
                    // A host sending driver-bound commands is broken
                    // beyond resumption; a replayed bad frame would loop
                    // forever, so degrade deterministically.
                    self.give_up(h);
                    return None;
                }
            }
        }
    }

    /// Queues diverted deliveries for relay to their owning hosts.
    fn route(&mut self, events: Vec<RemoteEvent>) {
        for ev in events {
            let owner = self.owner_of[ev.to_node as usize] as usize;
            self.slots[owner].pending.push(ev);
        }
    }

    /// The lockstep window loop: runs every process forward until no event
    /// anywhere is due at or before `target_us`, then finalizes all clocks
    /// at the boundary.
    fn run_until(&mut self, target_us: u64) {
        loop {
            let _ = self.poll_accepts();
            let egress = self.world.take_remote_egress();
            self.route(egress);
            // Relay pending deliveries. Injections move the global minimum,
            // and the driver knows their due times without another round
            // trip.
            let mut injected_min: Option<u64> = None;
            for h in 0..self.slots.len() {
                if self.slots[h].pending.is_empty() {
                    continue;
                }
                let events = std::mem::take(&mut self.slots[h].pending);
                let batch_min = events.iter().map(|e| e.at_us).min();
                let relayed = events.len() as u64;
                let billed: u64 = events.iter().map(|e| e.billed).sum();
                let payload: u64 = events.iter().map(|e| e.payload.len() as u64).sum();
                if self.send_to(h, &NetMsg::Inject { events }) {
                    injected_min = min_opt(injected_min, batch_min);
                    self.world.metrics().add(netkeys::EVENTS_RELAYED, relayed);
                    self.world.metrics().add(netkeys::BILLED_BYTES, billed);
                    self.world.metrics().add(netkeys::PAYLOAD_BYTES, payload);
                } else {
                    self.world.metrics().add(netkeys::HOST_DOWN_DROPS, relayed);
                }
            }
            let mut m = injected_min;
            for slot in &self.slots {
                if !slot.failed {
                    m = min_opt(m, slot.next_min);
                }
            }
            let m = match m {
                Some(m) if m <= target_us => m,
                _ => break,
            };
            self.run_window(window_end(m, self.lookahead_us, target_us));
            self.world.metrics().inc(netkeys::WINDOWS);
            if let Some(hook) = &mut self.on_window {
                hook(self.world.metrics().counter(netkeys::WINDOWS));
            }
        }
        // Quiescent before the boundary: the window that ends just past it
        // processes nothing and finalizes every clock at it.
        self.run_window(target_us.saturating_add(1));
    }

    /// One lockstep window: every live host is sent the frame before any
    /// reply is awaited, then every clock stands at the last instant of it.
    /// The driver's own clock goes there first: a host that rejoins
    /// restarted while the window is in flight is resumed where the others
    /// will stand, not an instant they have already run past.
    fn run_window(&mut self, end_us: u64) {
        self.world.advance_clock_to(end_us.saturating_sub(1));
        let mut running = Vec::with_capacity(self.slots.len());
        for h in 0..self.slots.len() {
            if self.send_to(h, &NetMsg::RunWindow { end_us }) {
                running.push(h);
            }
        }
        for h in running {
            let _ = self.recv_reply(h, &Expect::WindowDone { end_us });
        }
    }

    /// One synchronous RPC against a host; `None` if the host is failed
    /// or its session reset mid-call.
    fn rpc(&mut self, h: usize, op: RpcOp) -> Option<RpcReply> {
        self.rpc_seq += 1;
        let id = self.rpc_seq;
        if !self.send_to(h, &NetMsg::Rpc { id, op }) {
            return None;
        }
        match self.recv_reply(h, &Expect::Rpc { id }) {
            Some(NetMsg::RpcReply { reply, .. }) => Some(reply),
            _ => None,
        }
    }
}

/// The remote form of the driver's stable access: every call is one RPC to
/// the owning host, at quiescent points between windows. A failed host
/// reads as empty — partial results are the surviving hosts' durable
/// state.
impl DriverStable for NetState {
    fn keys_with_prefix(&mut self, node: NodeId, prefix: &str) -> Vec<String> {
        let h = self.owner_of[node.0 as usize] as usize;
        match self.rpc(
            h,
            RpcOp::KeysWithPrefix {
                node: node.0,
                prefix: prefix.to_owned(),
            },
        ) {
            Some(RpcReply::Keys(keys)) => keys,
            _ => Vec::new(),
        }
    }

    fn get(&mut self, node: NodeId, key: &str) -> Option<Vec<u8>> {
        let h = self.owner_of[node.0 as usize] as usize;
        match self.rpc(
            h,
            RpcOp::Get {
                node: node.0,
                key: key.to_owned(),
            },
        ) {
            Some(RpcReply::Bytes(b)) => b.map(Bytes::into_vec),
            _ => None,
        }
    }

    fn delete(&mut self, node: NodeId, key: &str) {
        let h = self.owner_of[node.0 as usize] as usize;
        let _ = self.rpc(
            h,
            RpcOp::Delete {
                node: node.0,
                key: key.to_owned(),
            },
        );
    }

    fn metric_inc(&mut self, key: &'static str) {
        self.world.metrics().inc(key);
    }
}

fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChannelAcceptor, Loopback};

    /// A host speaking the previous revision cannot read this one's frames,
    /// so its `Hello` is refused: no `Topology`, the connection dropped,
    /// and the driver still waiting for a host it can talk to.
    #[test]
    fn a_previous_revision_host_is_refused_at_hello() {
        let (tx, acceptor) = ChannelAcceptor::new();
        let (mut host, driver_end) = Loopback::pair();
        let hello = NetMsg::Hello {
            version: PROTOCOL_VERSION - 1,
            host_id: 0,
            resume: false,
        };
        send_ctl(&mut host, &hello).unwrap();
        tx.send(Box::new(driver_end)).unwrap();
        let mut cfg = NetCfg::new(Endpoint::Unix("unbound.sock".into()), 1, "travel", 11);
        cfg.accept_deadline = Duration::from_millis(100);
        let err = NetPlatform::start_with(Box::new(acceptor), cfg)
            .err()
            .expect("no host can join");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(recv_ctl(&mut host).unwrap(), None);
    }
}
