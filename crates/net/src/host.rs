//! The node-host process: the host side of the lockstep protocol, driven
//! entirely by the coordinator.
//!
//! A host owns a subset of the world's nodes. It builds the **whole**
//! world (every node id, so random streams and event keys match every
//! other process), installs services only on its owned slice, marks the
//! rest remote, and then obeys the driver: inject diverted deliveries, run
//! conservative windows, answer stable-storage RPCs at quiescent points.
//! The host never invents time — every clock advance is a driver message,
//! which is what keeps the distributed schedule bit-identical to the
//! single-process one.
//!
//! # Living through failures
//!
//! [`HostRuntime`] holds what survives a dead connection: the world and
//! the [`Peer`] session. When a connection breaks, [`run_host`] dials
//! again and asks to **resume** — both sides replay unacknowledged frames
//! and the run continues as if the outage never happened. Only when the
//! *process* dies does recovery fall back to the WAL: the supervisor
//! restarts the host, the world is rebuilt from the scenario registry with
//! stable storage recovered from the file-backed log, the clock advances
//! to the driver's `resume_us`, and `World::start` replays the platform's
//! recovery logic — re-arming retry timers and retransmitting from stable
//! outboxes. Crash recovery is the same code path as a cold start.
//!
//! A SIGTERM (surfaced through [`ServeCtl::term`]) is the graceful middle
//! ground: the serve loop notices the flag at a frame boundary, flushes
//! stable storage to the durable watermark, hands the driver a final
//! unsolicited [`NetMsg::WindowDone`] (window end 0) with any remaining
//! egress and its current minimum, and exits — so the restarted process
//! recovers from a clean WAL rather than a torn tail.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mar_simnet::{NodeId, SimRng, StableFactory, WalConfig, World};
use mar_wire::Bytes;

use crate::proto::{recv_ctl, send_ctl, NetMsg, Peer, RpcOp, RpcReply, PROTOCOL_VERSION};
use crate::scenarios;
use crate::transport::{connect_with_retry, is_idle_timeout, Endpoint, Transport};

/// Wall-clock tick between idle-timeout wakeups of the serve loop — how
/// often the termination flag is checked while waiting for the driver.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Dial attempts (with jittered exponential backoff) before a host gives
/// up; also bounds consecutive handshake rejections.
const CONNECT_ATTEMPTS: u32 = 25;

/// Node-host configuration (one process).
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Which host slot to claim.
    pub host_id: u32,
    /// The driver's endpoint.
    pub endpoint: Endpoint,
    /// Directory for file-backed per-node WALs; `None` keeps stable
    /// storage in memory (no crash recovery across restarts).
    pub wal_dir: Option<PathBuf>,
    /// Per-read watchdog: if the driver goes silent this long the
    /// connection is declared dead and redialed with a resume request.
    pub io_timeout: Duration,
    /// Graceful-termination flag (set by a SIGTERM handler): checked at
    /// frame boundaries; triggers a stable flush and a final
    /// `WindowDone` before exit.
    pub term: Option<Arc<AtomicBool>>,
}

impl HostConfig {
    /// A config with default retry and watchdog behaviour.
    pub fn new(host_id: u32, endpoint: Endpoint) -> Self {
        HostConfig {
            host_id,
            endpoint,
            wal_dir: None,
            io_timeout: Duration::from_secs(30),
            term: None,
        }
    }
}

/// How a host session ended.
#[derive(Debug, PartialEq, Eq)]
pub enum HostExit {
    /// The driver said [`NetMsg::Shutdown`]: the run is over.
    Shutdown,
    /// The connection closed or broke; the session survives, so the
    /// caller may reconnect and resume.
    Disconnected,
    /// The termination flag was raised: stable storage is flushed and the
    /// driver got a final flush frame.
    Terminated,
}

/// Knobs of the serve loop that are orthogonal to the transport.
#[derive(Debug, Clone, Default)]
pub struct ServeCtl {
    /// Graceful-termination flag, checked between frames.
    pub term: Option<Arc<AtomicBool>>,
    /// Driver-silence watchdog. Requires a read timeout on the transport
    /// (the poll tick) so the loop wakes up to measure it; `None` waits
    /// forever.
    pub io_timeout: Option<Duration>,
    /// Emit join/recovery lines on stderr for a supervisor to parse.
    pub log: bool,
}

impl ServeCtl {
    fn term_raised(&self) -> bool {
        self.term
            .as_ref()
            .is_some_and(|t| t.load(Ordering::Relaxed))
    }
}

/// What survives a dead connection: the world, the session, and the serve
/// knobs. [`run_host`] drives one of these over real sockets;
/// chaos tests drive one over fault-injected loopbacks in-process.
pub struct HostRuntime {
    host_id: u32,
    wal_dir: Option<PathBuf>,
    ctl: ServeCtl,
    world: Option<World>,
    peer: Peer<Box<dyn Transport>>,
    /// Whether the handshake of the most recent [`HostRuntime::run_conn`]
    /// completed — distinguishes a mid-run outage (resume and carry on)
    /// from a driver that refuses us (give up after a few tries).
    progressed: bool,
}

impl HostRuntime {
    /// A runtime with no world yet; the first [`HostRuntime::run_conn`]
    /// builds it from the driver's topology.
    pub fn new(host_id: u32, wal_dir: Option<PathBuf>, ctl: ServeCtl) -> Self {
        HostRuntime {
            host_id,
            wal_dir,
            ctl,
            world: None,
            peer: Peer::detached(),
            progressed: false,
        }
    }

    /// Whether the previous connection got through its handshake.
    pub fn progressed(&self) -> bool {
        self.progressed
    }

    /// Simulated process death for in-process chaos tests: all volatile
    /// state (world, session) is dropped without flushing, exactly as a
    /// SIGKILL would lose it. The next [`HostRuntime::run_conn`] rebuilds
    /// from the WAL like a restarted process.
    pub fn crash_volatile(&mut self) {
        self.world = None;
        self.peer = Peer::detached();
        self.progressed = false;
    }

    /// Drives one connection to completion: handshake (resume if the
    /// session is live, else build/recover the world), then the serve
    /// loop. Configure any transport read timeouts **before** passing the
    /// connection in.
    ///
    /// # Errors
    ///
    /// Fatal protocol violations (version mismatch, unknown scenario,
    /// build failures) — not worth redialing. Connection-level failures
    /// (closes, watchdog expiry, torn frames) come back as
    /// `Ok(HostExit::Disconnected)`: redial and resume.
    pub fn run_conn(&mut self, mut transport: Box<dyn Transport>) -> io::Result<HostExit> {
        self.progressed = false;
        let resume = self.world.is_some();
        send_ctl(
            &mut transport,
            &NetMsg::Hello {
                version: PROTOCOL_VERSION,
                host_id: self.host_id,
                resume,
            },
        )?;
        let deadline = self.ctl.io_timeout.map(|d| Instant::now() + d);
        let topology = loop {
            if self.ctl.term_raised() {
                return Ok(HostExit::Terminated);
            }
            match recv_ctl(&mut transport) {
                Ok(Some(msg)) => break msg,
                Ok(None) => return Ok(HostExit::Disconnected),
                Err(e) if is_idle_timeout(&e) => {
                    if deadline.is_some_and(|d| Instant::now() > d) {
                        return Ok(HostExit::Disconnected);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(_) => return Ok(HostExit::Disconnected),
            }
        };
        let (scenario, seed, n_nodes, owned, resume_us, resume_ok) = match topology {
            NetMsg::Topology {
                version,
                scenario,
                seed,
                n_nodes,
                owned,
                resume_us,
                resume_ok,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(proto_err(format!(
                        "protocol version mismatch: driver {version}, host {PROTOCOL_VERSION}"
                    )));
                }
                (scenario, seed, n_nodes, owned, resume_us, resume_ok)
            }
            other => return Err(proto_err(format!("expected Topology, got {other:?}"))),
        };
        self.progressed = true;
        if resume_ok {
            self.peer.attach(transport);
            if self.peer.replay_unacked().is_err() {
                drop(self.peer.detach());
                return Ok(HostExit::Disconnected);
            }
            if self.ctl.log {
                eprintln!(
                    "mar-node-host: joined host={} resume=true at_us={resume_us} wal_replayed_bytes=0",
                    self.host_id
                );
            }
        } else {
            // Fresh session: rebuild the world (recovering stable storage
            // from the WAL if configured), discarding any stale one — the
            // driver already treated us as crashed.
            self.world = None;
            let mut world = build_world(self.wal_dir.as_deref(), &scenario, seed, n_nodes, &owned)?;
            // Recovery order matters: the clock must sit at the
            // coordinator's time *before* start(), so recovery timers and
            // retransmissions schedule relative to the resumed present,
            // not virtual time zero.
            world.advance_clock_to(resume_us);
            world.start();
            if self.ctl.log {
                eprintln!(
                    "mar-node-host: joined host={} resume=false at_us={resume_us} wal_replayed_bytes={}",
                    self.host_id,
                    world.stable_totals().replayed_bytes
                );
            }
            self.peer = Peer::new(transport);
            let ready = NetMsg::Ready {
                egress: world.take_remote_egress(),
                next_min_us: world.local_min_us(),
            };
            self.world = Some(world);
            if self.peer.send(&ready).is_err() {
                drop(self.peer.detach());
                return Ok(HostExit::Disconnected);
            }
        }
        let world = self.world.as_mut().expect("world exists after handshake");
        match serve_ctl(&mut self.peer, world, &self.ctl) {
            Ok(exit) => Ok(exit),
            // Any serve-loop error — watchdog expiry, a torn or malformed
            // frame, a sequence gap from a lossy link — poisons only the
            // *connection*. The session's replay buffer makes a reconnect
            // heal all of them, so none are fatal to the process.
            Err(_) => {
                drop(self.peer.detach());
                Ok(HostExit::Disconnected)
            }
        }
    }
}

/// Connects to the driver and serves until shutdown or termination,
/// transparently redialing and resuming the session across connection
/// outages.
///
/// # Errors
///
/// Connection-establishment exhaustion, repeated handshake rejection, and
/// fatal protocol violations (bad version, unknown scenario, malformed
/// frames).
pub fn run_host(cfg: &HostConfig) -> io::Result<HostExit> {
    let mut rng = SimRng::seed_from(0x4E45_5400u64 + u64::from(cfg.host_id));
    let mut rt = HostRuntime::new(
        cfg.host_id,
        cfg.wal_dir.clone(),
        ServeCtl {
            term: cfg.term.clone(),
            io_timeout: Some(cfg.io_timeout),
            log: true,
        },
    );
    let mut rejected = 0u32;
    loop {
        if rt.ctl.term_raised() {
            return Ok(HostExit::Terminated);
        }
        let mut transport = connect_with_retry(&cfg.endpoint, CONNECT_ATTEMPTS, &mut rng)?;
        transport.set_read_timeout(Some(cfg.io_timeout))?;
        transport.set_poll_interval(Some(POLL_TICK))?;
        match rt.run_conn(Box::new(transport))? {
            HostExit::Shutdown => return Ok(HostExit::Shutdown),
            HostExit::Terminated => return Ok(HostExit::Terminated),
            HostExit::Disconnected => {
                if rt.progressed() {
                    rejected = 0;
                } else {
                    rejected += 1;
                    if rejected >= CONNECT_ATTEMPTS {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionRefused,
                            "driver repeatedly closed the handshake (host given up on?)",
                        ));
                    }
                }
            }
        }
    }
}

/// The post-handshake message loop with default knobs (no termination
/// flag, no watchdog) — the simple form tests drive over an in-process
/// [`crate::transport::Loopback`].
///
/// # Errors
///
/// As [`serve_ctl`].
pub fn serve<T: Transport>(peer: &mut Peer<T>, world: &mut World) -> io::Result<HostExit> {
    serve_ctl(peer, world, &ServeCtl::default())
}

/// The post-handshake message loop. Obeys the driver until shutdown,
/// disconnection, watchdog expiry, or the termination flag.
///
/// # Errors
///
/// Transport and protocol errors, including the watchdog's idle timeout
/// once `ctl.io_timeout` of driver silence has accumulated. The session
/// in `peer` remains resumable after any error.
pub fn serve_ctl<T: Transport>(
    peer: &mut Peer<T>,
    world: &mut World,
    ctl: &ServeCtl,
) -> io::Result<HostExit> {
    let mut last_frame = Instant::now();
    loop {
        if ctl.term_raised() {
            world.flush_stable();
            // Unsolicited flush frame (window end 0): hands the driver
            // any remaining egress and our minimum so nothing is lost,
            // best-effort — the driver may already be gone.
            let _ = peer.send(&NetMsg::WindowDone {
                end_us: 0,
                egress: world.take_remote_egress(),
                next_min_us: world.local_min_us(),
            });
            return Ok(HostExit::Terminated);
        }
        let msg = match peer.recv() {
            Ok(msg) => msg,
            Err(e) if is_idle_timeout(&e) => {
                match ctl.io_timeout {
                    Some(d) if last_frame.elapsed() >= d => return Err(e),
                    _ => continue, // poll tick: re-check the term flag
                }
            }
            Err(e) => return Err(e),
        };
        last_frame = Instant::now();
        match msg {
            Some(NetMsg::Inject { events }) => {
                for ev in events {
                    world.inject_remote(ev);
                }
            }
            Some(NetMsg::RunWindow { end_us }) => {
                world.run_window(end_us);
                peer.send(&NetMsg::WindowDone {
                    end_us,
                    egress: world.take_remote_egress(),
                    next_min_us: world.local_min_us(),
                })?;
            }
            Some(NetMsg::Rpc { id, op }) => {
                let reply = apply_rpc(world, op);
                peer.send(&NetMsg::RpcReply { id, reply })?;
            }
            Some(NetMsg::Shutdown) => return Ok(HostExit::Shutdown),
            Some(other) => {
                return Err(proto_err(format!("unexpected message {other:?}")));
            }
            None => return Ok(HostExit::Disconnected),
        }
    }
}

/// Executes one driver RPC against the local world.
fn apply_rpc(world: &mut World, op: RpcOp) -> RpcReply {
    match op {
        RpcOp::KeysWithPrefix { node, prefix } => {
            RpcReply::Keys(world.stable(NodeId(node)).keys_with_prefix(&prefix))
        }
        RpcOp::Get { node, key } => {
            RpcReply::Bytes(world.stable(NodeId(node)).get(&key).map(Bytes::from))
        }
        RpcOp::Delete { node, key } => {
            world.stable_mut(NodeId(node)).delete(&key);
            RpcReply::Unit
        }
        RpcOp::MoneyAudit { wallet_keys } => {
            let keys: Vec<&str> = wallet_keys.iter().map(String::as_str).collect();
            RpcReply::Audit(
                mar_platform::money_audit_world(world, &keys)
                    .into_iter()
                    .collect(),
            )
        }
        RpcOp::Snapshot => RpcReply::Snapshot(world.snapshot()),
    }
}

/// Builds this host's slice of the scenario world (not started).
fn build_world(
    wal_dir: Option<&std::path::Path>,
    scenario: &str,
    seed: u64,
    n_nodes: u32,
    owned: &[u32],
) -> io::Result<World> {
    let mut builder = scenarios::builder(scenario, seed)
        .ok_or_else(|| proto_err(format!("unknown scenario {scenario:?}")))?;
    if scenarios::node_count(scenario) != Some(n_nodes) {
        return Err(proto_err(format!(
            "scenario {scenario:?} has {:?} nodes, driver says {n_nodes}",
            scenarios::node_count(scenario)
        )));
    }
    if let Some(dir) = wal_dir {
        builder = builder.stable_backend(StableFactory::wal(WalConfig {
            path: Some(dir.to_path_buf()),
            ..WalConfig::default()
        }));
    }
    let owned: Vec<NodeId> = owned.iter().map(|&n| NodeId(n)).collect();
    builder
        .try_build_remote(&owned)
        .map_err(|e| proto_err(format!("scenario build failed: {e}")))
}

fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
