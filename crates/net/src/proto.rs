//! The driver ⇄ node-host wire protocol.
//!
//! Every message is one [`mar_wire`]-encoded `Envelope` in one
//! length-delimited frame ([`mar_wire::frame`]) — the same LEB128 codec
//! that prices every simulated message, so there is no second encode path
//! to drift. The envelope carries a per-**session** monotonic sequence
//! number plus a cumulative acknowledgement of the reverse direction: a
//! duplicate (sequence ≤ last seen) is dropped and counted, a gap kills
//! the connection. Any malformed, truncated, or oversized frame likewise
//! kills the connection — peers never act on bytes they cannot fully
//! validate, so the blast radius of a broken peer is one socket, not one
//! process's state.
//!
//! # Sessions outlive connections
//!
//! A [`Peer`] is a *session*: sequence counters plus a replay buffer of
//! every sent frame not yet acknowledged. When a connection dies, the
//! session detaches from the dead transport and re-attaches to the next
//! one; both sides then [`Peer::replay_unacked`]. Because a frame is
//! pruned only once the other side's cumulative ack covers it, and that
//! ack is only sent for frames actually received, the replayed stream is
//! gapless from the receiver's next expected sequence — the receiver
//! drops what it already processed as duplicates and continues. The net
//! effect is exactly-once delivery across arbitrarily many reconnects,
//! which is what lets a fault-injected run match the fault-free control
//! byte for byte.
//!
//! Handshake frames ([`NetMsg::Hello`], [`NetMsg::Topology`]) are
//! **control frames** with sequence 0: unsequenced, never retained, sent
//! with [`send_ctl`]/received with [`recv_ctl`] on the raw transport
//! before a session (re)attaches. They must be, because a resuming host's
//! Hello would otherwise land ahead of its own replayed backlog.
//!
//! See `docs/WIRE.md` for the frame-by-frame handshake table.

use std::collections::VecDeque;
use std::io;

use mar_simnet::{MetricsSnapshot, RemoteEvent};
use mar_wire::Bytes;
use serde::{Deserialize, Serialize};

use crate::transport::Transport;

/// Protocol revision; a [`NetMsg::Hello`]/[`NetMsg::Topology`] version
/// mismatch is a handshake failure. Revision 2 added the envelope `ack`
/// field, session resumption, and the `Hello.resume`/`Topology.resume_ok`
/// handshake bits. Revision 3 sends a run boundary as an empty window (the
/// separate clock-advance request and its reply are gone) and a metrics
/// snapshot is its counters only. Revision 4 frames the two byte fields,
/// [`RemoteEvent::payload`] and [`RpcReply::Bytes`], as one `TAG_BYTES` run
/// each instead of one tagged varint per byte. Revision 5 carries the step
/// commit in which the last participant decides: a mole's `Tx` message has
/// a tally, its `Prepare` a `decide` flag, and a `Decision` or `Query` may
/// go either way between coordinator and participant.
pub const PROTOCOL_VERSION: u32 = 5;

/// Messages exchanged between the driver and a node host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetMsg {
    /// Host → driver, first message on every connection (a control
    /// frame, sequence 0).
    Hello {
        /// Protocol revision the host speaks.
        version: u32,
        /// Which host slot this process claims (0-based).
        host_id: u32,
        /// Whether the host still holds a live session (world + sequence
        /// state) and asks to resume it rather than rebuild from the WAL.
        resume: bool,
    },
    /// Driver → host, handshake reply: everything the host needs to build
    /// its world. The host constructs the scenario by name (the builder
    /// code is compiled into both binaries), owns exactly `owned`, marks
    /// every other node remote, advances its clock to `resume_us`
    /// (non-zero after a crash-recovery reconnection), and starts.
    Topology {
        /// Protocol revision the driver speaks.
        version: u32,
        /// Scenario name (see [`crate::scenarios`]).
        scenario: String,
        /// World seed; identical in every process.
        seed: u64,
        /// Total node count of the world.
        n_nodes: u32,
        /// Node ids this host owns.
        owned: Vec<u32>,
        /// Virtual time to resume at, in microseconds.
        resume_us: u64,
        /// Whether the driver accepted a [`NetMsg::Hello`] `resume`
        /// request: `true` means both sides keep their session and replay
        /// unacknowledged frames; `false` means the host must (re)build
        /// its world and open a fresh session with a `Ready`.
        resume_ok: bool,
    },
    /// Host → driver after starting its world: deliveries its nodes
    /// already diverted to remote peers, and its earliest pending event.
    Ready {
        /// Diverted deliveries from `World::start` (or crash recovery).
        egress: Vec<RemoteEvent>,
        /// Earliest pending local event, microseconds.
        next_min_us: Option<u64>,
    },
    /// Driver → host: deliveries destined to this host's nodes. Sent
    /// before the window that may process them; per-connection ordering is
    /// the window barrier.
    Inject {
        /// The deliveries, keys included.
        events: Vec<RemoteEvent>,
    },
    /// Driver → host: process every event strictly before `end_us`. A run
    /// boundary `t` is the window ending at `t + 1` sent when nothing is due:
    /// it processes no event and leaves the host's clock at `t`.
    RunWindow {
        /// Exclusive window end, microseconds.
        end_us: u64,
    },
    /// Host → driver when the window is done.
    WindowDone {
        /// Echo of the [`NetMsg::RunWindow`] `end_us` this answers — the
        /// driver pairs replies by it. `0` marks an **unsolicited** flush
        /// (a gracefully terminating host handing over its last egress and
        /// minimum); real window ends are always ≥ 1.
        end_us: u64,
        /// Deliveries diverted to remote nodes during the window.
        egress: Vec<RemoteEvent>,
        /// Earliest pending local event after the window, microseconds.
        next_min_us: Option<u64>,
    },
    /// Driver → host: a stable-storage or inspection call against a node
    /// this host owns. Only sent at quiescent points (between windows).
    Rpc {
        /// Request id, echoed in the reply.
        id: u64,
        /// The operation.
        op: RpcOp,
    },
    /// Host → driver RPC result.
    RpcReply {
        /// The request this answers.
        id: u64,
        /// The result.
        reply: RpcReply,
    },
    /// Driver → host: the run is over; exit cleanly.
    Shutdown,
}

/// Driver-initiated operations against a host's world (the remote form of
/// `mar_platform::DriverStable` plus audit/metrics inspection).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RpcOp {
    /// Sorted keys under a prefix in one node's stable store.
    KeysWithPrefix {
        /// The node (must be owned by this host).
        node: u32,
        /// Key prefix.
        prefix: String,
    },
    /// Read one stable key.
    Get {
        /// The node.
        node: u32,
        /// The key.
        key: String,
    },
    /// Delete one stable key.
    Delete {
        /// The node.
        node: u32,
        /// The key.
        key: String,
    },
    /// Sum committed money over this host's owned nodes
    /// (`mar_platform::money_audit_world`).
    MoneyAudit {
        /// WRO keys holding wallets in agent data spaces.
        wallet_keys: Vec<String>,
    },
    /// This host's metrics snapshot.
    Snapshot,
}

/// RPC results, matched to [`RpcOp`] by position in the conversation (the
/// `id` field pairs them; the variant must fit the op).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RpcReply {
    /// For [`RpcOp::KeysWithPrefix`].
    Keys(Vec<String>),
    /// For [`RpcOp::Get`].
    Bytes(Option<Bytes>),
    /// For [`RpcOp::Delete`].
    Unit,
    /// For [`RpcOp::MoneyAudit`]: currency → total.
    Audit(Vec<(String, i64)>),
    /// For [`RpcOp::Snapshot`].
    Snapshot(MetricsSnapshot),
}

/// The wrapper every frame carries: a session sequence number (0 for
/// control frames), a cumulative ack of the reverse direction, and the
/// message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Envelope {
    /// 1-based, monotonically increasing per session direction; 0 marks
    /// an unsequenced control frame (handshake only).
    seq: u64,
    /// Highest contiguous reverse-direction sequence received — prunes
    /// the sender's replay buffer.
    ack: u64,
    msg: NetMsg,
}

/// Encodes the frame an [`Envelope`] decodes from, with the message
/// borrowed: a tuple and a struct share one framing.
fn encode_envelope(seq: u64, ack: u64, msg: &NetMsg) -> io::Result<Vec<u8>> {
    mar_wire::to_bytes(&(seq, ack, msg))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn decode_envelope(frame: &[u8]) -> io::Result<Envelope> {
    let (env, used) = mar_wire::from_slice_prefix::<Envelope>(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if used != frame.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes after envelope",
        ));
    }
    Ok(env)
}

/// Sends one **control frame** (sequence 0, not retained) on a raw
/// transport — the handshake path, before a session attaches.
///
/// # Errors
///
/// Transport errors.
pub fn send_ctl<T: Transport>(transport: &mut T, msg: &NetMsg) -> io::Result<()> {
    transport.send(&encode_envelope(0, 0, msg)?)
}

/// Receives one **control frame** from a raw transport; `Ok(None)` is a
/// clean close.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] if the frame is malformed or carries a
/// session sequence number (the peer skipped its handshake); transport
/// errors pass through.
pub fn recv_ctl<T: Transport>(transport: &mut T) -> io::Result<Option<NetMsg>> {
    let frame = match transport.recv()? {
        Some(f) => f,
        None => return Ok(None),
    };
    let env = decode_envelope(&frame)?;
    if env.seq != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected control frame, got session seq {}", env.seq),
        ));
    }
    Ok(Some(env.msg))
}

/// A session of enveloped [`NetMsg`]s over a replaceable [`Transport`].
///
/// Validation on receive: frames must decode to an `Envelope` completely
/// (trailing bytes are an error); a stale sequence number is dropped and
/// counted ([`Peer::dups_dropped`]); a sequence gap is a connection error.
/// Every error path leaves the session's own state untouched — the
/// caller's recovery action is detaching the dead connection, attaching a
/// new one, and replaying ([`Peer::replay_unacked`]).
pub struct Peer<T: Transport> {
    transport: Option<T>,
    send_seq: u64,
    recv_seq: u64,
    dups_dropped: u64,
    /// Sent session frames (encoded, sequence attached) not yet covered
    /// by the peer's cumulative ack — the resend source after a
    /// reconnect.
    retained: VecDeque<(u64, Vec<u8>)>,
}

impl<T: Transport> Peer<T> {
    /// A fresh session attached to a connection (sequence numbers start
    /// at zero).
    pub fn new(transport: T) -> Self {
        Peer {
            transport: Some(transport),
            send_seq: 0,
            recv_seq: 0,
            dups_dropped: 0,
            retained: VecDeque::new(),
        }
    }

    /// A fresh session with no connection yet ([`Peer::attach`] one).
    pub fn detached() -> Self {
        Peer {
            transport: None,
            send_seq: 0,
            recv_seq: 0,
            dups_dropped: 0,
            retained: VecDeque::new(),
        }
    }

    /// Attaches a (re)connection to this session. Sequence state and the
    /// replay buffer are untouched: call [`Peer::replay_unacked`] next.
    pub fn attach(&mut self, transport: T) {
        self.transport = Some(transport);
    }

    /// Detaches the current connection (dead or being replaced),
    /// returning it. Session state is kept for resumption.
    pub fn detach(&mut self) -> Option<T> {
        self.transport.take()
    }

    /// Whether a connection is currently attached.
    pub fn is_attached(&self) -> bool {
        self.transport.is_some()
    }

    /// Duplicate frames dropped so far in this session.
    pub fn dups_dropped(&self) -> u64 {
        self.dups_dropped
    }

    /// Sent frames awaiting acknowledgement (the replay backlog).
    pub fn retained_len(&self) -> usize {
        self.retained.len()
    }

    /// Resends every retained (unacknowledged) frame on the attached
    /// connection — the second half of session resumption. The receiver
    /// drops what it already has as duplicates; anything newer continues
    /// the sequence with no gap, because pruning requires an ack and an
    /// ack requires receipt. Returns how many frames were replayed.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotConnected`] with no attached transport;
    /// transport errors (detach and retry on the next connection).
    pub fn replay_unacked(&mut self) -> io::Result<usize> {
        let transport = self
            .transport
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "session detached"))?;
        for (_, bytes) in &self.retained {
            transport.send(bytes)?;
        }
        Ok(self.retained.len())
    }

    /// Sends one message.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotConnected`] with no attached transport;
    /// transport errors (the connection is then unusable, but the frame
    /// is retained — detach, reattach, replay).
    pub fn send(&mut self, msg: &NetMsg) -> io::Result<()> {
        self.send_seq += 1;
        let bytes = encode_envelope(self.send_seq, self.recv_seq, msg)?;
        let sent = match self.transport.as_mut() {
            Some(transport) => transport.send(&bytes),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "session detached",
            )),
        };
        self.retained.push_back((self.send_seq, bytes));
        sent
    }

    /// Receives the next fresh message, transparently dropping duplicates
    /// and pruning the replay buffer by the peer's acks; `Ok(None)` is a
    /// clean close.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotConnected`] with no attached transport;
    /// [`io::ErrorKind::InvalidData`] for frames that do not decode to an
    /// envelope, decode with trailing garbage, carry a control sequence,
    /// or arrive out of order with a gap; transport errors (including
    /// retryable idle timeouts, see
    /// [`crate::transport::is_idle_timeout`]) pass through. For
    /// non-retryable errors the connection must be dropped — the session
    /// itself stays resumable.
    pub fn recv(&mut self) -> io::Result<Option<NetMsg>> {
        loop {
            let transport = self
                .transport
                .as_mut()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "session detached"))?;
            let frame = match transport.recv()? {
                Some(f) => f,
                None => return Ok(None),
            };
            let env = decode_envelope(&frame)?;
            while matches!(self.retained.front(), Some((seq, _)) if *seq <= env.ack) {
                self.retained.pop_front();
            }
            if env.seq == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "control frame inside an established session",
                ));
            }
            if env.seq <= self.recv_seq {
                self.dups_dropped += 1;
                continue;
            }
            if env.seq != self.recv_seq + 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "sequence gap: expected {}, got {}",
                        self.recv_seq + 1,
                        env.seq
                    ),
                ));
            }
            self.recv_seq = env.seq;
            return Ok(Some(env.msg));
        }
    }

    /// The underlying transport if attached (timeout control).
    pub fn transport_mut(&mut self) -> Option<&mut T> {
        self.transport.as_mut()
    }
}

/// The driver's node → host assignment: contiguous chunks, remainder
/// spread over the first hosts. Every process derives nothing from this —
/// the driver computes it once and ships each host its slice in
/// [`NetMsg::Topology`], so the policy can change without touching hosts.
pub fn ownership(n_nodes: u32, n_hosts: u32) -> Vec<Vec<u32>> {
    let n_hosts = n_hosts.max(1);
    let base = n_nodes / n_hosts;
    let extra = n_nodes % n_hosts;
    let mut out = Vec::with_capacity(n_hosts as usize);
    let mut next = 0u32;
    for h in 0..n_hosts {
        let take = base + u32::from(h < extra);
        out.push((next..next + take).collect());
        next += take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Loopback;

    #[test]
    fn ownership_partitions_every_node_once() {
        for (nodes, hosts) in [(5u32, 2u32), (7, 3), (2, 4), (1, 1), (16, 4)] {
            let split = ownership(nodes, hosts);
            assert_eq!(split.len(), hosts as usize);
            let mut all: Vec<u32> = split.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..nodes).collect::<Vec<_>>());
        }
    }

    /// What `send` puts on the wire is the derived `Envelope`'s encoding,
    /// byte for byte — `recv` decodes it as one.
    #[test]
    fn a_borrowed_envelope_encodes_as_the_derived_one() {
        for msg in [
            NetMsg::Shutdown,
            NetMsg::Topology {
                version: PROTOCOL_VERSION,
                scenario: "travel".into(),
                seed: 11,
                n_nodes: 5,
                owned: vec![0, 2, 4],
                resume_us: 9,
                resume_ok: true,
            },
            NetMsg::Inject {
                events: vec![RemoteEvent {
                    at_us: 40,
                    origin: 2,
                    seq: 5,
                    from_node: 2,
                    from_service: "mole".into(),
                    to_node: 3,
                    to_service: "mole".into(),
                    payload: Bytes::from(vec![0x0b, 0x01, 0x00]),
                    billed: 3,
                }],
            },
        ] {
            let (seq, ack) = (7, u64::MAX);
            let derived = mar_wire::to_bytes(&Envelope {
                seq,
                ack,
                msg: msg.clone(),
            });
            assert_eq!(encode_envelope(seq, ack, &msg).unwrap(), derived.unwrap());
        }
    }

    /// A relayed record or a stable value is one byte run on the wire: its
    /// frame costs the payload plus a constant, not ~3 bytes a byte.
    #[test]
    fn byte_fields_frame_as_one_run() {
        const N: usize = 4096;
        let payload = Bytes::from(vec![0xFF; N]);
        let event = RemoteEvent {
            at_us: 1_000_000,
            origin: 2,
            seq: 5,
            from_node: 2,
            from_service: "mole".into(),
            to_node: 3,
            to_service: "mole".into(),
            payload: payload.clone(),
            billed: N as u64,
        };
        for msg in [
            NetMsg::Inject {
                events: vec![event.clone()],
            },
            NetMsg::WindowDone {
                end_us: 1_000_001,
                egress: vec![event],
                next_min_us: Some(1_000_002),
            },
            NetMsg::RpcReply {
                id: 9,
                reply: RpcReply::Bytes(Some(payload)),
            },
        ] {
            let frame = encode_envelope(1_000, 999, &msg).unwrap();
            assert!(
                frame.len() <= N + 64,
                "a {N}-byte payload took {}",
                frame.len()
            );
            assert_eq!(decode_envelope(&frame).unwrap().msg, msg);
        }
    }

    #[test]
    fn peer_roundtrips_messages() {
        let (a, b) = Loopback::pair();
        let (mut a, mut b) = (Peer::new(a), Peer::new(b));
        a.send(&NetMsg::RunWindow { end_us: 77 }).unwrap();
        a.send(&NetMsg::Shutdown).unwrap();
        assert_eq!(b.recv().unwrap(), Some(NetMsg::RunWindow { end_us: 77 }));
        assert_eq!(b.recv().unwrap(), Some(NetMsg::Shutdown));
    }

    #[test]
    fn control_frames_roundtrip_outside_sessions() {
        let (mut a, mut b) = Loopback::pair();
        let hello = NetMsg::Hello {
            version: PROTOCOL_VERSION,
            host_id: 1,
            resume: false,
        };
        send_ctl(&mut a, &hello).unwrap();
        assert_eq!(recv_ctl(&mut b).unwrap(), Some(hello));
        // A session frame where a control frame is expected is an error.
        let mut a = Peer::new(a);
        a.send(&NetMsg::Shutdown).unwrap();
        let err = recv_ctl(&mut b).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn duplicate_frames_are_dropped_not_redelivered() {
        let (mut raw, b) = Loopback::pair();
        let mut b = Peer::new(b);
        let env = Envelope {
            seq: 1,
            ack: 0,
            msg: NetMsg::Shutdown,
        };
        let bytes = mar_wire::to_bytes(&env).unwrap();
        raw.send(&bytes).unwrap();
        raw.send(&bytes).unwrap(); // duplicate delivery
        let env2 = Envelope {
            seq: 2,
            ack: 0,
            msg: NetMsg::RunWindow { end_us: 9 },
        };
        raw.send(&mar_wire::to_bytes(&env2).unwrap()).unwrap();
        assert_eq!(b.recv().unwrap(), Some(NetMsg::Shutdown));
        assert_eq!(b.recv().unwrap(), Some(NetMsg::RunWindow { end_us: 9 }));
        assert_eq!(b.dups_dropped(), 1);
    }

    #[test]
    fn sequence_gap_is_a_connection_error() {
        let (mut raw, b) = Loopback::pair();
        let mut b = Peer::new(b);
        let env = Envelope {
            seq: 3,
            ack: 0,
            msg: NetMsg::Shutdown,
        };
        raw.send(&mar_wire::to_bytes(&env).unwrap()).unwrap();
        let err = b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn session_resumes_across_a_dead_connection_with_replay() {
        let (a1, b1) = Loopback::pair();
        let mut a = Peer::new(a1);
        let mut b = Peer::new(b1);
        a.send(&NetMsg::RunWindow { end_us: 1 }).unwrap();
        assert_eq!(b.recv().unwrap(), Some(NetMsg::RunWindow { end_us: 1 }));
        // b acks seq 1 by sending; a prunes on receive.
        let done = NetMsg::WindowDone {
            end_us: 1,
            egress: Vec::new(),
            next_min_us: None,
        };
        b.send(&done).unwrap();
        assert_eq!(a.recv().unwrap(), Some(done));
        assert_eq!(a.retained_len(), 0);
        // Two more frames; the connection dies before b sees them.
        a.send(&NetMsg::RunWindow { end_us: 2 }).unwrap();
        a.send(&NetMsg::RunWindow { end_us: 3 }).unwrap();
        drop(a.detach());
        drop(b.detach());
        // Reconnect: both sides attach fresh loopback ends and replay.
        let (a2, b2) = Loopback::pair();
        a.attach(a2);
        b.attach(b2);
        assert_eq!(a.replay_unacked().unwrap(), 2);
        assert_eq!(b.replay_unacked().unwrap(), 1);
        assert_eq!(b.recv().unwrap(), Some(NetMsg::RunWindow { end_us: 2 }));
        assert_eq!(b.recv().unwrap(), Some(NetMsg::RunWindow { end_us: 3 }));
        // a sees b's replayed (already-processed) frame as a duplicate.
        b.send(&NetMsg::WindowDone {
            end_us: 3,
            egress: Vec::new(),
            next_min_us: Some(9),
        })
        .unwrap();
        assert_eq!(
            a.recv().unwrap(),
            Some(NetMsg::WindowDone {
                end_us: 3,
                egress: Vec::new(),
                next_min_us: Some(9)
            })
        );
        assert_eq!(a.dups_dropped(), 1);
        // That WindowDone acked everything a had outstanding.
        assert_eq!(a.retained_len(), 0);
    }

    #[test]
    fn malformed_frames_are_a_connection_error() {
        let (mut raw, b) = Loopback::pair();
        let mut b = Peer::new(b);
        raw.send(&[0xff, 0x00, 0x13, 0x37]).unwrap();
        let err = b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
