//! `mar-net`: a real process/network boundary for the mobile-agent
//! platform.
//!
//! Everything below this crate simulates; this crate deploys. A fleet run
//! becomes one **driver** process (the coordinator — launches agents,
//! harvests reports, audits money) plus N **node-host** processes, each
//! owning a disjoint slice of the world's nodes, talking over
//! length-framed TCP or Unix-domain sockets. The wire format reuses
//! [`mar_wire`]'s LEB128 self-describing encoding end to end — the bytes
//! on the socket are the same bytes the simulator bills, so there is no
//! second encode path to drift.
//!
//! The layering, bottom up:
//!
//! - [`transport`] — framed byte streams: TCP / Unix-domain sockets and an
//!   in-process loopback for deterministic fault injection.
//! - [`proto`] — the protocol messages ([`proto::NetMsg`]) and the
//!   [`proto::Peer`] sequencing layer that drops duplicate frames and
//!   rejects malformed ones without corrupting state.
//! - [`scenarios`] — the world-builder registry every process compiles in,
//!   so a scenario name on the wire pins identical worlds everywhere.
//! - [`host`] — the node-host side: build owned slice, recover from the
//!   write-ahead log, obey the driver's lockstep windows, resume sessions
//!   across dead connections.
//! - [`driver`] — the coordinator: [`driver::NetPlatform`] mirrors the
//!   in-process `Platform` API over sockets, bit-identically, stalling and
//!   resuming (or degrading) around host failures.
//! - [`fault`] — deterministic chaos injection: a seeded
//!   [`fault::FaultPlan`] scripting drop/duplicate/delay/partition/kill
//!   against any transport.
//! - [`supervisor`] — the fleet supervisor: spawn driver + hosts, watch
//!   them, restart crashed hosts with jittered backoff under a budget, and
//!   run a fault script against them, keyed on lockstep windows.
//!
//! The design target is *observational equivalence*: a distributed run and
//! a single-process run of the same scenario and seed produce the same
//! reports, the same metric counters (transport diagnostics aside), and
//! the same money audit. The integration tests hold the crate to that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod fault;
pub mod host;
pub mod proto;
pub mod scenarios;
pub mod supervisor;
pub mod transport;

pub use driver::{netkeys, NetCfg, NetPlatform};
pub use fault::{FaultHandle, FaultPlan, FaultStats, FaultyTransport};
pub use host::{run_host, HostConfig, HostExit, HostRuntime, ServeCtl};
pub use proto::{NetMsg, Peer, PROTOCOL_VERSION};
pub use supervisor::{
    ChaosAction, ChaosEvent, Fleet, FleetConfig, FleetSummary, Recovery, RestartPolicy,
};
pub use transport::{Endpoint, Listener, Loopback, SocketTransport, Transport};
