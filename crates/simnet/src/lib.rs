//! # mar-simnet
//!
//! A deterministic discrete-event simulator for distributed systems: the
//! substrate the mobile-agent platform runs on.
//!
//! The paper's mechanisms are protocol-level — what gets logged, which
//! transactions run where, how many transfers and bytes a rollback costs,
//! and how the system behaves under *non-lasting* node and network crashes.
//! This kernel reproduces exactly those quantities:
//!
//! * [`World`] — sharded deterministic event kernel with virtual [`SimTime`];
//!   total event order ⇒ bit-for-bit reproducible runs.
//! * [`Service`] — message-driven state machines hosted on nodes; volatile
//!   state dies with the node, and is rebuilt from a factory on recovery.
//! * [`StableStore`] — per-node crash-surviving key-value storage (agent
//!   input queues, transaction decision records) behind a pluggable
//!   [`StableBackend`]: the reference in-memory map, or a log-structured
//!   WAL with group commit, segments and a cleaner, and torn-tail recovery
//!   ([`stable::wal`]). Select one via [`WorldConfig::stable`].
//! * [`Network`] / [`LatencyModel`] — size-dependent latencies, link
//!   outages, partitions.
//! * [`FailurePlan`] — deterministic crash/outage schedules.
//! * [`Metrics`] / [`Trace`] — the raw material of every experiment table.
//!
//! # Examples
//!
//! ```
//! use mar_simnet::{Address, Ctx, Service, SimDuration, World, WorldConfig};
//!
//! struct Hello;
//! impl Service for Hello {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Address, payload: &[u8]) {
//!         ctx.stable_put("greeting", payload.to_vec());
//!     }
//! }
//!
//! let mut world = World::new(WorldConfig::with_seed(42));
//! let node = world.add_node();
//! world.add_service(node, "hello", || Box::new(Hello));
//! world.start();
//! world.post(Address::new(node, "hello"), b"hi".to_vec());
//! world.run_for(SimDuration::from_secs(1));
//! assert_eq!(world.stable(node).get("greeting"), Some(&b"hi"[..]));
//! ```

#![warn(missing_docs)]
// One module opts out: the WAL frame checksum, which calls the SSE4.2
// `crc32` instruction (`stable::wal`).
#![deny(unsafe_code)]

mod ctx;
mod event;
mod failure;
mod metrics;
mod net;
mod node;
mod remote;
mod rng;
pub mod stable;
mod time;
mod trace;
mod world;

pub use ctx::Ctx;
pub use failure::FailurePlan;
pub use metrics::{keys as metric_keys, Metrics, MetricsSnapshot};
pub use net::{LatencyModel, Network, MSG_OVERHEAD_BYTES};
pub use node::{Address, NodeId, Service, ServiceFactory};
pub use remote::{intern_service_name, RemoteEvent};
pub use rng::SimRng;
pub use stable::{BackendStats, MemBackend, StableBackend, StableFactory, StableStore};
pub use stable::{WalBackend, WalConfig};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceKind, TraceRecord};
pub use world::{window_end, ShardProfile, World, WorldConfig};
