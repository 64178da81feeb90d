//! # mar-txn
//!
//! The transactional substrate under the mobile-agent platform: no-wait
//! two-phase locking, before-image undo, transactional key-value stores,
//! resource managers, and presumed-abort two-phase commit.
//!
//! The paper executes every agent step inside a *step transaction* spanning
//! the executing node's resources and the next node's stable agent input
//! queue (§2), and every compensation inside a *compensation transaction*
//! with the same guarantees (§4.3). This crate supplies exactly those
//! mechanisms:
//!
//! * [`TxStore`] — in-place updates, before-images and the locks of
//!   [`LockTable`], one slot per key, give atomic, isolated local branches
//!   ("changes … are undone automatically"); a transaction's delta record
//!   is [`TxStore::delta`], taken at prepare or before commit.
//! * [`ResourceManager`] / [`RmRegistry`] — named transactional resources
//!   invoked from steps and compensating operations, made durable as a base
//!   image plus one delta record per commit ([`RmWrite`]).
//! * [`Coordinator`] / [`Participant`] — presumed-abort 2PC state machines
//!   in which the last participant decides, driven by a hosting service;
//!   see the module docs of [`mod@twopc`] for the crash-atomicity contract.
//!
//! Locking is deliberately *no-wait* (conflicts abort instead of blocking):
//! deadlock-free, deterministic under simulation, and still serializable —
//! the abort-and-retry loop is exactly the paper's "abort and restart the
//! step transaction".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod id;
mod lock;
mod msg;
mod rm;
mod store;
pub mod twopc;

pub use error::TxnError;
pub use id::{TxnId, TxnIdGen};
pub use lock::{LockMode, LockTable};
pub use msg::{RemoteWork, TxMsg};
pub use rm::{OpCtx, ResourceManager, RmRegistry, RmWrite};
pub use store::TxStore;
pub use twopc::{Action, Coordinator, LocalBranch, Participant, PreparedEntry};
