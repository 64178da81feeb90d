//! # mar-platform
//!
//! The Mole-like mobile-agent platform: nodes host a `mole` service that
//! combines the agent runtime (exactly-once step execution per \[11\]/§2),
//! the stable agent input queue, the transaction-manager roles, the
//! resource managers, and the partial-rollback machinery (Fig. 4/Fig. 5
//! executed inside compensation transactions).
//!
//! Quick tour:
//!
//! * implement [`AgentBehavior`] for your agent's step methods — inside a
//!   step, typed resource ops run and log their compensation in one call
//!   ([`StepCtx::invoke`]); `ctx.call`/`ctx.compensate` remain the raw
//!   escape hatch,
//! * describe *where* steps run with a `mar_itinerary::Itinerary`,
//! * wire nodes and resources with [`PlatformBuilder`]
//!   ([`PlatformBuilder::try_build`] surfaces configuration errors),
//! * [`Platform::launch`] (or [`Platform::launch_fleet`]) returns
//!   [`AgentHandle`]s; [`Platform::run_until_settled`] and
//!   [`Platform::drain_reports`] resolve completions through per-home-node
//!   driver mailboxes in O(completions).
//!
//! See the repository's `examples/` directory for complete scenarios and
//! `docs/API.md` for the API guide (including migration notes from the raw
//! pre-handle surface).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod behavior;
mod builder;
mod driver;
pub mod harvest;
mod itin;
mod lru;
mod mole;
mod msg;
mod stepctx;
mod work;

/// The hostile inputs of the workspace's decoder sweeps, for the decoders no
/// integration test can name (`work`, `itin`).
#[cfg(test)]
#[path = "../../core/tests/common/hostile.rs"]
mod hostile;

pub use behavior::{AgentBehavior, BehaviorRegistry, DuplicateBehavior, StepDecision};
pub use builder::{AgentSpec, BuildError, PlatformBuilder};
pub use driver::{AgentHandle, Platform};
pub use harvest::{audit_wallets, money_audit_world, DriverCore, DriverStable};
pub use mar_simnet::{StableFactory, WalConfig};
pub use mole::{keys as metric_keys, MoleCfg, MoleService, MOLE};
pub use msg::{AgentReport, MoleMsg, RceList, ReportOutcome, Tally};
pub use stepctx::{RmAccess, StepCtx};
