//! # mar-resources
//!
//! Transactional resources with compensating operations — the concrete
//! services the paper's example agents visit:
//!
//! * [`BankRm`] — accounts with deposit/withdraw/transfer; with overdraft
//!   the compensations are *sound*, without it they are *failable* (§3.2).
//! * [`ShopRm`] — stock, a till, and the time-dependent refund policy of
//!   §3.2 (cash minus fee inside a window, credit note after).
//! * [`MintRm`] / [`Wallet`] — Chaum-style digital cash; refunds are fresh
//!   coins with different serial numbers, making the wallet the canonical
//!   *weakly reversible object* (§4.1).
//! * [`ExchangeRm`] — currency conversion, whose compensation is the
//!   paper's example of a *mixed* compensation entry (§4.4.1).
//! * [`DirectoryRm`] — a read-only information service whose results live
//!   in *strongly reversible objects*.
//! * [`FlightRm`] — the travel-agency booking service with cancellation
//!   fees.
//!
//! [`register_compensations`] wires every compensating-operation handler
//! into a [`mar_core::comp::CompOpRegistry`], each under its entry kind —
//! the one place a kind is stated. The `comp_*` builders produce the
//! compensating operations agents log during forward execution; the
//! platform looks their kind up in the registry.
//!
//! The [`ops`] module is the *typed* surface over the same resources: one
//! struct per operation, with its compensation derived from the op and its
//! result ([`mar_core::comp::Compensable`]). `ctx.invoke(&op)` executes and
//! logs in one call; the raw `ctx.call` + `comp_*` pair remains the escape
//! hatch and produces byte-identical rollback-log frames.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bank;
mod comp_ops;
mod directory;
mod exchange;
mod flight;
mod mint;
pub mod ops;
mod shop;
mod util;
mod wallet;

pub use bank::{comp_undo_deposit, comp_undo_transfer, comp_undo_withdraw, BankAudit, BankRm};
pub use comp_ops::{
    comp_cancel_booking, comp_convert_back, comp_dir_retract, comp_return_account_order,
    comp_return_cash_order, comp_void_coin, comp_wro_add, comp_wro_list_pop, comp_wro_set,
    register_all as register_compensations,
};
pub use directory::DirectoryRm;
pub use exchange::ExchangeRm;
pub use flight::FlightRm;
pub use mint::{coin_from_value, MintRm};
pub use shop::{refund_from_value, RefundOutcome, RefundPolicy, ShopRm};
pub use wallet::{Coin, CreditNote, Wallet};
