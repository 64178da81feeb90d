//! Typed operations for every resource in this crate.
//!
//! Each struct here describes one forward operation: its target resource,
//! its parameters, its decoded result — and, for operations with committed
//! effects, the compensating operation *derived from the op and its result*
//! ([`Compensable`]). `ctx.invoke(&op)` on the platform's step context then
//! executes the forward call and logs the compensation atomically; the raw
//! `ctx.call` + `ctx.compensate` pair stays available as the escape hatch
//! and produces byte-identical rollback-log frames (pinned by the
//! platform's `typed_ops_props` property test).
//!
//! No op states an entry kind: each compensation's kind is the one its
//! handler is registered under ([`register_compensations`]), and the
//! platform looks it up when it logs the entry.
//!
//! Read-only operations ([`Balance`], [`QuoteFlight`], [`QuoteItem`],
//! [`QuoteRate`], [`VerifyCoin`], [`QueryTopic`]) implement only
//! [`ResourceOp`] and are driven with `ctx.query(&op)` — nothing to
//! compensate.
//!
//! The wallet is not a resource manager but a weakly reversible object; its
//! typed surface is split between the mixed ops that reference it by WRO
//! key ([`BuyWithCash`], [`ConvertCash`]) and the generic [`WroOp`]s
//! ([`WroSet`], [`WroAdd`], [`WroPush`]) that pair a WRO write with its
//! derived agent compensation entry.
//!
//! [`register_compensations`]: crate::register_compensations

use mar_core::comp::{CompOp, Compensable, ResourceOp, WroOp};
use mar_core::DataSpace;
use mar_wire::{Value, WireError};

use crate::bank::{comp_undo_deposit, comp_undo_transfer, comp_undo_withdraw};
use crate::comp_ops::{
    comp_cancel_booking, comp_convert_back, comp_dir_retract, comp_return_account_order,
    comp_return_cash_order, comp_void_coin, comp_wro_add, comp_wro_list_pop, comp_wro_set,
};
use crate::wallet::Coin;

fn map_err(what: &str) -> WireError {
    WireError::Message(format!("unexpected result shape: {what}"))
}

fn decode_i64(raw: &Value, what: &str) -> Result<i64, WireError> {
    raw.as_i64().ok_or_else(|| map_err(what))
}

fn decode_str_field(raw: &Value, field: &str) -> Result<String, WireError> {
    raw.get(field)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| map_err(field))
}

fn decode_i64_field(raw: &Value, field: &str) -> Result<i64, WireError> {
    raw.get(field)
        .and_then(Value::as_i64)
        .ok_or_else(|| map_err(field))
}

// ---- bank ------------------------------------------------------------------

/// Typed `bank.deposit`: credits `amount` to `account`.
///
/// Compensation: `bank.undo_deposit` — §3.2's *failable* example (the
/// compensating withdrawal needs the funds to still be there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deposit {
    /// Bank resource name.
    pub bank: String,
    /// Target account.
    pub account: String,
    /// Amount to credit.
    pub amount: i64,
}

impl Deposit {
    /// Constructs the op.
    pub fn new(bank: impl Into<String>, account: impl Into<String>, amount: i64) -> Self {
        Deposit {
            bank: bank.into(),
            account: account.into(),
            amount,
        }
    }
}

impl ResourceOp for Deposit {
    type Output = i64;

    fn resource(&self) -> &str {
        &self.bank
    }

    fn op(&self) -> &str {
        "deposit"
    }

    fn params(&self) -> Value {
        Value::map([
            ("account", Value::from(self.account.as_str())),
            ("amount", Value::from(self.amount)),
        ])
    }

    fn decode(&self, raw: &Value) -> Result<i64, WireError> {
        decode_i64(raw, "deposit balance")
    }
}

impl Compensable for Deposit {
    fn compensation(&self, _new_balance: &i64) -> CompOp {
        comp_undo_deposit(&self.bank, &self.account, self.amount)
    }
}

/// Typed `bank.withdraw`: debits `amount` from `account`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Withdraw {
    /// Bank resource name.
    pub bank: String,
    /// Source account.
    pub account: String,
    /// Amount to debit.
    pub amount: i64,
}

impl Withdraw {
    /// Constructs the op.
    pub fn new(bank: impl Into<String>, account: impl Into<String>, amount: i64) -> Self {
        Withdraw {
            bank: bank.into(),
            account: account.into(),
            amount,
        }
    }
}

impl ResourceOp for Withdraw {
    type Output = i64;

    fn resource(&self) -> &str {
        &self.bank
    }

    fn op(&self) -> &str {
        "withdraw"
    }

    fn params(&self) -> Value {
        Value::map([
            ("account", Value::from(self.account.as_str())),
            ("amount", Value::from(self.amount)),
        ])
    }

    fn decode(&self, raw: &Value) -> Result<i64, WireError> {
        decode_i64(raw, "withdraw balance")
    }
}

impl Compensable for Withdraw {
    fn compensation(&self, _new_balance: &i64) -> CompOp {
        comp_undo_withdraw(&self.bank, &self.account, self.amount)
    }
}

/// Typed `bank.transfer`: moves `amount` from `from` to `to` — the paper's
/// §4.4.1 example of a pure resource compensation entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Bank resource name.
    pub bank: String,
    /// Source account.
    pub from: String,
    /// Destination account.
    pub to: String,
    /// Amount to move.
    pub amount: i64,
}

impl Transfer {
    /// Constructs the op.
    pub fn new(
        bank: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
        amount: i64,
    ) -> Self {
        Transfer {
            bank: bank.into(),
            from: from.into(),
            to: to.into(),
            amount,
        }
    }
}

impl ResourceOp for Transfer {
    type Output = ();

    fn resource(&self) -> &str {
        &self.bank
    }

    fn op(&self) -> &str {
        "transfer"
    }

    fn params(&self) -> Value {
        Value::map([
            ("from", Value::from(self.from.as_str())),
            ("to", Value::from(self.to.as_str())),
            ("amount", Value::from(self.amount)),
        ])
    }

    fn decode(&self, _raw: &Value) -> Result<(), WireError> {
        Ok(())
    }
}

impl Compensable for Transfer {
    fn compensation(&self, _out: &()) -> CompOp {
        comp_undo_transfer(&self.bank, &self.from, &self.to, self.amount)
    }
}

/// Typed read-only `bank.balance`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Balance {
    /// Bank resource name.
    pub bank: String,
    /// Account to inspect.
    pub account: String,
}

impl Balance {
    /// Constructs the op.
    pub fn new(bank: impl Into<String>, account: impl Into<String>) -> Self {
        Balance {
            bank: bank.into(),
            account: account.into(),
        }
    }
}

impl ResourceOp for Balance {
    type Output = i64;

    fn resource(&self) -> &str {
        &self.bank
    }

    fn op(&self) -> &str {
        "balance"
    }

    fn params(&self) -> Value {
        Value::map([("account", Value::from(self.account.as_str()))])
    }

    fn decode(&self, raw: &Value) -> Result<i64, WireError> {
        decode_i64(raw, "balance")
    }
}

// ---- flight ----------------------------------------------------------------

/// A committed flight booking (result of [`BookFlight`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Booking {
    /// The booking id the compensation needs to cancel.
    pub booking_id: String,
}

/// Typed `flight.book`: books a seat, paying `paid` already withdrawn from
/// `refund_account`. The compensation — derived from the *result's*
/// `booking_id` — cancels the booking and refunds the fare (minus the
/// cancellation fee) back to that account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BookFlight {
    /// Flight resource name.
    pub air: String,
    /// Flight identifier.
    pub flight: String,
    /// Passenger name.
    pub passenger: String,
    /// Fare paid.
    pub paid: i64,
    /// Bank holding the refund account.
    pub refund_bank: String,
    /// Account refunds go back to.
    pub refund_account: String,
}

impl BookFlight {
    /// Constructs the op.
    pub fn new(
        air: impl Into<String>,
        flight: impl Into<String>,
        passenger: impl Into<String>,
        paid: i64,
        refund_bank: impl Into<String>,
        refund_account: impl Into<String>,
    ) -> Self {
        BookFlight {
            air: air.into(),
            flight: flight.into(),
            passenger: passenger.into(),
            paid,
            refund_bank: refund_bank.into(),
            refund_account: refund_account.into(),
        }
    }
}

impl ResourceOp for BookFlight {
    type Output = Booking;

    fn resource(&self) -> &str {
        &self.air
    }

    fn op(&self) -> &str {
        "book"
    }

    fn params(&self) -> Value {
        Value::map([
            ("flight", Value::from(self.flight.as_str())),
            ("passenger", Value::from(self.passenger.as_str())),
            ("paid", Value::from(self.paid)),
        ])
    }

    fn decode(&self, raw: &Value) -> Result<Booking, WireError> {
        Ok(Booking {
            booking_id: decode_str_field(raw, "booking_id")?,
        })
    }
}

impl Compensable for BookFlight {
    fn compensation(&self, booking: &Booking) -> CompOp {
        comp_cancel_booking(
            &self.air,
            &booking.booking_id,
            &self.refund_bank,
            &self.refund_account,
        )
    }
}

/// A flight quote (result of [`QuoteFlight`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightQuote {
    /// Fare.
    pub price: i64,
    /// Free seats.
    pub seats: i64,
}

/// Typed read-only `flight.quote`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuoteFlight {
    /// Flight resource name.
    pub air: String,
    /// Flight identifier.
    pub flight: String,
}

impl QuoteFlight {
    /// Constructs the op.
    pub fn new(air: impl Into<String>, flight: impl Into<String>) -> Self {
        QuoteFlight {
            air: air.into(),
            flight: flight.into(),
        }
    }
}

impl ResourceOp for QuoteFlight {
    type Output = FlightQuote;

    fn resource(&self) -> &str {
        &self.air
    }

    fn op(&self) -> &str {
        "quote"
    }

    fn params(&self) -> Value {
        Value::map([("flight", Value::from(self.flight.as_str()))])
    }

    fn decode(&self, raw: &Value) -> Result<FlightQuote, WireError> {
        Ok(FlightQuote {
            price: decode_i64_field(raw, "price")?,
            seats: decode_i64_field(raw, "seats")?,
        })
    }
}

// ---- shop ------------------------------------------------------------------

/// A committed shop order (result of [`BuyWithAccount`] / [`BuyWithCash`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    /// The order id the compensation needs to return.
    pub order_id: String,
    /// Total charged.
    pub cost: i64,
}

fn decode_order(raw: &Value) -> Result<Order, WireError> {
    Ok(Order {
        order_id: decode_str_field(raw, "order_id")?,
        cost: decode_i64_field(raw, "cost")?,
    })
}

/// Typed `shop.buy_paid` for account-paid purchases: the price was withdrawn
/// from `refund_bank`/`refund_account` in the same step transaction.
/// Compensation returns the order and deposits the cash refund back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuyWithAccount {
    /// Shop resource name.
    pub shop: String,
    /// Item SKU.
    pub sku: String,
    /// Quantity.
    pub qty: i64,
    /// Amount paid (must equal price × qty).
    pub paid: i64,
    /// Bank holding the refund account.
    pub refund_bank: String,
    /// Account refunds go back to.
    pub refund_account: String,
}

impl BuyWithAccount {
    /// Constructs the op.
    pub fn new(
        shop: impl Into<String>,
        sku: impl Into<String>,
        qty: i64,
        paid: i64,
        refund_bank: impl Into<String>,
        refund_account: impl Into<String>,
    ) -> Self {
        BuyWithAccount {
            shop: shop.into(),
            sku: sku.into(),
            qty,
            paid,
            refund_bank: refund_bank.into(),
            refund_account: refund_account.into(),
        }
    }
}

impl ResourceOp for BuyWithAccount {
    type Output = Order;

    fn resource(&self) -> &str {
        &self.shop
    }

    fn op(&self) -> &str {
        "buy_paid"
    }

    fn params(&self) -> Value {
        Value::map([
            ("sku", Value::from(self.sku.as_str())),
            ("qty", Value::from(self.qty)),
            ("paid", Value::from(self.paid)),
        ])
    }

    fn decode(&self, raw: &Value) -> Result<Order, WireError> {
        decode_order(raw)
    }
}

impl Compensable for BuyWithAccount {
    fn compensation(&self, order: &Order) -> CompOp {
        comp_return_account_order(
            &self.shop,
            &order.order_id,
            &self.refund_bank,
            &self.refund_account,
        )
    }
}

/// Typed `shop.buy_paid` for cash purchases: coins already left the wallet
/// under `wallet_key`. The compensation is *mixed* — returning the order
/// refunds freshly minted coins (different serials!) or a credit note into
/// the wallet, so the agent must be at the shop's node to run it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuyWithCash {
    /// Shop resource name.
    pub shop: String,
    /// Mint issuing refund coins.
    pub mint: String,
    /// Item SKU.
    pub sku: String,
    /// Quantity.
    pub qty: i64,
    /// Amount paid (must equal price × qty).
    pub paid: i64,
    /// Weakly reversible object holding the wallet.
    pub wallet_key: String,
    /// Currency of refunds and credit notes.
    pub currency: String,
}

impl BuyWithCash {
    /// Constructs the op.
    pub fn new(
        shop: impl Into<String>,
        mint: impl Into<String>,
        sku: impl Into<String>,
        qty: i64,
        paid: i64,
        wallet_key: impl Into<String>,
        currency: impl Into<String>,
    ) -> Self {
        BuyWithCash {
            shop: shop.into(),
            mint: mint.into(),
            sku: sku.into(),
            qty,
            paid,
            wallet_key: wallet_key.into(),
            currency: currency.into(),
        }
    }
}

impl ResourceOp for BuyWithCash {
    type Output = Order;

    fn resource(&self) -> &str {
        &self.shop
    }

    fn op(&self) -> &str {
        "buy_paid"
    }

    fn params(&self) -> Value {
        Value::map([
            ("sku", Value::from(self.sku.as_str())),
            ("qty", Value::from(self.qty)),
            ("paid", Value::from(self.paid)),
        ])
    }

    fn decode(&self, raw: &Value) -> Result<Order, WireError> {
        decode_order(raw)
    }
}

impl Compensable for BuyWithCash {
    fn compensation(&self, order: &Order) -> CompOp {
        comp_return_cash_order(
            &self.shop,
            &self.mint,
            &order.order_id,
            &self.wallet_key,
            &self.currency,
        )
    }
}

/// An item quote (result of [`QuoteItem`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemQuote {
    /// Unit price.
    pub price: i64,
    /// Units in stock.
    pub stock: i64,
}

/// Typed read-only `shop.quote`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuoteItem {
    /// Shop resource name.
    pub shop: String,
    /// Item SKU.
    pub sku: String,
}

impl QuoteItem {
    /// Constructs the op.
    pub fn new(shop: impl Into<String>, sku: impl Into<String>) -> Self {
        QuoteItem {
            shop: shop.into(),
            sku: sku.into(),
        }
    }
}

impl ResourceOp for QuoteItem {
    type Output = ItemQuote;

    fn resource(&self) -> &str {
        &self.shop
    }

    fn op(&self) -> &str {
        "quote"
    }

    fn params(&self) -> Value {
        Value::map([("sku", Value::from(self.sku.as_str()))])
    }

    fn decode(&self, raw: &Value) -> Result<ItemQuote, WireError> {
        Ok(ItemQuote {
            price: decode_i64_field(raw, "price")?,
            stock: decode_i64_field(raw, "stock")?,
        })
    }
}

// ---- exchange --------------------------------------------------------------

/// Typed `exchange.convert`: converts `amount` of `from`-currency (already
/// surrendered from the wallet) into a fresh coin of `to`-currency. The
/// compensation is the paper's §4.4.1 *mixed* example: converting back
/// needs the exchange **and** the wallet, and the amount converted back is
/// whatever the wallet still holds of the received coin's value — derived
/// here from the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvertCash {
    /// Exchange resource name.
    pub exchange: String,
    /// Source currency.
    pub from: String,
    /// Target currency.
    pub to: String,
    /// Amount of source currency surrendered.
    pub amount: i64,
    /// Weakly reversible object holding the wallet.
    pub wallet_key: String,
}

impl ConvertCash {
    /// Constructs the op.
    pub fn new(
        exchange: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
        amount: i64,
        wallet_key: impl Into<String>,
    ) -> Self {
        ConvertCash {
            exchange: exchange.into(),
            from: from.into(),
            to: to.into(),
            amount,
            wallet_key: wallet_key.into(),
        }
    }
}

impl ResourceOp for ConvertCash {
    type Output = Coin;

    fn resource(&self) -> &str {
        &self.exchange
    }

    fn op(&self) -> &str {
        "convert"
    }

    fn params(&self) -> Value {
        Value::map([
            ("from", Value::from(self.from.as_str())),
            ("to", Value::from(self.to.as_str())),
            ("amount", Value::from(self.amount)),
        ])
    }

    fn decode(&self, raw: &Value) -> Result<Coin, WireError> {
        mar_wire::from_value(raw)
    }
}

impl Compensable for ConvertCash {
    fn compensation(&self, coin: &Coin) -> CompOp {
        comp_convert_back(
            &self.exchange,
            &self.from,
            &self.to,
            coin.value,
            &self.wallet_key,
        )
    }
}

/// A conversion rate (result of [`QuoteRate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateQuote {
    /// Numerator.
    pub num: i64,
    /// Denominator.
    pub den: i64,
}

/// Typed read-only `exchange.rate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuoteRate {
    /// Exchange resource name.
    pub exchange: String,
    /// Source currency.
    pub from: String,
    /// Target currency.
    pub to: String,
}

impl QuoteRate {
    /// Constructs the op.
    pub fn new(
        exchange: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
    ) -> Self {
        QuoteRate {
            exchange: exchange.into(),
            from: from.into(),
            to: to.into(),
        }
    }
}

impl ResourceOp for QuoteRate {
    type Output = RateQuote;

    fn resource(&self) -> &str {
        &self.exchange
    }

    fn op(&self) -> &str {
        "rate"
    }

    fn params(&self) -> Value {
        Value::map([
            ("from", Value::from(self.from.as_str())),
            ("to", Value::from(self.to.as_str())),
        ])
    }

    fn decode(&self, raw: &Value) -> Result<RateQuote, WireError> {
        Ok(RateQuote {
            num: decode_i64_field(raw, "num")?,
            den: decode_i64_field(raw, "den")?,
        })
    }
}

// ---- mint ------------------------------------------------------------------

/// Typed `mint.issue`: issues a fresh coin worth `amount`. The compensation
/// — derived from the issued coin's serial — voids that exact coin again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueCoins {
    /// Mint resource name.
    pub mint: String,
    /// Face value to issue.
    pub amount: i64,
}

impl IssueCoins {
    /// Constructs the op.
    pub fn new(mint: impl Into<String>, amount: i64) -> Self {
        IssueCoins {
            mint: mint.into(),
            amount,
        }
    }
}

impl ResourceOp for IssueCoins {
    type Output = Coin;

    fn resource(&self) -> &str {
        &self.mint
    }

    fn op(&self) -> &str {
        "issue"
    }

    fn params(&self) -> Value {
        Value::map([("amount", Value::from(self.amount))])
    }

    fn decode(&self, raw: &Value) -> Result<Coin, WireError> {
        mar_wire::from_value(raw)
    }
}

impl Compensable for IssueCoins {
    fn compensation(&self, coin: &Coin) -> CompOp {
        comp_void_coin(&self.mint, &coin.serial)
    }
}

/// Typed read-only `mint.verify`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyCoin {
    /// Mint resource name.
    pub mint: String,
    /// Serial to check.
    pub serial: String,
}

impl VerifyCoin {
    /// Constructs the op.
    pub fn new(mint: impl Into<String>, serial: impl Into<String>) -> Self {
        VerifyCoin {
            mint: mint.into(),
            serial: serial.into(),
        }
    }
}

impl ResourceOp for VerifyCoin {
    type Output = bool;

    fn resource(&self) -> &str {
        &self.mint
    }

    fn op(&self) -> &str {
        "verify"
    }

    fn params(&self) -> Value {
        Value::map([("serial", Value::from(self.serial.as_str()))])
    }

    fn decode(&self, raw: &Value) -> Result<bool, WireError> {
        raw.as_bool().ok_or_else(|| map_err("verify flag"))
    }
}

// ---- directory -------------------------------------------------------------

/// Typed `dir.publish`: appends `entry` under `topic`. Compensation
/// retracts the most recent entry of the topic again.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishEntry {
    /// Directory resource name.
    pub dir: String,
    /// Topic to publish under.
    pub topic: String,
    /// The published entry.
    pub entry: Value,
}

impl PublishEntry {
    /// Constructs the op.
    pub fn new(dir: impl Into<String>, topic: impl Into<String>, entry: Value) -> Self {
        PublishEntry {
            dir: dir.into(),
            topic: topic.into(),
            entry,
        }
    }
}

impl ResourceOp for PublishEntry {
    type Output = ();

    fn resource(&self) -> &str {
        &self.dir
    }

    fn op(&self) -> &str {
        "publish"
    }

    fn params(&self) -> Value {
        Value::map([
            ("topic", Value::from(self.topic.as_str())),
            ("entry", self.entry.clone()),
        ])
    }

    fn decode(&self, _raw: &Value) -> Result<(), WireError> {
        Ok(())
    }
}

impl Compensable for PublishEntry {
    fn compensation(&self, _out: &()) -> CompOp {
        comp_dir_retract(&self.dir, &self.topic)
    }
}

/// Typed read-only `dir.query`: all entries under a topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTopic {
    /// Directory resource name.
    pub dir: String,
    /// Topic to query.
    pub topic: String,
}

impl QueryTopic {
    /// Constructs the op.
    pub fn new(dir: impl Into<String>, topic: impl Into<String>) -> Self {
        QueryTopic {
            dir: dir.into(),
            topic: topic.into(),
        }
    }
}

impl ResourceOp for QueryTopic {
    type Output = Vec<Value>;

    fn resource(&self) -> &str {
        &self.dir
    }

    fn op(&self) -> &str {
        "query"
    }

    fn params(&self) -> Value {
        Value::map([("topic", Value::from(self.topic.as_str()))])
    }

    fn decode(&self, raw: &Value) -> Result<Vec<Value>, WireError> {
        raw.as_list()
            .map(<[Value]>::to_vec)
            .ok_or_else(|| map_err("query list"))
    }
}

// ---- weakly reversible objects ---------------------------------------------

/// Typed WRO write: sets `key` to `value`, deriving the ACE that restores
/// the *previous* value (captured automatically — `Null` when the key was
/// absent, matching the `wro.set` handler's semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct WroSet {
    /// WRO key.
    pub key: String,
    /// New value.
    pub value: Value,
}

impl WroSet {
    /// Constructs the op.
    pub fn new(key: impl Into<String>, value: Value) -> Self {
        WroSet {
            key: key.into(),
            value,
        }
    }
}

impl WroOp for WroSet {
    type Output = Option<Value>;

    fn apply(&self, data: &mut DataSpace) -> (Option<Value>, CompOp) {
        let before = data.wro(&self.key).cloned();
        data.set_wro(self.key.clone(), self.value.clone());
        let comp = comp_wro_set(&self.key, before.clone().unwrap_or(Value::Null));
        (before, comp)
    }
}

/// Typed WRO counter bump: adds `delta` to an integer key (0 when absent),
/// deriving the ACE that subtracts it again. If the key holds a
/// non-integer value the write still clobbers it (matching the `wro.add_i64`
/// handler's forward semantics), but the derived ACE becomes a
/// `wro.set` restore of the captured before-image — `add -delta` could only
/// roll the clobbered value back to an integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WroAdd<'a> {
    /// WRO key.
    pub key: &'a str,
    /// Signed delta.
    pub delta: i64,
}

impl<'a> WroAdd<'a> {
    /// Constructs the op.
    pub fn new(key: &'a str, delta: i64) -> Self {
        WroAdd { key, delta }
    }
}

impl WroOp for WroAdd<'_> {
    type Output = i64;

    fn apply(&self, data: &mut DataSpace) -> (i64, CompOp) {
        let before = data.wro(self.key).cloned();
        let cur = before.as_ref().and_then(Value::as_i64).unwrap_or(0);
        let next = cur + self.delta;
        data.set_wro(self.key.to_owned(), Value::from(next));
        let comp = match before {
            // Integer (or absent, which the handler reads as 0): the
            // inverse delta restores it exactly.
            None => comp_wro_add(self.key, -self.delta),
            Some(v) if v.as_i64().is_some() => comp_wro_add(self.key, -self.delta),
            // Clobbered a non-integer: only the before-image restores it.
            Some(v) => comp_wro_set(self.key, v),
        };
        (next, comp)
    }
}

/// Typed WRO list append: pushes `value` onto a list key (creating it),
/// deriving the ACE that pops the last element again. If the key holds a
/// non-list value the write still replaces it with a fresh one-element list
/// (create-on-push semantics), but the derived ACE becomes a `wro.set`
/// restore of the captured before-image — a `list_pop` could never bring
/// the replaced value back.
#[derive(Debug, Clone, PartialEq)]
pub struct WroPush {
    /// WRO key.
    pub key: String,
    /// Element to append.
    pub value: Value,
}

impl WroPush {
    /// Constructs the op.
    pub fn new(key: impl Into<String>, value: Value) -> Self {
        WroPush {
            key: key.into(),
            value,
        }
    }
}

impl WroOp for WroPush {
    type Output = ();

    fn apply(&self, data: &mut DataSpace) -> ((), CompOp) {
        if let Some(Value::List(items)) = data.wro_mut(&self.key) {
            items.push(self.value.clone());
            return ((), comp_wro_list_pop(&self.key));
        }
        let before = data.wro(&self.key).cloned();
        data.set_wro(self.key.clone(), Value::List(vec![self.value.clone()]));
        let comp = match before {
            // Created the list: popping the only element restores "empty"
            // (the closest state representable without deleting the key).
            None => comp_wro_list_pop(&self.key),
            // Clobbered a non-list: only the before-image restores it.
            Some(v) => comp_wro_set(&self.key, v),
        };
        ((), comp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_params_match_raw_call_shapes() {
        let t = Transfer::new("bank", "a", "b", 10);
        assert_eq!(
            t.params(),
            Value::map([
                ("from", Value::from("a")),
                ("to", Value::from("b")),
                ("amount", Value::from(10i64)),
            ])
        );
        assert_eq!(t.resource(), "bank");
        assert_eq!(t.op(), "transfer");
        assert_eq!(
            t.compensation(&()),
            comp_undo_transfer("bank", "a", "b", 10)
        );
    }

    #[test]
    fn book_flight_derives_comp_from_result() {
        let b = BookFlight::new("air", "LH1", "alice", 300, "bank", "alice");
        let booking = b
            .decode(&Value::map([("booking_id", Value::from("air-b1"))]))
            .unwrap();
        assert_eq!(booking.booking_id, "air-b1");
        let comp = b.compensation(&booking);
        assert_eq!(comp, comp_cancel_booking("air", "air-b1", "bank", "alice"));
    }

    #[test]
    fn wro_ops_derive_inverse_entries() {
        let mut data = DataSpace::new();
        let (out, comp) = WroAdd::new("n", 5).apply(&mut data);
        assert_eq!(out, 5);
        assert_eq!(comp, comp_wro_add("n", -5));

        let (before, comp) = WroSet::new("flag", Value::Bool(true)).apply(&mut data);
        assert_eq!(before, None);
        assert_eq!(comp, comp_wro_set("flag", Value::Null));
        let (before, _) = WroSet::new("flag", Value::Bool(false)).apply(&mut data);
        assert_eq!(before, Some(Value::Bool(true)));

        let ((), comp) = WroPush::new("log", Value::from(1i64)).apply(&mut data);
        assert_eq!(comp, comp_wro_list_pop("log"));
        assert_eq!(data.wro("log").unwrap().as_list().unwrap().len(), 1);
    }

    #[test]
    fn wro_ops_on_mismatched_values_derive_restoring_entries() {
        // A WroAdd over a string and a WroPush over an integer clobber the
        // value on the forward path — the derived ACE must restore the
        // before-image, not "undo" a mutation that never type-checked.
        let mut data = DataSpace::new();
        data.set_wro("s", Value::from("hello"));
        let (out, comp) = WroAdd::new("s", 5).apply(&mut data);
        assert_eq!(out, 5, "absent-as-0 semantics for the clobbered value");
        assert_eq!(comp, comp_wro_set("s", Value::from("hello")));

        let mut data = DataSpace::new();
        data.set_wro("n", Value::from(7i64));
        let ((), comp) = WroPush::new("n", Value::from(1i64)).apply(&mut data);
        assert_eq!(data.wro("n").unwrap().as_list().unwrap().len(), 1);
        assert_eq!(comp, comp_wro_set("n", Value::from(7i64)));
    }

    #[test]
    fn issue_coins_compensation_voids_the_serial() {
        let op = IssueCoins::new("mint", 25);
        let coin = Coin {
            serial: "mint-00000001".into(),
            value: 25,
            currency: "USD".into(),
        };
        let comp = op.compensation(&coin);
        assert_eq!(comp, comp_void_coin("mint", "mint-00000001"));
    }
}
