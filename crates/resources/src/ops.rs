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
//! Each resource op is declared once, as one `resource_ops!` entry: its
//! struct and documented fields, the field naming the resource, the wire
//! op and its `Output`, the fields sent as params, the decode and, for a
//! compensable op, the compensation over the op and its result. The macro
//! emits the struct, `new`, [`ResourceOp`] and [`Compensable`].
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

/// Declares resource ops. An entry is the struct (its fields each a
/// `String`, an `i64` or a `Value`; `new` takes them in field order), then
/// `resource <field>, op "<name>" -> <Output>, params [<field>, …];`,
/// `decode |raw| <expr>;` and, if compensable, `compensation |op, out| <expr>;`.
macro_rules! resource_ops {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $fty:ident, )+
        }
        resource $res:ident, op $wire:literal -> $out:ty, params [$($param:ident),+];
        decode |$raw:pat_param| $decode:expr;
        $( compensation |$op:ident, $result:pat_param| $comp:expr; )?
    )+) => {$(
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $fty, )+
        }

        impl $name {
            /// Constructs the op.
            pub fn new($($field: resource_ops!(@arg $fty)),+) -> Self {
                $name { $($field: $field.into()),+ }
            }
        }

        impl ResourceOp for $name {
            type Output = $out;
            fn resource(&self) -> &str { &self.$res }
            fn op(&self) -> &str { $wire }
            fn params(&self) -> Value {
                Value::map([$((stringify!($param), Value::from(self.$param.clone()))),+])
            }
            fn decode(&self, $raw: &Value) -> Result<$out, WireError> { $decode }
        }

        $(impl Compensable for $name {
            fn compensation(&self, $result: &$out) -> CompOp { let $op = self; $comp }
        })?
    )+};
    (@arg String) => { impl Into<String> };
    (@arg $fty:ident) => { $fty };
}

fn map_err(what: &str) -> WireError {
    WireError::Message(format!("unexpected result shape: {what}"))
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

resource_ops! {
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
    resource bank, op "deposit" -> i64, params [account, amount];
    decode |raw| raw.as_i64().ok_or_else(|| map_err("deposit balance"));
    compensation |op, _new_balance| comp_undo_deposit(&op.bank, &op.account, op.amount);

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
    resource bank, op "withdraw" -> i64, params [account, amount];
    decode |raw| raw.as_i64().ok_or_else(|| map_err("withdraw balance"));
    compensation |op, _new_balance| comp_undo_withdraw(&op.bank, &op.account, op.amount);

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
    resource bank, op "transfer" -> (), params [from, to, amount];
    decode |_raw| Ok(());
    compensation |op, _out| comp_undo_transfer(&op.bank, &op.from, &op.to, op.amount);

    /// Typed read-only `bank.balance`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Balance {
        /// Bank resource name.
        pub bank: String,
        /// Account to inspect.
        pub account: String,
    }
    resource bank, op "balance" -> i64, params [account];
    decode |raw| raw.as_i64().ok_or_else(|| map_err("balance"));
}

// ---- flight ----------------------------------------------------------------

/// A committed flight booking (result of [`BookFlight`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Booking {
    /// The booking id the compensation needs to cancel.
    pub booking_id: String,
}

/// A flight quote (result of [`QuoteFlight`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightQuote {
    /// Fare.
    pub price: i64,
    /// Free seats.
    pub seats: i64,
}

resource_ops! {
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
    resource air, op "book" -> Booking, params [flight, passenger, paid];
    decode |raw| Ok(Booking {
        booking_id: decode_str_field(raw, "booking_id")?,
    });
    compensation |op, booking| {
        comp_cancel_booking(&op.air, &booking.booking_id, &op.refund_bank, &op.refund_account)
    };

    /// Typed read-only `flight.quote`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct QuoteFlight {
        /// Flight resource name.
        pub air: String,
        /// Flight identifier.
        pub flight: String,
    }
    resource air, op "quote" -> FlightQuote, params [flight];
    decode |raw| Ok(FlightQuote {
        price: decode_i64_field(raw, "price")?,
        seats: decode_i64_field(raw, "seats")?,
    });
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

/// An item quote (result of [`QuoteItem`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemQuote {
    /// Unit price.
    pub price: i64,
    /// Units in stock.
    pub stock: i64,
}

resource_ops! {
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
    resource shop, op "buy_paid" -> Order, params [sku, qty, paid];
    decode |raw| decode_order(raw);
    compensation |op, order| {
        comp_return_account_order(&op.shop, &order.order_id, &op.refund_bank, &op.refund_account)
    };

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
    resource shop, op "buy_paid" -> Order, params [sku, qty, paid];
    decode |raw| decode_order(raw);
    compensation |op, order| {
        comp_return_cash_order(&op.shop, &op.mint, &order.order_id, &op.wallet_key, &op.currency)
    };

    /// Typed read-only `shop.quote`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct QuoteItem {
        /// Shop resource name.
        pub shop: String,
        /// Item SKU.
        pub sku: String,
    }
    resource shop, op "quote" -> ItemQuote, params [sku];
    decode |raw| Ok(ItemQuote {
        price: decode_i64_field(raw, "price")?,
        stock: decode_i64_field(raw, "stock")?,
    });
}

// ---- exchange --------------------------------------------------------------

/// A conversion rate (result of [`QuoteRate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateQuote {
    /// Numerator.
    pub num: i64,
    /// Denominator.
    pub den: i64,
}

resource_ops! {
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
    resource exchange, op "convert" -> Coin, params [from, to, amount];
    decode |raw| mar_wire::from_value(raw);
    compensation |op, coin| {
        comp_convert_back(&op.exchange, &op.from, &op.to, coin.value, &op.wallet_key)
    };

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
    resource exchange, op "rate" -> RateQuote, params [from, to];
    decode |raw| Ok(RateQuote {
        num: decode_i64_field(raw, "num")?,
        den: decode_i64_field(raw, "den")?,
    });
}

// ---- mint ------------------------------------------------------------------

resource_ops! {
    /// Typed `mint.issue`: issues a fresh coin worth `amount`. The compensation
    /// — derived from the issued coin's serial — voids that exact coin again.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct IssueCoins {
        /// Mint resource name.
        pub mint: String,
        /// Face value to issue.
        pub amount: i64,
    }
    resource mint, op "issue" -> Coin, params [amount];
    decode |raw| mar_wire::from_value(raw);
    compensation |op, coin| comp_void_coin(&op.mint, &coin.serial);

    /// Typed read-only `mint.verify`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct VerifyCoin {
        /// Mint resource name.
        pub mint: String,
        /// Serial to check.
        pub serial: String,
    }
    resource mint, op "verify" -> bool, params [serial];
    decode |raw| raw.as_bool().ok_or_else(|| map_err("verify flag"));
}

// ---- directory -------------------------------------------------------------

resource_ops! {
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
    resource dir, op "publish" -> (), params [topic, entry];
    decode |_raw| Ok(());
    compensation |op, _out| comp_dir_retract(&op.dir, &op.topic);

    /// Typed read-only `dir.query`: all entries under a topic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct QueryTopic {
        /// Directory resource name.
        pub dir: String,
        /// Topic to query.
        pub topic: String,
    }
    resource dir, op "query" -> Vec<Value>, params [topic];
    decode |raw| raw
        .as_list()
        .map(<[Value]>::to_vec)
        .ok_or_else(|| map_err("query list"));
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

    /// An op's resource, wire name and params: the raw call it stands for.
    fn call<O: ResourceOp>(op: &O) -> (&str, &str, Value) {
        (op.resource(), op.op(), op.params())
    }

    fn m<const N: usize>(pairs: [(&str, Value); N]) -> Value {
        Value::map(pairs)
    }

    fn s(v: &str) -> Value {
        Value::from(v)
    }

    fn i(v: i64) -> Value {
        Value::from(v)
    }

    /// Every op against its raw call, the decode of one sample result and
    /// the `comp_*` entry it derives. Each argument is a distinct value, so
    /// two swapped constructor arguments fail here.
    #[test]
    fn typed_params_match_raw_call_shapes() {
        let p = m([("account", s("acct")), ("amount", i(10))]);
        let op = Deposit::new("bank", "acct", 10);
        assert_eq!(call(&op), ("bank", "deposit", p.clone()));
        assert_eq!(op.decode(&i(110)), Ok(110));
        let comp = comp_undo_deposit("bank", "acct", 10);
        assert_eq!(op.compensation(&110), comp);
        let op = Withdraw::new("bank", "acct", 10);
        assert_eq!(call(&op), ("bank", "withdraw", p));
        assert_eq!(op.decode(&i(90)), Ok(90));
        let comp = comp_undo_withdraw("bank", "acct", 10);
        assert_eq!(op.compensation(&90), comp);

        let op = Transfer::new("bank", "a", "b", 10);
        let p = m([("from", s("a")), ("to", s("b")), ("amount", i(10))]);
        assert_eq!(call(&op), ("bank", "transfer", p));
        assert_eq!(op.decode(&Value::Null), Ok(()));
        let comp = comp_undo_transfer("bank", "a", "b", 10);
        assert_eq!(op.compensation(&()), comp);

        let op = Balance::new("bank", "acct");
        let p = m([("account", s("acct"))]);
        assert_eq!(call(&op), ("bank", "balance", p));
        assert_eq!(op.decode(&i(70)), Ok(70));

        let op = BookFlight::new("air", "LH1", "pax", 300, "rb", "ra");
        let p = m([
            ("flight", s("LH1")),
            ("passenger", s("pax")),
            ("paid", i(300)),
        ]);
        assert_eq!(call(&op), ("air", "book", p));
        let booking = op.decode(&m([("booking_id", s("b1"))])).unwrap();
        assert_eq!(booking.booking_id, "b1");
        let comp = comp_cancel_booking("air", "b1", "rb", "ra");
        assert_eq!(op.compensation(&booking), comp);

        let op = QuoteFlight::new("air", "LH1");
        let p = m([("flight", s("LH1"))]);
        assert_eq!(call(&op), ("air", "quote", p));
        let quote = op.decode(&m([("price", i(300)), ("seats", i(7))]));
        assert_eq!(quote.map(|q| (q.price, q.seats)), Ok((300, 7)));

        let p = m([("sku", s("cd")), ("qty", i(2)), ("paid", i(100))]);
        let raw = m([("order_id", s("o1")), ("cost", i(100))]);
        let op = BuyWithAccount::new("shop", "cd", 2, 100, "rb", "ra");
        assert_eq!(call(&op), ("shop", "buy_paid", p.clone()));
        let order = op.decode(&raw).unwrap();
        assert_eq!((order.order_id.as_str(), order.cost), ("o1", 100));
        let comp = comp_return_account_order("shop", "o1", "rb", "ra");
        assert_eq!(op.compensation(&order), comp);
        let op = BuyWithCash::new("shop", "mint", "cd", 2, 100, "wallet", "USD");
        assert_eq!(call(&op), ("shop", "buy_paid", p));
        assert_eq!(op.decode(&raw).as_ref(), Ok(&order));
        let comp = comp_return_cash_order("shop", "mint", "o1", "wallet", "USD");
        assert_eq!(op.compensation(&order), comp);

        let op = QuoteItem::new("shop", "cd");
        let p = m([("sku", s("cd"))]);
        assert_eq!(call(&op), ("shop", "quote", p));
        let quote = op.decode(&m([("price", i(50)), ("stock", i(9))]));
        assert_eq!(quote.map(|q| (q.price, q.stock)), Ok((50, 9)));

        let coin = |value, currency: &str| Coin {
            serial: "c1".into(),
            value,
            currency: currency.into(),
        };
        let op = ConvertCash::new("fx", "USD", "EUR", 100, "wallet");
        let p = m([("from", s("USD")), ("to", s("EUR")), ("amount", i(100))]);
        assert_eq!(call(&op), ("fx", "convert", p));
        let out = op.decode(&mar_wire::to_value(&coin(90, "EUR")).unwrap());
        assert_eq!(out, Ok(coin(90, "EUR")));
        let comp = comp_convert_back("fx", "USD", "EUR", 90, "wallet");
        assert_eq!(op.compensation(&coin(90, "EUR")), comp);

        let op = QuoteRate::new("fx", "USD", "EUR");
        let p = m([("from", s("USD")), ("to", s("EUR"))]);
        assert_eq!(call(&op), ("fx", "rate", p));
        let rate = op.decode(&m([("num", i(9)), ("den", i(10))]));
        assert_eq!(rate.map(|r| (r.num, r.den)), Ok((9, 10)));

        let op = IssueCoins::new("mint", 25);
        let p = m([("amount", i(25))]);
        assert_eq!(call(&op), ("mint", "issue", p));
        let out = op.decode(&mar_wire::to_value(&coin(25, "USD")).unwrap());
        assert_eq!(out, Ok(coin(25, "USD")));
        let comp = comp_void_coin("mint", "c1");
        assert_eq!(op.compensation(&coin(25, "USD")), comp);

        let op = VerifyCoin::new("mint", "c1");
        let p = m([("serial", s("c1"))]);
        assert_eq!(call(&op), ("mint", "verify", p));
        assert_eq!(op.decode(&Value::Bool(true)), Ok(true));

        let op = PublishEntry::new("dir", "news", i(3));
        let p = m([("topic", s("news")), ("entry", i(3))]);
        assert_eq!(call(&op), ("dir", "publish", p));
        assert_eq!(op.decode(&Value::Null), Ok(()));
        let comp = comp_dir_retract("dir", "news");
        assert_eq!(op.compensation(&()), comp);

        let op = QueryTopic::new("dir", "news");
        let p = m([("topic", s("news"))]);
        assert_eq!(call(&op), ("dir", "query", p));
        let out = op.decode(&Value::list([s("a"), i(1)]));
        assert_eq!(out, Ok(vec![s("a"), i(1)]));
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
