//! An electronic shop with stock, a till, and a time-dependent refund
//! policy — the paper's §3.2 example: "until x hours after the purchase,
//! the seller returns cash but charges a small fee, after that, the
//! customer only gets a credit note."

use mar_simnet::SimDuration;
use mar_txn::{OpCtx, ResourceManager, TxStore, TxnError, TxnId};
use mar_wire::Value;
use serde::{Deserialize, Serialize};

use crate::util::{p_amount, p_str, peek_t, read_t, rejected, write_t};

/// Refund policy of a shop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefundPolicy {
    /// Within this window after purchase, refunds are cash minus the fee.
    pub cash_window: SimDuration,
    /// Fee in permille charged on cash refunds.
    pub fee_permille: u64,
}

impl Default for RefundPolicy {
    fn default() -> Self {
        RefundPolicy {
            cash_window: SimDuration::from_secs(3600),
            fee_permille: 50, // 5%
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ItemRec {
    price: i64,
    stock: i64,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum OrderState {
    Active,
    Returned,
    CreditNoted,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct OrderRec {
    sku: String,
    qty: i64,
    paid: i64,
    at_us: u64,
    state: OrderState,
}

/// The outcome of a `return_order` operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefundOutcome {
    /// Cash paid back (zero on the credit-note path).
    pub refund_cash: i64,
    /// Fee retained by the shop.
    pub fee: i64,
    /// Credit-note amount (zero on the cash path).
    pub credit_note: i64,
}

/// A shop resource manager.
pub struct ShopRm {
    name: String,
    policy: RefundPolicy,
    store: TxStore,
}

impl ShopRm {
    /// Creates a shop named `name` with the given refund policy.
    pub fn new(name: impl Into<String>, policy: RefundPolicy) -> Self {
        ShopRm {
            name: name.into(),
            policy,
            store: TxStore::new(),
        }
    }

    /// Seeds an item before the world starts.
    pub fn with_item(mut self, sku: &str, price: i64, stock: i64) -> Self {
        self.store.seed(
            format!("item/{sku}"),
            mar_wire::to_bytes(&ItemRec { price, stock }).unwrap(),
        );
        self
    }

    /// Till balance (committed) — conservation checks.
    pub fn till(&self) -> i64 {
        peek_t(&self.store, "till").unwrap_or(0)
    }

    /// Committed stock of an item.
    pub fn stock_of(&self, sku: &str) -> Option<i64> {
        peek_t::<ItemRec>(&self.store, &format!("item/{sku}")).map(|i| i.stock)
    }

    /// Number of committed orders in the given state (test observability).
    pub fn orders_in_state(&self, state: &str) -> usize {
        self.store
            .iter()
            .filter(|(k, _)| k.starts_with("order/"))
            .filter_map(|(_, v)| mar_wire::from_slice::<OrderRec>(v).ok())
            .filter(|o| match state {
                "active" => o.state == OrderState::Active,
                "returned" => o.state == OrderState::Returned,
                "noted" => o.state == OrderState::CreditNoted,
                _ => false,
            })
            .count()
    }

    fn item(&mut self, txn: TxnId, sku: &str) -> Result<ItemRec, TxnError> {
        read_t(&mut self.store, txn, &format!("item/{sku}"))?
            .ok_or_else(|| rejected(&self.name, format!("no such item {sku:?}")))
    }

    fn till_add(&mut self, txn: TxnId, delta: i64) -> Result<(), TxnError> {
        let cur: i64 = read_t(&mut self.store, txn, "till")?.unwrap_or(0);
        write_t(&mut self.store, txn, "till", &(cur + delta))
    }
}

impl ResourceManager for ShopRm {
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError> {
        match op {
            "quote" => {
                let sku = p_str(op, params, "sku")?.to_owned();
                let item = self.item(ctx.txn, &sku)?;
                Ok(Value::map([
                    ("price", Value::from(item.price)),
                    ("stock", Value::from(item.stock)),
                ]))
            }
            // Purchase with payment already secured by the caller in the
            // same transaction (bank withdrawal or wallet coins).
            "buy_paid" => {
                let sku = p_str(op, params, "sku")?.to_owned();
                let qty = p_amount(op, params, "qty")?;
                let paid = p_amount(op, params, "paid")?;
                let mut item = self.item(ctx.txn, &sku)?;
                if item.stock < qty {
                    return Err(rejected(
                        &self.name,
                        format!("out of stock: {sku:?} has {}, wanted {qty}", item.stock),
                    ));
                }
                let cost = item.price * qty;
                if paid != cost {
                    return Err(rejected(
                        &self.name,
                        format!("price is {cost}, paid {paid}"),
                    ));
                }
                item.stock -= qty;
                write_t(&mut self.store, ctx.txn, &format!("item/{sku}"), &item)?;
                self.till_add(ctx.txn, paid)?;
                let order_id = format!("{}-{:08}", self.name, self.store.next_seq());
                let rec = OrderRec {
                    sku,
                    qty,
                    paid,
                    at_us: ctx.now.as_micros(),
                    state: OrderState::Active,
                };
                write_t(&mut self.store, ctx.txn, &format!("order/{order_id}"), &rec)?;
                Ok(Value::map([
                    ("order_id", Value::from(order_id)),
                    ("cost", Value::from(cost)),
                ]))
            }
            // Compensation: undo a purchase under the refund policy.
            // `allow_note=false` forces the cash path regardless of the
            // window (used for account-paid orders where a note has nowhere
            // to live).
            "return_order" => {
                let order_id = p_str(op, params, "order_id")?.to_owned();
                let allow_note = params
                    .get("allow_note")
                    .and_then(Value::as_bool)
                    .unwrap_or(true);
                let key = format!("order/{order_id}");
                let mut order: OrderRec = read_t(&mut self.store, ctx.txn, &key)?
                    .ok_or_else(|| rejected(&self.name, format!("no order {order_id:?}")))?;
                if order.state != OrderState::Active {
                    return Err(rejected(
                        &self.name,
                        format!("order {order_id:?} already settled"),
                    ));
                }
                // Restock.
                let mut item = self.item(ctx.txn, &order.sku)?;
                item.stock += order.qty;
                let sku = order.sku.clone();
                write_t(&mut self.store, ctx.txn, &format!("item/{sku}"), &item)?;
                // Refund per policy.
                let age = ctx.now.as_micros().saturating_sub(order.at_us);
                let in_window = age <= self.policy.cash_window.as_micros();
                let outcome = if in_window || !allow_note {
                    let fee = order.paid * self.policy.fee_permille as i64 / 1000;
                    let refund = order.paid - fee;
                    self.till_add(ctx.txn, -refund)?;
                    order.state = OrderState::Returned;
                    RefundOutcome {
                        refund_cash: refund,
                        fee,
                        credit_note: 0,
                    }
                } else {
                    // Past the window: the customer only gets a credit note;
                    // the shop sets the full amount aside.
                    self.till_add(ctx.txn, -order.paid)?;
                    order.state = OrderState::CreditNoted;
                    RefundOutcome {
                        refund_cash: 0,
                        fee: 0,
                        credit_note: order.paid,
                    }
                };
                write_t(&mut self.store, ctx.txn, &key, &order)?;
                Ok(mar_wire::to_value(&outcome)?)
            }
            "restock" => {
                let sku = p_str(op, params, "sku")?.to_owned();
                let qty = p_amount(op, params, "qty")?;
                let mut item = self.item(ctx.txn, &sku)?;
                item.stock += qty;
                write_t(&mut self.store, ctx.txn, &format!("item/{sku}"), &item)?;
                Ok(Value::from(item.stock))
            }
            other => Err(TxnError::BadRequest(format!(
                "{}: unknown operation {other:?}",
                self.name
            ))),
        }
    }

    fn store(&self) -> &TxStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut TxStore {
        &mut self.store
    }

    fn audit_money(&self) -> Value {
        Value::map([("USD", Value::from(self.till()))])
    }
}

/// Decodes a `return_order` result.
pub fn refund_from_value(v: &Value) -> Result<RefundOutcome, TxnError> {
    Ok(mar_wire::from_value(v)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_simnet::{NodeId, SimTime};

    fn ctx_at(seq: u64, us: u64) -> OpCtx {
        OpCtx {
            txn: TxnId::new(NodeId(0), seq),
            now: SimTime::from_micros(us),
        }
    }

    fn shop() -> ShopRm {
        ShopRm::new(
            "shop",
            RefundPolicy {
                cash_window: SimDuration::from_secs(10),
                fee_permille: 100, // 10%
            },
        )
        .with_item("cd", 50, 3)
    }

    fn buy(s: &mut ShopRm, seq: u64, us: u64, qty: i64) -> String {
        let r = s
            .invoke(
                ctx_at(seq, us),
                "buy_paid",
                &Value::map([
                    ("sku", Value::from("cd")),
                    ("qty", Value::from(qty)),
                    ("paid", Value::from(50 * qty)),
                ]),
            )
            .unwrap();
        s.commit(TxnId::new(NodeId(0), seq));
        r.get("order_id").unwrap().as_str().unwrap().to_owned()
    }

    #[test]
    fn buy_decrements_stock_and_fills_till() {
        let mut s = shop();
        buy(&mut s, 1, 0, 2);
        assert_eq!(s.stock_of("cd"), Some(1));
        assert_eq!(s.till(), 100);
        assert_eq!(s.orders_in_state("active"), 1);
    }

    #[test]
    fn overbuy_and_underpay_rejected() {
        let mut s = shop();
        assert!(s
            .invoke(
                ctx_at(1, 0),
                "buy_paid",
                &Value::map([
                    ("sku", Value::from("cd")),
                    ("qty", Value::from(10i64)),
                    ("paid", Value::from(500i64)),
                ]),
            )
            .is_err());
        assert!(s
            .invoke(
                ctx_at(1, 0),
                "buy_paid",
                &Value::map([
                    ("sku", Value::from("cd")),
                    ("qty", Value::from(1i64)),
                    ("paid", Value::from(10i64)),
                ]),
            )
            .is_err());
    }

    #[test]
    fn refund_within_window_is_cash_minus_fee() {
        let mut s = shop();
        let order = buy(&mut s, 1, 0, 1);
        let r = s
            .invoke(
                ctx_at(2, 5_000_000), // 5s later, inside the 10s window
                "return_order",
                &Value::map([("order_id", Value::from(order))]),
            )
            .unwrap();
        s.commit(TxnId::new(NodeId(0), 2));
        let out = refund_from_value(&r).unwrap();
        assert_eq!(out.refund_cash, 45);
        assert_eq!(out.fee, 5);
        assert_eq!(out.credit_note, 0);
        assert_eq!(s.stock_of("cd"), Some(3), "restocked");
        assert_eq!(s.till(), 5, "fee stays in the till");
        assert_eq!(s.orders_in_state("returned"), 1);
    }

    #[test]
    fn refund_after_window_is_credit_note() {
        let mut s = shop();
        let order = buy(&mut s, 1, 0, 1);
        let r = s
            .invoke(
                ctx_at(2, 60_000_000), // 60s later, outside the window
                "return_order",
                &Value::map([("order_id", Value::from(order))]),
            )
            .unwrap();
        s.commit(TxnId::new(NodeId(0), 2));
        let out = refund_from_value(&r).unwrap();
        assert_eq!(out.refund_cash, 0);
        assert_eq!(out.credit_note, 50);
        assert_eq!(s.orders_in_state("noted"), 1);
        assert_eq!(s.till(), 0, "full amount set aside for the note");
    }

    #[test]
    fn allow_note_false_forces_cash_path() {
        let mut s = shop();
        let order = buy(&mut s, 1, 0, 1);
        let r = s
            .invoke(
                ctx_at(2, 60_000_000),
                "return_order",
                &Value::map([
                    ("order_id", Value::from(order)),
                    ("allow_note", Value::Bool(false)),
                ]),
            )
            .unwrap();
        let out = refund_from_value(&r).unwrap();
        assert_eq!(out.refund_cash, 45);
        assert_eq!(out.credit_note, 0);
    }

    #[test]
    fn double_return_rejected() {
        let mut s = shop();
        let order = buy(&mut s, 1, 0, 1);
        s.invoke(
            ctx_at(2, 1),
            "return_order",
            &Value::map([("order_id", Value::from(order.clone()))]),
        )
        .unwrap();
        s.commit(TxnId::new(NodeId(0), 2));
        assert!(s
            .invoke(
                ctx_at(3, 2),
                "return_order",
                &Value::map([("order_id", Value::from(order))]),
            )
            .is_err());
    }

    #[test]
    fn aborted_purchase_leaves_no_trace() {
        let mut s = shop();
        s.invoke(
            ctx_at(1, 0),
            "buy_paid",
            &Value::map([
                ("sku", Value::from("cd")),
                ("qty", Value::from(1i64)),
                ("paid", Value::from(50i64)),
            ]),
        )
        .unwrap();
        s.abort(TxnId::new(NodeId(0), 1));
        assert_eq!(s.stock_of("cd"), Some(3));
        assert_eq!(s.till(), 0);
        assert_eq!(s.orders_in_state("active"), 0);
    }

    #[test]
    fn order_ids_survive_restore() {
        let mut s = shop();
        let o1 = buy(&mut s, 1, 0, 1);
        let snap = s.snapshot().unwrap();
        let mut s2 = shop();
        s2.restore(&snap).unwrap();
        let o2 = buy(&mut s2, 2, 0, 1);
        assert_ne!(o1, o2);
    }
}
