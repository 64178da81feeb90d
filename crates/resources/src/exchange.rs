//! A currency exchange: the paper's §4.4.1 example of a *mixed* compensation
//! entry — changing money back needs the resource (the exchange) *and* the
//! weakly reversible wallet object.

use mar_txn::{OpCtx, ResourceManager, TxStore, TxnError, TxnId};
use mar_wire::Value;
use serde::{Deserialize, Serialize};

use crate::util::{p_amount, p_str, peek_t, read_t, rejected, write_t};
use crate::wallet::Coin;

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Rate {
    num: i64,
    den: i64,
}

/// A currency exchange with fixed rates and per-currency reserves.
pub struct ExchangeRm {
    name: String,
    store: TxStore,
}

impl ExchangeRm {
    /// Creates an exchange named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ExchangeRm {
            name: name.into(),
            store: TxStore::new(),
        }
    }

    /// Seeds a conversion rate `from → to` of `num/den` (and its inverse).
    pub fn with_rate(mut self, from: &str, to: &str, num: i64, den: i64) -> Self {
        assert!(num > 0 && den > 0, "rates must be positive");
        self.store.seed(
            format!("rate/{from}/{to}"),
            mar_wire::to_bytes(&Rate { num, den }).unwrap(),
        );
        self.store.seed(
            format!("rate/{to}/{from}"),
            mar_wire::to_bytes(&Rate { num: den, den: num }).unwrap(),
        );
        self
    }

    /// Seeds a reserve of `amount` in `currency`.
    pub fn with_reserve(mut self, currency: &str, amount: i64) -> Self {
        self.store.seed(
            format!("res/{currency}"),
            mar_wire::to_bytes(&amount).unwrap(),
        );
        self
    }

    /// Committed reserve in `currency` (conservation checks).
    pub fn reserve_of(&self, currency: &str) -> i64 {
        peek_t(&self.store, &format!("res/{currency}")).unwrap_or(0)
    }

    fn rate(&mut self, txn: TxnId, from: &str, to: &str) -> Result<Rate, TxnError> {
        read_t(&mut self.store, txn, &format!("rate/{from}/{to}"))?
            .ok_or_else(|| rejected(&self.name, format!("no rate {from}→{to}")))
    }

    fn reserve_add(&mut self, txn: TxnId, currency: &str, delta: i64) -> Result<(), TxnError> {
        let cur: i64 = read_t(&mut self.store, txn, &format!("res/{currency}"))?.unwrap_or(0);
        let next = cur + delta;
        if next < 0 {
            return Err(rejected(
                &self.name,
                format!("reserve exhausted: {currency} has {cur}, needs {}", -delta),
            ));
        }
        write_t(&mut self.store, txn, &format!("res/{currency}"), &next)
    }
}

impl ResourceManager for ExchangeRm {
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError> {
        match op {
            // Converts `amount` of `from`-currency (already surrendered by
            // the caller, who removed the coins from the wallet) into a
            // freshly issued coin of the target currency.
            "convert" => {
                let from = p_str(op, params, "from")?.to_owned();
                let to = p_str(op, params, "to")?.to_owned();
                let amount = p_amount(op, params, "amount")?;
                let rate = self.rate(ctx.txn, &from, &to)?;
                let out = amount * rate.num / rate.den;
                if out <= 0 {
                    return Err(rejected(
                        &self.name,
                        format!("{amount} {from} converts to nothing"),
                    ));
                }
                // The exchange absorbs the source currency and pays out of
                // its target-currency reserve.
                self.reserve_add(ctx.txn, &from, amount)?;
                self.reserve_add(ctx.txn, &to, -out)?;
                let coin = Coin {
                    serial: format!("{}-x{:08}", self.name, self.store.next_seq()),
                    value: out,
                    currency: to,
                };
                Ok(mar_wire::to_value(&coin)?)
            }
            "rate" => {
                let from = p_str(op, params, "from")?.to_owned();
                let to = p_str(op, params, "to")?.to_owned();
                let rate = self.rate(ctx.txn, &from, &to)?;
                Ok(Value::map([
                    ("num", Value::from(rate.num)),
                    ("den", Value::from(rate.den)),
                ]))
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
        let reserves: Vec<(String, Value)> = self
            .store
            .iter()
            .filter(|(k, _)| k.starts_with("res/"))
            .filter_map(|(k, v)| {
                let cur = k.strip_prefix("res/")?.to_owned();
                let amount: i64 = mar_wire::from_slice(v).ok()?;
                Some((cur, Value::from(amount)))
            })
            .collect();
        Value::map(reserves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_simnet::{NodeId, SimTime};

    fn ctx(seq: u64) -> OpCtx {
        OpCtx {
            txn: TxnId::new(NodeId(0), seq),
            now: SimTime::ZERO,
        }
    }

    fn exchange() -> ExchangeRm {
        ExchangeRm::new("fx")
            .with_rate("USD", "EUR", 9, 10) // 1 USD = 0.9 EUR
            .with_reserve("USD", 10_000)
            .with_reserve("EUR", 10_000)
    }

    #[test]
    fn convert_applies_rate_and_moves_reserves() {
        let mut fx = exchange();
        let r = fx
            .invoke(
                ctx(1),
                "convert",
                &Value::map([
                    ("from", Value::from("USD")),
                    ("to", Value::from("EUR")),
                    ("amount", Value::from(100i64)),
                ]),
            )
            .unwrap();
        fx.commit(ctx(1).txn);
        let coin: Coin = mar_wire::from_value(&r).unwrap();
        assert_eq!(coin.value, 90);
        assert_eq!(coin.currency, "EUR");
        assert_eq!(fx.reserve_of("USD"), 10_100);
        assert_eq!(fx.reserve_of("EUR"), 9_910);
    }

    #[test]
    fn inverse_rate_seeded_automatically() {
        let mut fx = exchange();
        let r = fx
            .invoke(
                ctx(1),
                "convert",
                &Value::map([
                    ("from", Value::from("EUR")),
                    ("to", Value::from("USD")),
                    ("amount", Value::from(90i64)),
                ]),
            )
            .unwrap();
        let coin: Coin = mar_wire::from_value(&r).unwrap();
        assert_eq!(coin.value, 100);
    }

    #[test]
    fn reserve_exhaustion_rejected() {
        let mut fx = ExchangeRm::new("fx")
            .with_rate("USD", "EUR", 1, 1)
            .with_reserve("USD", 100)
            .with_reserve("EUR", 5);
        assert!(fx
            .invoke(
                ctx(1),
                "convert",
                &Value::map([
                    ("from", Value::from("USD")),
                    ("to", Value::from("EUR")),
                    ("amount", Value::from(50i64)),
                ]),
            )
            .is_err());
    }

    #[test]
    fn roundtrip_conversion_conserves_value_at_symmetric_rates() {
        let mut fx = exchange();
        let r1 = fx
            .invoke(
                ctx(1),
                "convert",
                &Value::map([
                    ("from", Value::from("USD")),
                    ("to", Value::from("EUR")),
                    ("amount", Value::from(1000i64)),
                ]),
            )
            .unwrap();
        let eur: Coin = mar_wire::from_value(&r1).unwrap();
        let r2 = fx
            .invoke(
                ctx(1),
                "convert",
                &Value::map([
                    ("from", Value::from("EUR")),
                    ("to", Value::from("USD")),
                    ("amount", Value::from(eur.value)),
                ]),
            )
            .unwrap();
        let usd: Coin = mar_wire::from_value(&r2).unwrap();
        assert_eq!(usd.value, 1000);
        assert_ne!(usd.serial, eur.serial);
        fx.commit(ctx(1).txn);
        assert_eq!(fx.reserve_of("USD"), 10_000);
        assert_eq!(fx.reserve_of("EUR"), 10_000);
    }

    #[test]
    fn unknown_rate_rejected() {
        let mut fx = exchange();
        assert!(fx
            .invoke(
                ctx(1),
                "convert",
                &Value::map([
                    ("from", Value::from("USD")),
                    ("to", Value::from("GBP")),
                    ("amount", Value::from(10i64)),
                ]),
            )
            .is_err());
    }
}
