//! The digital-cash mint: issues and voids serial-numbered coins.
//!
//! The mint is what makes wallet compensation produce an *equivalent* state
//! rather than the identical one (§3.2): refunds are freshly issued coins
//! whose serial numbers differ from the originals.

use mar_txn::{OpCtx, ResourceManager, TxStore, TxnError, TxnId};
use mar_wire::Value;
use serde::{Deserialize, Serialize};

use crate::util::{p_amount, p_str, read_t, rejected, write_t};
use crate::wallet::Coin;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum CoinState {
    Active,
    Void,
}

/// The coin-issuing authority for one currency zone.
pub struct MintRm {
    name: String,
    currency: String,
    store: TxStore,
}

impl MintRm {
    /// Creates a mint issuing coins of `currency`. `name` must be unique per
    /// node; serials embed it, so mints on different nodes never collide.
    pub fn new(name: impl Into<String>, currency: impl Into<String>) -> Self {
        MintRm {
            name: name.into(),
            currency: currency.into(),
            store: TxStore::new(),
        }
    }

    fn next_serial(&mut self) -> String {
        format!("{}-{:08}", self.name, self.store.next_seq())
    }

    /// Issues a coin outside any transaction (scenario setup: initial wallet
    /// funding).
    pub fn seed_issue(&mut self, value: i64) -> Coin {
        let serial = self.next_serial();
        self.store.seed(
            format!("coin/{serial}"),
            mar_wire::to_bytes(&(value, CoinState::Active)).unwrap(),
        );
        Coin {
            serial,
            value,
            currency: self.currency.clone(),
        }
    }

    /// Total face value of active (non-void) coins ever issued.
    pub fn active_value(&self) -> i64 {
        self.store
            .iter()
            .filter(|(k, _)| k.starts_with("coin/"))
            .filter_map(|(_, v)| mar_wire::from_slice::<(i64, CoinState)>(v).ok())
            .filter(|(_, s)| *s == CoinState::Active)
            .map(|(v, _)| v)
            .sum()
    }

    fn issue(&mut self, txn: TxnId, value: i64) -> Result<Coin, TxnError> {
        let serial = self.next_serial();
        write_t(
            &mut self.store,
            txn,
            &format!("coin/{serial}"),
            &(value, CoinState::Active),
        )?;
        Ok(Coin {
            serial,
            value,
            currency: self.currency.clone(),
        })
    }

    fn void(&mut self, txn: TxnId, serial: &str) -> Result<i64, TxnError> {
        let key = format!("coin/{serial}");
        match read_t::<(i64, CoinState)>(&mut self.store, txn, &key)? {
            Some((value, CoinState::Active)) => {
                write_t(&mut self.store, txn, &key, &(value, CoinState::Void))?;
                Ok(value)
            }
            Some((_, CoinState::Void)) => Err(rejected(
                &self.name,
                format!("coin {serial:?} already void"),
            )),
            None => {
                // Locally split coins ("a/p1") are not individually
                // registered; accept them if their root serial is known.
                let root = serial.split('/').next().unwrap_or(serial);
                let root_key = format!("coin/{root}");
                if read_t::<(i64, CoinState)>(&mut self.store, txn, &root_key)?.is_some() {
                    Ok(0) // value already accounted at the root coin
                } else {
                    Err(rejected(&self.name, format!("unknown coin {serial:?}")))
                }
            }
        }
    }
}

impl ResourceManager for MintRm {
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError> {
        match op {
            // Issues fresh coins totalling `amount`. Used by refund paths;
            // the caller is responsible for backing the issuance (a till or
            // reserve decrement in the same transaction).
            "issue" => {
                let amount = p_amount(op, params, "amount")?;
                let coin = self.issue(ctx.txn, amount)?;
                Ok(coin_to_value(&coin)?)
            }
            // Marks payment coins void (the merchant turned them in).
            "void" => {
                let serials = params
                    .get("serials")
                    .and_then(Value::as_list)
                    .ok_or_else(|| TxnError::BadRequest("void: missing serial list".to_owned()))?
                    .to_vec();
                let mut total = 0;
                for s in serials {
                    let serial = s
                        .as_str()
                        .ok_or_else(|| TxnError::BadRequest("void: serial not a string".into()))?;
                    total += self.void(ctx.txn, serial)?;
                }
                Ok(Value::from(total))
            }
            "verify" => {
                let serial = p_str(op, params, "serial")?.to_owned();
                let known = read_t::<(i64, CoinState)>(
                    &mut self.store,
                    ctx.txn,
                    &format!("coin/{serial}"),
                )?
                .map(|(_, s)| s == CoinState::Active)
                .unwrap_or(false);
                Ok(Value::Bool(known))
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
}

/// Encodes a coin into its operation-result form.
pub(crate) fn coin_to_value(coin: &Coin) -> Result<Value, TxnError> {
    Ok(mar_wire::to_value(coin)?)
}

/// Decodes a coin from an operation result.
pub fn coin_from_value(v: &Value) -> Result<Coin, TxnError> {
    Ok(mar_wire::from_value(v)?)
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

    #[test]
    fn issue_produces_unique_serials() {
        let mut m = MintRm::new("mint", "USD");
        let a = m
            .invoke(
                ctx(1),
                "issue",
                &Value::map([("amount", Value::from(10i64))]),
            )
            .unwrap();
        let b = m
            .invoke(
                ctx(1),
                "issue",
                &Value::map([("amount", Value::from(10i64))]),
            )
            .unwrap();
        let ca = coin_from_value(&a).unwrap();
        let cb = coin_from_value(&b).unwrap();
        assert_ne!(ca.serial, cb.serial);
        assert_eq!(ca.currency, "USD");
        m.commit(ctx(1).txn);
        assert_eq!(m.active_value(), 20);
    }

    #[test]
    fn void_marks_coins_spent_once() {
        let mut m = MintRm::new("mint", "USD");
        let coin = m.seed_issue(25);
        let total = m
            .invoke(
                ctx(1),
                "void",
                &Value::map([("serials", Value::list([Value::from(coin.serial.clone())]))]),
            )
            .unwrap();
        assert_eq!(total.as_i64(), Some(25));
        // Double void rejected.
        assert!(m
            .invoke(
                ctx(1),
                "void",
                &Value::map([("serials", Value::list([Value::from(coin.serial)]))]),
            )
            .is_err());
        m.commit(ctx(1).txn);
        assert_eq!(m.active_value(), 0);
    }

    #[test]
    fn split_coin_serials_accepted_via_root() {
        let mut m = MintRm::new("mint", "USD");
        let coin = m.seed_issue(100);
        let split_serial = format!("{}/p1", coin.serial);
        let total = m
            .invoke(
                ctx(1),
                "void",
                &Value::map([("serials", Value::list([Value::from(split_serial)]))]),
            )
            .unwrap();
        assert_eq!(
            total.as_i64(),
            Some(0),
            "split serials carry no registered value"
        );
    }

    #[test]
    fn unknown_coin_rejected() {
        let mut m = MintRm::new("mint", "USD");
        assert!(m
            .invoke(
                ctx(1),
                "void",
                &Value::map([("serials", Value::list([Value::from("forged-1")]))]),
            )
            .is_err());
    }

    #[test]
    fn serial_counter_survives_restore() {
        let mut m = MintRm::new("mint", "USD");
        let c1 = m.seed_issue(1);
        let snap = m.snapshot().unwrap();
        let mut m2 = MintRm::new("mint", "USD");
        m2.restore(&snap).unwrap();
        let c2 = m2.seed_issue(1);
        assert_ne!(
            c1.serial, c2.serial,
            "serials must not repeat after recovery"
        );
    }

    #[test]
    fn abort_reverts_issuance() {
        let mut m = MintRm::new("mint", "USD");
        m.invoke(
            ctx(1),
            "issue",
            &Value::map([("amount", Value::from(10i64))]),
        )
        .unwrap();
        m.abort(ctx(1).txn);
        assert_eq!(m.active_value(), 0);
    }
}
