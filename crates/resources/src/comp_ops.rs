//! Compensating-operation handlers for every resource, plus builders for
//! the compensating operations agents log during forward execution.
//!
//! [`register_all`] is the one place each operation's entry kind is stated
//! (§4.4.1); a builder names the operation only, and the platform looks the
//! kind up when it logs the entry:
//!
//! * RCEs (`bank.*`, `flight.cancel_booking`, `shop.return_account_order`)
//!   touch only node resources — they can be shipped to the resource node
//!   without the agent.
//! * ACEs (`wro.*`) touch only weakly reversible objects — they run
//!   wherever the agent is.
//! * MCEs (`shop.return_cash_order`, `exchange.convert_back`) need both —
//!   the agent must travel to the step's node.

use mar_core::comp::{CompCtx, CompOp, CompOpRegistry, EntryKind};
use mar_core::CompError;
use mar_wire::Value;

use crate::shop::RefundOutcome;
use crate::wallet::{Coin, CreditNote, Wallet};

/// Registers every handler of this crate into `reg`.
///
/// # Panics
///
/// Panics if any of the names is already registered.
pub fn register_all(reg: &mut CompOpRegistry) {
    reg.register("bank.undo_deposit", EntryKind::Resource, |ctx| {
        let bank = ctx.param_str("bank")?.to_owned();
        let account = ctx.param_str("account")?.to_owned();
        let amount = ctx.param_i64("amount")?;
        ctx.resources()?.call(
            &bank,
            "withdraw",
            &Value::map([
                ("account", Value::from(account)),
                ("amount", Value::from(amount)),
            ]),
        )?;
        Ok(())
    });

    reg.register("bank.undo_withdraw", EntryKind::Resource, |ctx| {
        let bank = ctx.param_str("bank")?.to_owned();
        let account = ctx.param_str("account")?.to_owned();
        let amount = ctx.param_i64("amount")?;
        ctx.resources()?.call(
            &bank,
            "deposit",
            &Value::map([
                ("account", Value::from(account)),
                ("amount", Value::from(amount)),
            ]),
        )?;
        Ok(())
    });

    reg.register("bank.undo_transfer", EntryKind::Resource, |ctx| {
        let bank = ctx.param_str("bank")?.to_owned();
        let from = ctx.param_str("from")?.to_owned();
        let to = ctx.param_str("to")?.to_owned();
        let amount = ctx.param_i64("amount")?;
        // Reverse direction: money flows back from `to` to `from`.
        ctx.resources()?.call(
            &bank,
            "transfer",
            &Value::map([
                ("from", Value::from(to)),
                ("to", Value::from(from)),
                ("amount", Value::from(amount)),
            ]),
        )?;
        Ok(())
    });

    reg.register("flight.cancel_booking", EntryKind::Resource, |ctx| {
        let air = ctx.param_str("flight_rm")?.to_owned();
        let booking = ctx.param_str("booking_id")?.to_owned();
        let bank = ctx.param_str("bank")?.to_owned();
        let account = ctx.param_str("account")?.to_owned();
        let r = ctx.resources()?.call(
            &air,
            "cancel",
            &Value::map([("booking_id", Value::from(booking))]),
        )?;
        let refund = r.get("refund").and_then(Value::as_i64).unwrap_or(0);
        if refund > 0 {
            ctx.resources()?.call(
                &bank,
                "deposit",
                &Value::map([
                    ("account", Value::from(account)),
                    ("amount", Value::from(refund)),
                ]),
            )?;
        }
        Ok(())
    });

    reg.register("shop.return_account_order", EntryKind::Resource, |ctx| {
        let shop = ctx.param_str("shop")?.to_owned();
        let order = ctx.param_str("order_id")?.to_owned();
        let bank = ctx.param_str("bank")?.to_owned();
        let account = ctx.param_str("account")?.to_owned();
        let r = ctx.resources()?.call(
            &shop,
            "return_order",
            &Value::map([
                ("order_id", Value::from(order)),
                // Account-paid orders always take the cash path: a credit
                // note has nowhere to live on the resource side.
                ("allow_note", Value::Bool(false)),
            ]),
        )?;
        let outcome: RefundOutcome = decode(ctx, &r)?;
        if outcome.refund_cash > 0 {
            ctx.resources()?.call(
                &bank,
                "deposit",
                &Value::map([
                    ("account", Value::from(account)),
                    ("amount", Value::from(outcome.refund_cash)),
                ]),
            )?;
        }
        Ok(())
    });

    reg.register("shop.return_cash_order", EntryKind::Mixed, |ctx| {
        let shop = ctx.param_str("shop")?.to_owned();
        let mint = ctx.param_str("mint")?.to_owned();
        let order = ctx.param_str("order_id")?.to_owned();
        let wallet_key = ctx.param_str("wallet_key")?.to_owned();
        let currency = ctx.param_str("currency")?.to_owned();
        let r = ctx.resources()?.call(
            &shop,
            "return_order",
            &Value::map([("order_id", Value::from(order))]),
        )?;
        let outcome: RefundOutcome = decode(ctx, &r)?;
        // Resource side settled; now the weakly reversible wallet absorbs
        // the new information: fresh coins (different serials!) or a note.
        let mut wallet = read_wallet(ctx, &wallet_key)?;
        if outcome.refund_cash > 0 {
            let coin_v = ctx.resources()?.call(
                &mint,
                "issue",
                &Value::map([("amount", Value::from(outcome.refund_cash))]),
            )?;
            let coin: Coin = decode(ctx, &coin_v)?;
            wallet.add_coin(coin);
        }
        if outcome.credit_note > 0 {
            wallet.add_note(CreditNote {
                issuer: shop,
                amount: outcome.credit_note,
                currency,
            });
        }
        write_wallet(ctx, &wallet_key, &wallet)
    });

    reg.register("exchange.convert_back", EntryKind::Mixed, |ctx| {
        let exchange = ctx.param_str("exchange")?.to_owned();
        let from_cur = ctx.param_str("from")?.to_owned();
        let to_cur = ctx.param_str("to")?.to_owned();
        let out_amount = ctx.param_i64("out_amount")?;
        let wallet_key = ctx.param_str("wallet_key")?.to_owned();
        // Surrender the received currency from the wallet. Fees charged by
        // other compensations (e.g. a shop restocking fee) may have left
        // less than the original amount: compensation produces an
        // *equivalent*, not identical, state (§3.2), so we convert back
        // whatever is still there.
        let mut wallet = read_wallet(ctx, &wallet_key)?;
        let available = wallet.cash(&to_cur).min(out_amount);
        if available <= 0 {
            return write_wallet(ctx, &wallet_key, &wallet);
        }
        wallet
            .take(available, &to_cur)
            .expect("take of available cash succeeds");
        // …convert it back at the exchange…
        let coin_v = ctx.resources()?.call(
            &exchange,
            "convert",
            &Value::map([
                ("from", Value::from(to_cur)),
                ("to", Value::from(from_cur)),
                ("amount", Value::from(available)),
            ]),
        )?;
        let coin: Coin = decode(ctx, &coin_v)?;
        // …and keep the fresh coin (equivalent value, different serial).
        wallet.add_coin(coin);
        write_wallet(ctx, &wallet_key, &wallet)
    });

    reg.register("mint.void_coin", EntryKind::Resource, |ctx| {
        let mint = ctx.param_str("mint")?.to_owned();
        let serial = ctx.param_str("serial")?.to_owned();
        ctx.resources()?.call(
            &mint,
            "void",
            &Value::map([("serials", Value::list([Value::from(serial)]))]),
        )?;
        Ok(())
    });

    reg.register("dir.retract", EntryKind::Resource, |ctx| {
        let dir = ctx.param_str("dir")?.to_owned();
        let topic = ctx.param_str("topic")?.to_owned();
        ctx.resources()?.call(
            &dir,
            "retract",
            &Value::map([("topic", Value::from(topic))]),
        )?;
        Ok(())
    });

    reg.register("wro.set", EntryKind::Agent, |ctx| {
        let key = ctx.param_str("key")?.to_owned();
        let value = ctx.param("value")?.clone();
        ctx.wro()?.insert(key, value);
        Ok(())
    });

    reg.register("wro.add_i64", EntryKind::Agent, |ctx| {
        let key = ctx.param_str("key")?.to_owned();
        let delta = ctx.param_i64("delta")?;
        let wro = ctx.wro()?;
        let cur = wro.get(&key).and_then(Value::as_i64).unwrap_or(0);
        wro.insert(key, Value::from(cur + delta));
        Ok(())
    });

    reg.register("wro.list_pop", EntryKind::Agent, |ctx| {
        let key = ctx.param_str("key")?.to_owned();
        let wro = ctx.wro()?;
        if let Some(Value::List(items)) = wro.get_mut(&key) {
            items.pop();
        }
        Ok(())
    });
}

fn decode<T: serde::de::DeserializeOwned>(ctx: &CompCtx<'_>, v: &Value) -> Result<T, CompError> {
    mar_wire::from_value(v).map_err(|e| CompError::BadParams {
        op: format!("decode@{}", ctx.now_micros()),
        reason: e.to_string(),
    })
}

fn read_wallet(ctx: &mut CompCtx<'_>, key: &str) -> Result<Wallet, CompError> {
    let v = ctx
        .wro()?
        .get(key)
        .cloned()
        .ok_or_else(|| CompError::BadParams {
            op: "wallet".to_owned(),
            reason: format!("no weakly reversible object {key:?}"),
        })?;
    Wallet::from_value(&v).map_err(|e| CompError::BadParams {
        op: "wallet".to_owned(),
        reason: e.to_string(),
    })
}

fn write_wallet(ctx: &mut CompCtx<'_>, key: &str, wallet: &Wallet) -> Result<(), CompError> {
    let v = wallet.to_value().map_err(|e| CompError::BadParams {
        op: "wallet".to_owned(),
        reason: e.to_string(),
    })?;
    ctx.wro()?.insert(key.to_owned(), v);
    Ok(())
}

// ---- compensating-operation builders --------------------------------------

/// Compensation for an account-paid shop purchase.
pub fn comp_return_account_order(shop: &str, order_id: &str, bank: &str, account: &str) -> CompOp {
    CompOp::new(
        "shop.return_account_order",
        Value::map([
            ("shop", Value::from(shop)),
            ("order_id", Value::from(order_id)),
            ("bank", Value::from(bank)),
            ("account", Value::from(account)),
        ]),
    )
}

/// Compensation for a cash-paid shop purchase (mixed: wallet + shop + mint).
pub fn comp_return_cash_order(
    shop: &str,
    mint: &str,
    order_id: &str,
    wallet_key: &str,
    currency: &str,
) -> CompOp {
    CompOp::new(
        "shop.return_cash_order",
        Value::map([
            ("shop", Value::from(shop)),
            ("mint", Value::from(mint)),
            ("order_id", Value::from(order_id)),
            ("wallet_key", Value::from(wallet_key)),
            ("currency", Value::from(currency)),
        ]),
    )
}

/// Compensation for a currency conversion (the paper's mixed-entry example).
pub fn comp_convert_back(
    exchange: &str,
    from_cur: &str,
    to_cur: &str,
    out_amount: i64,
    wallet_key: &str,
) -> CompOp {
    CompOp::new(
        "exchange.convert_back",
        Value::map([
            ("exchange", Value::from(exchange)),
            ("from", Value::from(from_cur)),
            ("to", Value::from(to_cur)),
            ("out_amount", Value::from(out_amount)),
            ("wallet_key", Value::from(wallet_key)),
        ]),
    )
}

/// Compensation for a flight booking.
pub fn comp_cancel_booking(flight_rm: &str, booking_id: &str, bank: &str, account: &str) -> CompOp {
    CompOp::new(
        "flight.cancel_booking",
        Value::map([
            ("flight_rm", Value::from(flight_rm)),
            ("booking_id", Value::from(booking_id)),
            ("bank", Value::from(bank)),
            ("account", Value::from(account)),
        ]),
    )
}

/// Compensation for a mint `issue`: void the issued coin again. The serial
/// comes from the forward result — the natural fit for the typed
/// [`IssueCoins`](crate::ops::IssueCoins) op, which derives this entry from
/// the coin it received.
pub fn comp_void_coin(mint: &str, serial: &str) -> CompOp {
    CompOp::new(
        "mint.void_coin",
        Value::map([("mint", Value::from(mint)), ("serial", Value::from(serial))]),
    )
}

/// Compensation for a directory `publish`: retract the entry again.
pub fn comp_dir_retract(dir: &str, topic: &str) -> CompOp {
    CompOp::new(
        "dir.retract",
        Value::map([("dir", Value::from(dir)), ("topic", Value::from(topic))]),
    )
}

/// Generic agent compensation: restore a WRO key to a captured value.
pub fn comp_wro_set(key: &str, value: Value) -> CompOp {
    CompOp::new(
        "wro.set",
        Value::map([("key", Value::from(key)), ("value", value)]),
    )
}

/// Generic agent compensation: add a delta to an integer WRO key.
pub fn comp_wro_add(key: &str, delta: i64) -> CompOp {
    CompOp::new(
        "wro.add_i64",
        Value::map([("key", Value::from(key)), ("delta", Value::from(delta))]),
    )
}

/// Generic agent compensation: pop the last element pushed to a WRO list.
pub fn comp_wro_list_pop(key: &str) -> CompOp {
    CompOp::new("wro.list_pop", Value::map([("key", Value::from(key))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_core::comp::ResourceAccess;
    use mar_core::ObjectMap;
    use mar_simnet::{NodeId, SimDuration, SimTime};
    use mar_txn::{OpCtx, RmRegistry, TxnError, TxnId};

    use crate::bank::BankRm;
    use crate::exchange::ExchangeRm;
    use crate::mint::MintRm;
    use crate::shop::{RefundPolicy, ShopRm};

    /// Test double of the platform's resource access: runs ops directly
    /// against a local registry inside one transaction.
    struct LocalAccess {
        rms: RmRegistry,
        txn: TxnId,
        now: SimTime,
    }

    impl ResourceAccess for LocalAccess {
        fn call(&mut self, resource: &str, op: &str, params: &Value) -> Result<Value, CompError> {
            self.rms
                .invoke(
                    OpCtx {
                        txn: self.txn,
                        now: self.now,
                    },
                    resource,
                    op,
                    params,
                )
                .map_err(|e| CompError::Failed {
                    op: format!("{resource}.{op}"),
                    reason: e.to_string(),
                    retryable: matches!(e, TxnError::WouldBlock { .. }),
                })
        }
    }

    fn registry() -> CompOpRegistry {
        let mut reg = CompOpRegistry::new();
        register_all(&mut reg);
        reg
    }

    fn access() -> LocalAccess {
        let mut rms = RmRegistry::new();
        rms.register(Box::new(
            BankRm::new("bank", false).with_account("alice", 100),
        ));
        rms.register(Box::new(
            ShopRm::new(
                "shop",
                RefundPolicy {
                    cash_window: SimDuration::from_secs(10),
                    fee_permille: 100,
                },
            )
            .with_item("cd", 50, 5),
        ));
        rms.register(Box::new(MintRm::new("mint", "USD")));
        rms.register(Box::new(
            ExchangeRm::new("fx")
                .with_rate("USD", "EUR", 9, 10)
                .with_reserve("USD", 1000)
                .with_reserve("EUR", 1000),
        ));
        LocalAccess {
            rms,
            txn: TxnId::new(NodeId(0), 1),
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn undo_transfer_reverses_direction() {
        let reg = registry();
        let mut acc = access();
        acc.rms
            .invoke(
                OpCtx {
                    txn: acc.txn,
                    now: acc.now,
                },
                "bank",
                "open",
                &Value::map([
                    ("account", Value::from("bob")),
                    ("initial", Value::from(0i64)),
                ]),
            )
            .unwrap();
        acc.rms
            .invoke(
                OpCtx {
                    txn: acc.txn,
                    now: acc.now,
                },
                "bank",
                "transfer",
                &Value::map([
                    ("from", Value::from("alice")),
                    ("to", Value::from("bob")),
                    ("amount", Value::from(30i64)),
                ]),
            )
            .unwrap();
        let op = crate::bank::comp_undo_transfer("bank", "alice", "bob", 30);
        reg.execute(&op, 0, Some(&mut acc), None).unwrap();
        let bal = acc
            .call(
                "bank",
                "balance",
                &Value::map([("account", Value::from("alice"))]),
            )
            .unwrap();
        assert_eq!(bal.as_i64(), Some(100));
    }

    #[test]
    fn undo_deposit_fails_retryably_on_empty_account() {
        let reg = registry();
        let mut acc = access();
        // Deposit was committed, but someone drained the account: alice has
        // 100; compensation wants to withdraw 500.
        let op = crate::bank::comp_undo_deposit("bank", "alice", 500);
        let err = reg.execute(&op, 0, Some(&mut acc), None).unwrap_err();
        assert!(matches!(err, CompError::Failed { .. }));
    }

    #[test]
    fn cash_order_return_issues_fresh_coins() {
        let reg = registry();
        let mut acc = access();
        // Buy with cash: wallet pays 50, shop till +50.
        let ctx = OpCtx {
            txn: acc.txn,
            now: acc.now,
        };
        let r = acc
            .rms
            .invoke(
                ctx,
                "shop",
                "buy_paid",
                &Value::map([
                    ("sku", Value::from("cd")),
                    ("qty", Value::from(1i64)),
                    ("paid", Value::from(50i64)),
                ]),
            )
            .unwrap();
        let order_id = r.get("order_id").unwrap().as_str().unwrap().to_owned();

        let mut wro = ObjectMap::new();
        let wallet = Wallet::new(); // coins already spent at purchase time
        wro.insert("wallet".to_owned(), wallet.to_value().unwrap());

        let op = comp_return_cash_order("shop", "mint", &order_id, "wallet", "USD");
        assert_eq!(reg.kind_of(&op.name), Some(EntryKind::Mixed));
        reg.execute(&op, 0, Some(&mut acc), Some(&mut wro)).unwrap();

        let back = Wallet::from_value(wro.get("wallet").unwrap()).unwrap();
        assert_eq!(back.cash("USD"), 45, "refund minus 10% fee");
        assert!(
            back.serials()[0].starts_with("mint-"),
            "freshly minted serial"
        );
    }

    #[test]
    fn convert_back_round_trips_wallet() {
        let reg = registry();
        let mut acc = access();
        // Wallet holds 90 EUR received from converting 100 USD earlier.
        let mut wro = ObjectMap::new();
        let wallet = Wallet::with_coins([Coin {
            serial: "fx-x1".into(),
            value: 90,
            currency: "EUR".into(),
        }]);
        wro.insert("wallet".to_owned(), wallet.to_value().unwrap());
        // Pre-position exchange reserves as after the forward conversion.
        let ctx = OpCtx {
            txn: acc.txn,
            now: acc.now,
        };
        acc.rms
            .invoke(
                ctx,
                "fx",
                "convert",
                &Value::map([
                    ("from", Value::from("USD")),
                    ("to", Value::from("EUR")),
                    ("amount", Value::from(100i64)),
                ]),
            )
            .unwrap();

        let op = comp_convert_back("fx", "USD", "EUR", 90, "wallet");
        reg.execute(&op, 0, Some(&mut acc), Some(&mut wro)).unwrap();
        let back = Wallet::from_value(wro.get("wallet").unwrap()).unwrap();
        assert_eq!(back.cash("EUR"), 0);
        assert_eq!(back.cash("USD"), 100);
    }

    #[test]
    fn convert_back_with_drained_wallet_converts_nothing() {
        let reg = registry();
        let mut acc = access();
        let mut wro = ObjectMap::new();
        wro.insert("wallet".to_owned(), Wallet::new().to_value().unwrap());
        let op = comp_convert_back("fx", "USD", "EUR", 90, "wallet");
        reg.execute(&op, 0, Some(&mut acc), Some(&mut wro)).unwrap();
        let back = Wallet::from_value(wro.get("wallet").unwrap()).unwrap();
        assert_eq!(back.cash("USD"), 0, "nothing left to convert back");
    }

    #[test]
    fn convert_back_partial_after_fees() {
        let reg = registry();
        let mut acc = access();
        // The wallet holds only 81 of the original 90 EUR (a 9 EUR fee was
        // charged elsewhere): conversion returns the equivalent of 81.
        let mut wro = ObjectMap::new();
        let wallet = Wallet::with_coins([Coin {
            serial: "fx-x9".into(),
            value: 81,
            currency: "EUR".into(),
        }]);
        wro.insert("wallet".to_owned(), wallet.to_value().unwrap());
        let op = comp_convert_back("fx", "USD", "EUR", 90, "wallet");
        reg.execute(&op, 0, Some(&mut acc), Some(&mut wro)).unwrap();
        let back = Wallet::from_value(wro.get("wallet").unwrap()).unwrap();
        assert_eq!(back.cash("EUR"), 0);
        assert_eq!(back.cash("USD"), 90); // 81 EUR * 10/9
    }

    #[test]
    fn wro_generics() {
        let reg = registry();
        let mut wro = ObjectMap::new();
        wro.insert("n".to_owned(), Value::from(10i64));
        wro.insert(
            "log".to_owned(),
            Value::list([Value::from("a"), Value::from("b")]),
        );
        let add = comp_wro_add("n", -4);
        reg.execute(&add, 0, None, Some(&mut wro)).unwrap();
        assert_eq!(wro.get("n").and_then(Value::as_i64), Some(6));
        let pop = comp_wro_list_pop("log");
        reg.execute(&pop, 0, None, Some(&mut wro)).unwrap();
        assert_eq!(wro.get("log").unwrap().as_list().unwrap().len(), 1);
        let set = comp_wro_set("n", Value::from(99i64));
        reg.execute(&set, 0, None, Some(&mut wro)).unwrap();
        assert_eq!(wro.get("n").and_then(Value::as_i64), Some(99));
    }
}
