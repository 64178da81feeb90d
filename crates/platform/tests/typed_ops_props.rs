//! Equivalence property for the typed-op layer: for every compensable
//! operation in `mar-resources`, `ctx.invoke(&op)` must be observationally
//! identical to the raw `ctx.call` + `ctx.compensate(comp_*)` pair —
//! identical forward resource effects, identical private-data effects, and
//! **byte-identical rollback-log frames** (the wire-compatibility guarantee
//! that makes the typed layer a pure convenience, not a format change).
//! Typed WRO ops (`ctx.apply`) are held to the same bar against manual
//! `set_wro` + `comp_wro_*` sequences, and every read-only op's
//! `ctx.query(&op)` against the raw `ctx.call` plus the same decode: the
//! same result, the same effects, and nothing logged.
//!
//! It is also the check that every compensation a typed op derives is
//! registered: the typed path runs against the registry
//! `register_compensations` fills, and `invoke`/`apply` refuse a
//! compensation it does not hold.

use proptest::prelude::*;

use mar_core::comp::{CompOp, CompOpRegistry, ResourceOp};
use mar_core::{DataSpace, RollbackLog};
use mar_platform::StepCtx;
use mar_resources::ops::{
    Balance, BookFlight, BuyWithAccount, BuyWithCash, ConvertCash, Deposit, IssueCoins,
    PublishEntry, QueryTopic, QuoteFlight, QuoteItem, QuoteRate, Transfer, VerifyCoin, Withdraw,
    WroAdd, WroPush, WroSet,
};
use mar_resources::{
    comp_cancel_booking, comp_convert_back, comp_dir_retract, comp_return_account_order,
    comp_return_cash_order, comp_undo_deposit, comp_undo_transfer, comp_undo_withdraw,
    comp_void_coin, comp_wro_add, comp_wro_list_pop, comp_wro_set, BankRm, Coin, DirectoryRm,
    ExchangeRm, FlightRm, MintRm, RefundPolicy, ShopRm, Wallet,
};
use mar_simnet::{NodeId, SimDuration, SimRng, SimTime};
use mar_txn::{RmRegistry, TxnId};
use mar_wire::Value;

/// One generated operation case, executed once through the typed path and
/// once through the raw escape hatch.
#[derive(Debug, Clone)]
enum Case {
    Deposit { amount: i64 },
    Withdraw { amount: i64 },
    Transfer { amount: i64 },
    Book,
    BuyAccount { qty: i64 },
    BuyCash { qty: i64 },
    Convert { amount: i64 },
    Issue { amount: i64 },
    Publish { text: String },
    WroSet { value: i64 },
    WroAdd { delta: i64 },
    WroPush { value: i64 },
}

fn case_strategy() -> impl Strategy<Value = Case> {
    prop_oneof![
        (1i64..500).prop_map(|amount| Case::Deposit { amount }),
        (1i64..500).prop_map(|amount| Case::Withdraw { amount }),
        (1i64..500).prop_map(|amount| Case::Transfer { amount }),
        Just(Case::Book),
        (1i64..5).prop_map(|qty| Case::BuyAccount { qty }),
        (1i64..5).prop_map(|qty| Case::BuyCash { qty }),
        (1i64..200).prop_map(|amount| Case::Convert { amount }),
        (1i64..200).prop_map(|amount| Case::Issue { amount }),
        "[a-z]{0,12}".prop_map(|text| Case::Publish { text }),
        (-50i64..50).prop_map(|value| Case::WroSet { value }),
        (-50i64..50).prop_map(|delta| Case::WroAdd { delta }),
        (-50i64..50).prop_map(|value| Case::WroPush { value }),
    ]
}

fn rms() -> RmRegistry {
    let mut rms = RmRegistry::new();
    rms.register(Box::new(
        BankRm::new("bank", false)
            .with_account("alice", 10_000)
            .with_account("bob", 500),
    ));
    rms.register(Box::new(
        FlightRm::new("air", 100).with_flight("LH1", 300, 50),
    ));
    rms.register(Box::new(
        ShopRm::new(
            "shop",
            RefundPolicy {
                cash_window: SimDuration::from_secs(10),
                fee_permille: 100,
            },
        )
        .with_item("cd", 50, 1_000),
    ));
    rms.register(Box::new(
        ExchangeRm::new("fx")
            .with_rate("USD", "EUR", 9, 10)
            .with_reserve("USD", 100_000)
            .with_reserve("EUR", 100_000),
    ));
    rms.register(Box::new(MintRm::new("mint", "USD")));
    rms.register(Box::new(
        DirectoryRm::new("dir").with_entry("news", Value::from("seed")),
    ));
    rms
}

fn base_data() -> DataSpace {
    let mut data = DataSpace::new();
    let wallet = Wallet::with_coins([Coin {
        serial: "seed-1".into(),
        value: 1_000,
        currency: "USD".into(),
    }]);
    data.set_wro("wallet", wallet.to_value().unwrap());
    data.set_wro("counter", Value::from(4i64));
    data.set_wro("log", Value::list([Value::from(1i64), Value::from(2i64)]));
    data
}

fn registry() -> CompOpRegistry {
    let mut reg = CompOpRegistry::new();
    mar_resources::register_compensations(&mut reg);
    reg
}

/// One generated read-only case: a typed query and the raw call it stands
/// for.
#[derive(Debug, Clone)]
enum Lookup {
    Balance {
        account: &'static str,
    },
    QuoteFlight,
    QuoteItem,
    QuoteRate {
        from: &'static str,
        to: &'static str,
    },
    VerifyCoin {
        serial: String,
    },
    QueryTopic {
        topic: &'static str,
    },
}

fn lookup_strategy() -> impl Strategy<Value = Lookup> {
    prop_oneof![
        prop_oneof![Just("alice"), Just("bob")].prop_map(|account| Lookup::Balance { account }),
        Just(Lookup::QuoteFlight),
        Just(Lookup::QuoteItem),
        prop_oneof![Just(("USD", "EUR")), Just(("EUR", "USD"))]
            .prop_map(|(from, to)| Lookup::QuoteRate { from, to }),
        "[a-z0-9-]{1,12}".prop_map(|serial| Lookup::VerifyCoin { serial }),
        prop_oneof![Just("news"), Just("none")].prop_map(|topic| Lookup::QueryTopic { topic }),
    ]
}

/// Runs one step body against a fresh, identically-seeded harness and
/// returns everything observable: the pending compensation entries (as the
/// serialized one-step rollback-log frame), the committed resource
/// snapshots, and the final data space.
type StepObservables = (Vec<u8>, Vec<(String, Vec<u8>)>, DataSpace);

fn run_step(body: impl FnOnce(&mut StepCtx<'_>)) -> StepObservables {
    let mut rms = rms();
    let mut data = base_data();
    let mut rng = SimRng::seed_from(99);
    let comps = registry();
    let txn = TxnId::new(NodeId(1), 7);
    let mut ctx = StepCtx::new(
        txn,
        SimTime::from_micros(1_000),
        NodeId(1),
        mar_core::AgentId(42),
        3,
        &mut rms,
        &mut data,
        &mut rng,
        &comps,
    );
    body(&mut ctx);
    let pending = ctx.pending_compensations().to_vec();
    drop(ctx);
    let mut log = RollbackLog::new();
    log.append_step(1, 3, "step", pending, vec![]);
    let frame = mar_wire::to_bytes(&log).expect("log frame encodes");
    rms.commit_all(txn).expect("commit encodes");
    let snaps = rms
        .names()
        .into_iter()
        .map(|name| {
            let snap = rms.get(&name).expect("registered").snapshot();
            (name, snap.expect("snapshot encodes"))
        })
        .collect();
    (frame, snaps, data)
}

/// The typed execution of a case.
fn typed(case: &Case, ctx: &mut StepCtx<'_>) {
    match case.clone() {
        Case::Deposit { amount } => {
            ctx.invoke(&Deposit::new("bank", "alice", amount)).unwrap();
        }
        Case::Withdraw { amount } => {
            ctx.invoke(&Withdraw::new("bank", "alice", amount)).unwrap();
        }
        Case::Transfer { amount } => {
            ctx.invoke(&Transfer::new("bank", "alice", "bob", amount))
                .unwrap();
        }
        Case::Book => {
            let booking = ctx
                .invoke(&BookFlight::new(
                    "air", "LH1", "carol", 300, "bank", "alice",
                ))
                .unwrap();
            assert!(booking.booking_id.starts_with("air-"));
        }
        Case::BuyAccount { qty } => {
            let order = ctx
                .invoke(&BuyWithAccount::new(
                    "shop",
                    "cd",
                    qty,
                    50 * qty,
                    "bank",
                    "alice",
                ))
                .unwrap();
            assert_eq!(order.cost, 50 * qty);
        }
        Case::BuyCash { qty } => {
            ctx.invoke(&BuyWithCash::new(
                "shop",
                "mint",
                "cd",
                qty,
                50 * qty,
                "wallet",
                "USD",
            ))
            .unwrap();
        }
        Case::Convert { amount } => {
            let coin = ctx
                .invoke(&ConvertCash::new("fx", "USD", "EUR", amount, "wallet"))
                .unwrap();
            assert_eq!(coin.currency, "EUR");
        }
        Case::Issue { amount } => {
            let coin = ctx.invoke(&IssueCoins::new("mint", amount)).unwrap();
            assert_eq!(coin.value, amount);
        }
        Case::Publish { text } => {
            ctx.invoke(&PublishEntry::new("dir", "news", Value::from(text)))
                .unwrap();
        }
        Case::WroSet { value } => {
            let before = ctx
                .apply(&WroSet::new("counter", Value::from(value)))
                .unwrap();
            assert_eq!(before.and_then(|v| v.as_i64()), Some(4));
        }
        Case::WroAdd { delta } => {
            ctx.apply(&WroAdd::new("counter", delta)).unwrap();
        }
        Case::WroPush { value } => {
            ctx.apply(&WroPush::new("log", Value::from(value))).unwrap();
        }
    }
}

/// The raw escape-hatch execution of the same case: explicit `call`,
/// hand-decoded result, hand-built compensation entry.
fn raw(case: &Case, ctx: &mut StepCtx<'_>) {
    match case.clone() {
        Case::Deposit { amount } => {
            ctx.call(
                "bank",
                "deposit",
                &Value::map([
                    ("account", Value::from("alice")),
                    ("amount", Value::from(amount)),
                ]),
            )
            .unwrap();
            ctx.compensate(comp_undo_deposit("bank", "alice", amount))
                .unwrap();
        }
        Case::Withdraw { amount } => {
            ctx.call(
                "bank",
                "withdraw",
                &Value::map([
                    ("account", Value::from("alice")),
                    ("amount", Value::from(amount)),
                ]),
            )
            .unwrap();
            ctx.compensate(comp_undo_withdraw("bank", "alice", amount))
                .unwrap();
        }
        Case::Transfer { amount } => {
            ctx.call(
                "bank",
                "transfer",
                &Value::map([
                    ("from", Value::from("alice")),
                    ("to", Value::from("bob")),
                    ("amount", Value::from(amount)),
                ]),
            )
            .unwrap();
            ctx.compensate(comp_undo_transfer("bank", "alice", "bob", amount))
                .unwrap();
        }
        Case::Book => {
            let r = ctx
                .call(
                    "air",
                    "book",
                    &Value::map([
                        ("flight", Value::from("LH1")),
                        ("passenger", Value::from("carol")),
                        ("paid", Value::from(300i64)),
                    ]),
                )
                .unwrap();
            let booking_id = r.get("booking_id").unwrap().as_str().unwrap().to_owned();
            ctx.compensate(comp_cancel_booking("air", &booking_id, "bank", "alice"))
                .unwrap();
        }
        Case::BuyAccount { qty } => {
            let r = ctx
                .call(
                    "shop",
                    "buy_paid",
                    &Value::map([
                        ("sku", Value::from("cd")),
                        ("qty", Value::from(qty)),
                        ("paid", Value::from(50 * qty)),
                    ]),
                )
                .unwrap();
            let order_id = r.get("order_id").unwrap().as_str().unwrap().to_owned();
            ctx.compensate(comp_return_account_order(
                "shop", &order_id, "bank", "alice",
            ))
            .unwrap();
        }
        Case::BuyCash { qty } => {
            let r = ctx
                .call(
                    "shop",
                    "buy_paid",
                    &Value::map([
                        ("sku", Value::from("cd")),
                        ("qty", Value::from(qty)),
                        ("paid", Value::from(50 * qty)),
                    ]),
                )
                .unwrap();
            let order_id = r.get("order_id").unwrap().as_str().unwrap().to_owned();
            ctx.compensate(comp_return_cash_order(
                "shop", "mint", &order_id, "wallet", "USD",
            ))
            .unwrap();
        }
        Case::Convert { amount } => {
            let coin_v = ctx
                .call(
                    "fx",
                    "convert",
                    &Value::map([
                        ("from", Value::from("USD")),
                        ("to", Value::from("EUR")),
                        ("amount", Value::from(amount)),
                    ]),
                )
                .unwrap();
            let coin: Coin = mar_wire::from_value(&coin_v).unwrap();
            ctx.compensate(comp_convert_back("fx", "USD", "EUR", coin.value, "wallet"))
                .unwrap();
        }
        Case::Issue { amount } => {
            let coin_v = ctx
                .call(
                    "mint",
                    "issue",
                    &Value::map([("amount", Value::from(amount))]),
                )
                .unwrap();
            let coin: Coin = mar_wire::from_value(&coin_v).unwrap();
            ctx.compensate(comp_void_coin("mint", &coin.serial))
                .unwrap();
        }
        Case::Publish { text } => {
            ctx.call(
                "dir",
                "publish",
                &Value::map([("topic", Value::from("news")), ("entry", Value::from(text))]),
            )
            .unwrap();
            ctx.compensate(comp_dir_retract("dir", "news")).unwrap();
        }
        Case::WroSet { value } => {
            let before = ctx.wro("counter").cloned().unwrap_or(Value::Null);
            ctx.set_wro("counter", Value::from(value));
            ctx.compensate(comp_wro_set("counter", before)).unwrap();
        }
        Case::WroAdd { delta } => {
            let cur = ctx.wro("counter").and_then(Value::as_i64).unwrap_or(0);
            ctx.set_wro("counter", Value::from(cur + delta));
            ctx.compensate(comp_wro_add("counter", -delta)).unwrap();
        }
        Case::WroPush { value } => {
            match ctx.data().wro_mut("log") {
                Some(Value::List(items)) => items.push(Value::from(value)),
                _ => ctx.set_wro("log", Value::list([Value::from(value)])),
            }
            ctx.compensate(comp_wro_list_pop("log")).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline equivalence: byte-identical log frames, identical
    /// committed resource snapshots, identical private data.
    #[test]
    fn typed_op_equals_raw_pair(case in case_strategy()) {
        let (frame_t, snaps_t, data_t) = run_step(|ctx| typed(&case, ctx));
        let (frame_r, snaps_r, data_r) = run_step(|ctx| raw(&case, ctx));
        prop_assert_eq!(frame_t, frame_r, "rollback-log frame differs: {:?}", case);
        prop_assert_eq!(snaps_t, snaps_r, "resource effects differ: {:?}", case);
        prop_assert_eq!(data_t, data_r, "data-space effects differ: {:?}", case);
    }
}

/// Runs `op` through `ctx.query` and its raw call (`resource`, `name`,
/// `params`, decoded by the op) in two identical harnesses.
fn query_matches_raw_call<O: ResourceOp>(op: &O, resource: &str, name: &str, params: Value)
where
    O::Output: PartialEq + std::fmt::Debug,
{
    let mut typed = None;
    let obs_t = run_step(|ctx| typed = Some(ctx.query(op)));
    let mut raw = None;
    let obs_r = run_step(|ctx| {
        let out = ctx
            .call(resource, name, &params)
            .expect("raw call succeeds");
        raw = Some(op.decode(&out).expect("raw result decodes"));
    });
    assert_eq!(
        typed.expect("query ran").ok(),
        raw,
        "{resource}.{name}: result"
    );
    assert_eq!(obs_t, obs_r, "{resource}.{name}: effects");
    assert_eq!(obs_t.0, run_step(|_| {}).0, "{resource}.{name} logged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every read-only op: `ctx.query` returns what the raw call decodes
    /// to, has the raw call's effects, and logs nothing.
    #[test]
    fn typed_query_equals_raw_call(lookup in lookup_strategy()) {
        let map = |k: &str, v: &str| Value::map([(k, Value::from(v))]);
        match lookup {
            Lookup::Balance { account } => query_matches_raw_call(
                &Balance::new("bank", account), "bank", "balance", map("account", account),
            ),
            Lookup::QuoteFlight => query_matches_raw_call(
                &QuoteFlight::new("air", "LH1"), "air", "quote", map("flight", "LH1"),
            ),
            Lookup::QuoteItem => query_matches_raw_call(
                &QuoteItem::new("shop", "cd"), "shop", "quote", map("sku", "cd"),
            ),
            Lookup::QuoteRate { from, to } => query_matches_raw_call(
                &QuoteRate::new("fx", from, to),
                "fx",
                "rate",
                Value::map([("from", Value::from(from)), ("to", Value::from(to))]),
            ),
            Lookup::VerifyCoin { serial } => query_matches_raw_call(
                &VerifyCoin::new("mint", serial.as_str()),
                "mint",
                "verify",
                map("serial", &serial),
            ),
            Lookup::QueryTopic { topic } => query_matches_raw_call(
                &QueryTopic::new("dir", topic), "dir", "query", map("topic", topic),
            ),
        }
    }
}

/// The EOS mixed flag — which routes the agent during rollback — must come
/// out identically for typed mixed ops.
#[test]
fn mixed_flag_matches_for_typed_and_raw() {
    let case = Case::Convert { amount: 50 };
    let (frame_t, _, _) = run_step(|ctx| typed(&case, ctx));
    let (frame_r, _, _) = run_step(|ctx| raw(&case, ctx));
    assert_eq!(frame_t, frame_r);
    let log: RollbackLog = mar_wire::from_slice(&frame_t).unwrap();
    assert!(log.last_eos().unwrap().has_mixed);
}

/// Sanity: the raw path rejects a compensation the registry does not hold
/// at step time. (A wrong kind cannot be written: the kind is looked up in
/// the registry, on either path.)
#[test]
fn raw_path_still_validates_kinds() {
    let mut rms = rms();
    let mut data = base_data();
    let mut rng = SimRng::seed_from(1);
    let comps = registry();
    let mut ctx = StepCtx::new(
        TxnId::new(NodeId(1), 8),
        SimTime::ZERO,
        NodeId(1),
        mar_core::AgentId(1),
        0,
        &mut rms,
        &mut data,
        &mut rng,
        &comps,
    );
    assert!(ctx.compensate(CompOp::new("ghost", Value::Null)).is_err());
}
