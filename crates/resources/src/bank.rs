//! A transactional bank: the paper's running example resource.
//!
//! With overdraft allowed, `deposit`/`withdraw` commute and compensation is
//! *sound* (§3.2); without overdraft, compensating a deposit is *failable*
//! — the compensating withdrawal needs sufficient funds.

use mar_core::comp::CompOp;
use mar_txn::{OpCtx, ResourceManager, TxStore, TxnError, TxnId};
use mar_wire::Value;
use serde::{Deserialize, Serialize, Serializer};

use crate::util::{p_amount, p_str, peek_t, read_t, rejected, write_t};

/// One audit record of a committed bank operation; used by the exactly-once
/// and conservation checks of the test suite.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankAudit {
    /// The operation name.
    pub op: String,
    /// Affected account.
    pub account: String,
    /// Signed amount applied to the account.
    pub delta: i64,
    /// Transaction key (coordinator.seq).
    pub txn: String,
}

/// A bank resource manager holding named accounts.
pub struct BankRm {
    name: String,
    allow_overdraft: bool,
    store: TxStore,
}

impl BankRm {
    /// Creates a bank named `name`. `allow_overdraft` controls whether
    /// withdrawals may push balances below zero.
    pub fn new(name: impl Into<String>, allow_overdraft: bool) -> Self {
        BankRm {
            name: name.into(),
            allow_overdraft,
            store: TxStore::new(),
        }
    }

    /// Seeds an account before the world starts.
    pub fn with_account(mut self, account: &str, initial: i64) -> Self {
        self.store.seed(
            format!("acct/{account}"),
            mar_wire::to_bytes(&initial).unwrap(),
        );
        self
    }

    /// Non-transactional balance inspection.
    pub fn balance_of(&self, account: &str) -> Option<i64> {
        peek_t(&self.store, &format!("acct/{account}"))
    }

    /// Sum of all account balances (conservation checks).
    pub fn total_money(&self) -> i64 {
        self.store
            .iter()
            .filter(|(k, _)| k.starts_with("acct/"))
            .filter_map(|(_, v)| mar_wire::from_slice::<i64>(v).ok())
            .sum()
    }

    /// Committed audit records in order.
    pub fn audit(&self) -> Vec<BankAudit> {
        self.store
            .iter()
            .filter(|(k, _)| k.starts_with("audit/"))
            .filter_map(|(_, v)| mar_wire::from_slice(v).ok())
            .collect()
    }

    fn balance(&mut self, txn: TxnId, account: &str) -> Result<i64, TxnError> {
        self.balance_at(txn, account, &format!("acct/{account}"))
    }

    /// The balance of `account`, whose store key is `key`.
    fn balance_at(&mut self, txn: TxnId, account: &str, key: &str) -> Result<i64, TxnError> {
        read_t::<i64>(&mut self.store, txn, key)?
            .ok_or_else(|| rejected(&self.name, format!("no account {account:?}")))
    }

    /// Posts `delta` to `account` and appends the audit record.
    fn post(&mut self, txn: TxnId, op: &str, account: &str, delta: i64) -> Result<i64, TxnError> {
        let key = format!("acct/{account}");
        let cur = self.balance_at(txn, account, &key)?;
        let next = cur + delta;
        if next < 0 && !self.allow_overdraft {
            return Err(rejected(
                &self.name,
                format!(
                    "insufficient funds: {account:?} has {cur}, needs {}",
                    -delta
                ),
            ));
        }
        write_t(&mut self.store, txn, &key, &next)?;
        let seq = self.store.next_seq();
        let rec = AuditRef {
            op,
            account,
            delta,
            txn,
        };
        write_t(&mut self.store, txn, &format!("audit/{seq:012}"), &rec)?;
        Ok(next)
    }
}

/// A [`BankAudit`] encoded from borrowed fields: the same bytes, nothing
/// copied to be encoded.
struct AuditRef<'a> {
    op: &'a str,
    account: &'a str,
    delta: i64,
    txn: TxnId,
}

impl Serialize for AuditRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        use std::fmt::Write;
        // `TxnId::key`, formatted in place: two integers and a dot.
        let mut txn = KeyBuf::default();
        write!(txn, "{}.{}", self.txn.coordinator.0, self.txn.seq).expect("fits");
        let mut rec = serializer.serialize_struct("BankAudit", 4)?;
        rec.serialize_field("op", self.op)?;
        rec.serialize_field("account", self.account)?;
        rec.serialize_field("delta", &self.delta)?;
        rec.serialize_field("txn", txn.as_str())?;
        rec.end()
    }
}

/// Room for a [`TxnId::key`]: a `u32`, a dot and a `u64`, at most 31 bytes.
#[derive(Default)]
struct KeyBuf {
    buf: [u8; 32],
    len: usize,
}

impl KeyBuf {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("written as str")
    }
}

impl std::fmt::Write for KeyBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        let room = self.buf.get_mut(self.len..end).ok_or(std::fmt::Error)?;
        room.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl ResourceManager for BankRm {
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError> {
        match op {
            "open" => {
                let account = p_str(op, params, "account")?;
                let initial = params.get("initial").and_then(Value::as_i64).unwrap_or(0);
                let key = format!("acct/{account}");
                if read_t::<i64>(&mut self.store, ctx.txn, &key)?.is_some() {
                    return Err(rejected(&self.name, format!("account {account:?} exists")));
                }
                write_t(&mut self.store, ctx.txn, &key, &initial)?;
                Ok(Value::Null)
            }
            "balance" => {
                let account = p_str(op, params, "account")?;
                Ok(Value::from(self.balance(ctx.txn, account)?))
            }
            "deposit" => {
                let account = p_str(op, params, "account")?;
                let amount = p_amount(op, params, "amount")?;
                Ok(Value::from(self.post(ctx.txn, op, account, amount)?))
            }
            "withdraw" => {
                let account = p_str(op, params, "account")?;
                let amount = p_amount(op, params, "amount")?;
                Ok(Value::from(self.post(ctx.txn, op, account, -amount)?))
            }
            "transfer" => {
                let from = p_str(op, params, "from")?;
                let to = p_str(op, params, "to")?;
                let amount = p_amount(op, params, "amount")?;
                self.post(ctx.txn, op, from, -amount)?;
                self.post(ctx.txn, op, to, amount)?;
                Ok(Value::Null)
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
        Value::map([("USD", Value::from(self.total_money()))])
    }
}

/// Builds the compensating operation for a committed `deposit` (§3.2's
/// failable example: the withdrawal needs funds to still be there).
pub fn comp_undo_deposit(bank: &str, account: &str, amount: i64) -> CompOp {
    CompOp::new(
        "bank.undo_deposit",
        Value::map([
            ("bank", Value::from(bank)),
            ("account", Value::from(account)),
            ("amount", Value::from(amount)),
        ]),
    )
}

/// Builds the compensating operation for a committed `withdraw`.
pub fn comp_undo_withdraw(bank: &str, account: &str, amount: i64) -> CompOp {
    CompOp::new(
        "bank.undo_withdraw",
        Value::map([
            ("bank", Value::from(bank)),
            ("account", Value::from(account)),
            ("amount", Value::from(amount)),
        ]),
    )
}

/// Builds the compensating operation for a committed `transfer` — the
/// paper's §4.4.1 example of a pure resource compensation entry ("all
/// information necessary … is the two bank accounts and the amount").
pub fn comp_undo_transfer(bank: &str, from: &str, to: &str, amount: i64) -> CompOp {
    CompOp::new(
        "bank.undo_transfer",
        Value::map([
            ("bank", Value::from(bank)),
            ("from", Value::from(from)),
            ("to", Value::from(to)),
            ("amount", Value::from(amount)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_simnet::SimTime;

    fn ctx(seq: u64) -> OpCtx {
        OpCtx {
            txn: TxnId::new(mar_simnet::NodeId(0), seq),
            now: SimTime::ZERO,
        }
    }

    fn bank() -> BankRm {
        BankRm::new("bank", false)
            .with_account("alice", 100)
            .with_account("bob", 50)
    }

    #[test]
    fn deposit_withdraw_transfer() {
        let mut b = bank();
        b.invoke(
            ctx(1),
            "deposit",
            &Value::map([
                ("account", Value::from("alice")),
                ("amount", Value::from(20i64)),
            ]),
        )
        .unwrap();
        b.invoke(
            ctx(1),
            "transfer",
            &Value::map([
                ("from", Value::from("alice")),
                ("to", Value::from("bob")),
                ("amount", Value::from(70i64)),
            ]),
        )
        .unwrap();
        b.commit(ctx(1).txn);
        assert_eq!(b.balance_of("alice"), Some(50));
        assert_eq!(b.balance_of("bob"), Some(120));
        assert_eq!(b.total_money(), 170);
        assert_eq!(b.audit().len(), 3);
    }

    #[test]
    fn overdraft_rejected_without_policy() {
        let mut b = bank();
        let err = b
            .invoke(
                ctx(1),
                "withdraw",
                &Value::map([
                    ("account", Value::from("alice")),
                    ("amount", Value::from(500i64)),
                ]),
            )
            .unwrap_err();
        assert!(matches!(err, TxnError::Rejected { .. }));
        assert!(err.to_string().contains("insufficient funds"));
    }

    #[test]
    fn overdraft_allowed_with_policy() {
        let mut b = BankRm::new("bank", true).with_account("alice", 10);
        b.invoke(
            ctx(1),
            "withdraw",
            &Value::map([
                ("account", Value::from("alice")),
                ("amount", Value::from(500i64)),
            ]),
        )
        .unwrap();
        b.commit(ctx(1).txn);
        assert_eq!(b.balance_of("alice"), Some(-490));
    }

    #[test]
    fn abort_reverts_everything_including_audit() {
        let mut b = bank();
        b.invoke(
            ctx(2),
            "deposit",
            &Value::map([
                ("account", Value::from("alice")),
                ("amount", Value::from(5i64)),
            ]),
        )
        .unwrap();
        b.abort(ctx(2).txn);
        assert_eq!(b.balance_of("alice"), Some(100));
        assert!(b.audit().is_empty());
    }

    #[test]
    fn unknown_account_and_op() {
        let mut b = bank();
        assert!(b
            .invoke(
                ctx(1),
                "balance",
                &Value::map([("account", Value::from("eve"))])
            )
            .is_err());
        assert!(b.invoke(ctx(1), "nope", &Value::Null).is_err());
    }

    #[test]
    fn open_rejects_duplicates() {
        let mut b = bank();
        assert!(b
            .invoke(
                ctx(1),
                "open",
                &Value::map([("account", Value::from("alice"))])
            )
            .is_err());
        b.invoke(
            ctx(1),
            "open",
            &Value::map([
                ("account", Value::from("carol")),
                ("initial", Value::from(7i64)),
            ]),
        )
        .unwrap();
        b.commit(ctx(1).txn);
        assert_eq!(b.balance_of("carol"), Some(7));
    }

    #[test]
    fn snapshot_restore() {
        let mut b = bank();
        b.invoke(
            ctx(1),
            "deposit",
            &Value::map([
                ("account", Value::from("bob")),
                ("amount", Value::from(9i64)),
            ]),
        )
        .unwrap();
        b.commit(ctx(1).txn);
        let snap = b.snapshot().unwrap();
        let mut b2 = BankRm::new("bank", false);
        b2.restore(&snap).unwrap();
        assert_eq!(b2.balance_of("bob"), Some(59));
    }

    /// Recovery must not rewind the audit counter: the first operation after
    /// a restore appends to the trail instead of overwriting its first entry,
    /// whether the counter comes back from a base image or from a delta.
    #[test]
    fn audit_trail_only_grows_across_restore() {
        let deposit = Value::map([
            ("account", Value::from("bob")),
            ("amount", Value::from(1i64)),
        ]);
        let mut b = bank();
        b.invoke(ctx(1), "deposit", &deposit).unwrap();
        b.invoke(ctx(1), "deposit", &deposit).unwrap();
        b.commit(ctx(1).txn);
        let base = b.snapshot().unwrap();
        b.invoke(ctx(2), "deposit", &deposit).unwrap();
        let delta = b.prepare(ctx(2).txn).expect("a deposit writes");
        b.commit(ctx(2).txn);
        let before = b.audit();
        assert_eq!(before.len(), 3);

        for with_delta in [false, true] {
            let mut r = BankRm::new("bank", false);
            r.restore(&base).unwrap();
            if with_delta {
                r.apply_delta(&delta).unwrap();
            }
            let kept = r.audit();
            assert_eq!(kept, before[..kept.len()]);
            r.invoke(ctx(3), "deposit", &deposit).unwrap();
            r.commit(ctx(3).txn);
            let after = r.audit();
            assert_eq!(after.len(), kept.len() + 1, "with_delta={with_delta}");
            assert_eq!(after[..kept.len()], kept[..], "with_delta={with_delta}");
        }
    }

    /// The audit record is encoded from borrowed fields, to the bytes the
    /// owned record has, and decodes as one; the longest transaction key
    /// fits in place.
    #[test]
    fn the_borrowed_audit_record_is_a_bank_audit() {
        for txn in [
            ctx(7).txn,
            TxnId::new(mar_simnet::NodeId(u32::MAX), u64::MAX),
        ] {
            let owned = BankAudit {
                op: "transfer".into(),
                account: "s12".into(),
                delta: -5,
                txn: txn.key(),
            };
            let borrowed = AuditRef {
                op: "transfer",
                account: "s12",
                delta: -5,
                txn,
            };
            let bytes = mar_wire::to_bytes(&borrowed).unwrap();
            assert_eq!(bytes, mar_wire::to_bytes(&owned).unwrap());
            assert_eq!(mar_wire::from_slice::<BankAudit>(&bytes).unwrap(), owned);
        }
    }

    #[test]
    fn comp_builders_have_resource_kind() {
        let mut reg = mar_core::comp::CompOpRegistry::new();
        crate::register_compensations(&mut reg);
        let op = comp_undo_transfer("bank", "a", "b", 10);
        assert_eq!(
            reg.kind_of(&op.name),
            Some(mar_core::comp::EntryKind::Resource)
        );
        assert_eq!(op.name, "bank.undo_transfer");
        assert_eq!(op.params.get("amount").and_then(Value::as_i64), Some(10));
    }
}
