//! Shared helpers for resource implementations: parameter extraction and
//! typed transactional reads/writes.

use mar_txn::{TxStore, TxnError, TxnId};
use mar_wire::Value;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Extracts a required string parameter.
pub(crate) fn p_str<'a>(op: &str, params: &'a Value, key: &str) -> Result<&'a str, TxnError> {
    params
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| TxnError::BadRequest(format!("{op}: missing string parameter {key:?}")))
}

/// Extracts a required integer parameter.
pub(crate) fn p_i64(op: &str, params: &Value, key: &str) -> Result<i64, TxnError> {
    params
        .get(key)
        .and_then(Value::as_i64)
        .ok_or_else(|| TxnError::BadRequest(format!("{op}: missing integer parameter {key:?}")))
}

/// Extracts a required positive amount.
pub(crate) fn p_amount(op: &str, params: &Value, key: &str) -> Result<i64, TxnError> {
    let v = p_i64(op, params, key)?;
    if v <= 0 {
        return Err(TxnError::BadRequest(format!(
            "{op}: {key:?} must be positive, got {v}"
        )));
    }
    Ok(v)
}

/// Reads a typed record from a store.
pub(crate) fn read_t<T: DeserializeOwned>(
    store: &mut TxStore,
    txn: TxnId,
    key: &str,
) -> Result<Option<T>, TxnError> {
    match store.read(txn, key)? {
        Some(bytes) => Ok(Some(mar_wire::from_slice(bytes)?)),
        None => Ok(None),
    }
}

/// Writes a typed record to a store.
pub(crate) fn write_t<T: Serialize>(
    store: &mut TxStore,
    txn: TxnId,
    key: &str,
    value: &T,
) -> Result<(), TxnError> {
    store.write(txn, key, mar_wire::to_bytes(value)?)
}

/// Non-transactional typed read (test inspection / money audits).
pub(crate) fn peek_t<T: DeserializeOwned>(store: &TxStore, key: &str) -> Option<T> {
    store.peek(key).and_then(|b| mar_wire::from_slice(b).ok())
}

/// Business-rule rejection shorthand.
pub(crate) fn rejected(resource: &str, reason: impl Into<String>) -> TxnError {
    TxnError::Rejected {
        resource: resource.to_owned(),
        reason: reason.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_simnet::NodeId;

    #[test]
    fn param_extraction() {
        let params = Value::map([("a", Value::from(3i64)), ("s", Value::from("x"))]);
        assert_eq!(p_i64("op", &params, "a").unwrap(), 3);
        assert_eq!(p_str("op", &params, "s").unwrap(), "x");
        assert!(p_i64("op", &params, "s").is_err());
        assert!(p_amount("op", &Value::map([("a", Value::from(-1i64))]), "a").is_err());
        assert!(p_amount("op", &params, "a").is_ok());
    }

    #[test]
    fn typed_store_roundtrip() {
        let mut store = TxStore::new();
        let txn = TxnId::new(NodeId(0), 1);
        write_t(&mut store, txn, "k", &(1u32, "x".to_owned())).unwrap();
        let v: Option<(u32, String)> = read_t(&mut store, txn, "k").unwrap();
        assert_eq!(v, Some((1, "x".to_owned())));
        store.commit(txn);
        let p: Option<(u32, String)> = peek_t(&store, "k");
        assert_eq!(p, Some((1, "x".to_owned())));
    }
}
