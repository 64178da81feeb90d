//! A read-only information service.
//!
//! Query results are typically stored by agents in *strongly reversible
//! objects* — e.g. the vector of gathered information of §4.1 — which the
//! rollback restores from a before-image without any compensating
//! operation.

use mar_txn::{OpCtx, ResourceManager, TxStore, TxnError};
use mar_wire::Value;

use crate::util::{p_str, write_t};

/// A directory of topic → entries, queried by agents while gathering
/// information.
pub struct DirectoryRm {
    name: String,
    store: TxStore,
    query_count: u64,
}

impl DirectoryRm {
    /// Creates an empty directory named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        DirectoryRm {
            name: name.into(),
            store: TxStore::new(),
            query_count: 0,
        }
    }

    /// Seeds an entry under `topic` before the world starts.
    pub fn with_entry(mut self, topic: &str, entry: Value) -> Self {
        let n = self.store.count_with_prefix_seed(topic);
        self.store.seed(
            format!("e/{topic}/{n:04}"),
            mar_wire::to_bytes(&entry).unwrap(),
        );
        self
    }

    /// Number of queries served since construction (test observability).
    pub fn query_count(&self) -> u64 {
        self.query_count
    }
}

trait CountSeed {
    fn count_with_prefix_seed(&self, topic: &str) -> usize;
}

impl CountSeed for TxStore {
    fn count_with_prefix_seed(&self, topic: &str) -> usize {
        self.iter()
            .filter(|(k, _)| k.starts_with(&format!("e/{topic}/")))
            .count()
    }
}

impl ResourceManager for DirectoryRm {
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError> {
        match op {
            "query" => {
                let topic = p_str(op, params, "topic")?.to_owned();
                self.query_count += 1;
                let prefix = format!("e/{topic}/");
                let keys = self.store.scan_keys(ctx.txn, &prefix)?;
                let mut out = Vec::new();
                for k in keys {
                    if let Some(bytes) = self.store.read(ctx.txn, &k)? {
                        out.push(mar_wire::from_slice::<Value>(bytes)?);
                    }
                }
                Ok(Value::List(out))
            }
            // Compensation hook: removes the most recent entry under a
            // topic (undo of `publish`).
            "retract" => {
                let topic = p_str(op, params, "topic")?.to_owned();
                let prefix = format!("e/{topic}/");
                let keys = self.store.scan_keys(ctx.txn, &prefix)?;
                match keys.last() {
                    Some(last) => {
                        self.store.remove(ctx.txn, last)?;
                        Ok(Value::Bool(true))
                    }
                    None => Ok(Value::Bool(false)),
                }
            }
            "publish" => {
                let topic = p_str(op, params, "topic")?.to_owned();
                let entry = params
                    .get("entry")
                    .cloned()
                    .ok_or_else(|| TxnError::BadRequest("publish: missing entry".into()))?;
                let prefix = format!("e/{topic}/");
                let n = self.store.scan_keys(ctx.txn, &prefix)?.len();
                write_t(&mut self.store, ctx.txn, &format!("{prefix}{n:04}"), &entry)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_simnet::{NodeId, SimTime};
    use mar_txn::TxnId;

    fn ctx(seq: u64) -> OpCtx {
        OpCtx {
            txn: TxnId::new(NodeId(0), seq),
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn query_returns_seeded_entries_in_order() {
        let mut d = DirectoryRm::new("dir")
            .with_entry("flights", Value::from("LH100"))
            .with_entry("flights", Value::from("UA32"))
            .with_entry("hotels", Value::from("Ritz"));
        let r = d
            .invoke(
                ctx(1),
                "query",
                &Value::map([("topic", Value::from("flights"))]),
            )
            .unwrap();
        let list = r.as_list().unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].as_str(), Some("LH100"));
        assert_eq!(d.query_count(), 1);
    }

    #[test]
    fn publish_is_transactional() {
        let mut d = DirectoryRm::new("dir");
        d.invoke(
            ctx(1),
            "publish",
            &Value::map([("topic", Value::from("t")), ("entry", Value::from("x"))]),
        )
        .unwrap();
        d.abort(ctx(1).txn);
        let r = d
            .invoke(ctx(2), "query", &Value::map([("topic", Value::from("t"))]))
            .unwrap();
        assert!(r.as_list().unwrap().is_empty());
    }

    #[test]
    fn missing_topic_is_empty_not_error() {
        let mut d = DirectoryRm::new("dir");
        let r = d
            .invoke(
                ctx(1),
                "query",
                &Value::map([("topic", Value::from("none"))]),
            )
            .unwrap();
        assert!(r.as_list().unwrap().is_empty());
    }
}
