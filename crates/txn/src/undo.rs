//! Before-image undo logs.
//!
//! Uncommitted changes are applied in place; the undo log remembers the
//! first before-image per key so an abort restores the exact prior state.
//! This is the "changes to resources during the step transaction are undone
//! automatically" machinery of the paper's §2.

use std::collections::BTreeSet;

/// One undo record: the value `key` had before the transaction first wrote
/// it (`None` = the key did not exist).
///
/// Undo logs are volatile by design: a node crash destroys them together
/// with the uncommitted in-place changes they would have reverted, because
/// committed state is only persisted at commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoRecord {
    /// The written key.
    pub key: String,
    /// Value before the first write, or `None` if absent.
    pub before: Option<Vec<u8>>,
}

/// Undo log of a single transaction at a single resource manager.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UndoLog {
    records: Vec<UndoRecord>,
    /// Keys already recorded — only the *first* before-image matters.
    seen: BTreeSet<String>,
}

impl UndoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        UndoLog::default()
    }

    /// Records the before-image for `key` unless one is already present.
    pub fn remember(&mut self, key: &str, before: Option<Vec<u8>>) {
        if !self.seen.insert(key.to_owned()) {
            return;
        }
        self.records.push(UndoRecord {
            key: key.to_owned(),
            before,
        });
    }

    /// Applies the undo records in reverse order through `restore`.
    ///
    /// `restore(key, None)` must delete the key; `restore(key, Some(v))`
    /// must write `v`.
    pub fn unwind<F: FnMut(&str, Option<&[u8]>)>(&self, mut restore: F) {
        for rec in self.records.iter().rev() {
            restore(&rec.key, rec.before.as_deref());
        }
    }

    /// The records in first-write order: the transaction's write set, one
    /// record per key.
    pub fn records(&self) -> &[UndoRecord] {
        &self.records
    }

    /// Number of recorded before-images.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_first_before_image_kept() {
        let mut log = UndoLog::new();
        log.remember("a", Some(vec![1]));
        log.remember("a", Some(vec![2]));
        assert_eq!(log.len(), 1);
        let mut restored = Vec::new();
        log.unwind(|k, v| restored.push((k.to_owned(), v.map(<[u8]>::to_vec))));
        assert_eq!(restored, [("a".to_owned(), Some(vec![1]))]);
    }

    #[test]
    fn unwind_is_reverse_order() {
        let mut log = UndoLog::new();
        log.remember("a", None);
        log.remember("b", Some(vec![9]));
        let mut order = Vec::new();
        log.unwind(|k, _| order.push(k.to_owned()));
        assert_eq!(order, ["b", "a"]);
    }

    #[test]
    fn none_means_delete() {
        use std::collections::BTreeMap;
        let mut store: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        store.insert("x".into(), vec![5]);
        let mut log = UndoLog::new();
        log.remember("x", None); // key was absent before the txn
        log.unwind(|k, v| match v {
            Some(v) => {
                store.insert(k.to_owned(), v.to_vec());
            }
            None => {
                store.remove(k);
            }
        });
        assert!(store.is_empty());
    }

    #[test]
    fn empty_log() {
        let log = UndoLog::new();
        assert!(log.is_empty());
        let mut called = false;
        log.unwind(|_, _| called = true);
        assert!(!called);
    }
}
