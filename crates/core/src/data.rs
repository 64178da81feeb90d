//! The agent's private data space: strongly and weakly reversible objects
//! (paper §4.1), plus the delta machinery for transition logging (§4.2).
//!
//! * **Strongly reversible objects (SRO)** are restored from a before-image
//!   kept in savepoint entries; compensating operations must not touch them
//!   during rollback.
//! * **Weakly reversible objects (WRO)** cannot be restored from an image —
//!   the rollback itself produces new information (fresh digital coins,
//!   credit notes, fees) that must flow into them — so they are compensated
//!   by agent/mixed compensation entries.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use mar_wire::Value;

/// A map of named objects (the paper's private data objects).
pub type ObjectMap = BTreeMap<String, Value>;

/// The private data space of an agent.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DataSpace {
    sro: ObjectMap,
    wro: ObjectMap,
    /// SRO state as of the most recent savepoint; maintained only under
    /// transition logging, where savepoint entries hold deltas against it.
    sro_shadow: Option<ObjectMap>,
}

impl DataSpace {
    /// Creates an empty data space.
    pub fn new() -> Self {
        DataSpace::default()
    }

    /// Declares/overwrites a strongly reversible object.
    pub fn set_sro(&mut self, name: impl Into<String>, value: Value) {
        self.sro.insert(name.into(), value);
    }

    /// Declares/overwrites a weakly reversible object.
    pub fn set_wro(&mut self, name: impl Into<String>, value: Value) {
        self.wro.insert(name.into(), value);
    }

    /// Reads a strongly reversible object.
    pub fn sro(&self, name: &str) -> Option<&Value> {
        self.sro.get(name)
    }

    /// Reads a weakly reversible object.
    pub fn wro(&self, name: &str) -> Option<&Value> {
        self.wro.get(name)
    }

    /// Mutable access to a strongly reversible object.
    pub fn sro_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.sro.get_mut(name)
    }

    /// Mutable access to a weakly reversible object.
    pub fn wro_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.wro.get_mut(name)
    }

    /// The whole SRO map.
    pub fn sro_map(&self) -> &ObjectMap {
        &self.sro
    }

    /// The whole WRO map (compensating operations receive this view).
    pub fn wro_map(&self) -> &ObjectMap {
        &self.wro
    }

    /// Mutable WRO map — handed to agent/mixed compensation handlers.
    pub fn wro_map_mut(&mut self) -> &mut ObjectMap {
        &mut self.wro
    }

    /// Replaces the SRO state (savepoint restore).
    pub fn restore_sro(&mut self, image: ObjectMap) {
        if self.sro_shadow.is_some() {
            self.sro_shadow = Some(image.clone());
        }
        self.sro = image;
    }

    /// A full copy of the SRO state (state logging image).
    pub fn sro_image(&self) -> ObjectMap {
        self.sro.clone()
    }

    /// Enables transition logging: from now on the data space tracks the
    /// SRO state of the last savepoint.
    pub fn enable_shadow(&mut self) {
        if self.sro_shadow.is_none() {
            self.sro_shadow = Some(self.sro.clone());
        }
    }

    /// The SRO state at the last savepoint (transition logging only).
    pub fn shadow(&self) -> Option<&ObjectMap> {
        self.sro_shadow.as_ref()
    }

    /// Computes the backward delta `current → shadow` for a new savepoint
    /// entry and advances the shadow to the current state. Returns `None`
    /// when transition logging is not enabled.
    pub fn take_transition_delta(&mut self) -> Option<SroDelta> {
        let shadow = self.sro_shadow.as_mut()?;
        let delta = SroDelta::diff(&self.sro, shadow);
        *shadow = self.sro.clone();
        Some(delta)
    }

    /// Applies a popped savepoint's backward delta to the shadow (the
    /// paper's "the state of the strongly reversible objects has to be
    /// updated every time an agent savepoint entry is read during the
    /// rollback").
    pub fn apply_delta_to_shadow(&mut self, delta: &SroDelta) {
        if let Some(shadow) = self.sro_shadow.as_mut() {
            delta.apply(shadow);
        }
    }
}

/// A backward delta between two SRO states: applying it to the *from* state
/// yields the *to* state. Savepoint entries store `S_k → S_{k-1}` deltas
/// under transition logging.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SroDelta {
    /// Keys whose value differs in the target state (target values).
    pub changed: ObjectMap,
    /// Keys present in the source state but absent in the target.
    pub removed: BTreeSet<String>,
}

impl SroDelta {
    /// Computes the delta transforming `from` into `to`.
    pub fn diff(from: &ObjectMap, to: &ObjectMap) -> SroDelta {
        let mut changed = ObjectMap::new();
        let mut removed = BTreeSet::new();
        for (k, v) in to {
            if from.get(k) != Some(v) {
                changed.insert(k.clone(), v.clone());
            }
        }
        for k in from.keys() {
            if !to.contains_key(k) {
                removed.insert(k.clone());
            }
        }
        SroDelta { changed, removed }
    }

    /// Applies the delta in place.
    pub fn apply(&self, state: &mut ObjectMap) {
        for (k, v) in &self.changed {
            state.insert(k.clone(), v.clone());
        }
        for k in &self.removed {
            state.remove(k);
        }
    }

    /// Composes `self` (applied first) with `then`: the result transforms
    /// `S_a → S_c` when `self: S_a → S_b` and `then: S_b → S_c`.
    ///
    /// Used when the savepoint of a completed sub-itinerary is removed from
    /// the log under transition logging — the paper's "non-trivial task"
    /// (§4.4.2): the neighbouring delta must absorb the removed one.
    pub fn compose(&self, then: &SroDelta) -> SroDelta {
        let mut changed = then.changed.clone();
        for (k, v) in &self.changed {
            if !then.changed.contains_key(k) && !then.removed.contains(k) {
                changed.insert(k.clone(), v.clone());
            }
        }
        let mut removed: BTreeSet<String> = then.removed.clone();
        for k in &self.removed {
            if !then.changed.contains_key(k) {
                removed.insert(k.clone());
            }
        }
        // A key both removed and re-added later is just "changed".
        removed.retain(|k| !changed.contains_key(k));
        SroDelta { changed, removed }
    }

    /// True if the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.removed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(pairs: &[(&str, i64)]) -> ObjectMap {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Value::from(*v)))
            .collect()
    }

    #[test]
    fn sro_wro_are_separate() {
        let mut d = DataSpace::new();
        d.set_sro("x", Value::from(1i64));
        d.set_wro("x", Value::from(2i64));
        assert_eq!(d.sro("x").and_then(Value::as_i64), Some(1));
        assert_eq!(d.wro("x").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn diff_and_apply_roundtrip() {
        let from = m(&[("a", 1), ("b", 2), ("c", 3)]);
        let to = m(&[("a", 1), ("b", 9), ("d", 4)]);
        let delta = SroDelta::diff(&from, &to);
        let mut state = from.clone();
        delta.apply(&mut state);
        assert_eq!(state, to);
        // Delta is minimal: unchanged key "a" not included.
        assert!(!delta.changed.contains_key("a"));
        assert_eq!(delta.removed.iter().collect::<Vec<_>>(), [&"c".to_owned()]);
    }

    #[test]
    fn empty_delta_for_identical_states() {
        let s = m(&[("a", 1)]);
        assert!(SroDelta::diff(&s, &s).is_empty());
    }

    #[test]
    fn shadow_tracks_savepoints() {
        let mut d = DataSpace::new();
        d.set_sro("v", Value::from(1i64));
        d.enable_shadow();
        // Mutate after the savepoint.
        d.set_sro("v", Value::from(2i64));
        let delta = d.take_transition_delta().unwrap();
        // The delta goes backward: current(2) → shadow(1).
        let mut cur = d.sro_image();
        delta.apply(&mut cur);
        assert_eq!(cur.get("v").and_then(Value::as_i64), Some(1));
        // Shadow advanced to the current state.
        assert_eq!(
            d.shadow().unwrap().get("v").and_then(Value::as_i64),
            Some(2)
        );
    }

    #[test]
    fn no_shadow_without_transition_logging() {
        let mut d = DataSpace::new();
        d.set_sro("v", Value::from(1i64));
        assert!(d.take_transition_delta().is_none());
    }

    #[test]
    fn restore_resets_shadow_too() {
        let mut d = DataSpace::new();
        d.set_sro("v", Value::from(1i64));
        d.enable_shadow();
        d.set_sro("v", Value::from(2i64));
        d.restore_sro(m(&[("v", 7)]));
        assert_eq!(d.sro("v").and_then(Value::as_i64), Some(7));
        assert_eq!(
            d.shadow().unwrap().get("v").and_then(Value::as_i64),
            Some(7)
        );
    }

    fn map_strategy() -> impl Strategy<Value = ObjectMap> {
        proptest::collection::btree_map("[a-e]", any::<i64>().prop_map(Value::from), 0..5)
    }

    proptest! {
        #[test]
        fn compose_equals_sequential_apply(
            a in map_strategy(),
            b in map_strategy(),
            c in map_strategy(),
        ) {
            let ab = SroDelta::diff(&a, &b);
            let bc = SroDelta::diff(&b, &c);
            let ac = ab.compose(&bc);
            let mut s1 = a.clone();
            ab.apply(&mut s1);
            bc.apply(&mut s1);
            let mut s2 = a.clone();
            ac.apply(&mut s2);
            prop_assert_eq!(s1, s2);
        }

        #[test]
        fn diff_apply_always_reaches_target(a in map_strategy(), b in map_strategy()) {
            let d = SroDelta::diff(&a, &b);
            let mut s = a.clone();
            d.apply(&mut s);
            prop_assert_eq!(s, b);
        }
    }
}
