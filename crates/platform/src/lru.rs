//! Least-recently-used order over a set of keys — the eviction order of the
//! itinerary intern table and of the driver's report cache. It orders keys
//! only; the owner keeps the values and decides when to evict.

use std::collections::BTreeMap;

#[derive(Debug)]
pub(crate) struct Lru<K> {
    by_age: BTreeMap<u64, K>,
    age: BTreeMap<K, u64>,
    next: u64,
}

impl<K: Ord + Copy> Lru<K> {
    pub(crate) fn new() -> Self {
        Lru {
            by_age: BTreeMap::new(),
            age: BTreeMap::new(),
            next: 0,
        }
    }

    /// Makes `key` the most recently used, adding it if new.
    pub(crate) fn touch(&mut self, key: K) {
        self.remove(&key);
        self.by_age.insert(self.next, key);
        self.age.insert(key, self.next);
        self.next += 1;
    }

    pub(crate) fn remove(&mut self, key: &K) {
        if let Some(age) = self.age.remove(key) {
            self.by_age.remove(&age);
        }
    }

    /// Removes and returns the least recently used key.
    pub(crate) fn pop_oldest(&mut self) -> Option<K> {
        let (_, key) = self.by_age.pop_first()?;
        self.age.remove(&key);
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_order_of_last_touch() {
        let mut lru = Lru::new();
        for k in [1, 2, 3] {
            lru.touch(k);
        }
        lru.touch(1);
        lru.remove(&3);
        assert_eq!(lru.pop_oldest(), Some(2));
        assert_eq!(lru.pop_oldest(), Some(1));
        assert_eq!(lru.pop_oldest(), None);
    }
}
