//! An exact least-recently-used map.
//!
//! [`Lru`] is a `HashMap` whose entries carry a stamp from a private
//! clock, plus a `BTreeMap` from stamp back to key. Every `get` and
//! `insert` re-stamps its entry, so the first key of the recency index is
//! always the least-recently-used one, and [`Lru::pop_lru`] removes it in
//! O(log n). The map does not enforce a bound itself: callers pop until
//! their own bound holds, which lets them account for what leaves (the
//! verdict cache counts evictions, the context pools harvest counters, the
//! daemon drops warm catalogs).

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A map that evicts in exact least-recently-used order.
pub struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    /// Stamp → key, oldest first.
    order: BTreeMap<u64, K>,
    clock: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The value under `key`, which becomes the most recently used.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (value, last) = self.map.get_mut(key)?;
        let key = self.order.remove(last).expect("every entry is indexed");
        self.clock += 1;
        *last = self.clock;
        self.order.insert(self.clock, key);
        Some(value)
    }

    /// Store `value` under `key` as the most recently used entry.
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        if let Some((_, last)) = self.map.insert(key.clone(), (value, self.clock)) {
            self.order.remove(&last);
        }
        self.order.insert(self.clock, key);
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let (_, key) = self.order.pop_first()?;
        let (value, _) = self.map.remove(&key).expect("every index names an entry");
        Some((key, value))
    }

    /// Every entry, in no particular order, without touching recency.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(key, (value, _))| (key, value))
    }
}
