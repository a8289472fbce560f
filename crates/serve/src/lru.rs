//! The least-recently-used map both serve caches are built on.
//!
//! Entries live in a `HashMap` beside a `BTreeMap` recency list keyed by a
//! tick that every lookup and insert advances. Each entry carries a weight,
//! and the weights together stay within a budget: the response cache
//! ([`crate::cache`]) weighs a body by its bytes, the intermediates cache
//! ([`crate::intermediates`]) weighs every program as 1, an entry-count
//! budget. An insert evicts from the oldest tick until the new entry fits;
//! an entry heavier than the whole budget is refused (counted as
//! `oversized`) instead of churning the whole cache through eviction.
//!
//! Not internally synchronized: callers wrap it in a `Mutex` (lookups and
//! inserts are short, a hash probe and at most a few evictions).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Lifetime counters, exposed via `/v1/stats` and `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries stored (including replacements).
    pub insertions: u64,
    /// Entries refused because they alone outweigh the budget.
    pub oversized: u64,
}

struct Entry<V> {
    value: V,
    weight: usize,
    tick: u64,
}

/// An LRU map whose entry weights stay within a budget.
pub struct Lru<K, V> {
    budget: usize,
    weight: usize,
    tick: u64,
    map: HashMap<K, Entry<V>>,
    recency: BTreeMap<u64, K>,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty map whose entries may weigh `budget` in all.
    pub fn new(budget: usize) -> Lru<K, V> {
        Lru {
            budget,
            weight: 0,
            tick: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look `key` up, bumping its recency and the hit/miss counters.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                self.recency.remove(&entry.tick);
                entry.tick = self.tick;
                self.recency.insert(self.tick, *key);
                self.stats.hits += 1;
                Some(&entry.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Store `value` under `key` at `weight`, replacing any entry there and
    /// evicting least-recently-used entries until the budget holds. Returns
    /// `false`, storing nothing, when `weight` alone exceeds the budget.
    pub fn insert(&mut self, key: K, value: V, weight: usize) -> bool {
        if weight > self.budget {
            self.stats.oversized += 1;
            return false;
        }
        // Replacing an entry first releases its weight and recency slot.
        if let Some(old) = self.map.remove(&key) {
            self.weight -= old.weight;
            self.recency.remove(&old.tick);
        }
        while self.weight + weight > self.budget {
            let (_, victim) = self
                .recency
                .pop_first()
                .expect("weight over budget implies an entry");
            let evicted = self.map.remove(&victim).expect("recency maps into map");
            self.weight -= evicted.weight;
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.weight += weight;
        self.recency.insert(self.tick, key);
        self.map.insert(
            key,
            Entry {
                value,
                weight,
                tick: self.tick,
            },
        );
        self.stats.insertions += 1;
        true
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total weight currently held.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// The configured budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}
