//! Content-addressed response cache with LRU byte-budget eviction.
//!
//! The daemon's responses are pure functions of their request: the
//! pipeline is deterministic in `(program text, k, strategy, options,
//! seed)` — the whole repository's byte-identical-across-`--jobs`
//! invariant — so a response computed once can be replayed verbatim for
//! every equivalent request. The [`CacheKey`] is that function's domain,
//! collapsed to digests: the FNV-1a hash of the program source, `k`, the
//! strategy discriminant, and the [`Session::config_digest`] of every
//! remaining output-affecting knob (which deliberately excludes worker
//! count).
//!
//! Eviction is least-recently-used under a **byte** budget (entries are
//! whole JSON bodies of wildly different sizes, so an entry-count budget
//! would be meaningless): every lookup bumps the entry's recency tick,
//! and inserts evict from the oldest tick until the total body bytes fit.
//! A body larger than the whole budget is never inserted (counted as
//! `oversized` instead of churning the entire cache through eviction).
//!
//! [`Session::config_digest`]: parmem_driver::Session::config_digest

use std::collections::{BTreeMap, HashMap};

use parmem_obs::digest::fnv1a;

/// The content address of one response: endpoint discriminant, program
/// digest, module count, strategy discriminant, and the digest of every
/// other output-affecting option.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Endpoint discriminant (assign/compile/exact/lint).
    pub endpoint: u8,
    /// FNV-1a digest of the program source (or the canonical synth spec).
    pub program: u64,
    /// Module count.
    pub k: u32,
    /// Strategy discriminant (registry index).
    pub strategy: u8,
    /// Digest of the remaining options (compile options, assignment
    /// params minus jobs, seed, exact budgets, predict flag).
    pub opts: u64,
}

/// One cached response: the exact bytes served plus their strong ETag.
#[derive(Clone, Debug)]
pub struct CachedResponse {
    /// Response body, replayed verbatim on a hit.
    pub body: String,
    /// Strong ETag (`"<fnv-of-body-hex>"`), for `If-None-Match`.
    pub etag: String,
}

/// Quoted strong ETag for a response body.
pub fn etag_for(body: &str) -> String {
    format!("\"{:016x}\"", fnv1a(body.as_bytes()))
}

/// Lifetime counters, exposed via `/v1/stats` and `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Bodies stored (including replacements).
    pub insertions: u64,
    /// Bodies refused because they alone exceed the byte budget.
    pub oversized: u64,
}

struct Entry {
    response: CachedResponse,
    tick: u64,
}

/// The LRU byte-budget cache. Not internally synchronized — the daemon
/// wraps it in a `Mutex` (lookups and inserts are short: a hash probe and
/// at most a few evictions).
pub struct ResponseCache {
    budget: usize,
    bytes: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
    recency: BTreeMap<u64, CacheKey>,
    stats: CacheStats,
}

impl ResponseCache {
    /// An empty cache holding at most `budget` bytes of response bodies.
    pub fn new(budget: usize) -> ResponseCache {
        ResponseCache {
            budget,
            bytes: 0,
            tick: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look `key` up, bumping its recency and the hit/miss counters.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<CachedResponse> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                self.recency.remove(&entry.tick);
                entry.tick = tick;
                self.recency.insert(tick, *key);
                self.stats.hits += 1;
                Some(entry.response.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Store `body` under `key` (its ETag is derived here), evicting
    /// least-recently-used entries until the byte budget holds. Returns
    /// the stored response, or `None` when the body alone exceeds the
    /// budget.
    pub fn insert(&mut self, key: CacheKey, body: String) -> Option<CachedResponse> {
        let cost = body.len();
        if cost > self.budget {
            self.stats.oversized += 1;
            return None;
        }
        // Replacing an entry first releases its bytes and recency slot.
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.response.body.len();
            self.recency.remove(&old.tick);
        }
        while self.bytes + cost > self.budget {
            let (&oldest, &victim) = self
                .recency
                .iter()
                .next()
                .expect("bytes > 0 implies a recency entry");
            let evicted = self.map.remove(&victim).expect("recency maps into map");
            self.bytes -= evicted.response.body.len();
            self.recency.remove(&oldest);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        let response = CachedResponse {
            etag: etag_for(&body),
            body,
        };
        self.bytes += cost;
        self.recency.insert(self.tick, key);
        self.map.insert(
            key,
            Entry {
                response: response.clone(),
                tick: self.tick,
            },
        );
        self.stats.insertions += 1;
        Some(response)
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Body bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The `"cache"` member of the `/v1/stats` document.
    pub fn stats_json(&self) -> String {
        let s = self.stats;
        format!(
            "{{\"budget_bytes\":{},\"bytes\":{},\"entries\":{},\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"insertions\":{},\"oversized\":{}}}",
            self.budget,
            self.bytes,
            self.map.len(),
            s.hits,
            s.misses,
            s.evictions,
            s.insertions,
            s.oversized
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            endpoint: 0,
            program: n,
            k: 4,
            strategy: 0,
            opts: 0,
        }
    }

    #[test]
    fn lookup_hits_after_insert_and_counts() {
        let mut c = ResponseCache::new(1024);
        assert!(c.lookup(&key(1)).is_none());
        c.insert(key(1), "body-one".to_string()).expect("fits");
        let hit = c.lookup(&key(1)).expect("hit");
        assert_eq!(hit.body, "body-one");
        assert_eq!(hit.etag, etag_for("body-one"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn eviction_is_least_recently_used_by_bytes() {
        // Budget fits exactly two 10-byte bodies.
        let mut c = ResponseCache::new(20);
        c.insert(key(1), "aaaaaaaaaa".to_string()).unwrap();
        c.insert(key(2), "bbbbbbbbbb".to_string()).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.lookup(&key(1)).is_some());
        c.insert(key(3), "cccccccccc".to_string()).unwrap();
        assert!(c.lookup(&key(1)).is_some(), "recently used survives");
        assert!(c.lookup(&key(2)).is_none(), "LRU entry evicted");
        assert!(c.lookup(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.bytes() <= c.budget());
    }

    #[test]
    fn oversized_bodies_are_refused_not_churned() {
        let mut c = ResponseCache::new(8);
        c.insert(key(1), "12345678".to_string()).unwrap();
        assert!(c.insert(key(2), "123456789".to_string()).is_none());
        assert_eq!(c.stats().oversized, 1);
        assert_eq!(c.stats().evictions, 0, "nothing evicted for a refusal");
        assert!(c.lookup(&key(1)).is_some(), "existing entry untouched");
    }

    #[test]
    fn replacement_releases_old_bytes() {
        let mut c = ResponseCache::new(16);
        c.insert(key(1), "aaaaaaaaaaaa".to_string()).unwrap(); // 12 bytes
        c.insert(key(1), "bbbb".to_string()).unwrap(); // replace with 4
        assert_eq!(c.bytes(), 4);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&key(1)).unwrap().body, "bbbb");
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let mut c = ResponseCache::new(1 << 20);
        let mut k2 = key(7);
        k2.strategy = 1;
        c.insert(key(7), "stor1".to_string()).unwrap();
        c.insert(k2, "stor2".to_string()).unwrap();
        assert_eq!(c.lookup(&key(7)).unwrap().body, "stor1");
        assert_eq!(c.lookup(&k2).unwrap().body, "stor2");
    }
}
