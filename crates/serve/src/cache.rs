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
//! Eviction is the shared [`Lru`]'s under a **byte** budget (entries are
//! whole JSON bodies of wildly different sizes, so an entry-count budget
//! would be meaningless): each body weighs its length, and a body larger
//! than the whole budget is never inserted (counted as `oversized`).
//!
//! [`Session::config_digest`]: parmem_driver::Session::config_digest

use parmem_obs::digest::fnv1a;

pub use crate::lru::CacheStats;
use crate::lru::Lru;

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

/// The LRU byte-budget response cache. Not internally synchronized — the
/// daemon wraps it in a `Mutex`.
pub struct ResponseCache {
    lru: Lru<CacheKey, CachedResponse>,
}

impl ResponseCache {
    /// An empty cache holding at most `budget` bytes of response bodies.
    pub fn new(budget: usize) -> ResponseCache {
        ResponseCache {
            lru: Lru::new(budget),
        }
    }

    /// Look `key` up, bumping its recency and the hit/miss counters.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<CachedResponse> {
        self.lru.get(key).cloned()
    }

    /// Store `body` under `key` (its ETag is derived here), evicting
    /// least-recently-used entries until the byte budget holds. Returns
    /// the stored response, or `None` when the body alone exceeds the
    /// budget.
    pub fn insert(&mut self, key: CacheKey, body: String) -> Option<CachedResponse> {
        let cost = body.len();
        let response = CachedResponse {
            etag: etag_for(&body),
            body,
        };
        self.lru
            .insert(key, response.clone(), cost)
            .then_some(response)
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Body bytes currently held.
    pub fn bytes(&self) -> usize {
        self.lru.weight()
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.lru.budget()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// The `"cache"` member of the `/v1/stats` document.
    pub fn stats_json(&self) -> String {
        let s = self.stats();
        format!(
            "{{\"budget_bytes\":{},\"bytes\":{},\"entries\":{},\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"insertions\":{},\"oversized\":{}}}",
            self.budget(),
            self.bytes(),
            self.len(),
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
