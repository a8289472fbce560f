//! Cross-request cache for the frontend stage's TAC.
//!
//! The response cache ([`crate::cache`]) addresses *whole bodies* — it
//! only helps when the entire request repeats. But the most expensive
//! shared prefix of the pipeline, the frontend (parse + unroll), depends
//! on the source text and the unroll factor **alone** — not on `k`, the
//! strategy, the optimizer, the seed, or the endpoint (see
//! [`Session::frontend`]). A client sweeping one program across
//! `k ∈ {2,4,8}` or across strategies re-parses the same text on every
//! miss. This cache keys the front-ended [`TacProgram`] on exactly that
//! stage's inputs, so same-program/different-`k` requests skip straight
//! to optimize → schedule via [`Session::compile_tac`].
//!
//! Correctness contract: an entry under a key **is** the frontend's
//! output for that `(source, unroll)` pair — the daemon only ever inserts
//! what [`Session::frontend`] just returned. Eviction is the shared
//! [`Lru`]'s under an entry-count budget, each program weighing 1 (TAC
//! programs are small and uniform, unlike response bodies). The frontend runs
//! *outside* the lock, so a racing miss may compute the same TAC twice;
//! the second insert replaces the first with an identical program, which
//! is benign.
//!
//! [`Session::frontend`]: parmem_driver::Session::frontend
//! [`Session::compile_tac`]: parmem_driver::Session::compile_tac

use std::sync::{Arc, Mutex, MutexGuard};

use liw_ir::tac::TacProgram;
use parmem_driver::Session;
use parmem_obs::digest::Fnv1a;
use rliw_sim::pipeline::PipelineError;

use crate::lru::Lru;

/// Lifetime counters, exposed via `/v1/stats` (`"intermediates"`) and
/// `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntermediateStats {
    /// Frontend runs skipped because the TAC was already cached.
    pub hits: u64,
    /// Frontend runs that had to parse.
    pub misses: u64,
    /// Entries currently held.
    pub entries: u64,
}

/// The LRU frontend-TAC cache. Internally synchronized; the daemon holds
/// one in an `Arc` shared with every pool worker.
pub struct IntermediateCache {
    lru: Mutex<Lru<u64, Arc<TacProgram>>>,
}

/// Cache key: FNV-1a over the source text, a `0xFF` separator, and the
/// unroll factor (0 = no unrolling) — the only compile option the
/// frontend consumes. Requests set only the factor, and
/// [`Session::with_unroll`] fixes the body-size bound, so the factor fully
/// determines the unroll behaviour here.
fn frontend_key(source: &str, session: &Session) -> u64 {
    let factor = session.opts.unroll.map(|u| u.factor as u64).unwrap_or(0);
    let mut h = Fnv1a::new();
    h.field(source.as_bytes());
    h.u64(factor);
    h.finish()
}

impl IntermediateCache {
    /// An empty cache holding at most `capacity` front-ended programs.
    pub fn new(capacity: usize) -> IntermediateCache {
        IntermediateCache {
            lru: Mutex::new(Lru::new(capacity.max(1))),
        }
    }

    /// The front-ended TAC for `source` under the session's compile
    /// options — from the cache when present, running
    /// [`Session::frontend`] (outside the lock) otherwise. Parse errors
    /// are never cached.
    pub fn frontend(
        &self,
        session: &Session,
        source: &str,
    ) -> Result<Arc<TacProgram>, PipelineError> {
        let key = frontend_key(source, session);
        if let Some(tac) = self.locked().get(&key) {
            return Ok(Arc::clone(tac));
        }
        let tac = Arc::new(session.frontend(source)?);
        self.locked().insert(key, Arc::clone(&tac), 1);
        Ok(tac)
    }

    fn locked(&self) -> MutexGuard<'_, Lru<u64, Arc<TacProgram>>> {
        self.lru
            .lock()
            .expect("no thread panics while it holds the intermediates lock")
    }

    /// Lifetime counters plus the current entry count.
    pub fn stats(&self) -> IntermediateStats {
        let lru = self.locked();
        let s = lru.stats();
        IntermediateStats {
            hits: s.hits,
            misses: s.misses,
            entries: lru.len() as u64,
        }
    }

    /// The `"intermediates"` member of the `/v1/stats` document.
    pub fn stats_json(&self) -> String {
        let s = self.stats();
        format!(
            "{{\"hits\":{},\"misses\":{},\"entries\":{}}}",
            s.hits, s.misses, s.entries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "program c; var x: int; begin x := 2; print x * 3; end.";

    #[test]
    fn second_request_hits_even_across_k() {
        let cache = IntermediateCache::new(8);
        let a = cache.frontend(&Session::new(4), SRC).unwrap();
        let b = cache.frontend(&Session::new(8), SRC).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "k must not split the frontend key");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn unroll_factor_splits_the_key() {
        let cache = IntermediateCache::new(8);
        let plain = Session::new(4);
        let unrolled = Session::new(4).with_unroll(4);
        let src = "program u; var i, s: int;
            begin s := 0; for i := 1 to 12 do s := s + i; print s; end.";
        let a = cache.frontend(&plain, src).unwrap();
        let b = cache.frontend(&unrolled, src).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = IntermediateCache::new(8);
        assert!(cache.frontend(&Session::new(4), "program broken(").is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn eviction_is_lru_by_entry_count() {
        let cache = IntermediateCache::new(2);
        let mk = |n: u32| format!("program p{n}; var x: int; begin x := {n}; print x; end.");
        let s = Session::new(4);
        cache.frontend(&s, &mk(1)).unwrap();
        cache.frontend(&s, &mk(2)).unwrap();
        cache.frontend(&s, &mk(1)).unwrap(); // bump 1; 2 becomes LRU
        cache.frontend(&s, &mk(3)).unwrap(); // evicts 2
        assert_eq!(cache.stats().entries, 2);
        cache.frontend(&s, &mk(1)).unwrap();
        let st = cache.stats();
        assert_eq!(st.hits, 2, "program 1 stayed resident");
        assert_eq!(st.misses, 3);
        cache.frontend(&s, &mk(2)).unwrap();
        assert_eq!(cache.stats().misses, 4, "program 2 was evicted");
    }
}
