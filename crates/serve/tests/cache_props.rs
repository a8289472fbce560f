//! Cache correctness beyond the unit tests: the shared LRU, under a byte
//! budget and under an entry-count budget, and the response cache built on
//! it, against a naive reference model under arbitrary op sequences; exact
//! hit accounting under a many-threaded hammer; and the determinism
//! contract the whole design rests on — a cached replay is byte-identical
//! to a fresh computation of the same request.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Mutex;

use parmem_serve::cache::{CacheKey, CacheStats, ResponseCache};
use parmem_serve::lru::Lru;
use parmem_serve::{Daemon, ServeConfig};
use proptest::prelude::*;

fn key(n: u64) -> CacheKey {
    CacheKey {
        endpoint: 0,
        program: n,
        k: 4,
        strategy: 0,
        opts: 0,
    }
}

/// How the model weighs an entry: the response cache's bytes, or the
/// intermediates cache's one per entry.
#[derive(Clone, Copy, Debug)]
enum Weight {
    Bytes,
    Entries,
}

impl Weight {
    fn of(self, body: &str) -> usize {
        match self {
            Weight::Bytes => body.len(),
            Weight::Entries => 1,
        }
    }
}

/// The naive model: a flat map of `(body, last-used tick)` with the same
/// tick discipline as the real cache, evicting the minimum tick while
/// over budget.
struct ModelCache {
    budget: usize,
    weight: Weight,
    tick: u64,
    entries: std::collections::BTreeMap<u64, (String, u64)>,
    stats: CacheStats,
}

impl ModelCache {
    fn new(budget: usize, weight: Weight) -> ModelCache {
        ModelCache {
            budget,
            weight,
            tick: 0,
            entries: std::collections::BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn held(&self) -> usize {
        self.entries.values().map(|(b, _)| self.weight.of(b)).sum()
    }

    fn lookup(&mut self, k: u64) -> Option<String> {
        self.tick += 1;
        match self.entries.get_mut(&k) {
            Some((body, tick)) => {
                *tick = self.tick;
                self.stats.hits += 1;
                Some(body.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, k: u64, body: String) {
        let w = self.weight.of(&body);
        if w > self.budget {
            self.stats.oversized += 1;
            return;
        }
        self.entries.remove(&k);
        while self.held() + w > self.budget {
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .expect("over budget implies an entry")
                .0;
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.entries.insert(k, (body, self.tick));
        self.stats.insertions += 1;
    }
}

/// Lookups (op 0) and inserts (op 1) over a small key space; an insert's
/// body is `len` bytes long.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, usize)>> {
    proptest::collection::vec((0u8..2, 0u64..6, 1usize..48), 1..120)
}

fn body(k: u64, len: usize) -> String {
    "x".repeat(len) + &k.to_string()
}

proptest! {
    /// Any interleaving of lookups and inserts against a tight budget: the
    /// response cache and the byte-weighed model agree on membership,
    /// bodies, byte usage and every counter after every operation.
    #[test]
    fn lru_matches_reference_model(budget in 16usize..128, ops in arb_ops()) {
        let mut real = ResponseCache::new(budget);
        let mut model = ModelCache::new(budget, Weight::Bytes);
        for (op, k, len) in ops {
            if op == 0 {
                let got = real.lookup(&key(k)).map(|c| c.body);
                let want = model.lookup(k);
                prop_assert_eq!(got, want, "lookup({})", k);
            } else {
                real.insert(key(k), body(k, len));
                model.insert(k, body(k, len));
            }
            prop_assert_eq!(real.bytes(), model.held());
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert!(real.bytes() <= budget);
            prop_assert_eq!(real.stats(), model.stats);
        }
    }

    /// The shared LRU itself under both weights: bytes against a byte
    /// budget, as the response cache uses it, and one per entry against an
    /// entry-count budget, as the intermediates cache uses it.
    #[test]
    fn generic_lru_matches_reference_model_under_both_weights(
        bytes_budget in 16usize..128,
        entries_budget in 1usize..6,
        ops in arb_ops(),
    ) {
        for (weight, budget) in [(Weight::Bytes, bytes_budget), (Weight::Entries, entries_budget)] {
            let mut real: Lru<u64, String> = Lru::new(budget);
            let mut model = ModelCache::new(budget, weight);
            for &(op, k, len) in &ops {
                if op == 0 {
                    let got = real.get(&k).cloned();
                    let want = model.lookup(k);
                    prop_assert_eq!(got, want, "{:?}: get({})", weight, k);
                } else {
                    let b = body(k, len);
                    let stored = real.insert(k, b.clone(), weight.of(&b));
                    prop_assert_eq!(stored, weight.of(&b) <= budget);
                    model.insert(k, b);
                }
                prop_assert_eq!(real.weight(), model.held());
                prop_assert_eq!(real.len(), model.entries.len());
                prop_assert!(real.weight() <= budget);
                prop_assert_eq!(real.stats(), model.stats);
            }
        }
    }
}

/// Many threads against the shared (mutex-wrapped, as the daemon holds it)
/// cache: with a budget too large to evict, every lookup of a pre-inserted
/// key is a hit and every other a miss — the counters must account for
/// each one exactly, whatever the interleaving.
#[test]
fn concurrent_hammer_counts_every_hit_and_miss() {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 200;
    let cache = Mutex::new(ResponseCache::new(1 << 20));
    for k in 0..THREADS {
        cache
            .lock()
            .unwrap()
            .insert(key(k), format!("body-{k}"))
            .expect("fits");
    }
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            s.spawn(move || {
                for i in 0..ROUNDS {
                    let present = (t + i) % THREADS;
                    let hit = cache.lock().unwrap().lookup(&key(present));
                    assert_eq!(hit.expect("pre-inserted").body, format!("body-{present}"));
                    assert!(cache.lock().unwrap().lookup(&key(1000 + t)).is_none());
                }
            });
        }
    });
    let c = cache.lock().unwrap();
    assert_eq!(c.stats().hits, THREADS * ROUNDS);
    assert_eq!(c.stats().misses, THREADS * ROUNDS);
    assert_eq!(c.len(), THREADS as usize);
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(
        conn,
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut resp = String::new();
    conn.read_to_string(&mut resp).unwrap();
    let (head, payload) = resp.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status");
    (status, head.to_string(), payload.to_string())
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut resp = String::new();
    conn.read_to_string(&mut resp).unwrap();
    let (head, payload) = resp.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status");
    (status, head.to_string(), payload.to_string())
}

fn test_daemon() -> Daemon {
    Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        ..ServeConfig::default()
    })
    .expect("bind")
}

/// The caching bargain itself: a cached replay must be byte-identical to
/// a fresh computation. Two independent daemons, same request — daemon A
/// answers from cache on its second call, daemon B computes fresh; all
/// bodies and ETags agree.
#[test]
fn cached_replay_is_byte_identical_to_fresh_compute() {
    let a = test_daemon();
    let b = test_daemon();
    for body in [
        r#"{"workload":"FFT","k":4}"#,
        r#"{"workload":"SORT","k":2,"strategy":"3","seed":9}"#,
        r#"{"synth":{"values":500,"components":2},"k":8}"#,
    ] {
        let (s1, h1, fresh_a) = post(a.local_addr(), "/v1/assign", body);
        assert_eq!(s1, 200, "{fresh_a}");
        assert!(h1.contains("X-Parmem-Cache: miss"));
        let (_, h2, cached_a) = post(a.local_addr(), "/v1/assign", body);
        assert!(h2.contains("X-Parmem-Cache: hit"));
        let (_, _, fresh_b) = post(b.local_addr(), "/v1/assign", body);
        assert_eq!(cached_a, fresh_a, "replay differs from its own compute");
        assert_eq!(
            cached_a, fresh_b,
            "replay differs from an independent daemon"
        );
        let etag = |h: &str| {
            h.lines()
                .find_map(|l| l.strip_prefix("ETag: ").map(str::to_string))
                .expect("etag")
        };
        assert_eq!(etag(&h1), etag(&h2));
    }
    a.shutdown();
    b.shutdown();
}

/// Mixed traffic from many clients against one daemon: every response is
/// a 200, bodies for the same request are identical across threads, and
/// the daemon's accounting adds up (`hits + misses == requests`).
#[test]
fn daemon_survives_concurrent_mixed_traffic() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 6;
    let daemon = test_daemon();
    let addr = daemon.local_addr();
    let requests = [
        r#"{"workload":"FFT","k":4}"#,
        r#"{"workload":"SORT","k":4}"#,
        r#"{"workload":"COLOR","k":2}"#,
    ];
    let bodies: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    (0..ROUNDS)
                        .map(|i| {
                            let req = requests[(t + i) % requests.len()];
                            let (status, _, body) = post(addr, "/v1/assign", req);
                            assert_eq!(status, 200, "{body}");
                            format!("{req}\u{0}{body}")
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Same request → same body, across every thread.
    let mut seen: std::collections::BTreeMap<&str, &str> = Default::default();
    for tagged in bodies.iter().flatten() {
        let (req, body) = tagged.split_once('\u{0}').unwrap();
        assert_eq!(*seen.entry(req).or_insert(body), body, "{req}");
    }
    assert_eq!(seen.len(), requests.len());

    // The daemon's accounting covers every request: each was either a
    // cache hit or a computed miss, and each distinct request computed at
    // least once.
    let (_, _, stats) = get(addr, "/v1/stats");
    let field = |name: &str| -> u64 {
        stats
            .split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|d| d.parse().ok())
            })
            .unwrap_or_else(|| panic!("no `{name}` in {stats}"))
    };
    assert_eq!(
        field("hits") + field("misses"),
        (THREADS * ROUNDS) as u64,
        "{stats}"
    );
    assert!(field("misses") >= requests.len() as u64, "{stats}");
    assert_eq!(field("panicked"), 0, "{stats}");
    daemon.shutdown();
}
