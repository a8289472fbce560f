//! `serve-mix`: the same pipeline behind `parmem serve`'s response cache,
//! intermediates cache and admission pool, driven over HTTP.
//!
//! The benchmark starts `parmem serve --jobs 2 --cache-bytes 32768` and two
//! closed-loop clients, each opening one connection per request. 90% of
//! requests are a Zipf(1) draw over (assign / compile / lint with
//! `predict` / exact) × the 11 bundled programs × k ∈ {2,4}, 88 keys in a
//! fixed popularity order; every tenth assigns a fresh-seed 2000-value
//! synth trace and always misses. The 88 replies (~48 KiB) do not fit the
//! 32 KiB cache, so it evicts, and hits and misses share every window.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parmem_driver::hash_output;

use crate::json::{self, Json};
use crate::stats::Rng;
use crate::trace::{self, Tracer};
use crate::{alloc, Config, Metrics, Round, Tally, Window, Workload};

const ENDPOINTS: [&str; 4] = ["assign", "compile", "lint", "exact"];
const KS: [usize; 2] = [2, 4];
const CLIENTS: usize = 2;
/// Every tenth request of a client assigns a synth trace: a fixed share, so
/// the number of these costliest requests does not vary between seeds.
const SYNTH_EVERY: usize = 10;
const SYNTH_VALUES: usize = 2000;
/// Round length: long enough for ~200 completions, so a round's p95 has
/// ten samples beyond it.
const ROUND_S: f64 = 2.0;
/// The key popularity order is fixed, so seeds change only which keys each
/// request draws, not which keys are hot.
const RANK_SEED: u64 = 0x5EED;

/// A running `parmem serve`, stopped (and, failing that, killed) on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(parmem: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(parmem)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "2",
                "--cache-bytes",
                "32768",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", parmem.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("parmem serve exited before listening".to_string());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split('/').next().unwrap_or_default().trim();
                match addr.parse() {
                    Ok(a) => break a,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparseable listen line `{}`", line.trim()));
                    }
                }
            }
        };
        // Keep draining so the daemon never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                eprintln!("parmem serve: {line}");
            }
        });
        Ok(Daemon {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// Drain the daemon over HTTP and wait for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = http(self.addr, "POST", "/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("parmem serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("parmem serve did not stop within 20 s".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

struct Reply {
    status: u16,
    body: String,
}

/// One request on its own connection (the daemon closes after each reply).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(10)).map_err(io)?;
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(io)?;
    conn.set_nodelay(true).map_err(io)?;
    conn.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .map_err(io)?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).map_err(io)?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: reply is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated reply"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    endpoint: &'static str,
    program: &'static str,
    k: usize,
}

impl Key {
    fn path(&self) -> String {
        format!("/v1/{}", self.endpoint)
    }

    fn body(&self) -> String {
        let predict = if self.endpoint == "lint" {
            ",\"predict\":true"
        } else {
            ""
        };
        format!(
            "{{\"workload\":\"{}\",\"k\":{}{predict}}}",
            self.program, self.k
        )
    }
}

/// The 88 keys in popularity order (most popular first).
fn ranked_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for b in workloads::all_benchmarks() {
        for k in KS {
            for endpoint in ENDPOINTS {
                keys.push(Key {
                    endpoint,
                    program: b.name,
                    k,
                });
            }
        }
    }
    Rng::new(RANK_SEED, 0).shuffle(&mut keys);
    keys
}

/// Cumulative Zipf(1) weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut total = 0.0;
    (0..n)
        .map(|r| {
            total += 1.0 / (r + 1) as f64;
            total
        })
        .collect()
}

/// What one request asks for.
#[derive(Clone, Debug, PartialEq)]
enum Request {
    /// One of the ranked keys.
    Key(usize),
    /// A synth assignment with this (never reused) trace seed.
    Synth(u64),
}

/// Request `i` of a client's stream.
fn draw(i: usize, rng: &mut Rng, cdf: &[f64], synth_seq: &AtomicU64) -> Request {
    if i % SYNTH_EVERY == SYNTH_EVERY - 1 {
        return Request::Synth(synth_seq.fetch_add(1, Ordering::Relaxed));
    }
    let u = rng.unit() * cdf.last().expect("keys exist");
    Request::Key(cdf.partition_point(|&c| c <= u).min(cdf.len() - 1))
}

/// The daemon's heap high-water mark since it started, bytes: the
/// `parmem_alloc_peak_bytes` gauge its counting allocator feeds to
/// `/metrics`. The daemon starts at set-up, so this covers the warm-up
/// and the windows run so far.
fn daemon_peak_heap(addr: SocketAddr) -> Result<u64, String> {
    let reply = http(addr, "GET", "/metrics", "")?;
    reply
        .body
        .lines()
        .find_map(|l| l.strip_prefix("parmem_alloc_peak_bytes "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "/metrics lacks parmem_alloc_peak_bytes".to_string())
}

/// Daemon counters `/v1/stats` reports, as read at one instant.
#[derive(Clone, Copy, Debug, Default)]
struct Stats {
    hits: f64,
    misses: f64,
    evictions: f64,
    inter_hits: f64,
    inter_misses: f64,
    rejected: f64,
    /// (requests, Σ latency µs) per entry of [`ENDPOINTS`].
    endpoints: [(f64, f64); 4],
}

fn read_stats(addr: SocketAddr) -> Result<Stats, String> {
    let reply = http(addr, "GET", "/v1/stats", "")?;
    let doc = json::parse(&reply.body).map_err(|e| format!("/v1/stats: {e}"))?;
    let n = |path: &[&str]| {
        doc.at(path)
            .and_then(Json::num)
            .ok_or_else(|| format!("/v1/stats lacks {}", path.join(".")))
    };
    let mut endpoints = [(0.0, 0.0); 4];
    for (slot, e) in endpoints.iter_mut().zip(ENDPOINTS) {
        *slot = (
            n(&["endpoints", e, "requests"])?,
            n(&["endpoints", e, "latency_us", "sum"])?,
        );
    }
    Ok(Stats {
        hits: n(&["cache", "hits"])?,
        misses: n(&["cache", "misses"])?,
        evictions: n(&["cache", "evictions"])?,
        inter_hits: n(&["intermediates", "hits"])?,
        inter_misses: n(&["intermediates", "misses"])?,
        rejected: n(&["queue", "rejected"])?,
        endpoints,
    })
}

/// What one client's window produced: (completion time in s, latency in
/// ms) per request, its spans, and its checks.
type ClientRun = (Vec<(f64, f64)>, Vec<trace::Span>, Tally);

/// The serve-mix workload.
pub struct ServeMix {
    daemon: Option<Daemon>,
    keys: Vec<Key>,
    cdf: Vec<f64>,
    /// Reference output hash per program, as the daemon prints it.
    references: BTreeMap<&'static str, String>,
    rngs: Vec<Rng>,
    synth_seq: AtomicU64,
    /// The first reply body per key: every later reply must equal it.
    seen: Mutex<HashMap<usize, String>>,
    /// Server-side layer numbers of the last window.
    last_layers: Metrics,
}

impl ServeMix {
    fn addr(&self) -> SocketAddr {
        self.daemon.as_ref().expect("daemon runs until finish").addr
    }

    fn check(&self, req: &Request, reply: Result<Reply, String>) -> Result<Json, String> {
        let reply = reply?;
        if reply.status != 200 {
            return Err(format!("HTTP {}: {}", reply.status, reply.body.trim()));
        }
        let doc = json::parse(&reply.body).map_err(|e| format!("reply is not JSON: {e}"))?;
        let count = |path: &[&str]| doc.at(path).and_then(Json::num);
        match *req {
            Request::Synth(_) => {
                if count(&["residual_conflicts"]) != Some(0.0) {
                    return Err("synth assignment has residual conflicts".to_string());
                }
            }
            Request::Key(i) => {
                let key = self.keys[i];
                match key.endpoint {
                    "assign" if count(&["residual_conflicts"]) != Some(0.0) => {
                        return Err("assignment has residual conflicts".to_string())
                    }
                    "compile" => {
                        let job = doc.get("job").ok_or("compile reply lacks `job`")?;
                        let status = job.get("status").and_then(Json::str);
                        let hash = job.get("output_hash").and_then(Json::str);
                        if status != Some("ok")
                            || hash != Some(self.references[key.program].as_str())
                        {
                            return Err(format!(
                                "job status {status:?}, output hash {hash:?}, reference {}",
                                self.references[key.program]
                            ));
                        }
                    }
                    "exact" if count(&["verify_diags"]) != Some(0.0) => {
                        return Err("exact certificate did not verify".to_string())
                    }
                    _ => {}
                }
                let mut seen = self.seen.lock().expect("no client panics holding it");
                let first = seen.entry(i).or_insert_with(|| reply.body.clone());
                if *first != reply.body {
                    return Err(format!(
                        "{key:?}: reply differs from the first reply to this key"
                    ));
                }
            }
        }
        Ok(doc)
    }

    fn target(&self, req: &Request) -> (String, String) {
        match *req {
            Request::Key(i) => (self.keys[i].path(), self.keys[i].body()),
            Request::Synth(seed) => (
                "/v1/assign".to_string(),
                format!("{{\"synth\":{{\"values\":{SYNTH_VALUES}}},\"seed\":{seed}}}"),
            ),
        }
    }

    /// One client's closed loop for `seconds`: (completion time since
    /// `start` in s, latency in ms) per request, and the spans if traced.
    fn client(
        &self,
        c: usize,
        rng: &mut Rng,
        start: Instant,
        seconds: f64,
        traced: bool,
        tally: &mut Tally,
    ) -> (Vec<(f64, f64)>, Vec<trace::Span>) {
        let addr = self.addr();
        let mut tracer = traced.then(|| Tracer::new(start));
        let mut done = Vec::new();
        loop {
            let req = draw(done.len(), rng, &self.cdf, &self.synth_seq);
            let (path, body) = self.target(&req);
            let op = (c + CLIENTS * done.len()) as u64;
            let exchange = || {
                let t0 = Instant::now();
                let reply = http(addr, "POST", &path, &body);
                (t0.elapsed().as_secs_f64() * 1e3, reply)
            };
            let (ms, result) = match tracer.as_mut() {
                None => {
                    let (ms, reply) = exchange();
                    (ms, self.check(&req, reply))
                }
                Some(tr) => tr.span(op, "request", |tr| {
                    let (ms, reply) = tr.span(op, "http", |_| exchange());
                    (ms, tr.span(op, "check", |_| self.check(&req, reply)))
                }),
            };
            let at = start.elapsed().as_secs_f64();
            done.push((at, ms));
            tally.check(result.map(drop), || format!("{path} {body}"));
            if at >= seconds {
                break;
            }
        }
        (done, tracer.map(Tracer::into_spans).unwrap_or_default())
    }
}

impl Workload for ServeMix {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let daemon = Daemon::start(&cfg.parmem)?;
        let mut references = BTreeMap::new();
        for b in workloads::all_benchmarks() {
            let run = liw_ir::run_source(b.source)
                .map_err(|e| format!("{}: reference interpreter: {e}", b.name))?;
            references.insert(b.name, format!("{:016x}", hash_output(&run.output)));
        }
        let keys = ranked_keys();
        Ok(ServeMix {
            daemon: Some(daemon),
            cdf: zipf_cdf(keys.len()),
            keys,
            references,
            rngs: (0..CLIENTS)
                .map(|c| Rng::new(cfg.seed, 10 + c as u64))
                .collect(),
            // Synth seeds stay below 2^52 so JSON carries them exactly.
            synth_seq: AtomicU64::new(Rng::new(cfg.seed, 9).next_u64() >> 12),
            seen: Mutex::new(HashMap::new()),
            last_layers: Metrics::new(),
        })
    }

    /// Long enough for the caches to reach their steady mix.
    fn warm_up_s(&self) -> f64 {
        2.0
    }

    fn window(&mut self, seconds: f64, traced: bool, tally: &mut Tally) -> Result<Window, String> {
        let before = read_stats(self.addr())?;
        let mut rngs = std::mem::take(&mut self.rngs);
        let start = Instant::now();
        let this = &*self;
        let results: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = rngs
                .iter_mut()
                .enumerate()
                .map(|(c, rng)| {
                    s.spawn(move || {
                        let mut t = Tally::default();
                        let (lat, spans) = this.client(c, rng, start, seconds, traced, &mut t);
                        (lat, spans, t)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread does not panic"))
                .collect()
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        self.rngs = rngs;
        let after = read_stats(self.addr())?;
        let peak_heap = daemon_peak_heap(self.addr())?;

        let mut done = Vec::new();
        let mut spans = Vec::new();
        for (d, sp, t) in results {
            done.extend(d);
            spans.push(sp);
            tally.attempted += t.attempted;
            tally.failed += t.failed;
        }
        let latencies: Vec<f64> = done.iter().map(|&(_, ms)| ms).collect();
        self.last_layers = server_layers(&before, &after, &latencies);
        Ok(Window {
            rounds: rounds(&done, elapsed_s),
            elapsed_s,
            probe_s: 0.0,
            peak_heap,
            spans: trace::merge(spans),
        })
    }

    /// Σ interleaved cycles of the compile replies, and Σ extra copies of
    /// the assign replies, for every program at k ∈ {2,4}.
    fn quality(&mut self, tally: &mut Tally) -> Result<(f64, f64), String> {
        let (mut cycles, mut copies) = (0.0, 0.0);
        for i in 0..self.keys.len() {
            let key = self.keys[i];
            let field = match key.endpoint {
                "compile" => ["job", "cycles"].as_slice(),
                "assign" => ["extra_copies"].as_slice(),
                _ => continue,
            };
            let req = Request::Key(i);
            let (path, body) = self.target(&req);
            let doc = self.check(&req, http(self.addr(), "POST", &path, &body));
            let value = doc.and_then(|d| {
                d.at(field)
                    .and_then(Json::num)
                    .ok_or_else(|| format!("reply lacks {}", field.join(".")))
            });
            let v = value.as_ref().copied().unwrap_or(0.0);
            if key.endpoint == "compile" {
                cycles += v;
            } else {
                copies += v;
            }
            tally.check(value.map(drop), || format!("probe {path} {body}"));
        }
        Ok((cycles, copies))
    }

    fn peak_rss_mb(&self) -> f64 {
        let pid = self.daemon.as_ref().map(|d| d.child.id());
        pid.and_then(|p| alloc::vm_hwm_mib(Some(p))).unwrap_or(0.0)
    }

    fn layers(&mut self, _traced: &Window) -> Result<Metrics, String> {
        Ok(self.last_layers.clone())
    }

    fn finish(mut self) -> Result<(), String> {
        self.daemon.take().map_or(Ok(()), Daemon::stop)
    }
}

/// Cut completions `(done_at_s, latency_ms)` into rounds of [`ROUND_S`];
/// a trailing partial round is dropped unless it is the only one.
fn rounds(done: &[(f64, f64)], elapsed_s: f64) -> Vec<Round> {
    let full = (elapsed_s / ROUND_S).floor() as usize;
    if full == 0 {
        return vec![Round {
            latencies_ms: done.iter().map(|&(_, ms)| ms).collect(),
            elapsed_s,
        }];
    }
    let mut rounds: Vec<Round> = (0..full)
        .map(|_| Round {
            latencies_ms: Vec::new(),
            elapsed_s: ROUND_S,
        })
        .collect();
    for &(at, ms) in done {
        if let Some(r) = rounds.get_mut((at / ROUND_S) as usize) {
            r.latencies_ms.push(ms);
        }
    }
    rounds
}

/// Cache, admission and server-side latency over a window, from two
/// `/v1/stats` readings; transport is the client's mean minus the server's.
fn server_layers(before: &Stats, after: &Stats, client_ms: &[f64]) -> Metrics {
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    let mut m = Metrics::from([
        (
            "serve.cache_hit_ratio",
            ratio(after.hits - before.hits, after.misses - before.misses),
        ),
        ("serve.cache_evictions", after.evictions - before.evictions),
        (
            "serve.intermediate_hit_ratio",
            ratio(
                after.inter_hits - before.inter_hits,
                after.inter_misses - before.inter_misses,
            ),
        ),
        ("serve.queue_rejected", after.rejected - before.rejected),
    ]);
    let (mut requests, mut sum_us) = (0.0, 0.0);
    for (i, name) in [
        "serve.assign_ms",
        "serve.compile_ms",
        "serve.lint_ms",
        "serve.exact_ms",
    ]
    .into_iter()
    .enumerate()
    {
        let n = after.endpoints[i].0 - before.endpoints[i].0;
        let us = after.endpoints[i].1 - before.endpoints[i].1;
        m.insert(name, if n > 0.0 { us / n / 1e3 } else { 0.0 });
        requests += n;
        sum_us += us;
    }
    let client_mean = client_ms.iter().sum::<f64>() / client_ms.len().max(1) as f64;
    let server_mean = if requests > 0.0 {
        sum_us / requests / 1e3
    } else {
        0.0
    };
    m.insert("serve.transport_ms", client_mean - server_mean);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> Vec<Request> {
        let cdf = zipf_cdf(ranked_keys().len());
        let seq = AtomicU64::new(Rng::new(seed, 9).next_u64() >> 12);
        let mut rng = Rng::new(seed, 10);
        (0..n).map(|i| draw(i, &mut rng, &cdf, &seq)).collect()
    }

    #[test]
    fn request_stream_replays_per_seed() {
        let a = stream(4, 2000);
        assert_eq!(a, stream(4, 2000));
        assert_ne!(a, stream(5, 2000));
        let synth: Vec<u64> = a
            .iter()
            .filter_map(|r| match r {
                Request::Synth(s) => Some(*s),
                Request::Key(_) => None,
            })
            .collect();
        assert_eq!(synth.len(), a.len() / SYNTH_EVERY);
        assert!(
            synth.windows(2).all(|w| w[0] < w[1]),
            "synth seeds never repeat"
        );
        assert!(synth.iter().all(|&s| s < 1 << 52));
        // Zipf: rank 0 is drawn about twice as often as rank 1.
        let count = |rank| a.iter().filter(|r| **r == Request::Key(rank)).count() as f64;
        assert!(count(0) > 1.5 * count(1), "{} vs {}", count(0), count(1));
    }

    #[test]
    fn keys_cover_every_endpoint_program_and_k_once() {
        let keys = ranked_keys();
        assert_eq!(keys.len(), 4 * 11 * 2);
        for (i, a) in keys.iter().enumerate() {
            assert!(!keys[i + 1..].contains(a), "{a:?} twice");
        }
        assert_eq!(keys, ranked_keys(), "popularity order is fixed");
        let lint = keys.iter().find(|k| k.endpoint == "lint").unwrap();
        assert!(lint.body().contains("\"predict\":true"));
    }

    #[test]
    fn completions_fall_into_whole_rounds() {
        let done = [(0.5, 1.0), (1.9, 2.0), (2.0, 3.0), (3.99, 4.0), (4.5, 5.0)];
        let r = rounds(&done, 4.6);
        assert_eq!(r.len(), 2, "the partial third round is dropped");
        assert_eq!(r[0].latencies_ms, [1.0, 2.0]);
        assert_eq!(r[1].latencies_ms, [3.0, 4.0]);
        assert_eq!(r[1].elapsed_s, ROUND_S);
        let short = rounds(&done[..2], 1.5);
        assert_eq!(short.len(), 1);
        assert_eq!((short[0].latencies_ms.len(), short[0].elapsed_s), (2, 1.5));
    }

    #[test]
    fn server_layers_are_window_deltas() {
        let before = Stats {
            hits: 10.0,
            misses: 5.0,
            endpoints: [(1.0, 1000.0); 4],
            ..Stats::default()
        };
        let after = Stats {
            hits: 40.0,
            misses: 15.0,
            evictions: 3.0,
            endpoints: [(3.0, 5000.0), (1.0, 1000.0), (1.0, 1000.0), (1.0, 1000.0)],
            ..Stats::default()
        };
        let m = server_layers(&before, &after, &[3.0, 5.0]);
        assert_eq!(m["serve.cache_hit_ratio"], 0.75);
        assert_eq!(m["serve.cache_evictions"], 3.0);
        assert_eq!(m["serve.assign_ms"], 2.0);
        assert_eq!(m["serve.compile_ms"], 0.0);
        assert_eq!(m["serve.transport_ms"], 2.0);
    }
}
