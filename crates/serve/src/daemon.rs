//! The daemon itself: router, cache/admission flow, graceful drain.
//!
//! One [`serve_http`] listener carries everything — the metrics routes
//! (`GET /metrics`, `/healthz`, `/`), the service API (`POST
//! /v1/{assign,compile,exact,lint}`), operational introspection (`GET
//! /v1/stats`), and shutdown (`POST /v1/shutdown`). Connection threads do
//! the cheap work themselves (parsing, cache lookups, stats); pipeline
//! computation is submitted to a bounded [`ServicePool`] so concurrency
//! is capped at the worker count and a traffic burst beyond
//! `workers + queue_depth` is refused with `429 Retry-After` instead of
//! piling up.
//!
//! A request's life: parse strictly (400 on anything unknown) → clamp
//! exact budgets to the daemon's maxima → derive the [`CacheKey`] →
//! cache hit replays the body verbatim (`X-Parmem-Cache: hit`, `304` if
//! the client's `If-None-Match` matches) → miss submits to the pool and
//! waits at most the request wall budget → success is cached and served
//! with its ETag. Pipeline failures are 422, worker panics 500 (the
//! worker itself survives — panic isolation lives in the pool), budget
//! overruns 503.
//!
//! Drain (SIGTERM or `POST /v1/shutdown`) stops admitting new jobs,
//! finishes everything in flight, then closes the listener;
//! [`Daemon::wait`] orchestrates that ordering on the main thread.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use parmem_core::assignment::assign_trace;
use parmem_core::synth::scale_trace;
use parmem_obs::digest::Fnv1a;
use parmem_obs::json;
use parmem_obs::serve::{
    gauge, serve_http, Handler, HttpOptions, HttpServer, MetricsState, Request, Response,
};
use parmem_pool::{ServicePool, SubmitError};

use crate::cache::ResponseCache;
use crate::intermediates::IntermediateCache;
use crate::protocol::{parse_request, ApiRequest, Endpoint, Source};
use crate::stats::ServeStats;

/// Front-ended programs the intermediate cache holds (entry count; TAC
/// programs are small and uniform, unlike response bodies).
const INTERMEDIATE_CAPACITY: usize = 64;

/// Daemon configuration — the `parmem serve` flags.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`--addr`; port 0 picks a free port).
    pub addr: String,
    /// Pipeline worker threads (`--jobs`; 0 = auto via `PARMEM_JOBS`).
    pub jobs: usize,
    /// Response-cache byte budget (`--cache-bytes`).
    pub cache_bytes: usize,
    /// Admission queue depth beyond the running jobs (`--queue-depth`).
    pub queue_depth: usize,
    /// Stop after accepting this many connections (`--max-requests`).
    pub max_requests: Option<u64>,
    /// Serve only the metrics routes — no pipeline pool, no `/v1/assign`
    /// family (`--metrics-only`; what `serve-metrics` always did).
    pub metrics_only: bool,
    /// Wall budget one request may wait for its pipeline job, ms.
    pub request_budget_ms: u64,
    /// Ceiling on a request's exact-solver node budget.
    pub max_budget_nodes: u64,
    /// Ceiling on a request's exact-solver wall budget, ms (0 = leave the
    /// clock-free default alone).
    pub max_budget_ms: u64,
    /// Accept the `sleep_ms` test seam in request bodies
    /// (`PARMEM_SERVE_DEBUG=1`; never enabled in production).
    pub debug_hooks: bool,
    /// Keep every finished span for the process's profiling sink
    /// (`--profile`, `--trace-out`, `--trace-summary`). Without one, each
    /// answered request's spans are dropped, so the span history of a
    /// long-running daemon does not grow.
    pub keep_spans: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:9185".to_string(),
            jobs: 0,
            cache_bytes: 64 << 20,
            queue_depth: 64,
            max_requests: None,
            metrics_only: false,
            request_budget_ms: 120_000,
            max_budget_nodes: parmem_exact::ExactConfig::default().budget_nodes,
            max_budget_ms: 0,
            debug_hooks: false,
            keep_spans: false,
        }
    }
}

struct DaemonState {
    config: ServeConfig,
    cache: Mutex<ResponseCache>,
    intermediates: Arc<IntermediateCache>,
    stats: ServeStats,
    metrics: MetricsState,
    pool: Option<ServicePool>,
    draining: AtomicBool,
}

/// A running `parmem serve` daemon.
pub struct Daemon {
    server: Option<HttpServer>,
    state: Arc<DaemonState>,
}

impl Daemon {
    /// Bind the listener, spawn the worker pool, and start serving.
    pub fn start(config: ServeConfig) -> std::io::Result<Daemon> {
        signal::install();
        let pool =
            (!config.metrics_only).then(|| ServicePool::new(config.jobs, config.queue_depth));
        let state = Arc::new(DaemonState {
            cache: Mutex::new(ResponseCache::new(config.cache_bytes)),
            intermediates: Arc::new(IntermediateCache::new(INTERMEDIATE_CAPACITY)),
            stats: ServeStats::default(),
            metrics: MetricsState::new(),
            pool,
            draining: AtomicBool::new(false),
            config,
        });
        let handler_state = Arc::clone(&state);
        let handler: Handler = Arc::new(move |req: &Request| route(&handler_state, req));
        let server = serve_http(
            &state.config.addr,
            HttpOptions {
                max_requests: state.config.max_requests,
                ..HttpOptions::default()
            },
            handler,
        )?;
        Ok(Daemon {
            server: Some(server),
            state,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.as_ref().expect("running").local_addr()
    }

    /// Whether a drain has been requested (HTTP shutdown or SIGTERM).
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::Relaxed) || signal::triggered()
    }

    /// Serve until a drain is requested (`POST /v1/shutdown` or SIGTERM)
    /// or the `max_requests` budget exhausts the acceptor, then shut down
    /// gracefully: refuse new pipeline jobs, stop accepting connections,
    /// finish every in-flight request, join everything.
    pub fn wait(mut self) {
        loop {
            if self.is_draining() {
                break;
            }
            if self
                .server
                .as_ref()
                .map(HttpServer::is_finished)
                .unwrap_or(true)
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        self.graceful_shutdown();
    }

    /// Graceful shutdown now, without waiting for a drain signal.
    pub fn shutdown(mut self) {
        self.graceful_shutdown();
    }

    fn graceful_shutdown(&mut self) {
        self.state.draining.store(true, Ordering::Relaxed);
        // Refuse new pipeline work; admitted jobs keep running.
        if let Some(pool) = &self.state.pool {
            pool.begin_drain();
        }
        // Stop accepting and join in-flight connection threads — each
        // finishes once its pipeline job completes, so this IS the
        // finish-in-flight barrier.
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        // Pool workers exit on their own once the queue is empty; the
        // ServicePool drop (when the last state Arc goes) joins them.
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn route(state: &Arc<DaemonState>, req: &Request) -> Response {
    let t0 = Instant::now();
    let (label, response) = dispatch(state, req);
    state.stats.record(
        ServeStats::endpoint_index(label),
        response.status,
        t0.elapsed(),
    );
    response
}

fn dispatch(state: &Arc<DaemonState>, req: &Request) -> (&'static str, Response) {
    const API_PATHS: [(&str, Endpoint); 4] = [
        ("/v1/assign", Endpoint::Assign),
        ("/v1/compile", Endpoint::Compile),
        ("/v1/exact", Endpoint::Exact),
        ("/v1/lint", Endpoint::Lint),
    ];
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => ("metrics", metrics_response(state)),
        ("GET", "/healthz") => ("other", Response::text(200, "ok\n")),
        ("GET", "/") => ("other", index_response(state)),
        ("GET", "/v1/stats") => ("stats", stats_response(state)),
        ("POST", "/v1/shutdown") => ("other", shutdown_response(state)),
        (method, path) => {
            if let Some(&(_, endpoint)) = API_PATHS.iter().find(|(p, _)| *p == path) {
                if method != "POST" {
                    return (endpoint.label(), Response::text(405, "POST only\n"));
                }
                if state.config.metrics_only {
                    return (
                        endpoint.label(),
                        error_response(404, "pipeline endpoints are disabled in metrics-only mode"),
                    );
                }
                return (endpoint.label(), api_response(state, req, endpoint));
            }
            if matches!(
                path,
                "/metrics" | "/healthz" | "/" | "/v1/stats" | "/v1/shutdown"
            ) {
                return ("other", Response::text(405, "method not allowed\n"));
            }
            ("other", Response::text(404, "not found\n"))
        }
    }
}

fn index_response(state: &Arc<DaemonState>) -> Response {
    let body = if state.config.metrics_only {
        "parmem serve (metrics-only); scrape /metrics\n".to_string()
    } else {
        "parmem serve; POST /v1/{assign,compile,exact,lint}, GET /v1/stats, /metrics, /healthz\n"
            .to_string()
    };
    Response::text(200, body)
}

fn metrics_response(state: &Arc<DaemonState>) -> Response {
    let mut body = state.metrics.render();
    state.stats.prometheus(&mut body);
    {
        let cache = state.cache.lock().unwrap();
        let s = cache.stats();
        gauge(
            &mut body,
            "parmem_serve_cache_hits_total",
            "response-cache hits",
            s.hits,
        );
        gauge(
            &mut body,
            "parmem_serve_cache_misses_total",
            "response-cache misses",
            s.misses,
        );
        gauge(
            &mut body,
            "parmem_serve_cache_evictions_total",
            "response-cache LRU evictions",
            s.evictions,
        );
        gauge(
            &mut body,
            "parmem_serve_cache_bytes",
            "response-cache body bytes held",
            cache.bytes() as u64,
        );
        gauge(
            &mut body,
            "parmem_serve_cache_entries",
            "response-cache entries held",
            cache.len() as u64,
        );
    }
    {
        let s = state.intermediates.stats();
        gauge(
            &mut body,
            "parmem_serve_intermediate_hits_total",
            "frontend-TAC cache hits",
            s.hits,
        );
        gauge(
            &mut body,
            "parmem_serve_intermediate_misses_total",
            "frontend-TAC cache misses",
            s.misses,
        );
        gauge(
            &mut body,
            "parmem_serve_intermediate_entries",
            "frontend-TAC cache entries held",
            s.entries,
        );
    }
    if let Some(pool) = &state.pool {
        let p = pool.stats();
        gauge(
            &mut body,
            "parmem_serve_queue_depth",
            "pipeline jobs waiting for a worker",
            p.queued as u64,
        );
        gauge(
            &mut body,
            "parmem_serve_jobs_in_flight",
            "pipeline jobs running right now",
            p.in_flight as u64,
        );
        gauge(
            &mut body,
            "parmem_serve_jobs_rejected_total",
            "pipeline jobs refused at admission (429s)",
            p.rejected,
        );
        gauge(
            &mut body,
            "parmem_serve_jobs_completed_total",
            "pipeline jobs run to completion",
            p.completed,
        );
    }
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8".to_string(),
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

fn stats_response(state: &Arc<DaemonState>) -> Response {
    let cache_json = state.cache.lock().unwrap().stats_json();
    let queue_json = match &state.pool {
        Some(pool) => {
            let p = pool.stats();
            format!(
                "{{\"workers\":{},\"queue_depth\":{},\"queued\":{},\"in_flight\":{},\
                 \"submitted\":{},\"completed\":{},\"rejected\":{},\"panicked\":{}}}",
                pool.worker_count(),
                state.config.queue_depth,
                p.queued,
                p.in_flight,
                p.submitted,
                p.completed,
                p.rejected,
                p.panicked
            )
        }
        None => "null".to_string(),
    };
    Response::json(
        200,
        format!(
            "{{\"schema\":\"parmem-serve-stats/v1\",\"draining\":{},\"cache\":{},\
             \"intermediates\":{},\"queue\":{},\"endpoints\":{}}}",
            state.draining.load(Ordering::Relaxed) || signal::triggered(),
            cache_json,
            state.intermediates.stats_json(),
            queue_json,
            state.stats.json()
        ),
    )
}

fn shutdown_response(state: &Arc<DaemonState>) -> Response {
    state.draining.store(true, Ordering::Relaxed);
    if let Some(pool) = &state.pool {
        pool.begin_drain();
    }
    // The connection thread can't join the server it is running on; the
    // main thread's `Daemon::wait` sees the flag and performs the drain.
    Response::json(200, "{\"status\":\"draining\"}")
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        format!("{{\"error\":\"{}\"}}", json::escape(message)),
    )
}

// ---------------------------------------------------------------------------
// The API flow: parse → clamp → cache → admit → compute → cache → serve
// ---------------------------------------------------------------------------

fn api_response(state: &Arc<DaemonState>, req: &Request, endpoint: Endpoint) -> Response {
    let mut api = match parse_request(endpoint, &req.body, state.config.debug_hooks) {
        Ok(api) => api,
        Err(e) => return error_response(400, &e),
    };
    clamp_budgets(&mut api, &state.config);
    let key = api.cache_key();
    let if_none_match = req.header("if-none-match").map(str::to_string);

    if let Some(cached) = state.cache.lock().unwrap().lookup(&key) {
        return replay(cached.body, cached.etag, "hit", if_none_match.as_deref());
    }
    if state.draining.load(Ordering::Relaxed) || signal::triggered() {
        return error_response(503, "draining");
    }
    let pool = state.pool.as_ref().expect("api_response gated on pool");

    let (tx, rx) = mpsc::sync_channel::<Result<String, (u16, String)>>(1);
    let job_api = api.clone();
    let job_intermediates = Arc::clone(&state.intermediates);
    let submitted = pool.try_submit(Box::new(move || {
        if job_api.sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(job_api.sleep_ms));
        }
        // A send failure means the requester gave up (budget overrun);
        // the computed result is simply dropped.
        let _ = tx.send(compute(&job_api, &job_intermediates));
    }));
    match submitted {
        Ok(()) => {}
        Err(SubmitError::Saturated) => {
            return error_response(429, "saturated: retry later").with_header("Retry-After", "1");
        }
        Err(SubmitError::ShuttingDown) => return error_response(503, "draining"),
    }

    let answer = rx.recv_timeout(Duration::from_millis(state.config.request_budget_ms.max(1)));
    if !state.config.keep_spans {
        parmem_obs::drop_spans();
    }
    match answer {
        Ok(Ok(body)) => {
            let stored = state.cache.lock().unwrap().insert(key, body.clone());
            let etag = stored
                .map(|c| c.etag)
                .unwrap_or_else(|| crate::cache::etag_for(&body));
            replay(body, etag, "miss", if_none_match.as_deref())
        }
        Ok(Err((status, message))) => error_response(status, &message),
        Err(mpsc::RecvTimeoutError::Timeout) => error_response(503, "request wall budget exceeded"),
        // The worker panicked before sending: the closure (and tx) was
        // dropped inside catch_unwind. The daemon and the worker live on.
        Err(mpsc::RecvTimeoutError::Disconnected) => error_response(500, "pipeline job panicked"),
    }
}

/// Serve a response body with its cache verdict, honouring
/// `If-None-Match` revalidation.
fn replay(body: String, etag: String, verdict: &str, if_none_match: Option<&str>) -> Response {
    if if_none_match.is_some_and(|c| c.split(',').any(|t| t.trim() == etag || t.trim() == "*")) {
        return Response {
            status: 304,
            content_type: "application/json".to_string(),
            headers: vec![
                ("ETag".to_string(), etag),
                ("X-Parmem-Cache".to_string(), verdict.to_string()),
            ],
            body: Vec::new(),
        };
    }
    Response::json(200, body)
        .with_header("ETag", etag)
        .with_header("X-Parmem-Cache", verdict)
}

/// Clamp per-request exact budgets to the daemon's maxima — a client
/// cannot buy unbounded solver time. Runs before cache-key derivation so
/// the clamped request is what gets addressed.
fn clamp_budgets(api: &mut ApiRequest, config: &ServeConfig) {
    api.exact.budget_nodes = api.exact.budget_nodes.min(config.max_budget_nodes);
    if config.max_budget_ms > 0 {
        api.exact.budget_ms = if api.exact.budget_ms == 0 {
            config.max_budget_ms
        } else {
            api.exact.budget_ms.min(config.max_budget_ms)
        };
    }
}

// ---------------------------------------------------------------------------
// Pipeline computation (runs on pool workers)
// ---------------------------------------------------------------------------

/// Compute the response body for one admitted request. `Err` carries the
/// HTTP status (422 pipeline failure) and a message.
fn compute(api: &ApiRequest, inter: &IntermediateCache) -> Result<String, (u16, String)> {
    match api.endpoint {
        Endpoint::Assign => compute_assign(api, inter),
        Endpoint::Compile => compute_compile(api, inter),
        Endpoint::Exact => compute_exact(api, inter),
        Endpoint::Lint => compute_lint(api, inter),
    }
}

fn source_text(api: &ApiRequest) -> Result<&str, (u16, String)> {
    match &api.source {
        Source::Text(src) => Ok(src),
        Source::Synth(_) => Err((400, "synth input is only supported by /v1/assign".into())),
    }
}

/// Finish compilation from the (possibly cached) frontend TAC: every
/// endpoint that needs a [`CompiledProgram`] goes through here so
/// same-program/different-`k` requests share one parse.
fn compile_via_cache(
    session: &parmem_driver::Session,
    inter: &IntermediateCache,
    src: &str,
) -> Result<rliw_sim::pipeline::CompiledProgram, (u16, String)> {
    let tac = inter
        .frontend(session, src)
        .map_err(|e| (422, e.to_string()))?;
    Ok(session.compile_tac(&tac))
}

fn compute_assign(api: &ApiRequest, inter: &IntermediateCache) -> Result<String, (u16, String)> {
    let session = api.session();
    let (trace, assignment, report) = match &api.source {
        Source::Text(src) => {
            let prog = compile_via_cache(&session, inter, src)?;
            let trace = prog.sched.access_trace();
            let (assignment, report) = session.assign(&prog);
            (trace, assignment, report)
        }
        Source::Synth(spec) => {
            // Mirrors `parmem synth --assign`: the strategy knob does not
            // apply to a raw trace; the Fig. 2 pipeline runs directly.
            let trace = scale_trace(spec, api.seed);
            let (assignment, report) = assign_trace(&trace, &session.params);
            (trace, assignment, report)
        }
    };
    // Content digest of the placement itself: per-value module sets in
    // first-use order. Lets clients compare placements without shipping
    // the full (possibly 10^6-row) module map.
    let values = trace.distinct_values();
    let mut digest = Fnv1a::new();
    for &v in &values {
        digest.u64(assignment.copies(v).0);
    }
    Ok(format!(
        "{{\"schema\":\"parmem-serve-assign/v1\",\"program\":\"{}\",\"k\":{},\
         \"strategy\":\"{}\",\"seed\":{},\"instructions\":{},\"values\":{},\
         \"single_copy\":{},\"multi_copy\":{},\"extra_copies\":{},\"uncolored\":{},\
         \"atoms\":{},\"residual_conflicts\":{},\"repair_copies\":{},\
         \"assignment_digest\":\"{:016x}\"}}",
        json::escape(&api.program),
        api.k,
        api.strategy.name(),
        api.seed,
        trace.instructions.len(),
        values.len(),
        report.single_copy,
        report.multi_copy,
        report.extra_copies,
        report.uncolored,
        report.atoms,
        report.residual_conflicts,
        report.repair_copies,
        digest.finish(),
    ))
}

fn compute_compile(api: &ApiRequest, inter: &IntermediateCache) -> Result<String, (u16, String)> {
    let src = source_text(api)?;
    let session = api.session();
    let tac = inter
        .frontend(&session, src)
        .map_err(|e| (422, e.to_string()))?;
    let spec = session
        .job(api.program.clone(), src.to_string())
        .with_frontend_tac(tac);
    let result = parmem_driver::run_job(&spec);
    match &result.outcome {
        Ok(_) => Ok(format!(
            "{{\"schema\":\"parmem-serve-compile/v1\",\"job\":{}}}",
            parmem_batch::report::job_json(&result, false)
        )),
        Err(e) => Err((422, e.to_string())),
    }
}

fn compute_exact(api: &ApiRequest, inter: &IntermediateCache) -> Result<String, (u16, String)> {
    let src = source_text(api)?;
    let session = api.session();
    let prog = compile_via_cache(&session, inter, src)?;
    let trace = prog.sched.access_trace();
    let certificate = parmem_exact::solve_certificate(&trace, &api.exact);
    let heuristic = parmem_exact::heuristic_single_copy_residual(&trace);
    let check = parmem_verify::verify_certificate(&trace, &certificate, Some(heuristic));
    Ok(format!(
        "{{\"schema\":\"parmem-serve-exact/v1\",\"program\":\"{}\",\"k\":{},\
         \"heuristic_residual\":{},\"gap\":{},\"verify_diags\":{},\"certificate\":{}}}",
        json::escape(&api.program),
        api.k,
        heuristic,
        heuristic as isize - certificate.lower as isize,
        check.diagnostics.len(),
        certificate.to_json()
    ))
}

fn compute_lint(api: &ApiRequest, inter: &IntermediateCache) -> Result<String, (u16, String)> {
    let src = source_text(api)?;
    let session = api.session();
    let prog = compile_via_cache(&session, inter, src)?;
    let report = session
        .lint_compiled(api.program.clone(), &prog, api.predict)
        .map_err(|e| (422, e.to_string()))?;
    Ok(format!(
        "{{\"schema\":\"parmem-serve-lint/v1\",\"report\":{}}}",
        report.to_json()
    ))
}

// ---------------------------------------------------------------------------
// SIGTERM → drain flag (async-signal-safe: the handler only stores)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    static SIGTERM: AtomicBool = AtomicBool::new(false);
    static INSTALL: Once = Once::new();

    extern "C" fn on_sigterm(_sig: i32) {
        SIGTERM.store(true, Ordering::SeqCst);
    }

    /// Install the SIGTERM handler (idempotent). Uses the libc `signal`
    /// entry point std already links — no external crate.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        INSTALL.call_once(|| unsafe {
            const SIGTERM_NUM: i32 = 15;
            signal(SIGTERM_NUM, on_sigterm as extern "C" fn(i32) as usize);
        });
    }

    /// Whether SIGTERM has arrived.
    pub fn triggered() -> bool {
        SIGTERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signal {
    /// No-op on non-unix targets (drain via `POST /v1/shutdown`).
    pub fn install() {}

    /// Always false on non-unix targets.
    pub fn triggered() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
        extra: &str,
    ) -> (u16, String, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(
            conn,
            "{method} {path} HTTP/1.1\r\nHost: x\r\n{extra}Content-Length: {}\r\n\r\n{body}",
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

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
        request(addr, "POST", path, body, "")
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        request(addr, "GET", path, "", "")
    }

    fn start(config: ServeConfig) -> Daemon {
        Daemon::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..config
        })
        .expect("bind")
    }

    #[test]
    fn assign_is_cached_and_revalidates() {
        let daemon = start(ServeConfig {
            jobs: 2,
            ..ServeConfig::default()
        });
        let addr = daemon.local_addr();
        let body = r#"{"workload":"FFT","k":4}"#;

        let (s1, h1, b1) = post(addr, "/v1/assign", body);
        assert_eq!(s1, 200, "{b1}");
        assert!(h1.contains("X-Parmem-Cache: miss"), "{h1}");
        assert!(b1.contains("\"schema\":\"parmem-serve-assign/v1\""), "{b1}");
        assert!(b1.contains("\"assignment_digest\""), "{b1}");

        let (s2, h2, b2) = post(addr, "/v1/assign", body);
        assert_eq!(s2, 200);
        assert!(h2.contains("X-Parmem-Cache: hit"), "{h2}");
        assert_eq!(b1, b2, "cached response must be byte-identical");

        // ETag revalidation: If-None-Match on the cached entry is a 304.
        let etag = h2
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("etag header")
            .to_string();
        let (s3, h3, b3) = request(
            addr,
            "POST",
            "/v1/assign",
            body,
            &format!("If-None-Match: {etag}\r\n"),
        );
        assert_eq!(s3, 304, "{h3}");
        assert!(b3.is_empty());

        // /v1/stats sees one miss and two hits (304 revalidation is a hit).
        let (_, _, stats) = get(addr, "/v1/stats");
        assert!(stats.contains("\"hits\":2"), "{stats}");
        assert!(stats.contains("\"misses\":1"), "{stats}");

        daemon.shutdown();
    }

    #[test]
    fn bad_requests_are_400_with_accepted_members() {
        let daemon = start(ServeConfig::default());
        let addr = daemon.local_addr();
        let (s, _, b) = post(addr, "/v1/assign", r#"{"workload":"FFT","bogus":1}"#);
        assert_eq!(s, 400);
        assert!(b.contains("unknown member `bogus`"), "{b}");
        let (s, _, b) = post(addr, "/v1/compile", r#"{"synth":{"values":100}}"#);
        assert_eq!(s, 400, "{b}");
        let (s, _, _) = get(addr, "/v1/assign");
        assert_eq!(s, 405);
        let (s, _, _) = get(addr, "/nope");
        assert_eq!(s, 404);
        daemon.shutdown();
    }

    #[test]
    fn compile_errors_are_422_and_not_cached() {
        let daemon = start(ServeConfig::default());
        let addr = daemon.local_addr();
        let body = r#"{"source":"program broken("}"#;
        let (s, _, b) = post(addr, "/v1/compile", body);
        assert_eq!(s, 422, "{b}");
        let (_, _, stats) = get(addr, "/v1/stats");
        assert!(stats.contains("\"insertions\":0"), "{stats}");
        daemon.shutdown();
    }

    #[test]
    fn exact_and_lint_endpoints_answer() {
        let daemon = start(ServeConfig::default());
        let addr = daemon.local_addr();
        let (s, _, b) = post(addr, "/v1/exact", r#"{"workload":"FFT","k":2}"#);
        assert_eq!(s, 200, "{b}");
        assert!(b.contains("\"schema\":\"parmem-serve-exact/v1\""), "{b}");
        assert!(b.contains("\"certificate\""), "{b}");
        let (s, _, b) = post(addr, "/v1/lint", r#"{"workload":"FFT"}"#);
        assert_eq!(s, 200, "{b}");
        assert!(b.contains("\"schema\":\"parmem-serve-lint/v1\""), "{b}");
        daemon.shutdown();
    }

    #[test]
    fn frontend_cache_hits_across_k_and_endpoints() {
        let daemon = start(ServeConfig::default());
        let addr = daemon.local_addr();
        // Same workload at two k's: the response cache misses twice, but
        // the second request reuses the front-ended TAC.
        let (s, _, b) = post(addr, "/v1/compile", r#"{"workload":"FFT","k":4}"#);
        assert_eq!(s, 200, "{b}");
        let (s, _, _) = post(addr, "/v1/compile", r#"{"workload":"FFT","k":8}"#);
        assert_eq!(s, 200);
        // A different endpoint on the same source also hits.
        let (s, _, _) = post(addr, "/v1/lint", r#"{"workload":"FFT"}"#);
        assert_eq!(s, 200);
        let (_, _, stats) = get(addr, "/v1/stats");
        assert!(
            stats.contains("\"intermediates\":{\"hits\":2,\"misses\":1,\"entries\":1}"),
            "{stats}"
        );
        let (_, _, m) = get(addr, "/metrics");
        assert!(m.contains("parmem_serve_intermediate_hits_total 2"), "{m}");
        daemon.shutdown();
    }

    #[test]
    fn array_policy_requests_carry_the_planned_summary() {
        let daemon = start(ServeConfig::default());
        let addr = daemon.local_addr();
        let body = r#"{"workload":"FFT","array_policy":"hash"}"#;
        let (s, _, b) = post(addr, "/v1/compile", body);
        assert_eq!(s, 200, "{b}");
        assert!(b.contains("\"planned\":{\"policy\":\"hash\""), "{b}");
        // The policy is part of the response address: the plain request
        // computes its own body, without the planned member.
        let (s, h, b) = post(addr, "/v1/compile", r#"{"workload":"FFT"}"#);
        assert_eq!(s, 200);
        assert!(h.contains("X-Parmem-Cache: miss"), "{h}");
        assert!(!b.contains("\"planned\""), "{b}");
        // Bad policy values are a 400 naming the accepted set.
        let (s, _, b) = post(
            addr,
            "/v1/compile",
            r#"{"workload":"FFT","array_policy":"nope"}"#,
        );
        assert_eq!(s, 400);
        assert!(b.contains("bad array_policy"), "{b}");
        daemon.shutdown();
    }

    #[test]
    fn metrics_only_mode_disables_the_pipeline() {
        let daemon = start(ServeConfig {
            metrics_only: true,
            ..ServeConfig::default()
        });
        let addr = daemon.local_addr();
        let (s, _, _) = get(addr, "/metrics");
        assert_eq!(s, 200);
        let (s, _, b) = post(addr, "/v1/assign", r#"{"workload":"FFT"}"#);
        assert_eq!(s, 404, "{b}");
        let (_, _, stats) = get(addr, "/v1/stats");
        assert!(stats.contains("\"queue\":null"), "{stats}");
        daemon.shutdown();
    }

    #[test]
    fn metrics_carry_serve_families() {
        let daemon = start(ServeConfig::default());
        let addr = daemon.local_addr();
        let _ = post(addr, "/v1/assign", r#"{"workload":"SORT"}"#);
        let (_, _, m) = get(addr, "/metrics");
        for family in [
            "parmem_serve_requests_total",
            "parmem_serve_latency_us_bucket",
            "parmem_serve_cache_hits_total",
            "parmem_serve_queue_depth",
            "parmem_metrics_scrapes_total",
        ] {
            assert!(m.contains(family), "missing {family}:\n{m}");
        }
        daemon.shutdown();
    }

    #[test]
    fn http_shutdown_drains() {
        let daemon = start(ServeConfig::default());
        let addr = daemon.local_addr();
        let (s, _, b) = post(addr, "/v1/shutdown", "");
        assert_eq!(s, 200);
        assert!(b.contains("draining"), "{b}");
        assert!(daemon.is_draining());
        // New pipeline work is refused while draining.
        let (s, _, _) = post(addr, "/v1/assign", r#"{"workload":"FFT"}"#);
        assert_eq!(s, 503);
        daemon.wait(); // completes because draining is set
    }
}
