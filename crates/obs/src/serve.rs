//! Minimal std-only HTTP stack — one server implementation shared by the
//! `--metrics-addr` live-telemetry endpoint and the `parmem serve` daemon
//! (`parmem-serve` builds its router on [`serve_http`], so there is exactly
//! one accept loop / connection handler / response writer in the tree).
//!
//! [`serve_http`] binds a `TcpListener` and answers each connection on its
//! own thread (thread-per-connection; requests are short-lived, so no
//! pooling), handing every parsed [`Request`] to a caller-supplied
//! [`Handler`] that returns a [`Response`].
//!
//! Connection handling is hardened against stalled and malicious peers:
//!
//! - a **per-read socket timeout** plus an **overall request deadline**
//!   ([`HttpOptions::read_timeout`] / [`HttpOptions::io_deadline`]), so a
//!   client that connects and never sends a request — or drip-feeds one
//!   byte per read to dodge the per-read timeout — cannot pin a handler
//!   thread past the deadline;
//! - every response carries `Connection: close` and the stream is closed
//!   after one exchange (no keep-alive state to leak);
//! - `POST` bodies are read only up to [`HttpOptions::max_body`] bytes
//!   (413 beyond that) and require a `Content-Length`.
//!
//! [`MetricsState::route`] answers the standard metrics routes (`GET
//! /metrics` Prometheus text from live snapshots, `/healthz`, `/`); the
//! `--metrics-addr` endpoint mounts it on [`serve_http`], and the `parmem
//! serve` daemon renders the same [`MetricsState`] so both servers expose
//! identical scrape/uptime families.
//!
//! Binding port 0 picks a free port; [`HttpServer::local_addr`] reports
//! the actual one (the CLI prints it to stderr so scripts can scrape).
//! Shutdown is cooperative: [`HttpServer::shutdown`] sets a stop flag and
//! self-connects to unblock `accept`.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One parsed HTTP request.
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (query string included verbatim, if any).
    pub path: String,
    /// Headers in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The (first) value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One HTTP response: status, content type, extra headers, body.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code (the reason phrase is derived).
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: String,
    /// Extra headers (e.g. `ETag`, `Retry-After`); `Connection: close` and
    /// `Content-Length` are always added by the writer.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Add a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }
}

/// The standard reason phrase for the status codes this stack emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A request handler: pure function from request to response, shared by
/// every connection thread.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Tuning knobs for [`serve_http`].
#[derive(Clone, Debug)]
pub struct HttpOptions {
    /// Stop after accepting this many connections (tests and the
    /// `--max-requests` flag; `None` serves until shutdown).
    pub max_requests: Option<u64>,
    /// Per-`read(2)` socket timeout.
    pub read_timeout: Duration,
    /// Overall deadline for reading one request (head + body). A stalled
    /// or drip-feeding client is answered 408 and dropped at this point,
    /// so it can never pin a handler thread (and thus delay shutdown
    /// joins) indefinitely.
    pub io_deadline: Duration,
    /// Largest accepted request body; longer ones are answered 413.
    pub max_body: usize,
}

impl Default for HttpOptions {
    fn default() -> HttpOptions {
        HttpOptions {
            max_requests: None,
            read_timeout: Duration::from_secs(2),
            io_deadline: Duration::from_secs(5),
            max_body: 1 << 20,
        }
    }
}

/// Handle to a running HTTP server.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 = pick a free port) and
/// serve `handler` until [`HttpServer::shutdown`] or the `max_requests`
/// budget is exhausted.
pub fn serve_http(addr: &str, opts: HttpOptions, handler: Handler) -> std::io::Result<HttpServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("parmem-http".to_string())
        .spawn(move || {
            let mut accepted = 0u64;
            let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
            loop {
                if let Some(max) = opts.max_requests {
                    if accepted >= max {
                        break;
                    }
                }
                let Ok((conn, _)) = listener.accept() else {
                    break;
                };
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                accepted += 1;
                let handler = Arc::clone(&handler);
                let opts = opts.clone();
                if let Ok(h) = std::thread::Builder::new()
                    .name("parmem-http-conn".to_string())
                    .spawn(move || handle_connection(conn, &opts, &handler))
                {
                    workers.push(h);
                }
                workers.retain(|h| !h.is_finished());
            }
            // Let in-flight requests finish before the acceptor reports done
            // (`join()`/`shutdown()` — and thus process exit — wait on us).
            // The io_deadline bounds how long a stalled peer can hold this.
            for h in workers {
                let _ = h.join();
            }
        })?;
    Ok(HttpServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

impl HttpServer {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the acceptor has exited on its own (`max_requests` reached
    /// or bind torn down).
    pub fn is_finished(&self) -> bool {
        self.handle
            .as_ref()
            .map(|h| h.is_finished())
            .unwrap_or(true)
    }

    /// Stop accepting, then join the acceptor (which joins every in-flight
    /// connection thread first).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock accept(); the acceptor sees the stop flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Wait for the acceptor to exit on its own (used with
    /// `max_requests`).
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Read one request off `conn` under the deadline regime, dispatch it, and
/// write the response. Every exit path closes the stream.
fn handle_connection(mut conn: TcpStream, opts: &HttpOptions, handler: &Handler) {
    let started = Instant::now();
    let _ = conn.set_write_timeout(Some(opts.read_timeout));
    let response = match read_request(&mut conn, opts, started) {
        Ok(req) => {
            // `Expect: 100-continue` clients (curl on larger bodies) have
            // already been told to proceed inside read_request.
            handler(&req)
        }
        Err(status) => Response::text(status, format!("{}\n", reason(status))),
    };
    write_response(&mut conn, &response);
}

/// Read and parse one request. `Err(status)` is the HTTP status to answer
/// with (400 parse error, 408 deadline, 413 oversized body).
fn read_request(
    conn: &mut TcpStream,
    opts: &HttpOptions,
    started: Instant,
) -> Result<Request, u16> {
    let mut buf = [0u8; 4096];
    let mut raw = Vec::new();
    // Head: read until the blank line, under both timeout regimes.
    let head_end = loop {
        if let Some(pos) = find_head_end(&raw) {
            break pos;
        }
        if raw.len() > 32 * 1024 {
            return Err(400);
        }
        let remaining = opts
            .io_deadline
            .checked_sub(started.elapsed())
            .ok_or(408u16)?;
        let _ = conn.set_read_timeout(Some(
            remaining
                .min(opts.read_timeout)
                .max(Duration::from_millis(1)),
        ));
        match conn.read(&mut buf) {
            Ok(0) => return Err(400),
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            // A per-read timeout only fails the request once the overall
            // deadline has passed; otherwise keep waiting for slow peers.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if started.elapsed() >= opts.io_deadline {
                    return Err(408);
                }
            }
            Err(_) => return Err(400),
        }
    };

    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(400);
    }
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let mut req = Request {
        method,
        path,
        headers,
        body: raw[head_end + 4..].to_vec(),
    };

    let content_length: usize = req
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if content_length > opts.max_body {
        return Err(413);
    }
    if req
        .header("expect")
        .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
        && req.body.len() < content_length
    {
        let _ = conn.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
    }
    // Body: whatever followed the head plus the remaining declared bytes.
    while req.body.len() < content_length {
        let remaining = opts
            .io_deadline
            .checked_sub(started.elapsed())
            .ok_or(408u16)?;
        let _ = conn.set_read_timeout(Some(
            remaining
                .min(opts.read_timeout)
                .max(Duration::from_millis(1)),
        ));
        match conn.read(&mut buf) {
            Ok(0) => return Err(400),
            Ok(n) => req.body.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if started.elapsed() >= opts.io_deadline {
                    return Err(408);
                }
            }
            Err(_) => return Err(400),
        }
    }
    req.body.truncate(content_length);
    Ok(req)
}

fn find_head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Serialize `response` with `Connection: close` and an exact
/// `Content-Length`, then flush.
fn write_response(conn: &mut TcpStream, response: &Response) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    let _ = conn.write_all(head.as_bytes());
    let _ = conn.write_all(&response.body);
    let _ = conn.flush();
}

// ---------------------------------------------------------------------------
// The metrics routes, shared by the `--metrics-addr` endpoint and the
// `parmem serve` daemon.
// ---------------------------------------------------------------------------

/// Scrape bookkeeping behind `GET /metrics`: scrape count and endpoint
/// uptime, rendered after the live snapshot families.
pub struct MetricsState {
    scrapes: AtomicU64,
    started: Instant,
}

impl Default for MetricsState {
    fn default() -> MetricsState {
        MetricsState::new()
    }
}

impl MetricsState {
    /// Fresh state; the uptime gauge counts from here.
    pub fn new() -> MetricsState {
        MetricsState {
            scrapes: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Scrapes served so far (`parmem_metrics_scrapes_total`).
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Render one `/metrics` exposition: the live snapshot families plus
    /// the scrape counter and uptime gauge. Bumps the scrape counter.
    pub fn render(&self) -> String {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
        let mut out = live_metrics_text();
        gauge(
            &mut out,
            "parmem_metrics_scrapes_total",
            "scrapes served by this endpoint",
            self.scrapes.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "parmem_uptime_seconds",
            "seconds since the metrics endpoint started",
            self.started.elapsed().as_secs(),
        );
        out
    }

    /// Answer the three standard metrics paths (`GET /metrics`, `/healthz`,
    /// `/`): 405 for any other method, 404 for any other path.
    pub fn route(&self, req: &Request) -> Response {
        if req.method != "GET" {
            return Response::text(405, "method not allowed\n");
        }
        match req.path.as_str() {
            "/metrics" => Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8".to_string(),
                headers: Vec::new(),
                body: self.render().into_bytes(),
            },
            "/healthz" => Response::text(200, "ok\n"),
            "/" => Response::text(200, "parmem metrics endpoint; scrape /metrics\n"),
            _ => Response::text(404, "not found\n"),
        }
    }
}

/// Prometheus text for the live state: the snapshot's counter/histogram
/// families plus allocator and per-phase progress gauges. Shared by the
/// HTTP endpoint and anything else that wants a live dump.
pub fn live_metrics_text() -> String {
    let mut out = crate::export::snapshot_metrics().metrics_text();
    let (live, peak) = crate::alloc::global_live_peak();
    gauge(
        &mut out,
        "parmem_alloc_live_bytes",
        "process-wide live heap bytes",
        live,
    );
    gauge(
        &mut out,
        "parmem_alloc_peak_bytes",
        "process-wide peak live heap bytes",
        peak,
    );
    let phases = crate::progress_snapshot();
    if !phases.is_empty() {
        let _ = writeln!(
            out,
            "# HELP parmem_progress_done items completed in the phase"
        );
        let _ = writeln!(out, "# TYPE parmem_progress_done gauge");
        for p in &phases {
            let _ = writeln!(
                out,
                "parmem_progress_done{{phase=\"{}\"}} {}",
                crate::export::escape_label_value(&p.phase),
                p.done
            );
        }
        let _ = writeln!(out, "# HELP parmem_progress_total items in the phase");
        let _ = writeln!(out, "# TYPE parmem_progress_total gauge");
        for p in &phases {
            let _ = writeln!(
                out,
                "parmem_progress_total{{phase=\"{}\"}} {}",
                crate::export::escape_label_value(&p.phase),
                p.total
            );
        }
    }
    out
}

/// Append one `# HELP`/`# TYPE`/value gauge family.
pub fn gauge(out: &mut String, name: &str, help: &str, v: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {v}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").expect("full response");
        (head.to_string(), body.to_string())
    }

    fn metrics_server(max_requests: Option<u64>) -> HttpServer {
        let state = MetricsState::new();
        let opts = HttpOptions {
            max_requests,
            ..HttpOptions::default()
        };
        serve_http("127.0.0.1:0", opts, Arc::new(move |req| state.route(req))).expect("bind")
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        crate::counter_add("serve.test_counter", 7);
        let srv = metrics_server(None);
        let addr = srv.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("Connection: close"), "{head}");
        assert!(body.contains("parmem_serve_test_counter 7"), "{body}");
        assert!(body.contains("parmem_alloc_live_bytes"), "{body}");
        assert!(body.contains("parmem_metrics_scrapes_total 1"), "{body}");

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body, "ok\n");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        // Second scrape bumps the scrape counter.
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("parmem_metrics_scrapes_total 2"), "{body}");

        srv.shutdown();
        crate::set_enabled(false);
        crate::take();
    }

    #[test]
    fn max_requests_stops_the_acceptor() {
        let _guard = crate::test_lock();
        let srv = metrics_server(Some(1));
        let addr = srv.local_addr();
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));
        srv.join(); // returns because the budget is exhausted
    }

    #[test]
    fn custom_handler_sees_post_bodies_and_headers() {
        let _guard = crate::test_lock();
        let handler: Handler = Arc::new(|req: &Request| {
            assert_eq!(req.method, "POST");
            assert_eq!(req.header("x-probe"), Some("42"));
            Response::json(200, format!("{{\"len\":{}}}", req.body.len()))
                .with_header("X-Echo", String::from_utf8_lossy(&req.body).into_owned())
        });
        let srv = serve_http("127.0.0.1:0", HttpOptions::default(), handler).expect("bind");
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        write!(
            conn,
            "POST /v1/x HTTP/1.1\r\nHost: x\r\nX-Probe: 42\r\nContent-Length: 5\r\n\r\nhello"
        )
        .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("X-Echo: hello"), "{head}");
        assert!(head.contains("Content-Type: application/json"), "{head}");
        assert_eq!(body, "{\"len\":5}");
        srv.shutdown();
    }

    #[test]
    fn oversized_bodies_are_rejected_413() {
        let _guard = crate::test_lock();
        let handler: Handler = Arc::new(|_req: &Request| Response::text(200, "never reached\n"));
        let srv = serve_http(
            "127.0.0.1:0",
            HttpOptions {
                max_body: 16,
                ..HttpOptions::default()
            },
            handler,
        )
        .expect("bind");
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        write!(
            conn,
            "POST /v1/x HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n"
        )
        .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        srv.shutdown();
    }

    /// The hardening contract: a client that connects and never sends a
    /// request must not pin its handler thread past the overall deadline —
    /// other requests keep being served meanwhile, and shutdown (which
    /// joins in-flight handlers) completes promptly.
    #[test]
    fn stalled_client_cannot_pin_the_server() {
        let _guard = crate::test_lock();
        let opts = HttpOptions {
            read_timeout: Duration::from_millis(50),
            io_deadline: Duration::from_millis(200),
            ..HttpOptions::default()
        };
        let handler: Handler = Arc::new(|_req: &Request| Response::text(200, "ok\n"));
        let srv = serve_http("127.0.0.1:0", opts, handler).expect("bind");
        let addr = srv.local_addr();

        // Open a connection and send nothing at all; keep it alive.
        let stalled = TcpStream::connect(addr).expect("connect stalled");

        // A well-behaved request still gets served while the peer stalls.
        let (head, _) = get(addr, "/whatever");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");

        // The stalled handler is answered 408 and released by the deadline,
        // so shutdown (stop accepting + join in-flight) is bounded.
        let t = Instant::now();
        srv.shutdown();
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "shutdown blocked on a stalled client for {:?}",
            t.elapsed()
        );
        // The stalled client eventually sees a 408 (or a clean close).
        let mut stalled = stalled;
        stalled
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut resp = String::new();
        let _ = stalled.read_to_string(&mut resp);
        assert!(
            resp.is_empty() || resp.starts_with("HTTP/1.1 408"),
            "unexpected stalled-client response: {resp}"
        );
    }
}
