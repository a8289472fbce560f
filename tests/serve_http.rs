//! The serving daemon end to end, over real TCP against `parmem serve`
//! child processes (no curl — a raw `std::net::TcpStream` client, the
//! same protocol walk `EXPERIMENTS.md` documents):
//!
//! * the same assign request twice → byte-identical bodies, the second
//!   served from the content-addressed cache (hit counter via
//!   `/v1/stats`), `If-None-Match` revalidation → 304;
//! * `/v1/exact` returns a certificate and caches it too, and its body is
//!   the matching `parmem exact --format json` job object under the serve
//!   schema;
//! * saturation (1 worker, zero queue depth, an artificially slow job via
//!   the `PARMEM_SERVE_DEBUG` seam) → `429` with `Retry-After`;
//! * drain (`POST /v1/shutdown`, and SIGTERM on unix) finishes the
//!   in-flight request and exits 0;
//! * control characters in request strings come back escaped, so every
//!   reply is valid JSON;
//! * the live heap gauge stays flat under repeated requests, because the
//!   daemon keeps no span history without a profiling sink and the gauge
//!   is exact across connection threads;
//! * an invalid synth spec is a 400, never a worker panic, and an
//!   oversized one is a 400 or a bounded 200 that leaves the daemon
//!   serving;
//! * a 64-module synth request is a 200;
//! * a deeply nested JSON body is a 400 and deeply nested MiniLang a 422,
//!   and the daemon answers the next request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn spawn_serve(args: &[&str], debug_hooks: bool) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_parmem"));
    cmd.arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if debug_hooks {
        cmd.env("PARMEM_SERVE_DEBUG", "1");
    }
    cmd.spawn().expect("spawn parmem serve")
}

/// Read the child's stderr until the daemon advertises its bound address.
fn wait_for_port(child: &mut Child) -> (u16, BufReader<std::process::ChildStderr>) {
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read child stderr");
        assert!(n > 0, "child exited before advertising its port");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest.trim_end().trim_end_matches("/metrics");
            let port: u16 = addr
                .rsplit(':')
                .next()
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| panic!("unparseable listen line: {line}"));
            return (port, reader);
        }
    }
}

/// One HTTP/1.1 request over a raw TcpStream; returns (status, head, body).
fn http(port: u16, method: &str, path: &str, body: &str, extra: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\n{extra}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("response has header/body split");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in: {head}"));
    (status, head.to_string(), payload.to_string())
}

fn post(port: u16, path: &str, body: &str) -> (u16, String, String) {
    http(port, "POST", path, body, "")
}

fn get(port: u16, path: &str) -> (u16, String, String) {
    http(port, "GET", path, "", "")
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .find_map(|l| l.strip_prefix(&format!("{name}: ")))
}

/// A counter out of the `/v1/stats` JSON, by member name (the document is
/// flat enough for a textual probe).
fn stats_field(stats: &str, object: &str, field: &str) -> u64 {
    let obj = stats
        .split(&format!("\"{object}\":{{"))
        .nth(1)
        .unwrap_or_else(|| panic!("no `{object}` object in {stats}"));
    obj.split(&format!("\"{field}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
        })
        .unwrap_or_else(|| panic!("no `{object}.{field}` in {stats}"))
}

/// One gauge's value out of a `/metrics` page.
fn gauge_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` gauge in:\n{metrics}"))
}

fn live_heap_bytes(port: u16) -> u64 {
    gauge_value(&get(port, "/metrics").2, "parmem_alloc_live_bytes")
}

/// Send `body` to `endpoint` `n` times, expecting 200 each time.
fn repeat_post(port: u16, endpoint: &str, body: &str, n: usize) {
    for _ in 0..n {
        let (s, _, b) = post(port, endpoint, body);
        assert_eq!(s, 200, "{b}");
    }
}

fn shutdown(port: u16, mut child: Child) {
    let (s, _, b) = post(port, "/v1/shutdown", "");
    assert_eq!(s, 200, "{b}");
    let status = child.wait().expect("child exit");
    assert!(status.success(), "serve exited with {status:?}");
}

#[test]
fn assign_twice_is_cached_exact_certifies_and_drain_exits_zero() {
    let mut child = spawn_serve(&[], false);
    let (port, _reader) = wait_for_port(&mut child);
    let body = r#"{"workload":"FFT","k":4,"strategy":"2"}"#;

    // First submission computes; the repeat replays the cached bytes.
    let (s1, h1, b1) = post(port, "/v1/assign", body);
    assert_eq!(s1, 200, "{b1}");
    assert_eq!(header(&h1, "X-Parmem-Cache"), Some("miss"), "{h1}");
    assert!(b1.contains("\"schema\":\"parmem-serve-assign/v1\""), "{b1}");

    let (s2, h2, b2) = post(port, "/v1/assign", body);
    assert_eq!(s2, 200);
    assert_eq!(header(&h2, "X-Parmem-Cache"), Some("hit"), "{h2}");
    assert_eq!(b1, b2, "cached replay must be byte-identical");

    // The hit is visible in the daemon's own accounting.
    let (_, _, stats) = get(port, "/v1/stats");
    assert_eq!(stats_field(&stats, "cache", "hits"), 1, "{stats}");
    assert_eq!(stats_field(&stats, "cache", "misses"), 1, "{stats}");

    // Conditional revalidation: same request with the ETag → 304, no body.
    let etag = header(&h2, "ETag").expect("ETag header").to_string();
    let (s3, h3, b3) = http(
        port,
        "POST",
        "/v1/assign",
        body,
        &format!("If-None-Match: {etag}\r\n"),
    );
    assert_eq!(s3, 304, "{h3}");
    assert!(b3.is_empty());
    assert_eq!(header(&h3, "ETag"), Some(etag.as_str()));

    // /v1/exact returns a verified certificate (and caches it too).
    let exact_body = r#"{"workload":"FFT","k":2,"budget_nodes":200000}"#;
    let (s4, _, b4) = post(port, "/v1/exact", exact_body);
    assert_eq!(s4, 200, "{b4}");
    assert!(b4.contains("\"schema\":\"parmem-serve-exact/v1\""), "{b4}");
    assert!(b4.contains("\"certificate\""), "{b4}");
    let (_, h5, b5) = post(port, "/v1/exact", exact_body);
    assert_eq!(header(&h5, "X-Parmem-Cache"), Some("hit"), "{h5}");
    assert_eq!(b4, b5);

    // The daemon's Prometheus page carries the serve families.
    let (_, _, metrics) = get(port, "/metrics");
    for family in [
        "parmem_serve_requests_total",
        "parmem_serve_latency_us_bucket",
        "parmem_serve_cache_hits_total",
        "parmem_metrics_scrapes_total",
    ] {
        assert!(metrics.contains(family), "missing {family}:\n{metrics}");
    }

    // Graceful drain over HTTP: the daemon exits 0 on its own.
    let (s6, _, b6) = post(port, "/v1/shutdown", "");
    assert_eq!(s6, 200, "{b6}");
    let status = child.wait().expect("child exit");
    assert!(status.success(), "serve exited with {status:?}");
}

/// A `/v1/exact` body is `{"schema":"parmem-serve-exact/v1",` followed by
/// the members of the matching job object of `parmem exact --format json`,
/// with the default budget and with a node budget that leaves SORT's gap
/// open.
#[test]
fn exact_body_is_the_cli_job_object_under_the_serve_schema() {
    let mut child = spawn_serve(&[], false);
    let (port, _reader) = wait_for_port(&mut child);
    let cases = [
        ("FFT", 2, None),
        ("FFT", 4, None),
        ("SORT", 2, None),
        ("SORT", 4, None),
        ("SORT", 2, Some(10)),
    ];
    for (workload, k, budget_nodes) in cases {
        let k_arg = k.to_string();
        let mut cli = vec!["exact", workload, "-k", &k_arg, "--format", "json"];
        let mut request = format!(r#"{{"workload":"{workload}","k":{k}"#);
        let budget_arg = budget_nodes.map(|n: u64| n.to_string());
        if let Some(n) = &budget_arg {
            cli.extend(["--budget-nodes", n]);
            request.push_str(&format!(r#","budget_nodes":{n}"#));
        }
        request.push('}');

        let out = Command::new(env!("CARGO_BIN_EXE_parmem"))
            .args(&cli)
            .output()
            .expect("run parmem exact");
        assert!(out.status.success(), "{cli:?}");
        let report = String::from_utf8(out.stdout).expect("utf-8 report");
        let job = report
            .trim_end()
            .strip_prefix(r#"{"schema":"parmem-exact-report/v1","jobs":[{"#)
            .and_then(|rest| rest.strip_suffix("]}"))
            .unwrap_or_else(|| panic!("one job object in {report}"));

        let (status, _, body) = post(port, "/v1/exact", &request);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body,
            format!(r#"{{"schema":"parmem-serve-exact/v1",{job}"#),
            "{request}"
        );
    }
    shutdown(port, child);
}

#[test]
fn saturation_answers_429_and_drain_finishes_in_flight() {
    // One worker, no queue: a single slow job saturates the daemon. The
    // artificial `sleep_ms` latency only parses under the debug env seam.
    let mut child = spawn_serve(&["--jobs", "1", "--queue-depth", "0"], true);
    let (port, _reader) = wait_for_port(&mut child);

    let slow = std::thread::spawn(move || {
        post(port, "/v1/assign", r#"{"workload":"FFT","sleep_ms":1500}"#)
    });
    // Let the slow job reach the worker, then overflow the admission gate.
    std::thread::sleep(Duration::from_millis(400));
    let (s, h, b) = post(port, "/v1/assign", r#"{"workload":"SORT"}"#);
    assert_eq!(s, 429, "expected saturation, got {s}: {b}");
    assert_eq!(header(&h, "Retry-After"), Some("1"), "{h}");

    let (_, _, stats) = get(port, "/v1/stats");
    assert_eq!(stats_field(&stats, "queue", "rejected"), 1, "{stats}");

    // Drain while the slow job is still in flight: it must complete with a
    // full 200 before the daemon exits 0.
    let (s, _, _) = post(port, "/v1/shutdown", "");
    assert_eq!(s, 200);
    let (s_slow, _, b_slow) = slow.join().expect("slow requester");
    assert_eq!(s_slow, 200, "in-flight request must finish: {b_slow}");
    assert!(b_slow.contains("\"schema\":\"parmem-serve-assign/v1\""));
    let status = child.wait().expect("child exit");
    assert!(status.success(), "serve exited with {status:?}");
}

#[test]
fn lint_reply_escapes_control_characters() {
    let mut child = spawn_serve(&["--max-requests", "1"], false);
    let (port, _reader) = wait_for_port(&mut child);
    let body = r#"{"workload":"SORT","k":2,"program":"a\nb\u0001"}"#;
    let (s, _, reply) = post(port, "/v1/lint", body);
    assert_eq!(s, 200, "{reply}");
    assert!(
        !reply.bytes().any(|b| b < 0x20),
        "raw control byte in {reply:?}"
    );
    let doc = parallel_memories::obs::json::parse(&reply).expect("lint reply parses");
    let program = doc.get("report").and_then(|r| r.get("program"));
    assert_eq!(program.and_then(|p| p.as_str()), Some("a\nb\u{1}"));
    let status = child.wait().expect("child exit");
    assert!(status.success(), "serve exited with {status:?}");
}

#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully() {
    let mut child = spawn_serve(&[], false);
    let (port, _reader) = wait_for_port(&mut child);
    let (s, _, _) = post(port, "/v1/assign", r#"{"workload":"SORT","k":2}"#);
    assert_eq!(s, 200);

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = child.wait().expect("child exit");
    assert!(status.success(), "SIGTERM drain exited with {status:?}");
}

#[test]
fn cache_hits_leave_the_live_heap_gauge_flat() {
    // Every request runs on its own connection thread; what those threads
    // allocate and free must cancel out in the process-wide gauge.
    let mut child = spawn_serve(&[], false);
    let (port, _reader) = wait_for_port(&mut child);
    let body = r#"{"workload":"FFT","k":4}"#;
    repeat_post(port, "/v1/assign", body, 100);
    live_heap_bytes(port); // the first scrape warms the metrics path
    let base = live_heap_bytes(port);
    repeat_post(port, "/v1/assign", body, 1_900);
    let after = live_heap_bytes(port);
    assert!(
        after < base + 64 * 1024,
        "live heap grew from {base} to {after} bytes over 1900 cache hits"
    );
    shutdown(port, child);
}

#[test]
fn uncached_requests_keep_no_spans() {
    // A zero-byte cache makes every request run the whole pipeline, which
    // opens spans; without a profiling sink the daemon must not keep them.
    let mut child = spawn_serve(&["--cache-bytes", "0"], false);
    let (port, _reader) = wait_for_port(&mut child);
    let body = r#"{"workload":"FFT","k":4}"#;
    repeat_post(port, "/v1/compile", body, 50);
    live_heap_bytes(port);
    let base = live_heap_bytes(port);
    repeat_post(port, "/v1/compile", body, 300);
    let after = live_heap_bytes(port);
    assert!(
        after < base + 64 * 1024,
        "live heap grew from {base} to {after} bytes over 300 uncached compiles"
    );
    shutdown(port, child);
}

#[test]
fn profiling_sink_receives_the_daemon_spans() {
    let path = std::env::temp_dir().join(format!("parmem-serve-spans-{}.txt", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let mut child = spawn_serve(&["--trace-summary", path_arg], false);
    let (port, _reader) = wait_for_port(&mut child);
    repeat_post(port, "/v1/assign", r#"{"workload":"FFT","k":4}"#, 1);
    shutdown(port, child);
    let summary = std::fs::read_to_string(&path).expect("trace summary written");
    let _ = std::fs::remove_file(&path);
    assert!(summary.contains("assign.pipeline"), "{summary}");
}

#[test]
fn invalid_synth_spec_is_a_400() {
    let mut child = spawn_serve(&[], false);
    let (port, _reader) = wait_for_port(&mut child);
    let (s, _, b) = post(
        port,
        "/v1/assign",
        r#"{"synth":{"values":100,"components":0}}"#,
    );
    assert_eq!(s, 400, "{b}");
    assert!(b.contains("components must be at least 1"), "{b}");
    shutdown(port, child);
}

#[test]
fn oversized_synth_specs_leave_the_daemon_serving() {
    let mut child = spawn_serve(&[], false);
    let (port, _reader) = wait_for_port(&mut child);
    for (body, status) in [
        (
            r#"{"synth":{"values":100,"cliques":100000000,"clique_size":100000000},"k":4}"#,
            400,
        ),
        (
            r#"{"synth":{"values":100,"cliques":1000000000000,"clique_size":1},"k":4}"#,
            400,
        ),
        (
            r#"{"synth":{"values":1000,"cliques":9000000,"clique_size":2},"k":4}"#,
            400,
        ),
        (
            r#"{"synth":{"values":100,"edges":1000000000000000},"k":4}"#,
            200,
        ),
        (
            r#"{"synth":{"values":100,"cliques":3,"clique_size":4000000000},"k":4}"#,
            200,
        ),
        (
            r#"{"synth":{"values":2000000,"components":1,"edges":9000000},"k":4}"#,
            400,
        ),
        (
            r#"{"synth":{"values":5000,"components":1,"cliques":1,"clique_size":5000},"k":4}"#,
            400,
        ),
    ] {
        let (s, _, b) = post(port, "/v1/assign", body);
        assert_eq!(s, status, "{body}: {b}");
        // The daemon is still up and answers the next request.
        let (s, _, b) = post(port, "/v1/assign", r#"{"synth":{"values":100},"k":4}"#);
        assert_eq!(s, 200, "after {body}: {b}");
    }
    shutdown(port, child);
}

#[test]
fn sixty_four_module_synth_assign_is_a_200() {
    let mut child = spawn_serve(&[], false);
    let (port, _reader) = wait_for_port(&mut child);
    let (s, _, b) = post(port, "/v1/assign", r#"{"synth":{"values":100},"k":64}"#);
    assert_eq!(s, 200, "{b}");
    assert!(b.contains(r#""k":64"#), "{b}");
    shutdown(port, child);
}

#[test]
fn deeply_nested_json_is_a_400_and_the_daemon_keeps_serving() {
    let mut child = spawn_serve(&[], false);
    let (port, _reader) = wait_for_port(&mut child);
    let (s, _, b) = post(port, "/v1/assign", &"[".repeat(10_000));
    assert_eq!(s, 400, "{b}");
    assert!(b.contains("nesting deeper than 128 levels"), "{b}");
    let (s, _, b) = post(port, "/v1/assign", r#"{"workload":"FFT","k":4}"#);
    assert_eq!(s, 200, "{b}");
    shutdown(port, child);
}

#[test]
fn deeply_nested_minilang_is_a_422_and_the_daemon_keeps_serving() {
    let mut child = spawn_serve(&[], false);
    let (port, _reader) = wait_for_port(&mut child);
    let program = |body: String| {
        let src = format!("program t; var x: int;\nbegin\n{body}\nprint x;\nend.");
        format!(r#"{{"source":"{}"}}"#, src.replace('\n', "\\n"))
    };
    for (shape, body) in [
        (
            "5,000 parentheses",
            format!("x := {}1{};", "(".repeat(5000), ")".repeat(5000)),
        ),
        (
            "5,000 nested ifs",
            format!("x := 1; {}x := 2;", "if x > 0 then ".repeat(5000)),
        ),
        (
            "20,000 unary minuses",
            format!("x := {}1;", "-".repeat(20_000)),
        ),
        (
            "a 20,000-term sum",
            format!("x := 1{};", " + 1".repeat(20_000)),
        ),
    ] {
        let request = program(body);
        // Both endpoints pass the parse error through, with its line.
        for endpoint in ["/v1/compile", "/v1/lint"] {
            let (s, _, b) = post(port, endpoint, &request);
            assert_eq!(s, 422, "{endpoint} {shape}: {b}");
            assert!(
                b.contains("parse error at 3:") && b.contains("nesting deeper than 256 levels"),
                "{endpoint} {shape}: {b}"
            );
        }
        // The daemon is still up and answers the next request.
        let (s, _, b) = post(port, "/v1/compile", &program("x := -(1 + 2);".into()));
        assert_eq!(s, 200, "after {shape}: {b}");
    }
    shutdown(port, child);
}
