//! Live `/metrics` endpoint, end to end over real TCP: `serve
//! --metrics-only` and a `synth --assign` run with `--metrics-addr` are both
//! spawned as child processes, their bound port read off the advertised
//! `listening on http://…/metrics` stderr line, and the endpoint scraped
//! twice with a plain `std::net::TcpStream` (no curl). The scraped
//! families are diffed against an expected-names list — this doubles as
//! the CI metrics-smoke job.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Families every scrape must expose, whatever the process is doing.
const EXPECTED_ALWAYS: &[&str] = &[
    "parmem_alloc_live_bytes",
    "parmem_alloc_peak_bytes",
    "parmem_metrics_scrapes_total",
    "parmem_uptime_seconds",
];

/// Families a completed `synth --assign` run must additionally expose:
/// pipeline counters from the coloring heuristic plus the live progress
/// gauges for the phases that ran.
const EXPECTED_SYNTH_ASSIGN: &[&str] = &[
    "parmem_assign_urgency_picks",
    "parmem_progress_done",
    "parmem_progress_total",
];

fn spawn_parmem(args: &[&str], linger_ms: Option<u64>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_parmem"));
    cmd.args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if let Some(ms) = linger_ms {
        cmd.env("PARMEM_METRICS_LINGER_MS", ms.to_string());
    }
    cmd.spawn().expect("spawn parmem")
}

/// Read the child's stderr until the telemetry layer advertises its bound
/// address, returning the port and a reader positioned after that line.
fn wait_for_port(child: &mut Child) -> (u16, BufReader<std::process::ChildStderr>) {
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read child stderr");
        assert!(n > 0, "child exited before advertising the metrics port");
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

/// One HTTP/1.1 GET over a raw TcpStream; returns (status line, body).
fn http_get(port: u16, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Metric families named in an exposition (the `# TYPE <name> …` lines).
fn families(body: &str) -> Vec<&str> {
    body.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect()
}

/// Whether a scrape shows everything a completed `synth --assign` run
/// exposes: every expected family and the `assign.components` progress
/// gauge.
fn synth_assign_complete(body: &str) -> bool {
    let fams = families(body);
    EXPECTED_ALWAYS
        .iter()
        .chain(EXPECTED_SYNTH_ASSIGN)
        .all(|name| fams.contains(name))
        && body.contains("parmem_progress_done{phase=\"assign.components\"}")
}

fn scrape_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
}

#[test]
fn serve_metrics_stub_serves_conformant_text_twice() {
    let mut child = spawn_parmem(
        &[
            "serve",
            "--metrics-only",
            "--addr",
            "127.0.0.1:0",
            "--max-requests",
            "2",
        ],
        None,
    );
    let (port, _reader) = wait_for_port(&mut child);

    let (status, first) = http_get(port, "/metrics");
    assert!(status.contains("200"), "first scrape: {status}");
    let fams = families(&first);
    for name in EXPECTED_ALWAYS {
        assert!(fams.contains(name), "first scrape misses {name}:\n{first}");
    }
    // Conformance: every family announces HELP before TYPE.
    for name in &fams {
        let help = first.find(&format!("# HELP {name} ")).unwrap_or(usize::MAX);
        let ty = first.find(&format!("# TYPE {name} ")).unwrap_or(0);
        assert!(help < ty, "{name}: HELP must precede TYPE");
    }

    let (_, second) = http_get(port, "/metrics");
    let s1 = scrape_value(&first, "parmem_metrics_scrapes_total").expect("scrape counter");
    let s2 = scrape_value(&second, "parmem_metrics_scrapes_total").expect("scrape counter");
    assert!(s2 > s1, "scrape counter did not advance: {s1} -> {s2}");

    // --max-requests 2 bounds the acceptor, so the daemon exits on its own.
    let status = child.wait().expect("child exit");
    assert!(
        status.success(),
        "serve --metrics-only exited with {status:?}"
    );
}

#[test]
fn synth_assign_serves_live_metrics_while_running() {
    // 10^4-value synthetic workload; the linger keeps the endpoint up for
    // LINGER_MS after the assignment finishes.
    const LINGER_MS: u64 = 4000;
    let mut child = spawn_parmem(
        &[
            "synth",
            "-n",
            "10000",
            "--assign",
            "--metrics-addr",
            "127.0.0.1:0",
        ],
        Some(LINGER_MS),
    );
    let (port, mut reader) = wait_for_port(&mut child);
    // Keep draining stderr so the child never blocks on a full pipe.
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        rest
    });

    let (status, first) = http_get(port, "/metrics");
    assert!(status.contains("200"), "first scrape: {status}");

    // Poll until the run has published everything. The child lives until
    // its assignment ends plus the linger: if the assignment was still
    // running at the first scrape, this deadline falls inside that life;
    // if it had finished, the first poll already sees everything.
    let deadline = Instant::now() + Duration::from_millis(LINGER_MS);
    let second = loop {
        let (_, body) = http_get(port, "/metrics");
        if synth_assign_complete(&body) || Instant::now() >= deadline {
            break body;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let fams = families(&second);
    let missing: Vec<&&str> = EXPECTED_ALWAYS
        .iter()
        .chain(EXPECTED_SYNTH_ASSIGN)
        .filter(|name| !fams.contains(*name))
        .collect();
    assert!(
        missing.is_empty(),
        "second scrape misses {missing:?}:\n{second}"
    );
    // Progress gauges carry the phase label of real pipeline phases.
    assert!(
        second.contains("parmem_progress_done{phase=\"assign.components\"}"),
        "no assign.components progress gauge:\n{second}"
    );
    assert!(
        scrape_value(&second, "parmem_metrics_scrapes_total").unwrap_or(0.0) >= 2.0,
        "endpoint did not count both scrapes"
    );

    let status = child.wait().expect("child exit");
    let stderr = drain.join().expect("drain stderr");
    assert!(status.success(), "synth exited with {status:?}\n{stderr}");
    assert!(!first.is_empty());
}
