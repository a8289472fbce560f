//! Pins every FNV-1a digest the pipeline publishes to a constant. These
//! values key caches, seed the hashed array placement, and appear in
//! goldens, `BENCH_*` baselines and serve responses, so a change to how any
//! of them is hashed must show up here as a failing constant rather than
//! as a silently different output.

use std::io::{Read, Write};
use std::net::TcpStream;

use parallel_memories::core::graph::ConflictGraph;
use parallel_memories::core::layout::ArrayPolicy;
use parallel_memories::core::strategies::Strategy;
use parallel_memories::core::synth::{scale_trace, ScaleSpec};
use parallel_memories::core::trace_io;
use parallel_memories::driver::{hash_output, Session};
use parallel_memories::exact::ExactConfig;
use parallel_memories::ir::unroll::UnrollConfig;
use parallel_memories::ir::Value;
use parallel_memories::serve::cache::etag_for;
use parallel_memories::serve::{parse_request, Daemon, Endpoint, ServeConfig};
use parallel_memories::sim::{uniform_seed, CompileOptions};

fn fft() -> &'static str {
    parallel_memories::workloads::by_name("FFT")
        .expect("FFT workload")
        .source
}

#[test]
fn conflict_graph_digests() {
    let fig1 = trace_io::parse_trace(include_str!("golden/fig1.trace")).expect("fig1 trace");
    assert_eq!(
        ConflictGraph::build(&fig1.trace).digest(),
        0x432c_300a_a854_31ed
    );

    let spec = ScaleSpec {
        values: 10_000,
        edges: 40_000,
        ..ScaleSpec::default()
    };
    let g = ConflictGraph::build(&scale_trace(&spec, 123));
    assert_eq!(g.digest(), 0x6549_36dd_a3ae_5340);
}

/// The scheduled-trace graphs of three paper programs at k ∈ {2, 4}, built
/// without the optimizer, and two scale graphs with 96-cliques that hold
/// vertices of degree ≥ 64: `(vertices, edges, digest)` per row.
#[test]
fn corpus_and_scale_graph_digests() {
    let corpus = [
        ("FFT", 2, 74, 44, 0x2197_9da0_e56c_90bd),
        ("FFT", 4, 74, 73, 0xc00d_5148_5a6c_9d26),
        ("LIVERMORE", 2, 36, 13, 0x1e0a_fedb_961c_7913),
        ("LIVERMORE", 4, 36, 18, 0x3591_0447_dc51_1dd8),
        ("SYNTH", 2, 26, 18, 0xf14e_d497_cdba_f610),
        ("SYNTH", 4, 26, 50, 0x8d0a_e89d_e975_77b0),
    ];
    for (name, k, n, edges, digest) in corpus {
        let bench = parallel_memories::workloads::by_name(name).expect("workload");
        let prog = Session::new(k)
            .without_optimizer()
            .compile(bench.source)
            .expect("workload compiles");
        let g = ConflictGraph::build(&prog.sched.access_trace());
        assert_eq!(
            (g.len(), g.edge_count(), g.digest()),
            (n, edges, digest),
            "{name} k={k}"
        );
    }

    for (n, digest) in [
        (10_000, 0xd1e4_c50b_eddf_9e30u64),
        (100_000, 0xa5e0_6ce6_6230_396e),
    ] {
        let spec = ScaleSpec {
            values: n,
            edges: 4 * n,
            cliques: n / 2500,
            clique_size: 96,
            components: 8,
            modules: 8,
        };
        let g = ConflictGraph::build(&scale_trace(&spec, 0x5CA1E));
        assert_eq!(
            (g.len(), g.edge_count(), g.digest()),
            (n, 4 * n, digest),
            "n={n}"
        );
    }
}

#[test]
fn layout_workload_and_seed_digests() {
    for (policy, want) in [
        (ArrayPolicy::Hash, 0x66cd_a717_f33f_d4b5u64),
        (ArrayPolicy::Auto, 0xb087_40d3_a656_ae4e),
    ] {
        let s = Session::new(4).with_array_policy(policy);
        let prog = s.compile(fft()).expect("FFT compiles");
        let (a, _) = s.assign(&prog);
        assert_eq!(s.plan_layout(&prog, &a).digest(), want, "{policy:?}");
    }

    let prog = Session::new(4).compile(fft()).expect("FFT compiles");
    let workload = prog.sched.workload_digest();
    assert_eq!(workload, 0xe614_a5f4_58b1_98c9);
    assert_eq!(uniform_seed(0xC0FFEE, workload), 0xa2f4_3bf0_725b_6ca7);
}

#[test]
fn session_config_digests() {
    assert_eq!(Session::new(4).config_digest(), 0x0cd8_4859_90c0_5636);
    let tuned = Session::new(4)
        .with_strategy(Strategy::STOR3)
        .with_opts(CompileOptions {
            unroll: Some(UnrollConfig::default()),
            ..CompileOptions::default()
        })
        .with_exact_gap(ExactConfig::default());
    assert_eq!(tuned.config_digest(), 0x0b11_ae54_de27_8c36);
}

#[test]
fn output_hash() {
    let out = [Value::Int(-7), Value::Real(2.5), Value::Bool(true)];
    assert_eq!(hash_output(&out), 0xa13b_eaf6_d151_7164);
}

#[test]
fn serve_digests() {
    let req = parse_request(
        Endpoint::Assign,
        br#"{"workload":"FFT","k":4,"program":"fft-pin"}"#,
        false,
    )
    .expect("request parses");
    assert_eq!(req.program_digest(), 0x5fb5_2251_9f4b_2a2c);
    assert_eq!(etag_for("{}"), "\"08f44b07b5901a25\"");

    // One served assign reply pins the response's `assignment_digest` and
    // its ETag together.
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let body = r#"{"workload":"FFT","k":4}"#;
    let mut conn = TcpStream::connect(daemon.local_addr()).expect("connect");
    write!(
        conn,
        "POST /v1/assign HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reply = String::new();
    conn.read_to_string(&mut reply).expect("read");
    daemon.shutdown();
    let (head, payload) = reply.split_once("\r\n\r\n").expect("head/body split");
    let etag = head
        .lines()
        .find_map(|l| l.strip_prefix("ETag: "))
        .expect("ETag header");
    assert_eq!(etag, etag_for(payload));
    assert_eq!(etag, "\"e310ba8cf0802b13\"");
    let digest = payload
        .split("\"assignment_digest\":\"")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .expect("assignment_digest member");
    assert_eq!(digest, "364adbdba371584f");
}
