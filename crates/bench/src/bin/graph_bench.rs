//! Conflict-graph micro-benchmark: CSR [`ConflictGraph`] vs. the pre-CSR
//! HashMap representation, emitted as `BENCH_graph.json` for the CI
//! artifact and checked against a committed baseline.
//!
//! For FFT, LIVERMORE, and SYNTH at k ∈ {2, 4} the benchmark builds both
//! graph representations from the scheduled access trace and times two
//! kernels on each:
//!
//! * **edge probe** — a fixed LCG stream of `conf(u, v)` lookups (the hot
//!   operation of the assignment heuristics and the exact solver's bound
//!   computation);
//! * **coloring sweep** — repeated weighted greedy coloring, whose inner
//!   loop scans a vertex's whole neighborhood accumulating conf weights —
//!   the access pattern of `color_graph`'s urgency bookkeeping. On CSR this
//!   is one contiguous `neighbors_with_conf` zip; on the old representation
//!   every neighbor's weight was a separate HashMap probe.
//!
//! A third kernel covers the high-degree regime the paper workloads never
//! reach:
//!
//! * **hub probe** — adjacency membership tests `(hub, v)` where `hub` is
//!   drawn from the highest-degree vertices. This is the access pattern of
//!   the atom decomposition's separator clique checks and the exact
//!   solver's clique growth; it compares the CSR binary search, the HashMap probe, and the
//!   budgeted bitset rows of `BitAdjacency` (which only materialize at
//!   degree ≥ 64, so on the small paper graphs the bitset column simply
//!   re-measures the CSR fallback).
//!
//! Beyond the six paper rows, `SCALE-*` rows run the same kernels on
//! synthetic [`ScaleSpec`] workloads at n = 10⁴, 10⁵, 10⁶. Every row also
//! times the conflict-graph *build* itself (`build_ns`). Rows with `n > PARMEM_BENCH_MAX_N` (default 10⁵) are
//! skipped, which keeps the 10⁶ row out of CI; set
//! `PARMEM_BENCH_MAX_N=1000000` for a full run when regenerating the
//! baseline.
//!
//! Checksums, digests and graph shapes are deterministic and gated against
//! the baseline; wall-clock timings are informational (CI machines vary).
//!
//! ```text
//! cargo run --release -p parmem-bench --bin graph_bench \
//!     [-- [out.json] [--check-baseline <baseline.json>]]
//! ```
//!
//! With `--check-baseline`, exits nonzero if any deterministic field
//! (vertex count, edge count, graph digest, probe/hub/coloring checksums,
//! colored count) diverges from the baseline. Rows present only in the
//! baseline (e.g. the 10⁶ row during a capped run) are skipped.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use parmem_core::graph::ConflictGraph;
use parmem_core::synth::{scale_trace, ScaleSpec};
use parmem_core::types::{AccessTrace, ValueId};
use parmem_driver::Session;

const WORKLOADS: [&str; 3] = ["FFT", "LIVERMORE", "SYNTH"];
const KS: [usize; 2] = [2, 4];
/// The synthetic scale rows: name, vertex count, modules.
const SCALE_ROWS: [(&str, usize); 3] = [
    ("SCALE-10K", 10_000),
    ("SCALE-100K", 100_000),
    ("SCALE-1M", 1_000_000),
];
const SCALE_K: usize = 8;
const SCALE_SEED: u64 = 0x5CA1E;
/// Edge probes per timing run (LCG-generated, identical for both reps).
const PROBES: usize = 500_000;
/// Full greedy-coloring sweeps per timing run on the paper workloads; scale
/// rows divide this budget by graph size (see `color_iters_for`).
const COLOR_ITERS: usize = 400;
/// Timed samples per kernel; the reported time is the fastest sample, taken
/// after one untimed warm-up, with the competing representations alternating
/// so none systematically benefits from cache or frequency ramp-up.
const SAMPLES: usize = 5;
/// Timed samples for the graph build on scale rows: sub-second builds take
/// more samples so the fastest-of-N time converges; the 10⁶ build stays at 3
/// to bound the run time.
fn build_samples_for(n: usize) -> usize {
    if n >= 1_000_000 {
        3
    } else {
        9
    }
}

/// Keep every row's coloring race near the paper rows' total work: the
/// sweep is O(n + edges) per iteration, so iterations shrink as n grows.
fn color_iters_for(n: usize) -> usize {
    (COLOR_ITERS * 100 / n.max(100)).clamp(2, COLOR_ITERS)
}

/// The scale workload behind one `SCALE-*` row: average degree 8, eight
/// components, and one 96-clique per 2500 vertices so a real population of
/// degree-≥64 hubs exists for the bitset rows to cover.
fn scale_spec(n: usize) -> ScaleSpec {
    ScaleSpec {
        values: n,
        edges: n * 4,
        cliques: (n / 2500).max(1),
        clique_size: 96,
        components: 8,
        modules: SCALE_K,
    }
}

/// The pre-CSR formulation the refactor replaced: a HashMap from normalized
/// vertex pairs to conflict weights plus per-vertex adjacency lists.
struct MapGraph {
    n: usize,
    adj: Vec<Vec<u32>>,
    conf: HashMap<(u32, u32), u32>,
}

fn pair(u: u32, v: u32) -> (u32, u32) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

impl MapGraph {
    fn build(trace: &AccessTrace) -> MapGraph {
        let mut values: Vec<ValueId> = trace.instructions.iter().flat_map(|i| i.iter()).collect();
        values.sort_unstable();
        values.dedup();
        let index: HashMap<ValueId, u32> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut g = MapGraph {
            n: values.len(),
            adj: vec![Vec::new(); values.len()],
            conf: HashMap::new(),
        };
        for inst in &trace.instructions {
            let ops: Vec<u32> = inst.iter().map(|v| index[&v]).collect();
            for i in 0..ops.len() {
                for j in (i + 1)..ops.len() {
                    let (u, v) = pair(ops[i], ops[j]);
                    let w = g.conf.entry((u, v)).or_insert(0);
                    if *w == 0 {
                        g.adj[u as usize].push(v);
                        g.adj[v as usize].push(u);
                    }
                    *w += 1;
                }
            }
        }
        g
    }

    fn conf(&self, u: u32, v: u32) -> u32 {
        self.conf.get(&pair(u, v)).copied().unwrap_or(0)
    }
}

/// Deterministic probe-pair stream shared by both representations.
struct Lcg(u64);

impl Lcg {
    fn next_pair(&mut self, n: u32) -> (u32, u32) {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = ((self.0 >> 33) % n as u64) as u32;
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = ((self.0 >> 33) % n as u64) as u32;
        (u, v)
    }
}

/// One pass over the LCG probe stream summing `conf`; returns the checksum.
fn probe_pass(n: usize, conf: &impl Fn(u32, u32) -> u32) -> u64 {
    let mut rng = Lcg(0x5DEECE66D);
    let mut sum = 0u64;
    for _ in 0..PROBES {
        let (u, v) = rng.next_pair(n as u32);
        sum = sum.wrapping_add(black_box(conf(u, v)) as u64);
    }
    sum
}

/// One pass of `(hub, v)` membership tests: `hub` cycles through the
/// highest-degree vertices, `v` is uniform. Returns the hit count — the
/// checksum all three representations must agree on.
fn hub_probe_pass(n: usize, hubs: &[u32], has: &impl Fn(u32, u32) -> bool) -> u64 {
    let mut rng = Lcg(0xDECAF);
    let mut sum = 0u64;
    for _ in 0..PROBES {
        let (a, v) = rng.next_pair(n as u32);
        let u = hubs[a as usize % hubs.len()];
        sum = sum.wrapping_add(black_box(has(u, v)) as u64);
    }
    sum
}

/// The probe targets for [`hub_probe_pass`]: up to 256 vertices, highest
/// degree first (ties: lowest id) — the same ordering `BitAdjacency` uses to
/// hand out bitset rows.
fn hub_set(g: &ConflictGraph) -> Vec<u32> {
    let mut by_degree: Vec<u32> = (0..g.len() as u32).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    by_degree.truncate(256);
    by_degree
}

/// One deterministic weighted greedy coloring pass: visit vertices in index
/// order, scan the whole neighborhood once accumulating both the forbidden
/// module set and the total conf weight (the urgency numerator in
/// `color_graph`), then take the lowest free module or leave the vertex
/// uncolored. `neighbors` yields `(neighbor, conf)` pairs.
fn greedy_pass(
    n: usize,
    k: usize,
    neighbors: &impl Fn(u32, &mut dyn FnMut(u32, u32)),
) -> (usize, u64) {
    let mut color: Vec<i32> = vec![-1; n];
    let mut colored = 0usize;
    let mut checksum = 0u64;
    for v in 0..n as u32 {
        let mut forbidden = 0u64;
        let mut weight = 0u64;
        neighbors(v, &mut |w, c| {
            weight += c as u64;
            let wc = color[w as usize];
            if wc >= 0 {
                forbidden |= 1 << wc;
            }
        });
        let free = (!forbidden).trailing_zeros() as usize;
        if free < k {
            color[v as usize] = free as i32;
            colored += 1;
            checksum = checksum
                .wrapping_add((v as u64 + 1).wrapping_mul(free as u64 + 1))
                .wrapping_add(weight.wrapping_mul(31));
        }
    }
    (colored, checksum)
}

/// Time two competing kernels with alternating samples: one untimed warm-up
/// of each, then [`SAMPLES`] rounds keeping each side's fastest sample. The
/// round order rotates (a-first, then b-first, …) so neither side
/// systematically pays for the other's cache evictions or allocator churn.
/// Returns `((result_a, ns_a), (result_b, ns_b))`.
fn race<T>(mut a: impl FnMut() -> T, mut b: impl FnMut() -> T) -> ((T, u64), (T, u64)) {
    // Keep the warm-up results alive: every timed sample then runs with both
    // sides' previous results resident, so no sample sees an emptier heap
    // than the others.
    let mut out_a = Some(black_box(a()));
    let mut out_b = Some(black_box(b()));
    let (mut best_a, mut best_b) = (u64::MAX, u64::MAX);
    for round in 0..SAMPLES {
        for slot in 0..2 {
            if (round + slot) % 2 == 0 {
                let start = Instant::now();
                out_a = Some(black_box(a()));
                best_a = best_a.min(start.elapsed().as_nanos() as u64);
            } else {
                let start = Instant::now();
                out_b = Some(black_box(b()));
                best_b = best_b.min(start.elapsed().as_nanos() as u64);
            }
        }
    }
    ((out_a.unwrap(), best_a), (out_b.unwrap(), best_b))
}

/// Time one kernel: an untimed warm-up, then the fastest of `samples` runs.
/// Returns the last result and that time.
fn fastest<T>(samples: usize, mut f: impl FnMut() -> T) -> (T, u64) {
    let mut out = black_box(f());
    let mut best = u64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        out = black_box(f());
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    (out, best)
}

/// Three-way variant for the hub probe (CSR / map / bitset), with the same
/// rotating round order as [`race`].
fn race3<T>(
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> T,
    mut c: impl FnMut() -> T,
) -> ((T, u64), (T, u64), (T, u64)) {
    let mut out_a = Some(black_box(a()));
    let mut out_b = Some(black_box(b()));
    let mut out_c = Some(black_box(c()));
    let (mut best_a, mut best_b, mut best_c) = (u64::MAX, u64::MAX, u64::MAX);
    for round in 0..SAMPLES {
        for slot in 0..3 {
            match (round + slot) % 3 {
                0 => {
                    let start = Instant::now();
                    out_a = Some(black_box(a()));
                    best_a = best_a.min(start.elapsed().as_nanos() as u64);
                }
                1 => {
                    let start = Instant::now();
                    out_b = Some(black_box(b()));
                    best_b = best_b.min(start.elapsed().as_nanos() as u64);
                }
                _ => {
                    let start = Instant::now();
                    out_c = Some(black_box(c()));
                    best_c = best_c.min(start.elapsed().as_nanos() as u64);
                }
            }
        }
    }
    (
        (out_a.unwrap(), best_a),
        (out_b.unwrap(), best_b),
        (out_c.unwrap(), best_c),
    )
}

struct Row {
    program: String,
    k: usize,
    // Deterministic, gated against the baseline.
    n: usize,
    edges: usize,
    graph_digest: u64,
    probe_checksum: u64,
    hub_probe_checksum: u64,
    color_checksum: u64,
    colored: usize,
    // Deterministic, informational (derived from the spec).
    color_iters: usize,
    bit_rows: usize,
    // Wall-clock, informational.
    csr_probe_ns: u64,
    map_probe_ns: u64,
    hub_csr_probe_ns: u64,
    hub_map_probe_ns: u64,
    hub_bit_probe_ns: u64,
    csr_color_ns: u64,
    map_color_ns: u64,
    build_ns: u64,
}

impl Row {
    fn probe_speedup(&self) -> f64 {
        self.map_probe_ns as f64 / self.csr_probe_ns.max(1) as f64
    }

    fn hub_bit_speedup(&self) -> f64 {
        self.hub_csr_probe_ns as f64 / self.hub_bit_probe_ns.max(1) as f64
    }

    fn color_speedup(&self) -> f64 {
        self.map_color_ns as f64 / self.csr_color_ns.max(1) as f64
    }
}

/// Run every kernel race on one (CSR, map) graph pair and assemble the row.
/// `build_ns` comes from the caller, which built `csr`.
fn bench_graphs(name: &str, k: usize, csr: &ConflictGraph, map: &MapGraph, build_ns: u64) -> Row {
    assert_eq!(csr.len(), map.n, "{name} k={k}: vertex count");
    assert_eq!(csr.edge_count(), map.conf.len(), "{name} k={k}: edges");

    let ((csr_sum, csr_probe_ns), (map_sum, map_probe_ns)) = race(
        || probe_pass(csr.len(), &|u, v| csr.conf(u, v)),
        || probe_pass(map.n, &|u, v| map.conf(u, v)),
    );
    assert_eq!(csr_sum, map_sum, "{name} k={k}: probe checksums diverge");

    // Hub membership probes: CSR binary search vs HashMap vs bitset rows.
    let hubs = hub_set(csr);
    let badj = csr.bit_adjacency(0);
    let (
        (hub_csr_sum, hub_csr_probe_ns),
        (hub_map_sum, hub_map_probe_ns),
        (hub_bit_sum, hub_bit_probe_ns),
    ) = race3(
        || hub_probe_pass(csr.len(), &hubs, &|u, v| csr.has_edge(u, v)),
        || hub_probe_pass(map.n, &hubs, &|u, v| map.conf(u, v) > 0),
        || hub_probe_pass(csr.len(), &hubs, &|u, v| badj.has_edge(csr, u, v)),
    );
    assert_eq!(
        hub_csr_sum, hub_map_sum,
        "{name} k={k}: hub checksums (map)"
    );
    assert_eq!(
        hub_csr_sum, hub_bit_sum,
        "{name} k={k}: hub checksums (bit)"
    );

    let color_iters = color_iters_for(csr.len());
    type Sweep<'a> = dyn Fn(u32, &mut dyn FnMut(u32, u32)) + 'a;
    let csr_sweep = |v: u32, f: &mut dyn FnMut(u32, u32)| {
        for (w, c) in csr.neighbors_with_conf(v) {
            f(w, c);
        }
    };
    let map_sweep = |v: u32, f: &mut dyn FnMut(u32, u32)| {
        for &w in &map.adj[v as usize] {
            f(w, map.conf(v, w));
        }
    };
    let run = |sweep: &Sweep| {
        let mut out = (0, 0);
        for _ in 0..color_iters {
            out = greedy_pass(csr.len(), k, &sweep);
        }
        out
    };
    let (((csr_colored, csr_check), csr_color_ns), ((map_colored, map_check), map_color_ns)) =
        race(|| run(&csr_sweep), || run(&map_sweep));
    // The map adjacency is unsorted, but the greedy pass visits
    // vertices in index order and neither a neighbor's color nor the
    // weight sum depends on scan order, so the results must coincide.
    assert_eq!(csr_colored, map_colored, "{name} k={k}: colored count");
    assert_eq!(csr_check, map_check, "{name} k={k}: color checksum");

    Row {
        program: name.to_string(),
        k,
        n: csr.len(),
        edges: csr.edge_count(),
        graph_digest: csr.digest(),
        probe_checksum: csr_sum,
        hub_probe_checksum: hub_csr_sum,
        color_checksum: csr_check,
        colored: csr_colored,
        color_iters,
        bit_rows: badj.rows(),
        csr_probe_ns,
        map_probe_ns,
        hub_csr_probe_ns,
        hub_map_probe_ns,
        hub_bit_probe_ns,
        csr_color_ns,
        map_color_ns,
        build_ns,
    }
}

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let bench = workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        for k in KS {
            let prog = Session::new(k)
                .without_optimizer()
                .compile(bench.source)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let trace = prog.sched.access_trace();
            let (g, build_ns) = fastest(SAMPLES, || ConflictGraph::build(&trace));
            let map = MapGraph::build(&trace);
            rows.push(bench_graphs(bench.name, k, &g, &map, build_ns));
        }
    }

    let max_n: usize = std::env::var("PARMEM_BENCH_MAX_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    for (name, n) in SCALE_ROWS {
        if n > max_n {
            eprintln!("note: skipping {name} (n={n} > PARMEM_BENCH_MAX_N={max_n})");
            continue;
        }
        let trace = scale_trace(&scale_spec(n), SCALE_SEED);
        let (g, build_ns) = fastest(build_samples_for(n), || ConflictGraph::build(&trace));
        let map = MapGraph::build(&trace);
        rows.push(bench_graphs(name, SCALE_K, &g, &map, build_ns));
    }
    rows
}

fn to_json(rows: &[Row]) -> String {
    let mut s = String::from("{\"schema\":\"parmem-bench-graph/v2\",\"probes\":");
    let _ = write!(s, "{PROBES},\"color_iters\":{COLOR_ITERS},\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"program\":\"{}\",\"k\":{},\"n\":{},\"edges\":{},\
             \"graph_digest\":{},\"probe_checksum\":{},\"hub_probe_checksum\":{},\
             \"color_checksum\":{},\"colored\":{},\"color_iters\":{},\"bit_rows\":{},\
             \"csr_probe_ns\":{},\"map_probe_ns\":{},\"probe_speedup\":{:.2},\
             \"hub_csr_probe_ns\":{},\"hub_map_probe_ns\":{},\"hub_bit_probe_ns\":{},\
             \"hub_bit_speedup\":{:.2},\
             \"csr_color_ns\":{},\"map_color_ns\":{},\"color_speedup\":{:.2},\
             \"build_ns\":{}}}",
            r.program,
            r.k,
            r.n,
            r.edges,
            r.graph_digest,
            r.probe_checksum,
            r.hub_probe_checksum,
            r.color_checksum,
            r.colored,
            r.color_iters,
            r.bit_rows,
            r.csr_probe_ns,
            r.map_probe_ns,
            r.probe_speedup(),
            r.hub_csr_probe_ns,
            r.hub_map_probe_ns,
            r.hub_bit_probe_ns,
            r.hub_bit_speedup(),
            r.csr_color_ns,
            r.map_color_ns,
            r.color_speedup(),
            r.build_ns
        );
    }
    s.push_str("]}\n");
    s
}

fn format_table(rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>2} | {:>7} {:>8} {:>4} | {:>11} {:>7} | {:>11} {:>7} | {:>11} {:>7} | {:>11}",
        "program",
        "k",
        "n",
        "edges",
        "bits",
        "csr probe",
        "spdup",
        "hub bitset",
        "spdup",
        "csr color",
        "spdup",
        "build"
    );
    let _ = writeln!(s, "{}", "-".repeat(120));
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>2} | {:>7} {:>8} {:>4} | {:>9}ns {:>6.2}x | {:>9}ns {:>6.2}x | {:>9}ns {:>6.2}x | {:>9}ns",
            r.program,
            r.k,
            r.n,
            r.edges,
            r.bit_rows,
            r.csr_probe_ns,
            r.probe_speedup(),
            r.hub_bit_probe_ns,
            r.hub_bit_speedup(),
            r.csr_color_ns,
            r.color_speedup(),
            r.build_ns
        );
    }
    s
}

/// One baseline row: program, k, and its gated `(field, value)` pairs.
type BaselineRow = (String, usize, Vec<(&'static str, u64)>);

/// Minimal field extraction from our own fixed-format row objects — the
/// baseline is always a previous run of this binary, so no general JSON
/// parser is needed (the workspace is registry-free by design).
fn baseline_rows(text: &str) -> Vec<BaselineRow> {
    fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\":");
        let start = obj.find(&pat)? + pat.len();
        let rest = &obj[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim_matches('"'))
    }
    text.split("{\"program\":")
        .skip(1)
        .filter_map(|chunk| {
            let obj = format!("{{\"program\":{chunk}");
            let mut gated = Vec::new();
            for key in GATED {
                gated.push((key, field(&obj, key)?.parse().ok()?));
            }
            Some((
                field(&obj, "program")?.to_string(),
                field(&obj, "k")?.parse().ok()?,
                gated,
            ))
        })
        .collect()
}

/// The fields a baseline check compares exactly.
const GATED: [&str; 7] = [
    "n",
    "edges",
    "graph_digest",
    "probe_checksum",
    "hub_probe_checksum",
    "color_checksum",
    "colored",
];

fn gated_values(r: &Row) -> [(&'static str, u64); 7] {
    [
        ("n", r.n as u64),
        ("edges", r.edges as u64),
        ("graph_digest", r.graph_digest),
        ("probe_checksum", r.probe_checksum),
        ("hub_probe_checksum", r.hub_probe_checksum),
        ("color_checksum", r.color_checksum),
        ("colored", r.colored as u64),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = args
        .iter()
        .position(|a| a == "--check-baseline")
        .and_then(|i| args.get(i + 1).cloned());
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--") && Some(a.as_str()) != baseline_path.as_deref())
        .cloned()
        .unwrap_or_else(|| "BENCH_graph.json".to_string());

    let rows = measure();
    print!("{}", format_table(&rows));
    std::fs::write(&out_path, to_json(&rows)).expect("write report");
    eprintln!("wrote {out_path}");

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).expect("read baseline");
        let base = baseline_rows(&text);
        let mut regressions = 0;
        for r in &rows {
            match base.iter().find(|(p, k, _)| *p == r.program && *k == r.k) {
                None => {
                    eprintln!("note: {} k={} not in baseline (new row)", r.program, r.k);
                }
                Some((_, _, gated)) => {
                    for ((key, have), (_, want)) in gated_values(r).iter().zip(gated) {
                        if have != want {
                            eprintln!(
                                "REGRESSION: {} k={} {key} = {have}, baseline {want}",
                                r.program, r.k
                            );
                            regressions += 1;
                        }
                    }
                }
            }
        }
        if regressions > 0 {
            eprintln!("FAIL: {regressions} deterministic field(s) diverged from {path}");
            return ExitCode::FAILURE;
        }
        eprintln!("baseline check passed ({path})");
    }
    ExitCode::SUCCESS
}
