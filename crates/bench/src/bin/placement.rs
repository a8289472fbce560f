//! Measured-vs-modeled transfer time for every compile-time array
//! placement policy over the paper's benchmark corpus, emitted as
//! `BENCH_placement.json` for the CI artifact and checked against a
//! committed baseline.
//!
//! For each (workload, k, policy) the full pipeline runs with the policy
//! threaded through the unified `MemoryLayout` plan, and the simulator's
//! measured transfer time is recorded next to the uniform-placement
//! analytic model (the paper's `t_ave = Σ i·Δ·p(i)`). Interleaved, hash,
//! and block placements are fully deterministic — no random draw is
//! involved — so every measured number is exactly reproducible; the hash
//! policy is additionally required to land within the lint crate's
//! documented `T_AVE_TOLERANCE` of the uniform model (Hanlon-style
//! hashing is the scheme that statistical model describes).
//!
//! ```text
//! cargo run --release -p parmem-bench --bin placement \
//!     [-- [out.json] [--check-baseline <baseline.json>]]
//! ```
//!
//! With `--check-baseline`, exits nonzero if any measured transfer time
//! moved at all (the placements are deterministic; any drift is a real
//! behaviour change) or if a hash row left the model tolerance.

use std::fmt::Write as _;
use std::process::ExitCode;

use parmem_bench::baseline_rows;
use parmem_core::layout::ArrayPolicy;
use parmem_driver::Session;
use parmem_lint::T_AVE_TOLERANCE;

const KS: [usize; 2] = [4, 8];

struct Row {
    program: String,
    k: usize,
    policy: &'static str,
    arrays: usize,
    t_min: u64,
    t_model: f64,
    t_measured: u64,
    t_max: u64,
    layout_digest: u64,
}

impl Row {
    /// Relative error of the measured time against the uniform model.
    fn rel_err(&self) -> f64 {
        if self.t_model == 0.0 {
            return 0.0;
        }
        (self.t_measured as f64 - self.t_model).abs() / self.t_model
    }

    /// The statistical model describes uniform-random placement; only the
    /// hash policy approximates that, so only hash rows are held to the
    /// tolerance (interleaved/block are expected to beat or miss it).
    fn within(&self) -> bool {
        self.policy != "hash" || self.rel_err() <= T_AVE_TOLERANCE
    }
}

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    for b in workloads::benchmarks() {
        for k in KS {
            for policy in ArrayPolicy::CONCRETE {
                let out = Session::new(k)
                    .with_array_policy(policy)
                    .run(b.name, b.source)
                    .outcome
                    .unwrap_or_else(|e| panic!("{} k={k} {}: {e}", b.name, policy.name()));
                let planned = out
                    .planned
                    .unwrap_or_else(|| panic!("{} k={k}: no planned summary", b.name));
                rows.push(Row {
                    program: b.name.to_string(),
                    k,
                    policy: planned.policy,
                    arrays: planned.arrays,
                    t_min: out.table2.t_min,
                    t_model: planned.t_ave_model,
                    t_measured: planned.transfer_time,
                    t_max: out.table2.t_max,
                    layout_digest: planned.layout_digest,
                });
            }
        }
    }
    rows
}

fn to_json(rows: &[Row]) -> String {
    let mut s = String::from("{\"schema\":\"parmem-bench-placement/v1\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"program\":\"{}\",\"k\":{},\"policy\":\"{}\",\"arrays\":{},\"t_min\":{},\
             \"t_model\":{:.4},\"t_measured\":{},\"t_max\":{},\"rel_err\":{:.4},\
             \"within\":{},\"layout_digest\":\"{:016x}\"}}",
            r.program,
            r.k,
            r.policy,
            r.arrays,
            r.t_min,
            r.t_model,
            r.t_measured,
            r.t_max,
            r.rel_err(),
            r.within(),
            r.layout_digest
        );
    }
    s.push_str("]}\n");
    s
}

fn format_table(rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>2} {:<11} {:>6} | {:>8} {:>10} {:>10} {:>8} {:>8} | model",
        "program", "k", "policy", "arrays", "t_min", "t_model", "t_meas", "t_max", "rel_err"
    );
    let _ = writeln!(s, "{}", "-".repeat(92));
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>2} {:<11} {:>6} | {:>8} {:>10.1} {:>10} {:>8} {:>8.4} | {}",
            r.program,
            r.k,
            r.policy,
            r.arrays,
            r.t_min,
            r.t_model,
            r.t_measured,
            r.t_max,
            r.rel_err(),
            if r.within() { "ok" } else { "OUT" }
        );
    }
    s
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
        .unwrap_or_else(|| "BENCH_placement.json".to_string());

    let rows = measure();
    print!("{}", format_table(&rows));
    std::fs::write(&out_path, to_json(&rows)).expect("write report");
    eprintln!("wrote {out_path}");

    if let Some(out) = rows.iter().find(|r| !r.within()) {
        eprintln!(
            "FAIL: {} k={} hash measured {} vs model {:.1} — rel err {:.4} > {}",
            out.program,
            out.k,
            out.t_measured,
            out.t_model,
            out.rel_err(),
            T_AVE_TOLERANCE
        );
        return ExitCode::FAILURE;
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).expect("read baseline");
        let base = match baseline_rows(&text, |r| {
            Some((
                r.get("program")?.as_str()?.to_string(),
                r.get("k")?.as_num()? as usize,
                r.get("policy")?.as_str()?.to_string(),
                r.get("t_measured")?.as_num()? as u64,
            ))
        }) {
            Ok(base) => base,
            Err(e) => {
                eprintln!("FAIL: baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut regressions = 0;
        for r in &rows {
            match base
                .iter()
                .find(|(p, k, pol, _)| *p == r.program && *k == r.k && *pol == r.policy)
            {
                None => {
                    eprintln!(
                        "note: {} k={} {} not in baseline (new row)",
                        r.program, r.k, r.policy
                    );
                }
                Some((_, _, _, base_t)) => {
                    // Planned placements are deterministic: any movement in
                    // the measured transfer time is a behaviour change, not
                    // noise, so the check is exact equality.
                    if r.t_measured != *base_t {
                        eprintln!(
                            "REGRESSION: {} k={} {} t_measured {} != baseline {}",
                            r.program, r.k, r.policy, r.t_measured, base_t
                        );
                        regressions += 1;
                    }
                }
            }
        }
        if regressions > 0 {
            eprintln!("FAIL: {regressions} drift(s) vs {path}");
            return ExitCode::FAILURE;
        }
        eprintln!("baseline check passed ({path})");
    }
    ExitCode::SUCCESS
}
