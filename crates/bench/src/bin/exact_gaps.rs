//! Heuristic-vs-exact optimality-gap sweep over the paper's benchmark
//! corpus, emitted as `BENCH_exact.json` for the CI artifact and checked
//! against a committed baseline.
//!
//! For each (workload, k) the exact branch-and-bound solver certifies
//! bounds `[lower, upper]` on the minimum residual-conflict count of any
//! single-copy assignment; the paper heuristic's residual is measured
//! against them and every certificate is independently re-validated by
//! `parmem-verify` (PM201–PM206). The default budget is clock-free, so the
//! whole report is deterministic.
//!
//! ```text
//! cargo run --release -p parmem-bench --bin exact_gaps \
//!     [-- [out.json] [--check-baseline <baseline.json>]]
//! ```
//!
//! With `--check-baseline`, exits nonzero if any workload's gap grew, a
//! proven-optimal result regressed to an open gap, or a certificate failed
//! re-validation.

use std::fmt::Write as _;
use std::process::ExitCode;

use parmem_bench::baseline_rows;
use parmem_driver::Session;
use parmem_exact::{heuristic_single_copy_residual, solve_certificate, ExactConfig};

const KS: [usize; 2] = [2, 4];

struct Row {
    program: String,
    k: usize,
    status: &'static str,
    lower: usize,
    upper: usize,
    heuristic: usize,
    copies_upper: usize,
    nodes: u64,
    cert_clean: bool,
}

impl Row {
    fn gap(&self) -> isize {
        self.heuristic as isize - self.lower as isize
    }
}

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    for b in workloads::benchmarks() {
        for k in KS {
            let prog = Session::new(k)
                .without_optimizer()
                .compile(b.source)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let trace = prog.sched.access_trace();
            let cert = solve_certificate(&trace, &ExactConfig::default());
            let heuristic = heuristic_single_copy_residual(&trace);
            let check = parmem_verify::verify_certificate(&trace, &cert, Some(heuristic));
            rows.push(Row {
                program: b.name.to_string(),
                k,
                status: cert.status.as_str(),
                lower: cert.lower,
                upper: cert.upper,
                heuristic,
                copies_upper: cert.copies_upper,
                nodes: cert.nodes_expanded,
                cert_clean: check.is_clean(),
            });
        }
    }
    rows
}

fn to_json(rows: &[Row]) -> String {
    let mut s = String::from("{\"schema\":\"parmem-bench-exact/v1\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"program\":\"{}\",\"k\":{},\"status\":\"{}\",\"lower\":{},\"upper\":{},\
             \"heuristic\":{},\"gap\":{},\"copies_upper\":{},\"nodes\":{},\"cert_clean\":{}}}",
            r.program,
            r.k,
            r.status,
            r.lower,
            r.upper,
            r.heuristic,
            r.gap(),
            r.copies_upper,
            r.nodes,
            r.cert_clean
        );
    }
    s.push_str("]}\n");
    s
}

fn format_table(rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>2} | {:<16} {:>5} {:>5} {:>9} {:>4} {:>6} {:>10} | cert",
        "program", "k", "status", "lower", "upper", "heuristic", "gap", "copies", "nodes"
    );
    let _ = writeln!(s, "{}", "-".repeat(88));
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>2} | {:<16} {:>5} {:>5} {:>9} {:>4} {:>6} {:>10} | {}",
            r.program,
            r.k,
            r.status,
            r.lower,
            r.upper,
            r.heuristic,
            r.gap(),
            r.copies_upper,
            r.nodes,
            if r.cert_clean { "clean" } else { "DIRTY" }
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
        .unwrap_or_else(|| "BENCH_exact.json".to_string());

    let rows = measure();
    print!("{}", format_table(&rows));
    std::fs::write(&out_path, to_json(&rows)).expect("write report");
    eprintln!("wrote {out_path}");

    if let Some(dirty) = rows.iter().find(|r| !r.cert_clean) {
        eprintln!(
            "FAIL: certificate for {} k={} failed re-validation",
            dirty.program, dirty.k
        );
        return ExitCode::FAILURE;
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).expect("read baseline");
        let base = match baseline_rows(&text, |r| {
            Some((
                r.get("program")?.as_str()?.to_string(),
                r.get("k")?.as_num()? as usize,
                r.get("gap")?.as_num()? as isize,
                r.get("status")?.as_str()?.to_string(),
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
                .find(|(p, k, _, _)| *p == r.program && *k == r.k)
            {
                None => {
                    eprintln!("note: {} k={} not in baseline (new row)", r.program, r.k);
                }
                Some((_, _, base_gap, base_status)) => {
                    if r.gap() > *base_gap {
                        eprintln!(
                            "REGRESSION: {} k={} gap {} > baseline {}",
                            r.program,
                            r.k,
                            r.gap(),
                            base_gap
                        );
                        regressions += 1;
                    }
                    if base_status == "optimal" && r.status != "optimal" {
                        eprintln!(
                            "REGRESSION: {} k={} was proven optimal, now `{}`",
                            r.program, r.k, r.status
                        );
                        regressions += 1;
                    }
                }
            }
        }
        if regressions > 0 {
            eprintln!("FAIL: {regressions} gap regression(s) vs {path}");
            return ExitCode::FAILURE;
        }
        eprintln!("baseline check passed ({path})");
    }
    ExitCode::SUCCESS
}
