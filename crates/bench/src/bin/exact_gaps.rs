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
use parmem_driver::{ExactGap, Session};
use parmem_exact::ExactConfig;

const KS: [usize; 2] = [2, 4];

fn measure() -> Vec<(&'static str, usize, ExactGap)> {
    let mut rows = Vec::new();
    for b in workloads::benchmarks() {
        for k in KS {
            let prog = Session::new(k)
                .without_optimizer()
                .compile(b.source)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let gap = ExactGap::measure(&prog.sched.access_trace(), &ExactConfig::default());
            rows.push((b.name, k, gap));
        }
    }
    rows
}

fn to_json(rows: &[(&str, usize, ExactGap)]) -> String {
    let mut s = String::from("{\"schema\":\"parmem-bench-exact/v1\",\"rows\":[");
    for (i, (program, k, m)) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let c = &m.certificate;
        let _ = write!(
            s,
            "{{\"program\":\"{}\",\"k\":{},\"status\":\"{}\",\"lower\":{},\"upper\":{},\
             \"heuristic\":{},\"gap\":{},\"copies_upper\":{},\"nodes\":{},\"cert_clean\":{}}}",
            program,
            k,
            c.status.as_str(),
            c.lower,
            c.upper,
            m.heuristic_residual,
            m.gap(),
            c.copies_upper,
            c.nodes_expanded,
            m.report.is_clean()
        );
    }
    s.push_str("]}\n");
    s
}

fn format_table(rows: &[(&str, usize, ExactGap)]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>2} | {:<16} {:>5} {:>5} {:>9} {:>4} {:>6} {:>10} | cert",
        "program", "k", "status", "lower", "upper", "heuristic", "gap", "copies", "nodes"
    );
    let _ = writeln!(s, "{}", "-".repeat(88));
    for (program, k, m) in rows {
        let c = &m.certificate;
        let _ = writeln!(
            s,
            "{:<10} {:>2} | {:<16} {:>5} {:>5} {:>9} {:>4} {:>6} {:>10} | {}",
            program,
            k,
            c.status.as_str(),
            c.lower,
            c.upper,
            m.heuristic_residual,
            m.gap(),
            c.copies_upper,
            c.nodes_expanded,
            if m.report.is_clean() {
                "clean"
            } else {
                "DIRTY"
            }
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

    if let Some((program, k, _)) = rows.iter().find(|(_, _, m)| !m.report.is_clean()) {
        eprintln!("FAIL: certificate for {program} k={k} failed re-validation");
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
        for (program, k, m) in &rows {
            match base.iter().find(|(p, bk, _, _)| p == program && bk == k) {
                None => {
                    eprintln!("note: {program} k={k} not in baseline (new row)");
                }
                Some((_, _, base_gap, base_status)) => {
                    if m.gap() > *base_gap {
                        eprintln!(
                            "REGRESSION: {program} k={k} gap {} > baseline {base_gap}",
                            m.gap()
                        );
                        regressions += 1;
                    }
                    let status = m.certificate.status.as_str();
                    if base_status == "optimal" && status != "optimal" {
                        eprintln!("REGRESSION: {program} k={k} was proven optimal, now `{status}`");
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
