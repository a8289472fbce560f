//! Deterministic reports for `parmem exact`: compile each (workload, k)
//! job, run the exact solver on its access trace, measure the heuristic's
//! certified optimality gap, and re-validate the certificate with
//! `parmem-verify` — all rendered as text or JSON that is byte-identical
//! across `--jobs` settings (results come back in submission order, and
//! with the default clock-free budget the solver itself is deterministic).
//!
//! The CLI subcommand and the golden snapshot tests share this module, so
//! the snapshots pin exactly what users see.

use std::fmt::Write as _;

use parmem_driver::{ExactGap, Session};
use parmem_obs::json;

/// One exact-solver job: a program compiled under a session, with the
/// solver budget in the session's `exact_gap`.
#[derive(Clone, Debug)]
pub struct ExactJobSpec {
    /// Display name (workload name or file stem).
    pub program: String,
    /// MiniLang source text.
    pub source: String,
    /// Module count and front-end options (unroll / optimize, matching
    /// `parmem batch`), plus the solver configuration (budgets, portfolio,
    /// seed) as `exact_gap`; the default configuration when that is unset.
    pub session: Session,
}

/// What one exact job produced: the gap measurement, or why the program
/// did not compile.
#[derive(Clone, Debug)]
pub struct ExactJobResult {
    /// The job that ran.
    pub program: String,
    /// Module count.
    pub k: usize,
    /// `Ok` with the measurement, or a pipeline error string.
    pub outcome: Result<ExactGap, String>,
}

/// Run one exact job: compile, then measure the gap on the access trace.
pub fn run_exact_job(spec: &ExactJobSpec) -> ExactJobResult {
    let mut sp = parmem_obs::span("exact.job");
    let session = &spec.session;
    sp.attr("program", spec.program.clone());
    sp.attr("k", session.k);
    let outcome = session
        .compile(&spec.source)
        .map(|prog| {
            ExactGap::measure(
                &prog.sched.access_trace(),
                &session.exact_gap.unwrap_or_default(),
            )
        })
        .map_err(|e| e.to_string());
    ExactJobResult {
        program: spec.program.clone(),
        k: session.k,
        outcome,
    }
}

/// Run every job on the batch engine's work-stealing pool; results come
/// back in submission order regardless of `jobs`.
pub fn run_exact_jobs(specs: Vec<ExactJobSpec>, jobs: usize) -> Vec<ExactJobResult> {
    parmem_pool::map_indexed(specs, jobs, |_, spec| run_exact_job(&spec))
}

/// Human-readable gap table, one line per job.
pub fn to_text(results: &[ExactJobResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>2} | {:<16} {:>5} {:>5} {:>9} {:>4} {:>6} {:>10} | {:<6}",
        "program", "k", "status", "lower", "upper", "heuristic", "gap", "copies", "nodes", "cert"
    );
    let _ = writeln!(s, "{}", "-".repeat(92));
    for r in results {
        match &r.outcome {
            Ok(m) => {
                let c = &m.certificate;
                let _ = writeln!(
                    s,
                    "{:<10} {:>2} | {:<16} {:>5} {:>5} {:>9} {:>4} {:>6} {:>10} | {}{}",
                    r.program,
                    r.k,
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
                    },
                    if c.budget_exhausted {
                        " (budget exhausted)"
                    } else {
                        ""
                    },
                );
            }
            Err(e) => {
                let _ = writeln!(s, "{:<10} {:>2} | error: {}", r.program, r.k, e);
            }
        }
    }
    s
}

/// Deterministic JSON report (`parmem-exact-report/v1`): per-job gap
/// measurements with the full certificate embedded.
pub fn to_json(results: &[ExactJobResult]) -> String {
    let mut s = String::from("{\"schema\":\"parmem-exact-report/v1\",\"jobs\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"program\":\"{}\",\"k\":{}",
            json::escape(&r.program),
            r.k
        );
        match &r.outcome {
            Ok(m) => s.push_str(&m.json_members()),
            Err(e) => {
                let _ = write!(s, ",\"error\":\"{}\"", json::escape(e));
            }
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(k: usize) -> ExactJobSpec {
        ExactJobSpec {
            program: "FFT".into(),
            source: workloads::by_name("FFT").unwrap().source.into(),
            session: Session::new(k),
        }
    }

    #[test]
    fn report_is_deterministic_across_jobs() {
        let a = run_exact_jobs(vec![spec(2), spec(4)], 1);
        let b = run_exact_jobs(vec![spec(2), spec(4)], 4);
        assert_eq!(to_json(&a), to_json(&b));
        assert_eq!(to_text(&a), to_text(&b));
    }

    #[test]
    fn certificates_come_back_clean_with_nonnegative_gap() {
        let rs = run_exact_jobs(vec![spec(2), spec(4)], 0);
        for r in rs {
            let m = r.outcome.expect("pipeline ok");
            assert!(m.report.is_clean());
            assert!(m.gap() >= 0);
        }
    }
}
