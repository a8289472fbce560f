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

use parmem_driver::Session;
use parmem_exact::{heuristic_single_copy_residual, solve_certificate, Certificate, ExactConfig};
use parmem_obs::json;
use rliw_sim::pipeline::CompileOptions;

/// One exact-solver job: a program at a module count, with a solver budget.
#[derive(Clone, Debug)]
pub struct ExactJobSpec {
    /// Display name (workload name or file stem).
    pub program: String,
    /// MiniLang source text.
    pub source: String,
    /// Number of memory modules `k`.
    pub k: usize,
    /// Solver configuration (budgets, portfolio, seed).
    pub cfg: ExactConfig,
    /// Front-end options (unroll / optimize), matching `parmem batch`.
    pub opts: CompileOptions,
}

/// What one exact job produced: the certificate, the heuristic residual it
/// bounds, and the independent re-validation verdict.
#[derive(Clone, Debug)]
pub struct ExactJobResult {
    /// The job that ran.
    pub program: String,
    /// Module count.
    pub k: usize,
    /// `Ok` with the measurement, or a pipeline error string.
    pub outcome: Result<ExactMeasurement, String>,
}

/// The measurement carried by a successful [`ExactJobResult`].
#[derive(Clone, Debug)]
pub struct ExactMeasurement {
    /// The solver's certificate (bounds, witness, clique evidence).
    pub certificate: Certificate,
    /// Residual conflicts of the paper-heuristic single-copy assignment.
    pub heuristic_residual: usize,
    /// Number of PM2xx diagnostics from independent re-validation (0 =
    /// clean).
    pub verify_diags: usize,
}

impl ExactMeasurement {
    /// Heuristic residual minus certified lower bound (never negative for a
    /// clean certificate).
    pub fn gap(&self) -> isize {
        self.heuristic_residual as isize - self.certificate.lower as isize
    }
}

/// Run one exact job: compile, solve, measure, re-validate.
pub fn run_exact_job(spec: &ExactJobSpec) -> ExactJobResult {
    let mut sp = parmem_obs::span("exact.job");
    sp.attr("program", spec.program.clone());
    sp.attr("k", spec.k);
    let outcome = (|| {
        let session = Session::new(spec.k).with_opts(spec.opts);
        let prog = session.compile(&spec.source).map_err(|e| e.to_string())?;
        let trace = prog.sched.access_trace();
        let certificate = solve_certificate(&trace, &spec.cfg);
        let heuristic_residual = heuristic_single_copy_residual(&trace);
        let check =
            parmem_verify::verify_certificate(&trace, &certificate, Some(heuristic_residual));
        Ok(ExactMeasurement {
            certificate,
            heuristic_residual,
            verify_diags: check.diagnostics.len(),
        })
    })();
    ExactJobResult {
        program: spec.program.clone(),
        k: spec.k,
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
                    if m.verify_diags == 0 {
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
            Ok(m) => {
                let _ = write!(
                    s,
                    ",\"heuristic_residual\":{},\"gap\":{},\"verify_diags\":{},\"certificate\":{}",
                    m.heuristic_residual,
                    m.gap(),
                    m.verify_diags,
                    m.certificate.to_json()
                );
            }
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
            k,
            cfg: ExactConfig::default(),
            opts: CompileOptions::default(),
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
            assert_eq!(m.verify_diags, 0);
            assert!(m.gap() >= 0);
        }
    }
}
