//! Deterministic reports for `parmem lint`: run the static analyses (and
//! optionally the compile-time conflict predictor) over each (program, k)
//! job and render text or JSON that is byte-identical across `--jobs`
//! settings (results come back in submission order, and every analysis is
//! clock-free).
//!
//! The CLI subcommand and the golden snapshot tests share this module, so
//! the snapshots pin exactly what users see.

use std::fmt::Write as _;

use parmem_driver::Session;
use parmem_lint::LintReport;
use parmem_obs::json;

/// One lint job: a program under a session.
#[derive(Clone, Debug)]
pub struct LintJobSpec {
    /// Display name (workload name or file stem).
    pub program: String,
    /// MiniLang source text.
    pub source: String,
    /// The module count `k` the layout-aware lints and the conflict
    /// predictor assume, the front-end options (matching `parmem batch`),
    /// the seed of the uniform-random placement the t_ave cross-check runs
    /// and, when set (with `predict` on), the array policy whose
    /// measured-vs-modeled rows the report carries.
    pub session: Session,
    /// Whether to run the static conflict predictor and cross-check it
    /// against the simulator's measured counters.
    pub predict: bool,
}

/// What one lint job produced.
#[derive(Clone, Debug)]
pub struct LintJobResult {
    /// The job that ran.
    pub program: String,
    /// Module count.
    pub k: usize,
    /// `Ok` with the report, or a pipeline error string.
    pub outcome: Result<LintReport, String>,
}

/// Run one lint job through the session layer.
pub fn run_lint_job(spec: &LintJobSpec) -> LintJobResult {
    let mut sp = parmem_obs::span("lint.job");
    sp.attr("program", spec.program.clone());
    sp.attr("k", spec.session.k);
    let outcome = spec
        .session
        .lint(&spec.program, &spec.source, spec.predict)
        .map_err(|e| e.to_string());
    LintJobResult {
        program: spec.program.clone(),
        k: spec.session.k,
        outcome,
    }
}

/// Run every job on the batch engine's work-stealing pool; results come
/// back in submission order regardless of `jobs`.
pub fn run_lint_jobs(specs: Vec<LintJobSpec>, jobs: usize) -> Vec<LintJobResult> {
    parmem_pool::map_indexed(specs, jobs, |_, spec| run_lint_job(&spec))
}

/// Total diagnostics across all successful jobs.
pub fn diag_count(results: &[LintJobResult]) -> usize {
    results
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|rep| rep.diags.len())
        .sum()
}

/// Number of jobs that failed in the pipeline or whose predicted-vs-measured
/// check fell outside the documented tolerance.
pub fn failure_count(results: &[LintJobResult]) -> usize {
    results
        .iter()
        .filter(|r| match &r.outcome {
            Ok(rep) => rep.predict.as_ref().is_some_and(|p| !p.within_tolerance()),
            Err(_) => true,
        })
        .count()
}

/// Human-readable corpus report: one section per job plus a summary line.
pub fn to_text(results: &[LintJobResult]) -> String {
    let mut s = String::new();
    for r in results {
        match &r.outcome {
            Ok(rep) => s.push_str(&rep.to_text()),
            Err(e) => {
                let _ = writeln!(s, "== {} (k={}): error: {}", r.program, r.k, e);
            }
        }
    }
    let _ = writeln!(
        s,
        "{} program(s), {} diagnostic(s), {} failure(s)",
        results.len(),
        diag_count(results),
        failure_count(results)
    );
    s
}

/// Deterministic JSON report (`parmem-lint-report/v1`).
pub fn to_json(results: &[LintJobResult]) -> String {
    let mut s = String::from("{\"schema\":\"parmem-lint-report/v1\",\"jobs\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match &r.outcome {
            Ok(rep) => s.push_str(&rep.to_json()),
            Err(e) => {
                let _ = write!(
                    s,
                    "{{\"program\":\"{}\",\"k\":{},\"error\":\"{}\"}}",
                    json::escape(&r.program),
                    r.k,
                    json::escape(e)
                );
            }
        }
    }
    let _ = write!(
        s,
        "],\"diagnostics\":{},\"failures\":{}}}",
        diag_count(results),
        failure_count(results)
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, k: usize) -> LintJobSpec {
        LintJobSpec {
            program: name.into(),
            source: workloads::by_name(name).unwrap().source.into(),
            session: Session::new(k),
            predict: true,
        }
    }

    #[test]
    fn report_is_deterministic_across_jobs() {
        let a = run_lint_jobs(vec![spec("FFT", 2), spec("SORT", 4)], 1);
        let b = run_lint_jobs(vec![spec("FFT", 2), spec("SORT", 4)], 4);
        assert_eq!(to_json(&a), to_json(&b));
        assert_eq!(to_text(&a), to_text(&b));
    }

    #[test]
    fn corpus_predictions_stay_within_tolerance() {
        let rs = run_lint_jobs(vec![spec("FFT", 4), spec("COLOR", 4)], 0);
        assert_eq!(failure_count(&rs), 0, "{}", to_text(&rs));
    }
}
