//! The heuristic-vs-exact gap measurement: solve one access trace exactly,
//! measure the paper heuristic's single-copy residual against the
//! certified bounds, and re-validate the certificate with `parmem-verify`
//! (PM201–PM206). The job's `exact_gap` stage, `parmem exact`, `parmem
//! verify --exact`, serve's `/v1/exact` and the `exact_gaps` bench all
//! measure through [`ExactGap::measure`].

use parmem_core::types::AccessTrace;
use parmem_exact::{Certificate, ExactConfig};
use parmem_verify::VerifyReport;

/// One gap measurement: the certificate, the heuristic residual it bounds,
/// and the certificate's independent re-validation.
#[derive(Clone, Debug)]
pub struct ExactGap {
    /// The solver's certificate (bounds, witness, clique evidence).
    pub certificate: Certificate,
    /// Residual conflicts of the paper-heuristic single-copy assignment.
    pub heuristic_residual: usize,
    /// The re-validation's report (PM201–PM206; clean when empty).
    pub report: VerifyReport,
}

impl ExactGap {
    /// Solve `trace` under `cfg`, measure the heuristic against the
    /// certificate, and re-validate the certificate.
    pub fn measure(trace: &AccessTrace, cfg: &ExactConfig) -> ExactGap {
        let certificate = parmem_exact::solve_certificate(trace, cfg);
        let heuristic_residual = parmem_exact::heuristic_single_copy_residual(trace);
        let report =
            parmem_verify::verify_certificate(trace, &certificate, Some(heuristic_residual));
        ExactGap {
            certificate,
            heuristic_residual,
            report,
        }
    }

    /// Heuristic residual minus the certified lower bound (never negative
    /// for a clean certificate).
    pub fn gap(&self) -> isize {
        self.heuristic_residual as isize - self.certificate.lower as isize
    }

    /// The `heuristic_residual`, `gap`, `verify_diags` and `certificate`
    /// JSON members, each after a comma: what follows `"program"` and `"k"`
    /// in a `parmem exact --format json` job object and a `/v1/exact` body.
    pub fn json_members(&self) -> String {
        format!(
            ",\"heuristic_residual\":{},\"gap\":{},\"verify_diags\":{},\"certificate\":{}",
            self.heuristic_residual,
            self.gap(),
            self.report.diagnostics.len(),
            self.certificate.to_json()
        )
    }
}
