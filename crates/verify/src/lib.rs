#![warn(missing_docs)]

//! # parmem-verify
//!
//! An independent static checker for every invariant the assignment
//! pipeline claims. Where `parmem-core` *constructs* (conflict graph →
//! atoms → coloring → duplication → placement) and `rliw-sim` *executes*,
//! this crate *re-derives*: its own dataflow solvers over the `liw-ir` CFG,
//! its own bipartite matching over plain bitmasks, its own trace
//! reconstruction from the long words — and then compares against what the
//! pipeline published. Agreement between independently written code paths is
//! the evidence; disagreement is reported as a structured [`Diagnostic`]
//! with a stable `PMxxx` code, the offending instruction/value, and
//! optional JSON output.
//!
//! Checked invariants, by code:
//!
//! | code  | invariant |
//! |-------|-----------|
//! | PM001 | no instruction fetches more scalars than there are modules |
//! | PM002 | every operand value has at least one copy |
//! | PM003 | every instruction is conflict-free (perfect matching exists) |
//! | PM004 | `report.residual_conflicts` equals an independent recount |
//! | PM005 | no two co-occurring single-copy values share their only module |
//! | PM006 | report copy bookkeeping equals a recount over the assignment |
//! | PM007 | every copy lives in a module `0..k` |
//! | PM008 | static conflict prediction equals what the simulator measures |
//! | PM009 | the published access trace equals a word-by-word reconstruction |
//! | PM101 | every use reads the web of each definition reaching it |
//! | PM102 | no web renames two program variables |
//! | PM103 | every read is defined on all paths from entry |
//! | PM104 | no long word writes the same data value twice |
//! | PM201 | an exact certificate's witness places every value once, in range |
//! | PM202 | the witness residual recounts to the claimed upper bound |
//! | PM203 | the clique evidence is valid, vertex- and support-disjoint |
//! | PM204 | certificate bounds and status are mutually consistent |
//! | PM205 | the claimed evidence lower bound is backed by valid cliques |
//! | PM206 | no heuristic residual undercuts the certified lower bound |
//! | PM301 | the memory layout maps every array element totally, in range |
//! | PM302 | the memory layout's digest is stable under recomputation |
//! | PM303 | the layout's scalar assignment agrees with its module count |
//!
//! Entry points: [`verify_trace`] for trace+assignment pairs (what
//! `parmem verify` uses on trace files and what the property tests drive),
//! [`verify_scheduled`] for a scheduled program, [`verify_all`] for the
//! whole compiled pipeline including the renaming proof over the TAC,
//! [`verify_pipeline`] for the same checks inside a pipeline job (the
//! scheduler's own webs, the block-major access trace the job publishes,
//! and PM008's comparison left for the job's own execution of the program),
//! [`verify_certificate`] for exact-solver certificates (what
//! `parmem verify --exact` uses), and [`verify_layout`] for compile-time
//! [`parmem_core::layout::MemoryLayout`] plans (PM301–PM303).

pub mod assignment_check;
pub mod certificate_check;
pub mod dataflow;
pub mod diag;
pub mod differential;
pub mod layout_check;

pub use diag::{BatchSummary, Code, Diagnostic, VerifyReport};

use liw_ir::tac::TacProgram;
use liw_ir::Webs;
use liw_sched::SchedProgram;
use parmem_core::assignment::{Assignment, AssignmentReport};
use parmem_core::types::AccessTrace;
use rliw_sim::{ArrayPlacement, SimStats};

/// Run one check family: record its name, run it under its span, and append
/// its findings.
fn family(
    out: &mut VerifyReport,
    name: &'static str,
    span_name: &str,
    check: impl FnOnce() -> Vec<Diagnostic>,
) {
    out.checks_run.push(name);
    let mut sp = parmem_obs::span(span_name);
    let diags = check();
    sp.attr("diags", diags.len());
    out.diagnostics.extend(diags);
}

/// Verify the assignment invariants of a bare trace/assignment pair
/// (PM001–PM007, and PM004/PM006 when `report` is given).
pub fn verify_trace(
    trace: &AccessTrace,
    assignment: &Assignment,
    report: Option<&AssignmentReport>,
) -> VerifyReport {
    let mut out = VerifyReport::default();
    family(&mut out, "assignment", "verify.assignment", || {
        assignment_check::check_assignment(trace, assignment, report)
    });
    out
}

/// Verify a scheduled program and its assignment: the trace checks of
/// [`verify_trace`], the trace reconstruction (PM009), the word-level
/// dataflow invariants (PM103/PM104), and the static-vs-simulated
/// differential (PM008).
pub fn verify_scheduled(
    sched: &SchedProgram,
    assignment: &Assignment,
    report: Option<&AssignmentReport>,
) -> VerifyReport {
    scheduled_families(sched, &sched.access_trace(), assignment, report)
        .finish_with_own_run(sched, assignment)
}

/// A verification whose PM008 comparison waits for an execution of the
/// program; every other family has run. A pipeline job keeps one from its
/// verify stage to its simulate stage, so the program runs once, for
/// Table 2, and PM008 reads that run.
#[derive(Clone, Debug)]
pub struct PendingReport {
    report: VerifyReport,
    /// Where PM008's findings go in `report.diagnostics`: after the
    /// families before it, before the renaming family's.
    differential_at: usize,
    /// PM008's static prediction.
    expected: differential::Expectation,
}

impl PendingReport {
    /// True when every family that has run is clean.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// Complete PM008 with `measured`, the statistics of an execution of
    /// the program under the verified assignment (`None` when that run
    /// faulted: a runtime fault is a program property, not an assignment
    /// one), and return the finished report. The comparison records its
    /// findings under a `verify.differential.compare` span, where it runs.
    pub fn finish(mut self, measured: Option<&SimStats>) -> VerifyReport {
        if let Some(stats) = measured {
            let mut sp = parmem_obs::span("verify.differential.compare");
            let diags = differential::compare(&self.expected, stats);
            sp.attr("diags", diags.len());
            let at = self.differential_at;
            self.report.diagnostics.splice(at..at, diags);
        }
        self.report
    }

    /// [`PendingReport::finish`] on an execution of its own: `sched` run
    /// under `assignment` with ideal array placement.
    pub fn finish_with_own_run(
        self,
        sched: &SchedProgram,
        assignment: &Assignment,
    ) -> VerifyReport {
        let measured = rliw_sim::run(sched, assignment, ArrayPlacement::Ideal).ok();
        self.finish(measured.as_ref())
    }
}

/// The families of [`verify_scheduled`], in report order, over one
/// reconstruction of the trace, which PM009 compares with `published`.
/// PM008 predicts here; its comparison is left open.
fn scheduled_families(
    sched: &SchedProgram,
    published: &AccessTrace,
    assignment: &Assignment,
    report: Option<&AssignmentReport>,
) -> PendingReport {
    let trace = differential::rebuild_trace(sched);
    let mut out = verify_trace(&trace, assignment, report);
    family(
        &mut out,
        "trace-reconstruction",
        "verify.trace_reconstruction",
        || differential::check_trace_against(published, &trace),
    );
    family(
        &mut out,
        "scheduled-dataflow",
        "verify.scheduled_dataflow",
        || dataflow::check_scheduled_dataflow(sched),
    );
    let differential_at = out.diagnostics.len();
    let mut expected = None;
    family(&mut out, "differential", "verify.differential", || {
        expected = Some(differential::predict_on(&trace, sched, assignment).expectation());
        Vec::new()
    });
    PendingReport {
        report: out,
        differential_at,
        expected: expected.expect("the differential family predicts"),
    }
}

/// The families of [`verify_all`], PM008's comparison left open. The
/// renaming family (PM101/PM102) runs first, so the webs `webs` yields are
/// dropped before the trace is rebuilt; its findings go last, where the
/// report lists them.
fn pipeline_families(
    tac: &TacProgram,
    sched: &SchedProgram,
    webs: impl FnOnce() -> Webs,
    published: &AccessTrace,
    assignment: &Assignment,
    report: Option<&AssignmentReport>,
) -> PendingReport {
    let mut renaming = VerifyReport::default();
    family(&mut renaming, "renaming", "verify.renaming", || {
        dataflow::check_renaming(tac, &webs())
    });
    let mut pending = scheduled_families(sched, published, assignment, report);
    pending.report.checks_run.extend(renaming.checks_run);
    pending.report.diagnostics.extend(renaming.diagnostics);
    pending
}

/// Verify an exact-solver certificate against its trace (PM201–PM206).
/// `heuristic_residual`, when given, enables the PM206 negative-gap check.
pub fn verify_certificate(
    trace: &AccessTrace,
    cert: &parmem_exact::Certificate,
    heuristic_residual: Option<usize>,
) -> VerifyReport {
    let mut out = VerifyReport::default();
    family(&mut out, "certificate", "verify.certificate", || {
        certificate_check::check_certificate(trace, cert, heuristic_residual)
    });
    out
}

/// Verify a compile-time memory layout (PM301–PM303): total and in-range
/// per-element mapping for every array, a digest stable under
/// recomputation, and a scalar assignment consistent with the plan's `k`.
/// Pass the digest recorded when the plan was made (a job output's
/// `layout_digest`, a serve response's, …) so drift is caught.
pub fn verify_layout(
    layout: &parmem_core::layout::MemoryLayout,
    recorded_digest: u64,
) -> VerifyReport {
    let mut out = VerifyReport::default();
    family(&mut out, "layout", "verify.layout", || {
        layout_check::check_layout(layout, recorded_digest)
    });
    out
}

/// Verify the whole pipeline: everything [`verify_scheduled`] checks, plus
/// the renaming (fresh-value) proof over the TAC program's webs
/// (PM101/PM102).
pub fn verify_all(
    tac: &TacProgram,
    sched: &SchedProgram,
    assignment: &Assignment,
    report: Option<&AssignmentReport>,
) -> VerifyReport {
    let published = sched.access_trace();
    pipeline_families(
        tac,
        sched,
        || liw_ir::compute_webs(tac),
        &published,
        assignment,
        report,
    )
    .finish_with_own_run(sched, assignment)
}

/// The checks of [`verify_all`] as a pipeline job runs them: PM101/PM102
/// over `webs`, the webs `sched` was renamed with; PM009 against
/// `published`, the trace the job publishes (its block-major
/// `SchedProgram::access_trace`, while STOR1, STOR3 and EXACT assign on
/// the region-major trace); and PM008's comparison left open until
/// [`PendingReport::finish`] receives the job's own execution of the
/// program.
pub fn verify_pipeline(
    tac: &TacProgram,
    sched: &SchedProgram,
    webs: Webs,
    published: &AccessTrace,
    assignment: &Assignment,
    report: Option<&AssignmentReport>,
) -> PendingReport {
    pipeline_families(tac, sched, move || webs, published, assignment, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liw_sched::MachineSpec;
    use parmem_core::assignment::{assign_trace, AssignParams};
    use parmem_core::types::{ModuleId, ModuleSet};

    const SRC: &str = "program t; var i, s, n: int;
        begin
          n := 12; s := 0;
          for i := 1 to n do s := s + i * i;
          print s;
        end.";

    #[test]
    fn full_pipeline_verifies_clean() {
        for k in [2, 4, 8] {
            let tac = liw_ir::compile(SRC).unwrap();
            let sched = liw_sched::schedule(&tac, MachineSpec::with_modules(k));
            let (a, r) = assign_trace(&sched.access_trace(), &AssignParams::default());
            let report = verify_all(&tac, &sched, &a, Some(&r));
            assert!(report.is_clean(), "k={k}: {report}");
            assert_eq!(report.checks_run.len(), 5);
        }
    }

    #[test]
    fn corruption_surfaces_through_verify_all() {
        let tac = liw_ir::compile(SRC).unwrap();
        let sched = liw_sched::schedule(&tac, MachineSpec::with_modules(4));
        let trace = sched.access_trace();
        let (mut a, r) = assign_trace(&trace, &AssignParams::default());
        // Cram every operand of the first multi-operand word into module 0.
        let inst = trace
            .instructions
            .iter()
            .position(|i| i.len() >= 2)
            .expect("some word reads two scalars");
        for &v in &trace.instructions[inst] {
            a.set_copies(v, ModuleSet::singleton(ModuleId(0)));
        }
        let report = verify_all(&tac, &sched, &a, Some(&r));
        assert!(!report.is_clean());
        assert!(
            report
                .with_code(Code::PM003)
                .iter()
                .any(|d| d.instruction == Some(inst)),
            "PM003 must name instruction {inst}: {report}"
        );
        // The differential check must also notice at run time (the word is
        // inside the loop body or prologue, either way it executes).
        assert!(report.has_code(Code::PM008) || report.has_code(Code::PM004));
    }

    #[test]
    fn pipeline_checks_finish_to_the_verify_all_report() {
        let tac = liw_ir::compile(SRC).unwrap();
        let (sched, webs) = liw_sched::schedule_with(
            &tac,
            MachineSpec::with_modules(4),
            liw_sched::ScheduleOptions::default(),
        );
        let trace = sched.access_trace();
        let (mut a, r) = assign_trace(&trace, &AssignParams::default());
        for corrupt in [false, true] {
            if corrupt {
                let inst = trace.instructions.iter().find(|i| i.len() >= 2).unwrap();
                for &v in inst {
                    a.set_copies(v, ModuleSet::singleton(ModuleId(0)));
                }
            }
            let pending = verify_pipeline(&tac, &sched, webs.clone(), &trace, &a, Some(&r));
            assert_eq!(pending.is_clean(), !corrupt);
            let measured = rliw_sim::run(&sched, &a, rliw_sim::ArrayPlacement::Ideal).unwrap();
            let report = pending.finish(Some(&measured));
            assert_eq!(
                report.to_json(),
                verify_all(&tac, &sched, &a, Some(&r)).to_json()
            );
            assert_eq!(report.is_clean(), !corrupt, "{report}");
        }
    }

    #[test]
    fn report_json_roundtrip_shape() {
        let tac = liw_ir::compile(SRC).unwrap();
        let sched = liw_sched::schedule(&tac, MachineSpec::with_modules(4));
        let (a, r) = assign_trace(&sched.access_trace(), &AssignParams::default());
        let report = verify_all(&tac, &sched, &a, Some(&r));
        let j = report.to_json();
        assert!(j.contains("\"clean\":true"));
        assert!(j.contains("\"renaming\""));
    }
}
