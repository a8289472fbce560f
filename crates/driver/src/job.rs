//! One pipeline job: the full compile → assign → verify → simulate pipeline
//! over one program under one [`Session`], run stage by stage by a
//! [`PipelineContext`] with per-stage metrics, structured per-stage failure,
//! and panic isolation.
//!
//! This module is the *only* place the stages are chained: the CLI, the
//! batch engine, the bench bins, and the integration tests all come through
//! [`run_job`] / [`PipelineContext`] (usually via [`Session`]) rather than
//! wiring `frontend → optimize → schedule → …` themselves.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parmem_core::assignment::{Assignment, AssignmentReport};
use parmem_core::types::{AccessTrace, ModuleId, ModuleSet};
use parmem_obs::digest::Fnv1a;
use parmem_obs::{JobMetrics, StageKind, StageTimer};
use parmem_verify::{PendingReport, VerifyReport};
use rliw_sim::pipeline::{self, Table2Row};

use crate::exact_gap::ExactGap;
use crate::session::Session;

/// One unit of pipeline work: compile `source` under `session`'s
/// configuration, assign, verify, and simulate. Mint one with
/// [`Session::job`].
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name (e.g. the paper benchmark name).
    pub program: String,
    /// MiniLang source. `Arc` so a spec clones cheaply across k-sweeps.
    pub source: Arc<str>,
    /// Every knob of the job: `k`, strategy, compile options, assignment
    /// parameters, placement seed, exact-gap stage and array policy.
    pub session: Session,
    /// Test-only fault injection; `None` in production use.
    pub fault: Option<FaultInjection>,
    /// Pre-computed front-end TAC for this (source, unroll) pair. When set
    /// the frontend stage clones it instead of re-parsing — parmem-serve's
    /// intermediate cache threads hits through here. Correctness contract:
    /// the TAC must equal [`Session::frontend`]'s output for `source` (the
    /// front end depends on the source and `opts.unroll` only, never on
    /// `k`/strategy/optimizer, so one TAC serves every machine size).
    pub frontend_tac: Option<Arc<liw_ir::TacProgram>>,
}

impl JobSpec {
    /// Inject a fault (tests of the error paths only).
    pub fn with_fault(mut self, fault: FaultInjection) -> JobSpec {
        self.fault = Some(fault);
        self
    }

    /// Supply a cached front-end TAC (see [`JobSpec::frontend_tac`]).
    pub fn with_frontend_tac(mut self, tac: Arc<liw_ir::TacProgram>) -> JobSpec {
        self.frontend_tac = Some(tac);
        self
    }
}

/// Deliberate sabotage of one pipeline stage, so tests can exercise every
/// structured failure path without hunting for a real miscompilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultInjection {
    /// Panic when the given stage begins (tests panic isolation).
    PanicInStage(StageKind),
    /// After assignment, cram the operands of the first multi-operand word
    /// into module 0 — the verifier must then report PM00x diagnostics.
    CorruptAssignment,
    /// Overwrite the first simulated output value (or append one to an
    /// empty output) — the reference comparison must then report a
    /// divergence with a located first mismatch.
    CorruptOutput,
}

/// Structured per-job failure. Every variant names the stage that failed;
/// a batch as a whole keeps running.
#[derive(Clone, Debug)]
pub enum JobError {
    /// Front end rejected the source.
    Compile(String),
    /// Assignment left residual conflicts (instructions wider than `k`).
    Assign {
        /// Conflicting-instruction count from the assignment report.
        residual_conflicts: usize,
    },
    /// The independent verifier found invariant violations.
    Verify {
        /// The full verifier report (codes, messages, locations).
        report: VerifyReport,
    },
    /// The simulator or reference interpreter failed (bounds, fuel).
    Sim(String),
    /// Simulated output diverged from the reference interpreter.
    Divergence {
        /// Reference output length.
        expected: usize,
        /// Simulated output length.
        actual: usize,
        /// Index of the first differing value, if lengths agree that far.
        first_mismatch: Option<usize>,
    },
    /// The job panicked; the payload message is preserved.
    Panic(String),
    /// The job never ran: an earlier failure cancelled the batch
    /// (fail-fast policy).
    Skipped,
}

impl JobError {
    /// Stable lowercase kind tag (JSON/CSV `status` column).
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Compile(_) => "compile-error",
            JobError::Assign { .. } => "assign-error",
            JobError::Verify { .. } => "verify-error",
            JobError::Sim(_) => "sim-error",
            JobError::Divergence { .. } => "divergence",
            JobError::Panic(_) => "panic",
            JobError::Skipped => "skipped",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Compile(e) => write!(f, "compile error: {e}"),
            JobError::Assign { residual_conflicts } => {
                write!(
                    f,
                    "assignment left {residual_conflicts} residual conflict(s)"
                )
            }
            JobError::Verify { report } => {
                let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
                write!(
                    f,
                    "verification failed with {} violation(s): {}",
                    report.diagnostics.len(),
                    codes.join(",")
                )
            }
            JobError::Sim(e) => write!(f, "simulation error: {e}"),
            JobError::Divergence {
                expected,
                actual,
                first_mismatch,
            } => {
                write!(
                    f,
                    "output diverged from reference ({expected} expected, {actual} simulated"
                )?;
                if let Some(i) = first_mismatch {
                    write!(f, ", first mismatch at {i}")?;
                }
                write!(f, ")")
            }
            JobError::Panic(msg) => write!(f, "job panicked: {msg}"),
            JobError::Skipped => write!(f, "skipped (batch cancelled by earlier failure)"),
        }
    }
}

impl std::error::Error for JobError {}

/// Everything a successful job measured.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The paper's Table 2 measurements (four array policies + analytic).
    pub table2: Table2Row,
    /// Assignment statistics (Table 1 numbers).
    pub assign_report: AssignmentReport,
    /// The verifier's clean report (checks that ran).
    pub verify: VerifyReport,
    /// Distinct data values in the access trace.
    pub values: usize,
    /// Static long-word count.
    pub static_words: u64,
    /// Executed long words (interleaved run).
    pub words: u64,
    /// Machine cycles (interleaved run).
    pub cycles: u64,
    /// Reference-interpreter step count.
    pub reference_steps: u64,
    /// Speed-up over 1-op/cycle sequential execution.
    pub speedup: f64,
    /// Printed output length.
    pub output_len: usize,
    /// FNV-1a hash of the printed output (bit-exact for reals) — the
    /// differential tests compare this across engines and `--jobs` settings.
    pub output_hash: u64,
    /// Heuristic-vs-exact gap measurement (only when the spec asked for it).
    pub gap: Option<ExactGap>,
    /// Compile-time planned array placement measurement (only when the
    /// spec carried an array policy).
    pub planned: Option<PlannedSummary>,
}

/// What simulating the compile-time [`parmem_core::layout::MemoryLayout`]
/// measured, next to the uniform model it is compared against.
#[derive(Clone, Debug)]
pub struct PlannedSummary {
    /// Requested policy name (`interleaved` / `hash` / `block` / `auto`).
    pub policy: &'static str,
    /// Digest of the layout that ran (PM302 anchoring).
    pub layout_digest: u64,
    /// Measured transfer time executing the planned layout.
    pub transfer_time: u64,
    /// The uniform-placement analytic expectation (the model column).
    pub t_ave_model: f64,
    /// Arrays the plan covers.
    pub arrays: usize,
}

/// A completed job: its spec, outcome, and per-stage metrics.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The spec that ran.
    pub spec: JobSpec,
    /// Success payload or structured failure.
    pub outcome: Result<JobOutput, JobError>,
    /// Per-stage wall-time/allocation metrics for the stages that ran.
    pub metrics: JobMetrics,
}

impl JobResult {
    /// A result for a job that was cancelled before running.
    pub fn skipped(spec: JobSpec) -> JobResult {
        JobResult {
            spec,
            outcome: Err(JobError::Skipped),
            metrics: JobMetrics::default(),
        }
    }

    /// Stable status tag: `"ok"` or the error kind.
    pub fn status(&self) -> &'static str {
        match &self.outcome {
            Ok(_) => "ok",
            Err(e) => e.kind(),
        }
    }
}

/// FNV-1a over the bit-exact encoding of the printed values.
pub fn hash_output(values: &[liw_ir::Value]) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        let (tag, bits): (u8, u64) = match v {
            liw_ir::Value::Int(i) => (1, *i as u64),
            liw_ir::Value::Real(r) => (2, r.to_bits()),
            liw_ir::Value::Bool(b) => (3, *b as u64),
        };
        h.bytes(&[tag]);
        h.u64(bits);
    }
    h.finish()
}

/// Run one job with panic isolation: a panic anywhere in the pipeline
/// becomes a [`JobError::Panic`] result instead of tearing down the caller.
pub fn run_job(spec: &JobSpec) -> JobResult {
    let mut metrics = JobMetrics::default();
    let outcome = match catch_unwind(AssertUnwindSafe(|| run_stages(spec, &mut metrics))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(JobError::Panic(msg))
        }
    };
    JobResult {
        spec: spec.clone(),
        outcome,
        metrics,
    }
}

/// Drive every stage of one job through a [`PipelineContext`], in order.
pub fn run_stages(spec: &JobSpec, metrics: &mut JobMetrics) -> Result<JobOutput, JobError> {
    let mut cx = PipelineContext::begin(spec, metrics);
    cx.frontend()?;
    cx.optimize();
    cx.schedule();
    cx.assign()?;
    cx.verify()?;
    cx.reference()?;
    cx.simulate()?;
    cx.exact_gap()?;
    Ok(cx.finish())
}

/// Staged pipeline state: holds the spec, the per-stage metrics sink, the
/// enclosing `job` span, and every intermediate artifact as the stages
/// produce it. Each stage runs the [`Session`] method that implements it
/// through one helper that applies fault injection, wall-clock/alloc
/// metering, and obs span wrapping.
pub struct PipelineContext<'a> {
    spec: &'a JobSpec,
    metrics: &'a mut JobMetrics,
    // Held for the whole job so the stage spans nest under it; closes when
    // the context drops (normal completion and early error return alike).
    _job_span: parmem_obs::SpanGuard,
    tac: Option<liw_ir::TacProgram>,
    sched: Option<liw_sched::SchedProgram>,
    // The webs the scheduler renamed with, until the verify stage's
    // renaming check has read them.
    webs: Option<liw_ir::Webs>,
    assignment: Option<Assignment>,
    assign_report: Option<AssignmentReport>,
    trace: Option<AccessTrace>,
    // The verify stage's report, PM008's comparison open until the
    // simulate stage has executed the program.
    pending_verify: Option<PendingReport>,
    verify: Option<VerifyReport>,
    reference: Option<liw_ir::RunResult>,
    table2: Option<Table2Row>,
    words: u64,
    cycles: u64,
    gap: Option<ExactGap>,
    planned: Option<PlannedSummary>,
}

impl<'a> PipelineContext<'a> {
    /// Open the `job` span and prepare to run stages for `spec`.
    pub fn begin(spec: &'a JobSpec, metrics: &'a mut JobMetrics) -> PipelineContext<'a> {
        let mut job_span = parmem_obs::span("job");
        job_span.attr("program", spec.program.as_str());
        job_span.attr("k", spec.session.k);
        job_span.attr("stor", spec.session.strategy.name());
        PipelineContext {
            spec,
            metrics,
            _job_span: job_span,
            tac: None,
            sched: None,
            webs: None,
            assignment: None,
            assign_report: None,
            trace: None,
            pending_verify: None,
            verify: None,
            reference: None,
            table2: None,
            words: 0,
            cycles: 0,
            gap: None,
            planned: None,
        }
    }

    /// Run `body` as stage `kind`: the injected panic first, then `body`
    /// under the stage's timer and `stage.*` span. The stage's metrics are
    /// recorded when `body` succeeds; a failed stage records none.
    fn stage<T>(
        &mut self,
        kind: StageKind,
        body: impl FnOnce(&mut Self) -> Result<T, JobError>,
    ) -> Result<T, JobError> {
        if self.spec.fault == Some(FaultInjection::PanicInStage(kind)) {
            panic!(
                "injected panic in stage `{kind}` of job `{}` (k={})",
                self.spec.program, self.spec.session.k
            );
        }
        let t = StageTimer::start();
        let out = {
            let _sp = parmem_obs::span(kind.span_name());
            body(self)?
        };
        self.metrics.push(kind, t.stop());
        Ok(out)
    }

    fn tac(&self) -> &liw_ir::TacProgram {
        self.tac.as_ref().expect("frontend ran")
    }

    fn sched(&self) -> &liw_sched::SchedProgram {
        self.sched.as_ref().expect("schedule ran")
    }

    /// Stage 1: front end (parse + lower to TAC), or a clone of the spec's
    /// cached TAC when one was supplied.
    pub fn frontend(&mut self) -> Result<(), JobError> {
        let tac = self.stage(StageKind::Frontend, |cx| match &cx.spec.frontend_tac {
            Some(cached) => Ok((**cached).clone()),
            None => cx
                .spec
                .session
                .frontend(&cx.spec.source)
                .map_err(|e| JobError::Compile(e.to_string())),
        })?;
        self.tac = Some(tac);
        Ok(())
    }

    /// Stage 2: optimizer.
    pub fn optimize(&mut self) {
        let tac = self.stage(StageKind::Optimize, |cx| {
            Ok(cx.spec.session.optimize(cx.tac()))
        });
        self.tac = Some(tac.expect("the optimizer does not fail"));
    }

    /// Stage 3: scheduler (renaming + list scheduling into long words).
    pub fn schedule(&mut self) {
        let scheduled = self.stage(StageKind::Schedule, |cx| {
            Ok(cx.spec.session.schedule(cx.tac()))
        });
        let (sched, webs) = scheduled.expect("the scheduler does not fail");
        self.sched = Some(sched);
        self.webs = Some(webs);
    }

    /// Stage 4: module assignment under the spec's strategy. Fails when
    /// residual conflicts remain; applies `CorruptAssignment` afterwards.
    pub fn assign(&mut self) -> Result<(), JobError> {
        let (mut assignment, assign_report) = self.stage(StageKind::Assign, |cx| {
            Ok(cx.spec.session.assign(cx.sched()))
        })?;
        if assign_report.residual_conflicts > 0 {
            return Err(JobError::Assign {
                residual_conflicts: assign_report.residual_conflicts,
            });
        }
        let trace = self.sched().access_trace();
        if self.spec.fault == Some(FaultInjection::CorruptAssignment) {
            if let Some(inst) = trace.instructions.iter().find(|i| i.len() >= 2) {
                for &v in inst {
                    assignment.set_copies(v, ModuleSet::singleton(ModuleId(0)));
                }
            }
        }
        self.assignment = Some(assignment);
        self.assign_report = Some(assign_report);
        self.trace = Some(trace);
        Ok(())
    }

    /// Stage 5: independent verification (`parmem-verify::verify_pipeline`,
    /// the checks of `verify_all` on the scheduler's webs and on the
    /// block-major `access_trace()` the assign stage published, which
    /// PM009 compares with its own rebuild; STOR1, STOR3 and EXACT assigned
    /// on the region-major trace instead). PM008 compares its static
    /// prediction with the simulate stage's execution; when another check
    /// already fails, the job ends here and PM008 runs the program itself,
    /// so the error carries the full report.
    pub fn verify(&mut self) -> Result<(), JobError> {
        let pending = self.stage(StageKind::Verify, |cx| {
            let webs = cx.webs.take().expect("schedule ran");
            let (sched, assignment) = (cx.sched(), cx.assignment.as_ref().expect("assign ran"));
            let pending = parmem_verify::verify_pipeline(
                cx.tac(),
                sched,
                webs,
                cx.trace.as_ref().expect("assign ran"),
                assignment,
                cx.assign_report.as_ref(),
            );
            Ok(if pending.is_clean() {
                Ok(pending)
            } else {
                Err(pending.finish_with_own_run(sched, assignment))
            })
        })?;
        self.pending_verify = Some(pending.map_err(|report| JobError::Verify { report })?);
        Ok(())
    }

    /// Stage 6: reference interpreter over the TAC.
    pub fn reference(&mut self) -> Result<(), JobError> {
        let reference = self.stage(StageKind::Reference, |cx| {
            liw_ir::run(cx.tac()).map_err(|e| JobError::Sim(e.to_string()))
        })?;
        self.reference = Some(reference);
        Ok(())
    }

    /// Stage 7: RLIW simulation — one execution costed under the four
    /// array policies (plus the compile-time planned layout, planned and
    /// verified first, when the spec carries an array policy) — then
    /// PM008's comparison on that execution, and the divergence check
    /// against the reference output (with the `CorruptOutput` fault applied
    /// in between).
    pub fn simulate(&mut self) -> Result<(), JobError> {
        let (run, planned, verify) = self.stage(StageKind::Simulate, |cx| {
            let session = &cx.spec.session;
            let assignment = cx.assignment.as_ref().expect("assign ran");
            // Fifth policy: the compile-time plan, verified before it runs.
            let layout = match session.array_policy {
                None => None,
                Some(_) => {
                    let layout = Arc::new(session.plan_layout(cx.tac(), assignment));
                    let check = parmem_verify::verify_layout(&layout, layout.digest());
                    if !check.is_clean() {
                        return Err(JobError::Verify { report: check });
                    }
                    Some(layout)
                }
            };
            let run = pipeline::table2_row(
                &cx.spec.program,
                cx.sched(),
                assignment,
                session.seed,
                layout.clone(),
            )
            .map_err(|e| JobError::Sim(e.to_string()))?;
            let planned = layout.map(|layout| PlannedSummary {
                policy: layout.policy.name(),
                layout_digest: layout.digest(),
                transfer_time: run.t_planned.expect("planned layout was costed"),
                t_ave_model: run.row.t_ave_analytic,
                arrays: layout.arrays.len(),
            });
            // PM008 reads this execution instead of running the program again.
            let pending = cx.pending_verify.take().expect("verify ran");
            let verify = pending.finish(Some(&run.ideal));
            Ok((run, planned, verify))
        })?;
        if !verify.is_clean() {
            return Err(JobError::Verify { report: verify });
        }
        let reference = self.reference.as_ref().expect("reference ran");
        let inter = run.interleaved;
        let mut simulated = inter.output;
        if self.spec.fault == Some(FaultInjection::CorruptOutput) {
            match simulated.first_mut() {
                Some(v) => *v = liw_ir::Value::Int(i64::MIN),
                None => simulated.push(liw_ir::Value::Int(i64::MIN)),
            }
        }
        let first_mismatch = reference
            .output
            .iter()
            .zip(&simulated)
            .position(|(a, b)| !a.same(*b));
        if first_mismatch.is_some() || simulated.len() != reference.output.len() {
            return Err(JobError::Divergence {
                expected: reference.output.len(),
                actual: simulated.len(),
                first_mismatch,
            });
        }

        self.table2 = Some(run.row);
        self.verify = Some(verify);
        self.words = inter.words;
        self.cycles = inter.cycles;
        self.planned = planned;
        Ok(())
    }

    /// Optional stage 8: exact-solver gap measurement, when the spec asked
    /// for it.
    pub fn exact_gap(&mut self) -> Result<(), JobError> {
        let Some(cfg) = self.spec.session.exact_gap else {
            return Ok(());
        };
        let gap = self.stage(StageKind::ExactGap, |cx| {
            Ok(ExactGap::measure(
                cx.trace.as_ref().expect("assign ran"),
                &cfg,
            ))
        })?;
        self.gap = Some(gap);
        Ok(())
    }

    /// Assemble the [`JobOutput`] after every stage has run.
    pub fn finish(self) -> JobOutput {
        let trace = self.trace.expect("assign ran");
        let reference = self.reference.expect("reference ran");
        JobOutput {
            table2: self.table2.expect("simulate ran"),
            assign_report: self.assign_report.expect("assign ran"),
            values: trace.distinct_values().len(),
            static_words: trace.instructions.len() as u64,
            words: self.words,
            cycles: self.cycles,
            reference_steps: reference.steps,
            speedup: reference.steps as f64 / self.cycles as f64,
            output_len: reference.output.len(),
            output_hash: hash_output(&reference.output),
            verify: self.verify.expect("verify ran"),
            gap: self.gap,
            planned: self.planned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "program j; var i, s: int;
        begin
          s := 0;
          for i := 1 to 10 do s := s + i;
          print s;
        end.";

    #[test]
    fn clean_job_produces_output_and_metrics() {
        let r = run_job(&Session::new(4).job("J", SRC));
        assert_eq!(r.status(), "ok");
        let out = r.outcome.expect("job succeeds");
        assert_eq!(out.assign_report.residual_conflicts, 0);
        assert!(out.verify.is_clean());
        assert_eq!(out.output_len, 1);
        assert!(out.speedup > 1.0);
        // All seven stages ran and took measurable time.
        assert_eq!(r.metrics.stages.len(), 7);
        assert!(r.metrics.total().wall_ns > 0);
    }

    #[test]
    fn pm008_alone_fails_the_simulate_stage_with_the_full_report() {
        // The simulate stage executes a single-module assignment in place of
        // the verified one: only PM008's comparison can notice, and it does
        // so once the program has run, after the reference stage, under a
        // span of the simulate stage that counts its finding.
        let spec = Session::new(4).job("PM008-ALONE", SRC);
        let mut metrics = JobMetrics::default();
        parmem_obs::set_enabled(true);
        let mut cx = PipelineContext::begin(&spec, &mut metrics);
        cx.frontend().unwrap();
        cx.optimize();
        cx.schedule();
        cx.assign().unwrap();
        cx.verify().expect("the verified assignment is clean");
        cx.reference().unwrap();
        cx.assignment = Some(parmem_core::baseline::single_module(
            cx.trace.as_ref().unwrap(),
        ));
        match cx.simulate() {
            Err(JobError::Verify { report }) => {
                assert_eq!(report.checks_run.len(), 5);
                assert_eq!(report.diagnostics.len(), 1, "{report}");
                assert_eq!(report.diagnostics[0].code, parmem_verify::Code::PM008);
            }
            other => panic!("expected a PM008 verify error, got {other:?}"),
        }
        drop(cx);
        parmem_obs::set_enabled(false);

        // Other tests may record spans meanwhile: keep this job's.
        let spans = parmem_obs::take().spans;
        let by_id: std::collections::HashMap<u64, &parmem_obs::SpanRecord> =
            spans.iter().map(|s| (s.id, s)).collect();
        let job = spans
            .iter()
            .find(|s| s.name == "job" && s.attrs.contains(&("program", "PM008-ALONE".into())))
            .expect("the job span was recorded");
        let parent_name = |s: &parmem_obs::SpanRecord| s.parent.map(|p| by_id[&p].name.as_str());
        let compare: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "verify.differential.compare")
            .filter(|s| {
                let stage = s.parent.and_then(|p| by_id.get(&p));
                stage.is_some_and(|stage| stage.parent == Some(job.id))
            })
            .collect();
        assert_eq!(compare.len(), 1);
        assert_eq!(parent_name(compare[0]), Some("stage.simulate"));
        assert_eq!(compare[0].attrs, vec![("diags", 1usize.into())]);
    }

    #[test]
    fn exact_gap_stage_runs_and_validates() {
        let spec = Session::new(4)
            .with_exact_gap(parmem_exact::ExactConfig::default())
            .job("J", SRC);
        let r = run_job(&spec);
        assert_eq!(r.status(), "ok");
        let out = r.outcome.expect("job succeeds");
        let g = out.gap.expect("gap stage ran");
        assert!(g.report.is_clean(), "certificate must re-validate clean");
        assert!(g.gap() >= 0, "heuristic can never beat the lower bound");
        assert!(g.certificate.lower <= g.certificate.upper);
        // The extra stage is recorded on top of the usual seven.
        assert_eq!(r.metrics.stages.len(), 8);
    }

    const ARRAY_SRC: &str = "program j; var a: array[24] of int; i, s: int;
        begin
          for i := 0 to 23 do a[i] := i * 3;
          s := 0;
          for i := 0 to 23 do s := s + a[i];
          print s;
        end.";

    #[test]
    fn planned_policy_adds_summary_without_touching_table2() {
        let base = run_job(&Session::new(4).job("J", ARRAY_SRC));
        let planned = run_job(
            &Session::new(4)
                .with_array_policy(parmem_core::layout::ArrayPolicy::Interleaved)
                .job("J", ARRAY_SRC),
        );
        let b = base.outcome.expect("base ok");
        let p = planned.outcome.expect("planned ok");
        assert!(b.planned.is_none());
        let s = p.planned.expect("planned summary present");
        assert_eq!(s.policy, "interleaved");
        assert_eq!(s.arrays, 1);
        // The planned deterministic interleave equals the legacy statistical
        // interleaved measurement — same per-element rule.
        assert_eq!(s.transfer_time, p.table2.t_interleaved);
        // And Table 2 itself is byte-identical to the scalar-only pipeline.
        assert_eq!(b.table2.t_min, p.table2.t_min);
        assert_eq!(b.table2.t_ave_measured, p.table2.t_ave_measured);
        assert_eq!(b.table2.t_max, p.table2.t_max);
        assert_eq!(b.output_hash, p.output_hash);
    }

    #[test]
    fn cached_frontend_tac_reproduces_uncached_output() {
        let spec = Session::new(4).job("J", ARRAY_SRC);
        let tac = spec.session.frontend(&spec.source).unwrap();
        let cached = run_job(&spec.clone().with_frontend_tac(Arc::new(tac)));
        let direct = run_job(&spec);
        let c = cached.outcome.expect("cached ok");
        let d = direct.outcome.expect("direct ok");
        assert_eq!(c.output_hash, d.output_hash);
        assert_eq!(c.cycles, d.cycles);
        assert_eq!(c.table2.t_ave_measured, d.table2.t_ave_measured);
    }

    #[test]
    fn compile_error_is_structured() {
        let r = run_job(&Session::new(4).job("BAD", "program oops begin end"));
        match r.outcome {
            Err(JobError::Compile(_)) => assert_eq!(r.status(), "compile-error"),
            other => panic!("expected compile error, got {other:?}"),
        }
        // Only the front-end stage was reached.
        assert!(r.metrics.stages.len() <= 1);
    }

    #[test]
    fn output_hash_is_order_and_value_sensitive() {
        use liw_ir::Value;
        let a = [Value::Int(1), Value::Int(2)];
        let b = [Value::Int(2), Value::Int(1)];
        let c = [Value::Real(1.0), Value::Int(2)];
        assert_ne!(hash_output(&a), hash_output(&b));
        assert_ne!(hash_output(&a), hash_output(&c));
        assert_eq!(
            hash_output(&a),
            hash_output(&[Value::Int(1), Value::Int(2)])
        );
    }
}
