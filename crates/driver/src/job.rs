//! One pipeline job: the full compile → assign → verify → simulate pipeline
//! over a single `(program, k, strategy)` triple, run stage by stage by a
//! [`PipelineContext`] with per-stage metrics, structured per-stage failure,
//! and panic isolation.
//!
//! This module is the *only* place the stages are chained: the CLI, the
//! batch engine, the bench bins, and the integration tests all come through
//! [`run_job`] / [`PipelineContext`] (usually via [`Session`]) rather than
//! wiring `frontend → optimize → schedule → …` themselves.
//!
//! [`Session`]: crate::session::Session

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use liw_sched::MachineSpec;
use parmem_core::assignment::{AssignParams, Assignment, AssignmentReport};
use parmem_core::layout::ArrayPolicy;
use parmem_core::strategies::Strategy;
use parmem_core::types::{AccessTrace, ModuleId, ModuleSet};
use parmem_obs::digest::Fnv1a;
use parmem_obs::{JobMetrics, StageKind, StageTimer};
use parmem_verify::VerifyReport;
use rliw_sim::pipeline::{self, CompileOptions, Table2Row};

/// One unit of pipeline work: compile `source` for a `k`-module machine,
/// assign with `strategy`, verify, and simulate.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name (e.g. the paper benchmark name).
    pub program: String,
    /// MiniLang source. `Arc` so a spec clones cheaply across k-sweeps.
    pub source: Arc<str>,
    /// Memory modules / machine width.
    pub k: usize,
    /// Storage-allocation strategy.
    pub strategy: Strategy,
    /// Front-end options.
    pub opts: CompileOptions,
    /// Assignment tunables.
    pub params: AssignParams,
    /// Seed for the uniform-random array placement of the Table 2 run.
    pub seed: u64,
    /// Test-only fault injection; `None` in production use.
    pub fault: Option<FaultInjection>,
    /// When set, run the exact solver on the access trace as an extra stage
    /// and report the heuristic-vs-exact gap.
    pub exact_gap: Option<parmem_exact::ExactConfig>,
    /// When set, plan a compile-time [`parmem_core::layout::MemoryLayout`]
    /// under this policy, verify it (PM301–PM303), and simulate it as a
    /// fifth array policy.
    pub array_policy: Option<ArrayPolicy>,
    /// Pre-computed front-end TAC for this (source, unroll) pair. When set
    /// the frontend stage clones it instead of re-parsing — parmem-serve's
    /// intermediate cache threads hits through here. Correctness contract:
    /// the TAC must equal `pipeline::frontend(&source, &opts)` output (the
    /// front end depends on the source and `opts.unroll` only, never on
    /// `k`/strategy/optimizer, so one TAC serves every machine size).
    pub frontend_tac: Option<Arc<liw_ir::TacProgram>>,
}

impl JobSpec {
    /// A spec with default strategy (STOR1), options, params, and seed.
    pub fn new(program: impl Into<String>, source: impl Into<Arc<str>>, k: usize) -> JobSpec {
        JobSpec {
            program: program.into(),
            source: source.into(),
            k,
            strategy: Strategy::Stor1,
            opts: CompileOptions::default(),
            params: AssignParams::default(),
            seed: 0xC0FFEE,
            fault: None,
            exact_gap: None,
            array_policy: None,
            frontend_tac: None,
        }
    }

    /// Replace the strategy.
    pub fn with_strategy(mut self, s: Strategy) -> JobSpec {
        self.strategy = s;
        self
    }

    /// Replace the front-end options.
    pub fn with_opts(mut self, opts: CompileOptions) -> JobSpec {
        self.opts = opts;
        self
    }

    /// Replace the assignment parameters.
    pub fn with_params(mut self, params: AssignParams) -> JobSpec {
        self.params = params;
        self
    }

    /// Replace the random-placement seed.
    pub fn with_seed(mut self, seed: u64) -> JobSpec {
        self.seed = seed;
        self
    }

    /// Inject a fault (tests of the error paths only).
    pub fn with_fault(mut self, fault: FaultInjection) -> JobSpec {
        self.fault = Some(fault);
        self
    }

    /// Enable the exact-gap stage with the given solver config.
    pub fn with_exact_gap(mut self, cfg: parmem_exact::ExactConfig) -> JobSpec {
        self.exact_gap = Some(cfg);
        self
    }

    /// Plan, verify, and simulate a compile-time array placement under
    /// `policy`.
    pub fn with_array_policy(mut self, policy: ArrayPolicy) -> JobSpec {
        self.array_policy = Some(policy);
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
    pub gap: Option<GapSummary>,
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

/// What the optional exact-gap stage measured: the certified bounds, the
/// heuristic's residual against them, and whether the certificate survived
/// independent re-validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GapSummary {
    /// Residual of the heuristic single-copy assignment.
    pub heuristic_residual: usize,
    /// Certified lower bound on the optimal residual.
    pub lower: usize,
    /// Best residual the exact solver achieved.
    pub upper: usize,
    /// Certificate status (`optimal`/`infeasible-at-k`/`bounded`).
    pub status: &'static str,
    /// Extra copies the exact witness needs after duplication repair.
    pub copies_upper: usize,
    /// Branch-and-bound nodes expanded.
    pub nodes_expanded: u64,
    /// Whether `parmem-verify` re-validated the certificate clean
    /// (PM201–PM206).
    pub cert_clean: bool,
}

impl GapSummary {
    /// Gap between the heuristic and the certified lower bound.
    pub fn gap(&self) -> isize {
        self.heuristic_residual as isize - self.lower as isize
    }
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

fn maybe_panic(spec: &JobSpec, stage: StageKind) {
    if spec.fault == Some(FaultInjection::PanicInStage(stage)) {
        panic!(
            "injected panic in stage `{stage}` of job `{}` (k={})",
            spec.program, spec.k
        );
    }
}

/// Run one job with panic isolation: a panic anywhere in the pipeline
/// becomes a [`JobError::Panic`] result instead of tearing down the caller.
pub fn run_job(spec: &JobSpec) -> JobResult {
    parmem_exact::install();
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
/// produce it. Each stage method applies fault injection, wall-clock/alloc
/// metering, and obs span wrapping in exactly one place.
pub struct PipelineContext<'a> {
    spec: &'a JobSpec,
    metrics: &'a mut JobMetrics,
    mach: MachineSpec,
    // Held for the whole job so the stage spans nest under it; closes when
    // the context drops (normal completion and early error return alike).
    _job_span: parmem_obs::SpanGuard,
    tac: Option<liw_ir::TacProgram>,
    sched: Option<liw_sched::SchedProgram>,
    assignment: Option<Assignment>,
    assign_report: Option<AssignmentReport>,
    trace: Option<AccessTrace>,
    verify: Option<VerifyReport>,
    reference: Option<liw_ir::RunResult>,
    table2: Option<Table2Row>,
    words: u64,
    cycles: u64,
    gap: Option<GapSummary>,
    planned: Option<PlannedSummary>,
}

impl<'a> PipelineContext<'a> {
    /// Open the `job` span and prepare to run stages for `spec`.
    pub fn begin(spec: &'a JobSpec, metrics: &'a mut JobMetrics) -> PipelineContext<'a> {
        let mut job_span = parmem_obs::span("job");
        job_span.attr("program", spec.program.as_str());
        job_span.attr("k", spec.k);
        job_span.attr("stor", spec.strategy.name());
        PipelineContext {
            spec,
            metrics,
            mach: MachineSpec::with_modules(spec.k),
            _job_span: job_span,
            tac: None,
            sched: None,
            assignment: None,
            assign_report: None,
            trace: None,
            verify: None,
            reference: None,
            table2: None,
            words: 0,
            cycles: 0,
            gap: None,
            planned: None,
        }
    }

    /// Stage 1: front end (parse + lower to TAC), or a clone of the spec's
    /// cached TAC when one was supplied.
    pub fn frontend(&mut self) -> Result<(), JobError> {
        maybe_panic(self.spec, StageKind::Frontend);
        let t = StageTimer::start();
        let tac = {
            let _sp = parmem_obs::span(StageKind::Frontend.span_name());
            match &self.spec.frontend_tac {
                Some(cached) => (**cached).clone(),
                None => pipeline::frontend(&self.spec.source, &self.spec.opts)
                    .map_err(|e| JobError::Compile(e.to_string()))?,
            }
        };
        self.metrics.push(StageKind::Frontend, t.stop());
        self.tac = Some(tac);
        Ok(())
    }

    /// Stage 2: optimizer.
    pub fn optimize(&mut self) {
        maybe_panic(self.spec, StageKind::Optimize);
        let t = StageTimer::start();
        let tac = {
            let _sp = parmem_obs::span(StageKind::Optimize.span_name());
            pipeline::optimize_stage(
                self.tac.as_ref().expect("frontend ran"),
                self.mach,
                &self.spec.opts,
            )
        };
        self.metrics.push(StageKind::Optimize, t.stop());
        self.tac = Some(tac);
    }

    /// Stage 3: scheduler (renaming + list scheduling into long words).
    pub fn schedule(&mut self) {
        maybe_panic(self.spec, StageKind::Schedule);
        let t = StageTimer::start();
        let sched = {
            let _sp = parmem_obs::span(StageKind::Schedule.span_name());
            pipeline::schedule_stage(
                self.tac.as_ref().expect("frontend ran"),
                self.mach,
                &self.spec.opts,
            )
        };
        self.metrics.push(StageKind::Schedule, t.stop());
        self.sched = Some(sched);
    }

    /// Stage 4: module assignment under the spec's strategy. Fails when
    /// residual conflicts remain; applies `CorruptAssignment` afterwards.
    pub fn assign(&mut self) -> Result<(), JobError> {
        maybe_panic(self.spec, StageKind::Assign);
        let sched = self.sched.as_ref().expect("schedule ran");
        let t = StageTimer::start();
        let (mut assignment, assign_report) = {
            let _sp = parmem_obs::span(StageKind::Assign.span_name());
            pipeline::assign(sched, self.spec.strategy, &self.spec.params)
        };
        self.metrics.push(StageKind::Assign, t.stop());
        if assign_report.residual_conflicts > 0 {
            return Err(JobError::Assign {
                residual_conflicts: assign_report.residual_conflicts,
            });
        }
        let trace = sched.access_trace();
        if self.spec.fault == Some(FaultInjection::CorruptAssignment) {
            if let Some(inst) = trace.instructions.iter().find(|i| i.len() >= 2) {
                for v in inst.iter() {
                    assignment.set_copies(v, ModuleSet::singleton(ModuleId(0)));
                }
            }
        }
        self.assignment = Some(assignment);
        self.assign_report = Some(assign_report);
        self.trace = Some(trace);
        Ok(())
    }

    /// Stage 5: independent verification (`parmem-verify::verify_all`).
    pub fn verify(&mut self) -> Result<(), JobError> {
        maybe_panic(self.spec, StageKind::Verify);
        let t = StageTimer::start();
        let verify = {
            let _sp = parmem_obs::span(StageKind::Verify.span_name());
            parmem_verify::verify_all(
                self.tac.as_ref().expect("frontend ran"),
                self.sched.as_ref().expect("schedule ran"),
                self.assignment.as_ref().expect("assign ran"),
                self.assign_report.as_ref(),
            )
        };
        self.metrics.push(StageKind::Verify, t.stop());
        if !verify.is_clean() {
            return Err(JobError::Verify { report: verify });
        }
        self.verify = Some(verify);
        Ok(())
    }

    /// Stage 6: reference interpreter over the TAC.
    pub fn reference(&mut self) -> Result<(), JobError> {
        maybe_panic(self.spec, StageKind::Reference);
        let t = StageTimer::start();
        let reference = {
            let _sp = parmem_obs::span(StageKind::Reference.span_name());
            liw_ir::run(self.tac.as_ref().expect("frontend ran"))
                .map_err(|e| JobError::Sim(e.to_string()))?
        };
        self.metrics.push(StageKind::Reference, t.stop());
        self.reference = Some(reference);
        Ok(())
    }

    /// Stage 7: RLIW simulation — one execution costed under the four
    /// array policies (plus the compile-time planned layout, planned and
    /// verified first, when the spec carries an array policy) — and the
    /// divergence check against the reference output (with the
    /// `CorruptOutput` fault applied in between).
    pub fn simulate(&mut self) -> Result<(), JobError> {
        maybe_panic(self.spec, StageKind::Simulate);
        let sched = self.sched.as_ref().expect("schedule ran");
        let assignment = self.assignment.as_ref().expect("assign ran");
        let reference = self.reference.as_ref().expect("reference ran");
        let t = StageTimer::start();
        let _sim_span = parmem_obs::span(StageKind::Simulate.span_name());

        // Fifth policy: the compile-time plan, verified before it runs.
        let layout = match self.spec.array_policy {
            None => None,
            Some(policy) => {
                let profiles =
                    parmem_lint::array_stride_profiles(self.tac.as_ref().expect("frontend ran"));
                let layout = Arc::new(parmem_core::layout::plan(
                    self.spec.k,
                    policy,
                    assignment.clone(),
                    &profiles,
                ));
                let check = parmem_verify::verify_layout(&layout, layout.digest());
                if !check.is_clean() {
                    return Err(JobError::Verify { report: check });
                }
                Some(layout)
            }
        };
        let run = pipeline::table2_row(
            &self.spec.program,
            sched,
            assignment,
            self.spec.seed,
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
        drop(_sim_span);
        self.metrics.push(StageKind::Simulate, t.stop());

        let inter = run.interleaved;
        let mut simulated = inter.output;
        if self.spec.fault == Some(FaultInjection::CorruptOutput) {
            match simulated.first_mut() {
                Some(v) => *v = liw_ir::Value::Int(i64::MIN),
                None => simulated.push(liw_ir::Value::Int(i64::MIN)),
            }
        }
        if simulated != reference.output {
            let first_mismatch = reference
                .output
                .iter()
                .zip(&simulated)
                .position(|(a, b)| a != b);
            return Err(JobError::Divergence {
                expected: reference.output.len(),
                actual: simulated.len(),
                first_mismatch,
            });
        }

        self.table2 = Some(run.row);
        self.words = inter.words;
        self.cycles = inter.cycles;
        self.planned = planned;
        Ok(())
    }

    /// Optional stage 8: exact-solver gap measurement, when the spec asked
    /// for it.
    pub fn exact_gap(&mut self) -> Result<(), JobError> {
        let Some(cfg) = &self.spec.exact_gap else {
            return Ok(());
        };
        maybe_panic(self.spec, StageKind::ExactGap);
        let trace = self.trace.as_ref().expect("assign ran");
        let t = StageTimer::start();
        let g = {
            let _sp = parmem_obs::span(StageKind::ExactGap.span_name());
            let cert = parmem_exact::solve_certificate(trace, cfg);
            let heuristic = parmem_exact::heuristic_single_copy_residual(trace);
            let check = parmem_verify::verify_certificate(trace, &cert, Some(heuristic));
            GapSummary {
                heuristic_residual: heuristic,
                lower: cert.lower,
                upper: cert.upper,
                status: cert.status.as_str(),
                copies_upper: cert.copies_upper,
                nodes_expanded: cert.nodes_expanded,
                cert_clean: check.is_clean(),
            }
        };
        self.metrics.push(StageKind::ExactGap, t.stop());
        self.gap = Some(g);
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
        let r = run_job(&JobSpec::new("J", SRC, 4));
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
    fn exact_gap_stage_runs_and_validates() {
        let spec = JobSpec::new("J", SRC, 4).with_exact_gap(parmem_exact::ExactConfig::default());
        let r = run_job(&spec);
        assert_eq!(r.status(), "ok");
        let out = r.outcome.expect("job succeeds");
        let g = out.gap.expect("gap stage ran");
        assert!(g.cert_clean, "certificate must re-validate clean");
        assert!(g.gap() >= 0, "heuristic can never beat the lower bound");
        assert!(g.lower <= g.upper);
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
        let base = run_job(&JobSpec::new("J", ARRAY_SRC, 4));
        let planned =
            run_job(&JobSpec::new("J", ARRAY_SRC, 4).with_array_policy(ArrayPolicy::Interleaved));
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
        let spec = JobSpec::new("J", ARRAY_SRC, 4);
        let tac = rliw_sim::pipeline::frontend(&spec.source, &spec.opts).unwrap();
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
        let r = run_job(&JobSpec::new("BAD", "program oops begin end", 4));
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
