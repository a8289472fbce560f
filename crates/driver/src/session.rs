//! The pipeline session: one place that owns compile options, strategy
//! selection, assignment parameters, and seeds, and mints/runs jobs from
//! them.
//!
//! A [`Session`] is cheap to build and copy around; it is the façade every
//! consumer uses instead of chaining `rliw_sim::pipeline` stages by hand:
//!
//! ```
//! use parmem_driver::Session;
//!
//! let session = Session::new(4);
//! let result = session.run("DEMO", "program d; var a, b: int;
//!     begin a := 2; b := a + 3; print a * b; end.");
//! assert_eq!(result.status(), "ok");
//! ```

use liw_ir::tac::TacProgram;
use liw_sched::MachineSpec;
use parmem_core::assignment::{AssignParams, Assignment, AssignmentReport};
use parmem_core::layout::{ArrayPolicy, MemoryLayout};
use parmem_core::strategies::Strategy;
use parmem_obs::digest::Fnv1a;
use parmem_verify::VerifyReport;
use rliw_sim::pipeline::{CompileOptions, CompiledProgram, PipelineError, VerifiedRun};
use rliw_sim::ArrayPlacement;

use crate::job::{run_job, JobResult, JobSpec};

/// Pipeline configuration shared by every job a caller mints: module count,
/// storage strategy, front-end options, assignment tunables, placement
/// seed, and the optional exact-gap stage.
#[derive(Clone, Debug)]
pub struct Session {
    /// Memory modules / machine width.
    pub k: usize,
    /// Storage-allocation strategy for the assign stage.
    pub strategy: Strategy,
    /// Front-end options (unroll / optimize / rename).
    pub opts: CompileOptions,
    /// Assignment tunables.
    pub params: AssignParams,
    /// Seed for the uniform-random array placement of Table 2 runs.
    pub seed: u64,
    /// When set, jobs run the exact solver as an extra stage.
    pub exact_gap: Option<parmem_exact::ExactConfig>,
    /// When set, jobs plan a compile-time [`MemoryLayout`] under this
    /// policy and additionally simulate it (`None` keeps the historical
    /// scalar-only pipeline byte-for-byte).
    pub array_policy: Option<ArrayPolicy>,
}

impl Session {
    /// A session for a `k`-module machine with default strategy (STOR1),
    /// options, params, and seed.
    pub fn new(k: usize) -> Session {
        Session {
            k,
            strategy: Strategy::Stor1,
            opts: CompileOptions::default(),
            params: AssignParams::default(),
            seed: 0xC0FFEE,
            exact_gap: None,
            array_policy: None,
        }
    }

    /// Replace the strategy.
    pub fn with_strategy(mut self, s: Strategy) -> Session {
        self.strategy = s;
        self
    }

    /// Replace the front-end options.
    pub fn with_opts(mut self, opts: CompileOptions) -> Session {
        self.opts = opts;
        self
    }

    /// Disable the scalar optimizer, matching the plain
    /// `rliw_sim::pipeline::compile` entry point (frontend → schedule with
    /// renaming, no value numbering / DCE pass).
    pub fn without_optimizer(mut self) -> Session {
        self.opts.optimize = false;
        self
    }

    /// Toggle per-definition renaming (webs) — `false` is the ablation of
    /// the paper's §3 renaming remark.
    pub fn with_renaming(mut self, rename: bool) -> Session {
        self.opts.rename = rename;
        self
    }

    /// Replace the assignment parameters.
    pub fn with_params(mut self, params: AssignParams) -> Session {
        self.params = params;
        self
    }

    /// Replace the random-placement seed.
    pub fn with_seed(mut self, seed: u64) -> Session {
        self.seed = seed;
        self
    }

    /// Enable the exact-gap stage for every job of this session.
    pub fn with_exact_gap(mut self, cfg: parmem_exact::ExactConfig) -> Session {
        self.exact_gap = Some(cfg);
        self
    }

    /// Plan and simulate a compile-time array placement under `policy` in
    /// every job of this session.
    pub fn with_array_policy(mut self, policy: ArrayPolicy) -> Session {
        self.array_policy = Some(policy);
        self
    }

    /// The machine this session compiles for.
    pub fn machine(&self) -> MachineSpec {
        MachineSpec::with_modules(self.k)
    }

    /// FNV-1a digest over every output-affecting knob of this session:
    /// `k`, strategy (including STOR3's group count), compile options,
    /// assignment parameters, placement seed, and the exact-gap budgets.
    ///
    /// `params.jobs` is deliberately **excluded** — worker count never
    /// changes any report byte (the PR 7 invariant), so a cache keyed on
    /// this digest may serve a `--jobs 8` response to a `--jobs 1`
    /// request. Two sessions with equal digests produce byte-identical
    /// reports for the same program; the serve daemon uses this as the
    /// options half of its content-addressed cache key.
    pub fn config_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.field(&(self.k as u64).to_le_bytes());
        // Debug carries the full variant payload (e.g. STOR3 groups).
        h.field(format!("{:?}", self.strategy).as_bytes());
        match self.opts.unroll {
            None => h.field(b"no-unroll"),
            Some(u) => {
                h.field(&(u.factor as u64).to_le_bytes());
                h.field(&(u.max_body_stmts as u64).to_le_bytes());
            }
        }
        h.field(&[u8::from(self.opts.optimize), u8::from(self.opts.rename)]);
        // Where the removed module-choice option was fed, the one value it
        // ever took, so serve cache keys and the pinned session digests do
        // not move.
        h.field(b"LowestIndex");
        h.field(format!("{:?}", self.params.duplication).as_bytes());
        h.field(&[u8::from(self.params.use_atoms)]);
        // params.jobs intentionally skipped: output-invariant.
        h.field(&self.seed.to_le_bytes());
        match self.exact_gap {
            None => h.field(b"no-exact-gap"),
            Some(cfg) => {
                h.field(&cfg.budget_nodes.to_le_bytes());
                h.field(&cfg.budget_ms.to_le_bytes());
                h.field(&[u8::from(cfg.portfolio)]);
                h.field(&cfg.seed.to_le_bytes());
            }
        }
        // Eaten only when set, so digests of historical (scalar-only)
        // sessions stay byte-stable across this knob's introduction.
        if let Some(policy) = self.array_policy {
            h.field(b"array-policy");
            h.field(policy.name().as_bytes());
        }
        h.finish()
    }

    /// Mint a [`JobSpec`] carrying this session's configuration.
    pub fn job(
        &self,
        program: impl Into<String>,
        source: impl Into<std::sync::Arc<str>>,
    ) -> JobSpec {
        let mut spec = JobSpec::new(program, source, self.k)
            .with_strategy(self.strategy)
            .with_opts(self.opts)
            .with_params(self.params)
            .with_seed(self.seed);
        if let Some(cfg) = self.exact_gap {
            spec = spec.with_exact_gap(cfg);
        }
        if let Some(policy) = self.array_policy {
            spec = spec.with_array_policy(policy);
        }
        spec
    }

    /// Run the full staged pipeline (compile → assign → verify → simulate
    /// [→ exact-gap]) on one program, with panic isolation.
    pub fn run(
        &self,
        program: impl Into<String>,
        source: impl Into<std::sync::Arc<str>>,
    ) -> JobResult {
        run_job(&self.job(program, source))
    }

    /// Compile only: frontend → optimize → schedule, without the span/metric
    /// instrumentation of the full job runner (callers that need per-stage
    /// observability use [`Session::run`]).
    pub fn compile(&self, source: &str) -> Result<CompiledProgram, PipelineError> {
        rliw_sim::pipeline::compile_with(source, self.machine(), self.opts)
    }

    /// Front end only: parse (and optionally unroll) to TAC. The result
    /// depends on the source and `opts.unroll` alone — not on `k`, the
    /// strategy, or the optimizer — so it is the natural unit for
    /// cross-`k` caching (parmem-serve keys its intermediate cache on
    /// exactly this stage's inputs).
    pub fn frontend(&self, source: &str) -> Result<TacProgram, PipelineError> {
        rliw_sim::pipeline::frontend(source, &self.opts)
    }

    /// Finish compilation from an already-front-ended TAC: optimize (which
    /// *does* depend on the machine — if-conversion needs ≥ 3 memory
    /// ports) and schedule. `compile(src)` ≡ `compile_tac(&frontend(src)?)`.
    pub fn compile_tac(&self, tac: &TacProgram) -> CompiledProgram {
        let spec = self.machine();
        let tac = rliw_sim::pipeline::optimize_stage(tac, spec, &self.opts);
        let sched = rliw_sim::pipeline::schedule_stage(&tac, spec, &self.opts);
        CompiledProgram { tac, sched }
    }

    /// Plan the unified compile-time [`MemoryLayout`] for a compiled
    /// program and its scalar assignment: per-array profiles come from the
    /// lint crate's induction-variable stride analysis over the (optimized)
    /// TAC, the policy from the session (defaulting to `Auto` when the
    /// session has none set).
    pub fn plan_layout(&self, prog: &CompiledProgram, assignment: &Assignment) -> MemoryLayout {
        let policy = self.array_policy.unwrap_or(ArrayPolicy::Auto);
        let profiles = parmem_lint::array_stride_profiles(&prog.tac);
        parmem_core::layout::plan(self.k, policy, assignment.clone(), &profiles)
    }

    /// Assign memory modules to a compiled program's trace under this
    /// session's strategy and parameters.
    pub fn assign(&self, prog: &CompiledProgram) -> (Assignment, AssignmentReport) {
        rliw_sim::pipeline::assign(&prog.sched, self.strategy, &self.params)
    }

    /// Independently verify a compiled program and its assignment
    /// (PM001–PM104 families).
    pub fn verify(
        &self,
        prog: &CompiledProgram,
        assignment: &Assignment,
        report: Option<&AssignmentReport>,
    ) -> VerifyReport {
        parmem_verify::verify_all(&prog.tac, &prog.sched, assignment, report)
    }

    /// Run the static lints over one program's TAC and, when `predict` is
    /// set, the compile-time conflict predictor cross-checked against the
    /// simulator's measured per-module transfer counters (paper Table 2's
    /// t_min / t_ave / t_max, computed without executing the program).
    pub fn lint(
        &self,
        program: impl Into<String>,
        source: &str,
        predict: bool,
    ) -> Result<parmem_lint::LintReport, PipelineError> {
        let prog = self.compile(source)?;
        self.lint_compiled(program, &prog, predict)
    }

    /// [`Session::lint`] starting from an already-compiled program —
    /// for callers (the serve daemon) that cache the frontend stage and
    /// finish compilation with [`Session::compile_tac`].
    pub fn lint_compiled(
        &self,
        program: impl Into<String>,
        prog: &CompiledProgram,
        predict: bool,
    ) -> Result<parmem_lint::LintReport, PipelineError> {
        let opts = parmem_lint::LintOptions { modules: self.k };
        let diags = parmem_lint::lint_program(&prog.tac, &opts);
        let predict = if predict {
            let (assignment, _) = self.assign(prog);
            let report = match self.array_policy {
                // With a policy set, also measure the planned layout so the
                // report carries per-policy predicted-vs-measured rows.
                Some(_) => {
                    let layout = std::sync::Arc::new(self.plan_layout(prog, &assignment));
                    parmem_lint::compare_with_layouts(
                        &prog.sched,
                        &assignment,
                        self.seed,
                        &[layout],
                    )?
                }
                None => parmem_lint::compare(&prog.sched, &assignment, self.seed)?,
            };
            Some(report)
        } else {
            None
        };
        Ok(parmem_lint::LintReport {
            program: program.into(),
            k: self.k,
            blocks: prog.tac.blocks.len(),
            instrs: prog.tac.instr_count(),
            diags,
            predict,
        })
    }

    /// Simulate under `policy` and cross-check against the reference
    /// interpreter (panics on divergence, like
    /// `rliw_sim::pipeline::verified_run`).
    pub fn verified_run(
        &self,
        prog: &CompiledProgram,
        assignment: &Assignment,
        policy: ArrayPlacement,
    ) -> Result<VerifiedRun, PipelineError> {
        rliw_sim::pipeline::verified_run(prog, assignment, policy)
    }

    /// Compile, assign, and run verified under `policy` in one call.
    pub fn quick_run(
        &self,
        source: &str,
        policy: ArrayPlacement,
    ) -> Result<(VerifiedRun, AssignmentReport), PipelineError> {
        let prog = self.compile(source)?;
        let (assignment, report) = self.assign(&prog);
        let run = self.verified_run(&prog, &assignment, policy)?;
        Ok((run, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "program s; var i, t: int;
        begin
          t := 0;
          for i := 1 to 6 do t := t + i * i;
          print t;
        end.";

    #[test]
    fn session_runs_clean_jobs() {
        let s = Session::new(4);
        let r = s.run("S", SRC);
        assert_eq!(r.status(), "ok");
        assert_eq!(r.spec.k, 4);
        assert_eq!(r.spec.strategy, Strategy::Stor1);
    }

    #[test]
    fn session_compile_assign_verify_roundtrip() {
        let s = Session::new(4).with_strategy(Strategy::STOR3);
        let prog = s.compile(SRC).unwrap();
        let (a, rep) = s.assign(&prog);
        assert_eq!(rep.residual_conflicts, 0);
        let v = s.verify(&prog, &a, Some(&rep));
        assert!(v.is_clean(), "{v}");
        let run = s
            .verified_run(&prog, &a, ArrayPlacement::Interleaved)
            .unwrap();
        assert!(run.speedup > 1.0);
    }

    #[test]
    fn session_lint_reports_and_predicts() {
        let s = Session::new(4);
        let r = s.lint("S", SRC, true).unwrap();
        assert_eq!(r.program, "S");
        assert_eq!(r.k, 4);
        let p = r.predict.expect("predict section");
        assert!(p.within_tolerance(), "rel err {}", p.t_ave_rel_err());
    }

    #[test]
    fn config_digest_tracks_every_knob_but_jobs() {
        let base = Session::new(4);
        let d0 = base.config_digest();
        // Stable across clones and repeated calls.
        assert_eq!(d0, base.clone().config_digest());

        // Every output-affecting knob moves the digest.
        assert_ne!(d0, Session::new(8).config_digest());
        assert_ne!(
            d0,
            base.clone().with_strategy(Strategy::Stor2).config_digest()
        );
        assert_ne!(
            d0,
            base.clone()
                .with_strategy(Strategy::Stor3 { groups: 3 })
                .config_digest()
        );
        assert_ne!(d0, base.clone().without_optimizer().config_digest());
        assert_ne!(d0, base.clone().with_renaming(false).config_digest());
        assert_ne!(d0, base.clone().with_seed(1).config_digest());
        assert_ne!(
            d0,
            base.clone()
                .with_exact_gap(parmem_exact::ExactConfig::default())
                .config_digest()
        );
        let mut unrolled = base.clone();
        unrolled.opts.unroll = Some(liw_ir::unroll::UnrollConfig {
            factor: 2,
            max_body_stmts: 40,
        });
        assert_ne!(d0, unrolled.config_digest());
        let mut bt = base.clone();
        bt.params.duplication = parmem_core::assignment::DuplicationStrategy::Backtrack;
        assert_ne!(d0, bt.config_digest());
        let mut atoms = base.clone();
        atoms.params.use_atoms = false;
        assert_ne!(d0, atoms.config_digest());

        // …but jobs is output-invariant, so it must NOT move the digest.
        let mut jobs = base.clone();
        jobs.params.jobs = 8;
        assert_eq!(d0, jobs.config_digest());

        // The array-policy knob moves the digest when set, distinguishes
        // policies, and (compatibility) leaves unset sessions untouched.
        let hash = base.clone().with_array_policy(ArrayPolicy::Hash);
        assert_ne!(d0, hash.config_digest());
        assert_ne!(
            hash.config_digest(),
            base.clone()
                .with_array_policy(ArrayPolicy::Block)
                .config_digest()
        );

        // STOR3's group payload is part of the digest, not just the name.
        assert_ne!(
            base.clone()
                .with_strategy(Strategy::Stor3 { groups: 2 })
                .config_digest(),
            base.clone()
                .with_strategy(Strategy::Stor3 { groups: 4 })
                .config_digest()
        );
    }

    const ARRAY_SRC: &str = "program s; var a: array[16] of int; i, t: int;
        begin
          for i := 0 to 15 do a[i] := i;
          t := 0;
          for i := 0 to 15 do t := t + a[i];
          print t;
        end.";

    #[test]
    fn staged_frontend_equals_whole_compile() {
        let s = Session::new(4);
        let tac = s.frontend(ARRAY_SRC).unwrap();
        let staged = s.compile_tac(&tac);
        let whole = s.compile(ARRAY_SRC).unwrap();
        assert_eq!(
            staged.sched.access_trace().instructions,
            whole.sched.access_trace().instructions
        );
        assert_eq!(
            staged.sched.workload_digest(),
            whole.sched.workload_digest()
        );
    }

    #[test]
    fn session_plans_and_verifies_layouts() {
        for policy in ArrayPolicy::CONCRETE {
            let s = Session::new(4).with_array_policy(policy);
            let prog = s.compile(ARRAY_SRC).unwrap();
            let (a, _) = s.assign(&prog);
            let layout = s.plan_layout(&prog, &a);
            assert_eq!(layout.policy, policy);
            assert_eq!(layout.arrays.len(), 1);
            let v = parmem_verify::verify_layout(&layout, layout.digest());
            assert!(v.is_clean(), "{policy:?}: {v}");
        }
        // No policy on the session: plan_layout falls back to Auto.
        let s = Session::new(4);
        let prog = s.compile(ARRAY_SRC).unwrap();
        let (a, _) = s.assign(&prog);
        assert_eq!(s.plan_layout(&prog, &a).policy, ArrayPolicy::Auto);
    }

    #[test]
    fn lint_with_policy_reports_policy_rows() {
        let s = Session::new(4).with_array_policy(ArrayPolicy::Hash);
        let r = s.lint("S", ARRAY_SRC, true).unwrap();
        let p = r.predict.expect("predict section");
        assert_eq!(p.policies.len(), 1);
        assert_eq!(p.policies[0].policy, "planned_hash");
        assert!(p.policies[0].within_tolerance());
        // Without a policy the section is absent — default output unchanged.
        let r0 = Session::new(4).lint("S", ARRAY_SRC, true).unwrap();
        assert!(r0.predict.unwrap().policies.is_empty());
    }

    #[test]
    fn session_job_carries_configuration() {
        let s = Session::new(8)
            .with_strategy(Strategy::Stor2)
            .with_seed(42)
            .with_exact_gap(parmem_exact::ExactConfig::default());
        let spec = s.job("X", SRC);
        assert_eq!(spec.k, 8);
        assert_eq!(spec.strategy, Strategy::Stor2);
        assert_eq!(spec.seed, 42);
        assert!(spec.exact_gap.is_some());
    }
}
