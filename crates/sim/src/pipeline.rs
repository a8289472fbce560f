//! What a compiled program is, and what executing it measures: the
//! [`CompiledProgram`] a session compiles, the Table 2 run under every
//! array policy ([`table2_row`]), and one simulation cross-checked against
//! the reference interpreter ([`checked_run`]). The compile stages that
//! produce a program live in `parmem-driver`'s `Session`.

use std::sync::Arc;

use liw_ir::tac::TacProgram;
use liw_sched::SchedProgram;
use parmem_core::assignment::Assignment;
use parmem_core::layout::MemoryLayout;

use crate::arrays::ArrayPlacement;
use crate::machine::{self, SimError, SimStats};

/// Boxed error that can cross thread boundaries — every pipeline entry point
/// returns this so the batch engine can run stages on worker threads.
pub type PipelineError = Box<dyn std::error::Error + Send + Sync>;

/// A compiled program: the TAC (for the reference interpreter) plus the
/// scheduled long-word form (for the RLIW).
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Mid-level IR (runs on the reference interpreter).
    pub tac: TacProgram,
    /// Scheduled long-word form (runs on the RLIW simulator).
    pub sched: SchedProgram,
}

/// The paper's Table 2 measurements for one program: transfer time under
/// each array policy, plus the analytic expectation.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub program: String,
    /// Machine size `k`.
    pub modules: usize,
    /// Δ-units if no array conflicts ever occur.
    pub t_min: u64,
    /// Exact expected transfer time under uniform array placement (paper's
    /// `t_ave = Σ i·Δ·p(i)`).
    pub t_ave_analytic: f64,
    /// Measured transfer time with seeded uniform-random placement.
    pub t_ave_measured: u64,
    /// Measured transfer time with interleaved placement.
    pub t_interleaved: u64,
    /// Transfer time with every array in one module.
    pub t_max: u64,
}

impl Table2Row {
    /// `t_ave/t_min` (analytic).
    pub fn ave_ratio(&self) -> f64 {
        self.t_ave_analytic / self.t_min as f64
    }

    /// `t_max/t_min`.
    pub fn max_ratio(&self) -> f64 {
        self.t_max as f64 / self.t_min as f64
    }
}

/// One execution costed for Table 2: the row, plus what a pipeline job
/// needs beside it.
#[derive(Clone, Debug)]
pub struct Table2Run {
    /// The Table 2 measurements.
    pub row: Table2Row,
    /// Full statistics of the ideal run (what the verifier's PM008 compares
    /// its static conflict prediction against).
    pub ideal: SimStats,
    /// Full statistics of the interleaved run (the job's words, cycles and
    /// output).
    pub interleaved: SimStats,
    /// Transfer time under the compile-time planned layout, when one was
    /// given.
    pub t_planned: Option<u64>,
}

/// Produce a Table 2 row by executing the program once and costing it under
/// the four array policies (ideal, uniform random, interleaved, same
/// module), plus the compile-time `planned` layout when one is given.
///
/// `seed` is the user-level base seed; the uniform-random policy actually
/// runs with [`crate::arrays::uniform_seed`]`(seed, workload_digest)` so
/// that different programs draw independent sample paths (see the seeding
/// notes in `arrays.rs`).
pub fn table2_row(
    name: &str,
    sched: &SchedProgram,
    assignment: &Assignment,
    seed: u64,
    planned: Option<Arc<MemoryLayout>>,
) -> Result<Table2Run, SimError> {
    let seed = crate::arrays::uniform_seed(seed, sched.workload_digest());
    let mut policies = vec![
        ArrayPlacement::Ideal,
        ArrayPlacement::UniformRandom(seed),
        ArrayPlacement::Interleaved,
        ArrayPlacement::SameModule(0),
    ];
    policies.extend(planned.map(ArrayPlacement::Planned));
    let mut runs = machine::run_policies(sched, assignment, &policies)?.into_iter();
    let mut next = || runs.next().expect("one result per policy");
    let (ideal, rand, inter, worst) = (next(), next(), next(), next());
    let t_planned = runs.next().map(|s| s.transfer_time);
    Ok(Table2Run {
        row: Table2Row {
            program: name.to_string(),
            modules: sched.spec.modules,
            t_min: ideal.transfer_time,
            t_ave_analytic: ideal.expected_transfer_time,
            t_ave_measured: rand.transfer_time,
            t_interleaved: inter.transfer_time,
            t_max: worst.transfer_time,
        },
        ideal,
        interleaved: inter,
        t_planned,
    })
}

/// Result of a full verified run: the simulated stats plus the reference
/// interpreter's output/step count, with outputs checked for equality.
#[derive(Clone, Debug)]
pub struct VerifiedRun {
    /// Simulator statistics.
    pub stats: SimStats,
    /// Sequential reference step count.
    pub reference_steps: u64,
    /// Speed-up of the LIW machine over a 1-op-per-cycle sequential machine
    /// executing the same TAC (the paper reports 64–300%).
    pub speedup: f64,
}

/// The scheduled execution produced different output than the reference
/// interpreter — a compiler/simulator bug, never a data-layout effect.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Reference interpreter output.
    pub expected: Vec<liw_ir::Value>,
    /// Simulated output.
    pub actual: Vec<liw_ir::Value>,
    /// Index of the first differing value (None when only the lengths
    /// differ).
    pub first_mismatch: Option<usize>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheduled execution diverged from reference semantics: \
             expected {} output value(s), got {}",
            self.expected.len(),
            self.actual.len()
        )?;
        if let Some(i) = self.first_mismatch {
            write!(
                f,
                "; first mismatch at index {i} ({} != {})",
                self.expected[i], self.actual[i]
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for Divergence {}

/// Simulate and cross-check against the reference interpreter, reporting a
/// divergence as a structured [`Divergence`] error instead of panicking, so
/// a miscompiled program makes `parmem compile` exit 1.
pub fn checked_run(
    prog: &CompiledProgram,
    assignment: &Assignment,
    policy: ArrayPlacement,
) -> Result<VerifiedRun, PipelineError> {
    let reference = liw_ir::run(&prog.tac)?;
    let stats = machine::run(&prog.sched, assignment, policy)?;
    let first_mismatch = reference
        .output
        .iter()
        .zip(&stats.output)
        .position(|(a, b)| !a.same(*b));
    if first_mismatch.is_some() || stats.output.len() != reference.output.len() {
        return Err(Box::new(Divergence {
            expected: reference.output,
            actual: stats.output,
            first_mismatch,
        }));
    }
    let speedup = reference.steps as f64 / stats.cycles as f64;
    Ok(VerifiedRun {
        stats,
        reference_steps: reference.steps,
        speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use liw_sched::MachineSpec;
    use parmem_core::assignment::{AssignParams, AssignmentReport};
    use parmem_core::strategies::{run_strategy, Strategy};

    const PROG: &str = "program demo; var a: array[32] of real; i: int; s: real;
        begin
          for i := 0 to 31 do a[i] := itor(i) * 0.5;
          s := 0.0;
          for i := 0 to 31 do s := s + a[i];
          print s;
        end.";

    /// The program for a `k`-module machine, unoptimized.
    fn compile(src: &str, k: usize) -> CompiledProgram {
        let tac = liw_ir::compile(src).unwrap();
        let sched = liw_sched::schedule(&tac, MachineSpec::with_modules(k));
        CompiledProgram { tac, sched }
    }

    fn assign(sched: &SchedProgram, s: Strategy) -> (Assignment, AssignmentReport) {
        run_strategy(&sched.regionized_trace(), s, &AssignParams::default())
    }

    #[test]
    fn table2_row_orders_policies() {
        let prog = compile(PROG, 8);
        let (a, _) = assign(&prog.sched, Strategy::Stor1);
        let row = table2_row("demo", &prog.sched, &a, 42, None).unwrap().row;
        assert!(row.t_min <= row.t_ave_measured);
        assert!(row.t_ave_measured <= row.t_max);
        assert!(row.ave_ratio() >= 1.0);
        assert!(row.max_ratio() >= row.ave_ratio() * 0.99);
        // Analytic close to measured (one seed, so loose bound).
        let rel =
            (row.t_ave_analytic - row.t_ave_measured as f64).abs() / row.t_ave_analytic.max(1.0);
        assert!(
            rel < 0.2,
            "analytic {} vs measured {}",
            row.t_ave_analytic,
            row.t_ave_measured
        );
    }

    #[test]
    fn strategies_all_verify() {
        let prog = compile(PROG, 8);
        for s in [Strategy::Stor1, Strategy::Stor2, Strategy::STOR3] {
            let (a, r) = assign(&prog.sched, s);
            assert_eq!(r.residual_conflicts, 0, "{}", s.name());
            let run = checked_run(&prog, &a, ArrayPlacement::Interleaved).unwrap();
            assert_eq!(run.stats.scalar_conflict_words, 0, "{}", s.name());
        }
    }

    #[test]
    fn fewer_modules_increase_pressure() {
        let p8 = compile(PROG, 8);
        let p2 = compile(PROG, 2);
        let (a8, _) = assign(&p8.sched, Strategy::Stor1);
        let (a2, _) = assign(&p2.sched, Strategy::Stor1);
        let r8 = checked_run(&p8, &a8, ArrayPlacement::Ideal).unwrap();
        let r2 = checked_run(&p2, &a2, ArrayPlacement::Ideal).unwrap();
        // A 2-wide machine needs at least as many words.
        assert!(r2.stats.words >= r8.stats.words);
    }

    #[test]
    fn divergence_error_is_structured_and_downcastable() {
        let d = Divergence {
            expected: vec![liw_ir::Value::Int(1), liw_ir::Value::Int(2)],
            actual: vec![liw_ir::Value::Int(1), liw_ir::Value::Int(3)],
            first_mismatch: Some(1),
        };
        let s = d.to_string();
        assert!(s.contains("diverged") && s.contains("index 1"), "{s}");
        let boxed: PipelineError = Box::new(d);
        assert!(boxed.downcast_ref::<Divergence>().is_some());
    }
}
