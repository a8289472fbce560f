//! The static bank-conflict predictor: per-word compile-time
//! `t_min`/`t_ave`/`t_max` transfer estimates (paper Table 2) computed from
//! the scheduled program and the module assignment alone, plus the
//! predicted-vs-measured report that cross-checks them against `rliw-sim`'s
//! counters.
//!
//! For every long word the predictor reproduces exactly the accounting the
//! simulator performs — scalar operand webs → assigned module sets →
//! makespan schedule → per-module base loads — and then evaluates the three
//! Table 2 policies *symbolically*:
//!
//! * `t_min`: array fetches never conflict (the `Ideal` policy) — the
//!   word's cost is the scalar makespan;
//! * `t_ave`: each array fetch lands uniformly at random — the exact
//!   expected max-load from [`rliw_sim::model`];
//! * `t_max`: every array fetch hits module 0 (the `SameModule(0)` policy).
//!
//! Static per-word costs become whole-run totals by weighting each block
//! with an execution frequency. [`compare`] takes the frequencies from an
//! ideal-policy simulation (whose per-block counts the sim now exposes), so
//! any disagreement isolates the *conflict model*, not the trip counts: the
//! `t_min`/`t_max` predictions must match the measured runs exactly, and
//! the `t_ave` prediction must match the uniform-random measurement within
//! [`T_AVE_TOLERANCE`].

use std::sync::Arc;

use liw_sched::SchedProgram;
use parmem_core::assignment::Assignment;
use parmem_core::layout::MemoryLayout;
use parmem_core::matching::makespan_schedule;
use parmem_core::types::{ModuleId, ModuleSet, ValueId};
use rliw_sim::model::MaxloadTable;
use rliw_sim::{run_policies, uniform_seed, ArrayPlacement, SimError};

/// Documented bound on the relative error between the predicted `t_ave`
/// and one measured uniform-random run,
/// `|predicted − measured| / max(measured, 1)`.
///
/// The prediction is an exact *expectation*; the measurement is a single
/// random draw, so the gap is pure sampling noise. Across the paper corpus
/// (every workload, k ∈ {2, 4, 8}) the observed error stays under 5%; the
/// gate leaves headroom for small programs, where few memory words give
/// the law of large numbers less room to work.
pub const T_AVE_TOLERANCE: f64 = 0.10;

/// Compile-time cost model of one long instruction word.
#[derive(Clone, Debug)]
pub struct WordStat {
    /// Block the word belongs to.
    pub block: u32,
    /// Word index within the block.
    pub word: u32,
    /// Scalar operand fetches (distinct webs read by the word).
    pub scalars: usize,
    /// Array element accesses in the word.
    pub arrays: usize,
    /// Per-module scalar fetch loads after the makespan schedule
    /// (length `k`).
    pub scalar_loads: Vec<u32>,
    /// Whether the word touches memory at all.
    pub mem: bool,
    /// Transfer time if no array access ever conflicts (Δ units).
    pub t_min: u64,
    /// Exact expected transfer time under uniform-random array placement.
    pub t_ave: f64,
    /// Transfer time with every array access on one module.
    pub t_max: u64,
}

/// The per-word static cost model of a whole scheduled program.
#[derive(Clone, Debug)]
pub struct StaticPrediction {
    /// Module count the model was evaluated for.
    pub k: usize,
    /// One entry per `(block, word)` in block order (reachable and not —
    /// unexecuted words simply get frequency 0).
    pub words: Vec<WordStat>,
    /// Array ids accessed per word (parallel to `words`, op order).
    pub word_arrays: Vec<Vec<u32>>,
}

/// Build the static per-word cost model for `prog` under `assignment`.
///
/// This mirrors the per-word fetch plan `rliw_sim::machine::run_policies`
/// builds before executing, operation for operation, so the weighted
/// totals reproduce the simulator's counters exactly.
pub fn predict(prog: &SchedProgram, assignment: &Assignment) -> StaticPrediction {
    assert_eq!(
        assignment.modules(),
        prog.spec.modules,
        "assignment and machine must agree on k"
    );
    let mut span = parmem_obs::span("lint.predict");
    let k = prog.spec.modules;
    let mut table = MaxloadTable::new();
    let mut words = Vec::new();
    let mut word_arrays = Vec::new();

    let mut scalar_webs = Vec::new();
    for (bi, b) in prog.blocks.iter().enumerate() {
        for wi in 0..b.words.len() {
            let word = &b.words[wi];
            b.word_operands(wi, &mut scalar_webs);
            let mut op_sets: Vec<ModuleSet> = scalar_webs
                .iter()
                .map(|&w| assignment.copies(ValueId(w)))
                .collect();
            for s in op_sets.iter_mut() {
                if s.is_empty() {
                    // The simulator treats unplaced reads as module 0.
                    *s = ModuleSet::singleton(ModuleId(0));
                }
            }
            let (sched_mods, _) = makespan_schedule(&op_sets).expect("no empty sets remain");
            let mut loads = vec![0u32; k];
            for &m in &sched_mods {
                loads[m as usize] += 1;
            }
            let n_array = word.array_access_count();
            let any_access = !scalar_webs.is_empty() || n_array > 0;

            let scalar_max = *loads.iter().max().unwrap_or(&0) as u64;
            let t_min = if any_access { scalar_max.max(1) } else { 0 };
            let t_ave = if any_access {
                table.lookup(&loads, n_array).0
            } else {
                0.0
            };
            let t_max = if any_access {
                let mut worst = loads.clone();
                worst[0] += n_array as u32;
                (*worst.iter().max().unwrap() as u64).max(1)
            } else {
                0
            };

            let arrays: Vec<u32> = word
                .ops
                .iter()
                .filter_map(|o| match o {
                    liw_sched::SlotOp::Load { arr, .. } => Some(arr.0),
                    liw_sched::SlotOp::Store { arr, .. } => Some(arr.0),
                    _ => None,
                })
                .collect();
            debug_assert_eq!(arrays.len(), n_array);

            words.push(WordStat {
                block: bi as u32,
                word: wi as u32,
                scalars: scalar_webs.len(),
                arrays: n_array,
                scalar_loads: loads,
                mem: any_access,
                t_min,
                t_ave,
                t_max,
            });
            word_arrays.push(arrays);
        }
    }
    span.attr("words", words.len());
    StaticPrediction {
        k,
        words,
        word_arrays,
    }
}

/// Whole-run totals from per-word costs weighted by per-block execution
/// frequencies.
#[derive(Clone, Debug, Default)]
pub struct PredictedTotals {
    /// Long words executed.
    pub words: u64,
    /// Words touching memory.
    pub mem_words: u64,
    /// Total `t_min` (Δ units).
    pub t_min: u64,
    /// Total expected `t_ave` (Δ units).
    pub t_ave: f64,
    /// Total `t_max` (Δ units).
    pub t_max: u64,
    /// Predicted scalar transfers per module (matches the simulator's
    /// `module_transfers` under the ideal array policy).
    pub module_transfers: Vec<u64>,
    /// Predicted array accesses per array id.
    pub array_accesses: Vec<u64>,
}

/// Weight `pred` by `freq[block]` executions per block.
pub fn totals(prog: &SchedProgram, pred: &StaticPrediction, freq: &[u64]) -> PredictedTotals {
    let mut t = PredictedTotals {
        module_transfers: vec![0; pred.k],
        array_accesses: vec![0; prog.arrays.len()],
        ..PredictedTotals::default()
    };
    for (w, arrays) in pred.words.iter().zip(&pred.word_arrays) {
        let n = *freq.get(w.block as usize).unwrap_or(&0);
        if n == 0 {
            continue;
        }
        t.words += n;
        if w.mem {
            t.mem_words += n;
        }
        t.t_min += n * w.t_min;
        t.t_ave += n as f64 * w.t_ave;
        t.t_max += n * w.t_max;
        for (m, &l) in w.scalar_loads.iter().enumerate() {
            t.module_transfers[m] += n * l as u64;
        }
        for &a in arrays {
            t.array_accesses[a as usize] += n;
        }
    }
    t
}

/// Predicted-vs-measured cross-check for one program.
#[derive(Clone, Debug)]
pub struct PredictReport {
    /// Module count.
    pub k: usize,
    /// Seed of the uniform-random measurement run.
    pub seed: u64,
    /// Executed long words (predicted == measured by construction).
    pub words: u64,
    /// Executed memory words.
    pub mem_words: u64,
    /// Predicted `t_min` total.
    pub t_min_predicted: u64,
    /// Measured transfer time under the `Ideal` policy.
    pub t_min_measured: u64,
    /// Predicted `t_ave` total (exact expectation).
    pub t_ave_predicted: f64,
    /// The simulator's own accumulated analytic expectation (a second,
    /// independently-ordered evaluation of the same model).
    pub t_ave_analytic: f64,
    /// Measured transfer time under `UniformRandom(seed)`.
    pub t_ave_measured: u64,
    /// Predicted `t_max` total.
    pub t_max_predicted: u64,
    /// Measured transfer time under `SameModule(0)`.
    pub t_max_measured: u64,
    /// Predicted scalar transfers per module.
    pub module_transfers_predicted: Vec<u64>,
    /// Measured per-module transfers under the `Ideal` policy (scalar
    /// traffic only, so directly comparable).
    pub module_transfers_measured: Vec<u64>,
    /// Per-array predicted access counts, labelled by array name.
    pub per_array: Vec<(String, u64)>,
    /// Per-policy measured rows for compile-time planned layouts
    /// (empty unless produced by [`compare_with_layouts`]).
    pub policies: Vec<PolicyRow>,
}

/// Measured transfer time of one compile-time planned layout against the
/// uniform `t_ave` model.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    /// Policy label (`planned_interleaved` / `planned_hash` /
    /// `planned_block` / `planned_auto`).
    pub policy: &'static str,
    /// Digest of the [`MemoryLayout`] this row measured.
    pub layout_digest: u64,
    /// The uniform-placement expectation (the paper's `t_ave` model — the
    /// reference point every deterministic layout is compared against).
    pub t_modeled: f64,
    /// Measured transfer time executing the planned layout.
    pub t_measured: u64,
    /// Whether the policy is *expected* to track the uniform model (hash
    /// yes; interleaved/block legitimately beat or miss it when access
    /// patterns resonate with the layout).
    pub uniform_like: bool,
}

impl PolicyRow {
    /// `|measured − modeled| / max(modeled, 1)`.
    pub fn rel_err(&self) -> f64 {
        (self.t_measured as f64 - self.t_modeled).abs() / self.t_modeled.max(1.0)
    }

    /// Whether a uniform-like policy tracked the model within
    /// [`T_AVE_TOLERANCE`] (vacuously true for non-uniform-like policies).
    pub fn within_tolerance(&self) -> bool {
        !self.uniform_like || self.rel_err() <= T_AVE_TOLERANCE
    }
}

impl PredictReport {
    /// Relative error of the `t_ave` prediction against the measured
    /// uniform-random run.
    pub fn t_ave_rel_err(&self) -> f64 {
        (self.t_ave_predicted - self.t_ave_measured as f64).abs()
            / (self.t_ave_measured as f64).max(1.0)
    }

    /// Whether every prediction holds: exact `t_min`/`t_max`/module
    /// profiles and `t_ave` within [`T_AVE_TOLERANCE`].
    pub fn within_tolerance(&self) -> bool {
        self.t_min_predicted == self.t_min_measured
            && self.t_max_predicted == self.t_max_measured
            && self.module_transfers_predicted == self.module_transfers_measured
            && self.t_ave_rel_err() <= T_AVE_TOLERANCE
    }
}

/// Run the predictor and the three Table 2 measurement policies, returning
/// the cross-checked report. Block frequencies come from the ideal run.
///
/// `seed` is the user-level base seed; the uniform-random measurement uses
/// [`uniform_seed`]`(seed, workload_digest)` (see the seeding notes in
/// `rliw_sim::arrays`). The derived seed is what the report records.
pub fn compare(
    prog: &SchedProgram,
    assignment: &Assignment,
    seed: u64,
) -> Result<PredictReport, SimError> {
    compare_with_layouts(prog, assignment, seed, &[])
}

/// [`compare`], plus one measured [`PolicyRow`] per compile-time planned
/// layout — the predicted-vs-measured t_ave comparison *per policy* that
/// the placement bench and `parmem lint --array-policy` report. One
/// execution is costed under the three Table 2 policies and every layout.
pub fn compare_with_layouts(
    prog: &SchedProgram,
    assignment: &Assignment,
    seed: u64,
    layouts: &[Arc<MemoryLayout>],
) -> Result<PredictReport, SimError> {
    let seed = uniform_seed(seed, prog.workload_digest());
    let mut policies = vec![
        ArrayPlacement::Ideal,
        ArrayPlacement::SameModule(0),
        ArrayPlacement::UniformRandom(seed),
    ];
    policies.extend(layouts.iter().cloned().map(ArrayPlacement::Planned));
    let runs = run_policies(prog, assignment, &policies)?;
    let (ideal, worst, uniform) = (&runs[0], &runs[1], &runs[2]);

    let pred = predict(prog, assignment);
    let t = totals(prog, &pred, &ideal.block_exec);

    let per_array = prog
        .arrays
        .iter()
        .zip(&t.array_accesses)
        .map(|(a, &n)| (a.name.clone(), n))
        .collect();

    let rows = layouts
        .iter()
        .zip(&policies[3..])
        .zip(&runs[3..])
        .map(|((layout, policy), stats)| PolicyRow {
            policy: policy.label(),
            layout_digest: layout.digest(),
            t_modeled: t.t_ave,
            t_measured: stats.transfer_time,
            uniform_like: matches!(layout.policy, parmem_core::layout::ArrayPolicy::Hash),
        })
        .collect();

    Ok(PredictReport {
        k: pred.k,
        seed,
        words: t.words,
        mem_words: t.mem_words,
        t_min_predicted: t.t_min,
        t_min_measured: ideal.transfer_time,
        t_ave_predicted: t.t_ave,
        t_ave_analytic: ideal.expected_transfer_time,
        t_ave_measured: uniform.transfer_time,
        t_max_predicted: t.t_max,
        t_max_measured: worst.transfer_time,
        module_transfers_predicted: t.module_transfers,
        module_transfers_measured: ideal.module_transfers.clone(),
        per_array,
        policies: rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use liw_sched::{compile_and_schedule, MachineSpec};
    use parmem_core::assignment::{assign_trace, AssignParams};

    fn setup(src: &str, k: usize) -> (SchedProgram, Assignment) {
        let sp = compile_and_schedule(src, MachineSpec::with_modules(k)).unwrap();
        let (a, r) = assign_trace(&sp.access_trace(), &AssignParams::default());
        assert_eq!(r.residual_conflicts, 0, "assignment failed: {r:?}");
        (sp, a)
    }

    const ARRAY_PROG: &str = "program t; var a: array[64] of int; i, s: int;
        begin
          for i := 0 to 63 do a[i] := i;
          s := 0;
          for i := 0 to 63 do s := s + a[i];
          print s;
        end.";

    #[test]
    fn t_min_and_t_max_match_measurement_exactly() {
        for k in [2, 4, 8] {
            let (sp, a) = setup(ARRAY_PROG, k);
            let r = compare(&sp, &a, 0xC0FFEE).unwrap();
            assert_eq!(r.t_min_predicted, r.t_min_measured, "k={k}");
            assert_eq!(r.t_max_predicted, r.t_max_measured, "k={k}");
            assert_eq!(
                r.module_transfers_predicted, r.module_transfers_measured,
                "k={k}"
            );
        }
    }

    #[test]
    fn t_ave_matches_sim_analytic_and_measurement() {
        let (sp, a) = setup(ARRAY_PROG, 4);
        let r = compare(&sp, &a, 7).unwrap();
        // Same model evaluated in a different accumulation order: tight.
        let rel = (r.t_ave_predicted - r.t_ave_analytic).abs() / r.t_ave_analytic.max(1.0);
        assert!(rel < 1e-9, "{} vs {}", r.t_ave_predicted, r.t_ave_analytic);
        assert!(
            r.t_ave_rel_err() <= T_AVE_TOLERANCE,
            "rel err {}",
            r.t_ave_rel_err()
        );
        assert!(r.within_tolerance());
    }

    #[test]
    fn ordering_t_min_le_t_ave_le_t_max() {
        let (sp, a) = setup(ARRAY_PROG, 4);
        let r = compare(&sp, &a, 1).unwrap();
        assert!(r.t_min_predicted as f64 <= r.t_ave_predicted + 1e-9);
        assert!(r.t_ave_predicted <= r.t_max_predicted as f64 + 1e-9);
        // Array accesses are all on `a`.
        assert_eq!(r.per_array.len(), 1);
        assert!(r.per_array[0].1 > 0);
    }

    #[test]
    fn planned_policy_rows_measure_each_layout() {
        use parmem_core::layout::{plan, ArrayPolicy};
        let (sp, a) = setup(ARRAY_PROG, 4);
        let profiles =
            crate::analyses::array_stride_profiles(&liw_ir::compile(ARRAY_PROG).unwrap());
        let layouts: Vec<Arc<MemoryLayout>> = ArrayPolicy::CONCRETE
            .iter()
            .map(|&p| Arc::new(plan(4, p, a.clone(), &profiles)))
            .collect();
        let r = compare_with_layouts(&sp, &a, 0xC0FFEE, &layouts).unwrap();
        assert_eq!(r.policies.len(), 3);
        for row in &r.policies {
            // Every planned layout is bounded by the ideal/worst envelope.
            assert!(row.t_measured >= r.t_min_measured, "{}", row.policy);
            assert!(row.t_measured <= r.t_max_measured, "{}", row.policy);
            assert!(
                row.within_tolerance(),
                "{} rel err {}",
                row.policy,
                row.rel_err()
            );
        }
        // Sequential unit-stride scans: interleaving is conflict-optimal,
        // hash tracks the uniform model.
        let inter = r
            .policies
            .iter()
            .find(|p| p.policy == "planned_interleaved")
            .unwrap();
        let hash = r
            .policies
            .iter()
            .find(|p| p.policy == "planned_hash")
            .unwrap();
        assert!(inter.t_measured as f64 <= hash.t_measured as f64 * 1.05);
        assert!(hash.uniform_like && !inter.uniform_like);
    }

    #[test]
    fn scalar_only_program_has_equal_bounds() {
        let (sp, a) = setup(
            "program t; var x, y: int; begin x := 2; y := x + 3; print y; end.",
            4,
        );
        let r = compare(&sp, &a, 2).unwrap();
        // No arrays: t_min == t_ave == t_max exactly.
        assert_eq!(r.t_min_predicted, r.t_max_predicted);
        assert!((r.t_ave_predicted - r.t_min_predicted as f64).abs() < 1e-12);
        assert!(r.within_tolerance());
    }
}
