//! The lock-step RLIW machine: executes a scheduled program one long word
//! per cycle, fetching each word's operands from the `k` parallel memory
//! modules and stalling when several fetches hit the same module.
//!
//! Timing model (paper §3): a module performs one data transfer per Δ; all
//! modules work in parallel, so a word's memory-transfer time is
//! `max-load × Δ` where max-load is the busiest module's access count. The
//! simulator reports actual transfer time under each requested
//! [`ArrayPlacement`], the analytic expectation under the uniform assumption
//! (`t_ave` — computed exactly per executed word), and the usual execution
//! statistics.
//!
//! A program's semantics do not depend on where its array elements live, so
//! [`run_policies`] executes it once and costs every policy in the same
//! pass. Before executing, it plans each *static* word's scalar fetches
//! (makespan schedule, duplicate reads, copy writes, the `t_ave` entry);
//! per executed word it only evaluates the ops and, per policy, adds the
//! array accesses to the planned scalar loads.

use liw_ir::tac::{eval_op, ArrayId, Value};
use liw_sched::{SOperand, SchedProgram, SchedTerm, SlotOp};
use parmem_core::assignment::Assignment;
use parmem_core::matching::makespan_schedule;
use parmem_core::types::{ModuleId, ModuleSet, ValueId};

use crate::arrays::{ArrayModuleMap, ArrayPlacement};
use crate::model::MaxloadTable;

/// Execution + memory statistics for one simulated run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Long words executed.
    pub words: u64,
    /// Machine cycles, counting stalls (`max(1, makespan)` per word).
    pub cycles: u64,
    /// Total memory-transfer time in Δ units under the actual array policy
    /// (Σ per-word max-load).
    pub transfer_time: u64,
    /// Exact expected transfer time under the paper's uniform-array
    /// assumption, accumulated per executed word (`t_ave`).
    pub expected_transfer_time: f64,
    /// Words that performed at least one memory access.
    pub mem_words: u64,
    /// Words whose *scalar* fetches alone conflicted (should be 0 with a
    /// verified assignment).
    pub scalar_conflict_words: u64,
    /// Scalar reads of values with no assigned module (should be 0).
    pub unplaced_reads: u64,
    /// makespan histogram: `makespan_hist[i]` = words with max-load `i`.
    pub makespan_hist: Vec<u64>,
    /// Accumulated analytic distribution Σ_w p_w(i) (divide by `mem_words`
    /// for the paper's `p(i)`).
    pub analytic_hist: Vec<f64>,
    /// Extra write transfers for duplicated values (each definition of a
    /// value with `c` copies schedules `c-1` module-to-module transfers).
    pub copy_write_transfers: u64,
    /// Transfers served per memory module (utilization profile).
    pub module_transfers: Vec<u64>,
    /// Scalar reads of values that hold more than one copy (the reads
    /// duplication spent memory on).
    pub dup_reads: u64,
    /// The subset of [`dup_reads`](SimStats::dup_reads) where the makespan
    /// scheduler actually used a copy *other than* the value's primary
    /// (lowest-index) module — i.e. the duplication paid off by letting the
    /// fetch dodge a busy module. `dup_alt_reads / dup_reads` is the
    /// duplication read hit-rate.
    pub dup_alt_reads: u64,
    /// Operations executed.
    pub ops: u64,
    /// Executions per basic block (indexed by block id) — the trip counts
    /// the static conflict predictor weights its per-word model with.
    pub block_exec: Vec<u64>,
    /// `print` output, in order.
    pub output: Vec<Value>,
}

impl SimStats {
    /// `t_min`: transfer time if no array access ever conflicts — every
    /// memory word costs exactly the scalar makespan (1 with a verified
    /// assignment).
    pub fn t_min(&self) -> u64 {
        self.mem_words
    }

    /// The paper's `p(i)`: probability that an instruction requires `i`
    /// operands from the same memory module, under the uniform-array
    /// assumption, averaged over the executed memory words.
    pub fn p_distribution(&self) -> Vec<f64> {
        if self.mem_words == 0 {
            return Vec::new();
        }
        self.analytic_hist
            .iter()
            .map(|&s| s / self.mem_words as f64)
            .collect()
    }
}

/// Simulation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// Executed more words than the fuel limit allows.
    OutOfFuel,
    /// Array index out of bounds.
    Bounds {
        /// Array name.
        array: String,
        /// Offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfFuel => write!(f, "cycle limit exceeded"),
            SimError::Bounds { array, index, len } => {
                write!(f, "index {index} out of bounds for `{array}` (len {len})")
            }
        }
    }
}

impl std::error::Error for SimError {}

fn zero(ty: liw_ir::Ty) -> Value {
    match ty {
        liw_ir::Ty::Int => Value::Int(0),
        liw_ir::Ty::Real => Value::Real(0.0),
        liw_ir::Ty::Bool => Value::Bool(false),
    }
}

/// Words a run may execute unless the caller sets its own fuel.
const DEFAULT_FUEL: u64 = 100_000_000;

/// What one static long word costs in memory traffic, whatever the run-time
/// values and the array policy: the scalar fetches are fixed by the
/// assignment, and the number of array accesses by the word's ops.
struct WordPlan {
    /// Operations in the word.
    ops: u64,
    /// Array element accesses (loads + stores).
    arrays: u64,
    /// Whether the word touches memory at all.
    mem: bool,
    /// Busiest module's scalar load.
    scalar_max: u32,
    /// Index of the word's `(t_ave, p(i))` entry in [`FetchPlan::maxload`]
    /// (memory words only).
    maxload: usize,
    unplaced_reads: u64,
    dup_reads: u64,
    dup_alt_reads: u64,
    scalar_conflict: bool,
    copy_write_transfers: u64,
}

/// The per-word fetch plan of a whole program under one assignment, built
/// once before execution so the hot loop does no matching, no table lookup
/// and no allocation.
struct FetchPlan {
    k: usize,
    /// Plan index of each block's first word.
    block_start: Vec<usize>,
    words: Vec<WordPlan>,
    /// Scalar base loads from the makespan schedule, `k` per word.
    loads: Vec<u32>,
    /// Distinct `(t_ave, p(i))` entries of the memory words.
    maxload: Vec<(f64, Vec<f64>)>,
}

impl FetchPlan {
    fn new(prog: &SchedProgram, assignment: &Assignment) -> FetchPlan {
        let k = prog.spec.modules;
        let mut table = MaxloadTable::new();
        let mut plan = FetchPlan {
            k,
            block_start: Vec::with_capacity(prog.blocks.len()),
            words: Vec::new(),
            loads: Vec::new(),
            maxload: Vec::new(),
        };
        let mut scalar_webs = Vec::new();
        for b in &prog.blocks {
            plan.block_start.push(plan.words.len());
            for (wi, word) in b.words.iter().enumerate() {
                b.word_operands(wi, &mut scalar_webs);
                let mut unplaced_reads = 0;
                let op_sets: Vec<ModuleSet> = scalar_webs
                    .iter()
                    .map(|&w| {
                        let set = assignment.copies(ValueId(w));
                        if set.is_empty() {
                            // An unplaced read is fetched from module 0.
                            unplaced_reads += 1;
                            ModuleSet::singleton(ModuleId(0))
                        } else {
                            set
                        }
                    })
                    .collect();
                let (sched_mods, scalar_makespan) =
                    makespan_schedule(&op_sets).expect("no empty sets remain");
                let base = plan.loads.len();
                plan.loads.resize(base + k, 0);
                let loads = &mut plan.loads[base..];
                let (mut dup_reads, mut dup_alt_reads) = (0, 0);
                for (&m, set) in sched_mods.iter().zip(&op_sets) {
                    loads[m as usize] += 1;
                    if set.len() > 1 {
                        dup_reads += 1;
                        if Some(ModuleId(m)) != set.first() {
                            dup_alt_reads += 1;
                        }
                    }
                }
                let arrays = word.array_access_count();
                let mem = !scalar_webs.is_empty() || arrays > 0;
                // Copy-creation transfers: each def of a duplicated value
                // broadcasts to its extra copies.
                let copy_write_transfers = word
                    .ops
                    .iter()
                    .filter_map(SlotOp::writes)
                    .map(|w| assignment.copies(ValueId(w)).len().saturating_sub(1) as u64)
                    .sum();
                plan.words.push(WordPlan {
                    ops: word.ops.len() as u64,
                    arrays: arrays as u64,
                    mem,
                    scalar_max: loads.iter().copied().max().unwrap_or(0),
                    maxload: if mem { table.intern(loads, arrays) } else { 0 },
                    unplaced_reads,
                    dup_reads,
                    dup_alt_reads,
                    scalar_conflict: scalar_makespan > 1,
                    copy_write_transfers,
                });
            }
        }
        plan.maxload = table.into_entries();
        plan
    }

    fn scalar_loads(&self, word: usize) -> &[u32] {
        &self.loads[word * self.k..(word + 1) * self.k]
    }
}

/// One policy's share of a run: its own resolver (so a random policy draws
/// exactly the sequence a one-policy run would), its own load buffer, and
/// the costs of the words whose array accesses it places.
struct PolicyCost {
    resolver: ArrayModuleMap,
    loads: Vec<u32>,
    cycles: u64,
    transfer_time: u64,
    makespan_hist: Vec<u64>,
    /// Array accesses served per module.
    array_transfers: Vec<u64>,
}

impl PolicyCost {
    fn new(policy: &ArrayPlacement, k: usize) -> PolicyCost {
        PolicyCost {
            resolver: ArrayModuleMap::new(policy.clone(), k),
            loads: vec![0; k],
            cycles: 0,
            transfer_time: 0,
            makespan_hist: Vec::new(),
            array_transfers: vec![0; k],
        }
    }

    /// Cost one executed word with array accesses: resolve them in op order,
    /// add them to the word's scalar loads and take the busiest module.
    fn charge(&mut self, scalar_loads: &[u32], accesses: &[(u32, i64)]) {
        self.loads.copy_from_slice(scalar_loads);
        for &(array, index) in accesses {
            if let Some(m) = self.resolver.module_for(array, index) {
                self.loads[m as usize] += 1;
                self.array_transfers[m as usize] += 1;
            }
        }
        let makespan = self.loads.iter().copied().max().unwrap_or(0).max(1) as u64;
        self.cycles += makespan;
        self.transfer_time += makespan;
        bump_hist(&mut self.makespan_hist, makespan as usize, 1);
    }
}

fn bump_hist(hist: &mut Vec<u64>, makespan: usize, n: u64) {
    if hist.len() <= makespan {
        hist.resize(makespan + 1, 0);
    }
    hist[makespan] += n;
}

/// Execute `prog` once under `assignment` and cost it under every policy in
/// `policies`, returning one [`SimStats`] per policy, in order.
///
/// The program's semantics do not depend on where array elements live, so
/// one execution serves every policy: each executed word's array accesses
/// are resolved by each policy's own resolver, in op order, and added to
/// the word's precomputed scalar loads. Every policy's stats equal those of
/// a one-policy [`run`] to the last bit. `fuel` bounds the number of
/// executed words.
pub fn run_policies_with_fuel(
    prog: &SchedProgram,
    assignment: &Assignment,
    policies: &[ArrayPlacement],
    mut fuel: u64,
) -> Result<Vec<SimStats>, SimError> {
    assert_eq!(
        assignment.modules(),
        prog.spec.modules,
        "assignment and machine must agree on k"
    );
    let k = prog.spec.modules;
    let plan = FetchPlan::new(prog, assignment);
    let mut costs: Vec<PolicyCost> = policies.iter().map(|p| PolicyCost::new(p, k)).collect();

    // Runtime state: one logical value per data value (all copies hold the
    // same contents — copies are kept coherent by the compile-time-scheduled
    // broadcast transfers counted below), plus array storage.
    let mut values: Vec<Value> = (0..prog.n_values)
        .map(|w| zero(prog.var_ty[prog.value_var[w].index()]))
        .collect();
    let mut arrays: Vec<Vec<Value>> = prog
        .arrays
        .iter()
        .map(|a| vec![zero(a.elem); a.len])
        .collect();

    // Policy-independent results, shared by every policy's stats.
    let mut shared = SimStats {
        block_exec: vec![0; prog.blocks.len()],
        ..SimStats::default()
    };
    let mut block = prog.entry;

    // Per-word buffers, reused across words.
    let mut scalar_writes: Vec<(u32, Value)> = Vec::new();
    let mut array_writes: Vec<(usize, usize, Value)> = Vec::new();
    let mut accesses: Vec<(u32, i64)> = Vec::new();

    let read = |values: &[Value], o: &SOperand| -> Value {
        match o {
            SOperand::Const(c) => *c,
            SOperand::Scalar(w) => values[*w as usize],
        }
    };
    let in_bounds = |arr: ArrayId, i: i64, len: usize| {
        if i < 0 || i as usize >= len {
            return Err(SimError::Bounds {
                array: prog.arrays[arr.index()].name.clone(),
                index: i,
                len,
            });
        }
        Ok(i as usize)
    };

    'outer: loop {
        shared.block_exec[block.index()] += 1;
        let b = &prog.blocks[block.index()];
        let first = plan.block_start[block.index()];
        for (wi, word) in b.words.iter().enumerate() {
            if fuel == 0 {
                return Err(SimError::OutOfFuel);
            }
            fuel -= 1;

            // ---- evaluate ops against the word-start snapshot ----
            for op in &word.ops {
                match op {
                    SlotOp::Compute { dest, op, lhs, rhs } => {
                        let a = read(&values, lhs);
                        let b2 = rhs.as_ref().map(|r| read(&values, r));
                        scalar_writes.push((*dest, eval_op(*op, a, b2)));
                    }
                    SlotOp::Load { dest, arr, index } => {
                        let i = read(&values, index).as_int();
                        let store = &arrays[arr.index()];
                        let at = in_bounds(*arr, i, store.len())?;
                        accesses.push((arr.0, i));
                        scalar_writes.push((*dest, store[at]));
                    }
                    SlotOp::Store { arr, index, value } => {
                        let i = read(&values, index).as_int();
                        let v = read(&values, value);
                        let at = in_bounds(*arr, i, arrays[arr.index()].len())?;
                        accesses.push((arr.0, i));
                        array_writes.push((arr.index(), at, v));
                    }
                    SlotOp::Print { value } => {
                        shared.output.push(read(&values, value));
                    }
                    SlotOp::Select {
                        cond,
                        if_true,
                        if_false,
                        dest,
                    } => {
                        let v = if read(&values, cond).as_bool() {
                            read(&values, if_true)
                        } else {
                            read(&values, if_false)
                        };
                        scalar_writes.push((*dest, v));
                    }
                }
            }

            // ---- memory accounting ----
            let w = first + wi;
            let wp = &plan.words[w];
            // Analytic expectation from scalar base loads + uniform arrays,
            // summed in execution order.
            if wp.mem {
                let (e, dist) = &plan.maxload[wp.maxload];
                shared.expected_transfer_time += e;
                if shared.analytic_hist.len() < dist.len() {
                    shared.analytic_hist.resize(dist.len(), 0.0);
                }
                for (acc, p) in shared.analytic_hist.iter_mut().zip(dist) {
                    *acc += p;
                }
            }
            // Actual max-load under each policy.
            if !accesses.is_empty() {
                let scalar_loads = plan.scalar_loads(w);
                for cost in &mut costs {
                    cost.charge(scalar_loads, &accesses);
                }
                accesses.clear();
            }

            // ---- commit writes ----
            for (w, v) in scalar_writes.drain(..) {
                values[w as usize] = v;
            }
            for (a, i, v) in array_writes.drain(..) {
                arrays[a][i] = v;
            }
        }

        match &b.term {
            SchedTerm::Jump(t) => block = *t,
            SchedTerm::Branch {
                cond,
                then_to,
                else_to,
            } => {
                block = if read(&values, cond).as_bool() {
                    *then_to
                } else {
                    *else_to
                };
            }
            SchedTerm::Halt => break 'outer,
        }
    }

    // Every word of a block ran as often as the block did: weight the
    // static plan by the block counts for the policy-independent totals,
    // and for the cost of words no policy places an array access in.
    let mut scalar_transfers = vec![0u64; k];
    let (mut plain_cycles, mut plain_transfer, mut plain_hist) = (0u64, 0u64, Vec::new());
    for (bi, &n) in shared.block_exec.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let first = plan.block_start[bi];
        for w in first..first + prog.blocks[bi].words.len() {
            let wp = &plan.words[w];
            shared.words += n;
            shared.ops += n * wp.ops;
            shared.unplaced_reads += n * wp.unplaced_reads;
            shared.dup_reads += n * wp.dup_reads;
            shared.dup_alt_reads += n * wp.dup_alt_reads;
            shared.scalar_conflict_words += n * u64::from(wp.scalar_conflict);
            shared.copy_write_transfers += n * wp.copy_write_transfers;
            for (t, &l) in scalar_transfers.iter_mut().zip(plan.scalar_loads(w)) {
                *t += n * u64::from(l);
            }
            if wp.mem {
                shared.mem_words += n;
            }
            if wp.arrays == 0 {
                // A memory word without array accesses reads a scalar, so
                // its makespan is at least 1.
                plain_cycles += n * u64::from(wp.scalar_max.max(1));
                plain_transfer += n * u64::from(wp.scalar_max);
                if wp.mem {
                    bump_hist(&mut plain_hist, wp.scalar_max as usize, n);
                }
            }
        }
    }

    let mut out = Vec::with_capacity(policies.len());
    let last = policies.len().saturating_sub(1);
    for (i, (policy, cost)) in policies.iter().zip(costs).enumerate() {
        let mut run_span = parmem_obs::span("sim.run");
        run_span.attr("policy", policy.label());
        run_span.attr("k", k);
        // The shared data is copied once per policy; the last one takes it.
        let mut stats = if i == last {
            std::mem::take(&mut shared)
        } else {
            shared.clone()
        };
        stats.cycles = plain_cycles + cost.cycles;
        stats.transfer_time = plain_transfer + cost.transfer_time;
        stats.makespan_hist = plain_hist.clone();
        for (m, &n) in cost.makespan_hist.iter().enumerate() {
            bump_hist(&mut stats.makespan_hist, m, n);
        }
        if stats.words > 0 {
            stats.module_transfers = scalar_transfers
                .iter()
                .zip(&cost.array_transfers)
                .map(|(s, a)| s + a)
                .collect();
        }
        run_span.attr("words", stats.words);
        run_span.attr("cycles", stats.cycles);
        publish_metrics(&stats, policy.label());
        out.push(stats);
    }
    Ok(out)
}

/// [`run_policies_with_fuel`] with the default fuel (10^8 words).
pub fn run_policies(
    prog: &SchedProgram,
    assignment: &Assignment,
    policies: &[ArrayPlacement],
) -> Result<Vec<SimStats>, SimError> {
    run_policies_with_fuel(prog, assignment, policies, DEFAULT_FUEL)
}

/// Execute `prog` under `assignment` with the given array policy.
///
/// `fuel` bounds the number of executed words (use
/// [`run`] for the default 100M).
pub fn run_with_fuel(
    prog: &SchedProgram,
    assignment: &Assignment,
    policy: ArrayPlacement,
    fuel: u64,
) -> Result<SimStats, SimError> {
    let mut stats = run_policies_with_fuel(prog, assignment, &[policy], fuel)?;
    Ok(stats.pop().expect("one policy, one result"))
}

/// Publish the run's deterministic aggregates to the [`parmem_obs`] metric
/// registries, labelled by array policy. Called once per run (never per
/// instruction, keeping the simulator hot loop observation-free); a no-op
/// while tracing is disabled.
fn publish_metrics(stats: &SimStats, policy: &str) {
    if !parmem_obs::enabled() {
        return;
    }
    // Per-word max-load histogram: how many words stalled, and how badly —
    // the per-instruction conflict profile behind the paper's p(i).
    for (makespan, &n) in stats.makespan_hist.iter().enumerate() {
        parmem_obs::hist_record_n(
            &format!("sim.word_makespan[policy={policy}]"),
            makespan as u64,
            n,
        );
    }
    // Per-module access profile (memory utilization).
    for (m, &n) in stats.module_transfers.iter().enumerate() {
        parmem_obs::counter_add(
            &format!("sim.module_transfers[module={m},policy={policy}]"),
            n,
        );
    }
    parmem_obs::counter_add(&format!("sim.words[policy={policy}]"), stats.words);
    parmem_obs::counter_add(&format!("sim.cycles[policy={policy}]"), stats.cycles);
    parmem_obs::counter_add(
        &format!("sim.transfer_time[policy={policy}]"),
        stats.transfer_time,
    );
    parmem_obs::counter_add(
        &format!("sim.scalar_conflict_words[policy={policy}]"),
        stats.scalar_conflict_words,
    );
    parmem_obs::counter_add(
        &format!("sim.copy_write_transfers[policy={policy}]"),
        stats.copy_write_transfers,
    );
    // Duplication read hit-rate inputs.
    parmem_obs::counter_add(&format!("sim.dup_reads[policy={policy}]"), stats.dup_reads);
    parmem_obs::counter_add(
        &format!("sim.dup_alt_reads[policy={policy}]"),
        stats.dup_alt_reads,
    );
}

/// Execute with the default fuel (10^8 words).
pub fn run(
    prog: &SchedProgram,
    assignment: &Assignment,
    policy: ArrayPlacement,
) -> Result<SimStats, SimError> {
    run_with_fuel(prog, assignment, policy, DEFAULT_FUEL)
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

    const SUM: &str = "program t; var i, s, n: int;
        begin
          n := 50; s := 0;
          for i := 1 to n do s := s + i;
          print s;
        end.";

    #[test]
    fn produces_same_output_as_reference_interpreter() {
        let (sp, a) = setup(SUM, 8);
        let stats = run(&sp, &a, ArrayPlacement::Interleaved).unwrap();
        let reference = liw_ir::run_source(SUM).unwrap();
        assert_eq!(stats.output, reference.output);
        assert_eq!(stats.output, vec![Value::Int(1275)]);
    }

    #[test]
    fn verified_assignment_has_no_scalar_conflicts() {
        let (sp, a) = setup(SUM, 8);
        let stats = run(&sp, &a, ArrayPlacement::Ideal).unwrap();
        assert_eq!(stats.scalar_conflict_words, 0);
        assert_eq!(stats.unplaced_reads, 0);
        // Ideal arrays + conflict-free scalars → t == t_min.
        assert_eq!(stats.transfer_time, stats.t_min());
    }

    #[test]
    fn single_module_baseline_serializes() {
        let (sp, _) = setup(SUM, 8);
        let baseline = parmem_core::baseline::single_module(&sp.access_trace());
        let stats = run(&sp, &baseline, ArrayPlacement::Ideal).unwrap();
        // Words reading ≥2 scalars now stall.
        assert!(stats.scalar_conflict_words > 0);
        let good = setup(SUM, 8).1;
        let good_stats = run(&sp, &good, ArrayPlacement::Ideal).unwrap();
        assert!(stats.cycles > good_stats.cycles);
        // Output is unaffected by conflicts.
        assert_eq!(stats.output, good_stats.output);
    }

    const ARRAY_PROG: &str = "program t; var a: array[64] of int; i, s: int;
        begin
          for i := 0 to 63 do a[i] := i;
          s := 0;
          for i := 0 to 63 do s := s + a[i];
          print s;
        end.";

    #[test]
    fn array_policies_order_correctly() {
        let (sp, a) = setup(ARRAY_PROG, 8);
        let ideal = run(&sp, &a, ArrayPlacement::Ideal).unwrap();
        let inter = run(&sp, &a, ArrayPlacement::Interleaved).unwrap();
        let rand = run(&sp, &a, ArrayPlacement::UniformRandom(1)).unwrap();
        let worst = run(&sp, &a, ArrayPlacement::SameModule(0)).unwrap();
        assert_eq!(ideal.output, vec![Value::Int(2016)]);
        assert_eq!(ideal.output, worst.output);
        // t_min ≤ t_interleaved, t_random ≤ t_max.
        assert!(ideal.transfer_time <= inter.transfer_time);
        assert!(ideal.transfer_time <= rand.transfer_time);
        assert!(inter.transfer_time <= worst.transfer_time);
        assert!(rand.transfer_time <= worst.transfer_time);
        // Analytic expectation sits between min and max too.
        assert!(ideal.expected_transfer_time >= ideal.t_min() as f64 - 1e-9);
        assert!(ideal.expected_transfer_time <= worst.transfer_time as f64 + 1e-9);
    }

    #[test]
    fn analytic_matches_monte_carlo_average() {
        let (sp, a) = setup(ARRAY_PROG, 4);
        let analytic = run(&sp, &a, ArrayPlacement::Ideal)
            .unwrap()
            .expected_transfer_time;
        // Average actual transfer over many random seeds.
        let trials = 30;
        let mut total = 0u64;
        for seed in 0..trials {
            total += run(&sp, &a, ArrayPlacement::UniformRandom(seed))
                .unwrap()
                .transfer_time;
        }
        let mc = total as f64 / trials as f64;
        let rel = (analytic - mc).abs() / analytic;
        assert!(rel < 0.05, "analytic {analytic} vs monte-carlo {mc}");
    }

    #[test]
    fn copy_transfers_counted_for_duplicated_values() {
        // Force duplication with a tiny k and a dense program.
        let src = "program t; var a, b, c, d, e: int;
            begin
              a := 1; b := 2; c := 3; d := 4; e := 5;
              a := b + c; b := c + d; c := d + e; d := e + a; e := a + b;
              print a + b + c + d + e;
            end.";
        let sp = compile_and_schedule(src, MachineSpec::with_modules(3)).unwrap();
        let (a, r) = assign_trace(&sp.access_trace(), &AssignParams::default());
        assert_eq!(r.residual_conflicts, 0);
        let stats = run(&sp, &a, ArrayPlacement::Ideal).unwrap();
        let reference = liw_ir::run_source(src).unwrap();
        assert_eq!(stats.output, reference.output);
        if r.multi_copy > 0 {
            assert!(stats.copy_write_transfers > 0);
        }
    }

    #[test]
    fn p_distribution_matches_paper_formula() {
        // t_ave = Σ i·Δ·p(i) per memory word: recomputing the expected
        // transfer time from p(i) must reproduce `expected_transfer_time`.
        let (sp, a) = setup(ARRAY_PROG, 4);
        let stats = run(&sp, &a, ArrayPlacement::Ideal).unwrap();
        let p = stats.p_distribution();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "p sums to 1");
        let t_ave_from_p: f64 = p
            .iter()
            .enumerate()
            .map(|(i, &pi)| i as f64 * pi)
            .sum::<f64>()
            * stats.mem_words as f64;
        assert!(
            (t_ave_from_p - stats.expected_transfer_time).abs() < 1e-6,
            "{t_ave_from_p} vs {}",
            stats.expected_transfer_time
        );
    }

    #[test]
    fn fuel_limit_triggers() {
        let (sp, a) = setup(SUM, 8);
        match run_with_fuel(&sp, &a, ArrayPlacement::Ideal, 3) {
            Err(SimError::OutOfFuel) => {}
            other => panic!("expected OutOfFuel, got {other:?}"),
        }
    }

    #[test]
    fn bounds_violation_detected() {
        let src = "program t; var a: array[4] of int; i: int;
            begin i := 9; a[i] := 1; end.";
        let (sp, a) = setup(src, 8);
        match run(&sp, &a, ArrayPlacement::Interleaved) {
            Err(SimError::Bounds { index: 9, .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn module_utilization_is_balanced_under_good_layout() {
        let (sp, a) = setup(ARRAY_PROG, 8);
        let stats = run(&sp, &a, ArrayPlacement::Interleaved).unwrap();
        assert_eq!(stats.module_transfers.len(), 8);
        let total: u64 = stats.module_transfers.iter().sum();
        assert!(total > 0);
        // Single-module baseline concentrates everything on M1.
        let baseline = parmem_core::baseline::single_module(&sp.access_trace());
        let worst = run(&sp, &baseline, ArrayPlacement::SameModule(0)).unwrap();
        assert_eq!(
            worst.module_transfers.iter().sum::<u64>(),
            worst.module_transfers[0],
            "all traffic on module 0: {:?}",
            worst.module_transfers
        );
    }

    #[test]
    fn cycles_at_least_words() {
        let (sp, a) = setup(SUM, 8);
        let stats = run(&sp, &a, ArrayPlacement::Ideal).unwrap();
        assert!(stats.cycles >= stats.words);
        assert!(stats.words > 0);
    }
}
