//! The three storage-allocation strategies evaluated in paper §3 (Table 1).
//!
//! * **STOR1** — one conflict graph over *all* variables and temporaries of
//!   the program (no size restriction).
//! * **STOR2** — two stages: first assign the values live across regions
//!   (globals), considering only their mutual conflicts; then process each
//!   region, assigning its local values with the globals held fixed.
//! * **STOR3** — restrict graph size by splitting the instruction stream
//!   into two groups processed one after the other (values assigned by the
//!   first group stay fixed for the second).

use std::collections::HashSet;
use std::ops::Range;
use std::sync::OnceLock;

use crate::assignment::{assign_trace_into, AssignParams, Assignment, AssignmentReport};
use crate::types::{AccessTrace, ValueId};

/// A program's instruction stream partitioned into regions, with the set of
/// values live across region boundaries. Produced by the compiler front end
/// (`liw-ir` + `liw-sched`); constructible by hand for tests.
///
/// The regions are consecutive ranges of one region-major trace, each
/// region's instructions in program order, so the whole program is that
/// trace as it stands.
#[derive(Clone, Debug)]
pub struct RegionizedTrace {
    trace: AccessTrace,
    /// Where each region ends in `trace`: ascending, the last at the
    /// trace's end.
    region_ends: Vec<usize>,
    /// Values used in more than one region ("global" data values).
    pub globals: HashSet<ValueId>,
}

impl RegionizedTrace {
    /// Regions of `trace` ending at `region_ends` (ascending, the last at
    /// the trace's end; region `r` is `region_ends[r - 1]..region_ends[r]`,
    /// the first starting at 0), with the given global values.
    pub fn new(trace: AccessTrace, region_ends: Vec<usize>, globals: HashSet<ValueId>) -> Self {
        assert!(
            region_ends.windows(2).all(|w| w[0] <= w[1])
                && region_ends.last().copied().unwrap_or(0) == trace.instructions.len(),
            "region ends must ascend to the trace's end"
        );
        RegionizedTrace {
            trace,
            region_ends,
            globals,
        }
    }

    /// The whole of `trace` as one region, which no value crosses.
    pub fn whole(trace: AccessTrace) -> Self {
        let end = trace.instructions.len();
        RegionizedTrace::new(trace, vec![end], HashSet::new())
    }

    /// The whole program as one trace, region by region.
    pub fn flat(&self) -> &AccessTrace {
        &self.trace
    }

    /// Each region's instructions, as a range of [`RegionizedTrace::flat`].
    pub fn regions(&self) -> impl ExactSizeIterator<Item = Range<usize>> + '_ {
        let ends = &self.region_ends;
        (0..ends.len()).map(move |r| if r == 0 { 0 } else { ends[r - 1] }..ends[r])
    }
}

/// The memory-module assignment strategy — which slice of the program each
/// conflict graph covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// All conflicts at once (unbounded graph).
    Stor1,
    /// Globals first (globals-only conflicts), then per-region locals.
    Stor2,
    /// Instruction stream split into `groups` consecutive chunks, processed
    /// sequentially. The paper's experiment used two groups.
    Stor3 {
        /// Number of consecutive chunks the stream is split into.
        groups: usize,
    },
    /// Exact branch-and-bound assignment (provided by `parmem-exact` via
    /// [`install_exact_solver`]; falls back to STOR1 when uninstalled).
    Exact,
}

/// One row of the strategy registry: everything a front end (CLI, batch,
/// bench) needs to enumerate, parse, and describe a strategy. This table is
/// the single source of truth — there are no hand-maintained `match` sites
/// over strategy flags elsewhere.
#[derive(Clone, Copy, Debug)]
pub struct StrategyInfo {
    /// The strategy this row describes.
    pub strategy: Strategy,
    /// Display name (`STOR1`/`STOR2`/`STOR3`/`EXACT`).
    pub name: &'static str,
    /// The `--stor` flag value that selects it (`1`/`2`/`3`/`exact`).
    pub flag: &'static str,
    /// One-line description for `--help` output.
    pub description: &'static str,
}

/// The strategy registry, in canonical order. Paper heuristics first, then
/// the exact solver.
pub const STRATEGY_REGISTRY: &[StrategyInfo] = &[
    StrategyInfo {
        strategy: Strategy::Stor1,
        name: "STOR1",
        flag: "1",
        description: "one conflict graph over the whole program",
    },
    StrategyInfo {
        strategy: Strategy::Stor2,
        name: "STOR2",
        flag: "2",
        description: "globals first, then per-region locals",
    },
    StrategyInfo {
        strategy: Strategy::STOR3,
        name: "STOR3",
        flag: "3",
        description: "instruction stream split into two groups",
    },
    StrategyInfo {
        strategy: Strategy::Exact,
        name: "EXACT",
        flag: "exact",
        description: "branch-and-bound exact assignment with certificates",
    },
];

impl Strategy {
    /// The paper's STOR3 configuration (two instruction groups).
    pub const STOR3: Strategy = Strategy::Stor3 { groups: 2 };

    /// Display name (`STOR1`/`STOR2`/`STOR3`/`EXACT`).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Stor1 => "STOR1",
            Strategy::Stor2 => "STOR2",
            Strategy::Stor3 { .. } => "STOR3",
            Strategy::Exact => "EXACT",
        }
    }

    /// The registry row for this strategy.
    pub fn info(&self) -> &'static StrategyInfo {
        STRATEGY_REGISTRY
            .iter()
            .find(|i| i.name == self.name())
            .expect("every strategy has a registry row")
    }

    /// Parse a `--stor` flag value (`1`, `2`, `3`, `exact`; names like
    /// `STOR1`/`stor2`/`EXACT` also accepted).
    pub fn parse(s: &str) -> Option<Strategy> {
        STRATEGY_REGISTRY
            .iter()
            .find(|i| i.flag.eq_ignore_ascii_case(s) || i.name.eq_ignore_ascii_case(s))
            .map(|i| i.strategy)
    }

    /// Every registered strategy, in canonical order.
    pub fn all() -> impl Iterator<Item = Strategy> {
        STRATEGY_REGISTRY.iter().map(|i| i.strategy)
    }

    /// The paper's three heuristics (what `--stor all` sweeps).
    pub fn heuristics() -> impl Iterator<Item = Strategy> {
        STRATEGY_REGISTRY
            .iter()
            .filter(|i| i.strategy != Strategy::Exact)
            .map(|i| i.strategy)
    }
}

/// The exact-solver entry point installed by `parmem-exact`: given the flat
/// trace and the assignment parameters, place every distinct value
/// (single-copy) into `Assignment`. Residual repair happens in
/// [`run_strategy`]'s common epilogue.
pub type ExactSolverFn = fn(&AccessTrace, &AssignParams, &mut Assignment);

static EXACT_SOLVER: OnceLock<ExactSolverFn> = OnceLock::new();

/// Install the exact solver used by [`Strategy::Exact`]. `parmem-exact`
/// calls this from its `install()`; later calls are ignored (first wins).
/// Returns `true` if this call installed the solver.
pub fn install_exact_solver(f: ExactSolverFn) -> bool {
    EXACT_SOLVER.set(f).is_ok()
}

/// Run one strategy over a regionized program. The returned report is always
/// evaluated against the *full* flat trace, so residual-conflict and copy
/// counts are comparable across strategies.
pub fn run_strategy(
    rt: &RegionizedTrace,
    strategy: Strategy,
    params: &AssignParams,
) -> (Assignment, AssignmentReport) {
    let full = rt.flat();
    let k = full.modules;
    let mut a = Assignment::new(k);

    match strategy {
        Strategy::Stor1 => {
            assign_trace_into(full, params, &mut a);
        }
        Strategy::Stor2 => {
            // Stage 1: globals only. Each instruction is projected onto its
            // global operands; instructions with < 2 globals contribute no
            // conflicts but still place their global values.
            let global_insts = full.instructions.projected(|v| rt.globals.contains(&v));
            assign_trace_into(&AccessTrace::new(k, global_insts), params, &mut a);
            // Stage 2: one region at a time, globals fixed.
            for region in rt.regions() {
                let rtrace = AccessTrace::new(k, full.instructions.slice(region));
                assign_trace_into(&rtrace, params, &mut a);
            }
        }
        Strategy::Stor3 { groups } => {
            let groups = groups.max(1);
            let n = full.instructions.len();
            let chunk = n.div_ceil(groups).max(1);
            for lo in (0..n).step_by(chunk) {
                let strace = AccessTrace::new(k, full.instructions.slice(lo..(lo + chunk).min(n)));
                assign_trace_into(&strace, params, &mut a);
            }
        }
        Strategy::Exact => match EXACT_SOLVER.get() {
            Some(solve) => solve(full, params, &mut a),
            // Uninstalled (core used standalone): fall back to the STOR1
            // heuristic so the variant still produces a valid assignment.
            None => {
                assign_trace_into(full, params, &mut a);
            }
        },
    }

    // Re-evaluate against the full program. Staged strategies can leave
    // conflicts that the per-stage repair never saw; fix them here so every
    // strategy delivers the conflict-free guarantee and pays for it in
    // copies (exactly the paper's trade-off: restricted graphs → more
    // duplication).
    let all_values: Vec<ValueId> = full.distinct_values();
    let pre_residual = a.residual_conflicts(full);
    let mut repair_copies = 0;
    if pre_residual > 0 {
        let before = a.total_copies();
        crate::duplication::backtrack_duplicate(full, &all_values, &mut a);
        repair_copies = a.total_copies() - before;
    }

    let report = AssignmentReport {
        single_copy: a.single_copy_count(),
        multi_copy: a.multi_copy_count(),
        extra_copies: a.extra_copies(),
        uncolored: 0, // per-stage detail not meaningful across stages
        atoms: 0,
        residual_conflicts: a.residual_conflicts(full),
        repair_copies,
    };
    // The per-stage self-check only holds for a stage that started from an
    // empty assignment; the whole-program guarantee is checked here.
    debug_assert!(
        report.residual_conflicts == 0 || full.oversized_instructions() > 0,
        "{} left a fitting instruction conflicting",
        strategy.name()
    );
    (a, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::AssignParams;

    fn sample_program() -> RegionizedTrace {
        // Region 0 uses {1,2,3,10}, region 1 uses {4,5,6,10}; V10 is global.
        // Each region's conflict graph is 3-colorable (no K4), so STOR1 can
        // solve the whole program without duplication.
        RegionizedTrace::new(
            AccessTrace::from_lists(3, &[&[1, 2, 10], &[2, 3, 10], &[4, 5, 10], &[5, 6, 10]]),
            vec![2, 4],
            HashSet::from([ValueId(10)]),
        )
    }

    #[test]
    fn all_strategies_end_conflict_free() {
        let rt = sample_program();
        let params = AssignParams::default();
        for strategy in [Strategy::Stor1, Strategy::Stor2, Strategy::STOR3] {
            let (a, r) = run_strategy(&rt, strategy, &params);
            assert_eq!(r.residual_conflicts, 0, "{}: {r:?}", strategy.name());
            assert_eq!(a.residual_conflicts(rt.flat()), 0);
            // Every used value must be placed.
            for v in rt.flat().distinct_values() {
                assert!(a.is_placed(v), "{}: {v} unplaced", strategy.name());
            }
        }
    }

    #[test]
    fn stor1_duplicates_no_more_than_staged_strategies_here() {
        // On this easy program STOR1 needs no duplication at all.
        let rt = sample_program();
        let (_, r1) = run_strategy(&rt, Strategy::Stor1, &AssignParams::default());
        assert_eq!(r1.multi_copy, 0, "{r1:?}");
    }

    #[test]
    fn stor3_group_count_is_respected() {
        let rt = sample_program();
        let (a, r) = run_strategy(&rt, Strategy::Stor3 { groups: 3 }, &AssignParams::default());
        assert_eq!(r.residual_conflicts, 0);
        assert_eq!(a.residual_conflicts(rt.flat()), 0);
    }

    #[test]
    fn regions_are_consecutive_ranges_of_the_flat_trace() {
        let rt = sample_program();
        assert_eq!(rt.flat().instructions.len(), 4);
        assert_eq!(rt.regions().collect::<Vec<_>>(), vec![0..2, 2..4]);
        let whole = RegionizedTrace::whole(rt.flat().clone());
        assert_eq!(whole.regions().collect::<Vec<_>>(), vec![0..4]);
        assert!(whole.globals.is_empty());
    }

    #[test]
    #[should_panic(expected = "region ends")]
    fn region_ends_must_reach_the_trace_end() {
        let rt = sample_program();
        let _ = RegionizedTrace::new(rt.flat().clone(), vec![2, 3], HashSet::new());
    }

    #[test]
    fn registry_parses_flags_and_names() {
        assert_eq!(Strategy::parse("1"), Some(Strategy::Stor1));
        assert_eq!(Strategy::parse("STOR2"), Some(Strategy::Stor2));
        assert_eq!(Strategy::parse("stor3"), Some(Strategy::STOR3));
        assert_eq!(Strategy::parse("exact"), Some(Strategy::Exact));
        assert_eq!(Strategy::parse("EXACT"), Some(Strategy::Exact));
        assert_eq!(Strategy::parse("0"), None);
        assert_eq!(Strategy::all().count(), 4);
        assert_eq!(Strategy::heuristics().count(), 3);
        assert!(Strategy::heuristics().all(|s| s != Strategy::Exact));
        for info in STRATEGY_REGISTRY {
            assert_eq!(info.strategy.name(), info.name);
            assert_eq!(Strategy::parse(info.flag), Some(info.strategy));
        }
    }

    #[test]
    fn exact_without_installed_solver_falls_back_to_stor1() {
        let rt = sample_program();
        let params = AssignParams::default();
        let (a, r) = run_strategy(&rt, Strategy::Exact, &params);
        assert_eq!(r.residual_conflicts, 0, "{r:?}");
        for v in rt.flat().distinct_values() {
            assert!(a.is_placed(v), "{v} unplaced");
        }
    }

    #[test]
    fn single_region_program_all_strategies_agree_on_freedom() {
        let rt =
            RegionizedTrace::whole(AccessTrace::from_lists(4, &[&[1, 2, 3, 4], &[1, 2, 3, 5]]));
        for s in [Strategy::Stor1, Strategy::Stor2, Strategy::STOR3] {
            let (_, r) = run_strategy(&rt, s, &AssignParams::default());
            assert_eq!(r.residual_conflicts, 0, "{}", s.name());
        }
    }
}
