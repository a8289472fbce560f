#![warn(missing_docs)]

//! # parmem-exact
//!
//! An exact solver for the paper's storage-assignment problem, with
//! certified optimality gaps. Where `parmem-core` implements the paper's
//! heuristics (weighted-urgency coloring, backtracking duplication), this
//! crate answers the calibration question those heuristics leave open: *how
//! far from optimal do they land?*
//!
//! The objective mirrors the paper's order: first minimize the number of
//! instructions that conflict under a **single-copy** assignment (a
//! conflict-free one exists iff the access-conflict graph is k-colorable),
//! then — among residual-optimal assignments — minimize the copies the
//! duplication repair must add. The solver is a per-component
//! branch-and-bound ([`bnb`]) with clique lower bounds ([`clique`]),
//! symmetry breaking on module names, and a node/time budget; a DSATUR +
//! iterated-local-search portfolio ([`portfolio`]) keeps the upper bound
//! honest when the budget runs out. Every run emits a machine-checkable
//! [`Certificate`] (optimal / infeasible-at-k / bounded) that
//! `parmem-verify` re-validates independently as PM201–PM206 diagnostics.
//!
//! With `budget_ms == 0` (the default) the solve is fully deterministic:
//! same trace, same config, same certificate — byte for byte.

pub mod certificate;
pub mod gap;

mod bnb;
mod clique;
mod instance;
mod portfolio;

pub use certificate::{CertStatus, Certificate};
pub use gap::heuristic_single_copy_residual;

use parmem_core::assignment::{AssignParams, Assignment};
use parmem_core::types::{AccessTrace, ModuleId, ModuleSet};

use bnb::{Budget, Searcher};
use instance::{Instance, NONE};

/// Solver limits and knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactConfig {
    /// Branch-and-bound node budget (shared across components; the solve is
    /// deterministic for a fixed value).
    pub budget_nodes: u64,
    /// Wall-clock budget in milliseconds; `0` disables the clock (default),
    /// keeping runs deterministic.
    pub budget_ms: u64,
    /// Run the ILS portfolio when the exact budget is exhausted.
    pub portfolio: bool,
    /// RNG seed for the portfolio (per-component streams derive from it).
    pub seed: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            budget_nodes: 2_000_000,
            budget_ms: 0,
            portfolio: true,
            seed: 0x5EED_CAFE,
        }
    }
}

/// Everything one exact solve produces.
#[derive(Clone, Debug)]
pub struct ExactOutcome {
    /// The certified bounds, witness, and evidence.
    pub certificate: Certificate,
    /// The witness assignment after duplication repair: conflict-free when
    /// the trace admits it (i.e. no instruction reads more than `k`
    /// scalars), at the cost of `certificate.copies_upper` extra copies.
    pub assignment: Assignment,
}

/// How many residual-optimal colorings the copy-minimization phase compares
/// per component.
const COPY_CANDIDATES: usize = 32;

/// Solve one trace exactly (within budget). See the crate docs for the
/// objective and certificate semantics.
pub fn solve(trace: &AccessTrace, cfg: &ExactConfig) -> ExactOutcome {
    let mut sp = parmem_obs::span("exact.solve");
    let inst = Instance::build(trace);
    let k = inst.k;
    sp.attr("k", k);
    sp.attr("values", inst.n);
    sp.attr("multi_op_insts", inst.view.len());

    let mut colors = vec![NONE; inst.n];
    let mut cliques_out: Vec<Vec<u32>> = Vec::new();
    let mut lower = 0usize;
    let mut evidence_lower = 0usize;
    let mut upper = 0usize;
    let mut nodes = 0u64;
    let mut tightened = 0u64;
    let mut restarts = 0u64;
    let mut exhausted = false;

    if k > 0 && inst.n > 0 {
        let comps = inst.graph.connected_components();
        // Component of each vertex -> instruction lists per component.
        let mut comp_of = vec![0u32; inst.n];
        for (ci, comp) in comps.iter().enumerate() {
            for &v in comp {
                comp_of[v as usize] = ci as u32;
            }
        }
        let mut comp_insts: Vec<Vec<u32>> = vec![Vec::new(); comps.len()];
        for (i, vs) in inst.view.iter().enumerate() {
            comp_insts[comp_of[vs[0] as usize] as usize].push(i as u32);
        }

        let mut budget = Budget::new(cfg.budget_nodes, cfg.budget_ms);
        for (ci, comp) in comps.iter().enumerate() {
            let local = &comp_insts[ci];
            if comp.len() == 1 || local.is_empty() {
                for &v in comp {
                    colors[v as usize] = 0;
                }
                continue;
            }
            let mut csp = parmem_obs::span("exact.bnb");
            csp.attr("component", ci);
            csp.attr("vertices", comp.len());

            let seed_cost = portfolio::dsatur_seed(&inst, comp, local, &mut colors);
            let ev = clique::clique_evidence(&inst, comp);
            let lb_c = ev.len();
            cliques_out.extend(ev);
            evidence_lower += lb_c;

            let (upper_c, lower_c, optimal) = if seed_cost == lb_c {
                // The greedy seed already meets the clique bound.
                (seed_cost, seed_cost, true)
            } else {
                let r = Searcher::new(&inst, comp, &colors, seed_cost).run(&mut budget);
                nodes += r.nodes;
                tightened += r.tightened;
                for (i, &v) in r.order.iter().enumerate() {
                    colors[v as usize] = r.best_colors[i];
                }
                if r.optimal {
                    (r.best, r.best, true)
                } else {
                    exhausted = true;
                    let mut up = r.best;
                    if cfg.portfolio {
                        let (ils_cost, ils_restarts) = portfolio::ils_improve(
                            &inst,
                            comp,
                            local,
                            &mut colors,
                            up,
                            lb_c,
                            cfg.seed ^ (ci as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        restarts += ils_restarts;
                        if ils_cost < up {
                            up = ils_cost;
                            tightened += 1;
                        }
                    }
                    (up, lb_c.min(up), false)
                }
            };

            // Copy-minimization phase: among residual-optimal colorings of
            // this component, keep the one whose local duplication repair
            // adds the fewest copies.
            if optimal && upper_c > 0 && !budget.exhausted {
                let local_trace = AccessTrace::new(
                    k,
                    local
                        .iter()
                        .map(|&i| inst.view.operands(i).iter().map(|&v| inst.graph.value(v)))
                        .collect(),
                );
                let comp_values: Vec<_> = comp.iter().map(|&v| inst.graph.value(v)).collect();
                let s = Searcher::new(&inst, comp, &colors, upper_c);
                let (optima, extra_nodes) = s.collect_optima(upper_c, COPY_CANDIDATES, &mut budget);
                nodes += extra_nodes;
                let mut best: Option<(usize, &Vec<u8>, &[u32])> = None;
                let order = {
                    let mut o = comp.to_vec();
                    o.sort_by_key(|&v| (std::cmp::Reverse(inst.graph.degree(v)), v));
                    o
                };
                for cand in &optima {
                    let mut a = Assignment::new(k);
                    for (i, &v) in order.iter().enumerate() {
                        a.set_copies(
                            inst.graph.value(v),
                            ModuleSet::singleton(ModuleId(cand[i] as u16)),
                        );
                    }
                    parmem_core::duplication::backtrack_duplicate(
                        &local_trace,
                        &comp_values,
                        &mut a,
                    );
                    let extra = a.extra_copies();
                    if best.as_ref().map(|b| extra < b.0).unwrap_or(true) {
                        best = Some((extra, cand, &order));
                    }
                }
                if let Some((_, cand, ord)) = best {
                    for (i, &v) in ord.iter().enumerate() {
                        colors[v as usize] = cand[i];
                    }
                }
            }

            lower += lower_c;
            upper += upper_c;
            csp.attr("lower", lower_c);
            csp.attr("upper", upper_c);
        }
        if budget.exhausted {
            exhausted = true;
        }
    }

    debug_assert!(colors.iter().all(|&c| c != NONE) || inst.n == 0);
    debug_assert_eq!(inst.residual_of(&colors), upper);
    debug_assert!(evidence_lower <= lower);

    let witness: Vec<(_, _)> = (0..inst.n as u32)
        .map(|v| (inst.graph.value(v), ModuleId(colors[v as usize] as u16)))
        .collect();
    let cliques = cliques_out
        .into_iter()
        .map(|c| c.into_iter().map(|v| inst.graph.value(v)).collect())
        .collect();

    // Repair the witness into the conflict-free assignment the pipeline
    // consumes; the copies it takes is the certified copies upper bound.
    let mut assignment = Assignment::new(k);
    for &(v, m) in &witness {
        assignment.set_copies(v, ModuleSet::singleton(m));
    }
    if upper > 0 {
        let all = trace.distinct_values();
        parmem_core::duplication::backtrack_duplicate(trace, &all, &mut assignment);
    }
    let copies_upper = assignment.extra_copies();

    parmem_obs::counter_add("exact.nodes_expanded", nodes);
    parmem_obs::counter_add("exact.bounds_tightened", tightened);
    parmem_obs::counter_add("exact.ils_restarts", restarts);
    let status = CertStatus::classify(lower, upper);
    sp.attr("status", status.as_str());
    sp.attr("lower", lower);
    sp.attr("upper", upper);
    sp.attr("nodes", nodes);

    ExactOutcome {
        certificate: Certificate {
            k,
            status,
            lower,
            evidence_lower,
            upper,
            copies_upper,
            witness,
            cliques,
            nodes_expanded: nodes,
            bounds_tightened: tightened,
            ils_restarts: restarts,
            budget_exhausted: exhausted,
        },
        assignment,
    }
}

/// [`solve`] and keep only the certificate.
pub fn solve_certificate(trace: &AccessTrace, cfg: &ExactConfig) -> Certificate {
    solve(trace, cfg).certificate
}

/// Register this crate as the [`parmem_core::Strategy::Exact`] backend
/// (idempotent; first caller wins). `parmem-driver`'s `Session::assign`
/// calls this before it dispatches a strategy, so every pipeline path that
/// asks for EXACT runs the solver.
pub fn install() {
    parmem_core::strategies::install_exact_solver(solver_entry);
}

fn solver_entry(trace: &AccessTrace, _params: &AssignParams, a: &mut Assignment) {
    let out = solve(trace, &ExactConfig::default());
    for &(v, m) in &out.certificate.witness {
        a.set_copies(v, ModuleSet::singleton(m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_trivially_optimal() {
        let trace = AccessTrace::from_lists(4, &[]);
        let c = solve_certificate(&trace, &ExactConfig::default());
        assert_eq!(c.status, CertStatus::Optimal);
        assert_eq!((c.lower, c.upper), (0, 0));
        assert!(c.witness.is_empty());
    }

    #[test]
    fn k4_on_three_modules_is_infeasible_and_proven() {
        let trace = AccessTrace::from_lists(3, &[&[0, 1, 2, 3]]);
        let c = solve_certificate(&trace, &ExactConfig::default());
        assert_eq!(c.status, CertStatus::Optimal);
        assert_eq!((c.lower, c.upper), (1, 1));
        assert!(c.proves_infeasible());
        assert_eq!(c.evidence_lower, 1);
        assert_eq!(c.cliques.len(), 1);
    }

    #[test]
    fn two_triangles_cost_two_on_two_modules() {
        let trace = AccessTrace::from_lists(2, &[&[0, 1, 2], &[3, 4, 5]]);
        let c = solve_certificate(&trace, &ExactConfig::default());
        assert_eq!(c.status, CertStatus::Optimal);
        assert_eq!((c.lower, c.upper), (2, 2));
        assert_eq!(c.evidence_lower, 2);
    }

    #[test]
    fn bipartite_component_is_conflict_free() {
        let trace = AccessTrace::from_lists(2, &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        let out = solve(&trace, &ExactConfig::default());
        let c = &out.certificate;
        assert_eq!(c.status, CertStatus::Optimal);
        assert_eq!((c.lower, c.upper), (0, 0));
        assert_eq!(c.copies_upper, 0);
        assert_eq!(out.assignment.residual_conflicts(&trace), 0);
    }

    #[test]
    fn tiny_node_budget_reports_bounded_or_infeasible() {
        // Dense K10 on 3 modules; 2 nodes of budget cannot close it.
        let lists: Vec<Vec<u32>> = (0..10u32)
            .flat_map(|i| (i + 1..10).map(move |j| vec![i, j]))
            .collect();
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let trace = AccessTrace::from_lists(3, &refs);
        let cfg = ExactConfig {
            budget_nodes: 2,
            ..ExactConfig::default()
        };
        let c = solve_certificate(&trace, &cfg);
        assert!(c.budget_exhausted);
        assert!(c.lower <= c.upper);
        assert_ne!(c.status, CertStatus::Optimal);
    }

    #[test]
    fn repaired_assignment_is_conflict_free_when_words_fit() {
        // Triangles conflict as single copies but repair with duplication.
        let trace = AccessTrace::from_lists(2, &[&[0, 1], &[1, 2], &[0, 2]]);
        let out = solve(&trace, &ExactConfig::default());
        assert_eq!(out.certificate.upper, 1);
        assert_eq!(out.assignment.residual_conflicts(&trace), 0);
        assert!(out.certificate.copies_upper >= 1);
    }

    #[test]
    fn solve_is_deterministic() {
        let trace = AccessTrace::from_lists(2, &[&[0, 1, 2], &[2, 3, 4], &[4, 5, 0], &[1, 3, 5]]);
        let cfg = ExactConfig::default();
        let a = solve_certificate(&trace, &cfg);
        let b = solve_certificate(&trace, &cfg);
        assert_eq!(a.to_json(), b.to_json());
    }
}
