//! Independent re-validation of exact-solver certificates (PM201–PM206).
//!
//! `parmem-exact` claims bounds on the minimum residual-conflict count of
//! any single-copy assignment; this module re-checks everything checkable
//! without replaying the search, from the trace alone:
//!
//! * **PM201** — the witness places every distinct trace value exactly
//!   once, in a module `0..k`;
//! * **PM202** — the witness's residual, recounted here instruction by
//!   instruction, equals the claimed upper bound;
//! * **PM203** — every clique in the evidence really is a clique (pairwise
//!   co-occurrence in some instruction), has more than `k` members, and the
//!   clique family is vertex- and support-disjoint (so the bound adds);
//! * **PM204** — `evidence_lower <= lower <= upper` and the status matches
//!   the bounds (`optimal` ⇔ closed gap, `infeasible-at-k` ⇔ positive open
//!   lower bound, `bounded` otherwise);
//! * **PM205** — the claimed evidence-backed lower bound does not exceed
//!   what the valid cliques support;
//! * **PM206** — when a heuristic residual is supplied, it is not below the
//!   certified lower bound (the optimality gap can never be negative).
//!
//! The witness residual (PM202) is recounted directly against the raw
//! trace, independent of any solver structure. The clique-evidence checks
//! (PM203) re-derive co-occurrence and instruction support through the
//! shared CSR structures of `parmem-core` — [`ConflictGraph`] for pairwise
//! co-occurrence and [`InstructionView`] for support counting — the same
//! API `parmem-exact` builds its evidence from, rather than each side
//! maintaining its own pair map.

use std::collections::{HashMap, HashSet};

use parmem_core::graph::ConflictGraph;
use parmem_core::instview::InstructionView;
use parmem_core::types::{AccessTrace, ValueId};
use parmem_exact::{CertStatus, Certificate};

use crate::diag::{Code, Diagnostic};

/// Re-validate one certificate against the trace it claims to bound.
/// `heuristic_residual` optionally adds the PM206 negative-gap check.
pub fn check_certificate(
    trace: &AccessTrace,
    cert: &Certificate,
    heuristic_residual: Option<usize>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let k = trace.modules;

    if cert.k != k {
        out.push(Diagnostic::new(
            Code::PM204,
            format!("certificate is for k={}, trace has k={k}", cert.k),
        ));
    }

    // PM201: witness well-formedness.
    let mut placed: HashMap<ValueId, u16> = HashMap::new();
    for &(v, m) in &cert.witness {
        if placed.insert(v, m.0).is_some() {
            out.push(
                Diagnostic::new(Code::PM201, format!("{v} placed more than once")).with_value(v.0),
            );
        }
        if (m.0 as usize) >= k {
            out.push(
                Diagnostic::new(
                    Code::PM201,
                    format!("{v} placed in out-of-range module {}", m.0),
                )
                .with_value(v.0),
            );
        }
    }
    let distinct = trace.distinct_values();
    for &v in &distinct {
        if !placed.contains_key(&v) {
            out.push(
                Diagnostic::new(Code::PM201, format!("trace value {v} missing from witness"))
                    .with_value(v.0),
            );
        }
    }

    // PM202: recount the witness residual directly over the trace.
    let mut residual = 0usize;
    for inst in &trace.instructions {
        let mut seen = [false; 64 + 1];
        let mut conflict = false;
        let mut any_unplaced = false;
        for v in inst.iter() {
            match placed.get(v) {
                Some(&m) => {
                    let slot = (m as usize).min(64);
                    if seen[slot] {
                        conflict = true;
                    }
                    seen[slot] = true;
                }
                None => any_unplaced = true,
            }
        }
        if conflict || (any_unplaced && inst.len() >= 2) {
            residual += 1;
        }
    }
    if residual != cert.upper {
        out.push(Diagnostic::new(
            Code::PM202,
            format!(
                "witness residual recounts to {residual}, certificate claims upper {}",
                cert.upper
            ),
        ));
    }

    // PM203: clique evidence. Two values co-occur iff they share a conflict
    // graph edge; a clique's support is the set of multi-operand
    // instructions holding >= 2 of its members (the instruction view).
    let graph = ConflictGraph::build(trace);
    let view = InstructionView::build(&graph, trace);
    let cooccur = |a: ValueId, b: ValueId| -> bool {
        match (graph.vertex_of(a), graph.vertex_of(b)) {
            (Some(u), Some(v)) => graph.has_edge(u, v),
            _ => false,
        }
    };
    let mut used_values: HashSet<ValueId> = HashSet::new();
    let mut used_insts: HashSet<u32> = HashSet::new();
    let mut valid_cliques = 0usize;
    for (ci, clique) in cert.cliques.iter().enumerate() {
        let mut ok = true;
        if clique.len() <= k {
            out.push(Diagnostic::new(
                Code::PM203,
                format!("clique {ci} has {} members, needs > {k}", clique.len()),
            ));
            ok = false;
        }
        let set: HashSet<ValueId> = clique.iter().copied().collect();
        if set.len() != clique.len() {
            out.push(Diagnostic::new(
                Code::PM203,
                format!("clique {ci} repeats a value"),
            ));
            ok = false;
        }
        for (ai, &a) in clique.iter().enumerate() {
            for &b in &clique[ai + 1..] {
                if !cooccur(a, b) {
                    out.push(
                        Diagnostic::new(
                            Code::PM203,
                            format!("clique {ci}: {a} and {b} never co-occur"),
                        )
                        .with_value(a.0),
                    );
                    ok = false;
                }
            }
        }
        if clique.iter().any(|v| used_values.contains(v)) {
            out.push(Diagnostic::new(
                Code::PM203,
                format!("clique {ci} shares a value with an earlier clique"),
            ));
            ok = false;
        }
        // Support: instructions holding >= 2 clique members.
        let support: Vec<u32> = view.support_of(|u| set.contains(&graph.value(u)));
        if support.iter().any(|i| used_insts.contains(i)) {
            out.push(Diagnostic::new(
                Code::PM203,
                format!("clique {ci}'s instruction support overlaps an earlier clique's"),
            ));
            ok = false;
        }
        if ok {
            valid_cliques += 1;
            used_values.extend(set);
            used_insts.extend(support);
        }
    }

    // PM204: bound / status consistency.
    if cert.lower > cert.upper {
        out.push(Diagnostic::new(
            Code::PM204,
            format!("lower {} exceeds upper {}", cert.lower, cert.upper),
        ));
    }
    if cert.evidence_lower > cert.lower {
        out.push(Diagnostic::new(
            Code::PM204,
            format!(
                "evidence_lower {} exceeds lower {}",
                cert.evidence_lower, cert.lower
            ),
        ));
    }
    let implied = CertStatus::classify(cert.lower, cert.upper);
    if cert.status != implied {
        out.push(Diagnostic::new(
            Code::PM204,
            format!(
                "status \"{}\" does not match bounds [{}, {}] (implies \"{}\")",
                cert.status.as_str(),
                cert.lower,
                cert.upper,
                implied.as_str()
            ),
        ));
    }

    // PM205: the evidence-backed part of the lower bound must be supported.
    if cert.evidence_lower > valid_cliques {
        out.push(Diagnostic::new(
            Code::PM205,
            format!(
                "claimed evidence_lower {} but only {valid_cliques} valid cliques",
                cert.evidence_lower
            ),
        ));
    }

    // PM206: the heuristic can never beat a certified lower bound.
    if let Some(h) = heuristic_residual {
        if h < cert.lower {
            out.push(Diagnostic::new(
                Code::PM206,
                format!(
                    "heuristic residual {h} below certified lower bound {} (negative gap)",
                    cert.lower
                ),
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmem_exact::{solve_certificate, ExactConfig};

    fn k3_trace() -> AccessTrace {
        AccessTrace::from_lists(2, &[&[0, 1, 2]])
    }

    #[test]
    fn solver_certificates_validate_clean() {
        let trace = k3_trace();
        let cert = solve_certificate(&trace, &ExactConfig::default());
        let diags = check_certificate(&trace, &cert, Some(1));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn tampered_upper_trips_pm202_and_pm204() {
        let trace = k3_trace();
        let mut cert = solve_certificate(&trace, &ExactConfig::default());
        cert.upper = 0;
        let diags = check_certificate(&trace, &cert, None);
        assert!(diags.iter().any(|d| d.code == Code::PM202), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == Code::PM204), "{diags:?}");
    }

    #[test]
    fn tampered_witness_trips_pm201() {
        let trace = k3_trace();
        let mut cert = solve_certificate(&trace, &ExactConfig::default());
        cert.witness.pop();
        let diags = check_certificate(&trace, &cert, None);
        assert!(diags.iter().any(|d| d.code == Code::PM201), "{diags:?}");
    }

    #[test]
    fn fabricated_clique_trips_pm203_and_pm205() {
        let trace = k3_trace();
        let mut cert = solve_certificate(&trace, &ExactConfig::default());
        // A second clique reusing the same values (and support).
        cert.cliques.push(cert.cliques[0].clone());
        cert.evidence_lower = 2;
        cert.lower = 2;
        cert.upper = 2;
        let diags = check_certificate(&trace, &cert, None);
        assert!(diags.iter().any(|d| d.code == Code::PM203), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == Code::PM205), "{diags:?}");
    }

    #[test]
    fn negative_gap_trips_pm206() {
        let trace = k3_trace();
        let cert = solve_certificate(&trace, &ExactConfig::default());
        assert_eq!(cert.lower, 1);
        let diags = check_certificate(&trace, &cert, Some(0));
        assert!(diags.iter().any(|d| d.code == Code::PM206), "{diags:?}");
    }
}
