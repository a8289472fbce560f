//! Re-derivation of every module-assignment invariant from the trace and
//! the assignment alone.
//!
//! Nothing here calls into `parmem_core`'s constructive algorithms or its
//! matching checker: the conflict test is an independent Kuhn matching over
//! plain `u64` bitmasks, the conflict graph is recounted pairwise from the
//! instruction stream, and the report numbers are recomputed from the
//! assignment. Agreement is therefore evidence, not tautology.

use std::collections::HashSet;

use parmem_core::assignment::{Assignment, AssignmentReport};
use parmem_core::types::{AccessTrace, ValueId};

use crate::diag::{Code, Diagnostic};

/// Maximum-cardinality bipartite matching between operands (bitmask of
/// candidate modules each) and modules with per-module capacity `cap`.
/// Returns the number of matched operands. Independent re-implementation of
/// Kuhn's algorithm — deliberately not shared with `parmem_core::matching`.
fn match_count(masks: &[u64], cap: usize) -> usize {
    if cap == 0 {
        return 0;
    }
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); 64];
    let mut matched = 0usize;

    fn try_place(
        op: usize,
        masks: &[u64],
        cap: usize,
        owners: &mut [Vec<usize>],
        visited: &mut u64,
    ) -> bool {
        let mut bits = masks[op];
        while bits != 0 {
            let m = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if *visited & (1u64 << m) != 0 {
                continue;
            }
            *visited |= 1u64 << m;
            if owners[m].len() < cap {
                owners[m].push(op);
                return true;
            }
            for slot in 0..owners[m].len() {
                let occupant = owners[m][slot];
                if try_place(occupant, masks, cap, owners, visited) {
                    owners[m][slot] = op;
                    return true;
                }
            }
        }
        false
    }

    for op in 0..masks.len() {
        let mut visited = 0u64;
        if try_place(op, masks, cap, &mut owners, &mut visited) {
            matched += 1;
        }
    }
    matched
}

/// Smallest per-module fetch load `L ≥ 1` that serves all operands, or
/// `None` if some operand has no candidate module.
pub(crate) fn min_makespan(masks: &[u64]) -> Option<usize> {
    if masks.is_empty() {
        return Some(1);
    }
    if masks.contains(&0) {
        return None;
    }
    let (mut lo, mut hi) = (1usize, masks.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if match_count(masks, mid) == masks.len() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// An independently recomputed per-word view of the assignment.
pub struct TraceAudit {
    /// Fetch makespan of each instruction (`usize::MAX` where an operand has
    /// no copy at all).
    pub makespans: Vec<usize>,
    /// Instructions that are not conflict-free, by index.
    pub conflicting: Vec<usize>,
}

impl TraceAudit {
    /// Recompute every instruction's fetch makespan under `assignment`.
    pub fn compute(trace: &AccessTrace, assignment: &Assignment) -> TraceAudit {
        let mut makespans = Vec::with_capacity(trace.instructions.len());
        let mut conflicting = Vec::new();
        for (i, inst) in trace.instructions.iter().enumerate() {
            let masks: Vec<u64> = inst.iter().map(|&v| assignment.copies(v).0).collect();
            let ms = min_makespan(&masks).unwrap_or(usize::MAX);
            if ms != 1 {
                conflicting.push(i);
            }
            makespans.push(ms);
        }
        TraceAudit {
            makespans,
            conflicting,
        }
    }
}

/// Verify every assignment invariant over `trace`, comparing against the
/// pipeline's own `report` when one is supplied.
pub fn check_assignment(
    trace: &AccessTrace,
    assignment: &Assignment,
    report: Option<&AssignmentReport>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let k = trace.modules;

    // PM007: copies must live in modules 0..k. Report once per value.
    let mut bad_modules: Vec<(u32, u64)> = Vec::new();
    for (v, set) in assignment.placed_values() {
        let out_of_range = set.0 & !low_mask(k);
        if out_of_range != 0 {
            bad_modules.push((v.0, out_of_range));
        }
    }
    for (v, bits) in bad_modules {
        diags.push(
            Diagnostic::new(
                Code::PM007,
                format!("value V{v} has copies in out-of-range modules (mask {bits:#x}, k={k})"),
            )
            .with_value(v),
        );
    }

    // Per-instruction checks: PM001 (oversized), PM002 (unplaced operand),
    // PM003 (no conflict-free matching).
    let audit = TraceAudit::compute(trace, assignment);
    let mut unplaced_reported: HashSet<ValueId> = HashSet::new();
    let mut residual = 0usize;
    for (i, inst) in trace.instructions.iter().enumerate() {
        if inst.len() > k {
            diags.push(
                Diagnostic::new(
                    Code::PM001,
                    format!("instruction fetches {} scalars but k={k}", inst.len()),
                )
                .at_instruction(i),
            );
        }
        for &v in inst {
            if assignment.copies(v).is_empty() && unplaced_reported.insert(v) {
                diags.push(
                    Diagnostic::new(Code::PM002, format!("value {v} has no copy in any module"))
                        .at_instruction(i)
                        .with_value(v.0),
                );
            }
        }
        if audit.makespans[i] != 1 {
            residual += 1;
            // Oversized instructions are expected to conflict — PM001 already
            // names them, so PM003 is reserved for genuine assignment bugs.
            if inst.len() <= k {
                let ops: Vec<String> = inst.iter().map(|v| v.to_string()).collect();
                diags.push(
                    Diagnostic::new(
                        Code::PM003,
                        format!(
                            "operands {{{}}} cannot be fetched from distinct modules \
                             (makespan {})",
                            ops.join(" "),
                            display_makespan(audit.makespans[i]),
                        ),
                    )
                    .at_instruction(i),
                );
            }
        }
    }

    // PM005: rebuild the conflict graph pairwise and flag any co-occurring
    // pair of single-copy values sharing their only module.
    let mut pairs: HashSet<(ValueId, ValueId)> = HashSet::new();
    for vs in &trace.instructions {
        for a in 0..vs.len() {
            for b in (a + 1)..vs.len() {
                let key = if vs[a] < vs[b] {
                    (vs[a], vs[b])
                } else {
                    (vs[b], vs[a])
                };
                pairs.insert(key);
            }
        }
    }
    let mut clashes: Vec<(ValueId, ValueId)> = pairs
        .into_iter()
        .filter(|&(u, v)| {
            let (cu, cv) = (assignment.copies(u), assignment.copies(v));
            cu.len() == 1 && cv.len() == 1 && cu == cv
        })
        .collect();
    clashes.sort();
    for (u, v) in clashes {
        diags.push(
            Diagnostic::new(
                Code::PM005,
                format!(
                    "values {u} and {v} co-occur but share their only module {:?}",
                    assignment.copies(u)
                ),
            )
            .with_value(u.0),
        );
    }

    // PM004/PM006: the pipeline's report must agree with a recount.
    if let Some(r) = report {
        if r.residual_conflicts != residual {
            diags.push(Diagnostic::new(
                Code::PM004,
                format!(
                    "report claims {} residual conflicts; independent recount finds {residual}",
                    r.residual_conflicts
                ),
            ));
        }
        let mut single = 0usize;
        let mut multi = 0usize;
        let mut extra = 0usize;
        for (_, set) in assignment.placed_values() {
            match set.len() {
                1 => single += 1,
                n => {
                    multi += 1;
                    extra += n - 1;
                }
            }
        }
        for (field, claimed, actual) in [
            ("single_copy", r.single_copy, single),
            ("multi_copy", r.multi_copy, multi),
            ("extra_copies", r.extra_copies, extra),
        ] {
            if claimed != actual {
                diags.push(Diagnostic::new(
                    Code::PM006,
                    format!("report claims {field}={claimed}; recount over the assignment finds {actual}"),
                ));
            }
        }
    }

    diags
}

fn low_mask(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

fn display_makespan(m: usize) -> String {
    if m == usize::MAX {
        "∞ — an operand is unplaced".to_string()
    } else {
        m.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmem_core::assignment::{assign_trace, AssignParams};
    use parmem_core::types::{ModuleId, ModuleSet};

    fn fig1() -> AccessTrace {
        AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4]])
    }

    #[test]
    fn independent_matching_agrees_with_core_on_edge_cases() {
        // Same fixtures as parmem_core::matching's own tests, recomputed.
        assert_eq!(min_makespan(&[]), Some(1));
        assert_eq!(min_makespan(&[0b1, 0b10, 0b100]), Some(1));
        assert_eq!(min_makespan(&[0b1, 0b1]), Some(2));
        assert_eq!(min_makespan(&[0b1, 0b11]), Some(1));
        assert_eq!(min_makespan(&[0b1, 0b11, 0b10]), Some(2));
        assert_eq!(min_makespan(&[0b1, 0b111, 0b10]), Some(1));
        assert_eq!(min_makespan(&[0b0, 0b10]), None);
        assert_eq!(min_makespan(&[0b1, 0b1, 0b1, 0b1]), Some(4));
        assert_eq!(min_makespan(&[0b1, 0b1, 0b11, 0b11]), Some(2));
    }

    #[test]
    fn pipeline_output_is_clean() {
        let t = fig1();
        let (a, r) = assign_trace(&t, &AssignParams::default());
        let diags = check_assignment(&t, &a, Some(&r));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn corrupted_assignment_names_the_instruction() {
        let t = fig1();
        let (mut a, _) = assign_trace(&t, &AssignParams::default());
        // Force the first instruction's first two operands into one module.
        let vs = &t.instructions[0];
        a.set_copies(vs[0], ModuleSet::singleton(ModuleId(0)));
        a.set_copies(vs[1], ModuleSet::singleton(ModuleId(0)));
        let diags = check_assignment(&t, &a, None);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::PM003 && d.instruction == Some(0)),
            "expected PM003 at instruction 0, got {diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == Code::PM005));
    }

    #[test]
    fn unplaced_operand_is_pm002() {
        let t = fig1();
        let (mut a, _) = assign_trace(&t, &AssignParams::default());
        a.set_copies(ValueId(2), ModuleSet::EMPTY);
        let diags = check_assignment(&t, &a, None);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PM002 && d.value == Some(2)));
    }

    #[test]
    fn stale_report_is_pm004_and_pm006() {
        let t = fig1();
        let (a, mut r) = assign_trace(&t, &AssignParams::default());
        r.residual_conflicts += 3;
        r.single_copy += 1;
        let diags = check_assignment(&t, &a, Some(&r));
        assert!(diags.iter().any(|d| d.code == Code::PM004));
        assert!(diags.iter().any(|d| d.code == Code::PM006));
    }

    #[test]
    fn oversized_instruction_is_pm001_not_pm003() {
        let t = AccessTrace::from_lists(2, &[&[1, 2, 3]]);
        let (a, r) = assign_trace(&t, &AssignParams::default());
        let diags = check_assignment(&t, &a, Some(&r));
        assert!(diags.iter().any(|d| d.code == Code::PM001));
        assert!(!diags.iter().any(|d| d.code == Code::PM003));
        // The pipeline reported the residual conflict, so no PM004.
        assert!(!diags.iter().any(|d| d.code == Code::PM004));
    }
}
