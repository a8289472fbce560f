//! Differential checks: the scheduled program's published access trace
//! against an independent reconstruction (PM009), and the statically
//! predicted conflict count against what the cycle-level simulator actually
//! measures (PM008).
//!
//! PM008 comes in two halves. [`predict`] is static: it reads only the
//! trace, the assignment and the control flow. [`compare`] holds a
//! prediction against one execution's [`SimStats`] and runs nothing, so a
//! caller that executes the program anyway (a pipeline job costing Table 2)
//! can hand that execution to the check instead of running it twice.

use liw_sched::{SOperand, SchedProgram, SchedTerm, SlotOp};
use parmem_core::assignment::Assignment;
use parmem_core::types::{AccessTrace, Instructions, ValueId};
use rliw_sim::SimStats;

use crate::assignment_check::min_makespan;
use crate::diag::{Code, Diagnostic};

/// Rebuild the access trace directly from the long words, without calling
/// `SchedProgram::access_trace` or any of its helpers. One operand set per
/// word; a `Branch` condition is fetched during its block's final word.
pub fn rebuild_trace(sched: &SchedProgram) -> AccessTrace {
    let words = sched.blocks.iter().map(|b| b.words.len()).sum();
    let mut insts = Instructions::with_capacity(words, 0);
    let mut reads: Vec<ValueId> = Vec::new();
    for b in &sched.blocks {
        for (wi, word) in b.words.iter().enumerate() {
            reads.clear();
            let mut push = |o: &SOperand| {
                if let SOperand::Scalar(w) = o {
                    reads.push(ValueId(*w));
                }
            };
            for op in &word.ops {
                match op {
                    SlotOp::Compute { lhs, rhs, .. } => {
                        push(lhs);
                        if let Some(r) = rhs {
                            push(r);
                        }
                    }
                    SlotOp::Load { index, .. } => push(index),
                    SlotOp::Store { index, value, .. } => {
                        push(index);
                        push(value);
                    }
                    SlotOp::Print { value } => push(value),
                    SlotOp::Select {
                        cond,
                        if_true,
                        if_false,
                        ..
                    } => {
                        push(cond);
                        push(if_true);
                        push(if_false);
                    }
                }
            }
            if wi + 1 == b.words.len() {
                if let SchedTerm::Branch { cond, .. } = &b.term {
                    push(cond);
                }
            }
            insts.push(reads.iter().copied());
        }
    }
    AccessTrace::new(sched.spec.modules, insts)
}

/// PM009: compare a caller-supplied trace (e.g. the block-major trace a
/// pipeline job publishes) against the program's reconstruction
/// ([`rebuild_trace`]), word by word. Catches both bugs in
/// `SchedProgram::access_trace` and stale traces that no longer describe the
/// program being verified.
pub fn check_trace_against(published: &AccessTrace, rebuilt: &AccessTrace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if published.modules != rebuilt.modules {
        diags.push(Diagnostic::new(
            Code::PM009,
            format!(
                "trace claims k={}, machine spec says k={}",
                published.modules, rebuilt.modules
            ),
        ));
    }
    if published.instructions.len() != rebuilt.instructions.len() {
        diags.push(Diagnostic::new(
            Code::PM009,
            format!(
                "trace has {} words, reconstruction from the program has {}",
                published.instructions.len(),
                rebuilt.instructions.len()
            ),
        ));
        return diags;
    }
    for (i, (p, r)) in published
        .instructions
        .iter()
        .zip(&rebuilt.instructions)
        .enumerate()
    {
        if p != r {
            diags.push(
                Diagnostic::new(
                    Code::PM009,
                    format!(
                        "trace word reads {}, reconstruction reads {}",
                        operand_set(p),
                        operand_set(r)
                    ),
                )
                .at_instruction(i),
            );
        }
    }
    diags
}

/// An operand set as PM009 names it: `{V1, V4}`.
fn operand_set(ops: &[ValueId]) -> String {
    let names: Vec<String> = ops.iter().map(ValueId::to_string).collect();
    format!("{{{}}}", names.join(", "))
}

/// What the verifier can predict about conflicts without executing.
pub struct StaticPrediction {
    /// Indices of static words whose scalar fetches must stall.
    pub conflicting_words: Vec<usize>,
    /// Exact dynamic conflict-word count, when control flow permits a static
    /// answer (straight-line chain from entry to halt: every reachable word
    /// executes exactly once).
    pub exact_dynamic: Option<u64>,
    /// Every value the program reads has at least one copy.
    pub all_placed: bool,
}

impl StaticPrediction {
    /// What [`compare`] needs of this prediction: a few scalars, without
    /// the word list, cheap to keep until the program has run.
    pub fn expectation(&self) -> Expectation {
        Expectation {
            conflict_free: self.conflicting_words.is_empty(),
            exact_dynamic: self.exact_dynamic,
            all_placed: self.all_placed,
        }
    }
}

/// A [`StaticPrediction`] reduced to what PM008 compares with a measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expectation {
    /// No static word's scalar fetches conflict.
    pub conflict_free: bool,
    /// See [`StaticPrediction::exact_dynamic`].
    pub exact_dynamic: Option<u64>,
    /// See [`StaticPrediction::all_placed`].
    pub all_placed: bool,
}

/// Predict scalar conflicts from the trace and assignment alone, using the
/// simulator's exact accounting: an unplaced value is fetched from module 0,
/// and a word with no scalar reads can never conflict.
pub fn predict(sched: &SchedProgram, assignment: &Assignment) -> StaticPrediction {
    predict_on(&rebuild_trace(sched), sched, assignment)
}

/// [`predict`] over `trace`, the program's reconstruction
/// ([`rebuild_trace`]).
pub(crate) fn predict_on(
    trace: &AccessTrace,
    sched: &SchedProgram,
    assignment: &Assignment,
) -> StaticPrediction {
    let mut conflicting = Vec::new();
    for (i, inst) in trace.instructions.iter().enumerate() {
        if inst.is_empty() {
            continue;
        }
        let masks: Vec<u64> = inst
            .iter()
            .map(|&v| match assignment.copies(v).0 {
                0 => 1, // the machine falls back to module 0
                m => m,
            })
            .collect();
        if min_makespan(&masks).unwrap_or(usize::MAX) > 1 {
            conflicting.push(i);
        }
    }

    // Straight-line check: from entry, each block jumps to at most one
    // successor and no block repeats → every reached word executes once.
    let mut visited = vec![false; sched.blocks.len()];
    let mut chain = Vec::new();
    let mut cur = Some(sched.entry.index());
    let mut linear = true;
    while let Some(b) = cur {
        if visited[b] {
            linear = false;
            break;
        }
        visited[b] = true;
        chain.push(b);
        cur = match &sched.blocks[b].term {
            SchedTerm::Jump(t) => Some(t.index()),
            SchedTerm::Halt => None,
            SchedTerm::Branch { .. } => {
                linear = false;
                break;
            }
        };
    }

    let exact_dynamic = if linear {
        let mut word_start = vec![0usize; sched.blocks.len()];
        let mut acc = 0usize;
        for (bi, b) in sched.blocks.iter().enumerate() {
            word_start[bi] = acc;
            acc += b.words.len();
        }
        let executed: std::collections::HashSet<usize> = chain
            .iter()
            .flat_map(|&bi| word_start[bi]..word_start[bi] + sched.blocks[bi].words.len())
            .collect();
        Some(conflicting.iter().filter(|w| executed.contains(w)).count() as u64)
    } else {
        None
    };

    // Unplaced scalar reads are also statically known.
    let all_placed = trace
        .distinct_values()
        .iter()
        .all(|&v| !assignment.copies(v).is_empty());

    StaticPrediction {
        conflicting_words: conflicting,
        exact_dynamic,
        all_placed,
    }
}

/// PM008's comparison: hold `measured`, the statistics of one execution of
/// the program, to the static prediction.
///
/// Three mutually checkable facts:
/// * no static conflicts ⇒ the machine must measure zero stalls;
/// * every value placed ⇒ the machine must observe zero unplaced reads;
/// * on straight-line programs the counts must agree exactly.
///
/// Both counts come from the simulator's static fetch plan weighted by the
/// block execution counts, so they are the same under every array policy
/// of one run.
pub fn compare(expected: &Expectation, measured: &SimStats) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if expected.conflict_free && measured.scalar_conflict_words != 0 {
        diags.push(Diagnostic::new(
            Code::PM008,
            format!(
                "static analysis predicts zero conflict words but the simulator \
                 measured {}",
                measured.scalar_conflict_words
            ),
        ));
    }
    if let Some(exact) = expected.exact_dynamic {
        if exact != measured.scalar_conflict_words {
            diags.push(Diagnostic::new(
                Code::PM008,
                format!(
                    "straight-line program: static analysis predicts exactly {exact} \
                     conflict words, simulator measured {}",
                    measured.scalar_conflict_words
                ),
            ));
        }
    }

    if expected.all_placed && measured.unplaced_reads != 0 {
        diags.push(Diagnostic::new(
            Code::PM008,
            format!(
                "every value has a copy, yet the simulator counted {} unplaced reads",
                measured.unplaced_reads
            ),
        ));
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use liw_sched::{compile_and_schedule, MachineSpec};
    use parmem_core::assignment::{assign_trace, AssignParams};
    use parmem_core::baseline::single_module;
    use rliw_sim::ArrayPlacement;

    const STRAIGHT: &str = "program t; var a, b, c, d, e: int;
        begin
          a := 1; b := 2; c := a + b; d := b + c; e := c + d;
          print a + e;
        end.";

    const LOOPY: &str = "program t; var i, s: int;
        begin s := 0; for i := 1 to 20 do s := s + i; print s; end.";

    fn setup(src: &str, k: usize) -> (SchedProgram, Assignment) {
        let sp = compile_and_schedule(src, MachineSpec::with_modules(k)).unwrap();
        let (a, _) = assign_trace(&sp.access_trace(), &AssignParams::default());
        (sp, a)
    }

    /// One execution of `sp` under `a` with ideal array placement.
    fn measure(sp: &SchedProgram, a: &Assignment) -> SimStats {
        rliw_sim::run(sp, a, ArrayPlacement::Ideal).unwrap()
    }

    #[test]
    fn reconstruction_matches_published_trace() {
        for src in [STRAIGHT, LOOPY] {
            for k in [2, 4, 8] {
                let sp = compile_and_schedule(src, MachineSpec::with_modules(k)).unwrap();
                let rebuilt = rebuild_trace(&sp);
                let published = sp.access_trace();
                assert!(check_trace_against(&published, &rebuilt).is_empty());
                assert_eq!(rebuilt.instructions, published.instructions);
            }
        }
    }

    #[test]
    fn stale_trace_is_pm009() {
        let (sp, _) = setup(STRAIGHT, 4);
        let stale = sp.access_trace();
        // The program grows a word after the trace was taken.
        let mut sp2 = sp.clone();
        sp2.blocks[0].words.push(liw_sched::LongWord::default());
        let diags = check_trace_against(&stale, &rebuild_trace(&sp2));
        assert!(
            diags.iter().any(|d| d.code == Code::PM009),
            "expected PM009, got {diags:?}"
        );
    }

    #[test]
    fn verified_assignment_differentially_clean() {
        for src in [STRAIGHT, LOOPY] {
            let (sp, a) = setup(src, 4);
            let diags = compare(&predict(&sp, &a).expectation(), &measure(&sp, &a));
            assert!(diags.is_empty(), "{src}: {diags:?}");
        }
    }

    #[test]
    fn straight_line_baseline_predicts_exactly() {
        // Single-module baseline on a straight-line program: the static
        // conflict count equals the dynamic one exactly, so the differential
        // check still passes even with a conflict-ridden layout.
        let (sp, _) = setup(STRAIGHT, 4);
        let baseline = single_module(&sp.access_trace());
        let prediction = predict(&sp, &baseline);
        assert!(
            prediction.exact_dynamic.is_some(),
            "program is straight-line"
        );
        assert!(!prediction.conflicting_words.is_empty());
        let stats = measure(&sp, &baseline);
        let diags = compare(&prediction.expectation(), &stats);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(
            prediction.exact_dynamic.unwrap(),
            stats.scalar_conflict_words
        );
    }

    #[test]
    fn loops_defeat_exact_prediction_but_not_the_check() {
        let (sp, a) = setup(LOOPY, 2);
        let prediction = predict(&sp, &a);
        assert!(
            prediction.exact_dynamic.is_none(),
            "loop is not straight-line"
        );
        assert!(compare(&prediction.expectation(), &measure(&sp, &a)).is_empty());
    }

    /// The one diagnostic `compare` reports for `measured`, which must be a
    /// PM008.
    fn lone_pm008(expected: &Expectation, measured: &SimStats) -> String {
        let diags = compare(expected, measured);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PM008);
        diags[0].message.clone()
    }

    #[test]
    fn comparison_flags_each_doctored_measurement() {
        // A loop with a verified assignment: no static conflicts, no exact
        // count, every value placed.
        let (sp, a) = setup(LOOPY, 4);
        let expected = predict(&sp, &a).expectation();
        assert_eq!(
            expected,
            Expectation {
                conflict_free: true,
                exact_dynamic: None,
                all_placed: true,
            }
        );
        let stats = measure(&sp, &a);
        assert!(compare(&expected, &stats).is_empty());

        let mut stalled = stats.clone();
        stalled.scalar_conflict_words = 1;
        assert_eq!(
            lone_pm008(&expected, &stalled),
            "static analysis predicts zero conflict words but the simulator measured 1"
        );

        let mut unplaced = stats;
        unplaced.unplaced_reads = 3;
        assert_eq!(
            lone_pm008(&expected, &unplaced),
            "every value has a copy, yet the simulator counted 3 unplaced reads"
        );

        // A straight line on one module: conflicts predicted exactly.
        let (sp, _) = setup(STRAIGHT, 4);
        let baseline = single_module(&sp.access_trace());
        let expected = predict(&sp, &baseline).expectation();
        let exact = expected.exact_dynamic.expect("program is straight-line");
        assert!(!expected.conflict_free && exact > 0);
        let mut miscounted = measure(&sp, &baseline);
        assert!(compare(&expected, &miscounted).is_empty());
        miscounted.scalar_conflict_words = exact + 1;
        assert_eq!(
            lone_pm008(&expected, &miscounted),
            format!(
                "straight-line program: static analysis predicts exactly {exact} \
                 conflict words, simulator measured {}",
                exact + 1
            )
        );
    }
}
