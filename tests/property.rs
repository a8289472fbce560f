//! Property-based tests over the whole stack (proptest).
//!
//! The invariants here are the load-bearing guarantees of the paper's
//! algorithms: conflict-freedom after assignment (verified by an
//! independent bipartite-matching checker), coloring validity, hitting-set
//! coverage, atom soundness, and simulator timing bounds.

use proptest::prelude::*;

use parallel_memories::core::atoms;
use parallel_memories::core::coloring::{color_graph, coloring_is_valid};
use parallel_memories::core::duplication::hitting_set;
use parallel_memories::core::graph::ConflictGraph;
use parallel_memories::core::matching;
use parallel_memories::core::prelude::{
    assign_trace, AccessTrace, AssignParams, DuplicationStrategy, OperandSet, ValueId,
};
use parallel_memories::core::types::{ModuleId, ModuleSet};

/// Strategy: a random access trace with `k` in 2..=8 and instructions whose
/// operand count never exceeds `k`.
fn arb_trace() -> impl Strategy<Value = AccessTrace> {
    (2usize..=8).prop_flat_map(|k| {
        let inst = proptest::collection::vec(0u32..40, 1..=k);
        proptest::collection::vec(inst, 1..60).prop_map(move |insts| {
            AccessTrace::new(
                k,
                insts
                    .into_iter()
                    .map(|ops| OperandSet::new(ops.into_iter().map(ValueId).collect()))
                    .collect(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The paper's end-to-end guarantee: after Fig. 2's pipeline, every
    /// instruction with ≤ k operands is conflict-free (checked by matching,
    /// an algorithm independent of the constructive ones).
    #[test]
    fn assignment_is_always_conflict_free(trace in arb_trace()) {
        for dup in [DuplicationStrategy::Backtrack, DuplicationStrategy::HittingSet] {
            for use_atoms in [true, false] {
                let params = AssignParams { duplication: dup, use_atoms, ..Default::default() };
                let (a, report) = assign_trace(&trace, &params);
                prop_assert_eq!(report.residual_conflicts, 0,
                    "{:?} atoms={} report={:?}", dup, use_atoms, report);
                for inst in &trace.instructions {
                    prop_assert!(a.instruction_conflict_free(inst));
                }
            }
        }
    }

    /// Every placed value has at least one copy; extra copies only for
    /// values involved in conflicts.
    #[test]
    fn every_used_value_is_placed(trace in arb_trace()) {
        let (a, _) = assign_trace(&trace, &AssignParams::default());
        for v in trace.distinct_values() {
            prop_assert!(a.is_placed(v), "{v} unplaced");
            prop_assert!(a.copies(v).len() <= trace.modules);
        }
    }

    /// Coloring never assigns the same module to two adjacent colored nodes.
    #[test]
    fn coloring_is_valid_on_random_graphs(trace in arb_trace()) {
        let g = ConflictGraph::build(&trace);
        let c = color_graph(&g, trace.modules, |_| ModuleSet::EMPTY);
        prop_assert!(coloring_is_valid(&g, &c));
        prop_assert_eq!(c.assigned.len() + c.unassigned.len(), g.len());
    }

    /// Nodes with degree < k are always colored (paper's weight rule).
    #[test]
    fn low_degree_nodes_always_colored(trace in arb_trace()) {
        let g = ConflictGraph::build(&trace);
        let c = color_graph(&g, trace.modules, |_| ModuleSet::EMPTY);
        for &v in &c.unassigned {
            prop_assert!(g.degree(v) >= trace.modules);
        }
    }

    /// The exact solver's certificate survives independent re-validation
    /// (PM201–PM206), and the paper heuristic can never beat a certified
    /// lower bound — where optimality is proven, heuristic residual ≥ the
    /// certified optimum (the optimality gap is never negative).
    #[test]
    fn exact_certificates_validate_and_bound_the_heuristic(trace in arb_trace()) {
        use parallel_memories::exact::{
            heuristic_single_copy_residual, solve_certificate, CertStatus, ExactConfig,
        };
        let cfg = ExactConfig { budget_nodes: 20_000, ..Default::default() };
        let cert = solve_certificate(&trace, &cfg);
        let h = heuristic_single_copy_residual(&trace);
        let report = parallel_memories::verify::verify_certificate(&trace, &cert, Some(h));
        prop_assert!(report.is_clean(), "{}", report);
        prop_assert!(cert.lower <= cert.upper);
        prop_assert!(h >= cert.lower, "negative gap: heuristic {h} < lower {}", cert.lower);
        if cert.status == CertStatus::Optimal {
            prop_assert!(h >= cert.upper,
                "heuristic {h} beats proven optimum {}", cert.upper);
        }
    }

    /// Atom decomposition covers every vertex and edge; shared vertices form
    /// cliques (they are separators).
    #[test]
    fn atoms_are_sound(trace in arb_trace()) {
        let g = ConflictGraph::build(&trace);
        let atom_sets = atoms::atoms(&g);
        let mut vertex_cover = vec![false; g.len()];
        for a in &atom_sets {
            for &v in a {
                vertex_cover[v as usize] = true;
            }
        }
        prop_assert!(vertex_cover.iter().all(|&c| c));
        for (u, v, _) in g.edges() {
            prop_assert!(
                atom_sets.iter().any(|a| a.contains(&u) && a.contains(&v)),
                "edge ({u},{v}) uncovered"
            );
        }
        // Pairwise intersections are cliques.
        for i in 0..atom_sets.len() {
            for j in (i + 1)..atom_sets.len() {
                let shared: Vec<u32> = atom_sets[i]
                    .iter()
                    .copied()
                    .filter(|v| atom_sets[j].contains(v))
                    .collect();
                prop_assert!(g.is_clique(&shared),
                    "atoms {i} and {j} overlap in a non-clique {shared:?}");
            }
        }
    }

    /// MCS-M produces a chordal fill.
    #[test]
    fn mcs_m_fill_is_chordal(trace in arb_trace()) {
        let g = ConflictGraph::build(&trace);
        let mo = atoms::mcs_m(&g);
        prop_assert!(atoms::is_filled_chordal(&g, &mo));
    }

    /// Hitting-set output hits every input set.
    #[test]
    fn hitting_set_hits_everything(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u32..20, 1..5), 1..25)
    ) {
        let sets: Vec<Vec<ValueId>> = sets
            .into_iter()
            .map(|s| s.into_iter().map(ValueId).collect())
            .collect();
        let hs = hitting_set(&sets, 8);
        for s in &sets {
            prop_assert!(s.iter().any(|v| hs.contains(v)), "{s:?} unhit by {hs:?}");
        }
    }

    /// Fetch makespan is 1 iff conflict-free, and never exceeds the operand
    /// count.
    #[test]
    fn makespan_bounds(sets in proptest::collection::vec(1u64..64, 1..6)) {
        let operands: Vec<ModuleSet> = sets.iter().map(|&b| ModuleSet(b & 0x3F).union(ModuleSet(1))).collect();
        let ms = matching::fetch_makespan(&operands).unwrap();
        prop_assert!(ms >= 1 && ms <= operands.len());
        prop_assert_eq!(ms == 1, matching::instruction_conflict_free(&operands));
        // A schedule at that makespan exists.
        let (sched, l) = matching::makespan_schedule(&operands).unwrap();
        prop_assert_eq!(l, ms);
        let mut loads = [0usize; 64];
        for (i, &m) in sched.iter().enumerate() {
            prop_assert!(operands[i].contains(ModuleId(m)));
            loads[m as usize] += 1;
        }
        prop_assert_eq!(*loads.iter().max().unwrap(), ms);
    }
}

/// Strategy: `k` in 1..=8 and up to 8 operand copy sets over `k` modules.
/// A third of the sets are single copies and a third have one or two, so
/// conflicts are common; the rest are arbitrary, including empty.
fn arb_copy_sets() -> impl Strategy<Value = (usize, Vec<ModuleSet>)> {
    (1usize..=8).prop_flat_map(|k| {
        let set = (0u64..(1u64 << k), 0..k, 0u8..3).prop_map(|(bits, m, shape)| {
            ModuleSet(match shape {
                0 => 1u64 << m,
                1 => (1u64 << m) | (bits & bits.wrapping_neg()),
                _ => bits,
            })
        });
        proptest::collection::vec(set, 0..=8).prop_map(move |sets| (k, sets))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every matching entry point agrees with brute force: up to 8
    /// operands on k ≤ 8 modules, including operands with no copy and more
    /// operands than modules.
    #[test]
    fn matching_agrees_with_bruteforce(case in arb_copy_sets()) {
        let (k, operands) = case;
        let n = operands.len();
        let free = brute_force_matching(&operands);
        prop_assert_eq!(matching::instruction_conflict_free(&operands), free);
        prop_assert_eq!(hall_max_matching(&operands, 1) == n, free);
        for cap in 0..=n + 1 {
            prop_assert_eq!(
                matching::max_matching_with_capacity(&operands, cap),
                hall_max_matching(&operands, cap),
                "k={} cap={}", k, cap
            );
        }
        let makespan = hall_makespan(&operands);
        prop_assert_eq!(matching::fetch_makespan(&operands), makespan);
        match (matching::makespan_schedule(&operands), makespan) {
            (None, None) => {}
            (Some((sched, l)), Some(ms)) => {
                prop_assert_eq!(l, if n == 0 { 0 } else { ms });
                prop_assert_eq!(sched.len(), n);
                let mut loads = [0usize; 64];
                for (i, &m) in sched.iter().enumerate() {
                    prop_assert!(operands[i].contains(ModuleId(m)));
                    loads[m as usize] += 1;
                }
                prop_assert_eq!(*loads.iter().max().unwrap(), l);
            }
            (got, want) => prop_assert!(false, "schedule {:?} vs makespan {:?}", got, want),
        }
        match matching::conflict_free_schedule(&operands) {
            None => prop_assert!(!free),
            Some(sched) => {
                prop_assert!(free);
                prop_assert_eq!(sched.len(), n);
                let mut used = 0u64;
                for (i, &m) in sched.iter().enumerate() {
                    prop_assert!(operands[i].contains(ModuleId(m)));
                    prop_assert!(used & (1 << m) == 0, "module {} serves twice", m);
                    used |= 1 << m;
                }
            }
        }
    }
}

/// Maximum matching with per-module capacity `cap`, by the deficiency
/// form of Hall's theorem: the minimum over operand subsets `S` of
/// `|operands \ S| + cap · |N(S)|`, where `N(S)` is the union of `S`'s copy
/// sets. Exhaustive over subsets, so independent of augmenting paths.
fn hall_max_matching(operands: &[ModuleSet], cap: usize) -> usize {
    let n = operands.len();
    (0u32..1 << n)
        .map(|subset| {
            let (size, union) = subset_union(operands, subset);
            n - size + cap * union.len()
        })
        .min()
        .expect("the empty subset exists")
}

/// Minimum fetch makespan by Hall's condition: the largest
/// `⌈|S| / |N(S)|⌉` over non-empty operand subsets, at least 1; `None` if
/// some operand has no copy.
fn hall_makespan(operands: &[ModuleSet]) -> Option<usize> {
    let mut makespan = 1;
    for subset in 1u32..1 << operands.len() {
        let (size, union) = subset_union(operands, subset);
        if union.is_empty() {
            return None;
        }
        makespan = makespan.max(size.div_ceil(union.len()));
    }
    Some(makespan)
}

/// Size and copy-set union of the operands selected by `subset`'s bits.
fn subset_union(operands: &[ModuleSet], subset: u32) -> (usize, ModuleSet) {
    (0..operands.len())
        .filter(|i| subset & (1 << i) != 0)
        .fold((0, ModuleSet::EMPTY), |(n, u), i| {
            (n + 1, u.union(operands[i]))
        })
}

fn brute_force_matching(operands: &[ModuleSet]) -> bool {
    fn rec(i: usize, used: u64, operands: &[ModuleSet]) -> bool {
        if i == operands.len() {
            return true;
        }
        let mut bits = operands[i].0 & !used;
        while bits != 0 {
            let m = bits & bits.wrapping_neg();
            if rec(i + 1, used | m, operands) {
                return true;
            }
            bits &= !m;
        }
        false
    }
    rec(0, 0, operands)
}

/// Richer program generator: arithmetic on ints and reals, ifs, nested
/// loops, arrays — used to fuzz the optimizer and the full pipeline.
mod rich_fuzz {
    use super::*;
    use parallel_memories::driver::Session;
    use parallel_memories::sim::{self, ArrayPlacement, CompileOptions};

    #[derive(Clone, Debug)]
    enum FStmt {
        IntOp(usize, usize, usize, usize),
        RealOp(usize, usize, usize, usize),
        ArrStore(usize, usize),
        ArrLoad(usize, usize),
        If(usize, usize, Vec<FStmt>, Vec<FStmt>),
    }

    fn render(stmts: &[FStmt], indent: usize) -> String {
        let pad = " ".repeat(indent);
        stmts
            .iter()
            .map(|s| match s {
                FStmt::IntOp(d, a, b, op) => {
                    let ops = ["+", "-", "*"];
                    if *op < 3 {
                        format!("{pad}v{d} := v{a} {} v{b};", ops[*op])
                    } else {
                        format!("{pad}v{d} := v{a} mod ((v{b} mod 9) + 1);")
                    }
                }
                FStmt::RealOp(d, a, b, op) => {
                    let ops = ["+", "-", "*"];
                    if *op < 3 {
                        format!("{pad}r{d} := r{a} {} r{b};", ops[*op])
                    } else {
                        format!("{pad}r{d} := r{a} * 0.5 + r{b};")
                    }
                }
                FStmt::ArrStore(i, v) => format!("{pad}arr[(v{i} mod 8 + 8) mod 8] := v{v};"),
                FStmt::ArrLoad(d, i) => format!("{pad}v{d} := arr[(v{i} mod 8 + 8) mod 8];"),
                FStmt::If(a, b, t, e) => format!(
                    "{pad}if v{a} > v{b} then begin\n{}\n{pad}end else begin\n{}\n{pad}end;",
                    render(t, indent + 2),
                    render(e, indent + 2)
                ),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Output equality that treats NaN as equal to NaN (bitwise compare for
    /// reals) — fuzzing can produce NaN, and NaN != NaN under PartialEq.
    fn outputs_equal(a: &[liw_ir::Value], b: &[liw_ir::Value]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| match (x, y) {
                (liw_ir::Value::Real(p), liw_ir::Value::Real(q)) => {
                    p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan())
                }
                _ => x == y,
            })
    }

    fn arb_stmt(depth: u32) -> impl Strategy<Value = FStmt> {
        let leaf = prop_oneof![
            (0usize..5, 0usize..5, 0usize..5, 0usize..4)
                .prop_map(|(d, a, b, o)| FStmt::IntOp(d, a, b, o)),
            (0usize..4, 0usize..4, 0usize..4, 0usize..4)
                .prop_map(|(d, a, b, o)| FStmt::RealOp(d, a, b, o)),
            (0usize..5, 0usize..5).prop_map(|(i, v)| FStmt::ArrStore(i, v)),
            (0usize..5, 0usize..5).prop_map(|(d, i)| FStmt::ArrLoad(d, i)),
        ];
        leaf.prop_recursive(depth, 12, 4, |inner| {
            (
                0usize..5,
                0usize..5,
                proptest::collection::vec(inner.clone(), 1..3),
                proptest::collection::vec(inner, 0..3),
            )
                .prop_map(|(a, b, t, e)| FStmt::If(a, b, t, e))
        })
    }

    fn arb_rich_program() -> impl Strategy<Value = String> {
        (proptest::collection::vec(arb_stmt(2), 2..10), 2i64..7).prop_map(|(stmts, n)| {
            format!(
                "program rich;
                 var v0, v1, v2, v3, v4, i, j: int;
                     r0, r1, r2, r3: real;
                     arr: array[8] of int;
                 begin
                   v0 := 3; v1 := 5; v2 := 7; v3 := 2; v4 := 11;
                   r0 := 1.5; r1 := 2.25; r2 := 0.5; r3 := 4.0;
                   for i := 0 to {n} do begin
                     for j := 0 to 2 do begin
{}
                     end;
                   end;
                   print v0; print v1; print v2; print v3; print v4;
                   print r0; print r1; print r2; print r3;
                   for i := 0 to 7 do print arr[i];
                 end.",
                render(&stmts, 22)
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The optimizer must preserve semantics on arbitrary programs.
        #[test]
        fn optimizer_preserves_semantics(src in arb_rich_program()) {
            let tac = liw_ir::compile(&src).unwrap();
            let (opt, _) = liw_opt::optimize(&tac);
            let before = liw_ir::run(&tac).unwrap();
            let after = liw_ir::run(&opt).unwrap();
            prop_assert!(outputs_equal(&before.output, &after.output));
            // If-conversion speculates both arms, so instruction count may
            // grow modestly while branches disappear; bound the blow-up.
            prop_assert!(opt.instr_count() <= tac.instr_count() * 2 + 8);
        }

        /// The unroller must preserve semantics on arbitrary programs.
        #[test]
        fn unroller_preserves_semantics(src in arb_rich_program(), factor in 2usize..6) {
            let ast = liw_ir::parse(&src).unwrap();
            let unrolled = liw_ir::unroll::unroll_program(
                &ast,
                liw_ir::unroll::UnrollConfig { factor, max_body_stmts: 24 },
            );
            let p0 = liw_ir::lower(&ast).unwrap();
            let p1 = liw_ir::lower(&unrolled).unwrap();
            prop_assert!(outputs_equal(
                &liw_ir::run(&p0).unwrap().output,
                &liw_ir::run(&p1).unwrap().output
            ));
        }

        /// Full pipeline with optimizer + unroller: scheduled execution under
        /// an assigned layout still matches reference semantics.
        #[test]
        fn optimized_pipeline_matches_reference(src in arb_rich_program(), k in 2usize..=8) {
            let reference = liw_ir::run_source(&src).unwrap();
            let opts = CompileOptions {
                unroll: Some(liw_ir::unroll::UnrollConfig { factor: 3, max_body_stmts: 24 }),
                optimize: true,
                rename: true,
            };
            let session = Session::new(k).with_opts(opts);
            let prog = session.compile(&src).unwrap();
            let (a, report) = session.assign(&prog);
            prop_assert_eq!(report.residual_conflicts, 0);
            let run = sim::run(&prog.sched, &a, ArrayPlacement::Interleaved).unwrap();
            prop_assert!(outputs_equal(&run.output, &reference.output));
            prop_assert_eq!(run.scalar_conflict_words, 0);
        }
    }
}

/// The unified compile-time memory layout as a property: whatever the
/// planner is fed, every array element must map to exactly one in-range
/// module, the digest must anchor the plan, and the independent PM30x
/// checks must pass.
mod layout {
    use super::*;
    use parallel_memories::core::prelude::{
        plan_layout, ArrayPolicy, ArrayProfile, Assignment, ModuleId,
    };
    use parallel_memories::verify;

    fn arb_policy() -> impl Strategy<Value = ArrayPolicy> {
        prop_oneof![
            Just(ArrayPolicy::Interleaved),
            Just(ArrayPolicy::Hash),
            Just(ArrayPolicy::Block),
            Just(ArrayPolicy::Auto),
        ]
    }

    fn arb_profiles() -> impl Strategy<Value = Vec<ArrayProfile>> {
        // Stride -10 encodes "analysis derived nothing" (None).
        proptest::collection::vec((1usize..100, -10i64..9, 0u64..50, 0u64..50), 0..6).prop_map(
            |arrays| {
                arrays
                    .into_iter()
                    .enumerate()
                    .map(|(i, (len, stride, loads, stores))| ArrayProfile {
                        name: format!("a{i}"),
                        len,
                        loads,
                        stores,
                        dominant_stride: (stride != -10).then_some(stride),
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Totality: any (policy, k, profiles) plan maps every element of
        /// every array — in bounds, out of bounds, negative, or for an
        /// array id the plan has never heard of — to exactly one module in
        /// `0..k`. The mapper can never strand a memory access.
        #[test]
        fn planned_layout_maps_every_element_in_range(
            k in 1usize..=8,
            policy in arb_policy(),
            profiles in arb_profiles(),
            indices in proptest::collection::vec(i64::MIN / 2..i64::MAX / 2, 1..20),
        ) {
            let layout = plan_layout(k, policy, Assignment::new(k), &profiles);
            prop_assert_eq!(layout.arrays.len(), profiles.len());
            for id in 0..(profiles.len() as u32 + 2) {
                for &i in &indices {
                    let m = layout.module_of(id, i);
                    prop_assert!(
                        (m as usize) < k,
                        "{:?} k={} a{}[{}] -> module {}", policy, k, id, i, m
                    );
                }
            }
        }

        /// The digest is a function of the plan (stable under recompute,
        /// moved by any scalar copy), and the independently coded PM301–PM303
        /// checks accept every plan the planner emits.
        #[test]
        fn planned_layout_digest_anchors_and_verifies(
            k in 1usize..=8,
            policy in arb_policy(),
            profiles in arb_profiles(),
            scalar in 0u32..40,
        ) {
            let layout = plan_layout(k, policy, Assignment::new(k), &profiles);
            let digest = layout.digest();
            prop_assert_eq!(digest, layout.digest());
            let report = verify::verify_layout(&layout, digest);
            prop_assert!(report.is_clean(), "{}", report);
            // Any scalar placement moves the digest (PM302 anchoring).
            let mut a = Assignment::new(k);
            a.add_copy(parallel_memories::core::prelude::ValueId(scalar), ModuleId(0));
            let moved = plan_layout(k, policy, a, &profiles);
            prop_assert!(digest != moved.digest(), "scalar copy did not move the digest");
        }
    }
}

/// The independent verifier (`parmem-verify`) as a property: everything the
/// pipeline produces must pass every re-derived invariant check.
mod verification {
    use super::*;
    use parallel_memories::driver::Session;
    use parallel_memories::sim::{self, ArrayPlacement};
    use parallel_memories::verify;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On random synthetic traces (k in 2..=8, so in particular
        /// k ∈ {2,4,8}) the assignment the pipeline produces passes the
        /// verifier's independent checks under both duplication strategies.
        #[test]
        fn verifier_is_clean_on_random_traces(trace in arb_trace()) {
            for dup in [DuplicationStrategy::Backtrack, DuplicationStrategy::HittingSet] {
                let params = AssignParams { duplication: dup, ..Default::default() };
                let (a, r) = assign_trace(&trace, &params);
                let report = verify::verify_trace(&trace, &a, Some(&r));
                prop_assert!(report.is_clean(), "{:?}: {}", dup, report);
            }
        }
    }

    /// Static conflict prediction equals what the simulator measures on all
    /// six paper workloads: zero predicted, zero observed, at every machine
    /// size the paper considers.
    #[test]
    fn static_prediction_matches_simulator_stalls_on_paper_workloads() {
        for bench in workloads::benchmarks() {
            for k in [2, 4, 8] {
                let prog = Session::new(k)
                    .without_optimizer()
                    .compile(bench.source)
                    .unwrap();
                let (a, r) = assign_trace(&prog.sched.access_trace(), &AssignParams::default());
                let prediction = verify::differential::predict(&prog.sched, &a);
                let stats = sim::run(&prog.sched, &a, ArrayPlacement::Ideal).unwrap();
                assert!(
                    prediction.conflicting_words.is_empty(),
                    "{} k={k}: statically predicted conflicts {:?}",
                    bench.name,
                    prediction.conflicting_words
                );
                assert_eq!(
                    stats.scalar_conflict_words, 0,
                    "{} k={k}: simulator disagrees with static prediction",
                    bench.name
                );
                let vreport = verify::verify_all(&prog.tac, &prog.sched, &a, Some(&r));
                assert!(vreport.is_clean(), "{} k={k}: {vreport}", bench.name);
            }
        }
    }
}

/// Randomized MiniLang program generator: straight-line assignments plus
/// loops, compiled through the whole stack and cross-checked sim vs interp.
mod program_fuzz {
    use super::*;
    use parallel_memories::driver::Session;
    use parallel_memories::sim::{self, ArrayPlacement};

    fn arb_program() -> impl Strategy<Value = String> {
        // A restricted but non-trivial family: integer scalars v0..v5, one
        // array, random arithmetic statements, a for loop with accumulation.
        let stmt = (0usize..6, 0usize..6, 0usize..6, 0usize..4).prop_map(|(a, b, c, op)| {
            let ops = ["+", "-", "*", "mod"];
            if op == 3 {
                // avoid mod by zero: use (vb mod 7) + 1 as divisor
                format!("v{a} := v{b} mod ((v{c} mod 7) + 1);")
            } else {
                format!("v{a} := v{b} {} v{c};", ops[op])
            }
        });
        (proptest::collection::vec(stmt, 1..12), 1i64..9).prop_map(|(stmts, n)| {
            format!(
                "program fuzz;
                 var v0, v1, v2, v3, v4, v5, i: int;
                     arr: array[16] of int;
                 begin
                   v0 := 3; v1 := 5; v2 := 7; v3 := 11; v4 := 13; v5 := 17;
                   for i := 0 to {n} do begin
                     {}
                     arr[i] := v0 + v1;
                   end;
                   print v0; print v1; print v2; print v3; print v4; print v5;
                   for i := 0 to {n} do print arr[i];
                 end.",
                stmts.join("\n                     ")
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn scheduled_execution_matches_reference(src in arb_program(), k in 2usize..=8) {
            let session = Session::new(k).without_optimizer();
            let prog = session.compile(&src).unwrap();
            let reference = liw_ir::run_source(&src).unwrap();
            let (a, report) = session.assign(&prog);
            prop_assert_eq!(report.residual_conflicts, 0);
            let run = sim::run(&prog.sched, &a, ArrayPlacement::Interleaved).unwrap();
            prop_assert_eq!(run.output, reference.output);
            prop_assert_eq!(run.scalar_conflict_words, 0);
        }
    }
}
