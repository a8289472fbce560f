//! CSR view of a trace's *multi-operand* instructions over the dense
//! vertices of its [`ConflictGraph`].
//!
//! Only instructions with two or more distinct operands can ever conflict
//! under a single-copy assignment, so every consumer that reasons about
//! residual conflicts — the exact branch-and-bound, its clique-evidence
//! extraction, the ILS improver, and `parmem-verify`'s certificate
//! re-validation — needs the same two projections: instruction → operand
//! vertices, and vertex → instructions it appears in. This module builds
//! both once, as flat offset/data arrays mirroring the graph's CSR layout,
//! so the solvers stop rebuilding their own `Vec<Vec<_>>` maps.

use crate::graph::ConflictGraph;
use crate::types::AccessTrace;

/// Flat instruction/vertex cross-reference over a conflict graph.
///
/// Instruction `i`'s operands are `ops[inst_offsets[i] .. inst_offsets[i+1]]`
/// (dense vertex ids, ascending); vertex `v`'s instructions are
/// `vert_insts[vert_offsets[v] .. vert_offsets[v+1]]` (instruction ids,
/// ascending). Instructions keep program order, restricted to multi-operand
/// words.
#[derive(Clone, Debug)]
pub struct InstructionView {
    inst_offsets: Vec<u32>,
    ops: Vec<u32>,
    vert_offsets: Vec<u32>,
    vert_insts: Vec<u32>,
}

impl InstructionView {
    /// Build the view of `trace`'s multi-operand instructions over `graph`
    /// (which must be the conflict graph of the same trace, or a filtered
    /// build of it — operands without a vertex are skipped).
    pub fn build(graph: &ConflictGraph, trace: &AccessTrace) -> InstructionView {
        let mut inst_offsets = vec![0u32];
        let mut ops = Vec::new();
        for op in &trace.instructions {
            if op.len() < 2 {
                continue;
            }
            let before = ops.len();
            ops.extend(op.iter().filter_map(|&v| graph.vertex_of(v)));
            if ops.len() - before < 2 {
                // Filtered graphs can project a word down to < 2 operands;
                // such words can no longer conflict, so they leave the view.
                ops.truncate(before);
                continue;
            }
            inst_offsets.push(ops.len() as u32);
        }

        let n = graph.len();
        let m = inst_offsets.len() - 1;
        let mut vert_offsets = vec![0u32; n + 1];
        for &v in &ops {
            vert_offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            vert_offsets[v + 1] += vert_offsets[v];
        }
        let mut vert_insts = vec![0u32; ops.len()];
        let mut cursor: Vec<u32> = vert_offsets[..n].to_vec();
        for i in 0..m {
            let (lo, hi) = (inst_offsets[i] as usize, inst_offsets[i + 1] as usize);
            for &v in &ops[lo..hi] {
                let c = &mut cursor[v as usize];
                vert_insts[*c as usize] = i as u32;
                *c += 1;
            }
        }

        InstructionView {
            inst_offsets,
            ops,
            vert_offsets,
            vert_insts,
        }
    }

    /// Number of multi-operand instructions in the view.
    pub fn len(&self) -> usize {
        self.inst_offsets.len() - 1
    }

    /// True if the trace has no multi-operand instruction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operand vertices of instruction `i`, in operand order (ascending for
    /// trace-built graphs, whose dense ids are monotone in the value ids).
    pub fn operands(&self, i: u32) -> &[u32] {
        &self.ops
            [self.inst_offsets[i as usize] as usize..self.inst_offsets[i as usize + 1] as usize]
    }

    /// Instructions vertex `v` appears in, ascending.
    pub fn instructions_of(&self, v: u32) -> &[u32] {
        &self.vert_insts
            [self.vert_offsets[v as usize] as usize..self.vert_offsets[v as usize + 1] as usize]
    }

    /// Iterate all instructions as operand slices, in program order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len() as u32).map(move |i| self.operands(i))
    }

    /// The *support* of a vertex set: instructions holding at least two
    /// members (the instructions a `> k` clique forces a conflict into).
    pub fn support_of(&self, mut in_set: impl FnMut(u32) -> bool) -> Vec<u32> {
        (0..self.len() as u32)
            .filter(|&i| {
                self.operands(i)
                    .iter()
                    .filter(|&&v| in_set(v))
                    .take(2)
                    .count()
                    >= 2
            })
            .collect()
    }

    /// Residual of a complete coloring: the number of instructions with two
    /// operands in the same module.
    pub fn residual_of(&self, colors: &[u8]) -> usize {
        self.iter()
            .filter(|vs| {
                for i in 0..vs.len() {
                    for j in (i + 1)..vs.len() {
                        if colors[vs[i] as usize] == colors[vs[j] as usize] {
                            return true;
                        }
                    }
                }
                false
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccessTrace;

    fn fig1() -> AccessTrace {
        AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[7], &[2, 3, 4]])
    }

    #[test]
    fn builds_multi_op_view() {
        let t = fig1();
        let g = ConflictGraph::build(&t);
        let view = InstructionView::build(&g, &t);
        // The singleton {7} word is dropped.
        assert_eq!(view.len(), 3);
        let v = |x: u32| g.vertex_of(crate::types::ValueId(x)).unwrap();
        assert_eq!(view.operands(0), &[v(1), v(2), v(4)]);
        assert_eq!(view.operands(2), &[v(2), v(3), v(4)]);
        assert_eq!(view.instructions_of(v(2)), &[0, 1, 2]);
        assert_eq!(view.instructions_of(v(5)), &[1]);
        assert_eq!(view.instructions_of(v(7)), &[] as &[u32]);
    }

    #[test]
    fn support_counts_pairs() {
        let t = fig1();
        let g = ConflictGraph::build(&t);
        let view = InstructionView::build(&g, &t);
        let v = |x: u32| g.vertex_of(crate::types::ValueId(x)).unwrap();
        let set = [v(2), v(3)];
        assert_eq!(view.support_of(|u| set.contains(&u)), vec![1, 2]);
        let lone = [v(5)];
        assert!(view.support_of(|u| lone.contains(&u)).is_empty());
    }

    #[test]
    fn residual_counts_same_module_pairs() {
        let t = fig1();
        let g = ConflictGraph::build(&t);
        let view = InstructionView::build(&g, &t);
        // Everything in module 0: all three multi-op words conflict.
        assert_eq!(view.residual_of(&vec![0u8; g.len()]), 3);
        // A proper 3-coloring by value id modulo 3 may or may not conflict;
        // just pin the all-distinct case for word 0.
        let mut colors = vec![0u8; g.len()];
        for (i, c) in colors.iter_mut().enumerate() {
            *c = i as u8;
        }
        assert_eq!(view.residual_of(&colors), 0);
    }

    #[test]
    fn filtered_graph_drops_projected_singletons() {
        let t = fig1();
        // Keep only odd values: words project to {1}, {3,5}, {7}, {3}.
        let g = ConflictGraph::build_filtered(&t, |v| v.0 % 2 == 1);
        let view = InstructionView::build(&g, &t);
        assert_eq!(view.len(), 1);
        let v3 = g.vertex_of(crate::types::ValueId(3)).unwrap();
        let v5 = g.vertex_of(crate::types::ValueId(5)).unwrap();
        let mut ops = view.operands(0).to_vec();
        ops.sort_unstable();
        let mut expect = vec![v3, v5];
        expect.sort_unstable();
        assert_eq!(ops, expect);
    }
}
