//! The LIW list scheduler: packs each basic block's three-address
//! instructions into long instruction words.
//!
//! Per block, a dependence DAG is built over the instructions:
//!
//! | kind                        | latency (words) |
//! |-----------------------------|-----------------|
//! | scalar RAW (def → use)      | 1               |
//! | scalar WAW (def → def)      | 1               |
//! | scalar WAR (use → def)      | 0 (same word ok: reads at word start, writes at word end) |
//! | array RAW/WAW (per array)   | 1               |
//! | array WAR                   | 0               |
//! | print → print               | 1 (output order)|
//!
//! Cycle-driven greedy packing: at each cycle the ready operations (all
//! predecessors issued early enough) are taken in priority order — longest
//! latency-weighted path to a sink first, program order on ties — while the
//! word has a free functional unit and the memory-port budget (distinct
//! scalar reads + array accesses ≤ `mem_ports`) is respected.
//!
//! A branch's condition is fetched during the block's final word; if the
//! condition is computed in that word or its ports are full, an extra word
//! is appended (the branch then issues there).

use liw_ir::cfg;
use liw_ir::tac::BlockId;
use liw_ir::tac::{Instr, Operand, TacProgram, Terminator};
use liw_ir::webs::{compute_webs, Webs, TERM_IDX};

use crate::program::{
    LongWord, MachineSpec, SOperand, SchedBlock, SchedProgram, SchedTerm, SlotOp,
};

/// Scheduling options beyond the machine shape.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleOptions {
    /// Rename variables into per-definition data values (webs). `true` is
    /// the paper's model; `false` keeps one data value per variable — the
    /// ablation for the paper's §3 renaming remark.
    pub rename: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions { rename: true }
    }
}

/// Schedule a TAC program into long instruction words (with renaming).
pub fn schedule(p: &TacProgram, spec: MachineSpec) -> SchedProgram {
    schedule_with(p, spec, ScheduleOptions::default())
}

/// Schedule with explicit options.
pub fn schedule_with(p: &TacProgram, spec: MachineSpec, opts: ScheduleOptions) -> SchedProgram {
    assert!(spec.width >= 1 && spec.mem_ports >= 1 && spec.modules >= 1);
    let mut sp = parmem_obs::span("sched.schedule");
    sp.attr("blocks", p.blocks.len());
    sp.attr("rename", opts.rename);
    let webs = if opts.rename {
        compute_webs(p)
    } else {
        liw_ir::webs::one_web_per_var(p)
    };
    let (region_of, n_regions) = cfg::regions(p);

    let blocks: Vec<SchedBlock> = p
        .blocks
        .iter()
        .enumerate()
        .map(|(bi, _)| schedule_block(p, &webs, BlockId(bi as u32), spec))
        .collect();

    SchedProgram {
        name: p.name.clone(),
        spec,
        blocks,
        entry: p.entry,
        n_values: webs.n_webs,
        value_var: webs.web_var.clone(),
        var_ty: p.vars.iter().map(|v| v.ty).collect(),
        entry_value: (0..p.vars.len())
            .map(|v| webs.of_entry(liw_ir::tac::VarId(v as u32)).unwrap_or(0))
            .collect(),
        arrays: p.arrays.clone(),
        region_of_block: region_of.iter().map(|r| r.0).collect(),
        n_regions,
    }
}

/// Convert one TAC operand at a use site to a scheduled operand.
fn soperand(webs: &Webs, block: BlockId, idx: u32, o: &Operand) -> SOperand {
    match o {
        Operand::Const(c) => SOperand::Const(*c),
        Operand::Var(v) => {
            SOperand::Scalar(webs.of_use(block, idx, *v).expect("every use has a web"))
        }
    }
}

fn to_slot_op(webs: &Webs, block: BlockId, idx: u32, inst: &Instr) -> SlotOp {
    match inst {
        Instr::Compute {
            dest: _,
            op,
            lhs,
            rhs,
        } => SlotOp::Compute {
            dest: webs.of_def(block, idx).expect("def web"),
            op: *op,
            lhs: soperand(webs, block, idx, lhs),
            rhs: rhs.as_ref().map(|r| soperand(webs, block, idx, r)),
        },
        Instr::Load {
            dest: _,
            arr,
            index,
        } => SlotOp::Load {
            dest: webs.of_def(block, idx).expect("def web"),
            arr: *arr,
            index: soperand(webs, block, idx, index),
        },
        Instr::Store { arr, index, value } => SlotOp::Store {
            arr: *arr,
            index: soperand(webs, block, idx, index),
            value: soperand(webs, block, idx, value),
        },
        Instr::Print { value } => SlotOp::Print {
            value: soperand(webs, block, idx, value),
        },
        Instr::Select {
            cond,
            if_true,
            if_false,
            dest: _,
        } => SlotOp::Select {
            cond: soperand(webs, block, idx, cond),
            if_true: soperand(webs, block, idx, if_true),
            if_false: soperand(webs, block, idx, if_false),
            dest: webs.of_def(block, idx).expect("def web"),
        },
    }
}

fn schedule_block(p: &TacProgram, webs: &Webs, block: BlockId, spec: MachineSpec) -> SchedBlock {
    let b = p.block(block);
    let n = b.instrs.len();
    let ops: Vec<SlotOp> = b
        .instrs
        .iter()
        .enumerate()
        .map(|(i, inst)| to_slot_op(webs, block, i as u32, inst))
        .collect();

    // ---- dependence edges (succ lists with latencies) ----
    let mut succs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    let mut preds_cnt = vec![0usize; n];
    {
        let mut edge = |from: usize, to: usize, lat: u32, succs: &mut Vec<Vec<(usize, u32)>>| {
            if from != to {
                succs[from].push((to, lat));
                preds_cnt[to] += 1;
            }
        };
        use std::collections::HashMap;
        let mut last_def: HashMap<u32, usize> = HashMap::new(); // web -> op idx
        let mut uses_since_def: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut last_array_store: HashMap<u32, usize> = HashMap::new();
        let mut loads_since_store: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut last_print: Option<usize> = None;

        for (i, op) in ops.iter().enumerate() {
            // Scalar RAW.
            for w in op.scalar_reads() {
                if let Some(&d) = last_def.get(&w) {
                    edge(d, i, 1, &mut succs);
                }
                uses_since_def.entry(w).or_default().push(i);
            }
            // Scalar WAW + WAR.
            if let Some(w) = op.writes() {
                if let Some(&d) = last_def.get(&w) {
                    edge(d, i, 1, &mut succs);
                }
                if let Some(users) = uses_since_def.get(&w) {
                    for &u in users {
                        edge(u, i, 0, &mut succs);
                    }
                }
                last_def.insert(w, i);
                uses_since_def.insert(w, Vec::new());
            }
            // Array deps.
            match op {
                SlotOp::Load { arr, .. } => {
                    if let Some(&s) = last_array_store.get(&arr.0) {
                        edge(s, i, 1, &mut succs);
                    }
                    loads_since_store.entry(arr.0).or_default().push(i);
                }
                SlotOp::Store { arr, .. } => {
                    if let Some(&s) = last_array_store.get(&arr.0) {
                        edge(s, i, 1, &mut succs);
                    }
                    if let Some(loads) = loads_since_store.get(&arr.0) {
                        for &l in loads {
                            edge(l, i, 0, &mut succs);
                        }
                    }
                    last_array_store.insert(arr.0, i);
                    loads_since_store.insert(arr.0, Vec::new());
                }
                _ => {}
            }
            // Print ordering.
            if matches!(op, SlotOp::Print { .. }) {
                if let Some(lp) = last_print {
                    edge(lp, i, 1, &mut succs);
                }
                last_print = Some(i);
            }
        }
    }

    // ---- priorities: latency-weighted height ----
    let mut height = vec![0u32; n];
    for i in (0..n).rev() {
        for &(s, lat) in &succs[i] {
            height[i] = height[i].max(height[s] + lat + 1);
        }
    }

    // ---- cycle-driven list scheduling ----
    let mut word_of = vec![usize::MAX; n];
    let mut earliest = vec![0usize; n];
    let mut remaining_preds = preds_cnt;
    let mut scheduled = 0usize;
    let mut words: Vec<LongWord> = Vec::new();
    let mut cycle = 0usize;

    // Ready set: ops with no remaining predecessors.
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_preds[i] == 0).collect();

    while scheduled < n {
        // Candidates issueable this cycle, best priority first.
        let mut candidates: Vec<usize> = ready
            .iter()
            .copied()
            .filter(|&i| earliest[i] <= cycle)
            .collect();
        candidates.sort_by_key(|&i| (std::cmp::Reverse(height[i]), i));

        let mut word = LongWord::default();
        let mut word_webs: Vec<u32> = Vec::new();
        let mut array_cnt = 0usize;
        let mut issued: Vec<usize> = Vec::new();

        for &i in &candidates {
            if word.ops.len() >= spec.width {
                break;
            }
            // Memory-port check: distinct scalar webs + array accesses.
            let mut new_webs = word_webs.clone();
            for w in ops[i].scalar_reads() {
                if !new_webs.contains(&w) {
                    new_webs.push(w);
                }
            }
            let new_arrays = array_cnt + ops[i].array_accesses();
            let fits = new_webs.len() + new_arrays <= spec.mem_ports;
            // A word must make progress: admit the first op even if it alone
            // exceeds a degenerate port budget.
            if fits || word.ops.is_empty() {
                word_webs = new_webs;
                array_cnt = new_arrays;
                word.ops.push(ops[i].clone());
                word_of[i] = cycle;
                issued.push(i);
            }
        }

        if !issued.is_empty() {
            for &i in &issued {
                ready.retain(|&r| r != i);
                scheduled += 1;
                for &(s, lat) in &succs[i] {
                    earliest[s] = earliest[s].max(cycle + lat as usize);
                    remaining_preds[s] -= 1;
                    if remaining_preds[s] == 0 {
                        ready.push(s);
                    }
                }
            }
            // Pad skipped cycles with nothing (cannot occur: see below).
            while words.len() < cycle {
                words.push(LongWord::default());
            }
            words.push(word);
        }
        cycle += 1;
        // Safety: with all latencies ≤ 1 the ready set refills every cycle,
        // so `cycle` can run at most one past the last issue.
        assert!(
            cycle <= 2 * n + 2,
            "scheduler failed to make progress in block {block:?}"
        );
    }

    // ---- terminator ----
    let term = match &b.term {
        Terminator::Jump(t) => SchedTerm::Jump(*t),
        Terminator::Halt => SchedTerm::Halt,
        Terminator::Branch {
            cond,
            then_to,
            else_to,
        } => SchedTerm::Branch {
            cond: soperand(webs, block, TERM_IDX, cond),
            then_to: *then_to,
            else_to: *else_to,
        },
    };

    let mut blk = SchedBlock { words, term };

    // The branch condition is fetched in the final word; make sure that is
    // legal (cond defined before the final word, and a port is free).
    if let SchedTerm::Branch { cond, .. } = &blk.term {
        if let SOperand::Scalar(w) = cond {
            let needs_new_word = if blk.words.is_empty() {
                true
            } else {
                let last = blk.words.len() - 1;
                let defined_in_last = blk.words[last].ops.iter().any(|o| o.writes() == Some(*w));
                let reads = blk.words[last].scalar_read_set();
                let ports_full = !reads.contains(w)
                    && reads.len() + blk.words[last].array_access_count() + 1 > spec.mem_ports;
                defined_in_last || ports_full
            };
            if needs_new_word {
                blk.words.push(LongWord::default());
            }
        } else if blk.words.is_empty() {
            // Constant condition still occupies a (trivial) fetch word so
            // that every block takes at least one cycle.
            blk.words.push(LongWord::default());
        }
    }
    if blk.words.is_empty() {
        // Every block costs at least one cycle on the RLIW.
        blk.words.push(LongWord::default());
    }

    blk
}

#[cfg(test)]
mod tests {
    use super::*;
    use liw_ir::compile;

    fn sched(src: &str, spec: MachineSpec) -> SchedProgram {
        schedule(&compile(src).unwrap(), spec)
    }

    /// Check the fundamental safety property: no op reads a data value in
    /// the same or an earlier word than the in-block op that defines it, and
    /// structural limits hold.
    fn assert_valid(sp: &SchedProgram) {
        for b in &sp.blocks {
            let mut def_word: std::collections::HashMap<u32, usize> = Default::default();
            for (wi, w) in b.words.iter().enumerate() {
                assert!(w.ops.len() <= sp.spec.width, "width exceeded");
                for op in &w.ops {
                    for r in op.scalar_reads() {
                        if let Some(&dw) = def_word.get(&r) {
                            assert!(dw < wi, "RAW violated: def in word {dw}, use in {wi}");
                        }
                    }
                }
                for op in &w.ops {
                    if let Some(d) = op.writes() {
                        def_word.insert(d, wi);
                    }
                }
            }
            if let Some(cw) = b.term.cond_web() {
                if let Some(&dw) = def_word.get(&cw) {
                    assert!(
                        dw < b.words.len() - 1
                            || b.words[b.words.len() - 1].ops.is_empty()
                            || dw < b.words.len() - 1,
                        "branch cond defined in its own fetch word"
                    );
                    assert!(
                        dw < b.words.len() - 1,
                        "cond def word {dw} vs words {}",
                        b.words.len()
                    );
                }
            }
        }
    }

    #[test]
    fn independent_ops_pack_into_one_word() {
        let sp = sched(
            "program t; var a, b, c, d, e, f: int;
             begin
               d := a + b;
               e := b + c;
               f := a + c;
             end.",
            MachineSpec::with_modules(8),
        );
        assert_valid(&sp);
        let entry = &sp.blocks[sp.entry.index()];
        assert_eq!(entry.words.len(), 1, "three independent adds fit one word");
        assert_eq!(entry.words[0].ops.len(), 3);
    }

    #[test]
    fn dependent_chain_serializes() {
        let sp = sched(
            "program t; var a, b: int;
             begin
               b := a + 1;
               b := b * 2;
               b := b - 3;
             end.",
            MachineSpec::with_modules(8),
        );
        assert_valid(&sp);
        let entry = &sp.blocks[sp.entry.index()];
        assert_eq!(entry.words.len(), 3, "chain must serialize");
    }

    #[test]
    fn width_limit_is_respected() {
        let spec = MachineSpec {
            width: 2,
            mem_ports: 8,
            modules: 8,
        };
        let sp = sched(
            "program t; var a, b, c, d, e, f, g, h: int;
             begin
               e := a + 1; f := b + 1; g := c + 1; h := d + 1;
             end.",
            spec,
        );
        assert_valid(&sp);
        let entry = &sp.blocks[sp.entry.index()];
        assert_eq!(entry.words.len(), 2);
        assert!(entry.words.iter().all(|w| w.ops.len() <= 2));
    }

    #[test]
    fn mem_port_limit_is_respected() {
        let spec = MachineSpec {
            width: 8,
            mem_ports: 3,
            modules: 8,
        };
        let sp = sched(
            "program t; var a, b, c, d, e, f, x, y, z: int;
             begin
               x := a + b;
               y := c + d;
               z := e + f;
             end.",
            spec,
        );
        assert_valid(&sp);
        for b in &sp.blocks {
            for (i, w) in b.words.iter().enumerate() {
                let ports = b.word_operands(i).len() + w.array_access_count();
                assert!(ports <= 3, "word uses {ports} ports");
            }
        }
    }

    #[test]
    fn shared_operand_counts_once() {
        // Four ops all reading the same two values: one fetch each.
        let spec = MachineSpec {
            width: 8,
            mem_ports: 2,
            modules: 8,
        };
        let sp = sched(
            "program t; var a, b, w, x, y, z: int;
             begin
               w := a + b; x := a - b; y := a * b; z := b - a;
             end.",
            spec,
        );
        assert_valid(&sp);
        let entry = &sp.blocks[sp.entry.index()];
        assert_eq!(entry.words.len(), 1, "broadcast reads share one port");
    }

    #[test]
    fn array_raw_dependency_is_kept() {
        let sp = sched(
            "program t; var a: array[8] of int; x, i, j: int;
             begin
               a[i] := 5;
               x := a[j];
             end.",
            MachineSpec::with_modules(8),
        );
        assert_valid(&sp);
        let entry = &sp.blocks[sp.entry.index()];
        // Store and dependent load cannot share a word.
        assert!(entry.words.len() >= 2);
    }

    #[test]
    fn war_allows_same_word() {
        // y := x; x := 1 — read of old x and write of new x can share a word.
        let sp = sched(
            "program t; var x, y: int;
             begin
               y := x;
               x := 1;
             end.",
            MachineSpec::with_modules(8),
        );
        assert_valid(&sp);
        let entry = &sp.blocks[sp.entry.index()];
        assert_eq!(entry.words.len(), 1, "{:?}", entry.words);
    }

    #[test]
    fn branch_condition_not_in_defining_word() {
        let sp = sched(
            "program t; var i: int;
             begin
               i := 0;
               while i < 10 do i := i + 1;
             end.",
            MachineSpec::with_modules(8),
        );
        assert_valid(&sp);
        // The loop-head block computes `i < 10` then branches; the cond web
        // must not be defined in the final word.
        for b in &sp.blocks {
            if let Some(cw) = b.term.cond_web() {
                let last = b.words.len() - 1;
                let defined_in_last = b.words[last].ops.iter().any(|o| o.writes() == Some(cw));
                assert!(!defined_in_last);
            }
        }
    }

    #[test]
    fn every_block_has_at_least_one_word() {
        let sp = sched(
            "program t; var x: int;
             begin if x > 0 then x := 1; end.",
            MachineSpec::with_modules(8),
        );
        assert_valid(&sp);
        for b in &sp.blocks {
            assert!(!b.words.is_empty());
        }
    }

    #[test]
    fn no_rename_serializes_reused_temporaries() {
        // One temporary reused across independent chains: with renaming the
        // chains overlap; without it WAW/WAW dependences serialize them.
        let src = "program t; var a, b, c, d, t1, x, y: int;
            begin
              t1 := a * b;  x := t1 + c;
              t1 := c * d;  y := t1 + a;
            end.";
        let tac = compile(src).unwrap();
        let spec = MachineSpec::with_modules(8);
        let renamed = schedule_with(&tac, spec, ScheduleOptions { rename: true });
        let flat = schedule_with(&tac, spec, ScheduleOptions { rename: false });
        assert!(
            renamed.word_count() < flat.word_count(),
            "renamed {} vs flat {}",
            renamed.word_count(),
            flat.word_count()
        );
        assert_valid(&renamed);
        assert_valid(&flat);
    }

    #[test]
    fn critical_path_schedule_is_valid_on_a_narrow_machine() {
        // A long chain plus independent fillers competing for two units:
        // critical-path priority starts the chain immediately, and the
        // schedule must stay valid.
        let src = "program t; var a, b, c, d, e, f, g, h, x: int;
            begin
              e := a + 1; f := b + 1; g := c + 1; h := d + 1;
              x := a * b;
              x := x * c;
              x := x * d;
              x := x + e;
            end.";
        let tac = compile(src).unwrap();
        let spec = MachineSpec {
            width: 2,
            mem_ports: 8,
            modules: 8,
        };
        let cp = schedule_with(&tac, spec, ScheduleOptions { rename: true });
        assert_valid(&cp);
    }

    #[test]
    fn select_ops_schedule_with_three_reads() {
        // Build a TAC program containing a Select directly and check the
        // scheduler respects its 3-operand port footprint.
        use liw_ir::tac::{Block, Instr, Operand, TacProgram, Terminator, VarId, VarInfo};
        let var = |name: &str| VarInfo {
            name: name.into(),
            ty: liw_ir::Ty::Int,
            is_temp: false,
        };
        let p = TacProgram {
            name: "sel".into(),
            vars: vec![var("c"), var("a"), var("b"), var("x"), var("y"), var("z")],
            arrays: vec![],
            blocks: vec![Block {
                instrs: vec![
                    Instr::Select {
                        cond: Operand::Var(VarId(0)),
                        if_true: Operand::Var(VarId(1)),
                        if_false: Operand::Var(VarId(2)),
                        dest: VarId(3),
                    },
                    Instr::Select {
                        cond: Operand::Var(VarId(0)),
                        if_true: Operand::Var(VarId(2)),
                        if_false: Operand::Var(VarId(1)),
                        dest: VarId(4),
                    },
                    Instr::Compute {
                        dest: VarId(5),
                        op: liw_ir::tac::OpCode::Add,
                        lhs: Operand::Var(VarId(3)),
                        rhs: Some(Operand::Var(VarId(4))),
                    },
                ],
                term: Terminator::Halt,
            }],
            entry: liw_ir::BlockId(0),
        };
        // Both selects share their 3 source values → they fit one word on a
        // 3-port machine; the dependent add goes in the next word.
        let sp = schedule(
            &p,
            MachineSpec {
                width: 4,
                mem_ports: 3,
                modules: 4,
            },
        );
        assert_valid(&sp);
        let b0 = &sp.blocks[0];
        assert_eq!(b0.words.len(), 2, "{:?}", b0.words);
        assert_eq!(b0.words[0].ops.len(), 2);
        assert_eq!(b0.word_operands(0).len(), 3);
    }

    #[test]
    fn no_rename_has_one_value_per_variable() {
        let src = "program t; var x, y: int;
            begin x := 1; y := x; x := 2; y := x; end.";
        let tac = compile(src).unwrap();
        let sp = schedule_with(
            &tac,
            MachineSpec::with_modules(4),
            ScheduleOptions { rename: false },
        );
        assert_eq!(sp.n_values, tac.vars.len());
    }

    #[test]
    fn access_trace_has_one_entry_per_word() {
        let sp = sched(
            "program t; var a, b, c: int;
             begin c := a + b; c := c * 2; end.",
            MachineSpec::with_modules(4),
        );
        let t = sp.access_trace();
        assert_eq!(t.instructions.len(), sp.word_count());
        assert_eq!(t.modules, 4);
        assert_eq!(t.oversized_instructions(), 0);
    }

    #[test]
    fn regionized_trace_finds_loop_globals() {
        let sp = sched(
            "program t; var i, s, n: int;
             begin
               n := 100;
               s := 0;
               for i := 1 to n do s := s + i;
               print s;
             end.",
            MachineSpec::with_modules(4),
        );
        let rt = sp.regionized_trace();
        assert!(rt.regions.len() >= 2);
        // s and i straddle the loop boundary → several globals.
        assert!(!rt.globals.is_empty());
        // Flat trace equals access trace length.
        assert_eq!(
            rt.flat().instructions.len(),
            sp.access_trace().instructions.len()
        );
    }
}
