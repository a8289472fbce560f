//! Dead code elimination, driven by a classic backward liveness analysis
//! over the CFG. Pure instructions (`Compute`, `Load`) whose destination is
//! dead are removed; `Store` and `Print` are always live.

use liw_ir::cfg::Cfg;
use liw_ir::tac::{Instr, TacProgram};
use liw_ir::BitSet;

/// Per-block live-out variable sets.
fn live_out_sets(p: &TacProgram) -> Vec<BitSet> {
    let cfg = Cfg::build(p);
    let nb = p.blocks.len();
    let n_vars = p.vars.len();

    // use/def per block (use = read before any write in the block).
    let mut uses = vec![BitSet::new(n_vars); nb];
    let mut defs = vec![BitSet::new(n_vars); nb];
    for (bi, b) in p.blocks.iter().enumerate() {
        for inst in &b.instrs {
            for r in inst.reads() {
                if !defs[bi].contains(r.index()) {
                    uses[bi].insert(r.index());
                }
            }
            if let Some(w) = inst.writes() {
                defs[bi].insert(w.index());
            }
        }
        for r in b.term.reads() {
            if !defs[bi].contains(r.index()) {
                uses[bi].insert(r.index());
            }
        }
    }

    // live_in = use ∪ (live_out − def), swept in postorder to a fixpoint.
    let mut live_in = uses.clone();
    let mut live_out = vec![BitSet::new(n_vars); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo.iter().rev() {
            let bi = b.index();
            let mut out = BitSet::new(n_vars);
            for &s in &cfg.succs[bi] {
                out.union_with(&live_in[s.index()]);
            }
            if out != live_out[bi] {
                let mut inp = out.clone();
                inp.subtract(&defs[bi]);
                inp.union_with(&uses[bi]);
                changed |= inp != live_in[bi];
                live_in[bi] = inp;
                live_out[bi] = out;
            }
        }
    }
    live_out
}

/// Remove pure instructions whose result is never used. Returns the
/// rewritten program and the number of instructions deleted. Runs liveness
/// to a fixpoint internally (removing one dead instruction can make its
/// operands' producers dead too).
pub fn dead_code_elimination(p: &TacProgram) -> (TacProgram, usize) {
    let mut cur = p.clone();
    let mut removed_total = 0usize;
    loop {
        let live_out = live_out_sets(&cur);
        let mut removed = 0usize;
        for (bi, b) in cur.blocks.iter_mut().enumerate() {
            // Walk backwards tracking liveness inside the block.
            let mut live = live_out[bi].clone();
            for r in b.term.reads() {
                live.insert(r.index());
            }
            let mut keep: Vec<bool> = vec![true; b.instrs.len()];
            for (ii, inst) in b.instrs.iter().enumerate().rev() {
                let essential = matches!(inst, Instr::Store { .. } | Instr::Print { .. });
                let dest_live = inst.writes().is_some_and(|w| live.contains(w.index()));
                if essential || dest_live {
                    if let Some(w) = inst.writes() {
                        live.remove(w.index());
                    }
                    for r in inst.reads() {
                        live.insert(r.index());
                    }
                } else {
                    keep[ii] = false;
                    removed += 1;
                }
            }
            if removed > 0 {
                let mut i = 0;
                b.instrs.retain(|_| {
                    let k = keep[i];
                    i += 1;
                    k
                });
            }
        }
        removed_total += removed;
        if removed == 0 {
            break;
        }
    }
    (cur, removed_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liw_ir::{compile, run};

    fn opt(src: &str) -> (TacProgram, TacProgram, usize) {
        let p = compile(src).unwrap();
        let (q, n) = dead_code_elimination(&p);
        assert_eq!(
            run(&p).unwrap().output,
            run(&q).unwrap().output,
            "DCE changed semantics\n{}",
            q.to_text()
        );
        (p, q, n)
    }

    #[test]
    fn removes_unused_computation() {
        let (_, q, n) = opt("program t; var x, y: int;
             begin x := 1 + 2; y := 5; print y; end.");
        assert!(n >= 1, "{}", q.to_text());
        // Only the printed value's producer and the print remain.
        assert_eq!(q.instr_count(), 2, "{}", q.to_text());
    }

    #[test]
    fn cascading_dead_chains() {
        let (_, q, n) = opt("program t; var a, b, c, d: int;
             begin a := 1; b := a + 1; c := b * 2; d := 7; print d; end.");
        assert!(n >= 3, "removed only {n}: {}", q.to_text());
        assert_eq!(q.instr_count(), 2); // d := 7; print d
    }

    #[test]
    fn keeps_values_live_across_blocks() {
        let (_, q, _) = opt("program t; var x, c: int;
             begin
               x := 41;
               if c > 0 then c := 1; else c := 2;
               print x + c;
             end.");
        // x := 41 must survive (used after the join).
        let has_x = q
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| i.writes().map(|w| q.var(w).name == "x").unwrap_or(false));
        assert!(has_x, "{}", q.to_text());
    }

    #[test]
    fn keeps_loop_carried_values() {
        let (p, q, _) = opt("program t; var i, s: int;
             begin
               s := 0;
               i := 0;
               while i < 5 do begin s := s + i; i := i + 1; end;
               print s;
             end.");
        assert_eq!(p.instr_count(), q.instr_count(), "nothing here is dead");
    }

    #[test]
    fn stores_and_prints_are_never_removed() {
        let (_, q, _) = opt("program t; var a: array[4] of int; x: int;
             begin a[0] := 1; x := 9; print x; end.");
        let stores = q
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Store { .. }))
            .count();
        assert_eq!(stores, 1);
    }

    #[test]
    fn dead_load_is_removed() {
        let (_, q, n) = opt("program t; var a: array[4] of int; x, y: int;
             begin x := a[2]; y := 3; print y; end.");
        assert!(n >= 1);
        let loads = q
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Load { .. }))
            .count();
        assert_eq!(loads, 0, "{}", q.to_text());
    }

    #[test]
    fn branch_condition_stays_live() {
        let (_, q, _) = opt("program t; var c: int;
             begin c := 1; if c > 0 then print 1; else print 0; end.");
        let has_c = q
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| i.writes().map(|w| q.var(w).name == "c").unwrap_or(false));
        assert!(has_c, "{}", q.to_text());
    }
}
