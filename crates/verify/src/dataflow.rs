//! Independent dataflow analyses over the `liw-ir` TAC and the scheduled
//! program, used to re-prove the renaming (fresh-value) assumption.
//!
//! The TAC-level reaching definitions delegate to the shared `parmem-lint`
//! fixpoint engine behind a thin shim (`tests/dataflow_shim.rs` pins them,
//! and lint's liveness, byte-identical to the historical from-scratch
//! solvers over the whole workload corpus). The scheduled-program checks
//! below remain self-contained: they analyze the *scheduled* CFG, which the
//! lint engine's TAC front end does not see.

use std::collections::HashMap;

use liw_ir::cfg::Cfg;
use liw_ir::tac::{BlockId, TacProgram, VarId};
use liw_ir::webs::Webs;
use liw_sched::{SchedProgram, SchedTerm};
use parmem_lint::analyses as lint;
use parmem_lint::BitSet;

use crate::diag::{Code, Diagnostic};

/// A definition site, mirroring `liw_ir::webs::DefSite` but owned by the
/// verifier so the analysis does not lean on the code under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Def {
    /// The implicit zero-initialization of `var` at program entry.
    Entry(VarId),
    /// The instruction at `(block, index)`.
    Instr(BlockId, u32),
}

/// Reaching definitions, recomputed from scratch: every scalar use of `p`
/// with the definitions of its variable that reach it, handed to `visit`
/// one use at a time (blocks in reverse postorder, uses in program order,
/// each use site once). Delegates to the shared `parmem-lint` engine,
/// queried for every variable; `tests/dataflow_shim.rs` pins the visits
/// byte-identical to the historical in-crate solver.
pub fn for_each_use(
    p: &TacProgram,
    mut visit: impl FnMut((BlockId, u32, VarId), &mut dyn Iterator<Item = Def>),
) {
    let cfg = Cfg::build(p);
    let all = BitSet::full(p.vars.len());
    lint::ReachingDefs::for_each_use(p, &cfg, &all, |site, defs, sites| {
        visit(
            site,
            &mut defs.iter().map(|&d| match sites[d as usize] {
                lint::DefSite::Entry(v) => Def::Entry(v),
                lint::DefSite::Instr(b, i) => Def::Instr(b, i),
            }),
        )
    });
}

/// Re-prove the renaming (fresh-value) invariant: every use reads exactly
/// the web of each definition reaching it, and no web spans two program
/// variables.
///
/// A violation means a value could be read after a *different* definition of
/// its variable overwrote the shared storage — a stale read the paper's
/// "distinct data value per definition" model rules out.
pub fn check_renaming(p: &TacProgram, webs: &Webs) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // PM102: each web renames exactly one variable.
    if let Some((w, v)) = webs
        .web_var
        .iter()
        .enumerate()
        .find(|&(_, v)| v.index() >= p.vars.len())
    {
        diags.push(
            Diagnostic::new(
                Code::PM102,
                format!("web {w} names out-of-range variable {}", v.0),
            )
            .with_value(w as u32),
        );
    }
    let mut web_seen_var: HashMap<u32, VarId> = HashMap::new();
    let mut note_web_var = |w: u32, v: VarId, diags: &mut Vec<Diagnostic>| {
        if let Some(&prev) = web_seen_var.get(&w) {
            if prev != v {
                diags.push(
                    Diagnostic::new(
                        Code::PM102,
                        format!(
                            "web {w} renames both `{}` and `{}`",
                            p.var(prev).name,
                            p.var(v).name
                        ),
                    )
                    .with_value(w),
                );
            }
        } else {
            web_seen_var.insert(w, v);
        }
    };

    // PM101: for each use, every reaching definition carries the use's web.
    for_each_use(p, |(block, idx, var), defs| {
        let Some(use_web) = webs.of_use(block, idx, var) else {
            diags.push(
                Diagnostic::new(
                    Code::PM101,
                    format!("use of `{}` has no web", p.var(var).name),
                )
                .in_block(block.0),
            );
            return;
        };
        note_web_var(use_web, var, &mut diags);
        for d in defs {
            let def_web = match d {
                Def::Entry(v) => webs.of_entry(v),
                Def::Instr(b, i) => webs.of_def(b, i),
            };
            match def_web {
                Some(dw) if dw == use_web => note_web_var(dw, var, &mut diags),
                Some(dw) => {
                    diags.push(
                        Diagnostic::new(
                            Code::PM101,
                            format!(
                                "use of `{}` reads web {use_web} but reaching definition \
                                 {d:?} defines web {dw}",
                                p.var(var).name
                            ),
                        )
                        .with_value(use_web)
                        .in_block(block.0),
                    );
                }
                None => {
                    diags.push(
                        Diagnostic::new(
                            Code::PM101,
                            format!("definition {d:?} of `{}` has no web", p.var(var).name),
                        )
                        .in_block(block.0),
                    );
                }
            }
        }
    });

    diags.sort_by(|a, b| (a.code, &a.message).cmp(&(b.code, &b.message)));
    diags
}

/// Check the scheduled program's word-level dataflow: every read of a data
/// value must be preceded by a definition on *all* paths from entry (PM103),
/// and no long word may write the same value twice (PM104).
pub fn check_scheduled_dataflow(sched: &SchedProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let nb = sched.blocks.len();
    let n = sched.n_values;

    // Successor/predecessor maps over the scheduled CFG.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (bi, b) in sched.blocks.iter().enumerate() {
        let ss: Vec<usize> = match &b.term {
            SchedTerm::Jump(t) => vec![t.index()],
            SchedTerm::Branch {
                then_to, else_to, ..
            } => vec![then_to.index(), else_to.index()],
            SchedTerm::Halt => Vec::new(),
        };
        for s in ss {
            succs[bi].push(s);
            preds[s].push(bi);
        }
    }

    // Dense sets over every value the program mentions (malformed programs
    // may name values past `n_values`).
    let universe = sched
        .blocks
        .iter()
        .flat_map(|b| {
            let ops = b.words.iter().flat_map(|w| &w.ops);
            ops.flat_map(|o| o.scalar_reads().chain(o.writes()))
                .chain(b.term.cond_web())
        })
        .chain(sched.entry_value.iter().copied())
        .map(|v| v as usize + 1)
        .fold(n, usize::max);

    // Per-block defs, plus PM104 (double write within one word).
    let mut defs_b: Vec<BitSet> = vec![BitSet::new(universe); nb];
    let mut written: Vec<u32> = Vec::new();
    for (bi, b) in sched.blocks.iter().enumerate() {
        for (wi, word) in b.words.iter().enumerate() {
            written.clear();
            for op in &word.ops {
                if let Some(d) = op.writes() {
                    if written.contains(&d) {
                        diags.push(
                            Diagnostic::new(
                                Code::PM104,
                                format!("word {wi} writes data value {d} twice"),
                            )
                            .with_value(d)
                            .in_block(bi as u32),
                        );
                    } else {
                        written.push(d);
                    }
                    defs_b[bi].insert(d as usize);
                }
            }
        }
    }

    // Definitely-assigned forward must analysis. Entry starts with the
    // entry webs; all other blocks start at ⊤ (everything assigned) and are
    // narrowed by intersection over predecessors.
    let mut entry_defined = BitSet::new(universe);
    for &v in &sched.entry_value {
        entry_defined.insert(v as usize);
    }
    let full = BitSet::full(universe);
    let mut inb: Vec<BitSet> = vec![full.clone(); nb];
    let mut outb: Vec<BitSet> = vec![full.clone(); nb];
    let entry = sched.entry.index();
    outb[entry] = entry_defined.clone();
    outb[entry].union_with(&defs_b[entry]);
    inb[entry] = entry_defined;

    // Reachability-restricted iteration (unreachable blocks keep ⊤ and are
    // skipped below).
    let mut reachable = vec![false; nb];
    let mut stack = vec![entry];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut reachable[b], true) {
            continue;
        }
        stack.extend(succs[b].iter().copied());
    }

    let mut changed = true;
    while changed {
        changed = false;
        for bi in 0..nb {
            if !reachable[bi] || bi == entry {
                continue;
            }
            let mut new_in = full.clone();
            for &p in &preds[bi] {
                if reachable[p] {
                    new_in.intersect_with(&outb[p]);
                }
            }
            let mut new_out = new_in.clone();
            new_out.union_with(&defs_b[bi]);
            if new_in != inb[bi] || new_out != outb[bi] {
                changed = true;
            }
            inb[bi] = new_in;
            outb[bi] = new_out;
        }
    }

    // Walk each reachable block's words checking reads against the running
    // defined set (reads observe the word-start snapshot, so a word's own
    // writes only take effect for the *next* word).
    for (bi, b) in sched.blocks.iter().enumerate() {
        if !reachable[bi] {
            continue;
        }
        let mut defined = inb[bi].clone();
        for (wi, word) in b.words.iter().enumerate() {
            let mut reads: Vec<u32> = word.ops.iter().flat_map(|o| o.scalar_reads()).collect();
            if wi + 1 == b.words.len() {
                if let Some(c) = b.term.cond_web() {
                    reads.push(c);
                }
            }
            reads.sort_unstable();
            reads.dedup();
            for r in reads {
                if !defined.contains(r as usize) {
                    diags.push(
                        Diagnostic::new(
                            Code::PM103,
                            format!(
                                "word {wi} reads data value {r} not defined on every \
                                 path from entry"
                            ),
                        )
                        .with_value(r)
                        .in_block(bi as u32),
                    );
                }
            }
            for op in &word.ops {
                if let Some(d) = op.writes() {
                    defined.insert(d as usize);
                }
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use liw_ir::webs::compute_webs;
    use liw_sched::{schedule, MachineSpec};

    fn tac(src: &str) -> TacProgram {
        liw_ir::compile(src).unwrap()
    }

    const BRANCHY: &str = "program t; var x, c, y: int;
        begin
          c := 3;
          if c > 0 then x := 1; else x := 2;
          y := x;
          while y < 10 do y := y + x;
          print y;
        end.";

    #[test]
    fn reaching_defs_cover_merges() {
        let p = tac(BRANCHY);
        // Some use of x after the join must see two reaching defs.
        let mut multi = false;
        for_each_use(&p, |(_, _, v), defs| {
            multi |= p.var(v).name == "x" && defs.count() == 2;
        });
        assert!(multi, "join use of x should see both defs");
    }

    #[test]
    fn computed_webs_pass_renaming_check() {
        for src in [
            BRANCHY,
            "program t; var i, s: int;
             begin s := 0; for i := 1 to 9 do s := s + i; print s; end.",
            "program t; var x, a, b: int;
             begin x := 1; a := x; x := 2; b := x; print a + b; end.",
        ] {
            let p = tac(src);
            let w = compute_webs(&p);
            let diags = check_renaming(&p, &w);
            assert!(diags.is_empty(), "{src}: {diags:?}");
        }
    }

    #[test]
    fn scheduled_dataflow_clean_on_real_programs() {
        let p = tac(BRANCHY);
        let sp = schedule(&p, MachineSpec::with_modules(4));
        let diags = check_scheduled_dataflow(&sp);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn double_write_in_one_word_is_pm104() {
        let p = tac("program t; var a, b: int; begin a := 1; b := 2; print a + b; end.");
        let mut sp = schedule(&p, MachineSpec::with_modules(4));
        // Corrupt: make two ops in some word write the same dest.
        'outer: for b in &mut sp.blocks {
            for w in &mut b.words {
                if w.ops.len() >= 2 {
                    let d = w.ops[0].writes();
                    if let (Some(d), liw_sched::SlotOp::Compute { dest, .. }) = (d, &mut w.ops[1]) {
                        *dest = d;
                        break 'outer;
                    }
                }
            }
        }
        let diags = check_scheduled_dataflow(&sp);
        assert!(
            diags.iter().any(|d| d.code == Code::PM104),
            "expected PM104, got {diags:?}"
        );
    }

    #[test]
    fn undefined_read_is_pm103() {
        let p = tac("program t; var a: int; begin a := 1; print a; end.");
        let mut sp = schedule(&p, MachineSpec::with_modules(4));
        // Corrupt: rewrite a read to a value nobody defines.
        let ghost = sp.n_values as u32;
        sp.n_values += 1;
        sp.value_var.push(liw_ir::VarId(0));
        'outer: for b in &mut sp.blocks {
            for w in &mut b.words {
                for op in &mut w.ops {
                    if let liw_sched::SlotOp::Print { value } = op {
                        *value = liw_sched::SOperand::Scalar(ghost);
                        break 'outer;
                    }
                }
            }
        }
        let diags = check_scheduled_dataflow(&sp);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::PM103 && d.value == Some(ghost)),
            "expected PM103 on V{ghost}, got {diags:?}"
        );
    }
}
