//! Differential pin for the dataflow shim: `parmem_verify::dataflow`'s
//! `for_each_use` (reaching definitions) delegates to the shared
//! `parmem-lint` fixpoint engine, as does `parmem_lint::Liveness`. This test
//! embeds a verbatim copy of the historical from-scratch solvers and checks
//! that both results are byte-identical (under a canonical serialization)
//! on every workload in the corpus, with no unroll and unrolled by 4, both
//! unoptimized and after the full `liw-opt` pipeline.

use std::collections::{HashMap, HashSet};

use liw_ir::tac::{BlockId, TacProgram, VarId};
use liw_ir::webs::TERM_IDX;
use parmem_lint::{BitSet, Liveness};
use parmem_verify::dataflow::{for_each_use, Def};

/// The historical implementations, copied verbatim from
/// `crates/verify/src/dataflow.rs` as of the commit that introduced the
/// shim. Do not "fix" or modernize this module: its whole value is that it
/// is the old code.
mod reference {
    use super::*;
    use liw_ir::cfg::Cfg;

    pub struct RefReachingDefs {
        pub at_use: HashMap<(BlockId, u32, VarId), Vec<Def>>,
    }

    impl RefReachingDefs {
        pub fn compute(p: &TacProgram) -> RefReachingDefs {
            let cfg = Cfg::build(p);
            let n_vars = p.vars.len();

            let mut defs: Vec<Def> = (0..n_vars as u32).map(|v| Def::Entry(VarId(v))).collect();
            let mut def_var: Vec<VarId> = (0..n_vars as u32).map(VarId).collect();
            for (bi, b) in p.blocks.iter().enumerate() {
                for (ii, inst) in b.instrs.iter().enumerate() {
                    if let Some(v) = inst.writes() {
                        defs.push(Def::Instr(BlockId(bi as u32), ii as u32));
                        def_var.push(v);
                    }
                }
            }
            let mut defs_of_var: Vec<Vec<usize>> = vec![Vec::new(); n_vars];
            for (d, &v) in def_var.iter().enumerate() {
                defs_of_var[v.index()].push(d);
            }

            let nb = p.blocks.len();
            let mut gen: Vec<HashSet<usize>> = vec![HashSet::new(); nb];
            let mut kill: Vec<HashSet<usize>> = vec![HashSet::new(); nb];
            let site_index: HashMap<Def, usize> =
                defs.iter().enumerate().map(|(i, &d)| (d, i)).collect();
            for (bi, b) in p.blocks.iter().enumerate() {
                let mut last: HashMap<VarId, usize> = HashMap::new();
                for (ii, inst) in b.instrs.iter().enumerate() {
                    if let Some(v) = inst.writes() {
                        last.insert(v, site_index[&Def::Instr(BlockId(bi as u32), ii as u32)]);
                    }
                }
                for (&v, &d) in &last {
                    gen[bi].insert(d);
                    for &other in &defs_of_var[v.index()] {
                        if other != d {
                            kill[bi].insert(other);
                        }
                    }
                }
            }

            let mut inb: Vec<HashSet<usize>> = vec![HashSet::new(); nb];
            let mut outb: Vec<HashSet<usize>> = vec![HashSet::new(); nb];
            inb[p.entry.index()].extend(0..n_vars);
            let mut changed = true;
            while changed {
                changed = false;
                for &b in &cfg.rpo {
                    let bi = b.index();
                    let mut new_in = inb[bi].clone();
                    for pred in &cfg.preds[bi] {
                        for &d in &outb[pred.index()] {
                            new_in.insert(d);
                        }
                    }
                    let mut new_out: HashSet<usize> = new_in
                        .iter()
                        .copied()
                        .filter(|d| !kill[bi].contains(d))
                        .collect();
                    new_out.extend(gen[bi].iter().copied());
                    if new_in != inb[bi] || new_out != outb[bi] {
                        changed = true;
                    }
                    inb[bi] = new_in;
                    outb[bi] = new_out;
                }
            }

            let mut at_use = HashMap::new();
            for &b in &cfg.rpo {
                let bi = b.index();
                let mut local_last: HashMap<VarId, usize> = HashMap::new();
                let reaching = |v: VarId, local_last: &HashMap<VarId, usize>| -> Vec<Def> {
                    if let Some(&d) = local_last.get(&v) {
                        return vec![defs[d]];
                    }
                    let mut out: Vec<Def> = inb[bi]
                        .iter()
                        .copied()
                        .filter(|&d| def_var[d] == v)
                        .map(|d| defs[d])
                        .collect();
                    out.sort_by_key(|d| match *d {
                        Def::Entry(v) => (0, 0, v.0),
                        Def::Instr(b, i) => (1, b.0, i),
                    });
                    out
                };
                for (ii, inst) in p.blocks[bi].instrs.iter().enumerate() {
                    for v in inst.reads() {
                        at_use.insert((b, ii as u32, v), reaching(v, &local_last));
                    }
                    if let Some(v) = inst.writes() {
                        local_last.insert(v, site_index[&Def::Instr(b, ii as u32)]);
                    }
                }
                for v in p.blocks[bi].term.reads() {
                    at_use.insert((b, TERM_IDX, v), reaching(v, &local_last));
                }
            }

            RefReachingDefs { at_use }
        }
    }

    pub struct RefLiveness {
        pub live_in: Vec<HashSet<VarId>>,
        pub live_out: Vec<HashSet<VarId>>,
    }

    impl RefLiveness {
        pub fn compute(p: &TacProgram) -> RefLiveness {
            let cfg = Cfg::build(p);
            let nb = p.blocks.len();

            let mut use_b: Vec<HashSet<VarId>> = vec![HashSet::new(); nb];
            let mut def_b: Vec<HashSet<VarId>> = vec![HashSet::new(); nb];
            for (bi, b) in p.blocks.iter().enumerate() {
                for inst in &b.instrs {
                    for v in inst.reads() {
                        if !def_b[bi].contains(&v) {
                            use_b[bi].insert(v);
                        }
                    }
                    if let Some(v) = inst.writes() {
                        def_b[bi].insert(v);
                    }
                }
                for v in b.term.reads() {
                    if !def_b[bi].contains(&v) {
                        use_b[bi].insert(v);
                    }
                }
            }

            let mut live_in: Vec<HashSet<VarId>> = vec![HashSet::new(); nb];
            let mut live_out: Vec<HashSet<VarId>> = vec![HashSet::new(); nb];
            let mut changed = true;
            while changed {
                changed = false;
                for &b in cfg.rpo.iter().rev() {
                    let bi = b.index();
                    let mut new_out = HashSet::new();
                    for s in &cfg.succs[bi] {
                        new_out.extend(live_in[s.index()].iter().copied());
                    }
                    let mut new_in = use_b[bi].clone();
                    new_in.extend(new_out.iter().filter(|v| !def_b[bi].contains(v)));
                    if new_in != live_in[bi] || new_out != live_out[bi] {
                        changed = true;
                    }
                    live_in[bi] = new_in;
                    live_out[bi] = new_out;
                }
            }
            RefLiveness { live_in, live_out }
        }
    }
}

fn fmt_def(d: &Def) -> String {
    match *d {
        Def::Entry(v) => format!("E{}", v.0),
        Def::Instr(b, i) => format!("I{}:{}", b.0, i),
    }
}

fn canon_rd(at_use: &HashMap<(BlockId, u32, VarId), Vec<Def>>) -> String {
    let mut keys: Vec<&(BlockId, u32, VarId)> = at_use.keys().collect();
    keys.sort_by_key(|(b, i, v)| (b.0, *i, v.0));
    let mut out = String::new();
    for k in keys {
        let defs: Vec<String> = at_use[k].iter().map(fmt_def).collect();
        out.push_str(&format!(
            "use B{}:{} v{} <- [{}]\n",
            k.0 .0,
            k.1,
            k.2 .0,
            defs.join(",")
        ));
    }
    out
}

fn canon_live(live_in: &[HashSet<VarId>], live_out: &[HashSet<VarId>]) -> String {
    let fmt = |s: &HashSet<VarId>| {
        let mut v: Vec<u32> = s.iter().map(|v| v.0).collect();
        v.sort_unstable();
        format!("{v:?}")
    };
    let mut out = String::new();
    for bi in 0..live_in.len() {
        out.push_str(&format!(
            "B{bi} in={} out={}\n",
            fmt(&live_in[bi]),
            fmt(&live_out[bi])
        ));
    }
    out
}

fn check_program(label: &str, p: &TacProgram) {
    let mut new_at_use = HashMap::new();
    for_each_use(p, |site, defs| {
        let again = new_at_use.insert(site, defs.collect());
        assert!(again.is_none(), "use {site:?} visited twice on {label}");
    });
    let old_rd = reference::RefReachingDefs::compute(p);
    assert_eq!(
        canon_rd(&new_at_use),
        canon_rd(&old_rd.at_use),
        "reaching defs diverged on {label}"
    );

    let new_lv = Liveness::compute(p);
    let to_sets = |sets: &[BitSet]| -> Vec<HashSet<VarId>> {
        let vars = |s: &BitSet| s.iter().map(|v| VarId(v as u32)).collect();
        sets.iter().map(vars).collect()
    };
    let old_lv = reference::RefLiveness::compute(p);
    assert_eq!(
        canon_live(&to_sets(&new_lv.live_in), &to_sets(&new_lv.live_out)),
        canon_live(&old_lv.live_in, &old_lv.live_out),
        "liveness diverged on {label}"
    );
}

#[test]
fn shim_matches_historical_solvers_on_full_corpus() {
    // The unroll-4 TACs are the ones the planned-layout path analyzes.
    let unroll4 = liw_ir::unroll::UnrollConfig {
        factor: 4,
        max_body_stmts: 16,
    };
    for bench in workloads::all_benchmarks() {
        let p = liw_ir::compile(bench.source).expect(bench.name);
        check_program(&format!("{} (no-opt)", bench.name), &p);

        let (opt, _) = liw_opt::optimize(&p);
        check_program(&format!("{} (opt)", bench.name), &opt);

        let u = liw_ir::compile_unrolled(bench.source, unroll4).expect(bench.name);
        check_program(&format!("{} (unroll 4, no-opt)", bench.name), &u);

        let (opt, _) = liw_opt::optimize(&u);
        check_program(&format!("{} (unroll 4, opt)", bench.name), &opt);
    }
}

#[test]
fn shim_matches_on_branchy_and_degenerate_programs() {
    let cases = [
        ("empty", "program t; begin end."),
        (
            "branchy",
            "program t; var a, b, c: int;
             begin
               a := 1;
               if a > 0 then b := a; else b := 2;
               while b < 10 do begin c := b; b := b + c; end;
               print b;
             end.",
        ),
        (
            "uninit-merge",
            "program t; var s, i: int;
             begin for i := 1 to 4 do s := s + i; print s; end.",
        ),
    ];
    for (label, src) in cases {
        let p = liw_ir::compile(src).expect(label);
        check_program(label, &p);
    }
}
