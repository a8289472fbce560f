//! The sparse constant propagation against the dense solver it replaced
//! (`dense_const_prop`): the same lattice value at every use of every
//! queried variable, for the queries the lints make (subscripts, branch
//! conditions) and for every variable. The TACs are the 264 corpus
//! variants: the 11 programs with no unroll and unrolled by 2, 4 and 8, at
//! k = 2, 4 and 8, with the optimizer on and off. `tests/property.rs`
//! runs the same comparison on generated programs.
//!
//! The NaN program below pins what both solvers must do with a NaN
//! constant: keep it through a join with itself, and settle.

mod dense_const_prop;

use dense_const_prop::assert_matches_dense;
use parallel_memories::driver::Session;
use parallel_memories::ir::tac::{Instr, TacProgram};
use parallel_memories::lint::analyses::{SubscriptAnalysis, SubscriptClass};
use parallel_memories::lint::{array_stride_profiles, lint_program, BitSet, LintOptions};

/// The variables `p` reads as subscripts, as branch conditions, and all.
fn queries(p: &TacProgram) -> [BitSet; 3] {
    let mut subscripts = BitSet::new(p.vars.len());
    let mut conds = BitSet::new(p.vars.len());
    for b in &p.blocks {
        for inst in &b.instrs {
            if let Instr::Load { index, .. } | Instr::Store { index, .. } = inst {
                if let Some(v) = index.var() {
                    subscripts.insert(v.index());
                }
            }
        }
        for v in b.term.reads() {
            conds.insert(v.index());
        }
    }
    [subscripts, conds, BitSet::full(p.vars.len())]
}

#[test]
fn sparse_const_prop_matches_dense_on_the_corpus() {
    let mut variants = 0;
    let mut compared = [0; 3];
    for bench in parallel_memories::workloads::all_benchmarks() {
        for unroll in [None, Some(2), Some(4), Some(8)] {
            for k in [2, 4, 8] {
                let mut session = Session::new(k);
                if let Some(factor) = unroll {
                    session = session.with_unroll(factor);
                }
                let tac = session.frontend(bench.source).expect(bench.name);
                let opt = session.optimize(&tac);
                for (optimized, p) in [(false, &tac), (true, &opt)] {
                    let label = format!("{} unroll {unroll:?} k={k} opt={optimized}", bench.name);
                    for (n, query) in compared.iter_mut().zip(queries(p)) {
                        *n += assert_matches_dense(&label, p, &query);
                    }
                    variants += 1;
                }
            }
        }
    }
    assert_eq!(variants, 264);
    assert!(
        compared.iter().all(|&n| n > 0),
        "uses compared: {compared:?}"
    );
}

/// `y` is NaN on both arms of a branch the solvers cannot decide, and the
/// loop's subscript is `trunc(y)`, which is 0.
const NAN_PROGRAM: &str = "program t; var x, y: real; c, i, j: int; a: array[4] of int;
    begin
      x := sqrt(0.0 - 1.0);
      c := a[1];
      if c > 0 then y := x; else y := x;
      while j < 3 do begin
        i := trunc(y);
        a[i] := j;
        j := j + 1;
      end;
    end.";

#[test]
fn nan_constants_survive_joins_and_settle() {
    let p = parallel_memories::ir::compile(NAN_PROGRAM).unwrap();
    for query in queries(&p) {
        assert_matches_dense("NaN program", &p, &query);
    }
    let sa = SubscriptAnalysis::compute(&p);
    let mut classes: Vec<_> = sa.classes.iter().collect();
    classes.sort_by_key(|((b, i), _)| (b.0, *i));
    let stores: Vec<SubscriptClass> = classes
        .iter()
        .filter(|((b, i), _)| {
            matches!(p.blocks[b.index()].instrs[*i as usize], Instr::Store { .. })
        })
        .map(|(_, c)| **c)
        .collect();
    assert_eq!(stores, [SubscriptClass::Fixed(0)]);
    assert_eq!(array_stride_profiles(&p)[0].dominant_stride, Some(0));
    let diags = lint_program(&p, &LintOptions { modules: 4 });
    assert!(
        diags.iter().any(|d| d.render().contains("fixed at 0")),
        "{diags:?}"
    );
}
