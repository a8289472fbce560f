//! The dense constant propagation `parmem_lint::ConstProp` replaced, kept
//! as the reference its sparse solve is tested against. Everything below
//! the helper is the old code verbatim, except that `ConstVal` is the
//! lint crate's, so joins and the engine's change test compare values with
//! `Value::same` (without it the old code never settled on NaN).
//!
//! The old code carries one environment of every sliced variable per
//! block, which `entry_env` exposes, and replays a block's instructions
//! (`apply_instr`) to read a value between them (`eval_operand`).

use parallel_memories::ir::cfg::Cfg;
use parallel_memories::ir::tac::{eval_op, Instr, Operand, TacProgram, Value, VarId};
use parallel_memories::ir::webs::TERM_IDX;
use parallel_memories::ir::Ty;
use parallel_memories::lint::engine::{solve, steps_bound, Analysis, Direction, FlowGraph};
use parallel_memories::lint::{BitSet, ConstVal};

/// Compare the sparse solve with this one over `query` at every use of
/// every queried variable in a reachable block, and return how many uses
/// that was.
pub fn assert_matches_dense(label: &str, p: &TacProgram, query: &BitSet) -> usize {
    let cfg = Cfg::build(p);
    let dense = ConstProp::compute(p, query);
    let sparse = parallel_memories::lint::ConstProp::compute(p, &cfg, query);
    let mut compared = 0;
    for &b in &cfg.rpo {
        let block = &p.blocks[b.index()];
        let mut env = dense.entry_env[b.index()].clone();
        let mut check = |ii: u32, reads: Vec<VarId>, env: &[ConstVal]| {
            for (j, v) in reads.iter().enumerate() {
                if query.contains(v.index()) && !reads[..j].contains(v) {
                    let o = Operand::Var(*v);
                    let (want, got) = (dense.eval_operand(env, &o), sparse.operand(b, ii, &o));
                    assert_eq!(got, want, "{label}: {v:?} read at {b:?}:{ii}");
                    compared += 1;
                }
            }
        };
        for (ii, inst) in block.instrs.iter().enumerate() {
            check(ii as u32, inst.reads(), &env);
            dense.apply_instr(&mut env, inst);
        }
        check(TERM_IDX, block.term.reads(), &env);
    }
    compared
}

/// Dense, conditional-free constant propagation: a forward analysis over the
/// pointwise [`ConstVal`] lattice that carries one environment per block and
/// folds every branch arm in, whether or not the branch can be taken.
///
/// It solves over a *slice* of the program's variables: the ones the caller
/// queries, closed under "is an operand of a definition of". A variable's
/// value depends only on the values of its definitions' operands (a load is
/// ⊤ whatever its subscript), so every sliced variable gets exactly the value
/// a solve over all variables gives it. The boundary seeds each sliced
/// variable with its implicit zero initializer, matching the interpreter's
/// semantics.
pub struct ConstProp {
    /// Each variable's position in the slice (`OUTSIDE` when not in it).
    slot: Vec<u32>,
    /// The lattice environment on entry to each block, one value per sliced
    /// variable in ascending variable order (unreachable blocks stay
    /// all-`Bottom`). Read it through [`ConstProp::eval_operand`].
    pub entry_env: Vec<Vec<ConstVal>>,
}

/// The slot of a variable outside the constant-propagation slice.
const OUTSIDE: u32 = u32::MAX;

struct ConstAnalysis<'p> {
    p: &'p TacProgram,
    slice: &'p [VarId],
    slot: &'p [u32],
}

fn zero_value(ty: Ty) -> Value {
    match ty {
        Ty::Int => Value::Int(0),
        Ty::Real => Value::Real(0.0),
        Ty::Bool => Value::Bool(false),
    }
}

impl Analysis for ConstAnalysis<'_> {
    type Domain = Vec<ConstVal>;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> Vec<ConstVal> {
        self.slice
            .iter()
            .map(|&v| ConstVal::Known(zero_value(self.p.var(v).ty)))
            .collect()
    }
    fn init(&self) -> Vec<ConstVal> {
        vec![ConstVal::Bottom; self.slice.len()]
    }
    fn join(&self, into: &mut Vec<ConstVal>, from: &Vec<ConstVal>) {
        for (a, b) in into.iter_mut().zip(from) {
            a.join_with(b);
        }
    }
    fn transfer(&self, n: usize, input: &Vec<ConstVal>) -> Vec<ConstVal> {
        let mut env = input.clone();
        for inst in &self.p.blocks[n].instrs {
            apply_instr(self.slot, &mut env, inst);
        }
        env
    }
}

/// The variables of `p` whose constant values decide those of `query`:
/// `query` closed under "is an operand of a computed or selected
/// definition of", in ascending order.
fn const_slice(p: &TacProgram, query: &BitSet) -> Vec<VarId> {
    // (dest, operand) for every definition whose value depends on its
    // operands' values, sorted so each dest's operands are one run.
    let mut deps: Vec<(VarId, VarId)> = Vec::new();
    for inst in p.blocks.iter().flat_map(|b| &b.instrs) {
        if let Instr::Compute { dest, .. } | Instr::Select { dest, .. } = inst {
            deps.extend(inst.reads().into_iter().map(|o| (*dest, o)));
        }
    }
    deps.sort_unstable();
    let mut in_slice = query.clone();
    let mut stack: Vec<usize> = query.iter().collect();
    while let Some(v) = stack.pop() {
        let from = deps.partition_point(|&(d, _)| d.index() < v);
        for &(d, o) in &deps[from..] {
            if d.index() != v {
                break;
            }
            if in_slice.insert(o.index()) {
                stack.push(o.index());
            }
        }
    }
    in_slice.iter().map(|v| VarId(v as u32)).collect()
}

/// The lattice value of `o` under `env` (see [`ConstProp::eval_operand`]).
fn eval_operand(slot: &[u32], env: &[ConstVal], o: &Operand) -> ConstVal {
    match o {
        Operand::Const(c) => ConstVal::Known(*c),
        Operand::Var(v) => {
            let s = slot[v.index()];
            assert!(
                s != OUTSIDE,
                "`{v:?}` is outside the constant-propagation slice"
            );
            env[s as usize].clone()
        }
    }
}

/// Advance `env` across `inst` (see [`ConstProp::apply_instr`]). A write to
/// a variable outside the slice changes nothing in it; a sliced write's
/// operands are sliced too, by construction.
fn apply_instr(slot: &[u32], env: &mut [ConstVal], inst: &Instr) {
    let Some(dest) = inst.writes() else {
        return;
    };
    let d = slot[dest.index()];
    if d == OUTSIDE {
        return;
    }
    env[d as usize] = match inst {
        Instr::Compute { op, lhs, rhs, .. } => {
            let a = eval_operand(slot, env, lhs);
            let b = rhs.as_ref().map(|r| eval_operand(slot, env, r));
            match (a, b) {
                (ConstVal::Bottom, _) | (_, Some(ConstVal::Bottom)) => ConstVal::Bottom,
                (ConstVal::Top, _) | (_, Some(ConstVal::Top)) => ConstVal::Top,
                (ConstVal::Known(x), None) => ConstVal::Known(eval_op(*op, x, None)),
                (ConstVal::Known(x), Some(ConstVal::Known(y))) => {
                    ConstVal::Known(eval_op(*op, x, Some(y)))
                }
            }
        }
        Instr::Load { .. } => ConstVal::Top,
        Instr::Select {
            cond,
            if_true,
            if_false,
            ..
        } => {
            let t = eval_operand(slot, env, if_true);
            let f = eval_operand(slot, env, if_false);
            match eval_operand(slot, env, cond) {
                ConstVal::Bottom => ConstVal::Bottom,
                ConstVal::Known(v) => {
                    if v.as_bool() {
                        t
                    } else {
                        f
                    }
                }
                ConstVal::Top => {
                    let mut j = t;
                    j.join_with(&f);
                    j
                }
            }
        }
        Instr::Store { .. } | Instr::Print { .. } => unreachable!("writes no scalar"),
    };
}

impl ConstProp {
    /// Solve constant propagation over `p` for the variables in `query` (a
    /// set over `0..p.vars.len()`) and everything their values depend on.
    pub fn compute(p: &TacProgram, query: &BitSet) -> ConstProp {
        let slice = const_slice(p, query);
        let mut slot = vec![OUTSIDE; p.vars.len()];
        for (i, v) in slice.iter().enumerate() {
            slot[v.index()] = i as u32;
        }
        let cfg = Cfg::build(p);
        let g = FlowGraph::from_cfg(&cfg);
        let a = ConstAnalysis {
            p,
            slice: &slice,
            slot: &slot,
        };
        // Each sliced variable can move Bottom → Known → Top: height
        // 2·|slice|.
        let sol = solve(&g, &a, steps_bound(p.blocks.len(), 2 * slice.len()));
        debug_assert!(sol.converged, "const prop is monotone");
        ConstProp {
            slot,
            entry_env: sol.input,
        }
    }

    /// The lattice value of an operand under `env`, an environment derived
    /// from [`ConstProp::entry_env`].
    ///
    /// # Panics
    ///
    /// If `o` is a variable outside the slice: only the queried variables
    /// and those their values depend on are solved.
    pub fn eval_operand(&self, env: &[ConstVal], o: &Operand) -> ConstVal {
        eval_operand(&self.slot, env, o)
    }

    /// Advance `env` across one instruction (the per-instruction transfer;
    /// lint passes replay this to query facts *between* instructions).
    pub fn apply_instr(&self, env: &mut [ConstVal], inst: &Instr) {
        apply_instr(&self.slot, env, inst)
    }
}
