//! Concrete dataflow analyses over `liw-ir` TAC: liveness, reaching
//! definitions and definite initialization as [`Analysis`] instances of the
//! shared fixpoint engine, constant propagation as sweeps over one
//! reaching-definitions solve, and the subscript (stride) analysis behind
//! the static bank-conflict lints.
//!
//! The liveness and reaching-definitions results are pinned to the
//! historical `parmem-verify` solvers by a differential test over the whole
//! workload corpus; the verifier's renaming check reads its reaching
//! definitions from here.

use std::collections::HashMap;

use liw_ir::cfg::{natural_loops, Cfg};
use liw_ir::tac::{eval_op, BlockId, Instr, OpCode, Operand, TacProgram, Value, VarId};
use liw_ir::webs::TERM_IDX;
use liw_ir::{BitSet, Ty};

use crate::engine::{solve, steps_bound, Analysis, Direction, FlowGraph};

// ---------------------------------------------------------------- liveness

/// Per-block liveness of scalar variables (backward may analysis).
pub struct Liveness {
    /// Variables live on entry to each block.
    pub live_in: Vec<BitSet>,
    /// Variables live on exit from each block.
    pub live_out: Vec<BitSet>,
}

struct LivenessAnalysis {
    use_b: Vec<BitSet>,
    def_b: Vec<BitSet>,
    n_vars: usize,
}

impl Analysis for LivenessAnalysis {
    type Domain = BitSet;
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn boundary(&self) -> BitSet {
        BitSet::new(self.n_vars)
    }
    fn init(&self) -> BitSet {
        BitSet::new(self.n_vars)
    }
    fn join(&self, into: &mut BitSet, from: &BitSet) {
        into.union_with(from);
    }
    fn transfer(&self, n: usize, live_out: &BitSet) -> BitSet {
        // live_in = use ∪ (live_out − def)
        let mut live_in = live_out.clone();
        live_in.subtract(&self.def_b[n]);
        live_in.union_with(&self.use_b[n]);
        live_in
    }
}

impl Liveness {
    /// Solve backward liveness over `p`. Unreachable blocks get empty sets.
    pub fn compute(p: &TacProgram) -> Liveness {
        let cfg = Cfg::build(p);
        let g = FlowGraph::from_cfg(&cfg);
        let n_vars = p.vars.len();
        let nb = p.blocks.len();

        let mut use_b = vec![BitSet::new(n_vars); nb];
        let mut def_b = vec![BitSet::new(n_vars); nb];
        for (bi, b) in p.blocks.iter().enumerate() {
            for inst in &b.instrs {
                for v in inst.reads() {
                    if !def_b[bi].contains(v.index()) {
                        use_b[bi].insert(v.index());
                    }
                }
                if let Some(v) = inst.writes() {
                    def_b[bi].insert(v.index());
                }
            }
            for v in b.term.reads() {
                if !def_b[bi].contains(v.index()) {
                    use_b[bi].insert(v.index());
                }
            }
        }

        let a = LivenessAnalysis {
            use_b,
            def_b,
            n_vars,
        };
        let sol = solve(&g, &a, steps_bound(nb, n_vars));
        debug_assert!(sol.converged, "liveness is monotone");
        Liveness {
            live_in: sol.output,
            live_out: sol.input,
        }
    }
}

// -------------------------------------------------------- reaching defs

/// A definition site: the implicit zero-initialization at program entry, or
/// an explicit write by the instruction at `(block, index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DefSite {
    /// The implicit zero-initialization of `var` at program entry.
    Entry(VarId),
    /// The instruction at `(block, index)`.
    Instr(BlockId, u32),
}

/// The definition sites of one reaching-definitions solve (forward may
/// analysis) over the variables a caller queries; see
/// [`ReachingDefs::for_each_use`].
pub struct ReachingDefs {
    /// Definition sites of the queried variables in enumeration order: their
    /// entry defs first, by variable, then instruction defs in
    /// `(block, instr)` order. A use names its reaching definitions by
    /// their index here.
    pub sites: Vec<DefSite>,
}

struct ReachingAnalysis {
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
    n_sites: usize,
    entry_sites: BitSet,
}

impl Analysis for ReachingAnalysis {
    type Domain = BitSet;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> BitSet {
        self.entry_sites.clone()
    }
    fn init(&self) -> BitSet {
        BitSet::new(self.n_sites)
    }
    fn join(&self, into: &mut BitSet, from: &BitSet) {
        into.union_with(from);
    }
    fn transfer(&self, n: usize, input: &BitSet) -> BitSet {
        // out = (in − kill) ∪ gen
        let mut out = input.clone();
        out.subtract(&self.kill[n]);
        out.union_with(&self.gen[n]);
        out
    }
}

/// No definition of the variable seen yet in the current block.
const NO_SITE: u32 = u32::MAX;

impl ReachingDefs {
    /// Solve the forward may-reach problem over `p`, whose CFG is `cfg`, for
    /// the variables in `query` (a set over `0..p.vars.len()`), and hand
    /// each use of one of them to `visit`, once: the use `(block,
    /// instr-or-TERM_IDX, var)`, the definitions of `var` that reach it as
    /// ascending indices into the site table, and the site table. Reachable
    /// blocks come in reverse postorder, uses in program order, the
    /// terminator's last. Returns the site table.
    ///
    /// A definition of one variable never generates or kills another's, so
    /// each queried variable's facts are exactly those of a solve over every
    /// variable; unqueried variables get no sites and no visits.
    pub fn for_each_use(
        p: &TacProgram,
        cfg: &Cfg,
        query: &BitSet,
        mut visit: impl FnMut((BlockId, u32, VarId), &[u32], &[DefSite]),
    ) -> ReachingDefs {
        let g = FlowGraph::from_cfg(cfg);
        let n_vars = p.vars.len();
        let nb = p.blocks.len();
        let queried = |v: &VarId| query.contains(v.index());

        // Enumerate definition sites densely: entry defs first. Each block's
        // instruction defs are contiguous from `first_site[block]`.
        let mut site_var: Vec<VarId> = query.iter().map(|v| VarId(v as u32)).collect();
        let mut sites: Vec<DefSite> = site_var.iter().map(|&v| DefSite::Entry(v)).collect();
        let n_entry = sites.len();
        let mut first_site = Vec::with_capacity(nb);
        for (bi, b) in p.blocks.iter().enumerate() {
            first_site.push(sites.len() as u32);
            for (ii, inst) in b.instrs.iter().enumerate() {
                if let Some(v) = inst.writes().filter(queried) {
                    sites.push(DefSite::Instr(BlockId(bi as u32), ii as u32));
                    site_var.push(v);
                }
            }
        }
        let n_sites = sites.len();
        // Each variable's sites in ascending order, which is also the order
        // visits list them in: `var_sites[var_start[v]..var_start[v + 1]]`.
        let mut var_start = vec![0u32; n_vars + 1];
        for v in &site_var {
            var_start[v.index() + 1] += 1;
        }
        for v in 0..n_vars {
            var_start[v + 1] += var_start[v];
        }
        let mut var_sites = vec![0u32; n_sites];
        let mut fill = var_start.clone();
        for (s, v) in site_var.iter().enumerate() {
            let at = &mut fill[v.index()];
            var_sites[*at as usize] = s as u32;
            *at += 1;
        }
        let sites_of =
            |v: VarId| &var_sites[var_start[v.index()] as usize..var_start[v.index() + 1] as usize];

        // Per-block gen (last def of each var) and kill (all other defs of
        // a var the block writes). `last` holds the running last def per
        // variable; `written` lists the variables to reset after a block.
        let mut last = vec![NO_SITE; n_vars];
        let mut written: Vec<VarId> = Vec::new();
        let mut gen = vec![BitSet::new(n_sites); nb];
        let mut kill = vec![BitSet::new(n_sites); nb];
        for (bi, b) in p.blocks.iter().enumerate() {
            let mut next = first_site[bi];
            for inst in &b.instrs {
                if let Some(v) = inst.writes().filter(queried) {
                    if last[v.index()] == NO_SITE {
                        written.push(v);
                    }
                    last[v.index()] = next;
                    next += 1;
                }
            }
            for v in written.drain(..) {
                let d = std::mem::replace(&mut last[v.index()], NO_SITE);
                gen[bi].insert(d as usize);
                for &other in sites_of(v) {
                    if other != d {
                        kill[bi].insert(other as usize);
                    }
                }
            }
        }

        let mut entry_sites = BitSet::new(n_sites);
        for s in 0..n_entry {
            entry_sites.insert(s);
        }
        let a = ReachingAnalysis {
            gen,
            kill,
            n_sites,
            entry_sites,
        };
        let sol = solve(&g, &a, steps_bound(nb, n_sites));
        debug_assert!(sol.converged, "reaching defs is monotone");

        // Walk each reachable block visiting the defs reaching each queried
        // use: the block's own last def when there is one, else the
        // variable's sites that reach the block entry.
        let mut defs: Vec<u32> = Vec::new();
        for &b in &cfg.rpo {
            let bi = b.index();
            let mut reaching = |site: (BlockId, u32, VarId), last: &[u32]| {
                let v = site.2;
                defs.clear();
                match last[v.index()] {
                    NO_SITE => defs.extend(
                        sites_of(v)
                            .iter()
                            .filter(|&&d| sol.input[bi].contains(d as usize)),
                    ),
                    d => defs.push(d),
                }
                visit(site, &defs, &sites);
            };
            let mut next = first_site[bi];
            for (ii, inst) in p.blocks[bi].instrs.iter().enumerate() {
                // An instruction that reads a variable twice is one use site.
                let reads = inst.reads();
                for (j, v) in reads.iter().enumerate() {
                    if queried(v) && !reads[..j].contains(v) {
                        reaching((b, ii as u32, *v), &last);
                    }
                }
                if let Some(v) = inst.writes().filter(queried) {
                    if last[v.index()] == NO_SITE {
                        written.push(v);
                    }
                    last[v.index()] = next;
                    next += 1;
                }
            }
            for v in p.blocks[bi].term.reads().into_iter().filter(queried) {
                reaching((b, TERM_IDX, v), &last);
            }
            for v in written.drain(..) {
                last[v.index()] = NO_SITE;
            }
        }
        ReachingDefs { sites }
    }
}

// ------------------------------------------------------- definite init

/// Definitely-initialized variables (forward must analysis): a variable is
/// in the set only when it has been explicitly assigned on *every* path
/// from entry. Uses outside the set rely on MiniLang's implicit zero
/// initialization on at least one path.
pub struct DefiniteInit {
    /// Variables definitely assigned on entry to each block.
    pub assigned_in: Vec<BitSet>,
}

struct InitAnalysis {
    writes_b: Vec<BitSet>,
    n_vars: usize,
}

impl Analysis for InitAnalysis {
    type Domain = BitSet;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> BitSet {
        BitSet::new(self.n_vars)
    }
    fn init(&self) -> BitSet {
        // Must analysis: the join identity is ⊤ (everything assigned).
        BitSet::full(self.n_vars)
    }
    fn join(&self, into: &mut BitSet, from: &BitSet) {
        into.intersect_with(from);
    }
    fn transfer(&self, n: usize, input: &BitSet) -> BitSet {
        let mut out = input.clone();
        out.union_with(&self.writes_b[n]);
        out
    }
}

impl DefiniteInit {
    /// Solve definite initialization over `p`.
    pub fn compute(p: &TacProgram) -> DefiniteInit {
        let cfg = Cfg::build(p);
        let g = FlowGraph::from_cfg(&cfg);
        let n_vars = p.vars.len();
        let nb = p.blocks.len();

        let mut writes_b = vec![BitSet::new(n_vars); nb];
        for (bi, b) in p.blocks.iter().enumerate() {
            for inst in &b.instrs {
                if let Some(v) = inst.writes() {
                    writes_b[bi].insert(v.index());
                }
            }
        }
        let a = InitAnalysis { writes_b, n_vars };
        let sol = solve(&g, &a, steps_bound(nb, n_vars));
        debug_assert!(sol.converged, "definite init is monotone");
        DefiniteInit {
            assigned_in: sol.input,
        }
    }

    /// Every scalar use that may execute before any explicit assignment of
    /// its variable, sorted by `(block, instr, var)`. The instruction index
    /// is `TERM_IDX` for terminator (branch condition) uses.
    pub fn maybe_uninit_uses(p: &TacProgram) -> Vec<(BlockId, u32, VarId)> {
        let cfg = Cfg::build(p);
        let di = DefiniteInit::compute(p);
        let mut out = Vec::new();
        for &b in &cfg.rpo {
            let bi = b.index();
            let mut assigned = di.assigned_in[bi].clone();
            for (ii, inst) in p.blocks[bi].instrs.iter().enumerate() {
                for v in inst.reads() {
                    if !assigned.contains(v.index()) {
                        out.push((b, ii as u32, v));
                    }
                }
                if let Some(v) = inst.writes() {
                    assigned.insert(v.index());
                }
            }
            for v in p.blocks[bi].term.reads() {
                if !assigned.contains(v.index()) {
                    out.push((b, TERM_IDX, v));
                }
            }
        }
        out.sort_by_key(|&(b, i, v)| (b.0, i, v.0));
        out
    }
}

// --------------------------------------------------------- const prop

/// One variable's value in the constant-propagation lattice:
/// `Bottom < Known(v) < Top`.
///
/// Two `Known` values are equal when they are [`Value::same`]: NaN equals
/// NaN, so joining a NaN constant with itself keeps it and a fixpoint over
/// it settles.
#[derive(Clone, Debug)]
pub enum ConstVal {
    /// No path reaches this point yet (the join identity).
    Bottom,
    /// Every path computes exactly this value.
    Known(Value),
    /// Different paths disagree (or the value is data-dependent).
    Top,
}

impl PartialEq for ConstVal {
    fn eq(&self, other: &ConstVal) -> bool {
        match (self, other) {
            (ConstVal::Bottom, ConstVal::Bottom) | (ConstVal::Top, ConstVal::Top) => true,
            (ConstVal::Known(a), ConstVal::Known(b)) => a.same(*b),
            _ => false,
        }
    }
}

impl ConstVal {
    /// `self ⊔= other`.
    pub fn join_with(&mut self, other: &ConstVal) {
        match (&*self, other) {
            (_, ConstVal::Bottom) => {}
            (ConstVal::Bottom, _) => *self = other.clone(),
            (ConstVal::Top, _) | (_, ConstVal::Top) => *self = ConstVal::Top,
            (ConstVal::Known(a), ConstVal::Known(b)) => {
                if !a.same(*b) {
                    *self = ConstVal::Top;
                }
            }
        }
    }
}

/// Sparse, conditional-free constant propagation over the [`ConstVal`]
/// lattice: every branch arm is folded in, whether or not the branch can be
/// taken.
///
/// It solves over a *slice* of the program's variables: the ones the caller
/// queries, closed under "is an operand of a computed or selected definition
/// of". A variable's value depends only on the values of its definitions'
/// operands (a load is ⊤ whatever its subscript), so every sliced variable
/// gets exactly the value a solve over all variables gives it.
///
/// One [`ReachingDefs::for_each_use`] solve over the slice records which
/// definitions reach each use of a sliced variable. Each definition site
/// then holds one value: the variable's implicit zero initializer for an
/// entry site (the interpreter's semantics), or what its instruction
/// computes for an instruction site. The value at a use is the join of the
/// values of the definitions reaching it. Sweeps over the instruction sites
/// in reverse postorder recompute each from the values at its operands
/// until none changes. A dense solve's environment at a block's entry holds,
/// for each variable, exactly the join of the definitions reaching it there,
/// so both solves reach the same fixpoint.
pub struct ConstProp {
    /// The slice's definition sites (see [`ReachingDefs::sites`]).
    sites: Vec<DefSite>,
    /// The value each site defines.
    values: Vec<ConstVal>,
    /// The sliced variables.
    in_slice: BitSet,
    /// Per block, the range of its uses in `uses` (empty when unreachable).
    block_uses: Vec<(u32, u32)>,
    /// Per use of a sliced variable, reachable blocks in reverse postorder
    /// and program order within each: the reading instruction's index
    /// (`TERM_IDX` for the terminator), the variable, and where the use's
    /// reaching definitions end in `use_defs`. They start where the previous
    /// use's end.
    uses: Vec<(u32, VarId, u32)>,
    /// Every use's reaching definitions, as indices into `sites`.
    use_defs: Vec<u32>,
}

fn zero_value(ty: Ty) -> Value {
    match ty {
        Ty::Int => Value::Int(0),
        Ty::Real => Value::Real(0.0),
        Ty::Bool => Value::Bool(false),
    }
}

/// The variables of `p` whose constant values decide those of `query`:
/// `query` closed under "is an operand of a computed or selected
/// definition of".
fn const_slice(p: &TacProgram, query: &BitSet) -> BitSet {
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
    in_slice
}

impl ConstProp {
    /// Solve constant propagation over `p`, whose CFG is `cfg`, for the
    /// variables in `query` (a set over `0..p.vars.len()`) and everything
    /// their values depend on.
    pub fn compute(p: &TacProgram, cfg: &Cfg, query: &BitSet) -> ConstProp {
        let in_slice = const_slice(p, query);
        let mut block_uses = vec![(0, 0); p.blocks.len()];
        let mut uses = Vec::new();
        let mut use_defs = Vec::new();
        let rd = ReachingDefs::for_each_use(p, cfg, &in_slice, |(b, ii, v), defs, _| {
            let (u, r) = (uses.len() as u32, &mut block_uses[b.index()]);
            if r.0 == r.1 {
                *r = (u, u);
            }
            r.1 = u + 1;
            use_defs.extend_from_slice(defs);
            uses.push((ii, v, use_defs.len() as u32));
        });
        let values = rd
            .sites
            .iter()
            .map(|s| match *s {
                DefSite::Entry(v) => ConstVal::Known(zero_value(p.var(v).ty)),
                DefSite::Instr(..) => ConstVal::Bottom,
            })
            .collect();
        let mut cp = ConstProp {
            sites: rd.sites,
            values,
            in_slice,
            block_uses,
            uses,
            use_defs,
        };

        // The instruction sites of reachable blocks, in reverse postorder.
        let mut order: Vec<u32> = (0..cp.sites.len() as u32)
            .filter(
                |&s| matches!(cp.sites[s as usize], DefSite::Instr(b, _) if cfg.is_reachable(b)),
            )
            .collect();
        order.sort_unstable_by_key(|&s| match cp.sites[s as usize] {
            DefSite::Instr(b, i) => (cfg.rpo_pos[b.index()], i),
            DefSite::Entry(_) => unreachable!("filtered out"),
        });
        loop {
            let mut changed = false;
            for &s in &order {
                let DefSite::Instr(b, ii) = cp.sites[s as usize] else {
                    unreachable!("only instruction sites are swept")
                };
                let value = cp.eval(b, ii, &p.blocks[b.index()].instrs[ii as usize]);
                if value != cp.values[s as usize] {
                    cp.values[s as usize] = value;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        parmem_obs::counter_add("lint.const_sites", order.len() as u64);
        cp
    }

    /// The value the sliced definition `inst`, instruction `ii` of block
    /// `b`, computes from the values at its operands.
    fn eval(&self, b: BlockId, ii: u32, inst: &Instr) -> ConstVal {
        let at = |o: &Operand| self.operand(b, ii, o);
        match inst {
            Instr::Compute { op, lhs, rhs, .. } => match (at(lhs), rhs.as_ref().map(at)) {
                (ConstVal::Bottom, _) | (_, Some(ConstVal::Bottom)) => ConstVal::Bottom,
                (ConstVal::Top, _) | (_, Some(ConstVal::Top)) => ConstVal::Top,
                (ConstVal::Known(x), None) => ConstVal::Known(eval_op(*op, x, None)),
                (ConstVal::Known(x), Some(ConstVal::Known(y))) => {
                    ConstVal::Known(eval_op(*op, x, Some(y)))
                }
            },
            Instr::Load { .. } => ConstVal::Top,
            Instr::Select {
                cond,
                if_true,
                if_false,
                ..
            } => match at(cond) {
                ConstVal::Bottom => ConstVal::Bottom,
                ConstVal::Known(c) if c.as_bool() => at(if_true),
                ConstVal::Known(_) => at(if_false),
                ConstVal::Top => {
                    let mut j = at(if_true);
                    j.join_with(&at(if_false));
                    j
                }
            },
            Instr::Store { .. } | Instr::Print { .. } => unreachable!("writes no scalar"),
        }
    }

    /// The definitions of `v` that reach its use by instruction `ii` of
    /// block `b` (`TERM_IDX`: by the terminator), as ascending indices into
    /// the slice's sites (read them with [`ConstProp::site`]). Empty when
    /// `b` is unreachable or does not read `v` there.
    ///
    /// # Panics
    ///
    /// If `v` is outside the slice: only the queried variables and those
    /// their values depend on are solved.
    pub fn reaching(&self, b: BlockId, ii: u32, v: VarId) -> &[u32] {
        assert!(
            self.in_slice.contains(v.index()),
            "`{v:?}` is outside the constant-propagation slice"
        );
        let (lo, hi) = self.block_uses[b.index()];
        let (lo, hi) = (lo as usize, hi as usize);
        let first = lo + self.uses[lo..hi].partition_point(|&(i, _, _)| i < ii);
        let Some(u) = (first..hi)
            .take_while(|&u| self.uses[u].0 == ii)
            .find(|&u| self.uses[u].1 == v)
        else {
            return &[];
        };
        let start = if u == 0 { 0 } else { self.uses[u - 1].2 };
        &self.use_defs[start as usize..self.uses[u].2 as usize]
    }

    /// The definition site at `index`, an entry of
    /// [`ConstProp::reaching`].
    pub fn site(&self, index: u32) -> DefSite {
        self.sites[index as usize]
    }

    /// The lattice value of operand `o` where instruction `ii` of block `b`
    /// (`TERM_IDX`: its terminator) reads it: the join of the values of the
    /// definitions reaching it, `Bottom` when none do.
    ///
    /// # Panics
    ///
    /// If `o` is a variable outside the slice.
    pub fn operand(&self, b: BlockId, ii: u32, o: &Operand) -> ConstVal {
        match o {
            Operand::Const(c) => ConstVal::Known(*c),
            Operand::Var(v) => {
                let mut value = ConstVal::Bottom;
                for &d in self.reaching(b, ii, *v) {
                    value.join_with(&self.values[d as usize]);
                }
                value
            }
        }
    }
}

// ------------------------------------------------------ subscripts

/// The compile-time shape of one array subscript.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubscriptClass {
    /// The subscript is this constant every time the access executes.
    Fixed(i64),
    /// Inside its innermost loop the subscript advances by this (non-zero)
    /// stride per iteration.
    Strided(i64),
    /// The subscript does not change across iterations of the innermost
    /// enclosing loop.
    Invariant,
    /// No compile-time shape established.
    Unknown,
}

/// Constant/stride classification of every array subscript, from constant
/// propagation plus an induction-variable analysis over the natural loops.
///
/// The stride classification is a *may* fact used for advisory lints: an
/// access tagged `Strided(s)` advances by `s` on the iterations that
/// execute it, which is what the interleaved-layout hazard check needs.
pub struct SubscriptAnalysis {
    /// Class per array-access instruction `(block, instr)`.
    pub classes: HashMap<(BlockId, u32), SubscriptClass>,
}

impl SubscriptAnalysis {
    /// Classify every `Load`/`Store` subscript in `p` (reachable blocks
    /// only).
    pub fn compute(p: &TacProgram) -> SubscriptAnalysis {
        let cfg = Cfg::build(p);
        let idom = cfg.dominators();
        let loops = natural_loops(&cfg, &idom);
        let nb = p.blocks.len();

        // Innermost (smallest) containing loop per block.
        let mut inner: Vec<Option<usize>> = vec![None; nb];
        for (bi, slot) in inner.iter_mut().enumerate() {
            let mut best: Option<usize> = None;
            for (li, l) in loops.iter().enumerate() {
                if l.blocks.contains(&BlockId(bi as u32))
                    && best.is_none_or(|cur: usize| loops[cur].blocks.len() > l.blocks.len())
                {
                    best = Some(li);
                }
            }
            *slot = best;
        }

        // Basic induction variables per loop: exactly one in-loop def of
        // the form `v := v ± c`, whose block dominates every latch (so the
        // increment runs once per iteration).
        let mut ivs: Vec<HashMap<VarId, i64>> = vec![HashMap::new(); loops.len()];
        let mut defs: Vec<(VarId, BlockId, usize)> = Vec::new();
        for (li, l) in loops.iter().enumerate() {
            defs.clear();
            for &b in &l.blocks {
                for (ii, inst) in p.blocks[b.index()].instrs.iter().enumerate() {
                    if let Some(v) = inst.writes() {
                        defs.push((v, b, ii));
                    }
                }
            }
            defs.sort_unstable_by_key(|&(v, ..)| v);
            let latches: Vec<BlockId> = cfg.preds[l.header.index()]
                .iter()
                .filter(|b| l.blocks.contains(b))
                .copied()
                .collect();
            for run in defs.chunk_by(|x, y| x.0 == y.0) {
                let [(v, db, di)] = *run else {
                    continue;
                };
                if !latches.iter().all(|&lt| cfg.dominates(&idom, db, lt)) {
                    continue;
                }
                if let Instr::Compute { dest, op, lhs, rhs } = &p.blocks[db.index()].instrs[di] {
                    debug_assert_eq!(*dest, v);
                    let stride = match (op, lhs, rhs) {
                        (OpCode::Add, Operand::Var(x), Some(Operand::Const(Value::Int(c))))
                            if *x == v =>
                        {
                            Some(*c)
                        }
                        (OpCode::Add, Operand::Const(Value::Int(c)), Some(Operand::Var(x)))
                            if *x == v =>
                        {
                            Some(*c)
                        }
                        (OpCode::Sub, Operand::Var(x), Some(Operand::Const(Value::Int(c))))
                            if *x == v =>
                        {
                            c.checked_neg()
                        }
                        _ => None,
                    };
                    if let Some(s) = stride {
                        if s != 0 {
                            ivs[li].insert(v, s);
                        }
                    }
                }
            }
        }

        // Constants and reaching definitions from one solve over the
        // subscript variables' slice.
        let mut subscripts = BitSet::new(p.vars.len());
        for inst in p.blocks.iter().flat_map(|b| &b.instrs) {
            if let Instr::Load { index, .. } | Instr::Store { index, .. } = inst {
                if let Some(v) = index.var() {
                    subscripts.insert(v.index());
                }
            }
        }
        let cp = ConstProp::compute(p, &cfg, &subscripts);

        let mut classes = HashMap::new();
        for &b in &cfg.rpo {
            for (ii, inst) in p.blocks[b.index()].instrs.iter().enumerate() {
                if let Instr::Load { index, .. } | Instr::Store { index, .. } = inst {
                    let site = (b, ii as u32);
                    let class = classify(p, &cp, index, site, inner[b.index()], &loops, &ivs);
                    classes.insert(site, class);
                }
            }
        }
        SubscriptAnalysis { classes }
    }
}

/// Classify one subscript operand, read by instruction `at.1` of block
/// `at.0`.
fn classify(
    p: &TacProgram,
    cp: &ConstProp,
    index: &Operand,
    (b, ii): (BlockId, u32),
    inner: Option<usize>,
    loops: &[liw_ir::cfg::NaturalLoop],
    ivs: &[HashMap<VarId, i64>],
) -> SubscriptClass {
    if let ConstVal::Known(v) = cp.operand(b, ii, index) {
        return SubscriptClass::Fixed(v.as_int());
    }
    let Some(x) = index.var() else {
        return SubscriptClass::Unknown;
    };
    let Some(li) = inner else {
        return SubscriptClass::Unknown;
    };
    if let Some(&s) = ivs[li].get(&x) {
        return SubscriptClass::Strided(s);
    }
    let defs = cp.reaching(b, ii, x);
    let in_loop =
        |d: u32| matches!(cp.site(d), DefSite::Instr(db, _) if loops[li].blocks.contains(&db));
    if defs.iter().all(|&d| !in_loop(d)) {
        return SubscriptClass::Invariant;
    }
    // Single reaching def inside the loop: recognize one derivation step
    // off a basic induction variable.
    if let [d] = *defs {
        if let DefSite::Instr(db, di) = cp.site(d) {
            if let Instr::Compute { op, lhs, rhs, .. } = &p.blocks[db.index()].instrs[di as usize] {
                let iv_stride = |o: &Operand| o.var().and_then(|v| ivs[li].get(&v).copied());
                let derived = match (op, lhs, rhs) {
                    // A stride that overflows i64 has no compile-time shape.
                    (OpCode::Mul, l, Some(Operand::Const(Value::Int(c)))) => {
                        iv_stride(l).and_then(|s| s.checked_mul(*c))
                    }
                    (OpCode::Mul, Operand::Const(Value::Int(c)), Some(r)) => {
                        iv_stride(r).and_then(|s| c.checked_mul(s))
                    }
                    (OpCode::Add, l, Some(Operand::Const(Value::Int(_)))) => iv_stride(l),
                    (OpCode::Add, Operand::Const(Value::Int(_)), Some(r)) => iv_stride(r),
                    (OpCode::Sub, l, Some(Operand::Const(Value::Int(_)))) => iv_stride(l),
                    (OpCode::Copy, l, None) => iv_stride(l),
                    _ => None,
                };
                if let Some(s) = derived {
                    if s != 0 {
                        return SubscriptClass::Strided(s);
                    }
                }
            }
        }
    }
    SubscriptClass::Unknown
}

/// Per-array placement profiles for the layout planner: the IR's static
/// access metadata enriched with each array's *dominant stride* — the most
/// common `Strided(s)` class among its subscripts (ties resolve to the
/// smaller |s|, then the smaller s). Accesses classified `Fixed`/`Invariant`
/// count as stride 0 (they revisit one element, the worst case for
/// interleaving); arrays whose subscripts are all `Unknown` get `None`.
///
/// This is the bridge from `parmem-lint`'s induction-variable analysis to
/// `parmem_core::layout::plan` — e.g. `ArrayPolicy::Auto` interleaves only
/// when the dominant stride is coprime to the module count.
pub fn array_stride_profiles(p: &TacProgram) -> Vec<parmem_core::layout::ArrayProfile> {
    let _span = parmem_obs::span("lint.stride_profiles");
    let sa = SubscriptAnalysis::compute(p);
    let meta = p.array_access_meta();
    let mut strides: Vec<HashMap<i64, u64>> = vec![HashMap::new(); meta.len()];
    for site in p.array_access_sites() {
        let s = match sa.classes.get(&(site.block, site.instr as u32)) {
            Some(SubscriptClass::Strided(s)) => Some(*s),
            Some(SubscriptClass::Fixed(_)) | Some(SubscriptClass::Invariant) => Some(0),
            Some(SubscriptClass::Unknown) | None => None,
        };
        if let Some(s) = s {
            *strides[site.arr.index()].entry(s).or_insert(0) += 1;
        }
    }
    meta.into_iter()
        .zip(strides)
        .map(|(m, hist)| parmem_core::layout::ArrayProfile {
            name: m.name,
            len: m.len,
            loads: m.loads,
            stores: m.stores,
            dominant_stride: hist
                .into_iter()
                .max_by(|(sa, ca), (sb, cb)| {
                    ca.cmp(cb)
                        .then(sb.unsigned_abs().cmp(&sa.unsigned_abs()))
                        .then(sb.cmp(sa))
                })
                .map(|(s, _)| s),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn var(p: &TacProgram, name: &str) -> VarId {
        VarId(p.vars.iter().position(|v| v.name == name).unwrap() as u32)
    }

    fn all_vars(p: &TacProgram) -> BitSet {
        BitSet::full(p.vars.len())
    }

    fn only(p: &TacProgram, vars: &[VarId]) -> BitSet {
        let mut s = BitSet::new(p.vars.len());
        for v in vars {
            s.insert(v.index());
        }
        s
    }

    /// Every visit of a reaching-definitions solve over `query`: the use
    /// and the definition sites reaching it.
    fn visits(p: &TacProgram, query: &BitSet) -> Vec<((BlockId, u32, VarId), Vec<DefSite>)> {
        let mut out = Vec::new();
        ReachingDefs::for_each_use(p, &Cfg::build(p), query, |site, defs, sites| {
            out.push((site, defs.iter().map(|&d| sites[d as usize]).collect()));
        });
        out
    }

    /// Every use `(block, instr-or-TERM_IDX, var)` of `v` in a reachable
    /// block.
    fn uses_of(p: &TacProgram, v: VarId) -> Vec<(BlockId, u32)> {
        let mut out = Vec::new();
        for &b in &Cfg::build(p).rpo {
            for (ii, inst) in p.blocks[b.index()].instrs.iter().enumerate() {
                if inst.reads().contains(&v) {
                    out.push((b, ii as u32));
                }
            }
            if p.blocks[b.index()].term.reads().contains(&v) {
                out.push((b, TERM_IDX));
            }
        }
        out
    }

    #[test]
    fn liveness_sees_loop_carried_values() {
        let p = tac(BRANCHY);
        let lv = Liveness::compute(&p);
        let x = var(&p, "x");
        assert!(lv.live_out.iter().any(|s| s.contains(x.index())));
        assert_eq!(lv.live_in.len(), p.blocks.len());
    }

    #[test]
    fn reaching_defs_cover_merges() {
        let p = tac(BRANCHY);
        let multi = visits(&p, &all_vars(&p))
            .iter()
            .any(|((_, _, v), defs)| p.var(*v).name == "x" && defs.len() == 2);
        assert!(multi, "join use of x should see both defs");
    }

    #[test]
    fn definite_init_flags_zero_init_reads() {
        let p = tac("program t; var s, i: int;
            begin for i := 1 to 3 do s := s + i; print s; end.");
        let uses = DefiniteInit::maybe_uninit_uses(&p);
        let s = var(&p, "s");
        assert!(uses.iter().any(|&(_, _, v)| v == s), "{uses:?}");
        // `i` is explicitly initialized by the for-loop header.
        let i = var(&p, "i");
        assert!(!uses.iter().any(|&(_, _, v)| v == i), "{uses:?}");
    }

    #[test]
    fn definite_init_clean_when_initialized() {
        let p = tac("program t; var s: int; begin s := 1; print s; end.");
        assert!(DefiniteInit::maybe_uninit_uses(&p).is_empty());
    }

    #[test]
    fn const_prop_folds_straight_line() {
        let p = tac("program t; var a, b: int; begin a := 2; b := a + 3; print b; end.");
        let bi = p.entry.index();
        let (ii, value) = p.blocks[bi]
            .instrs
            .iter()
            .enumerate()
            .find_map(|(ii, i)| match i {
                Instr::Print { value } => Some((ii as u32, *value)),
                _ => None,
            })
            .expect("a print");
        let printed: Vec<VarId> = value.var().into_iter().collect();
        let cp = ConstProp::compute(&p, &Cfg::build(&p), &only(&p, &printed));
        // The printed value (`b`, or a temp copy of it) folds to 5.
        assert_eq!(
            cp.operand(p.entry, ii, &value),
            ConstVal::Known(Value::Int(5))
        );
    }

    #[test]
    fn const_prop_tops_at_joins() {
        let p = tac(BRANCHY);
        let x = var(&p, "x");
        let cp = ConstProp::compute(&p, &Cfg::build(&p), &only(&p, &[x]));
        // Some use sees x as Top (1 on one path, 2 on the other).
        assert!(uses_of(&p, x)
            .iter()
            .any(|&(b, ii)| cp.operand(b, ii, &Operand::Var(x)) == ConstVal::Top));
    }

    #[test]
    fn const_prop_slice_matches_the_full_solve() {
        let p = tac("program t; var a, b, c, d, i: int;
            begin
              a := 2; c := 7; d := 1;
              for i := 0 to 9 do begin
                b := a * 3;
                if i > 4 then d := d + c; else c := c + 1;
              end;
              print b + c + d;
            end.");
        let cfg = Cfg::build(&p);
        let full = ConstProp::compute(&p, &cfg, &all_vars(&p));
        for name in ["b", "c", "d"] {
            let v = var(&p, name);
            let sliced = ConstProp::compute(&p, &cfg, &only(&p, &[v]));
            let uses = uses_of(&p, v);
            assert!(!uses.is_empty());
            for (b, ii) in uses {
                let o = Operand::Var(v);
                assert_eq!(full.operand(b, ii, &o), sliced.operand(b, ii, &o));
            }
        }
        // `b` depends on `a` alone: the loop counter and the accumulators
        // stay out of its slice.
        assert!(const_slice(&p, &only(&p, &[var(&p, "b")])).len() < p.vars.len() / 2);
    }

    #[test]
    #[should_panic(expected = "outside the constant-propagation slice")]
    fn const_prop_rejects_unsliced_queries() {
        let p = tac(BRANCHY);
        let cp = ConstProp::compute(&p, &Cfg::build(&p), &only(&p, &[var(&p, "c")]));
        cp.operand(p.entry, 0, &Operand::Var(var(&p, "y")));
    }

    #[test]
    fn reaching_defs_slice_matches_the_full_solve() {
        let p = tac(BRANCHY);
        let x = var(&p, "x");
        let mut want = visits(&p, &all_vars(&p));
        want.retain(|((_, _, v), _)| *v == x);
        let got = visits(&p, &only(&p, &[x]));
        assert!(!got.is_empty());
        assert_eq!(got, want);
        let rd = ReachingDefs::for_each_use(&p, &Cfg::build(&p), &only(&p, &[x]), |_, _, _| {});
        assert_eq!(rd.sites[0], DefSite::Entry(x));
        assert!(rd.sites[1..].iter().all(|s| match *s {
            DefSite::Instr(b, i) => p.blocks[b.index()].instrs[i as usize].writes() == Some(x),
            DefSite::Entry(_) => false,
        }));
    }

    #[test]
    fn each_use_site_is_visited_once() {
        // `y + y` reads `y` twice in one instruction: still one use site.
        let p = tac("program t; var y, z: int;
            begin y := 2; while y < 90 do y := y + y; z := y * y; print z; end.");
        let all = visits(&p, &all_vars(&p));
        let mut sites: Vec<_> = all.iter().map(|(site, _)| *site).collect();
        sites.sort_unstable_by_key(|&(b, i, v)| (b.0, i, v.0));
        sites.dedup();
        assert_eq!(sites.len(), all.len(), "each use site once");
        let y = var(&p, "y");
        let visited_y = all.iter().filter(|((_, _, v), _)| *v == y).count();
        assert_eq!(visited_y, uses_of(&p, y).len());
    }

    #[test]
    fn subscript_unit_stride_detected() {
        let p = tac("program t; var a: array[64] of int; i: int;
            begin for i := 0 to 63 do a[i] := i; end.");
        let sa = SubscriptAnalysis::compute(&p);
        assert!(
            sa.classes
                .values()
                .any(|c| *c == SubscriptClass::Strided(1)),
            "{:?}",
            sa.classes
        );
    }

    #[test]
    fn subscript_derived_stride_detected() {
        let p = tac("program t; var a: array[64] of int; i: int;
            begin for i := 0 to 31 do a[i * 2] := i; end.");
        let sa = SubscriptAnalysis::compute(&p);
        assert!(
            sa.classes
                .values()
                .any(|c| *c == SubscriptClass::Strided(2)),
            "{:?}",
            sa.classes
        );
    }

    #[test]
    fn subscript_invariant_detected() {
        let p = tac("program t; var a: array[8] of int; i, j, s: int;
            begin
              j := 3;
              for i := 0 to 7 do s := s + a[j + i - i];
            end.");
        // `j + i - i` defeats our one-step derivation, but a direct `a[j]`
        // with j loop-invariant must classify as Invariant or Fixed.
        let p2 = tac("program t; var a: array[8] of int; i, j, s: int;
            begin
              s := 0;
              for i := 0 to 20 do begin
                j := s + 1;
                s := s + a[j];
              end;
            end.");
        let sa2 = SubscriptAnalysis::compute(&p2);
        // a[j]: j's reaching def is in-loop and data-dependent → Unknown.
        assert!(sa2
            .classes
            .values()
            .any(|c| matches!(c, SubscriptClass::Unknown | SubscriptClass::Invariant)));
        let _ = SubscriptAnalysis::compute(&p);
    }

    #[test]
    fn subscript_fixed_from_const_prop() {
        let p = tac("program t; var a: array[8] of int; i: int;
            begin i := 5; a[i] := 1; end.");
        let sa = SubscriptAnalysis::compute(&p);
        assert!(
            sa.classes.values().any(|c| *c == SubscriptClass::Fixed(5)),
            "{:?}",
            sa.classes
        );
    }

    #[test]
    fn stride_profiles_report_dominant_stride() {
        let p = tac(
            "program t; var a: array[64] of int; b: array[16] of int; i: int;
            begin
              for i := 0 to 31 do a[i * 2] := i;
              for i := 0 to 15 do b[i] := i;
            end.",
        );
        let profiles = array_stride_profiles(&p);
        assert_eq!(profiles.len(), 2);
        let a = profiles.iter().find(|p| p.name == "a").unwrap();
        assert_eq!(a.dominant_stride, Some(2));
        assert_eq!((a.len, a.stores), (64, 1));
        let b = profiles.iter().find(|p| p.name == "b").unwrap();
        assert_eq!(b.dominant_stride, Some(1));
    }

    #[test]
    fn overflowing_stride_is_unknown() {
        // i advances by 2, so `i * 2^62` would advance by 2^63: no i64
        // stride, so no shape, no PML006 and no dominant stride.
        let p = tac("program t; var a: array[8] of int; i, s: int;
            begin
              i := 0; s := 0;
              while i < 8 do begin
                s := s + a[i * 4611686018427387904];
                i := i + 2;
              end;
              print s;
            end.");
        let sa = SubscriptAnalysis::compute(&p);
        assert_eq!(
            sa.classes.values().collect::<Vec<_>>(),
            vec![&SubscriptClass::Unknown]
        );
        let diags = crate::lint_program(&p, &crate::LintOptions { modules: 4 });
        assert!(
            diags.iter().all(|d| d.code != crate::LintCode::PML006),
            "{diags:?}"
        );
        assert_eq!(array_stride_profiles(&p)[0].dominant_stride, None);
    }

    #[test]
    fn negated_minimum_step_is_no_induction() {
        // `i := i - i64::MIN` has no i64 stride, so `i` is no induction
        // variable and `a[i]` has no shape. MiniLang cannot spell i64::MIN,
        // so patch it into the decrement.
        let mut p = tac("program t; var a: array[8] of int; i, s: int;
            begin
              while s < 3 do begin
                s := s + a[i];
                i := i - 1;
              end;
            end.");
        let i = var(&p, "i");
        let step = p
            .blocks
            .iter_mut()
            .flat_map(|b| &mut b.instrs)
            .find_map(|inst| match inst {
                Instr::Compute {
                    dest,
                    op: OpCode::Sub,
                    rhs: Some(rhs),
                    ..
                } if *dest == i => Some(rhs),
                _ => None,
            })
            .expect("the decrement of i");
        *step = Operand::Const(Value::Int(i64::MIN));
        let sa = SubscriptAnalysis::compute(&p);
        assert_eq!(
            sa.classes.values().collect::<Vec<_>>(),
            vec![&SubscriptClass::Unknown]
        );
    }

    #[test]
    fn stride_profiles_handle_unknown_subscripts() {
        let p = tac("program t; var a: array[8] of int; i, j, s: int;
            begin
              s := 0;
              for i := 0 to 20 do begin
                j := s + 1;
                s := s + a[j];
              end;
            end.");
        let profiles = array_stride_profiles(&p);
        assert_eq!(profiles.len(), 1);
        // Data-dependent subscript: no stride claim.
        assert_eq!(profiles[0].dominant_stride, None);
    }
}
