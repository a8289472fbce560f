//! Def-use *webs* — the renaming step that turns program variables into the
//! paper's *data values*.
//!
//! Paper §2: "Corresponding to each definition of a variable, a distinct
//! data value is created … the different data values of a variable are
//! treated independently. Thus no data value is ever updated." Definitions
//! that reach a common use must share a storage location, so the correct
//! granularity is the *web*: the transitive closure of def-use chains. Each
//! web becomes one data value for module assignment, and one scalar memory
//! location at run time.
//!
//! Built from classic reaching-definitions dataflow plus union-find.

use std::collections::HashMap;

use crate::bitset::BitSet;
use crate::cfg::Cfg;
use crate::tac::{BlockId, TacProgram, VarId};

/// Identifies a definition site: either the implicit initialization at
/// program entry (every variable starts defined as zero) or a program
/// instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DefSite {
    /// The implicit zero-initialization at program entry.
    Entry(VarId),
    /// The instruction at `(block, index)`.
    Instr(BlockId, u32),
}

/// Instruction index used in use-site keys to denote the block terminator.
pub const TERM_IDX: u32 = u32::MAX;

/// The web partition of a program's definitions and uses.
#[derive(Clone, Debug)]
pub struct Webs {
    /// Number of webs (data values).
    pub n_webs: usize,
    /// Web of each definition site.
    def_web: HashMap<DefSite, u32>,
    /// Web of each (block, instr-or-TERM_IDX, var) use.
    use_web: HashMap<(BlockId, u32, VarId), u32>,
    /// The program variable each web renames.
    pub web_var: Vec<VarId>,
}

impl Webs {
    /// Web (data value) written by the instruction at `(block, idx)`, if it
    /// writes a scalar.
    pub fn of_def(&self, block: BlockId, idx: u32) -> Option<u32> {
        self.def_web.get(&DefSite::Instr(block, idx)).copied()
    }

    /// Web (data value) read when the instruction at `(block, idx)` (or the
    /// terminator, `idx == TERM_IDX`) reads `var`.
    pub fn of_use(&self, block: BlockId, idx: u32, var: VarId) -> Option<u32> {
        self.use_web.get(&(block, idx, var)).copied()
    }

    /// Web of a variable's implicit entry definition.
    pub fn of_entry(&self, var: VarId) -> Option<u32> {
        self.def_web.get(&DefSite::Entry(var)).copied()
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut r = x;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        // Path compression.
        let mut c = x;
        while self.parent[c as usize] != r {
            let nxt = self.parent[c as usize];
            self.parent[c as usize] = r;
            c = nxt;
        }
        r
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// The *no-renaming* partition: one web per program variable, regardless of
/// its definitions. This is the baseline the paper's §3 closing remark
/// contrasts with ("instead of assigning a variable to the same memory
/// module for the entire program, each renamed definition can be assigned
/// to a different memory module") — used by the renaming ablation.
pub fn one_web_per_var(p: &TacProgram) -> Webs {
    let n_vars = p.vars.len();
    let mut def_web = HashMap::new();
    let mut use_web = HashMap::new();
    for v in 0..n_vars as u32 {
        def_web.insert(DefSite::Entry(VarId(v)), v);
    }
    for (bi, b) in p.blocks.iter().enumerate() {
        let block = BlockId(bi as u32);
        for (ii, inst) in b.instrs.iter().enumerate() {
            if let Some(v) = inst.writes() {
                def_web.insert(DefSite::Instr(block, ii as u32), v.0);
            }
            for v in inst.reads() {
                use_web.insert((block, ii as u32, v), v.0);
            }
        }
        for v in b.term.reads() {
            use_web.insert((block, TERM_IDX, v), v.0);
        }
    }
    Webs {
        n_webs: n_vars,
        def_web,
        use_web,
        web_var: (0..n_vars as u32).map(VarId).collect(),
    }
}

/// No definition of the variable seen yet in the current block.
const NO_SITE: usize = usize::MAX;

/// Compute the webs of `p`.
pub fn compute_webs(p: &TacProgram) -> Webs {
    let mut sp = parmem_obs::span("ir.webs");
    let n_vars = p.vars.len();
    let nb = p.blocks.len();

    // ---- enumerate definition sites ----
    // 0..n_vars are the entry defs; the rest are instruction defs, each
    // block's contiguous from `first_site[block]`.
    let mut sites: Vec<DefSite> = (0..n_vars as u32)
        .map(|v| DefSite::Entry(VarId(v)))
        .collect();
    let mut site_var: Vec<VarId> = (0..n_vars as u32).map(VarId).collect();
    // Per-var list of all site ids, ascending (for kill sets and for
    // collecting the defs reaching a use).
    let mut sites_of_var: Vec<Vec<usize>> = (0..n_vars).map(|v| vec![v]).collect();
    let mut first_site = Vec::with_capacity(nb);

    for (bi, b) in p.blocks.iter().enumerate() {
        first_site.push(sites.len());
        for (ii, inst) in b.instrs.iter().enumerate() {
            if let Some(v) = inst.writes() {
                sites_of_var[v.index()].push(sites.len());
                sites.push(DefSite::Instr(BlockId(bi as u32), ii as u32));
                site_var.push(v);
            }
        }
    }
    let n_sites = sites.len();

    // ---- per-block gen/kill ----
    // The last def of each var inside the block; `written` lists the vars
    // to reset after it.
    let mut last = vec![NO_SITE; n_vars];
    let mut written: Vec<VarId> = Vec::new();
    let mut gen = vec![BitSet::new(n_sites); nb];
    let mut kill = vec![BitSet::new(n_sites); nb];
    for (bi, b) in p.blocks.iter().enumerate() {
        let mut next = first_site[bi];
        for inst in &b.instrs {
            if let Some(v) = inst.writes() {
                if last[v.index()] == NO_SITE {
                    written.push(v);
                }
                last[v.index()] = next;
                next += 1;
            }
        }
        for v in written.drain(..) {
            let id = std::mem::replace(&mut last[v.index()], NO_SITE);
            gen[bi].insert(id);
            for &other in &sites_of_var[v.index()] {
                if other != id {
                    kill[bi].insert(other);
                }
            }
        }
    }

    // ---- reaching definitions: IN/OUT iteration ----
    let cfg = Cfg::build(p);
    let mut inb = vec![BitSet::new(n_sites); nb];
    let mut outb = vec![BitSet::new(n_sites); nb];
    // Entry block starts with all entry defs.
    for v in 0..n_vars {
        inb[p.entry.index()].insert(v);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            let bi = b.index();
            for &pred in &cfg.preds[bi] {
                changed |= inb[bi].union_with(&outb[pred.index()]);
            }
            // out = (in − kill) ∪ gen
            let mut new_out = inb[bi].clone();
            new_out.subtract(&kill[bi]);
            new_out.union_with(&gen[bi]);
            if new_out != outb[bi] {
                changed = true;
                outb[bi] = new_out;
            }
        }
    }

    // ---- union defs reaching each use ----
    let mut uf = UnionFind::new(n_sites);
    let mut use_sites: Vec<(BlockId, u32, VarId, Vec<usize>)> = Vec::new();

    for (bi, b) in p.blocks.iter().enumerate() {
        let block = BlockId(bi as u32);
        // The block's own last def of a var when there is one, else the
        // var's sites reaching the block entry.
        let reaching = |v: VarId, last: &[usize]| -> Vec<usize> {
            if last[v.index()] != NO_SITE {
                return vec![last[v.index()]];
            }
            let mut defs: Vec<usize> = sites_of_var[v.index()]
                .iter()
                .copied()
                .filter(|&d| inb[bi].contains(d))
                .collect();
            if defs.is_empty() {
                // Unreachable block or missing info: fall back to entry def.
                defs.push(v.index());
            }
            defs
        };

        let mut next = first_site[bi];
        for (ii, inst) in b.instrs.iter().enumerate() {
            for v in inst.reads() {
                let defs = reaching(v, &last);
                use_sites.push((block, ii as u32, v, defs));
            }
            if let Some(v) = inst.writes() {
                if last[v.index()] == NO_SITE {
                    written.push(v);
                }
                last[v.index()] = next;
                next += 1;
            }
        }
        for v in b.term.reads() {
            let defs = reaching(v, &last);
            use_sites.push((block, TERM_IDX, v, defs));
        }
        for v in written.drain(..) {
            last[v.index()] = NO_SITE;
        }
    }

    for (_, _, _, defs) in &use_sites {
        for w in defs.windows(2) {
            uf.union(w[0] as u32, w[1] as u32);
        }
    }

    // ---- dense web numbering ----
    let mut web_of_root: HashMap<u32, u32> = HashMap::new();
    let mut web_var: Vec<VarId> = Vec::new();
    let web_of_site = |uf: &mut UnionFind,
                       web_of_root: &mut HashMap<u32, u32>,
                       web_var: &mut Vec<VarId>,
                       s: usize|
     -> u32 {
        let root = uf.find(s as u32);
        *web_of_root.entry(root).or_insert_with(|| {
            let w = web_var.len() as u32;
            web_var.push(site_var[root as usize]);
            w
        })
    };

    let mut def_web = HashMap::new();
    for (id, &s) in sites.iter().enumerate() {
        let w = web_of_site(&mut uf, &mut web_of_root, &mut web_var, id);
        def_web.insert(s, w);
    }
    let mut use_web = HashMap::new();
    for (block, idx, var, defs) in use_sites {
        let w = web_of_site(&mut uf, &mut web_of_root, &mut web_var, defs[0]);
        use_web.insert((block, idx, var), w);
    }

    sp.attr("webs", web_var.len());
    Webs {
        n_webs: web_var.len(),
        def_web,
        use_web,
        web_var,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::parser::parse;

    fn compile(src: &str) -> TacProgram {
        lower(&parse(src).unwrap()).unwrap()
    }

    fn var_named(p: &TacProgram, name: &str) -> VarId {
        VarId(
            p.vars
                .iter()
                .position(|v| v.name == name)
                .unwrap_or_else(|| panic!("no var {name}")) as u32,
        )
    }

    #[test]
    fn independent_defs_get_distinct_webs() {
        // x is written twice with an intervening full use; the two defs have
        // disjoint uses, so they form two webs.
        let p = compile(
            "program t; var x, y, z: int;
             begin
               x := 1;
               y := x + 1;
               x := 2;
               z := x + 2;
             end.",
        );
        let w = compute_webs(&p);
        let x = var_named(&p, "x");
        let e = p.entry;
        // Def at instr 0 writes x (web A); use of x at instr 1 reads web A.
        let def0 = w.of_def(e, 0).unwrap();
        let use1 = w.of_use(e, 1, x).unwrap();
        assert_eq!(def0, use1);
        // Def at instr 2 starts a fresh web read by instr 3.
        let def2 = w.of_def(e, 2).unwrap();
        let use3 = w.of_use(e, 3, x).unwrap();
        assert_eq!(def2, use3);
        assert_ne!(def0, def2, "two independent defs of x must split");
    }

    #[test]
    fn merging_paths_share_a_web() {
        // x defined on both branch arms, used after the join: all three
        // sites must share one web.
        let p = compile(
            "program t; var x, c, y: int;
             begin
               if c > 0 then x := 1; else x := 2;
               y := x;
             end.",
        );
        let w = compute_webs(&p);
        let x = var_named(&p, "x");
        // Find the two defs of x.
        let mut defs = Vec::new();
        for (bi, b) in p.blocks.iter().enumerate() {
            for (ii, inst) in b.instrs.iter().enumerate() {
                if inst.writes() == Some(x) {
                    defs.push(w.of_def(BlockId(bi as u32), ii as u32).unwrap());
                }
            }
        }
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0], defs[1], "defs merging at a join share a web");
        // The use after the join reads the same web.
        let join_use = p
            .blocks
            .iter()
            .enumerate()
            .find_map(|(bi, b)| {
                b.instrs.iter().enumerate().find_map(|(ii, inst)| {
                    (inst.reads().contains(&x))
                        .then(|| w.of_use(BlockId(bi as u32), ii as u32, x).unwrap())
                })
            })
            .expect("use of x");
        assert_eq!(join_use, defs[0]);
    }

    #[test]
    fn loop_carried_variable_is_one_web() {
        // i := i + 1 in a loop: the increment's def reaches its own use on
        // the next iteration → single web with the init def.
        let p = compile(
            "program t; var i: int;
             begin i := 0; while i < 4 do i := i + 1; end.",
        );
        let w = compute_webs(&p);
        let i = var_named(&p, "i");
        let mut webs = std::collections::HashSet::new();
        for (bi, b) in p.blocks.iter().enumerate() {
            for (ii, inst) in b.instrs.iter().enumerate() {
                if inst.writes() == Some(i) {
                    webs.insert(w.of_def(BlockId(bi as u32), ii as u32).unwrap());
                }
                if inst.reads().contains(&i) {
                    webs.insert(w.of_use(BlockId(bi as u32), ii as u32, i).unwrap());
                }
            }
            if b.term.reads().contains(&i) {
                webs.insert(w.of_use(BlockId(bi as u32), TERM_IDX, i).unwrap());
            }
        }
        assert_eq!(webs.len(), 1, "loop variable must be one web: {webs:?}");
    }

    #[test]
    fn uninitialized_use_reads_entry_def() {
        let p = compile("program t; var x, y: int; begin y := x; end.");
        let w = compute_webs(&p);
        let x = var_named(&p, "x");
        let use_web = w.of_use(p.entry, 0, x).unwrap();
        assert_eq!(use_web, w.of_entry(x).unwrap());
    }

    #[test]
    fn webs_map_back_to_variables() {
        let p = compile(
            "program t; var a, b: int;
             begin a := 1; b := a + 1; a := b; end.",
        );
        let w = compute_webs(&p);
        // Every web's variable index is valid.
        for &v in &w.web_var {
            assert!(v.index() < p.vars.len());
        }
        assert!(w.n_webs >= 2);
    }

    #[test]
    fn one_web_per_var_is_identity_on_variables() {
        let p = compile(
            "program t; var x, y: int;
             begin x := 1; y := x + 1; x := 2; y := x + 2; end.",
        );
        let w = one_web_per_var(&p);
        assert_eq!(w.n_webs, p.vars.len());
        let x = var_named(&p, "x");
        // Both defs of x map to the same web, and every use too.
        let mut webs = std::collections::HashSet::new();
        for (bi, b) in p.blocks.iter().enumerate() {
            for (ii, inst) in b.instrs.iter().enumerate() {
                if inst.writes() == Some(x) {
                    webs.insert(w.of_def(BlockId(bi as u32), ii as u32).unwrap());
                }
                if inst.reads().contains(&x) {
                    webs.insert(w.of_use(BlockId(bi as u32), ii as u32, x).unwrap());
                }
            }
        }
        assert_eq!(webs.len(), 1);
        assert_eq!(webs.into_iter().next(), Some(x.0));
        assert_eq!(w.of_entry(x), Some(x.0));
    }

    #[test]
    fn renaming_splits_where_one_per_var_does_not() {
        let p = compile(
            "program t; var x, a, b: int;
             begin x := 1; a := x; x := 2; b := x; end.",
        );
        let renamed = compute_webs(&p);
        let flat = one_web_per_var(&p);
        assert!(renamed.n_webs > flat.n_webs);
    }

    #[test]
    fn temps_are_single_def_webs() {
        let p = compile("program t; var x, y: int; begin x := y * 2 + 3; end.");
        let w = compute_webs(&p);
        let mut per_var = vec![0usize; p.vars.len()];
        for v in &w.web_var {
            per_var[v.index()] += 1;
        }
        for (vi, info) in p.vars.iter().enumerate() {
            if info.is_temp {
                // temp + its entry def can make 2 webs at most.
                assert!(
                    per_var[vi] <= 2,
                    "temp {} has {} webs",
                    info.name,
                    per_var[vi]
                );
            }
        }
    }
}
