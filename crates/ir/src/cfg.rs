//! Control-flow graph utilities: predecessor/successor maps, reverse
//! postorder, dominators (Cooper–Harvey–Kennedy), natural loops, and the
//! *region* partition used by the STOR2 storage strategy (paper §3).

use std::collections::HashSet;

use crate::tac::{BlockId, TacProgram};

/// CFG edge maps plus a reverse postorder over reachable blocks.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Predecessors per block.
    pub preds: Vec<Vec<BlockId>>,
    /// Successors per block.
    pub succs: Vec<Vec<BlockId>>,
    /// Reverse postorder of reachable blocks, starting at the entry.
    pub rpo: Vec<BlockId>,
    /// Position in `rpo` per block (usize::MAX = unreachable).
    pub rpo_pos: Vec<usize>,
    /// The entry block.
    pub entry: BlockId,
}

impl Cfg {
    /// Build the CFG of a TAC program.
    pub fn build(p: &TacProgram) -> Cfg {
        let n = p.blocks.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (i, b) in p.blocks.iter().enumerate() {
            for s in b.term.successors() {
                succs[i].push(s);
                preds[s.index()].push(BlockId(i as u32));
            }
        }
        // Postorder DFS from entry.
        let mut post = Vec::new();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 in progress, 2 done
        let mut stack = vec![(p.entry, 0usize)];
        state[p.entry.index()] = 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b.index()].len() {
                let nxt = succs[b.index()][*i];
                *i += 1;
                if state[nxt.index()] == 0 {
                    state[nxt.index()] = 1;
                    stack.push((nxt, 0));
                }
            } else {
                state[b.index()] = 2;
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        Cfg {
            preds,
            succs,
            rpo,
            rpo_pos,
            entry: p.entry,
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.index()] != usize::MAX
    }

    /// Immediate dominators (indexed by block; entry maps to itself;
    /// unreachable blocks map to `None`). Cooper–Harvey–Kennedy iteration.
    pub fn dominators(&self) -> Vec<Option<BlockId>> {
        let n = self.preds.len();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[self.entry.index()] = Some(self.entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| {
            while a != b {
                while self.rpo_pos[a.index()] > self.rpo_pos[b.index()] {
                    a = idom[a.index()].expect("processed");
                }
                while self.rpo_pos[b.index()] > self.rpo_pos[a.index()] {
                    b = idom[b.index()].expect("processed");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &self.rpo {
                if b == self.entry {
                    continue;
                }
                let mut new_idom: Option<BlockId> = None;
                for &p in &self.preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    /// Whether `a` dominates `b` (both reachable).
    pub fn dominates(&self, idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

/// One natural loop: header plus the set of blocks in the loop body.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// The loop header (dominates the whole loop).
    pub header: BlockId,
    /// All blocks in the loop, header included.
    pub blocks: HashSet<BlockId>,
}

/// Find all natural loops (one per back edge; loops sharing a header are
/// merged), given the immediate dominators `idom` of [`Cfg::dominators`].
pub fn natural_loops(cfg: &Cfg, idom: &[Option<BlockId>]) -> Vec<NaturalLoop> {
    let mut loops: Vec<NaturalLoop> = Vec::new();

    for &b in &cfg.rpo {
        for &s in &cfg.succs[b.index()] {
            // Back edge b → s when s dominates b.
            if cfg.is_reachable(s) && cfg.dominates(idom, s, b) {
                // Collect the natural loop of this back edge.
                let mut body: HashSet<BlockId> = [s, b].into_iter().collect();
                let mut stack = vec![b];
                while let Some(x) = stack.pop() {
                    if x == s {
                        continue;
                    }
                    for &p in &cfg.preds[x.index()] {
                        if cfg.is_reachable(p) && body.insert(p) {
                            stack.push(p);
                        }
                    }
                }
                if let Some(existing) = loops.iter_mut().find(|l| l.header == s) {
                    existing.blocks.extend(body);
                } else {
                    loops.push(NaturalLoop {
                        header: s,
                        blocks: body,
                    });
                }
            }
        }
    }
    loops
}

/// A region id (for the STOR2 global/local split). Region 0 is the
/// top-level (non-loop) code; each loop gets its own region, with blocks
/// assigned to their *innermost* loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

/// Partition blocks into regions by innermost natural loop. Returns
/// `(region per block, number of regions)`. Unreachable blocks go to
/// region 0.
pub fn regions(p: &TacProgram) -> (Vec<RegionId>, usize) {
    let cfg = Cfg::build(p);
    let loops = natural_loops(&cfg, &cfg.dominators());

    // Sort loops by size ascending so the first containing loop found per
    // block is the innermost.
    let mut order: Vec<usize> = (0..loops.len()).collect();
    order.sort_by_key(|&i| loops[i].blocks.len());

    let mut region = vec![RegionId(0); p.blocks.len()];
    for (rank, &li) in order.iter().enumerate() {
        let rid = RegionId(rank as u32 + 1);
        for &b in &loops[li].blocks {
            if region[b.index()] == RegionId(0) {
                region[b.index()] = rid;
            }
        }
    }
    (region, loops.len() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::parser::parse;

    fn compile(src: &str) -> TacProgram {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn straight_line_has_no_loops() {
        let p = compile("program t; var x: int; begin x := 1; end.");
        let cfg = Cfg::build(&p);
        assert!(natural_loops(&cfg, &cfg.dominators()).is_empty());
        let (regions, n) = regions(&p);
        assert_eq!(n, 1);
        assert!(regions.iter().all(|&r| r == RegionId(0)));
    }

    #[test]
    fn while_loop_is_detected() {
        let p = compile("program t; var i: int; begin i := 0; while i < 10 do i := i + 1; end.");
        let cfg = Cfg::build(&p);
        let loops = natural_loops(&cfg, &cfg.dominators());
        assert_eq!(loops.len(), 1);
        // Loop contains head and body.
        assert!(loops[0].blocks.len() >= 2);
        let (_, n) = regions(&p);
        assert_eq!(n, 2);
    }

    #[test]
    fn nested_loops_give_nested_regions() {
        let p = compile(
            "program t; var i, j, s: int;
             begin
               for i := 0 to 3 do begin
                 for j := 0 to 3 do begin
                   s := s + i * j;
                 end;
               end;
             end.",
        );
        let cfg = Cfg::build(&p);
        let loops = natural_loops(&cfg, &cfg.dominators());
        assert_eq!(loops.len(), 2);
        let (regs, n) = regions(&p);
        assert_eq!(n, 3);
        // The inner loop body must land in a different region from the
        // outer loop's own blocks.
        let distinct: std::collections::HashSet<_> = regs.iter().collect();
        assert_eq!(distinct.len(), 3, "regions: {regs:?}");
    }

    #[test]
    fn dominators_on_diamond() {
        let p = compile(
            "program t; var x: int; begin if x > 0 then x := 1; else x := 2; print x; end.",
        );
        let cfg = Cfg::build(&p);
        let idom = cfg.dominators();
        // Entry dominates everything reachable.
        for &b in &cfg.rpo {
            assert!(cfg.dominates(&idom, cfg.entry, b));
        }
        // Neither branch arm dominates the join.
        let (t, e) = match &p.blocks[p.entry.index()].term {
            crate::tac::Terminator::Branch {
                then_to, else_to, ..
            } => (*then_to, *else_to),
            other => panic!("{other:?}"),
        };
        let join = match &p.blocks[t.index()].term {
            crate::tac::Terminator::Jump(j) => *j,
            other => panic!("{other:?}"),
        };
        assert!(!cfg.dominates(&idom, t, join));
        assert!(!cfg.dominates(&idom, e, join));
        assert!(cfg.dominates(&idom, cfg.entry, join));
    }

    #[test]
    fn two_sequential_loops_two_regions() {
        let p = compile(
            "program t; var i, s: int;
             begin
               for i := 0 to 3 do s := s + i;
               for i := 0 to 3 do s := s - i;
             end.",
        );
        let (_, n) = regions(&p);
        assert_eq!(n, 3); // top + 2 loops
    }
}
