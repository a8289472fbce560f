//! The scheduled-program representation: long instruction words grouped by
//! basic block, with operands renamed to *data values* (webs).

use liw_ir::tac::{ArrayId, ArrayInfo, BlockId, OpCode, Value, VarId};
use parmem_core::strategies::RegionizedTrace;
use parmem_core::types::{AccessTrace, Instructions, ValueId};
use parmem_obs::digest::Fnv1a;

/// Machine configuration for scheduling: how much a long word can carry.
#[derive(Clone, Copy, Debug)]
pub struct MachineSpec {
    /// Functional units: maximum operations per long word.
    pub width: usize,
    /// Memory ports: maximum memory accesses per word (distinct scalar data
    /// values read + array element accesses). Matches the number of memory
    /// modules `k` on the paper's RLIW.
    pub mem_ports: usize,
    /// Number of parallel memory modules `k`.
    pub modules: usize,
}

impl Default for MachineSpec {
    fn default() -> Self {
        // The paper's experiments: eight memory modules.
        MachineSpec {
            width: 8,
            mem_ports: 8,
            modules: 8,
        }
    }
}

impl MachineSpec {
    /// A square machine: `k` functional units, ports, and modules.
    pub fn with_modules(k: usize) -> MachineSpec {
        MachineSpec {
            width: k.max(1),
            mem_ports: k.max(1),
            modules: k.max(1),
        }
    }
}

/// A scheduled operand: immediate or scalar data-value read.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
pub enum SOperand {
    Const(Value),
    /// Read of data value (web) `w`.
    Scalar(u32),
}

impl SOperand {
    /// The data value this operand reads, if it reads one.
    pub fn web(&self) -> Option<u32> {
        match self {
            SOperand::Scalar(w) => Some(*w),
            SOperand::Const(_) => None,
        }
    }
}

/// One operation inside a long instruction word.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // fields are self-describing
pub enum SlotOp {
    /// ALU / FPU operation writing data value `dest`.
    Compute {
        dest: u32,
        op: OpCode,
        lhs: SOperand,
        rhs: Option<SOperand>,
    },
    /// `dest = arr[index]` — array element read (module unknown at compile
    /// time).
    Load {
        dest: u32,
        arr: ArrayId,
        index: SOperand,
    },
    /// `arr[index] = value` — array element write.
    Store {
        arr: ArrayId,
        index: SOperand,
        value: SOperand,
    },
    /// Append value to output.
    Print { value: SOperand },
    /// Conditional move: `dest = cond ? if_true : if_false`.
    Select {
        cond: SOperand,
        if_true: SOperand,
        if_false: SOperand,
        dest: u32,
    },
}

impl SlotOp {
    /// Scalar data values this op reads, in operand order.
    pub fn scalar_reads(&self) -> impl Iterator<Item = u32> + '_ {
        let operands = match self {
            SlotOp::Compute { lhs, rhs, .. } => [Some(lhs), rhs.as_ref(), None],
            SlotOp::Load { index, .. } => [Some(index), None, None],
            SlotOp::Store { index, value, .. } => [Some(index), Some(value), None],
            SlotOp::Print { value } => [Some(value), None, None],
            SlotOp::Select {
                cond,
                if_true,
                if_false,
                ..
            } => [Some(cond), Some(if_true), Some(if_false)],
        };
        operands.into_iter().flatten().filter_map(SOperand::web)
    }

    /// Data value written, if any.
    pub fn writes(&self) -> Option<u32> {
        match self {
            SlotOp::Compute { dest, .. }
            | SlotOp::Load { dest, .. }
            | SlotOp::Select { dest, .. } => Some(*dest),
            _ => None,
        }
    }

    /// Number of array element accesses (0 or 1).
    pub fn array_accesses(&self) -> usize {
        matches!(self, SlotOp::Load { .. } | SlotOp::Store { .. }) as usize
    }
}

/// A long instruction word: up to `width` operations issued in lock-step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LongWord {
    /// Up to `width` lock-step operations.
    pub ops: Vec<SlotOp>,
}

impl LongWord {
    /// Distinct scalar data values this word fetches.
    pub fn scalar_read_set(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.ops.iter().flat_map(SlotOp::scalar_reads).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of array element accesses in this word.
    pub fn array_access_count(&self) -> usize {
        self.ops.iter().map(|o| o.array_accesses()).sum()
    }
}

/// Block terminator after scheduling. A `Branch` condition is fetched during
/// the block's final word.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // fields are self-describing
pub enum SchedTerm {
    Jump(BlockId),
    Branch {
        cond: SOperand,
        then_to: BlockId,
        else_to: BlockId,
    },
    Halt,
}

impl SchedTerm {
    /// Data value read by the branch condition, if any.
    pub fn cond_web(&self) -> Option<u32> {
        match self {
            SchedTerm::Branch { cond, .. } => cond.web(),
            _ => None,
        }
    }
}

/// One scheduled basic block.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedBlock {
    /// The block's long instruction words, in issue order.
    pub words: Vec<LongWord>,
    /// Control transfer at the end of the block.
    pub term: SchedTerm,
}

impl SchedBlock {
    /// The scalar data values fetched by word `i`, ascending and distinct,
    /// including the branch condition when `i` is the final word. They
    /// replace the contents of `out`, so one buffer serves every word.
    pub fn word_operands(&self, i: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.words[i].ops.iter().flat_map(SlotOp::scalar_reads));
        if i + 1 == self.words.len() {
            out.extend(self.term.cond_web());
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// A fully scheduled program.
#[derive(Clone, Debug)]
pub struct SchedProgram {
    /// Program name.
    pub name: String,
    /// The machine it was scheduled for.
    pub spec: MachineSpec,
    /// Scheduled blocks (same ids as the TAC CFG).
    pub blocks: Vec<SchedBlock>,
    /// Entry block.
    pub entry: BlockId,
    /// Number of data values (webs).
    pub n_values: usize,
    /// The program variable each data value renames (diagnostics).
    pub value_var: Vec<VarId>,
    /// Type of each program variable (indexed by `VarId`).
    pub var_ty: Vec<liw_ir::Ty>,
    /// Entry data value per variable (initial zero definition).
    pub entry_value: Vec<u32>,
    /// Array metadata (copied from the TAC program).
    pub arrays: Vec<ArrayInfo>,
    /// Region of each block (innermost loop), for STOR2.
    pub region_of_block: Vec<u32>,
    /// Number of regions.
    pub n_regions: usize,
}

impl SchedProgram {
    /// Total long words (static count).
    pub fn word_count(&self) -> usize {
        self.blocks.iter().map(|b| b.words.len()).sum()
    }

    /// FNV-1a digest of the scheduled workload: machine size, every long
    /// word's operations (structurally, not via `Debug` formatting, so the
    /// value is stable across toolchains), the terminators, and the array
    /// metadata. Two programs share a digest only if they execute the same
    /// scheduled code on the same machine — the simulator derives its
    /// uniform-random placement stream from this, so distinct workloads
    /// never share a placement sequence even under the same user seed.
    pub fn workload_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let eat_operand = |h: &mut Fnv1a, o: &SOperand| match o {
            SOperand::Const(v) => {
                let (tag, bits): (u64, u64) = match v {
                    Value::Int(i) => (1, *i as u64),
                    Value::Real(r) => (2, r.to_bits()),
                    Value::Bool(b) => (3, *b as u64),
                };
                h.u64(tag);
                h.u64(bits);
            }
            SOperand::Scalar(w) => {
                h.u64(4);
                h.u64(u64::from(*w));
            }
        };
        h.u64(self.spec.modules as u64);
        h.u64(self.spec.width as u64);
        h.u64(self.spec.mem_ports as u64);
        h.u64(self.entry.index() as u64);
        for b in &self.blocks {
            h.u64(0xB10C);
            for w in &b.words {
                h.u64(0x30D0);
                for op in &w.ops {
                    match op {
                        SlotOp::Compute { dest, op, lhs, rhs } => {
                            h.u64(10);
                            h.u64(u64::from(*dest));
                            h.u64(*op as u64);
                            eat_operand(&mut h, lhs);
                            if let Some(r) = rhs {
                                eat_operand(&mut h, r);
                            }
                        }
                        SlotOp::Load { dest, arr, index } => {
                            h.u64(11);
                            h.u64(u64::from(*dest));
                            h.u64(u64::from(arr.0));
                            eat_operand(&mut h, index);
                        }
                        SlotOp::Store { arr, index, value } => {
                            h.u64(12);
                            h.u64(u64::from(arr.0));
                            eat_operand(&mut h, index);
                            eat_operand(&mut h, value);
                        }
                        SlotOp::Print { value } => {
                            h.u64(13);
                            eat_operand(&mut h, value);
                        }
                        SlotOp::Select {
                            cond,
                            if_true,
                            if_false,
                            dest,
                        } => {
                            h.u64(14);
                            h.u64(u64::from(*dest));
                            eat_operand(&mut h, cond);
                            eat_operand(&mut h, if_true);
                            eat_operand(&mut h, if_false);
                        }
                    }
                }
            }
            match &b.term {
                SchedTerm::Jump(t) => {
                    h.u64(20);
                    h.u64(t.index() as u64);
                }
                SchedTerm::Branch {
                    cond,
                    then_to,
                    else_to,
                } => {
                    h.u64(21);
                    eat_operand(&mut h, cond);
                    h.u64(then_to.index() as u64);
                    h.u64(else_to.index() as u64);
                }
                SchedTerm::Halt => h.u64(22),
            }
        }
        for a in &self.arrays {
            h.u64(0xA55A);
            h.bytes(a.name.as_bytes());
            h.u64(a.len as u64);
        }
        h.finish()
    }

    /// The static access trace: one operand set per long word, in block
    /// order. This is what the module-assignment algorithms consume.
    pub fn access_trace(&self) -> AccessTrace {
        self.trace_of(self.blocks.iter())
    }

    /// The access trace region by region, each region's words in block
    /// order: the order the storage strategies assign in.
    pub fn region_major_trace(&self) -> AccessTrace {
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_by_key(|&b| self.region_of_block[b]);
        self.trace_of(order.into_iter().map(|b| &self.blocks[b]))
    }

    /// One operand set per word of `blocks`, in order.
    fn trace_of<'s>(&'s self, blocks: impl Iterator<Item = &'s SchedBlock>) -> AccessTrace {
        let mut insts = Instructions::with_capacity(self.word_count(), 0);
        let mut reads = Vec::new();
        for b in blocks {
            for i in 0..b.words.len() {
                b.word_operands(i, &mut reads);
                insts.push(reads.iter().copied().map(ValueId));
            }
        }
        AccessTrace::new(self.spec.modules, insts)
    }

    /// The region-partitioned trace for the STOR2 strategy: the
    /// [`SchedProgram::region_major_trace`] cut into regions, plus the set
    /// of data values live across regions (values read or written in more
    /// than one region).
    pub fn regionized_trace(&self) -> RegionizedTrace {
        let mut region_ends = vec![0usize; self.n_regions];
        let mut region_uses: Vec<std::collections::HashSet<u32>> =
            vec![Default::default(); self.n_regions];

        let mut reads = Vec::new();
        for (bi, b) in self.blocks.iter().enumerate() {
            let r = self.region_of_block[bi] as usize;
            region_ends[r] += b.words.len();
            for i in 0..b.words.len() {
                b.word_operands(i, &mut reads);
                region_uses[r].extend(&reads);
                region_uses[r].extend(b.words[i].ops.iter().filter_map(SlotOp::writes));
            }
        }
        for r in 1..region_ends.len() {
            region_ends[r] += region_ends[r - 1];
        }

        let mut count: std::collections::HashMap<u32, usize> = Default::default();
        for uses in &region_uses {
            for &w in uses {
                *count.entry(w).or_insert(0) += 1;
            }
        }
        let globals = count
            .into_iter()
            .filter(|&(_, c)| c > 1)
            .map(|(w, _)| ValueId(w))
            .collect();

        RegionizedTrace::new(self.region_major_trace(), region_ends, globals)
    }
}
