//! Three-address code (TAC): the RLIW compiler's mid-level IR.
//!
//! A program is a set of basic blocks of simple instructions; every scalar
//! read names a [`VarId`] (program variable or compiler temporary), every
//! array access names an [`ArrayId`] plus an index operand. This is the
//! level the LIW scheduler packs into long instruction words, and the level
//! at which the renaming pass carves variables into *data values*.

use std::fmt;

use crate::ast::Ty;

/// A scalar slot: program variable or compiler temporary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into dense per-variable tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An array object.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// Index into dense per-array tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arr{}", self.0)
    }
}

/// A basic block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into dense per-block tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A runtime value (also used for constants).
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
pub enum Value {
    Int(i64),
    Real(f64),
    Bool(bool),
}

impl Value {
    /// The value's type tag.
    pub fn ty(self) -> Ty {
        match self {
            Value::Int(_) => Ty::Int,
            Value::Real(_) => Ty::Real,
            Value::Bool(_) => Ty::Bool,
        }
    }

    /// Coerce to integer (truncating reals, false=0/true=1).
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Bool(b) => b as i64,
            Value::Real(v) => v as i64,
        }
    }

    /// Coerce to real.
    pub fn as_real(self) -> f64 {
        match self {
            Value::Real(v) => v,
            Value::Int(v) => v as f64,
            Value::Bool(b) => b as i64 as f64,
        }
    }

    /// Coerce to bool (non-zero = true).
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Int(v) => v != 0,
            Value::Real(v) => v != 0.0,
        }
    }

    /// Whether two values are the same value: same type and same bits, or
    /// both NaN reals. Unlike `==`, NaN is the same as NaN (so a program
    /// that prints NaN matches its own reference output, and a fixpoint
    /// over NaN constants settles), and `-0.0` is not the same as `0.0`.
    pub fn same(self, other: Value) -> bool {
        match (self, other) {
            (Value::Real(a), Value::Real(b)) => {
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
            }
            _ => self == other,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v:.6}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// An instruction operand: immediate constant or scalar memory read.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
pub enum Operand {
    Const(Value),
    Var(VarId),
}

impl Operand {
    /// The variable this operand reads, if it reads one.
    pub fn var(&self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }
}

/// Operation codes. Integer and real arithmetic are distinct (as on a real
/// machine with separate functional units); the front end inserts
/// [`OpCode::IntToReal`] conversions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum OpCode {
    // Integer arithmetic
    Add,
    Sub,
    Mul,
    IDiv,
    Mod,
    Neg,
    // Real arithmetic
    FAdd,
    FSub,
    FMul,
    FDiv,
    FNeg,
    // Comparisons (integer / real)
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    FEq,
    FNe,
    FLt,
    FLe,
    FGt,
    FGe,
    // Logical
    And,
    Or,
    Not,
    // Conversions
    IntToReal,
    Trunc,
    // Unary math intrinsics (real)
    Sqrt,
    Sin,
    Cos,
    Exp,
    Ln,
    FAbs,
    IAbs,
    // Move
    Copy,
}

impl OpCode {
    /// Result type of the opcode.
    pub fn result_ty(self) -> Ty {
        use OpCode::*;
        match self {
            Add | Sub | Mul | IDiv | Mod | Neg | Trunc | IAbs => Ty::Int,
            FAdd | FSub | FMul | FDiv | FNeg | IntToReal | Sqrt | Sin | Cos | Exp | Ln | FAbs => {
                Ty::Real
            }
            Eq | Ne | Lt | Le | Gt | Ge | FEq | FNe | FLt | FLe | FGt | FGe | And | Or | Not => {
                Ty::Bool
            }
            Copy => Ty::Int, // actual type comes from the operand
        }
    }
}

/// Evaluate an opcode on constant values — shared by the simulator and the
/// constant-folding tests. Division by zero yields 0 / 0.0 (the RLIW traps
/// are not modeled; benchmark programs never divide by zero).
pub fn eval_op(op: OpCode, a: Value, b: Option<Value>) -> Value {
    use OpCode::*;
    let bi = || b.expect("binary op needs rhs").as_int();
    let br = || b.expect("binary op needs rhs").as_real();
    let bb = || b.expect("binary op needs rhs").as_bool();
    match op {
        Add => Value::Int(a.as_int().wrapping_add(bi())),
        Sub => Value::Int(a.as_int().wrapping_sub(bi())),
        Mul => Value::Int(a.as_int().wrapping_mul(bi())),
        IDiv => {
            let d = bi();
            Value::Int(if d == 0 {
                0
            } else {
                a.as_int().wrapping_div(d)
            })
        }
        Mod => {
            let d = bi();
            Value::Int(if d == 0 {
                0
            } else {
                a.as_int().wrapping_rem(d)
            })
        }
        Neg => Value::Int(a.as_int().wrapping_neg()),
        FAdd => Value::Real(a.as_real() + br()),
        FSub => Value::Real(a.as_real() - br()),
        FMul => Value::Real(a.as_real() * br()),
        FDiv => {
            let d = br();
            Value::Real(if d == 0.0 { 0.0 } else { a.as_real() / d })
        }
        FNeg => Value::Real(-a.as_real()),
        Eq => Value::Bool(a.as_int() == bi()),
        Ne => Value::Bool(a.as_int() != bi()),
        Lt => Value::Bool(a.as_int() < bi()),
        Le => Value::Bool(a.as_int() <= bi()),
        Gt => Value::Bool(a.as_int() > bi()),
        Ge => Value::Bool(a.as_int() >= bi()),
        FEq => Value::Bool(a.as_real() == br()),
        FNe => Value::Bool(a.as_real() != br()),
        FLt => Value::Bool(a.as_real() < br()),
        FLe => Value::Bool(a.as_real() <= br()),
        FGt => Value::Bool(a.as_real() > br()),
        FGe => Value::Bool(a.as_real() >= br()),
        And => Value::Bool(a.as_bool() && bb()),
        Or => Value::Bool(a.as_bool() || bb()),
        Not => Value::Bool(!a.as_bool()),
        IntToReal => Value::Real(a.as_int() as f64),
        Trunc => Value::Int(a.as_real() as i64),
        Sqrt => Value::Real(a.as_real().sqrt()),
        Sin => Value::Real(a.as_real().sin()),
        Cos => Value::Real(a.as_real().cos()),
        Exp => Value::Real(a.as_real().exp()),
        Ln => Value::Real(a.as_real().ln()),
        FAbs => Value::Real(a.as_real().abs()),
        IAbs => Value::Int(a.as_int().abs()),
        Copy => a,
    }
}

/// One three-address instruction.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // fields are self-describing
pub enum Instr {
    /// `dest = op(lhs[, rhs])`
    Compute {
        dest: VarId,
        op: OpCode,
        lhs: Operand,
        rhs: Option<Operand>,
    },
    /// `dest = arr[index]`
    Load {
        dest: VarId,
        arr: ArrayId,
        index: Operand,
    },
    /// `arr[index] = value`
    Store {
        arr: ArrayId,
        index: Operand,
        value: Operand,
    },
    /// Append `value` to the program's output stream.
    Print { value: Operand },
    /// `dest = cond ? if_true : if_false` — the RLIW's conditional-move
    /// functional unit. Generated by the optimizer's if-conversion pass
    /// (never by the front end).
    Select {
        /// Boolean selector.
        cond: Operand,
        /// Result when `cond` is true.
        if_true: Operand,
        /// Result when `cond` is false.
        if_false: Operand,
        /// Destination scalar.
        dest: VarId,
    },
}

impl Instr {
    /// Scalar variables this instruction reads.
    pub fn reads(&self) -> Vec<VarId> {
        let mut out = Vec::with_capacity(2);
        let mut push = |o: &Operand| {
            if let Some(v) = o.var() {
                out.push(v);
            }
        };
        match self {
            Instr::Compute { lhs, rhs, .. } => {
                push(lhs);
                if let Some(r) = rhs {
                    push(r);
                }
            }
            Instr::Load { index, .. } => push(index),
            Instr::Store { index, value, .. } => {
                push(index);
                push(value);
            }
            Instr::Print { value } => push(value),
            Instr::Select {
                cond,
                if_true,
                if_false,
                ..
            } => {
                push(cond);
                push(if_true);
                push(if_false);
            }
        }
        out
    }

    /// The scalar variable this instruction writes, if any.
    pub fn writes(&self) -> Option<VarId> {
        match self {
            Instr::Compute { dest, .. } | Instr::Load { dest, .. } | Instr::Select { dest, .. } => {
                Some(*dest)
            }
            Instr::Store { .. } | Instr::Print { .. } => None,
        }
    }

    /// Whether this instruction touches an array (unpredictable module).
    pub fn array_access(&self) -> Option<(ArrayId, bool)> {
        match self {
            Instr::Load { arr, .. } => Some((*arr, false)),
            Instr::Store { arr, .. } => Some((*arr, true)),
            _ => None,
        }
    }
}

/// Block terminator.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
pub enum Terminator {
    Jump(BlockId),
    Branch {
        cond: Operand,
        then_to: BlockId,
        else_to: BlockId,
    },
    Halt,
}

impl Terminator {
    /// Scalar variables the terminator reads (the branch condition).
    pub fn reads(&self) -> Vec<VarId> {
        match self {
            Terminator::Branch { cond, .. } => cond.var().into_iter().collect(),
            _ => Vec::new(),
        }
    }

    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_to, else_to, ..
            } => vec![*then_to, *else_to],
            Terminator::Halt => Vec::new(),
        }
    }
}

/// Metadata for one scalar slot.
#[derive(Clone, Debug, PartialEq)]
pub struct VarInfo {
    /// Source name (temporaries are `t0`, `t1`, ...).
    pub name: String,
    /// Scalar type.
    pub ty: Ty,
    /// Whether this is a compiler temporary.
    pub is_temp: bool,
}

/// One array element access site: where it is, which array, which
/// direction, and the subscript operand (the input to stride analysis).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrayAccessSite {
    /// Block containing the access.
    pub block: BlockId,
    /// Instruction index within the block.
    pub instr: usize,
    /// Accessed array.
    pub arr: ArrayId,
    /// `true` for `Store`, `false` for `Load`.
    pub is_store: bool,
    /// The subscript operand.
    pub index: Operand,
}

/// Static access summary for one array (see
/// [`TacProgram::array_access_meta`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayAccessMeta {
    /// Source name of the array.
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Static `Load` site count.
    pub loads: u64,
    /// Static `Store` site count.
    pub stores: u64,
}

/// Metadata for one array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayInfo {
    /// Source name.
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Element type.
    pub elem: Ty,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// The block's single terminator.
    pub term: Terminator,
}

/// A whole lowered program.
#[derive(Clone, Debug, PartialEq)]
pub struct TacProgram {
    /// Program name.
    pub name: String,
    /// Scalar slots (variables + temporaries).
    pub vars: Vec<VarInfo>,
    /// Array objects.
    pub arrays: Vec<ArrayInfo>,
    /// Basic blocks.
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
}

impl TacProgram {
    /// Metadata of a scalar slot.
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Metadata of an array.
    pub fn array(&self, a: ArrayId) -> &ArrayInfo {
        &self.arrays[a.index()]
    }

    /// A basic block by id.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Total instruction count (excluding terminators).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Every array element access in the program, in block/instruction
    /// order: the site coordinates, the array, the direction, and the
    /// subscript operand. This is the raw per-array access metadata the
    /// layout planner's stride analysis consumes (a site's subscript
    /// operand is what induction-variable analysis classifies).
    pub fn array_access_sites(&self) -> Vec<ArrayAccessSite> {
        let mut out = Vec::new();
        for (bi, b) in self.blocks.iter().enumerate() {
            for (ii, inst) in b.instrs.iter().enumerate() {
                let (arr, is_store, index) = match inst {
                    Instr::Load { arr, index, .. } => (*arr, false, *index),
                    Instr::Store { arr, index, .. } => (*arr, true, *index),
                    _ => continue,
                };
                out.push(ArrayAccessSite {
                    block: BlockId(bi as u32),
                    instr: ii,
                    arr,
                    is_store,
                    index,
                });
            }
        }
        out
    }

    /// Static per-array access counts (loads/stores), indexed by array id.
    /// A cheap summary of [`array_access_sites`](Self::array_access_sites)
    /// for consumers that only need densities, not subscripts.
    pub fn array_access_meta(&self) -> Vec<ArrayAccessMeta> {
        let mut meta: Vec<ArrayAccessMeta> = self
            .arrays
            .iter()
            .map(|a| ArrayAccessMeta {
                name: a.name.clone(),
                len: a.len,
                loads: 0,
                stores: 0,
            })
            .collect();
        for site in self.array_access_sites() {
            let m = &mut meta[site.arr.index()];
            if site.is_store {
                m.stores += 1;
            } else {
                m.loads += 1;
            }
        }
        meta
    }

    /// Render the program as text (stable format; used in tests and for
    /// debugging).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let vname = |v: VarId| -> String { self.vars[v.index()].name.clone() };
        let oname = |o: &Operand| -> String {
            match o {
                Operand::Const(c) => format!("{c}"),
                Operand::Var(v) => vname(*v),
            }
        };
        writeln!(s, "program {}", self.name).unwrap();
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(s, "B{i}:").unwrap();
            for inst in &b.instrs {
                match inst {
                    Instr::Compute { dest, op, lhs, rhs } => match rhs {
                        Some(r) => writeln!(
                            s,
                            "  {} = {:?} {} {}",
                            vname(*dest),
                            op,
                            oname(lhs),
                            oname(r)
                        )
                        .unwrap(),
                        None => {
                            writeln!(s, "  {} = {:?} {}", vname(*dest), op, oname(lhs)).unwrap()
                        }
                    },
                    Instr::Load { dest, arr, index } => writeln!(
                        s,
                        "  {} = {}[{}]",
                        vname(*dest),
                        self.arrays[arr.index()].name,
                        oname(index)
                    )
                    .unwrap(),
                    Instr::Store { arr, index, value } => writeln!(
                        s,
                        "  {}[{}] = {}",
                        self.arrays[arr.index()].name,
                        oname(index),
                        oname(value)
                    )
                    .unwrap(),
                    Instr::Print { value } => writeln!(s, "  print {}", oname(value)).unwrap(),
                    Instr::Select {
                        cond,
                        if_true,
                        if_false,
                        dest,
                    } => writeln!(
                        s,
                        "  {} = select {} ? {} : {}",
                        vname(*dest),
                        oname(cond),
                        oname(if_true),
                        oname(if_false)
                    )
                    .unwrap(),
                }
            }
            match &b.term {
                Terminator::Jump(t) => writeln!(s, "  goto B{}", t.0).unwrap(),
                Terminator::Branch {
                    cond,
                    then_to,
                    else_to,
                } => writeln!(
                    s,
                    "  if {} goto B{} else B{}",
                    oname(cond),
                    then_to.0,
                    else_to.0
                )
                .unwrap(),
                Terminator::Halt => writeln!(s, "  halt").unwrap(),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_integer_ops() {
        assert_eq!(
            eval_op(OpCode::Add, Value::Int(2), Some(Value::Int(3))),
            Value::Int(5)
        );
        assert_eq!(
            eval_op(OpCode::Mod, Value::Int(7), Some(Value::Int(3))),
            Value::Int(1)
        );
        assert_eq!(
            eval_op(OpCode::IDiv, Value::Int(7), Some(Value::Int(2))),
            Value::Int(3)
        );
        assert_eq!(
            eval_op(OpCode::IDiv, Value::Int(7), Some(Value::Int(0))),
            Value::Int(0)
        );
        assert_eq!(eval_op(OpCode::Neg, Value::Int(4), None), Value::Int(-4));
        assert_eq!(eval_op(OpCode::IAbs, Value::Int(-4), None), Value::Int(4));
    }

    #[test]
    fn eval_real_ops() {
        assert_eq!(
            eval_op(OpCode::FMul, Value::Real(1.5), Some(Value::Real(2.0))),
            Value::Real(3.0)
        );
        assert_eq!(
            eval_op(OpCode::Sqrt, Value::Real(9.0), None),
            Value::Real(3.0)
        );
        assert_eq!(
            eval_op(OpCode::IntToReal, Value::Int(3), None),
            Value::Real(3.0)
        );
        assert_eq!(
            eval_op(OpCode::Trunc, Value::Real(3.9), None),
            Value::Int(3)
        );
    }

    #[test]
    fn eval_comparisons_and_logic() {
        assert_eq!(
            eval_op(OpCode::Lt, Value::Int(1), Some(Value::Int(2))),
            Value::Bool(true)
        );
        assert_eq!(
            eval_op(OpCode::FGe, Value::Real(2.0), Some(Value::Real(2.0))),
            Value::Bool(true)
        );
        assert_eq!(
            eval_op(OpCode::And, Value::Bool(true), Some(Value::Bool(false))),
            Value::Bool(false)
        );
        assert_eq!(
            eval_op(OpCode::Not, Value::Bool(false), None),
            Value::Bool(true)
        );
    }

    #[test]
    fn instr_reads_and_writes() {
        let i = Instr::Compute {
            dest: VarId(0),
            op: OpCode::Add,
            lhs: Operand::Var(VarId(1)),
            rhs: Some(Operand::Var(VarId(2))),
        };
        assert_eq!(i.reads(), vec![VarId(1), VarId(2)]);
        assert_eq!(i.writes(), Some(VarId(0)));

        let s = Instr::Store {
            arr: ArrayId(0),
            index: Operand::Var(VarId(3)),
            value: Operand::Const(Value::Int(1)),
        };
        assert_eq!(s.reads(), vec![VarId(3)]);
        assert_eq!(s.writes(), None);
        assert_eq!(s.array_access(), Some((ArrayId(0), true)));
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(Terminator::Halt.successors(), vec![]);
        let b = Terminator::Branch {
            cond: Operand::Var(VarId(0)),
            then_to: BlockId(1),
            else_to: BlockId(2),
        };
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(b.reads(), vec![VarId(0)]);
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::Int(3).as_real(), 3.0);
        assert_eq!(Value::Real(2.7).as_int(), 2);
        assert!(Value::Int(1).as_bool());
        assert!(!Value::Int(0).as_bool());
        assert_eq!(Value::Bool(true).as_int(), 1);
    }
}
