//! Abstract syntax tree for MiniLang.

/// A whole program: a name, variable declarations, and a statement body.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Program name (after `program`).
    pub name: String,
    /// Variable/array declarations.
    pub decls: Vec<Decl>,
    /// Top-level statement list.
    pub body: Vec<Stmt>,
}

/// Scalar element / variable types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants are self-describing
pub enum Ty {
    Int,
    Real,
    Bool,
}

/// One declaration: `x, y: int;` or `a: array[64] of real;`.
#[derive(Clone, Debug, PartialEq)]
pub struct Decl {
    /// Names declared together (`x, y: int`).
    pub names: Vec<String>,
    /// Declared type.
    pub ty: DeclTy,
    /// Source line.
    pub line: u32,
}

#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
pub enum DeclTy {
    Scalar(Ty),
    Array { len: usize, elem: Ty },
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // fields are self-describing
pub enum Stmt {
    /// `x := e;` or `a[i] := e;`
    Assign {
        target: LValue,
        value: Expr,
        line: u32,
    },
    /// `if c then S [else S]`
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
        line: u32,
    },
    /// `while c do S`
    While {
        cond: Expr,
        body: Vec<Stmt>,
        line: u32,
    },
    /// `for i := lo to|downto hi do S`
    For {
        var: String,
        from: Expr,
        to: Expr,
        down: bool,
        body: Vec<Stmt>,
        line: u32,
    },
    /// `print e;` — appends the value to the program's output stream.
    Print { value: Expr, line: u32 },
}

/// Assignment targets.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
pub enum LValue {
    Var(String),
    Index { array: String, index: Expr },
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
pub enum Expr {
    IntLit(i64),
    RealLit(f64),
    BoolLit(bool),
    Var(String),
    Index {
        array: String,
        index: Box<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Intrinsic function call: `sqrt(x)`, `sin(x)`, ...
    Call {
        func: Intrinsic,
        arg: Box<Expr>,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants are self-describing
pub enum UnOp {
    Neg,
    Not,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants are self-describing
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Real division (`/`).
    Div,
    /// Integer division (`div`).
    IDiv,
    /// Integer modulus (`mod`).
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// `and` / `or`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary intrinsic math functions, mapped to RLIW functional-unit ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants are self-describing
pub enum Intrinsic {
    Sqrt,
    Sin,
    Cos,
    Exp,
    Ln,
    Abs,
    /// `itor(e)` — explicit int→real conversion (also inserted implicitly).
    ToReal,
    /// `trunc(e)` — real→int truncation.
    Trunc,
}

impl Intrinsic {
    /// Resolve an intrinsic by its source-level name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "sqrt" => Intrinsic::Sqrt,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "exp" => Intrinsic::Exp,
            "ln" => Intrinsic::Ln,
            "abs" => Intrinsic::Abs,
            "itor" => Intrinsic::ToReal,
            "trunc" => Intrinsic::Trunc,
            _ => return None,
        })
    }
}
