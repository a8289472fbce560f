#![warn(missing_docs)]

//! # liw-ir
//!
//! Front end and mid-level IR for the RLIW compiler: the MiniLang language
//! (lexer, parser, semantic checks), three-address code, control-flow
//! analyses (CFG, dominators, natural loops, regions), def-use *webs*
//! (the paper's per-definition renaming into data values), and a reference
//! interpreter used as ground truth by the simulator tests.
//!
//! Pipeline:
//!
//! ```text
//! source ── parser::parse ──► ast ── lower::lower ──► tac::TacProgram
//!                                        │
//!                 cfg::regions ◄─────────┼─────────► webs::compute_webs
//!                                        ▼
//!                                  interp::run (reference semantics)
//! ```

pub mod ast;
pub mod bitset;
pub mod cfg;
pub mod interp;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod tac;
pub mod unroll;
pub mod webs;

pub use ast::Ty;
pub use bitset::BitSet;
pub use interp::{run, run_source, RunResult};
pub use lower::lower;
pub use parser::parse;
pub use tac::{ArrayAccessMeta, ArrayAccessSite, BlockId, TacProgram, Value, VarId};
pub use webs::{compute_webs, Webs};

/// Boxed error that can cross thread boundaries (the batch engine runs the
/// front end on worker threads).
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Parse and lower MiniLang source to TAC in one call.
pub fn compile(src: &str) -> Result<TacProgram, Error> {
    let ast = parser::parse(src)?;
    Ok(lower::lower(&ast)?)
}

/// Parse, unroll innermost loops, and lower in one call.
pub fn compile_unrolled(src: &str, cfg: unroll::UnrollConfig) -> Result<TacProgram, Error> {
    let ast = parser::parse(src)?;
    let ast = unroll::unroll_program(&ast, cfg);
    Ok(lower::lower(&ast)?)
}
