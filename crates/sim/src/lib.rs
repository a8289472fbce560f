#![warn(missing_docs)]

//! # rliw-sim
//!
//! Cycle-level simulator for the reconfigurable long-instruction-word (RLIW)
//! machine of Gupta & Soffa (PPOPP '88): `k` parallel memory modules,
//! lock-step functional units, one long word per cycle. Operand fetches
//! hitting the same module serialize at Δ per transfer — the simulator
//! accounts that time exactly, under compile-time-assigned scalar layouts
//! and a choice of array storage policies, and also evaluates the paper's
//! analytic `t_ave = Σ i·Δ·p(i)` model exactly per executed word.
//!
//! The [`pipeline`] module chains the whole system:
//! source → IR → schedule → assignment → simulation, with outputs
//! cross-checked against the `liw-ir` reference interpreter.

pub mod arrays;
pub mod machine;
pub mod model;
pub mod pipeline;

pub use arrays::{uniform_seed, ArrayPlacement};
pub use machine::{run, run_policies, run_policies_with_fuel, run_with_fuel, SimError, SimStats};
pub use pipeline::{
    assign, compile, compile_with, quick_run, table2_row, verified_run, CompileOptions,
    CompiledProgram, Table2Row, Table2Run, VerifiedRun,
};
