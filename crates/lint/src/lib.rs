#![deny(missing_docs)]

//! # parmem-lint
//!
//! Static analysis for the RLIW parallel-memory pipeline: a generic
//! lattice-based fixpoint dataflow engine over `liw-ir` control-flow
//! graphs, a family of concrete analyses built on it, and two consumers —
//! PML-coded lint diagnostics and a static bank-conflict predictor that
//! evaluates the paper's Table 2 `t_min`/`t_ave`/`t_max` model entirely at
//! compile time and cross-checks it against `rliw-sim` measurements.
//!
//! * [`engine`] — direction-parametric worklist solver ([`engine::solve`])
//!   over a [`engine::FlowGraph`], with a hard step cap as a termination
//!   guard. Deterministic: iteration order is a pure function of the graph.
//! * [`BitSet`] — the dense powerset domain the common analyses use,
//!   re-exported from `liw-ir` (whose webs and `liw-opt`'s DCE share it).
//! * [`analyses`] — liveness, reaching definitions, definite
//!   initialization, constant propagation, and subscript (stride)
//!   classification. `parmem-verify`'s historical solvers now delegate
//!   here behind a source-compatible shim.
//! * [`lints`] — the `PML001`..`PML007` diagnostics (mirroring
//!   `parmem-verify`'s PM certificate codes).
//! * [`predict`] — the static conflict predictor and its
//!   predicted-vs-measured report.
//! * [`report`] — deterministic per-program text/JSON rendering.

pub mod analyses;
pub mod engine;
pub mod lints;
pub mod predict;
pub mod report;

pub use analyses::{
    array_stride_profiles, ConstProp, ConstVal, DefSite, DefiniteInit, Liveness, ReachingDefs,
};
pub use engine::{solve, steps_bound, Analysis, Direction, FlowGraph, Solution};
pub use lints::{lint_program, LintCode, LintDiag, LintOptions};
pub use liw_ir::BitSet;
pub use predict::{
    compare, compare_with_layouts, predict, totals, PolicyRow, PredictReport, StaticPrediction,
    T_AVE_TOLERANCE,
};
pub use report::LintReport;
