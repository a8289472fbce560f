#![warn(missing_docs)]

//! # parmem-core
//!
//! Compile-time memory-module assignment for parallel memories, reproducing
//! Gupta & Soffa, *Compile-time Techniques for Efficient Utilization of
//! Parallel Memories* (PPOPP 1988).
//!
//! A lock-step machine (e.g. a long-instruction-word processor) fetches the
//! operands of each long instruction from `k` parallel memory modules in a
//! single cycle — unless two operands live in the same module, which
//! serializes the fetch. Because the operands of each instruction are known
//! at compile time, the compiler can lay scalars out across modules to avoid
//! these conflicts, duplicating (read-only) values when a single-copy layout
//! cannot exist.
//!
//! ## Pipeline (paper Fig. 2)
//!
//! ```text
//! AccessTrace ──► ConflictGraph ──► atoms ──► coloring (Fig. 4)
//!                                                 │
//!                              V_unassigned ◄─────┘
//!                                   │
//!                 duplication + placement (Fig. 6 or Figs. 7/9/10)
//!                                   │
//!                                   ▼
//!                              Assignment (value → modules with a copy)
//! ```
//!
//! ## Quick start
//!
//! ```
//! use parmem_core::prelude::*;
//!
//! // Paper Fig. 1: three modules, three instructions.
//! let trace = AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4]]);
//! let (assignment, report) = assign_trace(&trace, &AssignParams::default());
//! assert_eq!(report.residual_conflicts, 0);
//! assert_eq!(report.multi_copy, 0); // Fig. 1 needs no duplication
//! # let _ = assignment;
//! ```
//!
//! The [`strategies`] module adds the paper's Table 1 storage strategies
//! (STOR1/STOR2/STOR3); [`baseline`] provides oblivious layouts for
//! comparison; [`synth`] generates reproducible synthetic traces.

pub mod assignment;
pub mod atoms;
pub mod baseline;
pub mod coloring;
pub mod duplication;
pub mod graph;
pub mod instview;
pub mod layout;
pub mod matching;
pub mod strategies;
pub mod synth;
pub mod trace_io;
pub mod types;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::assignment::{
        assign_trace, assign_trace_into, AssignParams, Assignment, AssignmentReport,
        DuplicationStrategy,
    };
    pub use crate::graph::ConflictGraph;
    pub use crate::instview::InstructionView;
    pub use crate::layout::{
        plan as plan_layout, ArrayPolicy, ArrayProfile, ArrayScheme, MemoryLayout, PlannedArray,
    };
    pub use crate::strategies::{
        install_exact_solver, run_strategy, RegionizedTrace, Strategy, StrategyInfo,
        STRATEGY_REGISTRY,
    };
    pub use crate::types::{AccessTrace, Instructions, ModuleId, ModuleSet, ValueId};
}

pub use prelude::*;
