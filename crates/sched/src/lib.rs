#![warn(missing_docs)]

//! # liw-sched
//!
//! The long-instruction-word list scheduler of the RLIW compiler: packs the
//! `liw-ir` three-address code into long instruction words subject to
//! functional-unit and memory-port limits, renaming operands to data values
//! (webs) along the way. The scheduled program exposes the
//! [`parmem_core::types::AccessTrace`] the module-assignment algorithms
//! consume, and is what the `rliw-sim` machine executes.

pub mod program;
pub mod schedule;

pub use program::{LongWord, MachineSpec, SOperand, SchedBlock, SchedProgram, SchedTerm, SlotOp};
pub use schedule::{schedule, schedule_with, ScheduleOptions};

/// Compile MiniLang source and schedule it in one call.
pub fn compile_and_schedule(
    src: &str,
    spec: MachineSpec,
) -> Result<SchedProgram, Box<dyn std::error::Error + Send + Sync>> {
    let tac = liw_ir::compile(src)?;
    Ok(schedule(&tac, spec))
}
