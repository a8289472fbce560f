#![warn(missing_docs)]

//! # parmem-driver
//!
//! The pipeline session layer: the *single* place the staged pipeline
//! (frontend → optimize → schedule → assign → verify → simulate →
//! exact-gap) is chained, instrumented, and configured. Every consumer —
//! the `parmem` CLI subcommands, the `parmem-batch` engine, the
//! `parmem-bench` bins, and the integration tests — drives the pipeline
//! through this crate instead of wiring the stages by hand:
//!
//! * [`Session`] owns the shared configuration (module count, storage
//!   strategy, compile options, assignment parameters, seeds, optional
//!   exact-gap stage, array policy), holds the one implementation of each
//!   compile stage, and mints [`JobSpec`]s, which carry it, or runs
//!   programs directly;
//! * [`PipelineContext`] executes the stages one at a time through those
//!   methods, applying fault injection, per-stage wall/alloc metrics, and
//!   obs span wrapping in exactly one place — [`run_job`] adds panic
//!   isolation on top;
//! * [`ExactGap`] is the one heuristic-vs-exact gap measurement, shared
//!   by the `exact_gap` stage, `parmem exact`, `parmem verify --exact`,
//!   serve's `/v1/exact` and the `exact_gaps` bench;
//! * [`args`] is the CLI's shared argument parser ([`args::CommonArgs`])
//!   plus the option → pipeline-config builders.
//!
//! ```
//! use parmem_driver::Session;
//!
//! let result = Session::new(4).run("DEMO", "program d; var x: int;
//!     begin x := 6; print x * 7; end.");
//! assert_eq!(result.status(), "ok");
//! ```

pub mod args;
pub mod exact_gap;
pub mod job;
pub mod session;
pub mod telemetry;

pub use args::CommonArgs;
pub use exact_gap::ExactGap;
pub use job::{
    hash_output, run_job, run_stages, FaultInjection, JobError, JobOutput, JobResult, JobSpec,
    PipelineContext, PlannedSummary,
};
pub use session::{CompileOptions, Session, DEFAULT_SEED};
pub use telemetry::{TelemetryConfig, TelemetryGuard};
