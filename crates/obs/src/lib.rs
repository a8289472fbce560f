//! # parmem-obs — observability for the parallel-memories pipeline
//!
//! A dependency-free (std-only) tracing and metrics library shared by every
//! crate in the workspace. It provides:
//!
//! - **Spans** ([`span`], [`SpanGuard`]): nested wall-clock regions with
//!   key/value attributes. Nesting follows a per-thread stack, so a batch
//!   job's whole pipeline forms one tree.
//! - **Counters and histograms** ([`counter_add`], [`hist_record`],
//!   [`hist_record_n`]): monotonic registries keyed by flat names with an
//!   optional `[key=value,...]` label suffix. Metric values are
//!   deterministic facts of the work (conflicts, copies, picks) — never
//!   wall times — so dumps are byte-identical across worker counts.
//! - **Exporters** on the drained [`Session`]: a human span tree
//!   ([`Session::span_tree`]), JSON ([`Session::to_json`]), Chrome
//!   trace-event format ([`Session::chrome_trace`], Perfetto-loadable, with
//!   a built-in [`chrome::validate`] checker), and a Prometheus-style text
//!   dump ([`Session::metrics_text`]).
//! - **Stage vocabulary** ([`StageKind`], [`StageMetrics`], [`StageTimer`],
//!   [`JobMetrics`]) and the counting global allocator
//!   ([`alloc::CountingAlloc`]), both formerly private to `parmem-batch`.
//!
//! - **Live telemetry** (v2): non-draining registry snapshots
//!   ([`snapshot`]), per-phase progress heartbeats ([`progress`],
//!   [`progress_snapshot`]), a fixed-capacity [`flight`] recorder ring
//!   dumped on panic, and a std-only HTTP stack ([`serve::serve_http`])
//!   whose `/metrics` route ([`serve::MetricsState`]) serves the
//!   Prometheus exporter from live snapshots.
//! - **Shared encodings**: the one JSON string escaper and reader
//!   ([`json`]) and the one FNV-1a hasher ([`digest`]) behind every JSON
//!   document and every published digest in the workspace.
//!
//! Collection is off by default; every instrumentation entry point then
//! costs a single relaxed atomic load. Flip it with [`set_enabled`], run
//! the work, then drain with [`take`] — or observe it mid-flight with
//! [`snapshot`] and the live-telemetry layer.

#![warn(missing_docs)]

pub mod alloc;
pub mod chrome;
pub mod digest;
mod export;
pub mod flight;
pub mod json;
mod metric;
mod progress;
pub mod serve;
mod span;
mod stage;

pub use chrome::{validate as validate_chrome_trace, ChromeStats};
pub use export::{fmt_duration, snapshot, take, Session};
pub use metric::{counter_add, hist_record, hist_record_n, split_labels, Histogram, BUCKET_BOUNDS};
pub use progress::{progress, progress_snapshot, PhaseSnapshot, Progress};
pub use span::{
    drop_spans, enabled, set_enabled, span, thread_closed_spans, AttrValue, SpanGuard, SpanRecord,
};
pub use stage::{JobMetrics, StageKind, StageMetrics, StageTimer};

/// Serializes tests that touch the process-global collector. Unit tests in
/// this crate run in one binary, so without this they would see each
/// other's spans and counters.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
