//! parmem-serve: assignment-as-a-service.
//!
//! The ninth subsystem: a long-lived, std-only HTTP daemon that serves
//! the paper's pipelines over `POST /v1/{assign,compile,exact,lint}` —
//! the same deterministic JSON reports the CLI emits, multiplexed onto a
//! bounded [`ServicePool`](parmem_pool::ServicePool) of pipeline workers.
//!
//! What makes it a *service* rather than a CLI in a loop:
//!
//! - **Content-addressed caching** ([`cache`]): responses are pure
//!   functions of `(program digest, k, strategy, options digest)`, so
//!   they are cached under that address with LRU byte-budget eviction and
//!   strong-ETag `If-None-Match` revalidation (304s). A second,
//!   intermediate cache ([`intermediates`]) keys the *frontend stage's*
//!   TAC on `(source, unroll)` alone, so same-program/different-`k`
//!   requests skip re-parsing even though their response addresses
//!   differ. Both are one generic LRU ([`lru`]) that weighs entries
//!   against a budget: bodies by their bytes, programs as one each.
//! - **Admission control** ([`daemon`]): a bounded queue in front of the
//!   worker pool answers `429 Retry-After` at saturation instead of
//!   queueing unboundedly; per-request wall and exact-solver budgets are
//!   clamped server-side; a panicking pipeline job costs one 500, never a
//!   worker.
//! - **Graceful drain**: SIGTERM or `POST /v1/shutdown` stops admission,
//!   finishes everything in flight, then exits.
//! - **One HTTP stack**: `/metrics`, `/healthz`, and `/v1/stats`
//!   (cache + queue + per-endpoint latency histograms, [`stats`]) ride
//!   the same listener — this crate absorbs what `parmem serve-metrics`
//!   used to run standalone.
//!
//! The protocol ([`protocol`]) is strict: unknown members are 400s naming
//! the accepted set, mirroring the CLI's exit-2 unknown-flag audit.

#![deny(missing_docs)]

pub mod cache;
pub mod daemon;
pub mod intermediates;
pub mod lru;
pub mod protocol;
pub mod stats;

pub use cache::{CacheKey, CacheStats, CachedResponse, ResponseCache};
pub use daemon::{Daemon, ServeConfig};
pub use intermediates::{IntermediateCache, IntermediateStats};
pub use protocol::{parse_request, ApiRequest, Endpoint, Source};
pub use stats::{EndpointStats, ServeStats};
