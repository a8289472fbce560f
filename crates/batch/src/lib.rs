#![warn(missing_docs)]

//! # parmem-batch
//!
//! Parallel batch pipeline engine: runs the full
//! source → IR → schedule → assignment → verification → simulation pipeline
//! over many `(program, k, strategy)` jobs concurrently on a vendored
//! work-stealing thread pool, with:
//!
//! * **deterministic result ordering** — results come back in submission
//!   order no matter which worker ran what, so reports are byte-identical
//!   across `--jobs` settings;
//! * **per-stage metrics** — wall time and (when the
//!   [`parmem_obs::alloc::CountingAlloc`] global allocator is installed)
//!   allocation counts per pipeline stage, recorded into
//!   [`parmem_obs::StageMetrics`];
//! * **panic isolation** — a poisoned job degrades into a structured
//!   [`JobError::Panic`](parmem_driver::JobError::Panic) result instead of
//!   killing the run;
//! * **error policies** — fail-fast (cancel pending jobs on first failure)
//!   or collect-all.
//!
//! Entry points: [`run_batch`] over explicit
//! [`JobSpec`](parmem_driver::JobSpec)s and [`paper_jobs`] for the paper's
//! workload × k sweep. Callers that want the work-stealing pool with their
//! own job body use `parmem-pool` directly.

pub mod report;

pub use report::BatchReport;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parmem_core::strategies::Strategy;
use parmem_driver::{JobResult, JobSpec, Session};

// The whole point of the engine is shipping pipeline state across worker
// threads — assert the key types stay `Send + Sync` at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<parmem_core::assignment::Assignment>();
    assert_send_sync::<parmem_core::assignment::AssignmentReport>();
    assert_send_sync::<parmem_core::assignment::AssignParams>();
    assert_send_sync::<Strategy>();
    assert_send_sync::<parmem_core::types::AccessTrace>();
    assert_send_sync::<parmem_verify::VerifyReport>();
    assert_send_sync::<rliw_sim::pipeline::CompiledProgram>();
    assert_send_sync::<rliw_sim::SimStats>();
    assert_send_sync::<JobSpec>();
    assert_send_sync::<JobResult>();
    assert_send_sync::<BatchReport>();
};

/// What to do with the rest of the batch when a job fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Run every job regardless of failures (default).
    #[default]
    CollectAll,
    /// After the first failure, mark not-yet-started jobs as skipped.
    /// Already-running jobs finish normally.
    FailFast,
}

/// Batch execution options.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads; `0` = auto (`PARMEM_JOBS` env or available
    /// parallelism).
    pub jobs: usize,
    /// Failure policy.
    pub policy: ErrorPolicy,
}

/// Run every spec on the work-stealing pool and collect a [`BatchReport`]
/// with results in submission order.
pub fn run_batch(specs: Vec<JobSpec>, opts: &BatchOptions) -> BatchReport {
    let cancelled = AtomicBool::new(false);
    let fail_fast = opts.policy == ErrorPolicy::FailFast;
    let workers = parmem_pool::effective_jobs(opts.jobs);
    let t0 = Instant::now();
    let progress = parmem_obs::progress("batch.jobs", specs.len() as u64);
    let results = parmem_pool::map_indexed(specs, opts.jobs, |_, spec| {
        if fail_fast && cancelled.load(Ordering::Relaxed) {
            progress.tick(1);
            return JobResult::skipped(spec);
        }
        let r = parmem_driver::run_job(&spec);
        if r.outcome.is_err() {
            cancelled.store(true, Ordering::Relaxed);
        }
        progress.tick(1);
        r
    });
    BatchReport {
        results,
        wall_ns: t0.elapsed().as_nanos() as u64,
        workers,
    }
}

/// Job specs for a workload sweep: every named benchmark at every `k`, under
/// every strategy, with the rest of `base`'s configuration (its own `k` and
/// strategy are replaced). Order is benchmark-major then `k` then strategy,
/// matching the paper's table layouts.
pub fn sweep_jobs(
    benches: &[workloads::Benchmark],
    ks: &[usize],
    strategies: &[Strategy],
    base: &Session,
) -> Vec<JobSpec> {
    let mut specs = Vec::with_capacity(benches.len() * ks.len() * strategies.len());
    for b in benches {
        for &k in ks {
            for &strategy in strategies {
                let session = Session {
                    k,
                    strategy,
                    ..base.clone()
                };
                specs.push(session.job(b.name, b.source));
            }
        }
    }
    specs
}

/// The standard paper sweep: all six Table 1/2 workloads at
/// `k ∈ {2, 4, 8}` under STOR1.
pub fn paper_jobs() -> Vec<JobSpec> {
    sweep_jobs(
        &workloads::benchmarks(),
        &[2, 4, 8],
        &[Strategy::Stor1],
        &Session::new(2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(n: u32) -> String {
        format!(
            "program p{n}; var i, s: int;
             begin s := 0; for i := 1 to {} do s := s + i * i; print s; end.",
            n + 3
        )
    }

    #[test]
    fn batch_results_keep_submission_order() {
        let specs: Vec<JobSpec> = (0..6)
            .map(|n| Session::new(4).job(format!("P{n}"), src(n)))
            .collect();
        let report = run_batch(
            specs,
            &BatchOptions {
                jobs: 3,
                ..Default::default()
            },
        );
        assert!(report.is_clean());
        let names: Vec<&str> = report
            .results
            .iter()
            .map(|r| r.spec.program.as_str())
            .collect();
        assert_eq!(names, ["P0", "P1", "P2", "P3", "P4", "P5"]);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let mk = || {
            (0..5)
                .map(|n| Session::new(4).job(format!("P{n}"), src(n)))
                .collect::<Vec<_>>()
        };
        let a = run_batch(
            mk(),
            &BatchOptions {
                jobs: 1,
                ..Default::default()
            },
        );
        let b = run_batch(
            mk(),
            &BatchOptions {
                jobs: 4,
                ..Default::default()
            },
        );
        assert_eq!(a.to_json(false), b.to_json(false));
        assert_eq!(a.golden_lines(), b.golden_lines());
    }

    #[test]
    fn sweep_jobs_covers_the_cartesian_product() {
        let benches = workloads::benchmarks();
        let base = Session::new(8).with_seed(7).without_optimizer();
        let specs = sweep_jobs(
            &benches,
            &[2, 4, 8],
            &[Strategy::Stor1, Strategy::Stor2],
            &base,
        );
        assert_eq!(specs.len(), benches.len() * 3 * 2);
        assert_eq!(specs[0].program, "TAYLOR1");
        assert_eq!(specs[0].session.k, 2);
        assert_eq!(specs[1].session.strategy, Strategy::Stor2);
        assert!(specs
            .iter()
            .all(|s| s.session.seed == 7 && !s.session.opts.optimize));
    }

    #[test]
    fn paper_jobs_are_the_acceptance_sweep() {
        let specs = paper_jobs();
        assert_eq!(specs.len(), 18);
    }
}
