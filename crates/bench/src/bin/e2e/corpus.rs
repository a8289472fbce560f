//! `corpus` and `corpus-planned`: the paper-scale compile job. Every pass
//! runs each of the 11 bundled programs (`parmem batch --all`) at every k,
//! in a seeded shuffled order, through `Session::run` — or, when traced,
//! through the same `PipelineContext` stages with a span around each.
//!
//! * `corpus`: `Session::new(k)` defaults (STOR1, optimizer on), k ∈ {2,4,8};
//! * `corpus-planned`: STOR3, unroll 4 and `array_policy = auto`, k ∈ {4,8},
//!   so every job also plans, verifies and simulates a memory layout.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use parmem_core::layout::ArrayPolicy;
use parmem_core::strategies::Strategy;
use parmem_driver::{hash_output, JobError, JobOutput, PipelineContext, Session};

use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{alloc, span_layers, Config, Metrics, Round, Tally, Window, Workload};

/// Span name, self-time metric and allocation metric of each stage, in
/// pipeline order; the job's own self time is the driver's glue.
pub const STAGE_METRICS: [(&str, &str, &str); 8] = [
    ("frontend", "frontend.ms", "frontend.alloc_mb"),
    ("optimize", "optimize.ms", "optimize.alloc_mb"),
    ("schedule", "schedule.ms", "schedule.alloc_mb"),
    ("assign", "assign.ms", "assign.alloc_mb"),
    ("verify", "verify.ms", "verify.alloc_mb"),
    ("reference", "reference.ms", "reference.alloc_mb"),
    ("simulate", "simulate.ms", "simulate.alloc_mb"),
    ("job", "driver.ms", ""),
];

struct Job {
    session: Session,
    program: &'static str,
    source: Arc<str>,
    /// `hash_output` of the reference interpreter's output for `source`.
    reference: u64,
}

/// Per-pass sums the checks and the traced run report.
#[derive(Clone, Copy, Debug, Default)]
struct Sums {
    cycles: u64,
    extra_copies: u64,
    t_interleaved: u64,
    t_min: u64,
    static_words: u64,
    values: u64,
    uncolored: u64,
    atoms: u64,
    reference_steps: u64,
    words: u64,
}

impl Sums {
    fn add(&mut self, o: &JobOutput) {
        self.cycles += o.cycles;
        self.extra_copies += o.assign_report.extra_copies as u64;
        self.t_interleaved += o.table2.t_interleaved;
        self.t_min += o.table2.t_min;
        self.static_words += o.static_words;
        self.values += o.values as u64;
        self.uncolored += o.assign_report.uncolored as u64;
        self.atoms += o.assign_report.atoms as u64;
        self.reference_steps += o.reference_steps;
        self.words += o.words;
    }
}

/// The corpus workload; `PLANNED` selects `corpus-planned`.
pub struct Corpus<const PLANNED: bool> {
    jobs: Vec<Job>,
    order: Vec<usize>,
    rng: Rng,
    smoke: bool,
    /// Totals and job count of the last window.
    last: (Sums, usize),
}

fn session(k: usize, planned: bool) -> Session {
    let s = Session::new(k);
    if !planned {
        return s;
    }
    let mut s = s
        .with_strategy(Strategy::STOR3)
        .with_array_policy(ArrayPolicy::Auto);
    // What `parmem batch --unroll 4` sets.
    s.opts.unroll = Some(liw_ir::unroll::UnrollConfig {
        factor: 4,
        max_body_stmts: 16,
    });
    s
}

fn check(job: &Job, out: &JobOutput) -> Result<(), String> {
    if out.output_hash != job.reference {
        return Err(format!(
            "output hash {:016x} differs from the reference interpreter's {:016x}",
            out.output_hash, job.reference
        ));
    }
    if out.assign_report.residual_conflicts != 0 {
        return Err(format!(
            "{} residual conflicts",
            out.assign_report.residual_conflicts
        ));
    }
    if !out.verify.is_clean() {
        return Err(format!("verifier not clean: {}", out.verify));
    }
    Ok(())
}

/// The job through `PipelineContext`, one span per stage, with the panic
/// isolation `Session::run` has.
fn run_traced(tr: &mut Tracer, op: u64, job: &Job) -> Result<JobOutput, String> {
    let spec = job.session.job(job.program, Arc::clone(&job.source));
    tr.span(op, "job", |tr| {
        let staged = catch_unwind(AssertUnwindSafe(|| -> Result<JobOutput, JobError> {
            let mut metrics = Default::default();
            let mut cx = PipelineContext::begin(&spec, &mut metrics);
            tr.span(op, "frontend", |_| cx.frontend())?;
            tr.span(op, "optimize", |_| cx.optimize());
            tr.span(op, "schedule", |_| cx.schedule());
            tr.span(op, "assign", |_| cx.assign())?;
            tr.span(op, "verify", |_| cx.verify())?;
            tr.span(op, "reference", |_| cx.reference())?;
            tr.span(op, "simulate", |_| cx.simulate())?;
            cx.exact_gap()?;
            Ok(cx.finish())
        }));
        staged
            .map_err(|_| "job panicked".to_string())?
            .map_err(|e| e.to_string())
    })
}

impl<const PLANNED: bool> Workload for Corpus<PLANNED> {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let ks: &[usize] = if PLANNED { &[4, 8] } else { &[2, 4, 8] };
        let mut jobs = Vec::new();
        for b in workloads::all_benchmarks() {
            let reference = liw_ir::run_source(b.source)
                .map_err(|e| format!("{}: reference interpreter: {e}", b.name))?;
            let reference = hash_output(&reference.output);
            let source: Arc<str> = Arc::from(b.source);
            for &k in ks {
                jobs.push(Job {
                    session: session(k, PLANNED),
                    program: b.name,
                    source: Arc::clone(&source),
                    reference,
                });
            }
        }
        Ok(Corpus {
            order: (0..jobs.len()).collect(),
            jobs,
            rng: Rng::new(cfg.seed, u64::from(PLANNED)),
            smoke: cfg.smoke,
            last: (Sums::default(), 0),
        })
    }

    /// Whole passes, so every window runs each job equally often (a smoke
    /// run stops at the first job past the deadline instead).
    fn window(&mut self, seconds: f64, traced: bool, tally: &mut Tally) -> Result<Window, String> {
        let start = Instant::now();
        let mut tracer = traced.then(|| Tracer::new(start));
        let mut rounds = Vec::new();
        let mut ops = 0;
        let mut sums = Sums::default();
        alloc::reset_peak();
        loop {
            self.rng.shuffle(&mut self.order);
            let pass_start = Instant::now();
            let mut latencies = Vec::with_capacity(self.order.len());
            for &j in &self.order {
                let job = &self.jobs[j];
                let t0 = Instant::now();
                let out = match tracer.as_mut() {
                    Some(tr) => run_traced(tr, ops as u64, job),
                    None => job
                        .session
                        .run(job.program, Arc::clone(&job.source))
                        .outcome
                        .map_err(|e| e.to_string()),
                };
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                ops += 1;
                let result = out.and_then(|o| {
                    sums.add(&o);
                    check(job, &o)
                });
                tally.check(result, || format!("{} k={}", job.program, job.session.k));
                if self.smoke && start.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
            rounds.push(Round {
                latencies_ms: latencies,
                elapsed_s: pass_start.elapsed().as_secs_f64(),
            });
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        self.last = (sums, ops);
        Ok(Window {
            rounds,
            elapsed_s: start.elapsed().as_secs_f64(),
            probe_s: 0.0,
            peak_heap: alloc::peak(),
            spans: tracer.map(Tracer::into_spans).unwrap_or_default(),
        })
    }

    fn quality(&mut self, _: &mut Tally) -> Result<(f64, f64), String> {
        let passes = self.passes();
        let (s, _) = self.last;
        Ok((s.cycles as f64 / passes, s.extra_copies as f64 / passes))
    }

    fn layers(&mut self, traced: &Window) -> Result<Metrics, String> {
        let passes = self.passes();
        let mut m = span_layers(&traced.spans, &STAGE_METRICS, passes);
        let (s, _) = self.last;
        let per_pass = |v: u64| v as f64 / passes;
        m.extend([
            ("schedule.static_words", per_pass(s.static_words)),
            ("assign.values", per_pass(s.values)),
            ("assign.uncolored", per_pass(s.uncolored)),
            ("assign.atoms", per_pass(s.atoms)),
            ("assign.extra_copies", per_pass(s.extra_copies)),
            ("reference.steps", per_pass(s.reference_steps)),
            ("simulate.words", per_pass(s.words)),
            (
                "simulate.array_conflict_pct",
                100.0 * (s.t_interleaved as f64 - s.t_min as f64) / s.t_min as f64,
            ),
        ]);
        Ok(m)
    }
}

impl<const PLANNED: bool> Corpus<PLANNED> {
    /// Passes the last window ran (fractional only in smoke runs).
    fn passes(&self) -> f64 {
        self.last.1 as f64 / self.jobs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_order_replays_per_seed() {
        let order = |seed| {
            let cfg = Config {
                seed,
                seconds: 1.0,
                smoke: true,
                parmem: "parmem".into(),
            };
            let mut c = Corpus::<false>::setup(&cfg).unwrap();
            let mut passes = Vec::new();
            for _ in 0..3 {
                c.rng.shuffle(&mut c.order);
                passes.push(c.order.clone());
            }
            passes
        };
        let a = order(5);
        assert_eq!(a, order(5));
        assert_ne!(a, order(6));
        assert_eq!(a[0].len(), 33, "11 programs × k ∈ {{2,4,8}}");
        assert_ne!(a[0], a[1], "each pass draws a fresh order");
    }
}
