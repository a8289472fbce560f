//! `synth-1e5`: `assign_trace` on a seeded 10^5-value scale trace (the CI
//! scale-smoke shape) on one worker thread, each assignment followed by
//! an independent recount of residual conflicts. Trace generation is
//! set-up. No frontend or simulator runs here: graph build, coloring and
//! duplication are the whole job. Every assignment repeats the same work,
//! so each is its own round and the p95 of a round is its latency.
//!
//! The quality metrics come from one more assignment, of a trace whose seed
//! is fixed, so they are exact across `--seed`s: one copy more or less than
//! the parent is then a change in the generated code, not in the input.

use std::time::Instant;

use parmem_core::assignment::{assign_trace, AssignParams, AssignmentReport};
use parmem_core::graph::ConflictGraph;
use parmem_core::synth::{scale_trace, ScaleSpec};
use parmem_core::types::AccessTrace;

use crate::trace::Tracer;
use crate::{alloc, span_layers, Config, Metrics, Round, Tally, Window, Workload};

/// The CI scale-smoke shape.
const SPEC: ScaleSpec = ScaleSpec {
    values: 100_000,
    edges: 400_000,
    cliques: 40,
    clique_size: 16,
    components: 8,
    modules: 8,
};

/// Smoke runs divide the value and edge counts by this.
const SMOKE_SHRINK: usize = 50;

/// Seed of the trace `sim_cycles` and `extra_copies` are measured on.
const QUALITY_SEED: u64 = 1;

/// The synth-1e5 workload.
pub struct Synth {
    spec: ScaleSpec,
    trace: AccessTrace,
    params: AssignParams,
    last: Option<AssignmentReport>,
}

fn check(report: &AssignmentReport, recount: usize) -> Result<(), String> {
    if report.residual_conflicts != 0 || recount != 0 {
        return Err(format!(
            "residual conflicts: {} reported, {recount} recounted",
            report.residual_conflicts
        ));
    }
    Ok(())
}

impl Workload for Synth {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let spec = if cfg.smoke {
            ScaleSpec {
                values: SPEC.values / SMOKE_SHRINK,
                edges: SPEC.edges / SMOKE_SHRINK,
                ..SPEC
            }
        } else {
            SPEC
        };
        Ok(Synth {
            trace: scale_trace(&spec, cfg.seed),
            spec,
            // One worker: on a 2-vCPU VM the two-worker assignment ran
            // slower and varied 3-4x more between runs (see README).
            params: AssignParams {
                jobs: 1,
                ..AssignParams::default()
            },
            last: None,
        })
    }

    fn window(&mut self, seconds: f64, traced: bool, tally: &mut Tally) -> Result<Window, String> {
        let start = Instant::now();
        let mut tracer = traced.then(|| Tracer::new(start));
        let mut rounds = Vec::new();
        let mut probe_s = 0.0;
        alloc::reset_peak();
        loop {
            let op = rounds.len() as u64;
            let (trace, params) = (&self.trace, &self.params);
            let t0 = Instant::now();
            let (_, report, recount) = match tracer.as_mut() {
                None => {
                    let (a, r) = assign_trace(trace, params);
                    let recount = a.residual_conflicts(trace);
                    (a, r, recount)
                }
                Some(tr) => tr.span(op, "assignment", |tr| {
                    // Timed on its own: the sequential build the
                    // assignment's own (parallel) build is compared with.
                    let t = Instant::now();
                    tr.span(op, "graph.build", |_| ConflictGraph::build(trace));
                    probe_s += t.elapsed().as_secs_f64();
                    let (a, r) = tr.span(op, "assign", |_| assign_trace(trace, params));
                    let recount = tr.span(op, "recount", |_| a.residual_conflicts(trace));
                    (a, r, recount)
                }),
            };
            let elapsed_s = t0.elapsed().as_secs_f64();
            rounds.push(Round {
                latencies_ms: vec![elapsed_s * 1e3],
                elapsed_s,
            });
            tally.check(check(&report, recount), || format!("assignment {op}"));
            self.last = Some(report);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        Ok(Window {
            rounds,
            elapsed_s: start.elapsed().as_secs_f64(),
            probe_s,
            peak_heap: alloc::peak(),
            spans: tracer.map(Tracer::into_spans).unwrap_or_default(),
        })
    }

    /// On the [`QUALITY_SEED`] trace: cycles to fetch every instruction's
    /// operands under its assignment (Σ fetch makespan), and the
    /// assignment's extra copies.
    fn quality(&mut self, tally: &mut Tally) -> Result<(f64, f64), String> {
        let trace = scale_trace(&self.spec, QUALITY_SEED);
        let (a, report) = assign_trace(&trace, &self.params);
        tally.check(check(&report, a.residual_conflicts(&trace)), || {
            "quality assignment".to_string()
        });
        let cycles: Option<usize> = trace
            .instructions
            .iter()
            .map(|inst| a.fetch_makespan(inst))
            .sum();
        tally.check(
            cycles
                .map(|_| ())
                .ok_or("an operand has no module".to_string()),
            || "fetch makespan".to_string(),
        );
        Ok((cycles.unwrap_or(0) as f64, report.extra_copies as f64))
    }

    fn layers(&mut self, traced: &Window) -> Result<Metrics, String> {
        let ops = traced.ops() as f64;
        let mut m = span_layers(
            &traced.spans,
            &[
                ("graph.build", "graph.build_ms", ""),
                ("assign", "assign.ms", "assign.alloc_mb"),
                ("recount", "recount.ms", ""),
            ],
            ops,
        );
        m.insert("assign.rest_ms", m["assign.ms"] - m["graph.build_ms"]);
        let g = ConflictGraph::build(&self.trace);
        m.insert("graph.edges", g.edge_count() as f64);
        m.insert("graph.components", g.connected_components().len() as f64);
        let report = self.last.as_ref().ok_or("no assignment ran")?;
        m.insert("assign.values", g.len() as f64);
        m.insert("assign.uncolored", report.uncolored as f64);
        m.insert("assign.atoms", report.atoms as f64);
        m.insert("assign.extra_copies", report.extra_copies as f64);
        Ok(m)
    }
}
