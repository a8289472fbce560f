//! Batch run reports: deterministic text/JSON/CSV rendering plus the golden
//! snapshot format.
//!
//! Everything rendered with `include_timings == false` is a pure function of
//! the job results in job order — byte-identical across worker counts and
//! runs. Wall times, allocation counts, and the worker count only appear
//! when timings are explicitly requested (they necessarily differ run to
//! run).

use std::fmt::Write as _;

use parmem_driver::{JobError, JobResult};
use parmem_obs::json;
use parmem_verify::BatchSummary;

/// The outcome of one batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job results, in submission order (independent of scheduling).
    pub results: Vec<JobResult>,
    /// Wall time of the whole batch, nanoseconds (non-deterministic; only
    /// rendered with timings).
    pub wall_ns: u64,
    /// Worker threads used (ditto).
    pub workers: usize,
}

impl BatchReport {
    /// Jobs that succeeded.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.is_ok()).count()
    }

    /// Jobs that failed (any structured error except skips).
    pub fn failed_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(&r.outcome, Err(e) if !matches!(e, JobError::Skipped)))
            .count()
    }

    /// Jobs cancelled by fail-fast.
    pub fn skipped_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(&r.outcome, Err(JobError::Skipped)))
            .count()
    }

    /// True if every job succeeded.
    pub fn is_clean(&self) -> bool {
        self.ok_count() == self.results.len()
    }

    /// Fold every job's verifier findings into one [`BatchSummary`] —
    /// successful jobs contribute their clean reports, verify-failed jobs
    /// their violation lists.
    pub fn verify_summary(&self) -> BatchSummary {
        let mut s = BatchSummary::default();
        for r in &self.results {
            match &r.outcome {
                Ok(out) => s.add(&job_label(r), &out.verify),
                Err(JobError::Verify { report }) => s.add(&job_label(r), report),
                Err(_) => {}
            }
        }
        s
    }

    /// Deterministic human-readable report (no timings).
    pub fn format_text(&self) -> String {
        self.format_text_with(false)
    }

    /// Human-readable report; with `include_timings`, a per-stage aggregate
    /// table is appended. Its rows iterate [`StageKind::ALL`]
    /// (pipeline order), never a hash-map order, so two runs of the same
    /// batch differ only in the measured numbers — the row set and order
    /// are stable and diffable.
    ///
    /// [`StageKind::ALL`]: parmem_obs::StageKind::ALL
    pub fn format_text_with(&self, include_timings: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<10} {:>2} {:<5} | {:>8} {:>12} {:>8} {:>8} {:>8} | {:>6} {:>5} {:>8} | {:<6}",
            "program",
            "k",
            "stor",
            "t_min",
            "t_ave",
            "t_rand",
            "t_inter",
            "t_max",
            "single",
            "multi",
            "speedup",
            "status"
        );
        let _ = writeln!(s, "{}", "-".repeat(108));
        for r in &self.results {
            match &r.outcome {
                Ok(o) => {
                    let gap_note = match &o.gap {
                        Some(g) => format!(
                            " gap={} [{},{}] {}{}",
                            g.gap(),
                            g.certificate.lower,
                            g.certificate.upper,
                            g.certificate.status.as_str(),
                            if g.report.is_clean() {
                                ""
                            } else {
                                " CERT-DIRTY"
                            }
                        ),
                        None => String::new(),
                    };
                    let planned_note = match &o.planned {
                        Some(p) => format!(
                            " planned={}:{} t_planned={}",
                            p.policy, p.arrays, p.transfer_time
                        ),
                        None => String::new(),
                    };
                    let _ = writeln!(
                        s,
                        "{:<10} {:>2} {:<5} | {:>8} {:>12.4} {:>8} {:>8} {:>8} | {:>6} {:>5} {:>7.2}x | ok{}{}",
                        r.spec.program,
                        r.spec.session.k,
                        r.spec.session.strategy.name(),
                        o.table2.t_min,
                        o.table2.t_ave_analytic,
                        o.table2.t_ave_measured,
                        o.table2.t_interleaved,
                        o.table2.t_max,
                        o.assign_report.single_copy,
                        o.assign_report.multi_copy,
                        o.speedup,
                        gap_note,
                        planned_note,
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        s,
                        "{:<10} {:>2} {:<5} | {:>62} | {}",
                        r.spec.program,
                        r.spec.session.k,
                        r.spec.session.strategy.name(),
                        "-",
                        e
                    );
                }
            }
        }
        let _ = writeln!(
            s,
            "\n{} job(s): {} ok, {} failed, {} skipped; verify: {}",
            self.results.len(),
            self.ok_count(),
            self.failed_count(),
            self.skipped_count(),
            self.verify_summary()
        );
        if include_timings {
            let _ = writeln!(
                s,
                "\nper-stage totals ({} worker(s), {:.3}ms wall):",
                self.workers,
                self.wall_ns as f64 / 1e6
            );
            let _ = writeln!(
                s,
                "{:<10} {:>5} {:>12} {:>14} {:>10} {:>12} {:>8}",
                "stage", "jobs", "wall_ms", "alloc_bytes", "allocs", "peak", "spans"
            );
            for k in parmem_obs::StageKind::ALL {
                let mut total = parmem_obs::StageMetrics::default();
                let mut jobs = 0usize;
                for r in &self.results {
                    if let Some(m) = r.metrics.stage(k) {
                        total.add(m);
                        jobs += 1;
                    }
                }
                let _ = writeln!(
                    s,
                    "{:<10} {:>5} {:>12.3} {:>14} {:>10} {:>12} {:>8}",
                    k.as_str(),
                    jobs,
                    total.wall_ns as f64 / 1e6,
                    total.alloc_bytes,
                    total.allocs,
                    total.peak_bytes,
                    total.spans
                );
            }
        }
        s
    }

    /// Render as JSON. With `include_timings`, per-job stage metrics, the
    /// batch wall time, and the worker count are included (making the output
    /// run-dependent).
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut s = String::from("{\"schema\":\"parmem-batch/v1\"");
        let _ = write!(
            s,
            ",\"total\":{},\"ok\":{},\"failed\":{},\"skipped\":{}",
            self.results.len(),
            self.ok_count(),
            self.failed_count(),
            self.skipped_count()
        );
        if include_timings {
            let _ = write!(
                s,
                ",\"wall_ns\":{},\"workers\":{}",
                self.wall_ns, self.workers
            );
        }
        s.push_str(",\"jobs\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&job_json(r, include_timings));
        }
        s.push(']');
        let _ = write!(s, ",\"verify\":{}", self.verify_summary().to_json());
        s.push('}');
        s
    }

    /// Render as CSV, one row per job. With `include_timings`, per-stage
    /// nanosecond/allocation columns are appended.
    pub fn to_csv(&self, include_timings: bool) -> String {
        let mut s = String::from(
            "program,k,strategy,seed,status,t_min,t_ave_analytic,t_ave_measured,\
             t_interleaved,t_max,single_copy,multi_copy,extra_copies,residual_conflicts,\
             values,static_words,words,cycles,reference_steps,speedup,output_len,\
             output_hash,verify_checks,error,heuristic_residual,gap_lower,gap_upper,gap,\
             gap_status,copies_upper,cert_clean",
        );
        if include_timings {
            for k in parmem_obs::StageKind::ALL {
                let _ = write!(
                    s,
                    ",{}_ns,{}_alloc_bytes,{}_peak_bytes,{}_spans",
                    k.as_str(),
                    k.as_str(),
                    k.as_str(),
                    k.as_str()
                );
            }
        }
        s.push('\n');
        for r in &self.results {
            let _ = write!(
                s,
                "{},{},{},{},{}",
                csv_escape(&r.spec.program),
                r.spec.session.k,
                r.spec.session.strategy.name(),
                r.spec.session.seed,
                r.status()
            );
            match &r.outcome {
                Ok(o) => {
                    let _ = write!(
                        s,
                        ",{},{:.4},{},{},{},{},{},{},{},{},{},{},{},{},{:.4},{},{:016x},{},",
                        o.table2.t_min,
                        o.table2.t_ave_analytic,
                        o.table2.t_ave_measured,
                        o.table2.t_interleaved,
                        o.table2.t_max,
                        o.assign_report.single_copy,
                        o.assign_report.multi_copy,
                        o.assign_report.extra_copies,
                        o.assign_report.residual_conflicts,
                        o.values,
                        o.static_words,
                        o.words,
                        o.cycles,
                        o.reference_steps,
                        o.speedup,
                        o.output_len,
                        o.output_hash,
                        o.verify.checks_run.len(),
                    );
                }
                Err(e) => {
                    let _ = write!(s, ",,,,,,,,,,,,,,,,,,{}", csv_escape(&e.to_string()));
                }
            }
            match r.outcome.as_ref().ok().and_then(|o| o.gap.as_ref()) {
                Some(g) => {
                    let _ = write!(
                        s,
                        ",{},{},{},{},{},{},{}",
                        g.heuristic_residual,
                        g.certificate.lower,
                        g.certificate.upper,
                        g.gap(),
                        g.certificate.status.as_str(),
                        g.certificate.copies_upper,
                        g.report.is_clean()
                    );
                }
                None => s.push_str(",,,,,,,"),
            }
            if include_timings {
                for k in parmem_obs::StageKind::ALL {
                    match r.metrics.stage(k) {
                        Some(m) => {
                            let _ = write!(
                                s,
                                ",{},{},{},{}",
                                m.wall_ns, m.alloc_bytes, m.peak_bytes, m.spans
                            );
                        }
                        None => s.push_str(",,,,"),
                    }
                }
            }
            s.push('\n');
        }
        s
    }

    /// Canonical one-line-per-job snapshot used by the golden tests: every
    /// deterministic measurement, no timings.
    pub fn golden_lines(&self) -> String {
        let mut s = String::new();
        for r in &self.results {
            match &r.outcome {
                Ok(o) => {
                    let gap_note = match &o.gap {
                        Some(g) => format!(
                            " | gap: h={} bounds=[{},{}] status={} copies={} cert={}",
                            g.heuristic_residual,
                            g.certificate.lower,
                            g.certificate.upper,
                            g.certificate.status.as_str(),
                            g.certificate.copies_upper,
                            if g.report.is_clean() {
                                "clean"
                            } else {
                                "dirty"
                            }
                        ),
                        None => String::new(),
                    };
                    let planned_note = match &o.planned {
                        Some(p) => format!(
                            " | planned: policy={} arrays={} t={} model={:.4} layout={:016x}",
                            p.policy, p.arrays, p.transfer_time, p.t_ave_model, p.layout_digest
                        ),
                        None => String::new(),
                    };
                    let _ = writeln!(
                        s,
                        "{:<10} k={} {:<5} | t_min={} t_ave={:.4} t_rand={} t_inter={} t_max={} \
                         | single={} multi={} extra={} residual={} \
                         | values={} swords={} words={} cycles={} steps={} out={} hash={:016x}{}{}",
                        r.spec.program,
                        r.spec.session.k,
                        r.spec.session.strategy.name(),
                        o.table2.t_min,
                        o.table2.t_ave_analytic,
                        o.table2.t_ave_measured,
                        o.table2.t_interleaved,
                        o.table2.t_max,
                        o.assign_report.single_copy,
                        o.assign_report.multi_copy,
                        o.assign_report.extra_copies,
                        o.assign_report.residual_conflicts,
                        o.values,
                        o.static_words,
                        o.words,
                        o.cycles,
                        o.reference_steps,
                        o.output_len,
                        o.output_hash,
                        gap_note,
                        planned_note,
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        s,
                        "{:<10} k={} {:<5} | {}",
                        r.spec.program,
                        r.spec.session.k,
                        r.spec.session.strategy.name(),
                        e
                    );
                }
            }
        }
        s
    }
}

fn job_label(r: &JobResult) -> String {
    format!(
        "{} k={} {}",
        r.spec.program,
        r.spec.session.k,
        r.spec.session.strategy.name()
    )
}

/// Render one job result as the canonical per-job JSON object (the
/// `jobs[]` element of `parmem-batch/v1`). Public so the serve daemon's
/// `/v1/compile` responses carry byte-identical job reports to the CLI's.
pub fn job_json(r: &JobResult, include_timings: bool) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"program\":\"{}\",\"k\":{},\"strategy\":\"{}\",\"seed\":{},\"status\":\"{}\"",
        json::escape(&r.spec.program),
        r.spec.session.k,
        r.spec.session.strategy.name(),
        r.spec.session.seed,
        r.status()
    );
    match &r.outcome {
        Ok(o) => {
            let _ = write!(
                s,
                ",\"t_min\":{},\"t_ave_analytic\":{:.4},\"t_ave_measured\":{},\
                 \"t_interleaved\":{},\"t_max\":{},\
                 \"single_copy\":{},\"multi_copy\":{},\"extra_copies\":{},\
                 \"residual_conflicts\":{},\"values\":{},\"static_words\":{},\
                 \"words\":{},\"cycles\":{},\"reference_steps\":{},\"speedup\":{:.4},\
                 \"output_len\":{},\"output_hash\":\"{:016x}\",\"verify_checks\":{}",
                o.table2.t_min,
                o.table2.t_ave_analytic,
                o.table2.t_ave_measured,
                o.table2.t_interleaved,
                o.table2.t_max,
                o.assign_report.single_copy,
                o.assign_report.multi_copy,
                o.assign_report.extra_copies,
                o.assign_report.residual_conflicts,
                o.values,
                o.static_words,
                o.words,
                o.cycles,
                o.reference_steps,
                o.speedup,
                o.output_len,
                o.output_hash,
                o.verify.checks_run.len(),
            );
            if let Some(g) = &o.gap {
                let _ = write!(
                    s,
                    ",\"gap\":{{\"heuristic_residual\":{},\"lower\":{},\"upper\":{},\
                     \"gap\":{},\"status\":\"{}\",\"copies_upper\":{},\
                     \"nodes_expanded\":{},\"cert_clean\":{}}}",
                    g.heuristic_residual,
                    g.certificate.lower,
                    g.certificate.upper,
                    g.gap(),
                    g.certificate.status.as_str(),
                    g.certificate.copies_upper,
                    g.certificate.nodes_expanded,
                    g.report.is_clean()
                );
            }
            if let Some(p) = &o.planned {
                let _ = write!(
                    s,
                    ",\"planned\":{{\"policy\":\"{}\",\"layout_digest\":\"{:016x}\",\
                     \"transfer_time\":{},\"t_ave_model\":{:.4},\"arrays\":{}}}",
                    p.policy, p.layout_digest, p.transfer_time, p.t_ave_model, p.arrays
                );
            }
        }
        Err(e) => {
            let _ = write!(s, ",\"error\":\"{}\"", json::escape(&e.to_string()));
            if let JobError::Verify { report } = e {
                let _ = write!(s, ",\"verify\":{}", report.to_json());
            }
        }
    }
    if include_timings {
        s.push_str(",\"metrics\":{");
        for (i, (k, m)) in r.metrics.stages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"wall_ns\":{},\"alloc_bytes\":{},\"allocs\":{},\"peak_bytes\":{},\"spans\":{}}}",
                k.as_str(),
                m.wall_ns,
                m.alloc_bytes,
                m.allocs,
                m.peak_bytes,
                m.spans
            );
        }
        let t = r.metrics.total();
        if !r.metrics.stages.is_empty() {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"total\":{{\"wall_ns\":{},\"alloc_bytes\":{},\"allocs\":{},\"peak_bytes\":{},\"spans\":{}}}",
            t.wall_ns, t.alloc_bytes, t.allocs, t.peak_bytes, t.spans
        );
        s.push('}');
    }
    s.push('}');
    s
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmem_driver::{run_job, Session};

    fn tiny_report() -> BatchReport {
        let session = Session::new(4);
        let specs = [
            session.job(
                "A",
                "program a; var i, s: int; begin s := 0; for i := 1 to 5 do s := s + i; print s; end.",
            ),
            session.job("B", "program broken("),
        ];
        BatchReport {
            results: specs.iter().map(run_job).collect(),
            wall_ns: 123,
            workers: 1,
        }
    }

    #[test]
    fn json_marks_statuses_and_hides_timings_by_default() {
        let r = tiny_report();
        let j = r.to_json(false);
        assert!(j.contains("\"status\":\"ok\""));
        assert!(j.contains("\"status\":\"compile-error\""));
        assert!(!j.contains("wall_ns"), "{j}");
        let jt = r.to_json(true);
        assert!(jt.contains("wall_ns") && jt.contains("\"metrics\""));
    }

    #[test]
    fn csv_has_one_row_per_job_plus_header() {
        let r = tiny_report();
        let csv = r.to_csv(false);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .starts_with("program,k,strategy"));
        let timed = r.to_csv(true);
        assert!(timed.lines().next().unwrap().contains("frontend_ns"));
    }

    #[test]
    fn text_report_summarizes_counts() {
        let r = tiny_report();
        let t = r.format_text();
        assert!(t.contains("2 job(s): 1 ok, 1 failed, 0 skipped"), "{t}");
    }

    #[test]
    fn golden_lines_are_stable_across_renders() {
        let r = tiny_report();
        assert_eq!(r.golden_lines(), r.golden_lines());
        assert!(r.golden_lines().contains("hash="));
    }

    #[test]
    fn planned_placement_only_renders_when_requested() {
        // Default jobs must not mention the planned layout at all — the
        // scalar-only goldens pin this.
        let base = tiny_report();
        assert!(!base.to_json(false).contains("\"planned\""));
        assert!(!base.golden_lines().contains("planned"));

        let src = "program arr; var a: array[12] of int; i, s: int;
            begin
              s := 0;
              for i := 0 to 11 do a[i] := i * 2;
              for i := 0 to 11 do s := s + a[i];
              print s;
            end.";
        let spec = Session::new(4)
            .with_array_policy(parmem_core::layout::ArrayPolicy::Hash)
            .job("ARR", src);
        let r = BatchReport {
            results: vec![run_job(&spec)],
            wall_ns: 1,
            workers: 1,
        };
        assert!(r.is_clean(), "{}", r.format_text());
        let j = r.to_json(false);
        assert!(j.contains("\"planned\":{\"policy\":\"hash\""), "{j}");
        assert!(r.golden_lines().contains("planned: policy=hash arrays="));
        assert!(r.format_text().contains("planned=hash:"));
    }
}
