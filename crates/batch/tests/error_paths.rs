//! Error-path tests: every way a job can die must surface as a structured
//! per-job failure — never abort the batch, never poison a worker.
//!
//! Faults are injected with [`FaultInjection`] because the healthy pipeline
//! is hard to break from the outside: the simulator's value semantics are
//! independent of the assignment (a bad assignment only costs cycles), so
//! real divergence and verifier failures have to be manufactured.

use parmem_batch::{run_batch, BatchOptions, ErrorPolicy};
use parmem_driver::{FaultInjection, JobError, JobSpec, Session};
use parmem_exact::ExactConfig;
use parmem_obs::StageKind;

const GOOD: &str = "program good; var i, s: int;
                    begin s := 1; for i := 1 to 9 do s := s + i * s; print s; end.";

fn good(n: usize) -> JobSpec {
    Session::new(4).job(format!("GOOD{n}"), GOOD)
}

#[test]
fn panicking_job_is_isolated_from_the_batch() {
    for stage in StageKind::ALL {
        // The exact-gap stage only exists on jobs that request it.
        let mut faulty = good(1).with_fault(FaultInjection::PanicInStage(stage));
        if stage == StageKind::ExactGap {
            faulty.session.exact_gap = Some(ExactConfig::default());
        }
        let specs = vec![good(0), faulty, good(2)];
        let report = run_batch(
            specs,
            &BatchOptions {
                jobs: 2,
                ..Default::default()
            },
        );
        assert_eq!(report.ok_count(), 2, "stage {stage:?}");
        assert_eq!(report.failed_count(), 1, "stage {stage:?}");
        match &report.results[1].outcome {
            Err(JobError::Panic(msg)) => {
                assert!(
                    msg.contains(stage.as_str()),
                    "panic message should name the stage: {msg}"
                )
            }
            other => panic!("stage {stage:?}: expected Panic, got {other:?}"),
        }
        // The healthy neighbours are untouched.
        assert!(report.results[0].outcome.is_ok());
        assert!(report.results[2].outcome.is_ok());
    }
}

#[test]
fn verify_failure_carries_the_diagnostic_report() {
    let specs = vec![
        good(0),
        good(1).with_fault(FaultInjection::CorruptAssignment),
    ];
    let report = run_batch(specs, &BatchOptions::default());
    assert_eq!(report.ok_count(), 1);
    match &report.results[1].outcome {
        Err(JobError::Verify { report: vreport }) => {
            assert!(!vreport.is_clean());
            assert!(
                vreport
                    .diagnostics
                    .iter()
                    .any(|d| d.code.as_str().starts_with("PM")),
                "diagnostics must carry PMxxx codes: {vreport}"
            );
        }
        other => panic!("expected Verify, got {other:?}"),
    }
    assert_eq!(report.results[1].status(), "verify-error");
    // The batch-level verifier summary aggregates the violation.
    let summary = report.verify_summary();
    assert!(!summary.is_clean());
    assert_eq!(summary.clean, 1);
    assert_eq!(summary.dirty.len(), 1);
    assert!(summary.dirty[0].0.contains("GOOD1"));
}

#[test]
fn interpreter_divergence_is_a_structured_failure() {
    let specs = vec![good(0).with_fault(FaultInjection::CorruptOutput), good(1)];
    let report = run_batch(specs, &BatchOptions::default());
    assert_eq!(report.ok_count(), 1);
    match &report.results[0].outcome {
        Err(JobError::Divergence {
            expected,
            actual,
            first_mismatch,
        }) => {
            // The fault overwrites the first value in place: lengths agree,
            // and the mismatch is located at index 0.
            assert_eq!(expected, actual);
            assert_eq!(*first_mismatch, Some(0));
        }
        other => panic!("expected Divergence, got {other:?}"),
    }
    assert_eq!(report.results[0].status(), "divergence");
}

#[test]
fn compile_error_fails_only_its_own_job() {
    let specs = vec![
        Session::new(4).job("BAD", "program bad; begin crash syntax"),
        good(1),
    ];
    let report = run_batch(specs, &BatchOptions::default());
    assert!(matches!(
        report.results[0].outcome,
        Err(JobError::Compile(_))
    ));
    assert!(report.results[1].outcome.is_ok());
}

#[test]
fn fail_fast_skips_jobs_after_the_first_failure() {
    // One worker makes the schedule deterministic: the poisoned first job
    // fails before anything else starts.
    let specs = vec![
        good(0).with_fault(FaultInjection::PanicInStage(StageKind::Frontend)),
        good(1),
        good(2),
    ];
    let report = run_batch(
        specs,
        &BatchOptions {
            jobs: 1,
            policy: ErrorPolicy::FailFast,
        },
    );
    assert_eq!(report.failed_count(), 1);
    assert_eq!(report.skipped_count(), 2);
    assert!(matches!(report.results[1].outcome, Err(JobError::Skipped)));
    assert_eq!(report.results[2].status(), "skipped");
}

#[test]
fn collect_all_runs_everything_despite_failures() {
    let specs = vec![
        good(0).with_fault(FaultInjection::PanicInStage(StageKind::Assign)),
        good(1).with_fault(FaultInjection::CorruptAssignment),
        good(2).with_fault(FaultInjection::CorruptOutput),
        good(3),
    ];
    let report = run_batch(
        specs,
        &BatchOptions {
            jobs: 2,
            ..Default::default()
        },
    );
    assert_eq!(report.skipped_count(), 0);
    assert_eq!(report.failed_count(), 3);
    assert_eq!(report.ok_count(), 1);
    let kinds: Vec<&str> = report.results.iter().map(|r| r.status()).collect();
    assert_eq!(kinds, ["panic", "verify-error", "divergence", "ok"]);
    // Structured failures survive every rendering path.
    let json = report.to_json(false);
    for k in ["panic", "verify-error", "divergence"] {
        assert!(json.contains(k), "JSON report must mention {k}");
    }
    assert!(report.to_csv(false).lines().count() == 5);
}
