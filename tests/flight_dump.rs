//! Flight-recorder crash artifacts, end to end: an injected panic in a
//! batch pipeline stage must leave a valid, deterministic flight dump even
//! though the batch engine catches the panic and degrades it into a
//! structured `JobError::Panic` result.
//!
//! The panic hook fires at panic time — before `run_job`'s `catch_unwind`
//! swallows the unwind — so the dump must exist regardless of the catch.
//! Because the flight recorder installs process-wide (`OnceLock` ring +
//! chained panic hook), each scenario runs in a fresh child process: the
//! test re-execs its own binary with `--exact <child test>` and an env var
//! that arms the child body.

use std::path::PathBuf;
use std::process::Command;

use parallel_memories::batch::{run_batch, BatchOptions};
use parallel_memories::driver::{FaultInjection, Session};
use parallel_memories::obs;

const SRC: &str = "program boom; var i, s: int;
    begin s := 0; for i := 1 to 9 do s := s + i * i; print s; end.";

/// Child body: arm the flight recorder in deterministic mode, then run a
/// one-job batch whose Assign stage panics. Skipped (trivially passes)
/// unless the driver test set `FLIGHT_CHILD_DUMP`.
#[test]
fn child_panicking_batch_job() {
    let Some(dump) = std::env::var_os("FLIGHT_CHILD_DUMP") else {
        return;
    };
    obs::set_enabled(true);
    obs::flight::install(64, Some(PathBuf::from(dump)), true);
    let spec = Session::new(4)
        .job("BOOM", SRC)
        .with_fault(FaultInjection::PanicInStage(obs::StageKind::Assign));
    let report = run_batch(
        vec![spec],
        &BatchOptions {
            jobs: 1,
            ..Default::default()
        },
    );
    // The engine isolated the panic into a structured failure — and the
    // panic hook must still have written the dump on the way through.
    assert!(report.results[0].outcome.is_err(), "panic was not isolated");
}

fn run_child(dump: &std::path::Path) -> std::process::Output {
    Command::new(std::env::current_exe().expect("current_exe"))
        .args(["--test-threads=1", "--exact", "child_panicking_batch_job"])
        .env("FLIGHT_CHILD_DUMP", dump)
        .env("PARMEM_FLIGHT_DETERMINISTIC", "1")
        .output()
        .expect("spawn child test process")
}

#[test]
fn injected_panic_writes_a_valid_deterministic_flight_dump() {
    let dir = std::env::temp_dir().join(format!("parmem-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let dump_a = dir.join("dump-a.json");
    let dump_b = dir.join("dump-b.json");

    for (dump, label) in [(&dump_a, "a"), (&dump_b, "b")] {
        let out = run_child(dump);
        assert!(
            out.status.success(),
            "child {label} failed\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(dump.exists(), "child {label} left no dump at {dump:?}");
    }

    let text = std::fs::read_to_string(&dump_a).expect("read dump");
    let doc = obs::json::parse(&text).expect("flight dump is valid JSON");

    // Schema + panic provenance.
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("parmem-flight/v1")
    );
    assert_eq!(doc.get("reason").and_then(|v| v.as_str()), Some("panic"));
    let message = doc
        .get("panic")
        .and_then(|p| p.get("message"))
        .and_then(|v| v.as_str())
        .expect("panic message");
    assert!(
        message.contains("injected panic"),
        "unexpected panic message: {message}"
    );

    // The recent-event window is a loadable Chrome trace.
    obs::chrome::validate(&text).expect("flight dump passes chrome::validate");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents");
    assert!(!events.is_empty(), "flight ring captured no events");

    // Deterministic mode: two separate crashes produce byte-identical
    // artifacts (timestamps, durations, tids, and alloc gauges zeroed;
    // time-based heartbeats suppressed).
    let a = std::fs::read_to_string(&dump_a).expect("read a");
    let b = std::fs::read_to_string(&dump_b).expect("read b");
    assert_eq!(a, b, "deterministic flight dumps differ across runs");

    let _ = std::fs::remove_dir_all(&dir);
}
