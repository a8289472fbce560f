//! Byte-compare golden tests for the `parmem` CLI.
//!
//! Each case runs the real binary (via `CARGO_BIN_EXE_parmem`) on a
//! deterministic input and compares stdout byte-for-byte against a
//! committed snapshot in `tests/golden/cli/`. Together with the library
//! golden tests this pins the CLI's observable behavior across the
//! `parmem-driver` session layer and the CSR conflict-graph core: any
//! change to parsing, staging, assignment, or report rendering shows up as
//! a diff here.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test cli_golden
//! ```
//!
//! then review the diffs like any other code change.

use std::path::PathBuf;
use std::process::Command;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Run the CLI with `args`, requiring success, and return stdout verbatim.
fn parmem_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_parmem"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn parmem");
    assert!(
        out.status.success(),
        "parmem {args:?} failed with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn check_golden(name: &str, actual: &str) {
    let path = repo_path(&format!("tests/golden/cli/{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("golden: rewrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test cli_golden`",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "`parmem` output diverged from {} — diff the snapshot after\n\
         `UPDATE_GOLDEN=1 cargo test --test cli_golden` to inspect",
        path.display()
    );
}

#[test]
fn assign_output_is_stable() {
    let actual = parmem_stdout(&["assign", "tests/golden/fig1.trace"]);
    check_golden("assign_fig1", &actual);
}

#[test]
fn trace_output_is_stable() {
    // `--deterministic` omits wall times and thread ids; the span tree and
    // every attribute (word counts, graph sizes, conflicts) must be
    // byte-identical run to run.
    let actual = parmem_stdout(&["trace", "FFT", "-k", "4", "--deterministic"]);
    check_golden("trace_fft_k4", &actual);
}

#[test]
fn trace_metrics_output_is_conformant_prometheus() {
    // The Prometheus exposition for a deterministic FFT trace: pins the
    // conformance shape (one `# HELP` line before each `# TYPE`, sanitized
    // family names, counters before histograms) and the exact counter
    // values of the pipeline on this workload.
    let actual = parmem_stdout(&["trace", "FFT", "-k", "4", "--format", "metrics"]);
    check_golden("trace_fft_k4_metrics", &actual);

    // Belt and braces beyond the byte-compare: every TYPE is preceded by
    // its HELP, so a scraper never sees an unannotated family.
    let mut last_help: Option<String> = None;
    for line in actual.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            last_help = rest.split_whitespace().next().map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            assert_eq!(
                last_help.as_deref(),
                Some(name),
                "TYPE for {name} not preceded by its HELP"
            );
        }
    }
}

#[test]
fn trace_with_array_policy_is_stable() {
    // The planned-placement pipeline: the same deterministic span tree,
    // now with the layout plan/verify stages and the hash-distributed
    // array placement live. Pins the planned run's word counts and the
    // layout digest baked into the span attributes.
    let actual = parmem_stdout(&[
        "trace",
        "FFT",
        "-k",
        "4",
        "--array-policy",
        "hash",
        "--deterministic",
    ]);
    check_golden("trace_fft_k4_hash", &actual);
}

#[test]
fn exact_output_is_stable() {
    // The default budget is clock-free, so bounds, gaps, and node counts
    // are deterministic.
    let actual = parmem_stdout(&["exact", "FFT", "SORT", "-k", "2,4"]);
    check_golden("exact_fft_sort", &actual);
}

#[test]
fn lint_corpus_output_is_stable_across_jobs() {
    // The full extended corpus: every diagnostic the static analyses emit
    // today is pinned here, so a new PML finding (or a lost one) on any
    // workload shows up as golden drift.
    let actual = parmem_stdout(&["lint", "--all", "-k", "4"]);
    check_golden("lint_corpus", &actual);

    // The report must not depend on worker count.
    let serial = parmem_stdout(&["lint", "--all", "-k", "4", "--jobs", "1"]);
    let wide = parmem_stdout(&["lint", "--all", "-k", "4", "--jobs", "4"]);
    assert_eq!(serial, actual, "--jobs 1 must match the default report");
    assert_eq!(wide, actual, "--jobs 4 must match the default report");

    // Unrolled by 4 at k = 4 and 8: the subscript classes of the TACs the
    // planned-layout path profiles.
    let unrolled = ["lint", "--all", "-k", "4,8", "--unroll", "4"];
    let actual = parmem_stdout(&unrolled);
    check_golden("lint_corpus_unroll4", &actual);
    let serial = parmem_stdout(&[&unrolled[..], &["--jobs", "1"]].concat());
    let wide = parmem_stdout(&[&unrolled[..], &["--jobs", "8"]].concat());
    assert_eq!(serial, actual, "--jobs 1 must match the default report");
    assert_eq!(wide, actual, "--jobs 8 must match the default report");
}

#[test]
fn lint_predict_json_is_stable() {
    // Predicted-vs-measured JSON for FFT at two module counts: pins the
    // static conflict model's t_min / t_ave / t_max alongside the measured
    // counters (exact analyses + deterministic seed → byte-stable).
    let actual = parmem_stdout(&["lint", "FFT", "-k", "2,4", "--json", "--predict"]);
    check_golden("lint_fft_predict_json", &actual);
}

#[test]
fn lint_json_escapes_control_characters() {
    // The parse error echoes the offending 0x01 byte back; the JSON report
    // must carry it escaped.
    let path = std::env::temp_dir().join(format!("parmem-lint-ctl-{}.mini", std::process::id()));
    std::fs::write(&path, "program t;\u{1} begin end.").expect("write temp source");
    let out = Command::new(env!("CARGO_BIN_EXE_parmem"))
        .args(["lint", "--json"])
        .arg(&path)
        .output()
        .expect("spawn parmem");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let report = stdout.trim_end();
    assert!(
        !report.bytes().any(|b| b < 0x20),
        "raw control byte in {report:?}"
    );
    let doc = parallel_memories::obs::json::parse(report).expect("lint JSON parses");
    let error = doc
        .get("jobs")
        .and_then(|jobs| jobs.as_arr()?.first()?.get("error")?.as_str())
        .expect("the job reports its parse error");
    assert!(error.contains("`\u{1}`"), "{error:?}");
}

#[test]
fn synth_output_is_stable_across_jobs() {
    // The generator, the CSR build (sequential here), the round-trip check
    // and the assignment report are all seeded and deterministic — including
    // the graph digest, which pins the exact bytes of the CSR arrays.
    let args = [
        "synth",
        "-n",
        "600",
        "--edges",
        "2400",
        "--components",
        "3",
        "--cliques",
        "3",
        "--clique-size",
        "9",
        "-k",
        "8",
        "--seed",
        "42",
        "--check",
        "--assign",
    ];
    let actual = parmem_stdout(&args);
    check_golden("synth_n600", &actual);

    // The report must not depend on worker count.
    let mut wide_args: Vec<&str> = args.to_vec();
    wide_args.extend(["--jobs", "8"]);
    let mut serial_args: Vec<&str> = args.to_vec();
    serial_args.extend(["--jobs", "1"]);
    let wide = parmem_stdout(&wide_args);
    let serial = parmem_stdout(&serial_args);
    assert_eq!(serial, actual, "--jobs 1 must match the default report");
    assert_eq!(wide, actual, "--jobs 8 must match the default report");
}

#[test]
fn serve_shape_synth_is_stable_across_jobs() {
    // The shape of a `parmem serve` synth request: four 500-vertex
    // components, each above the 256-vertex bound of the atom
    // decomposition, so this report pins the whole-component coloring a
    // serve synth request runs.
    let args = [
        "synth",
        "-n",
        "2000",
        "--edges",
        "8000",
        "--components",
        "4",
        "--cliques",
        "4",
        "--clique-size",
        "10",
        "-k",
        "4",
        "--seed",
        "7",
        "--check",
        "--assign",
    ];
    for jobs in ["1", "8"] {
        let mut with_jobs: Vec<&str> = args.to_vec();
        with_jobs.extend(["--jobs", jobs]);
        check_golden("synth_2000_seed7", &parmem_stdout(&with_jobs));
    }
}

#[test]
fn batch_output_is_stable_across_jobs() {
    let args = ["batch", "FFT", "SORT", "-k", "2,4"];
    let actual = parmem_stdout(&args);
    check_golden("batch_fft_sort", &actual);

    // The report must not depend on worker count.
    let serial = parmem_stdout(&["batch", "FFT", "SORT", "-k", "2,4", "--jobs", "1"]);
    let wide = parmem_stdout(&["batch", "FFT", "SORT", "-k", "2,4", "--jobs", "4"]);
    assert_eq!(serial, actual, "--jobs 1 must match the default report");
    assert_eq!(wide, actual, "--jobs 4 must match the default report");
}

#[test]
fn batch_with_array_policy_is_stable_across_jobs() {
    // Planned placement rides the batch report: the per-job `planned=`
    // columns (policy, array count, measured transfer time) are pinned
    // here, and — the acceptance criterion — the planned transfer counts
    // are byte-identical whether one worker ran or eight.
    let args = [
        "batch",
        "FFT",
        "SORT",
        "-k",
        "2,4",
        "--array-policy",
        "hash",
    ];
    let actual = parmem_stdout(&args);
    check_golden("batch_fft_sort_hash", &actual);

    let serial = parmem_stdout(&[
        "batch",
        "FFT",
        "SORT",
        "-k",
        "2,4",
        "--array-policy",
        "hash",
        "--jobs",
        "1",
    ]);
    let wide = parmem_stdout(&[
        "batch",
        "FFT",
        "SORT",
        "-k",
        "2,4",
        "--array-policy",
        "hash",
        "--jobs",
        "8",
    ]);
    assert_eq!(serial, actual, "--jobs 1 must match the default report");
    assert_eq!(wide, actual, "--jobs 8 must match the default report");
}

/// Σ `cycles` and Σ `extra_copies` over the jobs of a `batch --json` report.
fn batch_totals(report: &str) -> (u64, u64) {
    let doc = parallel_memories::obs::json::parse(report.trim_end()).expect("batch JSON parses");
    let jobs = doc
        .get("jobs")
        .and_then(|j| j.as_arr())
        .expect("report lists jobs");
    let sum = |field: &str| -> u64 {
        jobs.iter()
            .map(|job| {
                job.get(field)
                    .and_then(|v| v.as_num())
                    .unwrap_or_else(|| panic!("job without `{field}`")) as u64
            })
            .sum()
    };
    (sum("cycles"), sum("extra_copies"))
}

/// Byte-compare `parmem <args> --jobs 1` and `--jobs 8` against one golden
/// and return the report.
fn check_batch_golden_across_jobs(name: &str, args: &[&str]) -> String {
    let mut report = String::new();
    for jobs in ["1", "8"] {
        report = parmem_stdout(&[args, &["--jobs", jobs]].concat());
        check_golden(name, &report);
    }
    report
}

#[test]
fn corpus_batch_json_is_stable_across_jobs() {
    // The e2e `corpus` configuration: the 11 bundled programs at k 2, 4
    // and 8. Its Σ cycles and Σ extra copies are that workload's exact
    // metrics.
    let report = check_batch_golden_across_jobs(
        "batch_corpus_json",
        &["batch", "--all", "-k", "2,4,8", "--json"],
    );
    assert_eq!(batch_totals(&report), (260_574, 5));
}

#[test]
fn corpus_planned_batch_json_is_stable_across_jobs() {
    // The e2e `corpus-planned` configuration: STOR3 over the unroll-4
    // programs with compile-time array placement.
    let report = check_batch_golden_across_jobs(
        "batch_corpus_planned_json",
        &[
            "batch",
            "--all",
            "-k",
            "4,8",
            "--stor",
            "3",
            "--unroll",
            "4",
            "--array-policy",
            "auto",
            "--json",
        ],
    );
    assert_eq!(batch_totals(&report), (117_292, 30));
}
