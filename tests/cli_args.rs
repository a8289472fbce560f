//! Argument-contract audit for every `parmem` subcommand: unknown options
//! must exit with status 2 and an error listing the accepted flags, so no
//! subcommand silently swallows a typo'd or out-of-place option.

use std::process::Command;

/// All subcommands the CLI dispatches (kept in sync with `arg_spec` in
/// `src/bin/parmem.rs` — a new subcommand that misses this list fails the
/// completeness test below).
const SUBCOMMANDS: &[&str] = &[
    "assign", "compile", "run", "verify", "batch", "trace", "exact", "lint", "synth", "serve",
];

/// Subcommands that accept `--flight-dump PATH` (everything long-running;
/// `run` is a bare interpreter loop).
const FLIGHT_DUMP_CMDS: &[&str] = &[
    "assign", "compile", "verify", "batch", "trace", "exact", "lint", "synth", "serve",
];

/// Subcommands that accept `--metrics-addr ADDR` (the multi-job /
/// scale-workload commands).
const METRICS_ADDR_CMDS: &[&str] = &["batch", "exact", "lint", "synth"];

fn parmem(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_parmem"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn parmem")
}

#[test]
fn every_subcommand_rejects_unknown_options_with_exit_2() {
    for cmd in SUBCOMMANDS {
        let out = parmem(&[cmd, "--definitely-not-a-flag"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`parmem {cmd}` accepted a bogus flag (stderr: {stderr})"
        );
        assert!(
            stderr.contains("unknown option `--definitely-not-a-flag`"),
            "`parmem {cmd}` stderr does not name the bad option: {stderr}"
        );
        assert!(
            stderr.contains("accepted:"),
            "`parmem {cmd}` stderr does not list accepted options: {stderr}"
        );
    }
}

#[test]
fn double_dash_k_only_works_where_k_is_declared() {
    // `run` takes no module count: `--k` must be rejected like any other
    // unknown option, not silently swallowed with its value.
    let out = parmem(&["run", "--k", "4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown option `--k`"), "{stderr}");

    // `lint` declares `-k`, so the `--k` spelling parses there.
    let out = parmem(&["lint", "FFT", "--k", "4"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    // `serve --metrics-only` replaces `serve-metrics`. The bad value makes
    // a dispatched `serve-metrics` exit 1 before binding, never block.
    for unknown in ["frobnicate", "serve-metrics"] {
        let out = parmem(&[unknown, "--max-requests", "many"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`parmem {unknown}`: {stderr}");
        assert!(stderr.contains("usage: parmem"), "{stderr}");
        // The usage line advertises every dispatchable subcommand.
        for cmd in SUBCOMMANDS {
            assert!(stderr.contains(cmd), "usage line misses `{cmd}`: {stderr}");
        }
    }
}

#[test]
fn missing_option_values_exit_2() {
    let out = parmem(&["lint", "--seed"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("requires a value"), "{stderr}");
}

/// Audit the telemetry flags across *every* subcommand: the commands in the
/// accept-lists must parse the option (probed with a missing value — exit 2
/// with "requires a value", so no server binds and no file is written), and
/// every other command must reject it as unknown.
#[test]
fn telemetry_options_accepted_exactly_where_declared() {
    for (opt, accepts) in [
        ("--flight-dump", FLIGHT_DUMP_CMDS),
        ("--metrics-addr", METRICS_ADDR_CMDS),
    ] {
        for cmd in SUBCOMMANDS {
            let out = parmem(&[cmd, opt]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "`parmem {cmd} {opt}` (no value) should exit 2: {stderr}"
            );
            if accepts.contains(cmd) {
                assert!(
                    stderr.contains("requires a value"),
                    "`parmem {cmd}` should accept {opt}: {stderr}"
                );
            } else {
                assert!(
                    stderr.contains(&format!("unknown option `{opt}`")),
                    "`parmem {cmd}` should reject {opt}: {stderr}"
                );
            }
        }
    }
}

/// Audit the daemon's own flags: every value-taking option parses exactly
/// on `serve` (probed with a missing value so nothing binds), the
/// `--metrics-only` flag takes none, and malformed values fail before any
/// socket is bound.
#[test]
fn serve_flag_contract() {
    for opt in [
        "--addr",
        "--jobs",
        "--cache-bytes",
        "--queue-depth",
        "--max-requests",
    ] {
        let out = parmem(&["serve", opt]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`parmem serve {opt}` (no value) should exit 2: {stderr}"
        );
        assert!(
            stderr.contains("requires a value"),
            "`parmem serve` should accept {opt}: {stderr}"
        );
    }

    // `--metrics-only` is a bare flag; a bogus companion is still unknown.
    let out = parmem(&["serve", "--metrics-only", "--metrics-addr", "x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown option `--metrics-addr`"),
        "`serve` must take --addr, not the legacy --metrics-addr: {stderr}"
    );

    // Malformed values exit 1 (parse error) before any socket is bound.
    for bad in [
        ["serve", "--jobs", "many"],
        ["serve", "--cache-bytes", "tiny"],
        ["serve", "--queue-depth", "-1"],
        ["serve", "--max-requests", "two"],
    ] {
        let out = parmem(&bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
    }
}

/// Scale specs the generators cannot honor are refused with exit 1 and a
/// message, never a panic: zero components, `k` outside 1..=64 (with and
/// without `--assign`), and more values than value ids.
#[test]
fn synth_rejects_invalid_scale_specs_with_exit_1() {
    for (args, message) in [
        (&["--components", "0"][..], "components must be at least 1"),
        (&["-k", "0"][..], "outside 1..=64"),
        (&["-k", "0", "--assign"][..], "outside 1..=64"),
        (&["-k", "65", "--assign"][..], "outside 1..=64"),
        (
            &["-n", "5000000000", "--components", "1"][..],
            "exceeds the value-id range",
        ),
        (&["-n", "3", "--components", "2"][..], "too small"),
    ] {
        let out = parmem(&[&["synth"][..], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "synth {args:?}: {stderr}");
        assert!(stderr.contains(message), "synth {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "synth {args:?}: {stderr}");
    }
}

/// Oversized scale specs end in exit 1 or a bounded report, never an
/// allocation abort or a panic: planted cliques spanning more pairs than a
/// graph can hold are refused (each clique counting as at least one pair),
/// an edge target past the pairs the components hold is clamped to them,
/// and a clique size past its component is clamped to the component.
#[test]
fn synth_bounds_oversized_specs() {
    // (extra args, exit code, text expected on stdout for 0 / stderr for 1)
    for (args, code, expect) in [
        (
            &["--cliques", "100000000", "--clique-size", "100000000"][..],
            1,
            "planted cliques of size 100000000 need",
        ),
        (
            &["--cliques", "1000000000000", "--clique-size", "1"][..],
            1,
            "planted cliques of size 1 need",
        ),
        (
            &["--edges", "1000000000000000"][..],
            0,
            "synth: 100 values, 1148 edges (266 forced)",
        ),
        (
            &["--cliques", "3", "--clique-size", "4000000000", "--assign"][..],
            0,
            "synth: 100 values, 924 edges (924 forced)",
        ),
        (
            &[
                "-n",
                "1000000",
                "--components",
                "1",
                "--edges",
                "1000000000000000",
            ][..],
            1,
            "exceeds the edge range",
        ),
    ] {
        let out = parmem(&[&["synth", "-n", "100", "-k", "4"][..], args].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "synth {args:?}: {stderr}");
        let shown = if code == 0 { &stdout } else { &stderr };
        assert!(shown.contains(expect), "synth {args:?}: {shown}");
        assert!(!stderr.contains("panicked"), "synth {args:?}: {stderr}");
    }
}

/// Module counts outside 1..=64 and unroll factors above 64 are refused
/// with exit 1 and a message before any job runs: never a panic inside a
/// job, a run on a 0-module machine, or an unbounded unroll.
#[test]
fn out_of_range_module_counts_and_unroll_exit_1() {
    for cmd in ["batch", "trace", "lint", "exact"] {
        for (args, message) in [
            (&["-k", "0"][..], "k = 0 is outside 1..=64"),
            (&["-k", "65"][..], "k = 65 is outside 1..=64"),
            (
                &["-k", "2", "--unroll", "65"][..],
                "--unroll 65 is above the cap of 64",
            ),
        ] {
            let out = parmem(&[&[cmd, "FFT"][..], args].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {args:?}: {stderr}");
            assert!(stderr.contains(message), "{cmd} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd} {args:?}: {stderr}");
        }
    }
    // A bad entry anywhere in a list refuses the whole list.
    let out = parmem(&["batch", "FFT", "-k", "2,65"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("k = 65 is outside 1..=64"), "{stderr}");
}

/// `verify` resolves its target as the other subcommands do: a bundled
/// workload name first, a readable file second, and anything else is exit 1
/// with a message naming the target.
#[test]
fn verify_takes_workload_names_and_names_missing_targets() {
    let out = parmem(&["verify", "FFT", "-k", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("checks clean"), "{stdout}");

    let out = parmem(&["verify", "nosuch.mini"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("`nosuch.mini` is neither a workload nor a readable file"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
