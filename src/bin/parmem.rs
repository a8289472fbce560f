//! `parmem` — command-line front end to the whole reproduction.
//!
//! ```text
//! parmem assign <trace-file> [--backtrack] [--no-atoms]
//!               [--array-policy interleaved|hash|block|auto]
//!     Assign memory modules for a text access trace (see
//!     `parmem_core::trace_io` for the format) and print the module map.
//!     With `--array-policy`, the assignment is additionally wrapped in a
//!     unified `MemoryLayout` plan, verified (PM301–PM303), and its
//!     digest printed (traces carry no arrays, so the plan covers the
//!     scalar assignment alone).
//!
//! parmem compile <minilang-file> [-k <modules>] [--unroll <factor>]
//!                [--no-opt] [--stor 1|2|3]
//!     Compile a MiniLang program, assign modules, simulate on the RLIW,
//!     and report cycles / conflicts / speed-up.
//!
//! parmem run <minilang-file>
//!     Interpret a MiniLang program directly and print its output.
//!
//! parmem verify <file> [-k <modules>] [--json] [--backtrack] [--no-atoms]
//!                [--stor 1|2|3|exact] [--exact]
//!     Statically re-derive and check every pipeline invariant. The file is
//!     either a MiniLang program (full pipeline, all checks including the
//!     renaming proof and the static-vs-simulated differential) or a text
//!     access trace (assignment checks only). Violations are printed as
//!     stable `PMxxx` diagnostics; exit status is nonzero unless clean.
//!     With `--exact`, the target (a workload name or MiniLang file) is
//!     compiled, the exact solver produces an optimality certificate, and
//!     the certificate is independently re-validated (PM201–PM206).
//!
//! parmem exact [workload ...] [--all] [-k 2,4] [--budget-nodes N]
//!              [--budget-ms N] [--no-portfolio] [--seed S] [--jobs N]
//!              [--format text|json] [--out <file>] [--unroll <factor>]
//!              [--no-opt]
//!     Run the exact branch-and-bound assignment solver on each
//!     (workload, k) job, report certified bounds [lower, upper] on the
//!     minimum residual-conflict count, the paper heuristic's residual, and
//!     the optimality gap, and re-validate every certificate with
//!     `parmem verify`'s PM2xx checks. Output is byte-identical across
//!     `--jobs` settings (the default budget is clock-free).
//!
//! parmem batch [workload ...] [--all] [-k 2,4,8] [--stor 1|2|3|exact|all]
//!              [--jobs N] [--json|--csv] [--timings] [--out <file>]
//!              [--fail-fast] [--seed S] [--unroll <factor>] [--no-opt]
//!              [--array-policy interleaved|hash|block|auto]
//!     Run the full compile→assign→verify→simulate pipeline over every
//!     (workload, k, strategy) job on a work-stealing thread pool and print
//!     a deterministic report (text, JSON, or CSV). Without workload names,
//!     runs the paper's six benchmarks; `--all` adds the extended kernels.
//!     Stdout is byte-identical across `--jobs` settings; wall-time and
//!     allocation metrics appear only with `--timings` (stdout) or in the
//!     `--out` JSON file, and the batch wall time goes to stderr.
//!
//! parmem lint [workload-or-file ...] [--all] [-k 2,4] [--json] [--predict]
//!             [--deny] [--jobs N] [--out <file>] [--seed S]
//!             [--unroll <factor>] [--no-opt]
//!             [--array-policy interleaved|hash|block|auto]
//!     Run the static analyses (fixpoint liveness / reaching definitions /
//!     definite-init / constant & stride propagation) over each
//!     (program, k) job and print the `PMLxxx` lint diagnostics. With
//!     `--predict`, additionally compute the compile-time conflict
//!     estimates t_min / t_ave / t_max per program (the paper's Table 2
//!     quantities, derived without executing anything) and cross-check
//!     them against the simulator's measured per-module transfer counters.
//!     Without names, lints the paper's six benchmarks; `--all` adds the
//!     extended kernels; a positional that is not a workload name is read
//!     as a MiniLang file. Exit status is nonzero if any pipeline stage
//!     fails or a prediction falls outside the documented tolerance;
//!     `--deny` additionally fails on any lint diagnostic. Stdout is
//!     byte-identical across `--jobs` settings.
//!
//! parmem synth [-n <values>] [--edges <E>] [--cliques <C>]
//!              [--clique-size <S>] [--components <P>] [-k <modules>]
//!              [--seed S] [--jobs N] [--check] [--assign] [--out <file>]
//!     Generate a seeded synthetic scale workload (per-component spanning
//!     trees + planted cliques + random intra-component edges), build its
//!     conflict graph from the sorted edge list, and print deterministic
//!     structure stats including the graph digest. `--check` rebuilds the
//!     graph from the emitted access trace and fails unless both builds are
//!     byte-identical; `--assign` runs the full assignment pipeline on the
//!     workload and reports the copy/conflict counts; `--out` writes the
//!     access trace in the text format `parmem assign` reads. Stdout is
//!     byte-identical across `--jobs` settings.
//!
//! parmem trace <workload-or-file> [-k <modules>] [--stor 1|2|3]
//!              [--format tree|json|chrome|metrics] [--out <file>]
//!              [--deterministic] [--validate] [--seed S]
//!              [--unroll <factor>] [--no-opt] [--backtrack] [--no-atoms]
//!              [--array-policy interleaved|hash|block|auto]
//!     Run one full pipeline job with span tracing enabled and export the
//!     profile: a human span tree (default), nested JSON, a Chrome
//!     trace-event file (load it in Perfetto or `chrome://tracing`), or a
//!     Prometheus-style metrics dump. `--deterministic` omits wall times
//!     and thread ids so the output is byte-identical across runs;
//!     `--validate` checks the Chrome trace for balanced begin/end nesting.
//!
//! parmem serve [--addr ADDR] [--jobs N] [--cache-bytes B]
//!              [--queue-depth D] [--max-requests N] [--metrics-only]
//!     Assignment-as-a-service daemon: binds ADDR (default 127.0.0.1:9185;
//!     port 0 picks a free port, printed to stderr) and serves
//!     `POST /v1/{assign,compile,exact,lint}` (JSON bodies naming a
//!     workload, inline MiniLang source, or — assign only — a seeded synth
//!     spec, plus the same knobs the CLI takes as flags), multiplexed onto
//!     a bounded pool of N pipeline workers. Responses are cached
//!     content-addressed (LRU under a byte budget B, e.g. `64M`; strong
//!     ETags, If-None-Match → 304); past D queued jobs the daemon answers
//!     `429 Retry-After` instead of queueing further. `GET /v1/stats`
//!     reports cache/queue/latency counters; `/metrics`, `/healthz`, and
//!     `/` serve the live-telemetry endpoint on the same listener
//!     (`--metrics-only` serves just those). SIGTERM or
//!     `POST /v1/shutdown` drains gracefully: stop admitting, finish
//!     in-flight work, exit. `--max-requests N` exits after N connections.
//!
//! Every subcommand also accepts:
//!   --profile             print a timed span tree + metrics dump to stderr
//!   --trace-out <file>    write a Chrome trace of the whole command
//!   --trace-summary <f>   write the deterministic span tree + metrics dump
//!                         (byte-identical across runs and `--jobs`)
//!
//! Live telemetry (long-running subcommands):
//!   --flight-dump <file>  arm the flight recorder: on panic or command
//!                         failure, write the last N events + live metric
//!                         snapshot as a Chrome-trace-compatible JSON
//!                         artifact (assign, compile, verify, batch, trace,
//!                         exact, lint, synth)
//!   --metrics-addr ADDR   serve live Prometheus text over HTTP for the
//!                         duration of the run (batch, exact, lint, synth);
//!                         set PARMEM_METRICS_LINGER_MS to hold the endpoint
//!                         open briefly after the work finishes
//!   PARMEM_HEARTBEAT=1    echo per-phase progress heartbeats (done/total,
//!                         elapsed, ETA) to stderr
//!
//! Unknown options are rejected with an error listing what the subcommand
//! accepts. All argument parsing goes through `parmem_driver::CommonArgs`,
//! and every pipeline-running subcommand drives the stages through
//! `parmem_driver::Session`.
//! ```

use std::process::ExitCode;

use parallel_memories::batch::{self, BatchOptions, ErrorPolicy};
use parallel_memories::core::prelude::*;
use parallel_memories::core::trace_io;
use parallel_memories::driver::{args, CommonArgs, Session, TelemetryConfig};
use parallel_memories::obs;
use parallel_memories::sim::ArrayPlacement;
use parallel_memories::verify;

// Per-stage allocation metrics are measured by the obs counting allocator;
// installing it here is what makes the `alloc_bytes`/`allocs` fields of
// `--timings` reports nonzero.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

type CliError = Box<dyn std::error::Error + Send + Sync>;

/// Per-subcommand argument contract: boolean flags and value-taking
/// options (the uniform profiling options are accepted implicitly).
fn arg_spec(cmd: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    match cmd {
        "assign" => Some((
            &["--backtrack", "--no-atoms"],
            &["--array-policy", "--flight-dump"],
        )),
        "compile" => Some((
            &["--no-opt"],
            &["-k", "--stor", "--unroll", "--flight-dump"],
        )),
        "run" => Some((&[], &[])),
        "verify" => Some((
            &[
                "--json",
                "--backtrack",
                "--no-atoms",
                "--exact",
                "--no-portfolio",
            ],
            &[
                "-k",
                "--stor",
                "--budget-nodes",
                "--budget-ms",
                "--seed",
                "--flight-dump",
            ],
        )),
        "exact" => Some((
            &["--all", "--no-portfolio", "--no-opt"],
            &[
                "-k",
                "--budget-nodes",
                "--budget-ms",
                "--seed",
                "--jobs",
                "--format",
                "--out",
                "--unroll",
                "--flight-dump",
                "--metrics-addr",
            ],
        )),
        "batch" => Some((
            &[
                "--all",
                "--json",
                "--csv",
                "--timings",
                "--fail-fast",
                "--no-opt",
                "--backtrack",
                "--no-atoms",
            ],
            &[
                "-k",
                "--stor",
                "--jobs",
                "--out",
                "--seed",
                "--unroll",
                "--array-policy",
                "--flight-dump",
                "--metrics-addr",
            ],
        )),
        "lint" => Some((
            &["--all", "--json", "--predict", "--deny", "--no-opt"],
            &[
                "-k",
                "--jobs",
                "--out",
                "--seed",
                "--unroll",
                "--array-policy",
                "--flight-dump",
                "--metrics-addr",
            ],
        )),
        "trace" => Some((
            &[
                "--deterministic",
                "--validate",
                "--no-opt",
                "--backtrack",
                "--no-atoms",
            ],
            &[
                "-k",
                "--stor",
                "--format",
                "--out",
                "--seed",
                "--unroll",
                "--array-policy",
                "--flight-dump",
            ],
        )),
        "synth" => Some((
            &["--check", "--assign", "--backtrack", "--no-atoms"],
            &[
                "-n",
                "--edges",
                "--cliques",
                "--clique-size",
                "--components",
                "-k",
                "--seed",
                "--jobs",
                "--out",
                "--flight-dump",
                "--metrics-addr",
            ],
        )),
        "serve" => Some((
            &["--metrics-only"],
            &[
                "--addr",
                "--jobs",
                "--cache-bytes",
                "--queue-depth",
                "--max-requests",
                "--flight-dump",
            ],
        )),
        _ => None,
    }
}

fn main() -> ExitCode {
    // Register the exact solver so `--stor exact` works in every
    // subcommand that dispatches through `run_strategy`.
    parallel_memories::exact::install();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cmd = raw.first().map(String::as_str).unwrap_or("");

    let Some((flags, value_opts)) = arg_spec(cmd) else {
        eprintln!(
            "usage: parmem <assign|compile|run|verify|batch|trace|exact|lint|synth|serve> [file|workloads] [options]"
        );
        eprintln!("       see crate docs for details");
        return ExitCode::from(2);
    };
    let a = match CommonArgs::parse(cmd, &raw[1..], flags, value_opts) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("parmem: {e}");
            return ExitCode::from(2);
        }
    };

    // `trace` manages the collector itself; every other subcommand gets the
    // uniform profiling flags handled here so the instrumentation in the
    // library crates lights up without per-command plumbing.
    let trace_out = a.value("--trace-out").map(str::to_string);
    let trace_summary = a.value("--trace-summary").map(str::to_string);
    let profiling = cmd != "trace" && profiling_requested(&a);
    if profiling {
        obs::set_enabled(true);
    }

    // Live telemetry: arm the flight recorder / `/metrics` endpoint before
    // dispatch so the hot paths stream into them. The serve daemon binds its
    // own endpoint and must not go through the guard twice — it still gets
    // the flight recorder.
    let telemetry_cfg = if cmd == "serve" {
        TelemetryConfig {
            flight_dump: a.value("--flight-dump").map(std::path::PathBuf::from),
            ..TelemetryConfig::default()
        }
    } else {
        TelemetryConfig::from_args(&a)
    };
    let telemetry = match telemetry_cfg.start() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("parmem: {e}");
            return ExitCode::FAILURE;
        }
    };

    let result = match cmd {
        "assign" => cmd_assign(&a),
        "compile" => cmd_compile(&a),
        "run" => cmd_run(&a),
        "verify" => cmd_verify(&a),
        "batch" => cmd_batch(&a),
        "trace" => cmd_trace(&a),
        "exact" => cmd_exact(&a),
        "lint" => cmd_lint(&a),
        "synth" => cmd_synth(&a),
        "serve" => cmd_serve(&a),
        _ => unreachable!("arg_spec gates the dispatch"),
    };

    let result = if profiling {
        obs::set_enabled(false);
        let session = obs::take();
        result.and_then(|()| {
            if let Some(path) = &trace_out {
                std::fs::write(path, session.chrome_trace())?;
            }
            if let Some(path) = &trace_summary {
                let mut summary = session.span_tree(false);
                summary.push('\n');
                summary.push_str(&session.metrics_text());
                std::fs::write(path, summary)?;
            }
            if a.flag("--profile") {
                eprint!("{}", session.span_tree(true));
                eprint!("{}", session.metrics_text());
            }
            Ok(())
        })
    } else {
        result
    };

    // A failing command is as dump-worthy as a panic: write the flight
    // artifact (if configured) before the endpoint lingers and shuts down.
    if let Err(e) = &result {
        telemetry.dump_error(&e.to_string());
    }
    telemetry.finish();

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("parmem: {e}");
            ExitCode::FAILURE
        }
    }
}

/// True when one of the uniform profiling sinks was requested:
/// `--profile`, `--trace-out` or `--trace-summary`.
fn profiling_requested(a: &CommonArgs) -> bool {
    a.flag("--profile") || a.value("--trace-out").is_some() || a.value("--trace-summary").is_some()
}

fn cmd_assign(a: &CommonArgs) -> Result<(), CliError> {
    let path = a.file_arg()?;
    let text = std::fs::read_to_string(&path)?;
    let named = trace_io::parse_trace(&text)?;
    let params = args::assign_params(a);
    let (assignment, report) = assign_trace(&named.trace, &params);

    let k = named.trace.modules;
    println!(
        "{} instructions, {} values, {} modules",
        named.trace.instructions.len(),
        named.names.len(),
        k
    );
    let header: Vec<String> = (0..k as u16).map(|m| format!("M{}", m + 1)).collect();
    let width = named
        .names
        .iter()
        .map(|n| n.len())
        .max()
        .unwrap_or(2)
        .max(5);
    println!("{:>width$}  {}", "value", header.join(" "));
    for v in named.trace.distinct_values() {
        let copies = assignment.copies(v);
        let row: Vec<String> = (0..k as u16)
            .map(|m| {
                if copies.contains(ModuleId(m)) {
                    format!("{:<2}", "x")
                } else {
                    format!("{:<2}", "-")
                }
            })
            .collect();
        println!("{:>width$}  {}", named.name(v), row.join(" "));
    }
    println!(
        "\nsingle-copy {}  duplicated {}  extra copies {}  residual conflicts {}",
        report.single_copy, report.multi_copy, report.extra_copies, report.residual_conflicts
    );
    if report.residual_conflicts > 0 {
        println!("warning: some instructions have more operands than modules");
    }
    if let Some(policy) = args::array_policy(a)? {
        // Text traces carry no array metadata, so the unified plan covers
        // the scalar assignment alone; arrays stay at zero.
        let layout = plan_layout(k, policy, assignment.clone(), &[]);
        let digest = layout.digest();
        let check = verify::verify_layout(&layout, digest);
        println!(
            "layout: policy={} arrays={} digest={:016x} ({})",
            layout.policy.name(),
            layout.arrays.len(),
            digest,
            if check.is_clean() { "clean" } else { "DIRTY" }
        );
        for d in &check.diagnostics {
            println!("  {d}");
        }
        if !check.is_clean() {
            return Err("layout verification failed".into());
        }
    }
    Ok(())
}

fn cmd_compile(a: &CommonArgs) -> Result<(), CliError> {
    let path = a.file_arg()?;
    let src = std::fs::read_to_string(&path)?;
    let k = a.parsed::<usize>("-k")?.unwrap_or(8);
    let session = Session::new(k)
        .with_strategy(args::strategy(a)?)
        .with_opts(args::compile_options(a)?);

    let prog = session.compile(&src)?;
    let trace = prog.sched.access_trace();
    println!(
        "compiled `{path}`: {} long words (static), {} data values, k={k}",
        trace.instructions.len(),
        trace.distinct_values().len()
    );
    let (assignment, report) = session.assign(&prog);
    println!(
        "{}: single-copy {}  duplicated {}  residual conflicts {}",
        session.strategy.name(),
        report.single_copy,
        report.multi_copy,
        report.residual_conflicts
    );
    let run = session.verified_run(&prog, &assignment, ArrayPlacement::Interleaved)?;
    println!(
        "executed {} words in {} cycles  (transfer time {}Δ, scalar-conflict words {})",
        run.stats.words, run.stats.cycles, run.stats.transfer_time, run.stats.scalar_conflict_words
    );
    println!(
        "speed-up over sequential: {:.0}%",
        (run.speedup - 1.0) * 100.0
    );
    if !run.stats.output.is_empty() {
        println!("\noutput ({} values):", run.stats.output.len());
        for v in &run.stats.output {
            println!("  {v}");
        }
    }
    Ok(())
}

fn cmd_verify(a: &CommonArgs) -> Result<(), CliError> {
    if a.flag("--exact") {
        return cmd_verify_exact(a);
    }
    let path = a.file_arg()?;
    let text = std::fs::read_to_string(&path)?;
    let params = args::assign_params(a);

    let report = if text.trim_start().starts_with("program") {
        // MiniLang source: run the whole pipeline and check all invariants.
        // `without_optimizer` matches the historical plain-compile behavior
        // of this subcommand (the checker re-derives, it does not optimize).
        let k = a.parsed::<usize>("-k")?.unwrap_or(8);
        let session = Session::new(k)
            .with_strategy(args::strategy(a)?)
            .with_params(params)
            .without_optimizer();
        let prog = session.compile(&text)?;
        let (assignment, areport) = session.assign(&prog);
        session.verify(&prog, &assignment, Some(&areport))
    } else {
        // Text access trace: assignment-level checks only.
        let named = trace_io::parse_trace(&text)?;
        let (assignment, areport) = assign_trace(&named.trace, &params);
        verify::verify_trace(&named.trace, &assignment, Some(&areport))
    };

    if a.flag("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} invariant violation(s)", report.diagnostics.len()).into())
    }
}

/// `parmem verify --exact`: solve one workload/file exactly and re-validate
/// the resulting certificate against the trace (PM201–PM206).
fn cmd_verify_exact(a: &CommonArgs) -> Result<(), CliError> {
    let target = a.target_arg()?;
    let (program, source) = args::resolve_program(&target)?;
    let k = a.parsed::<usize>("-k")?.unwrap_or(4);
    let session = Session::new(k).without_optimizer();
    let prog = session.compile(&source)?;
    let trace = prog.sched.access_trace();
    let cfg = args::exact_config(a)?;
    let cert = parallel_memories::exact::solve_certificate(&trace, &cfg);
    let heuristic = parallel_memories::exact::heuristic_single_copy_residual(&trace);
    let report = verify::verify_certificate(&trace, &cert, Some(heuristic));
    if a.flag("--json") {
        println!(
            "{{\"schema\":\"parmem-verify-exact/v1\",\"program\":\"{}\",\"heuristic_residual\":{heuristic},\"certificate\":{},\"report\":{}}}",
            obs::json::escape(&program),
            cert.to_json(),
            report.to_json()
        );
    } else {
        println!(
            "{program} k={k}: certificate status={} bounds=[{},{}] heuristic={} gap={}",
            cert.status.as_str(),
            cert.lower,
            cert.upper,
            heuristic,
            heuristic as isize - cert.lower as isize
        );
        print!("{report}");
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} certificate violation(s)", report.diagnostics.len()).into())
    }
}

/// `parmem exact`: the gap sweep — exact bounds vs heuristic residual per
/// (workload, k), with every certificate independently re-validated.
fn cmd_exact(a: &CommonArgs) -> Result<(), CliError> {
    use parallel_memories::exact_report::{self, ExactJobSpec};

    let benches = args::select_benchmarks(a)?;
    let ks = args::k_list(a, &[2, 4])?;
    let cfg = args::exact_config(a)?;
    let opts = args::compile_options(a)?;

    let mut specs = Vec::with_capacity(benches.len() * ks.len());
    for b in &benches {
        for &k in &ks {
            specs.push(ExactJobSpec {
                program: b.name.to_string(),
                source: b.source.to_string(),
                k,
                cfg,
                opts,
            });
        }
    }
    let results = exact_report::run_exact_jobs(specs, a.parsed("--jobs")?.unwrap_or(0));

    let format = a.value("--format").unwrap_or("text");
    let output = match format {
        "text" => exact_report::to_text(&results),
        "json" => {
            let mut j = exact_report::to_json(&results);
            j.push('\n');
            j
        }
        other => return Err(format!("bad --format `{other}` (text|json)").into()),
    };
    match a.value("--out") {
        Some(path) => std::fs::write(path, &output)?,
        None => print!("{output}"),
    }

    let failed = results
        .iter()
        .filter(|r| match &r.outcome {
            Ok(m) => m.verify_diags > 0,
            Err(_) => true,
        })
        .count();
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} job(s) failed or produced dirty certificates").into())
    }
}

/// `parmem lint`: static PML diagnostics and (with `--predict`) the
/// compile-time conflict model cross-checked against the simulator.
fn cmd_lint(a: &CommonArgs) -> Result<(), CliError> {
    use parallel_memories::lint_report::{self, LintJobSpec};

    // Positionals may be workload names or MiniLang files; without any, the
    // paper corpus (or `--all` extended corpus) is linted.
    let programs: Vec<(String, String)> = if a.positionals().is_empty() {
        args::select_benchmarks(a)?
            .into_iter()
            .map(|b| (b.name.to_string(), b.source.to_string()))
            .collect()
    } else {
        a.positionals()
            .iter()
            .map(|t| args::resolve_program(t))
            .collect::<Result<_, _>>()?
    };
    let ks = args::k_list(a, &[4])?;
    let opts = args::compile_options(a)?;
    let predict = a.flag("--predict");
    let seed: u64 = a.parsed("--seed")?.unwrap_or(0xC0FFEE);
    let array_policy = args::array_policy(a)?;

    let mut specs = Vec::with_capacity(programs.len() * ks.len());
    for (program, source) in &programs {
        for &k in &ks {
            specs.push(LintJobSpec {
                program: program.clone(),
                source: source.clone(),
                k,
                opts,
                predict,
                seed,
                array_policy,
            });
        }
    }
    let results = lint_report::run_lint_jobs(specs, a.parsed("--jobs")?.unwrap_or(0));

    let output = if a.flag("--json") {
        let mut j = lint_report::to_json(&results);
        j.push('\n');
        j
    } else {
        lint_report::to_text(&results)
    };
    match a.value("--out") {
        Some(path) => std::fs::write(path, &output)?,
        None => print!("{output}"),
    }

    let failures = lint_report::failure_count(&results);
    let diags = lint_report::diag_count(&results);
    if failures > 0 {
        Err(format!("{failures} job(s) failed or predicted out of tolerance").into())
    } else if a.flag("--deny") && diags > 0 {
        Err(format!("{diags} lint diagnostic(s) with --deny").into())
    } else {
        Ok(())
    }
}

/// `parmem synth`: seeded synthetic scale workloads through the CSR build,
/// with optional round-trip check and full-pipeline assignment.
/// Every line printed is deterministic in `(spec, seed)` — never in `--jobs`.
fn cmd_synth(a: &CommonArgs) -> Result<(), CliError> {
    use parallel_memories::core::graph::ConflictGraph;
    use parallel_memories::core::synth::{scale_trace, scale_workload, ScaleSpec};

    let values = a.parsed::<usize>("-n")?.unwrap_or(1_000);
    let spec = ScaleSpec {
        values,
        edges: a.parsed("--edges")?.unwrap_or(values.saturating_mul(4)),
        cliques: a.parsed("--cliques")?.unwrap_or(4),
        clique_size: a.parsed("--clique-size")?.unwrap_or(10),
        components: a.parsed("--components")?.unwrap_or(4),
        modules: a.parsed("-k")?.unwrap_or(8),
    };
    spec.validate().map_err(|e| format!("synth: {e}"))?;
    let seed: u64 = a.parsed("--seed")?.unwrap_or(0xC0FFEE);
    let jobs: usize = a.parsed("--jobs")?.unwrap_or(0);

    let w = scale_workload(&spec, seed);
    let g = ConflictGraph::from_sorted_edges(spec.values, &w.edges);
    println!(
        "synth: {} values, {} edges ({} forced), {} components, {} cliques (size {}), k={}, seed {seed}",
        spec.values,
        w.edges.len(),
        w.forced_edges,
        spec.components,
        w.cliques.len(),
        spec.clique_size,
        spec.modules
    );
    let max_degree = (0..g.len() as u32).map(|v| g.degree(v)).max().unwrap_or(0);
    println!(
        "graph: digest {:016x}, max degree {max_degree}, {} components",
        g.digest(),
        g.connected_components().len()
    );

    let need_trace = a.flag("--check") || a.flag("--assign") || a.value("--out").is_some();
    let trace = need_trace.then(|| scale_trace(&spec, seed));

    if a.flag("--check") {
        let trace = trace.as_ref().expect("built above");
        let from_trace = ConflictGraph::build(trace);
        if from_trace.digest() != g.digest() {
            return Err("trace-built graph diverges from direct CSR assembly".into());
        }
        println!(
            "check: trace round-trip ok ({} instructions)",
            trace.instructions.len()
        );
    }
    if a.flag("--assign") {
        let trace = trace.as_ref().expect("built above");
        let params = AssignParams {
            jobs,
            ..args::assign_params(a)
        };
        let (_, r) = assign_trace(trace, &params);
        println!(
            "assign: single-copy {}  duplicated {}  extra copies {}  uncolored {}  atoms {}  residual conflicts {}",
            r.single_copy, r.multi_copy, r.extra_copies, r.uncolored, r.atoms, r.residual_conflicts
        );
    }
    if let Some(path) = a.value("--out") {
        let trace = trace.as_ref().expect("built above");
        std::fs::write(path, trace_io::format_trace(trace, None))?;
    }
    Ok(())
}

/// Parse a byte-size value with an optional `K`/`M`/`G` suffix
/// (binary: `64M` = 64 MiB).
fn parse_byte_size(text: &str) -> Result<usize, CliError> {
    let (digits, shift) = match text.as_bytes().last() {
        Some(b'K' | b'k') => (&text[..text.len() - 1], 10),
        Some(b'M' | b'm') => (&text[..text.len() - 1], 20),
        Some(b'G' | b'g') => (&text[..text.len() - 1], 30),
        _ => (text, 0),
    };
    let n: usize = digits
        .parse()
        .map_err(|_| format!("bad byte size `{text}` (expected e.g. 1048576, 64M, 1G)"))?;
    n.checked_shl(shift)
        .filter(|&v| v >> shift == n)
        .ok_or_else(|| format!("byte size `{text}` overflows").into())
}

/// `parmem serve` — the assignment-as-a-service daemon.
fn cmd_serve(a: &CommonArgs) -> Result<(), CliError> {
    let addr = a.value("--addr").unwrap_or("127.0.0.1:9185");
    let defaults = parallel_memories::serve::ServeConfig::default();
    let config = parallel_memories::serve::ServeConfig {
        addr: addr.to_string(),
        jobs: a.parsed::<usize>("--jobs")?.unwrap_or(0),
        cache_bytes: match a.value("--cache-bytes") {
            Some(text) => parse_byte_size(text)?,
            None => defaults.cache_bytes,
        },
        queue_depth: a
            .parsed::<usize>("--queue-depth")?
            .unwrap_or(defaults.queue_depth),
        max_requests: a.parsed::<u64>("--max-requests")?,
        metrics_only: a.flag("--metrics-only"),
        debug_hooks: std::env::var("PARMEM_SERVE_DEBUG").as_deref() == Ok("1"),
        keep_spans: profiling_requested(a),
        ..defaults
    };
    // Live snapshots feed the daemon's /metrics page.
    obs::set_enabled(true);
    let daemon =
        parallel_memories::serve::Daemon::start(config).map_err(|e| format!("{addr}: {e}"))?;
    eprintln!("serve: listening on http://{}/metrics", daemon.local_addr());
    daemon.wait();
    Ok(())
}

fn cmd_run(a: &CommonArgs) -> Result<(), CliError> {
    let path = a.file_arg()?;
    let src = std::fs::read_to_string(&path)?;
    let result = liw_ir::run_source(&src)?;
    for v in &result.output {
        println!("{v}");
    }
    eprintln!("({} steps)", result.steps);
    Ok(())
}

fn cmd_trace(a: &CommonArgs) -> Result<(), CliError> {
    let target = a.target_arg()?;
    let (program, source) = args::resolve_program(&target)?;
    let k = a.parsed::<usize>("-k")?.unwrap_or(8);
    let mut session = Session::new(k)
        .with_strategy(args::strategy(a)?)
        .with_opts(args::compile_options(a)?)
        .with_params(args::assign_params(a))
        .with_seed(a.parsed("--seed")?.unwrap_or(0xC0FFEE));
    if let Some(policy) = args::array_policy(a)? {
        session = session.with_array_policy(policy);
    }

    // Run the one job with the collector live, then drain it exactly once.
    obs::set_enabled(true);
    let result = session.run(program, source);
    obs::set_enabled(false);
    let obs_session = obs::take();

    let deterministic = a.flag("--deterministic");
    let format = a.value("--format").unwrap_or("tree");
    let output = match format {
        "tree" => obs_session.span_tree(!deterministic),
        "json" => obs_session.to_json(!deterministic),
        "chrome" => obs_session.chrome_trace(),
        "metrics" => obs_session.metrics_text(),
        other => return Err(format!("bad --format `{other}` (tree|json|chrome|metrics)").into()),
    };

    if a.flag("--validate") {
        let chrome = if format == "chrome" {
            output.clone()
        } else {
            obs_session.chrome_trace()
        };
        let stats = obs::validate_chrome_trace(&chrome).map_err(|e| format!("trace: {e}"))?;
        eprintln!(
            "trace ok: {} span(s) on {} thread(s), {} metadata event(s)",
            stats.spans, stats.threads, stats.metadata
        );
    }

    match a.value("--out") {
        Some(path) => std::fs::write(path, &output)?,
        None => print!("{output}"),
    }

    let outcome = &result.outcome;
    match outcome {
        Ok(out) => {
            eprintln!(
                "job {} k={} {}: {} words in {} cycles, speed-up {:.2}x",
                result.spec.program,
                result.spec.k,
                result.spec.strategy.name(),
                out.words,
                out.cycles,
                out.speedup
            );
            if let Some(p) = &out.planned {
                eprintln!(
                    "planned placement {}: {} array(s), transfer time {}, layout {:016x}",
                    p.policy, p.arrays, p.transfer_time, p.layout_digest
                );
            }
            Ok(())
        }
        Err(e) => Err(format!("job {} failed: {e}", result.spec.program).into()),
    }
}

fn cmd_batch(a: &CommonArgs) -> Result<(), CliError> {
    let benches = args::select_benchmarks(a)?;
    let ks = args::k_list(a, &[2, 4, 8])?;

    let strategies: Vec<Strategy> = match a.value("--stor") {
        None => vec![Strategy::Stor1],
        // The paper's three heuristics; `exact` must be asked for by name.
        Some("all") => Strategy::heuristics().collect(),
        Some(v) => match Strategy::parse(v) {
            Some(st) => vec![st],
            None => return Err(format!("bad --stor `{v}` (1|2|3|exact|all)").into()),
        },
    };

    let seed: u64 = a.parsed("--seed")?.unwrap_or(0xC0FFEE);
    let opts = args::compile_options(a)?;
    let params = args::assign_params(a);
    let array_policy = args::array_policy(a)?;

    let mut specs = batch::sweep_jobs(&benches, &ks, &strategies, seed);
    for s in &mut specs {
        s.opts = opts;
        s.params = params;
        s.array_policy = array_policy;
    }

    let batch_opts = BatchOptions {
        jobs: a.parsed("--jobs")?.unwrap_or(0),
        policy: if a.flag("--fail-fast") {
            ErrorPolicy::FailFast
        } else {
            ErrorPolicy::CollectAll
        },
    };
    let n_jobs = specs.len();
    let report = batch::run_batch(specs, &batch_opts);

    let timings = a.flag("--timings");
    if a.flag("--json") {
        println!("{}", report.to_json(timings));
    } else if a.flag("--csv") {
        print!("{}", report.to_csv(timings));
    } else {
        print!("{}", report.format_text_with(timings));
    }
    if let Some(path) = a.value("--out") {
        // The file report always carries timings — it is the CI artifact.
        std::fs::write(path, report.to_json(true))?;
    }
    eprintln!(
        "batch: {n_jobs} job(s) on {} worker(s) in {:.1} ms",
        report.workers,
        report.wall_ns as f64 / 1e6
    );
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} job(s) failed, {} skipped",
            report.failed_count(),
            report.skipped_count()
        )
        .into())
    }
}
