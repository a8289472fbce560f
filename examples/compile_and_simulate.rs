//! Compile a MiniLang program end to end, assign memory modules, and run it
//! on the simulated RLIW — comparing a conflict-aware layout against naive
//! baselines.
//!
//! ```text
//! cargo run --example compile_and_simulate [-- <benchmark>]
//! ```
//!
//! `<benchmark>` is one of TAYLOR1, TAYLOR2, EXACT, FFT, SORT, COLOR
//! (default FFT).

use parallel_memories::core::baseline;
use parallel_memories::driver::Session;
use parallel_memories::sim::{self, ArrayPlacement};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "FFT".to_string());
    let bench = workloads::by_name(&name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));

    let k = 8;
    println!(
        "compiling {} for an RLIW with {k} memory modules...",
        bench.name
    );
    let session = Session::new(k).without_optimizer();
    let prog = session.compile(bench.source)?;
    let trace = prog.sched.access_trace();
    println!(
        "  {} long words (static), {} data values, {} regions",
        trace.instructions.len(),
        trace.distinct_values().len(),
        prog.sched.n_regions,
    );

    // Conflict-aware assignment (the paper's pipeline).
    let (smart, report) = session.assign(&prog.sched);
    println!(
        "  assignment: {} single-copy, {} duplicated, residual conflicts {}",
        report.single_copy, report.multi_copy, report.residual_conflicts
    );

    let smart_run = sim::checked_run(&prog, &smart, ArrayPlacement::Interleaved)?;
    println!("\nconflict-aware layout (interleaved arrays):");
    print_stats(&smart_run.stats);
    println!(
        "  speed-up over sequential: {:.0}%",
        (smart_run.speedup - 1.0) * 100.0
    );

    // Baselines.
    for (label, assignment) in [
        ("round-robin", baseline::round_robin(&trace)),
        ("single-module", baseline::single_module(&trace)),
    ] {
        let run = sim::run(&prog.sched, &assignment, ArrayPlacement::Interleaved)?;
        assert_eq!(
            run.output, smart_run.stats.output,
            "layout must not change results"
        );
        println!("\n{label} baseline:");
        print_stats(&run);
        let slowdown = run.cycles as f64 / smart_run.stats.cycles as f64;
        println!("  cycles vs conflict-aware: {slowdown:.2}x");
    }

    Ok(())
}

fn print_stats(s: &sim::SimStats) {
    println!(
        "  words {:>8}  cycles {:>8}  transfer-time {:>8}Δ  scalar-conflict words {}",
        s.words, s.cycles, s.transfer_time, s.scalar_conflict_words
    );
}
