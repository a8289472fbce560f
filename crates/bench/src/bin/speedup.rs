//! Reproduce the paper's §3 prose claims: overall RLIW speed-up of 64-300%
//! over sequential execution, with array-conflict overhead below ~20%.
//!
//! Shown twice: with the plain per-block schedule, and with innermost-loop
//! unrolling ×4 (our stand-in for the ILP the paper's trace-scheduling
//! compiler exposed).
//!
//! Usage: `cargo run -p parmem-bench --bin speedup [-- <modules>]`

use parmem_bench::bench_session;

fn main() {
    let k = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);
    println!("(k = {k} memory modules / functional units)\n");
    println!("--- per-block schedule (no unrolling) ---");
    print!(
        "{}",
        parmem_bench::format_speedup(&parmem_bench::speedup_with(&bench_session(k)))
    );
    println!("\n--- innermost loops unrolled x4 ---");
    print!(
        "{}",
        parmem_bench::format_speedup(&parmem_bench::speedup_with(
            &bench_session(k).with_unroll(4)
        ))
    );
}
