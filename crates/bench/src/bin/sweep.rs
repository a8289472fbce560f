//! Reconfigurability sweep — the "R" in RLIW. The paper's architecture can
//! be reconfigured between module counts; this experiment sweeps the
//! machine size `k` (functional units = memory ports = modules) and the
//! unroll factor, reporting cycles and speed-up per benchmark.
//!
//! Usage: `cargo run --release -p parmem-bench --bin sweep [-- csv]`

use parmem_bench::bench_session;
use rliw_sim::ArrayPlacement;

fn main() {
    let csv = std::env::args().nth(1).as_deref() == Some("csv");
    if csv {
        println!("benchmark,k,unroll,cycles,speedup,transfer_time,duplicated");
    } else {
        println!(
            "{:<10} {:>3} {:>7} {:>9} {:>9} {:>13} {:>5}",
            "benchmark", "k", "unroll", "cycles", "speedup", "transfer-time", "dup"
        );
    }
    for b in workloads::benchmarks() {
        for k in [2usize, 4, 8, 16] {
            for unroll in [1usize, 4] {
                let session = if unroll == 1 {
                    bench_session(k)
                } else {
                    bench_session(k).with_unroll(unroll)
                };
                let prog = session.compile(b.source).expect("benchmark compiles");
                let (a, r) = session.assign(&prog.sched);
                let run = rliw_sim::checked_run(&prog, &a, ArrayPlacement::Interleaved)
                    .unwrap_or_else(|e| panic!("{} k={k}: {e}", b.name));
                assert_eq!(run.stats.scalar_conflict_words, 0);
                if csv {
                    println!(
                        "{},{},{},{},{:.3},{},{}",
                        b.name,
                        k,
                        unroll,
                        run.stats.cycles,
                        run.speedup,
                        run.stats.transfer_time,
                        r.multi_copy
                    );
                } else {
                    println!(
                        "{:<10} {:>3} {:>7} {:>9} {:>8.2}x {:>13} {:>5}",
                        b.name,
                        k,
                        unroll,
                        run.stats.cycles,
                        run.speedup,
                        run.stats.transfer_time,
                        r.multi_copy
                    );
                }
            }
        }
    }
}
