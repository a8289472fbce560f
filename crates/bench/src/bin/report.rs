//! Regenerate every experiment in one run and write a consolidated
//! markdown report (stdout, or a file given as the first argument).
//!
//! ```text
//! cargo run --release -p parmem-bench --bin report [-- report.md]
//! ```

use std::fmt::Write as _;

use parmem_bench::bench_session;
use parmem_core::assignment::AssignParams;
use parmem_core::strategies::{run_strategy, Strategy};
use parmem_core::synth::regional_pressure_trace;

fn main() {
    let mut out = String::new();
    let w = &mut out;

    writeln!(w, "# parallel-memories experiment report\n").unwrap();
    writeln!(
        w,
        "Every table and figure of Gupta & Soffa (PPOPP '88), regenerated.\n"
    )
    .unwrap();

    // ---- Table 1 ----
    writeln!(w, "## Table 1 — Duplication of Data (k = 8)\n```").unwrap();
    write!(
        w,
        "{}",
        parmem_bench::format_table1(&parmem_bench::table1(8))
    )
    .unwrap();
    writeln!(w, "```\n").unwrap();
    writeln!(w, "With innermost loops unrolled x4:\n```").unwrap();
    write!(
        w,
        "{}",
        parmem_bench::format_table1(&parmem_bench::table1_with(&bench_session(8).with_unroll(4)))
    )
    .unwrap();
    writeln!(w, "```\n").unwrap();

    // ---- STOR pressure comparison ----
    writeln!(
        w,
        "## Strategy comparison under regional pressure (k = 4)\n\n\
         Synthetic workloads in the regime where the paper's STOR2 degrades.\n```"
    )
    .unwrap();
    writeln!(w, "workload          STOR1(dup/copies)  STOR2  STOR3").unwrap();
    for (regions, globals, seed) in [(4, 4, 1), (6, 6, 2), (8, 8, 3), (8, 16, 4)] {
        let rt = regional_pressure_trace(4, regions, globals, seed);
        let mut cells = Vec::new();
        for s in [Strategy::Stor1, Strategy::Stor2, Strategy::STOR3] {
            let (_, r) = run_strategy(&rt, s, &AssignParams::default());
            cells.push(format!("{}/{}", r.multi_copy, r.extra_copies));
        }
        writeln!(
            w,
            "pressure({regions},{globals})     {:>8}  {:>12}  {:>5}",
            cells[0], cells[1], cells[2]
        )
        .unwrap();
    }
    writeln!(w, "```\n").unwrap();

    // ---- Table 2 ----
    eprintln!("simulating table 2 (k=8 and k=4)...");
    writeln!(
        w,
        "## Table 2 — Memory Conflicts due to Array Accesses\n```"
    )
    .unwrap();
    write!(
        w,
        "{}",
        parmem_bench::format_table2(&parmem_bench::table2(8), &parmem_bench::table2(4))
    )
    .unwrap();
    writeln!(w, "```\n").unwrap();

    // ---- Speed-up ----
    eprintln!("simulating speed-ups...");
    writeln!(w, "## Overall speed-up (paper: 64-300%)\n").unwrap();
    writeln!(w, "Plain per-block schedule:\n```").unwrap();
    write!(
        w,
        "{}",
        parmem_bench::format_speedup(&parmem_bench::speedup_with(&bench_session(8)))
    )
    .unwrap();
    writeln!(w, "```\n\nInnermost loops unrolled x4:\n```").unwrap();
    write!(
        w,
        "{}",
        parmem_bench::format_speedup(&parmem_bench::speedup_with(
            &bench_session(8).with_unroll(4)
        ))
    )
    .unwrap();
    writeln!(w, "```").unwrap();

    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &out).expect("write report");
            eprintln!("wrote {path}");
        }
        None => print!("{out}"),
    }
}
