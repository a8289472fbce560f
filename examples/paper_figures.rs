//! Walk through every worked example in the paper (Figs. 1, 3, 5 and 8),
//! printing module maps in the paper's `x`-grid notation.
//!
//! ```text
//! cargo run --example paper_figures
//! ```

use parallel_memories::core::coloring::color_graph;
use parallel_memories::core::prelude::*;

fn print_assignment(trace: &AccessTrace, a: &Assignment) {
    let k = trace.modules;
    let header: Vec<String> = (0..k as u16).map(|m| format!("M{}", m + 1)).collect();
    println!("      {}", header.join(" "));
    for v in trace.distinct_values() {
        let copies = a.copies(v);
        let row: Vec<&str> = (0..k as u16)
            .map(|m| {
                if copies.contains(ModuleId(m)) {
                    "x "
                } else {
                    "- "
                }
            })
            .collect();
        println!("  {v:>3}  {}", row.join(" "));
    }
}

fn main() {
    // ---------- Fig. 1 ----------
    println!("== Fig. 1: conflict-free single-copy assignment ==");
    let fig1 = AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4]]);
    let (a, r) = assign_trace(&fig1, &AssignParams::default());
    print_assignment(&fig1, &a);
    println!("duplicated values: {} (paper: 0)\n", r.multi_copy);
    assert_eq!(r.multi_copy, 0);
    assert_eq!(r.residual_conflicts, 0);

    // ---------- Fig. 3 ----------
    println!("== Fig. 3: node-removal choice affects copies (K5, k=3) ==");
    let fig3 = AccessTrace::from_lists(
        3,
        &[
            &[1, 2, 3],
            &[2, 3, 4],
            &[1, 3, 4],
            &[1, 3, 5],
            &[2, 3, 5],
            &[1, 4, 5],
        ],
    );
    let (a, r) = assign_trace(&fig3, &AssignParams::default());
    print_assignment(&fig3, &a);
    println!(
        "removed during coloring: {}, extra copies: {} (paper: 2 removed; 2-3 extra copies)\n",
        r.uncolored, r.extra_copies
    );
    assert_eq!(r.uncolored, 2, "K5 with 3 colors strands exactly 2 nodes");
    assert_eq!(r.residual_conflicts, 0);

    // ---------- Fig. 5 ----------
    println!("== Fig. 5: the coloring heuristic walkthrough ==");
    let g = ConflictGraph::build(&fig3);
    let c = color_graph(&g, 3, |_| parallel_memories::core::types::ModuleSet::EMPTY);
    let order: Vec<String> = c.order.iter().map(|&v| g.value(v).to_string()).collect();
    println!("processing order: {}", order.join(" -> "));
    for &(v, m) in &c.assigned {
        println!("  colored {} -> {}", g.value(v), m);
    }
    for &v in &c.unassigned {
        println!("  removed {} (goes to V_unassigned)", g.value(v));
    }
    println!();
    assert_eq!(c.unassigned.len(), 2);

    // ---------- Fig. 8 ----------
    println!("== Fig. 8: placement choice affects copy count (k=4) ==");
    let fig8 = AccessTrace::from_lists(
        4,
        &[&[1, 2, 3, 5], &[4, 2, 3, 5], &[1, 2, 3, 4], &[4, 2, 1, 5]],
    );
    let (a, r) = assign_trace(&fig8, &AssignParams::default());
    print_assignment(&fig8, &a);
    // Our heuristic may pick a different node to remove than the paper's
    // walkthrough (it strands V5 rather than V4) — what matters is the copy
    // count: the paper's good placement needs 3 copies of the removed value,
    // the bad one needs 4.
    let (dup_value, copies) = fig8
        .distinct_values()
        .into_iter()
        .map(|v| (v, a.copies(v).len()))
        .max_by_key(|&(_, c)| c)
        .unwrap();
    println!(
        "copies of removed value {dup_value}: {copies} \
         (paper: 3 with good placement, 4 with bad)\n",
    );
    assert_eq!(r.residual_conflicts, 0);
    assert!(
        (2..=4).contains(&copies),
        "placement blew past the paper's worst case"
    );

    println!("all paper figures reproduced conflict-free.");
}
