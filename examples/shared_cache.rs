//! The paper's closing application (§3): shared-cache multiprocessors.
//!
//! *"In systems where the caches are associated with the shared memory, the
//! shared data can reside in the shared caches and can be accessed in
//! parallel by the processors at high speed. However, the performance of
//! the system can deteriorate if multiple hits occur on the same cache ...
//! If the data is read-only, then the techniques described in this paper
//! can be used to create multiple copies of data items which are stored in
//! different main memory modules."* (The Alliant FX/8 is the paper's
//! example machine.)
//!
//! Here the "modules" are shared caches and each "instruction" is one
//! lock-step access round: the set of read-only items the processors touch
//! simultaneously. The same assignment pipeline distributes (and, for hot
//! items, replicates) the data so rounds stay conflict-free.
//!
//! ```text
//! cargo run --example shared_cache
//! ```

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use parallel_memories::core::baseline;
use parallel_memories::core::prelude::*;

fn main() {
    let caches = 8; // shared caches on the memory side
    let processors = 8; // lock-step worker processors
    let items = 96; // read-only shared data items
    let rounds = 400; // simultaneous access rounds

    // Synthesize a parallel workload: a few hot items (lookup tables,
    // coefficients) appear in most rounds; the rest follow a skewed
    // popularity distribution — typical read-only sharing.
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    let mut access_rounds = Instructions::with_capacity(rounds, rounds * processors);
    for _ in 0..rounds {
        let mut reads = Vec::with_capacity(processors);
        for p in 0..processors {
            let item = if rng.gen_bool(0.30) {
                // hot set: items 0..4 (lookup tables everyone reads)
                rng.gen_range(0..4)
            } else {
                // mildly skewed over the remaining items
                let a = rng.gen_range(4..items as u32);
                let b = rng.gen_range(4..items as u32);
                a.min(b)
            };
            reads.push(ValueId(item));
            let _ = p;
        }
        access_rounds.push(reads);
    }
    let trace = AccessTrace::new(caches, access_rounds);

    println!(
        "{processors} processors, {caches} shared caches, {items} read-only items, {rounds} rounds\n"
    );

    let report = |label: &str, a: &Assignment| {
        let mut conflicted = 0usize;
        let mut total_time = 0usize;
        for round in &trace.instructions {
            let ms = a.fetch_makespan(round).unwrap_or(round.len());
            total_time += ms;
            if ms > 1 {
                conflicted += 1;
            }
        }
        println!(
            "{label:<36} copies {:>4}  conflicted rounds {conflicted:>4}/{rounds}  total access time {total_time:>5}Δ",
            a.total_copies(),
        );
        total_time
    };

    // Oblivious distribution: items interleaved over caches.
    let rr = baseline::round_robin(&trace);
    let t_rr = report("round-robin, no replication", &rr);

    // Conflict-aware distribution, single copies only (coloring, no
    // duplication): disable duplication by clearing V_unassigned copies?
    // Simplest honest single-copy baseline: first-fit coloring.
    let (ff, failed) = baseline::first_fit_coloring(&trace);
    let mut ff = ff;
    // Place any failed values round-robin so every item has one home.
    let mut next = 0u16;
    for v in trace.distinct_values() {
        if !ff.is_placed(v) {
            ff.add_copy(v, ModuleId(next % caches as u16));
            next += 1;
        }
    }
    let t_ff = report(&format!("first-fit coloring ({failed} uncolorable)"), &ff);

    // The paper's full pipeline: coloring + replication of hot items.
    let (smart, r) = assign_trace(&trace, &AssignParams::default());
    let t_smart = report("conflict-graph + replication", &smart);
    println!(
        "\nreplicated items: {} (extra copies {}), residual conflicts {}",
        r.multi_copy, r.extra_copies, r.residual_conflicts
    );
    println!(
        "speed-up of access phase vs round-robin: {:.2}x, vs single-copy coloring: {:.2}x",
        t_rr as f64 / t_smart as f64,
        t_ff as f64 / t_smart as f64,
    );

    assert!(t_smart <= t_ff && t_ff <= t_rr + t_ff /* sanity */);
}
