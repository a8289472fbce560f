//! Building a scheduled program's access trace allocates per trace, not
//! per word.
//!
//! This binary counts allocations with `parmem_obs::alloc::CountingAlloc`.
//! Over the 33 default corpus jobs (the 11 bundled programs at k = 2, 4
//! and 8), one `access_trace` build per job gathers each word's reads in
//! one reused buffer, so the builds make a few allocations each: the offset
//! array, the operand array's growth and the buffer's.

use parallel_memories::driver::Session;
use parallel_memories::obs::alloc::{alloc_counters, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn corpus_access_traces_allocate_per_trace_not_per_word() {
    let mut programs = Vec::new();
    for b in workloads::all_benchmarks() {
        for k in [2, 4, 8] {
            programs.push(Session::new(k).compile(b.source).expect("corpus compiles"));
        }
    }
    assert_eq!(programs.len(), 33);

    let (_, before) = alloc_counters();
    let traces: Vec<_> = programs.iter().map(|p| p.sched.access_trace()).collect();
    let (_, after) = alloc_counters();

    let words: usize = traces.iter().map(|t| t.instructions.len()).sum();
    let operands: usize = traces.iter().map(|t| t.instructions.operands().len()).sum();
    assert_eq!((words, operands), (1_985, 2_928));
    // One for the `traces` vector itself, 264 for the traces. Gathering
    // each word's reads in fresh vectors made 4,478 for the same traces.
    assert_eq!(after - before, 1 + 264, "allocations for 33 access traces");
}
