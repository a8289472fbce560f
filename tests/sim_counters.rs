//! The simulator's obs counters equal what a job measured: one traced job
//! executes its program once, so each array policy's `sim.words` counter
//! reads exactly the job's executed word count, the ideal policy's
//! included.
//!
//! The collector is process-global, so this file holds a single test.

use std::sync::Arc;

use parallel_memories::driver::Session;
use parallel_memories::obs;

#[test]
fn every_policy_counts_the_job_words_once() {
    for b in parallel_memories::workloads::all_benchmarks() {
        let source: Arc<str> = Arc::from(b.source);
        for k in [2, 4] {
            obs::set_enabled(true);
            let _ = obs::take();
            let result = Session::new(k).run(b.name, Arc::clone(&source));
            let session = obs::take();
            obs::set_enabled(false);
            let out = result
                .outcome
                .unwrap_or_else(|e| panic!("{} k={k}: {e}", b.name));
            for policy in ["ideal", "uniform_random", "interleaved", "same_module"] {
                let name = format!("sim.words[policy={policy}]");
                assert_eq!(
                    session.counters.get(&name).copied(),
                    Some(out.words),
                    "{} k={k}: {name}",
                    b.name
                );
            }
        }
    }
}
