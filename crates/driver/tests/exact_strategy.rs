//! EXACT from a process where nothing has used the exact solver yet.
//!
//! The strategy registry in `parmem-core` starts empty in every process,
//! and `Strategy::Exact` falls back to STOR1 until the solver is installed.
//! This file is its own test binary holding one test, so the first
//! `Session::assign` below really is the process's first request for EXACT.

use parmem_core::strategies::Strategy;
use parmem_driver::Session;

#[test]
fn first_exact_assign_runs_the_solver() {
    let source = workloads::by_name("SORT").expect("SORT workload").source;
    let session = Session::new(2).with_strategy(Strategy::Exact);
    let prog = session.compile(source).expect("SORT compiles");
    let (_, first) = session.assign(&prog.sched);

    let job = session.run("SORT", source).outcome.expect("SORT runs");
    assert_eq!(first, job.assign_report);

    let (_, stor1) = Session::new(2).assign(&prog.sched);
    assert_ne!(first, stor1, "EXACT answered with STOR1's assignment");
}
