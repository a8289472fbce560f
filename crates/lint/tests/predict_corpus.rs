//! The acceptance gate for the static conflict predictor: on every corpus
//! workload, the compile-time t_min / t_max / per-module transfer profile
//! must match the simulator's measured counters *exactly*, and the t_ave
//! expectation must sit within the documented `T_AVE_TOLERANCE` of one
//! measured uniform-random placement run.

use parmem_driver::Session;
use parmem_lint::{compare, T_AVE_TOLERANCE};

fn check(name: &str, source: &str, k: usize, seed: u64) {
    let session = Session::new(k).with_seed(seed);
    let prog = session.compile(source).expect(name);
    let (assignment, _) = session.assign(&prog.sched);
    let rep = compare(&prog.sched, &assignment, seed)
        .unwrap_or_else(|e| panic!("{name} k={k}: simulation failed: {e}"));

    assert_eq!(
        rep.t_min_predicted, rep.t_min_measured,
        "{name} k={k}: t_min must be exact"
    );
    assert_eq!(
        rep.t_max_predicted, rep.t_max_measured,
        "{name} k={k}: t_max must be exact"
    );
    assert_eq!(
        rep.module_transfers_predicted, rep.module_transfers_measured,
        "{name} k={k}: per-module transfer profile must be exact"
    );
    assert!(
        rep.t_ave_rel_err() <= T_AVE_TOLERANCE,
        "{name} k={k}: t_ave rel err {} exceeds tolerance {} \
         (predicted {}, measured {})",
        rep.t_ave_rel_err(),
        T_AVE_TOLERANCE,
        rep.t_ave_predicted,
        rep.t_ave_measured
    );
    assert!(rep.within_tolerance(), "{name} k={k}: gate");
}

#[test]
fn predictor_matches_simulator_across_the_corpus() {
    for b in workloads::all_benchmarks() {
        for k in [2, 4] {
            check(b.name, b.source, k, 0xC0FFEE);
        }
    }
}

#[test]
fn predictor_matches_at_width_8_and_other_seeds() {
    let fft = workloads::by_name("FFT").unwrap();
    check(fft.name, fft.source, 8, 0xC0FFEE);
    for seed in [1, 42, 0xDEADBEEF] {
        check(fft.name, fft.source, 4, seed);
    }
}
