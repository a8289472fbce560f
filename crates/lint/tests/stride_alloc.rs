//! Array stride profiling stays small.
//!
//! This binary counts allocations with `parmem_obs::alloc::CountingAlloc`
//! and bounds the bytes one `array_stride_profiles` call allocates on the
//! largest TAC the planned-layout path profiles: EXACT unrolled by 4 and
//! optimized for k = 4. Constant propagation and reaching definitions
//! solve only for the variables that can reach a subscript, so the bound
//! holds however many other variables the program carries.

use liw_ir::unroll::UnrollConfig;
use liw_sched::MachineSpec;
use parmem_obs::alloc::{alloc_counters, CountingAlloc};
use rliw_sim::pipeline::{frontend, optimize_stage, CompileOptions};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn stride_profiles_of_unrolled_exact_allocate_under_8_mib() {
    let opts = CompileOptions {
        unroll: Some(UnrollConfig {
            factor: 4,
            max_body_stmts: 16,
        }),
        ..CompileOptions::default()
    };
    let src = workloads::by_name("EXACT").expect("EXACT workload").source;
    let tac = frontend(src, &opts).expect("EXACT compiles");
    let tac = optimize_stage(&tac, MachineSpec::with_modules(4), &opts);

    let (before, _) = alloc_counters();
    let profiles = parmem_lint::array_stride_profiles(&tac);
    let (after, _) = alloc_counters();
    assert!(
        profiles.iter().any(|a| a.dominant_stride.is_some()),
        "the profile derives strides"
    );
    let bytes = after - before;
    assert!(bytes < 8 << 20, "array_stride_profiles allocated {bytes} B");
}
