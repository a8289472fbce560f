//! Array stride profiling stays small.
//!
//! This binary counts allocations with `parmem_obs::alloc::CountingAlloc`
//! and bounds the bytes one `array_stride_profiles` call allocates on the
//! largest TAC the planned-layout path profiles: EXACT unrolled by 4 and
//! optimized for k = 4. Constant propagation and reaching definitions
//! solve only for the variables that can reach a subscript, so the bound
//! holds however many other variables the program carries.

use parmem_driver::Session;
use parmem_obs::alloc::{alloc_counters, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn stride_profiles_of_unrolled_exact_allocate_under_8_mib() {
    let session = Session::new(4).with_unroll(4);
    let src = workloads::by_name("EXACT").expect("EXACT workload").source;
    let tac = session.frontend(src).expect("EXACT compiles");
    let tac = session.optimize(&tac);

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
