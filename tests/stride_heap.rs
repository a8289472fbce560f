//! The stride analysis stays small on the largest TACs the planned-layout
//! path profiles.
//!
//! This binary counts allocations with `parmem_obs::alloc::CountingAlloc`.
//! One `array_stride_profiles` call on EXACT and on COLOR, unrolled by 4
//! and optimized for k = 4, must stay under a 128 KiB heap peak and
//! 512 KiB allocated. Constant propagation keeps one value per definition
//! of the subscripts' slice and one list of reaching definitions per use,
//! not an environment of every sliced variable per block: with those
//! environments the calls peaked at 311,932 and 310,804 B and allocated
//! 4,216,041 and 3,827,585 B.

use parallel_memories::driver::Session;
use parallel_memories::lint::array_stride_profiles;
use parallel_memories::obs::alloc::{
    alloc_counters, reset_thread_peak, thread_peak_raw, CountingAlloc,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn stride_profiles_of_unrolled_programs_stay_small() {
    let session = Session::new(4).with_unroll(4);
    for name in ["EXACT", "COLOR"] {
        let src = parallel_memories::workloads::by_name(name)
            .expect(name)
            .source;
        let tac = session.optimize(&session.frontend(src).expect(name));

        let live = reset_thread_peak();
        let (bytes, allocs) = alloc_counters();
        let profiles = array_stride_profiles(&tac);
        let (bytes_after, allocs_after) = alloc_counters();
        let peak = thread_peak_raw() - live;

        assert!(
            profiles.iter().any(|a| a.dominant_stride.is_some()),
            "{name}: the profile derives strides"
        );
        let (bytes, allocs) = (bytes_after - bytes, allocs_after - allocs);
        eprintln!("{name}: peak {peak} B, {bytes} B in {allocs} allocations");
        assert!(peak < 128 << 10, "{name}: heap peak {peak} B");
        assert!(bytes < 512 << 10, "{name}: allocated {bytes} B");
    }
}
