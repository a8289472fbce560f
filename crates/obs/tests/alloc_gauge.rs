//! The process-wide heap gauge under [`CountingAlloc`] is exact when memory
//! crosses threads: buffers allocated on short-lived threads and freed on
//! the test thread, and the reverse, leave `live` where it started.
//!
//! This binary holds a single test, so no other test allocates while it
//! reads the gauge.

use parmem_obs::alloc::{global_live_peak, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const THREADS: usize = 200;
const BUFFER: usize = 16 * 1024;
const TOLERANCE: u64 = 4 * 1024;

fn live() -> u64 {
    global_live_peak().0
}

fn assert_near(start: u64, what: &str) {
    let now = live();
    assert!(
        now.abs_diff(start) <= TOLERANCE,
        "{what}: live heap moved from {start} to {now} bytes"
    );
}

#[test]
fn live_bytes_survive_buffers_handed_between_threads() {
    // Warm up whatever the first spawn initializes once per process.
    std::thread::spawn(|| vec![0u8; BUFFER]).join().unwrap();
    let start = live();

    // Allocated on exiting threads, freed here.
    let mut held = Vec::with_capacity(THREADS);
    for i in 0..THREADS {
        held.push(
            std::thread::spawn(move || vec![i as u8; BUFFER])
                .join()
                .unwrap(),
        );
    }
    assert!(live() >= start + (THREADS * BUFFER) as u64);
    drop(held);
    assert_near(start, "threads to the test thread");

    // Allocated here, freed on exiting threads.
    for i in 0..THREADS {
        let buf = vec![i as u8; BUFFER];
        std::thread::spawn(move || drop(buf)).join().unwrap();
    }
    assert_near(start, "the test thread to threads");
}
