//! The counting global allocator (formerly `parmem_batch::metrics`; the
//! batch crate re-exports it so existing callers keep compiling).
//!
//! Wall time comes from [`std::time::Instant`]. Allocation counts come from
//! the optional [`CountingAlloc`] global allocator: a thin wrapper over the
//! system allocator that bumps thread-local counters on every `alloc`/
//! `realloc`. Binaries opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: parmem_obs::alloc::CountingAlloc = parmem_obs::alloc::CountingAlloc;
//! ```
//!
//! (the `parmem` CLI does). When it is not installed the allocation fields
//! of [`crate::stage::StageMetrics`] simply stay zero — timing still works.
//! Counters are thread-local, so a stage's delta measured on a worker thread
//! counts only that job's allocations, not its neighbours'.
//!
//! ## High-water marks
//!
//! Beyond the cumulative totals, the allocator tracks *live* bytes
//! (allocated minus freed) and the *peak* live bytes seen — per thread
//! ([`alloc_live_peak`], [`reset_thread_peak`]) and process-wide
//! ([`global_live_peak`]). The thread-local path is exact for
//! single-threaded regions (each batch job runs its stages on one worker
//! thread); it can undercount live bytes when memory allocated on one
//! thread is freed on another, so readings are clamped at zero.
//!
//! The process-wide gauge is what the live `/metrics` endpoint serves. It
//! is exact: every allocation and free moves it with one relaxed
//! `fetch_add`, and every growth raises the peak with one relaxed
//! `fetch_max`, so memory handed between threads — and threads that exit —
//! cannot make it drift.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

// Relaxed throughout: these are statistics and publish no other data.
static GLOBAL_LIVE: AtomicI64 = AtomicI64::new(0);
static GLOBAL_PEAK: AtomicI64 = AtomicI64::new(0);

/// Counting wrapper over the system allocator (see module docs).
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter bumps use const-initialized
// thread-locals (no lazy init, hence no allocation inside the allocator), and
// `try_with` tolerates access during TLS teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_free(layout.size() as i64);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count only growth, so repeated doubling reads as net new bytes.
        record(new_size.saturating_sub(layout.size()) as u64);
        // Live bytes track the true size change in both directions.
        record_live(
            new_size as i64 - layout.size() as i64 - new_size.saturating_sub(layout.size()) as i64,
        );
        System.realloc(ptr, layout, new_size)
    }
}

fn record(bytes: u64) {
    let _ = ALLOC_BYTES.try_with(|b| b.set(b.get().wrapping_add(bytes)));
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
    record_live(bytes as i64);
}

fn record_free(bytes: i64) {
    record_live(-bytes);
}

fn record_live(delta: i64) {
    if delta == 0 {
        return;
    }
    let _ = LIVE_BYTES.try_with(|l| {
        let live = l.get() + delta;
        l.set(live);
        if delta > 0 {
            let _ = PEAK_BYTES.try_with(|p| {
                if live > p.get() {
                    p.set(live);
                }
            });
        }
    });
    let live = GLOBAL_LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        GLOBAL_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Current thread's cumulative (bytes, count) allocation counters. Zeros
/// unless [`CountingAlloc`] is installed as the global allocator.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
        ALLOC_COUNT.try_with(Cell::get).unwrap_or(0),
    )
}

/// Current thread's (live bytes, peak live bytes), clamped at zero (a
/// thread that frees buffers allocated elsewhere can drift negative).
pub fn alloc_live_peak() -> (u64, u64) {
    let live = LIVE_BYTES.try_with(Cell::get).unwrap_or(0).max(0) as u64;
    let peak = PEAK_BYTES.try_with(Cell::get).unwrap_or(0).max(0) as u64;
    (live, peak)
}

/// Reset the current thread's peak to its current live level and return the
/// live level. [`crate::stage::StageTimer`] calls this at stage start so
/// the stage's `peak_bytes` measures the high-water mark *within* the
/// stage, not a leftover from earlier work.
pub fn reset_thread_peak() -> i64 {
    LIVE_BYTES
        .try_with(|l| {
            let live = l.get();
            let _ = PEAK_BYTES.try_with(|p| p.set(live));
            live
        })
        .unwrap_or(0)
}

/// Current thread's peak live bytes as a signed raw reading (used with the
/// [`reset_thread_peak`] baseline to compute a per-stage delta).
pub fn thread_peak_raw() -> i64 {
    PEAK_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Process-wide (live bytes, peak live bytes), clamped at zero; zeros
/// unless [`CountingAlloc`] is installed.
pub fn global_live_peak() -> (u64, u64) {
    (
        GLOBAL_LIVE.load(Ordering::Relaxed).max(0) as u64,
        GLOBAL_PEAK.load(Ordering::Relaxed).max(0) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_and_peak_follow_alloc_free_cycles() {
        let _guard = crate::test_lock();
        // Drive the recording hooks directly: the unit-test binary does not
        // install the global allocator, so the counters move only when we
        // push them.
        let (_, peak0) = alloc_live_peak();
        record(10_000);
        let (live1, peak1) = alloc_live_peak();
        assert!(live1 >= 10_000);
        assert!(peak1 >= peak0.max(10_000));
        record_free(10_000);
        let (live2, peak2) = alloc_live_peak();
        assert!(live2 <= live1 - 10_000 || live1 < 10_000);
        assert_eq!(peak2, peak1, "peak never moves down on free");
    }

    #[test]
    fn reset_thread_peak_rebases_to_live() {
        let _guard = crate::test_lock();
        record(4_096);
        record_free(4_096);
        let live = reset_thread_peak();
        assert_eq!(thread_peak_raw(), live);
        record(123);
        assert!(thread_peak_raw() >= live + 123);
        record_free(123);
    }

    #[test]
    fn global_gauge_moves_on_every_recording() {
        let _guard = crate::test_lock();
        let (live0, _) = global_live_peak();
        record(100);
        let (live1, peak1) = global_live_peak();
        assert_eq!(live1, live0 + 100);
        assert!(peak1 >= live1);
        record_free(100);
        assert_eq!(global_live_peak().0, live0);
    }
}
