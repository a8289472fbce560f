//! A process-wide counting allocator: live bytes, the high-water mark of
//! live bytes, and the cumulative bytes allocated. The benchmark installs it
//! as its `#[global_allocator]`, so every layer it calls into is counted
//! without instrumenting the layer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed throughout: these are statistics and publish no other data.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over the system allocator.
pub struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    TOTAL.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call defers to `System` with the caller's arguments
// unchanged; the bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Bytes allocated since the process started (frees not subtracted).
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Lower the high-water mark to the current live level and return what it
/// was, so a caller can measure the peak of an interval and then restore
/// the enclosing interval's mark with [`raise_peak`].
pub fn reset_peak() -> u64 {
    PEAK.swap(live(), Ordering::Relaxed)
}

/// The high-water mark of live bytes since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Raise the high-water mark to at least `bytes`.
pub fn raise_peak(bytes: u64) {
    PEAK.fetch_max(bytes, Ordering::Relaxed);
}

/// Bytes to mebibytes.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `VmHWM` (peak resident set) of process `pid`, or of this process when
/// `None`, in MiB.
pub fn vm_hwm_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
