//! Per-phase progress tracking with periodic heartbeats.
//!
//! A phase (per-component assignment, the pool's worker loop, a batch
//! run) opens a [`Progress`] handle with a known item total and calls
//! [`Progress::tick`] as items complete. The handle is
//! `Sync`: pool workers tick one shared handle by reference. While the
//! collector is disabled [`progress`] returns an inert handle after a
//! single relaxed atomic load and every `tick` is a no-op on a `None`.
//!
//! Live state goes to a dedicated registry read by the `/metrics` endpoint
//! ([`progress_snapshot`]) — deliberately *not* the deterministic
//! counter/histogram registries, which must stay byte-identical across
//! worker counts ([`crate::take`] clears this registry so enable/drain
//! cycles stay independent). Heartbeat events (done/total/elapsed) are
//! rate-limited and land in the flight-recorder ring; setting the
//! `PARMEM_HEARTBEAT` environment variable additionally prints them to
//! stderr with an ETA.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::span::enabled;

static REGISTRY: Mutex<BTreeMap<String, Arc<PhaseInner>>> = Mutex::new(BTreeMap::new());

/// Minimum interval between time-based heartbeats for one phase.
const HEARTBEAT_INTERVAL_MS: u64 = 250;

struct PhaseInner {
    name: String,
    total: u64,
    done: AtomicU64,
    start: Instant,
    finished: AtomicBool,
    /// Elapsed-ms timestamp of the last emitted heartbeat.
    last_beat_ms: AtomicU64,
}

/// True when `PARMEM_HEARTBEAT` is set (cached at first use): heartbeats
/// are echoed to stderr in addition to the flight ring.
fn stderr_heartbeats() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("PARMEM_HEARTBEAT").is_some())
}

/// Live view of one phase, as served by the metrics endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Phase name (e.g. `assign.components`).
    pub phase: String,
    /// Items completed so far.
    pub done: u64,
    /// Item total declared at open (0 when unknown).
    pub total: u64,
    /// Nanoseconds since the phase opened.
    pub elapsed_ns: u64,
    /// True once the phase's handle dropped.
    pub finished: bool,
}

/// Open a progress phase of `total` items. Returns an inert handle (one
/// relaxed atomic load, no allocation) while the collector is disabled —
/// unless `PARMEM_HEARTBEAT` is set, which arms progress tracking on its
/// own so heartbeats work without any profiling flag (the cached env
/// check costs one more relaxed load on this cold path).
/// Re-opening a phase name replaces the previous entry (latest wins).
pub fn progress(phase: &str, total: u64) -> Progress {
    if !enabled() && !stderr_heartbeats() {
        return Progress(None);
    }
    let inner = Arc::new(PhaseInner {
        name: phase.to_string(),
        total,
        done: AtomicU64::new(0),
        start: Instant::now(),
        finished: AtomicBool::new(false),
        last_beat_ms: AtomicU64::new(0),
    });
    if let Ok(mut reg) = REGISTRY.lock() {
        reg.insert(phase.to_string(), Arc::clone(&inner));
    }
    Progress(Some(inner))
}

/// RAII handle for one phase; emits a final heartbeat and marks the phase
/// finished on drop. Shareable across the phase's worker threads (`tick`
/// takes `&self`).
pub struct Progress(Option<Arc<PhaseInner>>);

impl Progress {
    /// Record `n` completed items; emits a rate-limited heartbeat when due.
    pub fn tick(&self, n: u64) {
        let Some(inner) = &self.0 else { return };
        let done = inner.done.fetch_add(n, Ordering::Relaxed) + n;
        let elapsed_ms = inner.start.elapsed().as_millis() as u64;
        let last = inner.last_beat_ms.load(Ordering::Relaxed);
        if elapsed_ms.saturating_sub(last) < HEARTBEAT_INTERVAL_MS {
            return;
        }
        if inner
            .last_beat_ms
            .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            // Time-based beats are inherently racy, so the deterministic
            // flight mode suppresses them (the finish beat still lands).
            if !crate::flight::deterministic() {
                inner.heartbeat(done);
            }
        }
    }

    /// True when this handle is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        inner.finished.store(true, Ordering::Relaxed);
        inner.heartbeat(inner.done.load(Ordering::Relaxed));
    }
}

impl PhaseInner {
    fn heartbeat(&self, done: u64) {
        let elapsed_ns = self.start.elapsed().as_nanos() as u64;
        crate::flight::record_heartbeat(&self.name, done, self.total, elapsed_ns);
        if stderr_heartbeats() {
            let pct = if self.total > 0 {
                done as f64 * 100.0 / self.total as f64
            } else {
                0.0
            };
            let eta = if done > 0 && self.total > done {
                crate::fmt_duration(elapsed_ns / done * (self.total - done))
            } else {
                "-".to_string()
            };
            eprintln!(
                "heartbeat {}: {done}/{} ({pct:.1}%) elapsed {} eta {eta}",
                self.name,
                self.total,
                crate::fmt_duration(elapsed_ns),
            );
        }
    }
}

/// Snapshot every live phase, sorted by phase name.
pub fn progress_snapshot() -> Vec<PhaseSnapshot> {
    let Ok(reg) = REGISTRY.lock() else {
        return Vec::new();
    };
    reg.values()
        .map(|p| PhaseSnapshot {
            phase: p.name.clone(),
            done: p.done.load(Ordering::Relaxed),
            total: p.total,
            elapsed_ns: p.start.elapsed().as_nanos() as u64,
            finished: p.finished.load(Ordering::Relaxed),
        })
        .collect()
}

/// Empty the phase registry (called by [`crate::take`]).
pub(crate) fn clear_registry() {
    if let Ok(mut reg) = REGISTRY.lock() {
        reg.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn disabled_progress_is_inert() {
        let _guard = crate::test_lock();
        set_enabled(false);
        clear_registry();
        let p = progress("quiet.phase", 100);
        assert!(!p.is_recording());
        p.tick(10);
        assert!(progress_snapshot().is_empty());
    }

    #[test]
    fn ticks_accumulate_and_drop_finishes() {
        let _guard = crate::test_lock();
        set_enabled(true);
        clear_registry();
        let p = progress("test.phase", 50);
        assert!(p.is_recording());
        p.tick(20);
        p.tick(5);
        let snap = progress_snapshot();
        let ph = snap.iter().find(|s| s.phase == "test.phase").unwrap();
        assert_eq!((ph.done, ph.total, ph.finished), (25, 50, false));
        drop(p);
        let snap = progress_snapshot();
        let ph = snap.iter().find(|s| s.phase == "test.phase").unwrap();
        assert!(ph.finished);
        set_enabled(false);
        crate::take();
        assert!(progress_snapshot().is_empty(), "take() clears the registry");
    }

    #[test]
    fn reopening_a_phase_replaces_it() {
        let _guard = crate::test_lock();
        set_enabled(true);
        clear_registry();
        let p1 = progress("re.phase", 10);
        p1.tick(10);
        drop(p1);
        let p2 = progress("re.phase", 99);
        p2.tick(1);
        let snap = progress_snapshot();
        let ph = snap.iter().find(|s| s.phase == "re.phase").unwrap();
        assert_eq!((ph.done, ph.total), (1, 99));
        drop(p2);
        set_enabled(false);
        crate::take();
    }

    #[test]
    fn shared_handle_ticks_from_threads() {
        let _guard = crate::test_lock();
        set_enabled(true);
        clear_registry();
        let p = progress("mt.phase", 64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..16 {
                        p.tick(1);
                    }
                });
            }
        });
        let snap = progress_snapshot();
        let ph = snap.iter().find(|s| s.phase == "mt.phase").unwrap();
        assert_eq!(ph.done, 64);
        drop(p);
        set_enabled(false);
        crate::take();
    }
}
