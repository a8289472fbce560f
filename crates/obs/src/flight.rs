//! Flight recorder: a fixed-capacity lock-free-writer ring of recent
//! telemetry events, dumped as a JSON artifact on panic or on demand.
//!
//! While the recorder is active, every span closure and progress heartbeat
//! lands in the ring (one relaxed atomic load plus a `try_lock` on one
//! slot; when inactive the cost is the single load). The ring keeps the
//! last `capacity` events: a writer claims a slot with a global
//! `fetch_add` sequence number and writes it under a per-slot `try_lock` —
//! a writer that loses the race for a slot mid-wraparound simply drops the
//! *older* event rather than blocking, so writers never wait (the ring is
//! obstruction-free, not loss-free; capacity is sized so losses only
//! happen under extreme contention).
//!
//! [`install`] arms the recorder and chains a panic hook, so any crash —
//! including panics later caught by the batch engine's per-job isolation —
//! writes the last N events plus a live metric snapshot to the configured
//! `--flight-dump` path. The dump is a Chrome-trace-compatible JSON
//! document (`traceEvents` holds complete `X` events; heartbeats ride
//! along with `dur` 0) that [`crate::chrome::validate`] accepts, with
//! extra top-level sections for counters, histograms, progress, and
//! allocator high-water marks. With `PARMEM_FLIGHT_DETERMINISTIC` set (or
//! `deterministic` passed to [`install`]) timestamps, durations, and
//! thread ids are zeroed and time-based heartbeats are suppressed, making
//! the artifact byte-identical across runs of deterministic work.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json;
use crate::span::SpanRecord;

/// Ring capacity used by [`install`] when the caller does not choose one.
pub const DEFAULT_CAPACITY: usize = 256;

/// One recorded event: a closed span or a progress heartbeat.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// What kind of event this is.
    pub kind: FlightEventKind,
    /// Span name or heartbeat phase.
    pub name: String,
    /// Start offset from the collector epoch, nanoseconds (heartbeats
    /// store their emission offset).
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for heartbeats).
    pub dur_ns: u64,
    /// Dense per-thread index (0 for heartbeats).
    pub thread: u64,
    /// Heartbeat progress `(done, total)`; `(0, 0)` for spans.
    pub done: u64,
    /// See `done`.
    pub total: u64,
}

/// Discriminates [`FlightEvent`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A closed tracing span.
    Span,
    /// A progress heartbeat.
    Heartbeat,
}

/// Fixed-capacity ring of `(sequence, event)` pairs with non-blocking
/// writers (see module docs). Public so tests can drive a private instance;
/// the recorder itself uses one process-global ring.
pub struct Ring {
    slots: Vec<Mutex<Option<(u64, FlightEvent)>>>,
    seq: AtomicU64,
}

impl Ring {
    /// A ring keeping the most recent `capacity` events (capacity is
    /// clamped to at least 1).
    pub fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            seq: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (monotonic; `>= capacity` means wrapped).
    pub fn pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Append an event, overwriting the oldest once full. Never blocks: a
    /// contended slot drops the older of the two racing events.
    pub fn push(&self, ev: FlightEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        if let Ok(mut s) = self.slots[slot].try_lock() {
            // A slower writer may already have stored a *newer* seq here;
            // never roll a slot backwards.
            if s.as_ref().is_none_or(|(old, _)| *old < seq) {
                *s = Some((seq, ev));
            }
        }
    }

    /// The retained events, oldest first (sorted by sequence number).
    pub fn recent(&self) -> Vec<(u64, FlightEvent)> {
        let mut out: Vec<(u64, FlightEvent)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().ok().and_then(|g| g.clone()))
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static DETERMINISTIC: AtomicBool = AtomicBool::new(false);
static RING: OnceLock<Ring> = OnceLock::new();
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
static HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);
static DUMPING: AtomicBool = AtomicBool::new(false);

/// Arm the flight recorder: allocate the global ring (its capacity is
/// fixed by the first install), remember the dump path for the panic
/// hook, and chain that hook (once per process). `deterministic` — or the
/// `PARMEM_FLIGHT_DETERMINISTIC` environment variable — selects the
/// byte-stable dump mode described in the module docs.
pub fn install(capacity: usize, dump_path: Option<PathBuf>, deterministic: bool) {
    RING.get_or_init(|| Ring::new(capacity));
    let det = deterministic || std::env::var_os("PARMEM_FLIGHT_DETERMINISTIC").is_some();
    DETERMINISTIC.store(det, Ordering::Relaxed);
    if let Ok(mut p) = DUMP_PATH.lock() {
        *p = dump_path;
    }
    if !HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Reentrancy guard: a panic while dumping must not recurse.
            if !DUMPING.swap(true, Ordering::SeqCst) {
                let message = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                let location = info
                    .location()
                    .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
                    .unwrap_or_else(|| "<unknown>".to_string());
                let _ = dump_to_configured_path("panic", Some((&message, &location)));
                DUMPING.store(false, Ordering::SeqCst);
            }
            prev(info);
        }));
    }
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Stop recording (the ring and dump path stay in place, so a later
/// [`install`] re-arms without losing history).
pub fn deactivate() {
    ACTIVE.store(false, Ordering::Relaxed);
}

/// True when the recorder is armed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// True in the byte-stable dump mode.
pub fn deterministic() -> bool {
    DETERMINISTIC.load(Ordering::Relaxed)
}

/// Record a closed span (called from `SpanGuard::drop`; a single relaxed
/// load when the recorder is not armed).
pub(crate) fn record_span(rec: &SpanRecord) {
    if !active() {
        return;
    }
    if let Some(ring) = RING.get() {
        ring.push(FlightEvent {
            kind: FlightEventKind::Span,
            name: rec.name.clone(),
            start_ns: rec.start_ns,
            dur_ns: rec.dur_ns,
            thread: rec.thread,
            done: 0,
            total: 0,
        });
    }
}

/// Record a progress heartbeat (called from [`crate::progress`]).
pub(crate) fn record_heartbeat(phase: &str, done: u64, total: u64, elapsed_ns: u64) {
    if !active() {
        return;
    }
    if let Some(ring) = RING.get() {
        ring.push(FlightEvent {
            kind: FlightEventKind::Heartbeat,
            name: format!("heartbeat.{phase}"),
            start_ns: elapsed_ns,
            dur_ns: 0,
            thread: 0,
            done,
            total,
        });
    }
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render the flight dump: ring contents as Chrome-trace `X` events plus
/// live counter/histogram/progress/allocator snapshots. `panic` carries
/// `(message, location)` when the dump is panic-triggered.
pub fn dump_json(reason: &str, panic: Option<(&str, &str)>) -> String {
    let det = deterministic();
    let events = RING.get().map(|r| r.recent()).unwrap_or_default();
    let mut out = String::from("{\"schema\":\"parmem-flight/v1\"");
    let _ = write!(out, ",\"reason\":\"{}\"", json::escape(reason));
    match panic {
        Some((msg, loc)) => {
            let _ = write!(
                out,
                ",\"panic\":{{\"message\":\"{}\",\"location\":\"{}\"}}",
                json::escape(msg),
                json::escape(loc)
            );
        }
        None => out.push_str(",\"panic\":null"),
    }
    out.push_str(",\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (n, (_, ev)) in events.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let (ts, dur, tid) = if det {
            ("0.000".to_string(), "0.000".to_string(), 0)
        } else {
            (micros(ev.start_ns), micros(ev.dur_ns), ev.thread)
        };
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":\"{}\"",
            json::escape(&ev.name)
        );
        if ev.kind == FlightEventKind::Heartbeat {
            let _ = write!(
                out,
                ",\"args\":{{\"done\":{},\"total\":{}}}",
                ev.done, ev.total
            );
        }
        out.push('}');
    }
    let live = crate::export::snapshot_metrics();
    out.push_str("],\"counters\":{");
    for (n, (name, v)) in live.counters.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json::escape(name), v);
    }
    out.push_str("},\"histograms\":{");
    for (n, (name, h)) in live.hists.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{}}}",
            json::escape(name),
            h.count,
            h.sum,
            h.max
        );
    }
    out.push_str("},\"progress\":[");
    for (n, p) in crate::progress_snapshot().iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"phase\":\"{}\",\"done\":{},\"total\":{},\"finished\":{}}}",
            json::escape(&p.phase),
            p.done,
            p.total,
            p.finished
        );
    }
    let (live_bytes, peak_bytes) = if det {
        (0, 0)
    } else {
        crate::alloc::global_live_peak()
    };
    let _ = write!(
        out,
        "],\"alloc\":{{\"live_bytes\":{live_bytes},\"peak_bytes\":{peak_bytes}}}}}"
    );
    out
}

/// Write [`dump_json`] to `path`.
pub fn dump_to(path: &Path, reason: &str, panic: Option<(&str, &str)>) -> std::io::Result<()> {
    std::fs::write(path, dump_json(reason, panic))
}

/// Write the dump to the path configured by [`install`]; no-op without one.
pub fn dump_to_configured_path(reason: &str, panic: Option<(&str, &str)>) -> std::io::Result<bool> {
    let path = DUMP_PATH.lock().ok().and_then(|p| p.clone());
    match path {
        Some(p) => dump_to(&p, reason, panic).map(|()| true),
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str) -> FlightEvent {
        FlightEvent {
            kind: FlightEventKind::Span,
            name: name.to_string(),
            start_ns: 1,
            dur_ns: 2,
            thread: 1,
            done: 0,
            total: 0,
        }
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let r = Ring::new(4);
        for i in 0..10 {
            r.push(ev(&format!("e{i}")));
        }
        let names: Vec<String> = r.recent().into_iter().map(|(_, e)| e.name).collect();
        assert_eq!(names, ["e6", "e7", "e8", "e9"]);
        assert_eq!(r.pushed(), 10);
    }

    #[test]
    fn ring_under_capacity_returns_everything() {
        let r = Ring::new(8);
        r.push(ev("a"));
        r.push(ev("b"));
        let seqs: Vec<u64> = r.recent().into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, [0, 1]);
    }

    #[test]
    fn dump_json_is_valid_chrome_trace() {
        // Uses only the pure renderer paths (no global ring installed in
        // this test binary), so the traceEvents array may be empty — the
        // document must still parse and validate.
        let doc = dump_json("test", Some(("boom", "src/x.rs:1:1")));
        crate::json::parse(&doc).expect("dump parses");
        crate::chrome::validate(&doc).expect("dump chrome-validates");
        assert!(doc.contains("\"reason\":\"test\""));
        assert!(doc.contains("\"message\":\"boom\""));
    }
}
