//! Nested wall-clock spans with key/value attributes.
//!
//! A [`SpanGuard`] is opened with [`crate::span`] and records itself into the
//! global collector when dropped. Nesting comes from a per-thread stack: the
//! span open when a new one starts becomes its parent, so properly scoped
//! guards produce a well-formed forest per thread (work-stealing jobs run a
//! whole pipeline on one thread, so each job's spans form one tree).
//!
//! When tracing is disabled (the default) every entry point is a single
//! relaxed atomic load — no allocation, no clock read, no lock.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static CLOSED_SPANS: Cell<u64> = const { Cell::new(0) };
}

/// The collector's time origin, fixed at first use so `start_ns` offsets are
/// comparable across threads.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn span/metric collection on or off (process-wide). Off by default;
/// while off, every instrumentation call is a single atomic load.
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // fix the time origin before the first span
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when the collector is recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of spans closed on the current thread since it started (monotonic;
/// used by [`crate::stage::StageTimer`] to attribute span counts to stages).
pub fn thread_closed_spans() -> u64 {
    CLOSED_SPANS.with(Cell::get)
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// One attribute value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    Uint(u64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Uint(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Uint(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Uint(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// A finished span as stored by the collector.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Collector-unique id (allocation order, not deterministic across
    /// worker counts — deterministic exporters omit it).
    pub id: u64,
    /// Id of the span that was open on this thread when this one started.
    pub parent: Option<u64>,
    /// Span name (static instrumentation label like `assign.color`).
    pub name: String,
    /// Start offset from the collector epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Dense per-thread index (1-based, assignment order).
    pub thread: u64,
    /// Attributes in the order they were recorded.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
    start_ns: u64,
    thread: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// RAII guard for one span; records itself on drop. Inert (zero-cost) when
/// tracing was disabled at open time.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Attach an attribute. No-op on an inert guard.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(a) = &mut self.0 {
            a.attrs.push((key, value.into()));
        }
    }

    /// True when this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&a.id) {
                s.pop();
            } else {
                // Out-of-order drop (guard outlived its scope): remove
                // wherever it is so the stack stays usable.
                s.retain(|&id| id != a.id);
            }
        });
        CLOSED_SPANS.with(|c| c.set(c.get() + 1));
        let rec = SpanRecord {
            id: a.id,
            parent: a.parent,
            name: a.name,
            start_ns: a.start_ns,
            dur_ns,
            thread: a.thread,
            attrs: a.attrs,
        };
        crate::flight::record_span(&rec);
        if let Ok(mut records) = RECORDS.lock() {
            records.push(rec);
        }
    }
}

/// Open a span. Returns an inert guard (no allocation performed) when
/// tracing is disabled.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start = Instant::now();
    SpanGuard(Some(ActiveSpan {
        id,
        parent,
        name: name.to_string(),
        start,
        start_ns: start.duration_since(epoch()).as_nanos() as u64,
        thread: thread_id(),
        attrs: Vec::new(),
    }))
}

/// Drain all finished spans out of the collector.
pub(crate) fn take_records() -> Vec<SpanRecord> {
    RECORDS
        .lock()
        .map(|mut g| std::mem::take(&mut *g))
        .unwrap_or_default()
}

/// Drop every finished span without exporting it. A long-running process
/// with no profiling sink (the serve daemon) calls this after each request
/// so the span history cannot grow without bound; counters, histograms and
/// the flight recorder's ring are untouched.
pub fn drop_spans() {
    drop(take_records());
}

/// Clone all finished spans without draining ([`crate::snapshot`]).
pub(crate) fn snapshot_records() -> Vec<SpanRecord> {
    RECORDS.lock().map(|g| g.clone()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global state with the exporter tests; the
    // crate-level `test_lock` serializes them.
    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock();
        set_enabled(false);
        take_records();
        {
            let mut sp = span("quiet");
            sp.attr("x", 1u64);
            assert!(!sp.is_recording());
        }
        assert_eq!(take_records().len(), 0);
    }

    #[test]
    fn dropped_spans_leave_counters() {
        let _guard = crate::test_lock();
        set_enabled(true);
        take_records();
        drop(span("dropped"));
        crate::counter_add("kept", 1);
        drop_spans();
        set_enabled(false);
        let session = crate::take();
        assert!(session.spans.is_empty());
        assert_eq!(session.counters.get("kept"), Some(&1));
    }

    #[test]
    fn nesting_assigns_parents() {
        let _guard = crate::test_lock();
        set_enabled(true);
        take_records();
        {
            let _a = span("outer");
            {
                let mut b = span("inner");
                b.attr("n", 3u64);
            }
        }
        set_enabled(false);
        let recs = take_records();
        assert_eq!(recs.len(), 2);
        let inner = recs.iter().find(|r| r.name == "inner").unwrap();
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.attrs, vec![("n", AttrValue::Uint(3))]);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn closed_span_counter_advances() {
        let _guard = crate::test_lock();
        set_enabled(true);
        let before = thread_closed_spans();
        drop(span("counted"));
        assert_eq!(thread_closed_spans(), before + 1);
        set_enabled(false);
        take_records();
    }
}
