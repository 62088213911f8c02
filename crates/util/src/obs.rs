//! Structured observability: hierarchical spans, counters/gauges, and a
//! structured event log with pluggable sinks.
//!
//! The pipeline this workspace reproduces (GraphGen → Boolean constraints
//! → SAT → port propagation → driver state machines) was a black box: the
//! only instrumentation was the SAT crate's `SolverStats`. This module is
//! the measurement layer everything else plugs into:
//!
//! * [`Obs`] — a cheap-to-clone handle. A *disabled* handle
//!   ([`Obs::disabled`], also [`Obs::default`]) makes every operation a
//!   no-op branch, so instrumented code pays nothing when nobody is
//!   watching.
//! * **Spans** ([`Obs::span`]) — monotonic-clock timed, thread-aware
//!   intervals. Nesting is tracked per thread; a span started on a worker
//!   thread can be parented explicitly with [`Obs::span_under`], so
//!   work handed to a pool hangs off the span that dispatched it.
//! * **Counters and gauges** ([`Obs::counter`], [`Obs::gauge`]) —
//!   atomically updated, snapshot with [`Obs::metrics`]. Handles can be
//!   pre-resolved once and bumped from hot loops (the SAT solver does
//!   this for decisions/propagations/conflicts/restarts).
//! * **Events** ([`Obs::event`]) — one-off structured facts (a driver
//!   transition, an injected failure, a monitor restart).
//! * **Sinks** ([`Sink`]) — where span/event records go.
//!   [`MemorySink`] collects records for test assertions; [`JsonlSink`]
//!   streams them as JSON Lines for tools (`engage --trace out.jsonl`).
//!
//! # Examples
//!
//! ```
//! use engage_util::obs::{MemorySink, Obs, Record};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let obs = Obs::new().with_sink(sink.clone());
//! {
//!     let _outer = obs.span("pipeline");
//!     let _inner = obs.span("phase-1");
//!     obs.counter("work.items").add(3);
//! }
//! let spans = sink.finished_spans();
//! assert_eq!(spans.len(), 2);
//! // "phase-1" finished first and is a child of "pipeline".
//! assert_eq!(spans[0].name, "phase-1");
//! assert_eq!(spans[0].parent, Some(spans[1].id));
//! assert_eq!(obs.metrics().counter("work.items"), 3);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Identifier of a span, unique within one [`Obs`].
pub type SpanId = u64;

/// One structured record emitted to the sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A span opened.
    SpanStart {
        /// Span id (unique per [`Obs`]).
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Span name (dotted taxonomy, e.g. `config.solve`).
        name: String,
        /// Name of the thread that opened the span.
        thread: String,
        /// Monotonic time since the `Obs` was created.
        at: Duration,
        /// Extra key/value context.
        fields: Vec<(String, String)>,
    },
    /// A span closed.
    SpanEnd {
        /// Span id matching the start record.
        id: SpanId,
        /// Span name, repeated for easy grepping.
        name: String,
        /// Monotonic close time since the `Obs` was created.
        at: Duration,
        /// Wall-clock the span covered.
        elapsed: Duration,
    },
    /// A one-off structured event.
    Event {
        /// Event name (dotted taxonomy, e.g. `driver.transition`).
        name: String,
        /// Span the event occurred under, if any.
        parent: Option<SpanId>,
        /// Name of the emitting thread.
        thread: String,
        /// Monotonic time since the `Obs` was created.
        at: Duration,
        /// Extra key/value context.
        fields: Vec<(String, String)>,
    },
}

/// An aggregate snapshot of every counter and gauge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter name → accumulated value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → last value set.
    pub gauges: BTreeMap<String, i64>,
}

impl MetricsSnapshot {
    /// The value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of a gauge (0 when never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Renders the snapshot as one JSON object (a `{"type":"metrics"}`
    /// JSONL line without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"type\":\"metrics\",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(k)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(k)));
        }
        out.push_str("}}");
        out
    }
}

/// Where records go. Implementations must tolerate concurrent calls.
pub trait Sink: Send + Sync {
    /// Consumes one span/event record.
    fn record(&self, record: &Record);

    /// Consumes a metrics snapshot (emitted by [`Obs::flush_metrics`]).
    fn metrics(&self, _snapshot: &MetricsSnapshot) {}
}

struct Inner {
    epoch: Instant,
    next_span: AtomicU64,
    sinks: Mutex<Vec<Arc<dyn Sink>>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
}

/// The observability handle. Clones share state; the [`Obs::disabled`]
/// handle turns every operation into a cheap no-op.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

// Per-thread stack of open spans: (obs identity, span id). The identity
// disambiguates interleaved spans from different `Obs` instances on the
// same thread.
thread_local! {
    static SPAN_STACK: RefCell<Vec<(usize, SpanId)>> = const { RefCell::new(Vec::new()) };
}

impl Obs {
    /// An enabled handle with no sinks yet (counters/gauges work; spans
    /// and events are dropped until a sink is attached).
    pub fn new() -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                sinks: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// The no-op handle: every operation is a branch on `None`.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a sink (builder-style).
    pub fn with_sink(self, sink: Arc<dyn Sink>) -> Self {
        self.add_sink(sink);
        self
    }

    /// Attaches a sink to a shared handle.
    pub fn add_sink(&self, sink: Arc<dyn Sink>) {
        if let Some(inner) = &self.inner {
            lock(&inner.sinks).push(sink);
        }
    }

    fn identity(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| Arc::as_ptr(i) as usize)
            .unwrap_or(0)
    }

    fn emit(&self, record: Record) {
        if let Some(inner) = &self.inner {
            for sink in lock(&inner.sinks).iter() {
                sink.record(&record);
            }
        }
    }

    /// Opens a span named `name` under the current thread's innermost
    /// open span. Ends (and records its duration) when the guard drops.
    pub fn span(&self, name: &str) -> Span {
        let parent = self.current_span();
        self.open_span(name, parent, &[])
    }

    /// Opens a span under an explicit parent (for work handed to another
    /// thread, where the thread-local nesting chain breaks), with extra
    /// key/value context on its start record.
    pub fn span_under(&self, name: &str, parent: Option<SpanId>, fields: &[(&str, &str)]) -> Span {
        self.open_span(name, parent, fields)
    }

    /// Opens a span with extra key/value context on its start record.
    pub fn span_with(&self, name: &str, fields: &[(&str, &str)]) -> Span {
        let parent = self.current_span();
        self.open_span(name, parent, fields)
    }

    /// The innermost open span on this thread, if any.
    pub fn current_span(&self) -> Option<SpanId> {
        self.inner.as_ref()?;
        let me = self.identity();
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(owner, _)| *owner == me)
                .map(|(_, id)| *id)
        })
    }

    fn open_span(&self, name: &str, parent: Option<SpanId>, fields: &[(&str, &str)]) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                obs: Obs::disabled(),
                id: 0,
                name: String::new(),
                started: Instant::now(),
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let me = self.identity();
        SPAN_STACK.with(|s| s.borrow_mut().push((me, id)));
        self.emit(Record::SpanStart {
            id,
            parent,
            name: name.to_owned(),
            thread: thread_name(),
            at: inner.epoch.elapsed(),
            fields: own_fields(fields),
        });
        Span {
            obs: self.clone(),
            id,
            name: name.to_owned(),
            started: Instant::now(),
        }
    }

    /// Emits a structured event under the current thread's open span.
    pub fn event(&self, name: &str, fields: &[(&str, &str)]) {
        let Some(inner) = &self.inner else { return };
        let parent = self.current_span();
        self.emit(Record::Event {
            name: name.to_owned(),
            parent,
            thread: thread_name(),
            at: inner.epoch.elapsed(),
            fields: own_fields(fields),
        });
    }

    /// Resolves (creating on first use) the counter named `name`. The
    /// returned handle can be kept and bumped from hot loops without
    /// further lookups.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter { cell: None },
            Some(inner) => {
                let cell = lock(&inner.counters)
                    .entry(name.to_owned())
                    .or_default()
                    .clone();
                Counter { cell: Some(cell) }
            }
        }
    }

    /// Resolves (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge { cell: None },
            Some(inner) => {
                let cell = lock(&inner.gauges)
                    .entry(name.to_owned())
                    .or_default()
                    .clone();
                Gauge { cell: Some(cell) }
            }
        }
    }

    /// Snapshots every counter and gauge.
    pub fn metrics(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        MetricsSnapshot {
            counters: lock(&inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: lock(&inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// Pushes the current metrics snapshot to every sink (a `JsonlSink`
    /// writes it as the trailing `{"type":"metrics"}` line).
    pub fn flush_metrics(&self) {
        if let Some(inner) = &self.inner {
            let snapshot = self.metrics();
            for sink in lock(&inner.sinks).iter() {
                sink.metrics(&snapshot);
            }
        }
    }
}

/// RAII guard for an open span; records the span's end (with elapsed
/// wall-clock) when dropped.
#[derive(Debug)]
pub struct Span {
    obs: Obs,
    id: SpanId,
    name: String,
    started: Instant,
}

impl Span {
    /// This span's id — pass to [`Obs::span_under`] to parent work done
    /// on other threads.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = &self.obs.inner else { return };
        let me = self.obs.identity();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(owner, id)| owner == me && id == self.id)
            {
                stack.remove(pos);
            }
        });
        self.obs.emit(Record::SpanEnd {
            id: self.id,
            name: std::mem::take(&mut self.name),
            at: inner.epoch.elapsed(),
            elapsed: self.started.elapsed(),
        });
    }
}

/// A pre-resolved counter handle; `add` is one atomic op (or a no-op for
/// a disabled [`Obs`]).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A pre-resolved gauge handle; `set` is one atomic op.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Sets the gauge to `max(current, value)`.
    pub fn set_max(&self, value: i64) {
        if let Some(cell) = &self.cell {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> i64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

// ------------------------------------------------------------- sinks

/// A finished span reassembled from a start/end record pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedSpan {
    /// Span id.
    pub id: SpanId,
    /// Parent span id, if any.
    pub parent: Option<SpanId>,
    /// Span name.
    pub name: String,
    /// Opening thread's name.
    pub thread: String,
    /// Start time relative to the `Obs` epoch.
    pub start: Duration,
    /// Wall-clock covered.
    pub elapsed: Duration,
    /// Key/value context from the start record.
    pub fields: Vec<(String, String)>,
}

/// In-memory sink for tests: keeps every record (and metrics snapshot)
/// in arrival order.
#[derive(Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
    snapshots: Mutex<Vec<MetricsSnapshot>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every record seen so far, in arrival order.
    pub fn records(&self) -> Vec<Record> {
        lock(&self.records).clone()
    }

    /// Every metrics snapshot flushed so far.
    pub fn snapshots(&self) -> Vec<MetricsSnapshot> {
        lock(&self.snapshots).clone()
    }

    /// Finished spans (start/end pairs joined), ordered by end time.
    pub fn finished_spans(&self) -> Vec<FinishedSpan> {
        let records = self.records();
        let mut out = Vec::new();
        for r in &records {
            let Record::SpanEnd {
                id, at, elapsed, ..
            } = r
            else {
                continue;
            };
            let start = records.iter().find_map(|s| match s {
                Record::SpanStart {
                    id: sid,
                    parent,
                    name,
                    thread,
                    at,
                    fields,
                } if sid == id => Some(FinishedSpan {
                    id: *sid,
                    parent: *parent,
                    name: name.clone(),
                    thread: thread.clone(),
                    start: *at,
                    elapsed: *elapsed,
                    fields: fields.clone(),
                }),
                _ => None,
            });
            if let Some(mut f) = start {
                f.elapsed = *elapsed;
                f.start = f.start.min(*at);
                out.push(f);
            }
        }
        out
    }

    /// Events matching `name`, in arrival order.
    pub fn events_named(&self, name: &str) -> Vec<Record> {
        self.records()
            .into_iter()
            .filter(|r| matches!(r, Record::Event { name: n, .. } if n == name))
            .collect()
    }
}

impl Sink for MemorySink {
    fn record(&self, record: &Record) {
        lock(&self.records).push(record.clone());
    }

    fn metrics(&self, snapshot: &MetricsSnapshot) {
        lock(&self.snapshots).push(snapshot.clone());
    }
}

/// Streams records as JSON Lines to any writer (one object per line).
pub struct JsonlSink {
    writer: Mutex<Box<dyn std::io::Write + Send>>,
}

impl JsonlSink {
    /// A sink over an arbitrary writer.
    pub fn new(writer: Box<dyn std::io::Write + Send>) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// A sink writing (buffered) to a freshly created/truncated file.
    ///
    /// # Errors
    ///
    /// File creation failures.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    fn write_line(&self, line: &str) {
        let mut w = lock(&self.writer);
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

impl Sink for JsonlSink {
    fn record(&self, record: &Record) {
        self.write_line(&record_to_json(record));
    }

    fn metrics(&self, snapshot: &MetricsSnapshot) {
        self.write_line(&snapshot.to_json());
    }
}

/// Renders one record as a single-line JSON object.
pub fn record_to_json(record: &Record) -> String {
    fn fields_json(fields: &[(String, String)]) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
        }
        out.push('}');
        out
    }
    fn opt_id(id: &Option<SpanId>) -> String {
        match id {
            Some(id) => id.to_string(),
            None => "null".into(),
        }
    }
    match record {
        Record::SpanStart {
            id,
            parent,
            name,
            thread,
            at,
            fields,
        } => format!(
            "{{\"type\":\"span_start\",\"id\":{id},\"parent\":{},\"name\":{},\
             \"thread\":{},\"at_ns\":{},\"fields\":{}}}",
            opt_id(parent),
            json_string(name),
            json_string(thread),
            at.as_nanos(),
            fields_json(fields),
        ),
        Record::SpanEnd {
            id,
            name,
            at,
            elapsed,
        } => format!(
            "{{\"type\":\"span_end\",\"id\":{id},\"name\":{},\"at_ns\":{},\
             \"elapsed_ns\":{}}}",
            json_string(name),
            at.as_nanos(),
            elapsed.as_nanos(),
        ),
        Record::Event {
            name,
            parent,
            thread,
            at,
            fields,
        } => format!(
            "{{\"type\":\"event\",\"name\":{},\"parent\":{},\"thread\":{},\
             \"at_ns\":{},\"fields\":{}}}",
            json_string(name),
            opt_id(parent),
            json_string(thread),
            at.as_nanos(),
            fields_json(fields),
        ),
    }
}

/// Quotes and escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn thread_name() -> String {
    let current = std::thread::current();
    match current.name() {
        Some(n) => n.to_owned(),
        None => format!("{:?}", current.id()),
    }
}

fn own_fields(fields: &[(&str, &str)]) -> Vec<(String, String)> {
    fields
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        let _span = obs.span("x");
        obs.event("e", &[("k", "v")]);
        obs.counter("c").incr();
        obs.gauge("g").set(5);
        assert_eq!(obs.metrics(), MetricsSnapshot::default());
        assert!(!obs.is_enabled());
    }

    #[test]
    fn span_nesting_tracks_parents() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new().with_sink(sink.clone());
        let a = obs.span("a");
        let a_id = a.id();
        {
            let b = obs.span("b");
            assert_eq!(obs.current_span(), Some(b.id()));
        }
        assert_eq!(obs.current_span(), Some(a_id));
        drop(a);
        let spans = sink.finished_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "b");
        assert_eq!(spans[0].parent, Some(a_id));
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn counters_and_gauges_snapshot() {
        let obs = Obs::new();
        let c = obs.counter("n");
        c.add(2);
        obs.counter("n").incr(); // same underlying cell
        obs.gauge("g").set(-3);
        let m = obs.metrics();
        assert_eq!(m.counter("n"), 3);
        assert_eq!(m.gauge("g"), -3);
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn jsonl_lines_are_wellformed() {
        let r = Record::Event {
            name: "e\"scape".into(),
            parent: None,
            thread: "main".into(),
            at: Duration::from_nanos(7),
            fields: vec![("k".into(), "v\n".into())],
        };
        let line = record_to_json(&r);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\\\"scape"));
        assert!(line.contains("\\n"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
    }
}
