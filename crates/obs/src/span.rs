//! Lightweight spans: scoped, monotonic timers on a thread-local stack.
//!
//! A [`Span`] is an RAII guard: creating it pushes a frame on the current
//! thread's span stack, dropping it records the elapsed wall time. Closed
//! spans are delivered to
//!
//! 1. any collectors active on the thread — [`capture`] scopes and
//!    installed [`TraceContext`]s, innermost first,
//! 2. the global [`Subscriber`], when one is installed, and
//! 3. the global metrics registry, as a `span.<name>.ns` histogram.
//!
//! Spans are intended for *phase*-level instrumentation (parse, analyze,
//! rewrite, plan, optimize, execute) — a handful per query, not one per
//! row — so the constant per-span cost (one `Instant::now` pair plus a
//! histogram update) is negligible next to the work being measured.
//!
//! ## Cross-thread traces
//!
//! Collectors are `Arc`-based and shareable: a query thread snapshots its
//! active collector stack with [`current_trace`] and hands it to worker
//! threads, which [`adopt`](ThreadTrace::adopt_worker) it for the duration
//! of their work. Worker spans (tagged with the worker id and the worker's
//! [`SpanRecord::thread`] tag) land in the *same* collectors as the
//! coordinating thread's spans, so one query's trace includes its morsel
//! workers. The engine's parallel executor does this automatically.
//!
//! A [`TraceContext`] is a named, installable collector: it carries a
//! process-unique [`QueryId`] and flows through `ExecOptions` into the
//! engine, which installs it for the duration of the query. After the
//! query, [`TraceContext::take_records`] yields every span the query
//! closed, on any thread.

use std::cell::RefCell;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant, SystemTime};

use crate::json::Json;
use crate::metrics::{self, Histogram};

/// A structured field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    I64(i64),
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<&FieldValue> for Json {
    fn from(v: &FieldValue) -> Json {
        match v {
            FieldValue::I64(v) => Json::Int(*v),
            FieldValue::U64(v) => Json::UInt(*v),
            FieldValue::F64(v) => Json::Float(*v),
            FieldValue::Bool(v) => Json::Bool(*v),
            FieldValue::Str(v) => Json::Str(v.clone()),
        }
    }
}

/// A closed span, as delivered to collectors and subscribers.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Phase / operation name, e.g. `"rewrite"` or `"execute"`.
    pub name: &'static str,
    /// Structured fields attached via [`Span::field`].
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Nesting depth at open time (0 = no enclosing span on this thread).
    pub depth: usize,
    /// Start offset from the process-wide monotonic epoch.
    pub start: Duration,
    /// Wall-clock duration of the span.
    pub wall: Duration,
    /// Small process-unique tag of the thread the span closed on, so
    /// cross-thread traces (morsel workers) stay distinguishable.
    pub thread: u64,
}

impl SpanRecord {
    /// Absolute start time in unix milliseconds, anchored to the wall
    /// clock recorded at epoch init (see [`epoch_unix_ms`]).
    pub fn start_unix_ms(&self) -> u64 {
        epoch_unix_ms().saturating_add(self.start.as_millis() as u64)
    }

    /// The record as a JSON object (the JSON-lines sink's line format).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj([
            ("span", Json::from(self.name)),
            ("depth", Json::from(self.depth)),
            ("thread", Json::UInt(self.thread)),
            ("start_us", Json::UInt(self.start.as_micros() as u64)),
            ("start_unix_ms", Json::UInt(self.start_unix_ms())),
            ("wall_us", Json::UInt(self.wall.as_micros() as u64)),
        ]);
        for (k, v) in &self.fields {
            obj.push(*k, Json::from(v));
        }
        obj
    }
}

/// Receives every closed span process-wide. Implementations must be cheap
/// or buffer internally: they run inline at span close.
pub trait Subscriber: Send + Sync {
    fn on_close(&self, record: &SpanRecord);
}

/// Human-readable sink: one indented line per closed span on stderr.
pub struct HumanSink;

impl Subscriber for HumanSink {
    fn on_close(&self, record: &SpanRecord) {
        let mut line = String::new();
        for _ in 0..record.depth {
            line.push_str("  ");
        }
        line.push_str(record.name);
        line.push_str(&format!(" {:.3}ms", record.wall.as_secs_f64() * 1e3));
        for (k, v) in &record.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }
}

/// JSON-lines sink: one JSON object per closed span, written to any
/// `Write` target behind a mutex.
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }
}

impl<W: Write + Send> Subscriber for JsonLinesSink<W> {
    fn on_close(&self, record: &SpanRecord) {
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{}", record.to_json().render());
        }
    }
}

fn global_subscriber() -> &'static RwLock<Option<Box<dyn Subscriber>>> {
    static SUBSCRIBER: OnceLock<RwLock<Option<Box<dyn Subscriber>>>> = OnceLock::new();
    SUBSCRIBER.get_or_init(|| RwLock::new(None))
}

/// Install the process-wide subscriber (replacing any previous one).
pub fn set_subscriber(subscriber: Box<dyn Subscriber>) {
    *global_subscriber().write().unwrap() = Some(subscriber);
}

/// Remove the process-wide subscriber.
pub fn clear_subscriber() {
    *global_subscriber().write().unwrap() = None;
}

/// The monotonic epoch paired with the wall-clock instant it was taken, so
/// relative span offsets can be anchored to absolute time.
struct EpochAnchor {
    start: Instant,
    unix_ms: u64,
}

fn anchor() -> &'static EpochAnchor {
    static EPOCH: OnceLock<EpochAnchor> = OnceLock::new();
    EPOCH.get_or_init(|| EpochAnchor {
        start: Instant::now(),
        unix_ms: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
    })
}

fn epoch() -> Instant {
    anchor().start
}

/// The wall-clock time (unix milliseconds) at which the process-wide
/// monotonic epoch was recorded. `epoch_unix_ms() + start_us/1000` turns
/// any span offset into absolute time, correlatable across processes and
/// restarts.
pub fn epoch_unix_ms() -> u64 {
    anchor().unix_ms
}

/// Small process-unique tag for the current thread (1, 2, 3, ... in thread
/// creation-touch order) — compact enough for trace exports, unlike
/// `ThreadId`'s opaque debug formatting.
pub fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// A shareable span collector: worker threads adopting a trace push the
/// same handle, so all of a query's spans accumulate in one place.
type CollectorHandle = Arc<Mutex<Vec<SpanRecord>>>;

fn lock_collector(c: &CollectorHandle) -> std::sync::MutexGuard<'_, Vec<SpanRecord>> {
    c.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static DEPTH: RefCell<usize> = const { RefCell::new(0) };
    static COLLECTORS: RefCell<Vec<CollectorHandle>> = const { RefCell::new(Vec::new()) };
    /// Per-thread cache of `span.<name>.ns` histogram handles, so closing
    /// a span is one atomic add — no registry mutex, no name formatting.
    static SPAN_HISTS: RefCell<Vec<(&'static str, Arc<Histogram>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Record into the `span.<name>.ns` histogram through the per-thread
/// handle cache. Span names are a small static set, so the linear probe is
/// a few pointer-sized compares; only the first close of a name on a
/// thread touches the registry mutex.
fn record_span_ns(name: &'static str, ns: u64) {
    SPAN_HISTS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some((_, h)) = cache.iter().find(|(n, _)| *n == name) {
            h.record(ns);
            return;
        }
        let h = metrics::registry().span_histogram(name);
        h.record(ns);
        cache.push((name, h));
    });
}

/// An open span; created by [`span`], closed (and recorded) on drop.
#[must_use = "a span measures the scope it is alive in; bind it to a variable"]
pub struct Span {
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    depth: usize,
    start_instant: Instant,
    start: Duration,
}

/// Open a span. The returned guard records the span when dropped.
pub fn span(name: &'static str) -> Span {
    let depth = DEPTH.with(|d| {
        let mut d = d.borrow_mut();
        let current = *d;
        *d += 1;
        current
    });
    let now = Instant::now();
    Span {
        name,
        fields: Vec::new(),
        depth,
        start_instant: now,
        start: now - epoch(),
    }
}

impl Span {
    /// Attach a structured field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Span {
        self.fields.push((key, value.into()));
        self
    }

    /// Attach a structured field to an already-bound span.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.fields.push((key, value.into()));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let wall = self.start_instant.elapsed();
        DEPTH.with(|d| {
            let mut d = d.borrow_mut();
            *d = d.saturating_sub(1);
        });
        let record = SpanRecord {
            name: self.name,
            fields: std::mem::take(&mut self.fields),
            depth: self.depth,
            start: self.start,
            wall,
            thread: thread_tag(),
        };
        // Latency histogram, always on: one atomic add per span.
        record_span_ns(self.name, wall.as_nanos() as u64);
        COLLECTORS.with(|c| {
            let stack = c.borrow();
            for (i, collector) in stack.iter().enumerate() {
                // The same collector can be installed twice (a session
                // installs a TraceContext and the engine re-installs the
                // one from ExecOptions); deliver once per distinct handle.
                if stack[..i].iter().any(|prev| Arc::ptr_eq(prev, collector)) {
                    continue;
                }
                lock_collector(collector).push(record.clone());
            }
        });
        if let Ok(guard) = global_subscriber().read() {
            if let Some(subscriber) = guard.as_ref() {
                subscriber.on_close(&record);
            }
        }
    }
}

/// Pops the top collector from the thread's stack on drop (panic-safe).
struct PopOnDrop;

impl Drop for PopOnDrop {
    fn drop(&mut self) {
        COLLECTORS.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Run `f`, collecting every span closed *under this collector* while it
/// runs — including spans closed by worker threads that adopted this
/// thread's trace (see [`current_trace`]). Spans are returned in close
/// order (children before parents on a given thread).
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>) {
    let collector: CollectorHandle = Arc::new(Mutex::new(Vec::new()));
    COLLECTORS.with(|c| c.borrow_mut().push(Arc::clone(&collector)));
    // Pop the collector even if `f` panics, so a poisoned test does not
    // leak collection into unrelated code on this thread.
    let _guard = PopOnDrop;
    let value = f();
    drop(_guard);
    let records = Arc::try_unwrap(collector)
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .unwrap_or_else(|arc| lock_collector(&arc).clone());
    (value, records)
}

/// Process-unique identifier of one traced query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// Allocate the next process-unique id (starts at 1).
    pub fn next() -> QueryId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        QueryId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A per-query trace context: a [`QueryId`] plus a shareable collector.
///
/// Created by whoever owns the query (the serve session loop, the bench
/// harness), cloned into `ExecOptions`, and installed on each thread that
/// does work for the query. Clones share the same collector; installing
/// the same context on nested scopes never duplicates records.
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    id: QueryId,
    collector: CollectorHandle,
}

impl Default for QueryId {
    fn default() -> QueryId {
        QueryId::next()
    }
}

impl TraceContext {
    /// A fresh context with a new [`QueryId`] and an empty collector.
    pub fn new() -> TraceContext {
        TraceContext {
            id: QueryId::next(),
            collector: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Install the context's collector on the current thread. Every span
    /// closed on this thread (and on workers that adopt this thread's
    /// trace) while the guard lives is recorded into the context.
    pub fn install(&self) -> TraceGuard {
        COLLECTORS.with(|c| c.borrow_mut().push(Arc::clone(&self.collector)));
        TraceGuard { _pop: PopOnDrop }
    }

    /// Drain everything collected so far, in close order.
    pub fn take_records(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *lock_collector(&self.collector))
    }
}

/// Uninstalls a [`TraceContext`] from the current thread on drop.
#[must_use = "the context is uninstalled when the guard drops; bind it to a variable"]
pub struct TraceGuard {
    _pop: PopOnDrop,
}

/// A snapshot of the calling thread's active collector stack, cheap to
/// clone into worker threads (a `Vec` of `Arc`s).
#[derive(Clone)]
pub struct ThreadTrace {
    collectors: Vec<CollectorHandle>,
}

/// Snapshot the current thread's active collectors — every [`capture`]
/// scope and installed [`TraceContext`] — for handing to worker threads.
pub fn current_trace() -> ThreadTrace {
    ThreadTrace {
        collectors: COLLECTORS.with(|c| c.borrow().clone()),
    }
}

impl ThreadTrace {
    /// Whether anything is being collected (workers skip the worker span
    /// entirely for untraced queries, keeping the untraced path free).
    pub fn is_active(&self) -> bool {
        !self.collectors.is_empty()
    }

    /// Adopt the trace on the current (worker) thread: install every
    /// collector and open a `worker` span tagged with the worker id. The
    /// guard closes the span (recording it into the adopted collectors)
    /// and uninstalls on drop. A no-op for untraced queries.
    pub fn adopt_worker(&self, worker: usize) -> WorkerGuard {
        if !self.is_active() {
            return WorkerGuard {
                span: None,
                installed: 0,
            };
        }
        COLLECTORS.with(|c| c.borrow_mut().extend(self.collectors.iter().cloned()));
        WorkerGuard {
            span: Some(span("worker").field("worker", worker)),
            installed: self.collectors.len(),
        }
    }
}

/// Uninstalls an adopted trace from a worker thread on drop.
#[must_use = "the adopted trace is uninstalled when the guard drops; bind it to a variable"]
pub struct WorkerGuard {
    span: Option<Span>,
    installed: usize,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        // Close the worker span *before* uninstalling, so its record is
        // delivered to the adopted collectors.
        self.span.take();
        if self.installed > 0 {
            COLLECTORS.with(|c| {
                let mut stack = c.borrow_mut();
                let keep = stack.len().saturating_sub(self.installed);
                stack.truncate(keep);
            });
        }
    }
}

/// Sum the wall time of captured spans per name, shallowest occurrence
/// only (nested re-entries of the same phase on the same thread are not
/// double-counted).
pub fn phase_totals(records: &[SpanRecord]) -> Vec<(&'static str, Duration)> {
    let mut totals: Vec<(&'static str, Duration)> = Vec::new();
    for r in records {
        if records.iter().any(|outer| {
            outer.name == r.name
                && outer.thread == r.thread
                && outer.depth < r.depth
                && outer.start <= r.start
                && r.start + r.wall <= outer.start + outer.wall
        }) {
            continue; // nested re-entry of the same phase
        }
        match totals.iter_mut().find(|(n, _)| *n == r.name) {
            Some((_, d)) => *d += r.wall,
            None => totals.push((r.name, r.wall)),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_render_in_json() {
        let (_, spans) = capture(|| {
            let _s = span("phase").field("rows", 7u64).field("kind", "inner");
        });
        let json = spans[0].to_json();
        assert_eq!(json.get("span"), Some(&Json::Str("phase".into())));
        assert_eq!(json.get("rows"), Some(&Json::UInt(7)));
        assert_eq!(json.get("kind"), Some(&Json::Str("inner".into())));
        assert!(matches!(json.get("thread"), Some(Json::UInt(_))));
        assert!(matches!(json.get("start_unix_ms"), Some(Json::UInt(_))));
    }

    #[test]
    fn phase_totals_skips_nested_reentries() {
        let (_, spans) = capture(|| {
            let _outer = span("plan");
            let _inner = span("plan"); // CTE materialization re-enters
        });
        let totals = phase_totals(&spans);
        assert_eq!(totals.len(), 1);
        let (_, outer_total) = totals[0];
        // The nested span must not be added on top of the outer one.
        assert!(outer_total <= spans.iter().map(|s| s.wall).max().unwrap());
    }

    #[test]
    fn trace_context_collects_and_drains() {
        let ctx = TraceContext::new();
        {
            let _g = ctx.install();
            let _s = span("phase_a");
        }
        {
            // Spans closed outside the install window are not collected.
            let _s = span("phase_b");
        }
        let records = ctx.take_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "phase_a");
        assert!(ctx.take_records().is_empty(), "take drains");
    }

    #[test]
    fn double_install_does_not_duplicate_records() {
        let ctx = TraceContext::new();
        {
            let _outer = ctx.install();
            let _inner = ctx.install(); // e.g. session + engine both install
            let _s = span("phase");
        }
        assert_eq!(ctx.take_records().len(), 1);
    }

    #[test]
    fn workers_deliver_into_the_adopting_capture() {
        let (_, spans) = capture(|| {
            let trace = current_trace();
            assert!(trace.is_active());
            std::thread::scope(|scope| {
                for w in 0..2 {
                    let trace = &trace;
                    scope.spawn(move || {
                        let _g = trace.adopt_worker(w);
                        let _s = span("inner_work");
                    });
                }
            });
        });
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        assert_eq!(spans.iter().filter(|s| s.name == "inner_work").count(), 2);
        let main = thread_tag();
        assert!(workers.iter().all(|s| s.thread != main));
        assert!(workers
            .iter()
            .any(|s| s.fields.iter().any(|(k, _)| *k == "worker")));
    }

    #[test]
    fn adopting_an_empty_trace_is_inert() {
        let trace = current_trace();
        assert!(!trace.is_active());
        let before = thread_tag(); // touch the tag, not under test
        let _ = before;
        let (_, spans) = capture(|| {
            let _g = trace.adopt_worker(0); // adopted *before* the capture began
        });
        assert!(spans.is_empty(), "no worker span for untraced work");
    }

    #[test]
    fn query_ids_are_unique() {
        let a = QueryId::next();
        let b = QueryId::next();
        assert_ne!(a, b);
        assert!(b.value() > a.value());
    }
}
