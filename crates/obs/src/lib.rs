//! # conquer-obs — observability for the ConQuer stack
//!
//! A deliberately small, dependency-free measurement layer used by every
//! other crate in the workspace:
//!
//! * [`span`](mod@span) — lightweight spans over a thread-local stack with
//!   monotonic timing, structured `key=value` fields, and a scoped
//!   [`capture`] helper that collects the spans produced by a closure.
//!   The query pipeline (parse → analyze → rewrite → plan → optimize →
//!   execute) is instrumented with these spans.
//! * [`metrics`] — a global registry of counters and log-scale histograms
//!   with a JSON snapshot export; every closed span also feeds a
//!   `span.<name>.ns` histogram, so phase latency distributions are
//!   available process-wide without any collector installed.
//! * [`json`] — a minimal JSON value type, writer, and parser (the
//!   workspace builds offline, so there is no `serde`); used for the bench
//!   harness's `BENCH_<fig>.json` exports, `EXPLAIN ANALYZE` machine
//!   output, and the `conquer-serve` wire protocol.
//! * [`flight`] — an always-on flight recorder: a fixed-capacity ring of
//!   per-query [`QueryTrace`] summaries fed by the server's query workers and
//!   the bench harness, plus a slow-query JSON-lines log.
//! * [`prom`] — Prometheus text exposition over the registry, with
//!   cumulative `_bucket` lines derived from the log-scale histograms.
//!
//! Per-query, cross-thread tracing is built from [`TraceContext`] (a
//! [`QueryId`] plus a shareable collector, installed by whoever owns the
//! query and flowed through the engine's `ExecOptions`) and
//! [`current_trace`]/[`ThreadTrace`] (how morsel worker threads adopt the
//! spawning thread's collectors, tagging their spans with worker ids).
//!
//! The paper's headline claim (SIGMOD 2005, Section 6) is that
//! consistent-answer rewritings cost less than ~2× the original query;
//! this crate exists so the repository can say *where* that factor goes.
//!
//! ```
//! use conquer_obs::{capture, span};
//!
//! let (value, spans) = capture(|| {
//!     let _outer = span("execute").field("rows", 3u64);
//!     {
//!         let _inner = span("hash_join");
//!     }
//!     42
//! });
//! assert_eq!(value, 42);
//! assert_eq!(spans.len(), 2); // inner closes first
//! assert_eq!(spans[0].name, "hash_join");
//! assert_eq!(spans[1].name, "execute");
//! assert!(spans[1].wall >= spans[0].wall);
//! ```

#![forbid(unsafe_code)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod span;

pub use flight::{
    flight_recorder, log_slow_query, set_slow_query_sink, sql_hash, sql_snippet, FlightRecorder,
    QueryTrace, TripSnapshot, DEFAULT_FLIGHT_CAPACITY,
};
pub use json::{Json, JsonParseError};
pub use metrics::{
    bucket_index, bucket_upper_bound, registry, Counter, Gauge, Histogram, HistogramSnapshot,
    Registry,
};
pub use prom::{prometheus_text, push_gauge, sanitize_metric_name};
pub use span::{
    capture, current_trace, epoch_unix_ms, phase_totals, span, thread_tag, FieldValue, QueryId,
    Span, SpanRecord, ThreadTrace, TraceContext, TraceGuard, WorkerGuard,
};
