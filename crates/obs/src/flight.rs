//! The flight recorder: an always-on, fixed-capacity ring buffer of
//! per-query trace summaries.
//!
//! Every query the serve session loop (or the bench harness) finishes —
//! successfully or not — is condensed into a [`QueryTrace`] and pushed
//! into the process-wide recorder. The ring holds the most recent
//! [`DEFAULT_FLIGHT_CAPACITY`] entries; older ones fall off the back.
//! Recording is one short mutex hold (push + maybe pop), cheap next to
//! executing a query, so the recorder stays on unconditionally.
//!
//! Entries are retrieved over the serve protocol (`trace_recent`,
//! `trace_get <query_id>`), over HTTP (`/traces`), or logged as JSON
//! lines when a query is slower than the configured threshold, trips a
//! resource limit, or errors (see [`log_slow_query`]).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;
use crate::span::{phase_totals, SpanRecord};

/// Ring capacity of the process-wide recorder: enough history to debug
/// "what just happened" without unbounded growth — at a few hundred bytes
/// of summary per entry this is well under a megabyte resident.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// How much leading SQL text a trace keeps verbatim; the FNV hash
/// identifies the full statement.
pub const SQL_SNIPPET_BYTES: usize = 120;

/// FNV-1a hash of a SQL string: a stable, dependency-free statement
/// identity for correlating truncated snippets across traces and logs.
pub fn sql_hash(sql: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in sql.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Truncate SQL to the snippet budget on a char boundary, appending an
/// ellipsis when anything was cut.
pub fn sql_snippet(sql: &str) -> String {
    let trimmed = sql.trim();
    if trimmed.len() <= SQL_SNIPPET_BYTES {
        return trimmed.to_string();
    }
    let mut end = SQL_SNIPPET_BYTES;
    while end > 0 && !trimmed.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &trimmed[..end])
}

/// A governor limit-trip snapshot, decoupled from the engine's error
/// types (obs sits below the engine in the crate graph).
#[derive(Debug, Clone)]
pub struct TripSnapshot {
    /// Which limit tripped: `timeout`, `memory`, `rows`, or `cancelled`.
    pub kind: &'static str,
    /// Operator that observed the trip (e.g. `hash_join`).
    pub operator: String,
    pub elapsed_ms: u64,
    pub rows: u64,
    pub mem_bytes: u64,
}

impl TripSnapshot {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from(self.kind)),
            ("operator", Json::Str(self.operator.clone())),
            ("elapsed_ms", Json::UInt(self.elapsed_ms)),
            ("rows", Json::UInt(self.rows)),
            ("mem_bytes", Json::UInt(self.mem_bytes)),
        ])
    }
}

/// One finished query, condensed for the flight recorder.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The query's process-unique trace id (`QueryId::value`).
    pub query_id: u64,
    /// Serving session id; 0 for harness-local queries.
    pub session: u64,
    pub sql_hash: u64,
    /// Leading snippet of the SQL text (see [`sql_snippet`]).
    pub sql: String,
    /// Answering strategy label: `original` / `rewritten` / `annotated`.
    pub strategy: &'static str,
    /// `ok`, or the structured error code label (`timeout`, `parse`, ...).
    pub status: &'static str,
    /// Human-readable error message when status is not `ok`.
    pub error: Option<String>,
    /// Whether the rewrite/plan cache served this statement.
    pub cached: bool,
    /// How the cache lookup went: `hit`, `miss` (no entry), or
    /// `stale:<table>` — an entry existed but `<table>` had been written,
    /// indexed, dropped or re-created since it was built.
    pub cache: Cow<'static, str>,
    pub elapsed_us: u64,
    /// Rows produced by the query (0 on error).
    pub rows_out: u64,
    /// Total base-table rows the plan reads (its scan inputs).
    pub rows_in: u64,
    /// Planner cardinality estimate for the root; `None` when the request
    /// failed before it had a plan.
    pub est_rows: Option<u64>,
    /// Thread budget the query ran with.
    pub threads: usize,
    /// Number of morsel-worker spans captured.
    pub worker_spans: u64,
    /// Unix-millis wall-clock time the query started.
    pub start_unix_ms: u64,
    /// Governor limit-trip details, when one fired.
    pub trip: Option<TripSnapshot>,
    /// The full captured span tree (all threads), in close order.
    pub spans: Vec<SpanRecord>,
}

impl QueryTrace {
    /// Per-phase wall totals from the captured spans, as `(name, total)`.
    pub fn phase_us(&self) -> Vec<(&'static str, u64)> {
        phase_totals(&self.spans)
            .into_iter()
            .map(|(name, wall)| (name, wall.as_micros() as u64))
            .collect()
    }

    /// The summary object: everything except the raw span list. This is
    /// the `trace_recent` / `/traces` / slow-query-log line shape.
    pub fn summary_json(&self) -> Json {
        let mut obj = Json::obj([
            ("query_id", Json::UInt(self.query_id)),
            ("session", Json::UInt(self.session)),
            ("sql_hash", Json::Str(format!("{:016x}", self.sql_hash))),
            ("sql", Json::Str(self.sql.clone())),
            ("strategy", Json::from(self.strategy)),
            ("status", Json::from(self.status)),
            ("cached", Json::Bool(self.cached)),
            ("cache", Json::Str(self.cache.to_string())),
            ("elapsed_us", Json::UInt(self.elapsed_us)),
            ("rows_out", Json::UInt(self.rows_out)),
            ("rows_in", Json::UInt(self.rows_in)),
            ("threads", Json::UInt(self.threads as u64)),
            ("worker_spans", Json::UInt(self.worker_spans)),
            ("start_unix_ms", Json::UInt(self.start_unix_ms)),
        ]);
        match self.est_rows {
            Some(est) => obj.push("est_rows", Json::UInt(est)),
            None => obj.push("est_rows", Json::Null),
        }
        if let Some(error) = &self.error {
            obj.push("error", Json::Str(error.clone()));
        }
        if let Some(trip) = &self.trip {
            obj.push("trip", trip.to_json());
        }
        let phases = self
            .phase_us()
            .iter()
            .map(|(name, us)| (name.to_string(), Json::UInt(*us)))
            .collect::<Vec<_>>();
        obj.push("phase_us", Json::Obj(phases));
        obj
    }

    /// The full object: the summary plus every captured span.
    pub fn to_json(&self) -> Json {
        let mut obj = self.summary_json();
        obj.push(
            "spans",
            Json::arr(self.spans.iter().map(SpanRecord::to_json)),
        );
        obj
    }
}

/// Fixed-capacity ring of recent [`QueryTrace`]s, newest at the back.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<Arc<QueryTrace>>>,
    capacity: usize,
    recorded: AtomicU64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            recorded: AtomicU64::new(0),
        }
    }

    fn lock_ring(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<QueryTrace>>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a finished query, evicting the oldest entry when full.
    /// Returns the shared handle so callers can keep using the trace
    /// (e.g. to log it) without another clone.
    pub fn record(&self, trace: QueryTrace) -> Arc<QueryTrace> {
        let trace = Arc::new(trace);
        let mut ring = self.lock_ring();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(Arc::clone(&trace));
        self.recorded.fetch_add(1, Ordering::Relaxed);
        trace
    }

    /// Total queries ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// The most recent `limit` traces, newest first.
    pub fn recent(&self, limit: usize) -> Vec<Arc<QueryTrace>> {
        let ring = self.lock_ring();
        ring.iter().rev().take(limit).cloned().collect()
    }

    /// Look a trace up by query id (linear scan of at most `capacity`).
    pub fn get(&self, query_id: u64) -> Option<Arc<QueryTrace>> {
        let ring = self.lock_ring();
        ring.iter().rev().find(|t| t.query_id == query_id).cloned()
    }

    /// The recorder as JSON: `{recorded, capacity, traces: [summaries]}`,
    /// newest first. Serialization happens on cloned `Arc`s, outside the
    /// ring lock.
    pub fn to_json(&self, limit: usize) -> Json {
        let traces = self.recent(limit);
        Json::obj([
            ("recorded", Json::UInt(self.recorded())),
            ("capacity", Json::UInt(self.capacity as u64)),
            ("traces", Json::arr(traces.iter().map(|t| t.summary_json()))),
        ])
    }
}

/// The process-wide flight recorder.
pub fn flight_recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))
}

type SlowSink = Mutex<Option<Box<dyn Write + Send>>>;

fn slow_sink() -> &'static SlowSink {
    static SINK: OnceLock<SlowSink> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Redirect the slow-query log (default: stderr). Pass `None` to restore
/// the default.
pub fn set_slow_query_sink(sink: Option<Box<dyn Write + Send>>) {
    *slow_sink().lock().unwrap_or_else(|e| e.into_inner()) = sink;
}

/// Write one JSON line for a slow/tripped/errored query: the trace
/// summary wrapped as `{"slow_query": {...}, "threshold_us": N}`.
pub fn log_slow_query(trace: &QueryTrace, threshold_us: u64) {
    let line = Json::obj([
        ("slow_query", trace.summary_json()),
        ("threshold_us", Json::UInt(threshold_us)),
    ])
    .render();
    let mut sink = slow_sink().lock().unwrap_or_else(|e| e.into_inner());
    match sink.as_mut() {
        Some(out) => {
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
        None => eprintln!("{line}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn trace(query_id: u64, sql: &str) -> QueryTrace {
        QueryTrace {
            query_id,
            session: 1,
            sql_hash: sql_hash(sql),
            sql: sql_snippet(sql),
            strategy: "rewritten",
            status: "ok",
            error: None,
            cached: false,
            cache: Cow::Borrowed("stale:orders"),
            elapsed_us: 1250,
            rows_out: 4,
            rows_in: 100,
            est_rows: Some(5),
            threads: 2,
            worker_spans: 2,
            start_unix_ms: 1_700_000_000_000,
            trip: None,
            spans: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let rec = FlightRecorder::new(3);
        for i in 1..=5 {
            rec.record(trace(i, "select 1"));
        }
        assert_eq!(rec.recorded(), 5);
        let recent = rec.recent(10);
        assert_eq!(
            recent.iter().map(|t| t.query_id).collect::<Vec<_>>(),
            vec![5, 4, 3],
            "newest first, oldest evicted"
        );
        assert!(rec.get(1).is_none());
        assert_eq!(rec.get(4).map(|t| t.query_id), Some(4));
    }

    #[test]
    fn snippet_truncates_on_char_boundary() {
        let long = "select ".to_string() + &"é".repeat(200);
        let snip = sql_snippet(&long);
        assert!(snip.ends_with('…'));
        assert!(snip.len() <= SQL_SNIPPET_BYTES + '…'.len_utf8());
        assert_eq!(sql_snippet("select 1"), "select 1");
    }

    #[test]
    fn sql_hash_is_stable() {
        assert_eq!(sql_hash("select 1"), sql_hash("select 1"));
        assert_ne!(sql_hash("select 1"), sql_hash("select 2"));
    }

    #[test]
    fn summary_includes_phase_totals_and_trip() {
        let mut t = trace(7, "select * from t");
        t.status = "timeout";
        t.trip = Some(TripSnapshot {
            kind: "timeout",
            operator: "hash_join".to_string(),
            elapsed_ms: 250,
            rows: 10,
            mem_bytes: 0,
        });
        t.spans = vec![crate::span::SpanRecord {
            name: "execute",
            fields: Vec::new(),
            depth: 0,
            start: std::time::Duration::from_micros(10),
            wall: Duration::from_micros(900),
            thread: 1,
        }];
        let json = t.summary_json();
        assert_eq!(json.get("status"), Some(&Json::Str("timeout".into())));
        assert_eq!(json.get("cache"), Some(&Json::Str("stale:orders".into())));
        assert!(json.get("trip").is_some());
        let phases = json.get("phase_us").expect("phase totals present");
        assert_eq!(phases.get("execute"), Some(&Json::UInt(900)));
        // Summary carries no raw spans; the full form does.
        assert!(json.get("spans").is_none());
        assert!(t.to_json().get("spans").is_some());
    }
}
