//! End-to-end tracing through the server: every socket query must leave a
//! flight-recorder entry retrievable over the protocol (`trace_recent`,
//! `trace_get`) with non-zero phase totals, cache-hit flags, the planner's
//! cardinality estimate, and — when the engine went parallel — spans from
//! the morsel worker threads. The HTTP exposition endpoint is exercised
//! over a raw `TcpStream` exactly the way an external scraper would.
//!
//! The flight recorder is process-global, so tests in this binary share
//! one ring; every assertion filters by a per-test SQL marker instead of
//! assuming the ring holds only its own queries.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use conquer_core::ConstraintSet;
use conquer_engine::Database;
use conquer_obs::Json;
use conquer_serve::{serve, Client, ServerConfig, ServerHandle};

/// Rows in the fixture table: enough to clear the engine's parallel
/// threshold so a multi-thread query actually spawns morsel workers.
const ROWS: usize = 10_000;

fn start(metrics: bool) -> ServerHandle {
    let db = Database::new();
    let mut script = String::from("create table big (k int, v int);\ninsert into big values ");
    for i in 0..ROWS {
        if i > 0 {
            script.push(',');
        }
        // Duplicate keys every other row so the key constraint is violated
        // and the rewritten strategy has real work to do.
        script.push_str(&format!("({}, {})", i / 2, i % 97));
    }
    script.push(';');
    db.run_script(&script).expect("seed fixture");
    let sigma = ConstraintSet::new().with_key("big", ["k"]);
    let config = ServerConfig {
        metrics_addr: metrics.then(|| "127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    serve(Arc::new(db), sigma, config).expect("bind")
}

fn as_u64(json: &Json) -> u64 {
    json.as_f64().expect("numeric json value") as u64
}

fn str_of(json: &Json) -> &str {
    match json {
        Json::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

/// `trace_recent` entries whose SQL contains `marker`, newest first.
fn traces_matching(client: &mut Client, marker: &str) -> Vec<Json> {
    let dump = client.trace_recent(Some(100)).expect("trace_recent");
    let Some(Json::Arr(traces)) = dump.get("traces") else {
        panic!("trace_recent missing traces array: {dump:?}");
    };
    traces
        .iter()
        .filter(|t| t.get("sql").is_some_and(|s| str_of(s).contains(marker)))
        .cloned()
        .collect()
}

#[test]
fn socket_queries_are_retrievable_with_phase_totals_and_worker_spans() {
    let server = start(false);
    let mut client = Client::connect(server.addr()).expect("connect");
    client.set("threads", Json::UInt(4)).expect("set threads");

    // The marker makes this SQL unique to this test within the shared ring.
    let sql = "select v, count(*) from big where v < 9001 group by v order by v";
    let first = client.query(sql).expect("first run");
    assert!(!first.rows.rows.is_empty());
    assert!(!first.cached, "first run must be a cache miss");
    let second = client.query(sql).expect("second run");
    assert!(second.cached, "second run must be a cache hit");

    let matching = traces_matching(&mut client, "9001");
    assert_eq!(matching.len(), 2, "both runs recorded: {matching:?}");
    // Newest first: [0] is the cached re-run, [1] the cold run.
    assert_eq!(matching[0].get("cached"), Some(&Json::Bool(true)));
    assert_eq!(matching[1].get("cached"), Some(&Json::Bool(false)));
    for trace in &matching {
        assert_eq!(str_of(trace.get("status").expect("status")), "ok");
        assert_eq!(str_of(trace.get("strategy").expect("strategy")), "original");
        assert_eq!(as_u64(trace.get("threads").expect("threads")), 4);
        assert_eq!(
            as_u64(trace.get("rows_out").expect("rows_out")),
            first.rows.rows.len() as u64
        );
        assert!(
            trace.get("start_unix_ms").is_some_and(|v| as_u64(v) > 0),
            "wall-clock anchor missing: {trace:?}"
        );
        let Some(Json::Obj(phases)) = trace.get("phase_us") else {
            panic!("phase_us missing: {trace:?}");
        };
        assert!(
            phases
                .iter()
                .any(|(name, us)| name == "execute" && as_u64(us) > 0),
            "execute phase total must be non-zero: {phases:?}"
        );
        // Planner estimate vs actual: every served statement records one
        // (its value is the planner's business).
        assert!(
            !matches!(trace.get("est_rows"), None | Some(Json::Null)),
            "est_rows missing: {trace:?}"
        );
        assert!(as_u64(trace.get("rows_in").expect("rows_in")) >= ROWS as u64);
    }
    // 10k rows over 4 threads goes parallel; the cold run (at least) must
    // have captured morsel-worker spans.
    assert!(
        as_u64(matching[1].get("worker_spans").expect("worker_spans")) >= 1,
        "no worker spans on a 4-thread query: {:?}",
        matching[1]
    );

    // The full trace for that query id carries the spans themselves.
    let query_id = as_u64(matching[1].get("query_id").expect("query_id"));
    let full = client.trace_get(query_id).expect("trace_get");
    let Some(Json::Arr(spans)) = full.get("spans") else {
        panic!("trace_get missing spans: {full:?}");
    };
    assert!(
        spans
            .iter()
            .any(|s| s.get("span").is_some_and(|n| str_of(n) == "worker")),
        "span tree has no worker span: {full:?}"
    );
    client.quit().expect("quit");
}

#[test]
fn failed_queries_are_recorded_with_error_status() {
    let server = start(false);
    let mut client = Client::connect(server.addr()).expect("connect");
    let sql = "select nope_9002 from big";
    let err = client.query(sql).expect_err("unknown column must fail");
    assert!(err.to_string().contains("nope_9002"), "got: {err}");
    let matching = traces_matching(&mut client, "9002");
    assert_eq!(matching.len(), 1, "failed query recorded: {matching:?}");
    let trace = &matching[0];
    assert_ne!(str_of(trace.get("status").expect("status")), "ok");
    assert!(
        trace.get("error").is_some(),
        "error message kept: {trace:?}"
    );
    assert_eq!(as_u64(trace.get("rows_out").expect("rows_out")), 0);
    client.quit().expect("quit");
}

/// A `Write` sink tests can read back (the slow-query log is global).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn slow_query_threshold_writes_json_lines() {
    let sink = SharedBuf::default();
    conquer_obs::set_slow_query_sink(Some(Box::new(sink.clone())));
    let server = start(false);
    let mut client = Client::connect(server.addr()).expect("connect");
    // Threshold 1µs: every query is "slow", so exactly this one logs.
    client.set("slow_query_us", Json::UInt(1)).expect("set");
    client
        .query("select count(*) from big where v < 9003")
        .expect("query");
    client.quit().expect("quit");
    conquer_obs::set_slow_query_sink(None);
    let logged = String::from_utf8(sink.0.lock().unwrap().clone()).expect("utf8 log");
    let line = logged
        .lines()
        .find(|l| l.contains("9003"))
        .unwrap_or_else(|| panic!("no slow-query line for the marker in: {logged:?}"));
    let parsed = Json::parse(line).expect("slow-query line is valid JSON");
    let slow = parsed.get("slow_query").expect("slow_query wrapper");
    assert_eq!(str_of(slow.get("status").expect("status")), "ok");
    assert_eq!(parsed.get("threshold_us").map(as_u64), Some(1));
}

/// Plain HTTP GET against the metrics endpoint, the way a scraper does it.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in: {response:?}"));
    (head.to_string(), body.to_string())
}

#[test]
fn metrics_endpoint_serves_prometheus_text_and_traces() {
    let server = start(true);
    let metrics_addr = server.metrics_addr().expect("metrics endpoint enabled");
    let mut client = Client::connect(server.addr()).expect("connect");
    let answer = client
        .query("select v from big where v < 9004")
        .expect("query");
    assert_eq!(answer.rows.rows.len(), ROWS);

    let (head, body) = http_get(metrics_addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "prometheus content type: {head}"
    );
    assert!(
        body.contains("# TYPE serve_query_us histogram"),
        "serve.query.us histogram missing:\n{body}"
    );
    assert!(
        body.contains("serve_query_us_bucket{le=\"") && body.contains("le=\"+Inf\""),
        "cumulative buckets missing:\n{body}"
    );
    assert!(
        body.contains("serve_queries_total"),
        "query counter missing:\n{body}"
    );
    assert!(body.contains("serve_in_flight"), "gauges missing:\n{body}");
    // The answer left the engine as rows (the wire encodes rows), so the
    // pivot counter is on the page — and in `\stats`, beside its row ->
    // column twin, under their own heading.
    assert!(
        body.contains("exec_pivot_to_rows_total"),
        "pivot counter missing:\n{body}"
    );
    let stats = client.stats().expect("stats");
    let pivots = stats.get("pivots").expect("stats has a pivots section");
    assert!(as_u64(pivots.get("to_rows").expect("to_rows")) >= ROWS as u64);
    assert!(pivots.get("to_cols").is_some());

    let (head, body) = http_get(metrics_addr, "/metrics.json");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    let parsed = Json::parse(&body).expect("metrics.json parses");
    assert!(parsed.get("gauges").is_some(), "gauges object: {body}");

    let (head, body) = http_get(metrics_addr, "/traces");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    let parsed = Json::parse(&body).expect("/traces parses");
    let Some(Json::Arr(traces)) = parsed.get("traces") else {
        panic!("/traces missing traces array: {body}");
    };
    assert!(
        traces
            .iter()
            .any(|t| t.get("sql").is_some_and(|s| str_of(s).contains("9004"))),
        "executed query not in /traces: {body}"
    );

    let (head, _) = http_get(metrics_addr, "/definitely-not-a-route");
    assert!(head.starts_with("HTTP/1.1 404"), "head: {head}");
    client.quit().expect("quit");
}
