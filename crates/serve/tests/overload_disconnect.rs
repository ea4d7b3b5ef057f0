//! Overload and disconnect behaviour: with every query worker busy past
//! the queue wait the server answers `busy` (never hangs or panics), and
//! dropping a connection
//! cancels its in-flight query through the governor within the cooperative
//! check interval.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use conquer_core::ConstraintSet;
use conquer_engine::Database;
use conquer_obs::Json;
use conquer_serve::protocol::{read_frame, write_frame};
use conquer_serve::{serve, Client, Request, ServerConfig, ServerHandle, Strategy};

/// A query that runs for a long time with tiny memory: a non-equality
/// correlated EXISTS forces a per-row nested-loop subquery (no
/// decorrelation), so the engine grinds through |big|³ comparisons while
/// only ever materializing one |big|² batch at a time. The predicate is
/// never true, so EXISTS cannot short-circuit.
const SLOW: &str = "select count(*) from big a \
                    where exists (select b.v from big b, big c where b.v + c.v + a.v < 0)";

fn start(rows: usize, max_concurrent: usize, queue_wait_ms: u64) -> ServerHandle {
    let db = Database::new();
    db.run_script("create table big (k text, v int)")
        .expect("create");
    let mut insert = String::from("insert into big values ");
    for i in 0..rows {
        let sep = if i + 1 < rows { "," } else { ";" };
        insert.push_str(&format!("('k{i}', {i}){sep}"));
    }
    db.run_script(&insert).expect("insert");
    let sigma = ConstraintSet::new().with_key("big", ["k"]);
    serve(
        Arc::new(db),
        sigma,
        ServerConfig {
            max_concurrent,
            queue_wait: Duration::from_millis(queue_wait_ms),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
}

/// Poll the admission `in_flight` gauge through the stats op (which never
/// queues for a worker itself) until `want` is reached.
fn wait_for_in_flight(client: &mut Client, want: u64, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let stats = client.stats().expect("stats");
        let in_flight = stats
            .get("admission")
            .and_then(|a| a.get("in_flight"))
            .and_then(Json::as_f64)
            .expect("in_flight gauge") as u64;
        if in_flight == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn overload_maps_to_structured_busy() {
    let server = start(128, 1, 100);
    let addr = server.addr();

    std::thread::scope(|scope| {
        let slow = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect slow");
            let outcome = client
                .query_with(SLOW, Some(Strategy::Original))
                .expect("slow query");
            client.quit().expect("quit");
            outcome
        });

        let mut observer = Client::connect(addr).expect("connect observer");
        assert!(
            wait_for_in_flight(&mut observer, 1, Duration::from_secs(10)),
            "slow query never became in-flight"
        );

        // The only worker is busy: a second query must come back as a
        // structured busy error after the queue wait, not hang.
        let asked = Instant::now();
        let err = observer
            .query_with("select v from big where v = 1", Some(Strategy::Original))
            .expect_err("should be rejected while the slot is held");
        assert!(err.is_busy(), "expected busy, got {err}");
        assert!(
            asked.elapsed() < Duration::from_secs(5),
            "busy rejection took {:?}, the queue wait is 100ms",
            asked.elapsed()
        );

        let stats = observer.stats().expect("stats");
        let rejected = stats
            .get("admission")
            .and_then(|a| a.get("rejected"))
            .and_then(Json::as_f64)
            .expect("rejected counter");
        assert!(rejected >= 1.0);

        // The slow query itself completes fine — overload never kills work
        // that was already admitted.
        let outcome = slow.join().expect("slow worker");
        assert_eq!(outcome.rows.rows.len(), 1);
        observer.quit().expect("quit");
    });
    server.shutdown();
}

/// Regression: a pipelined client's query N+1 is dispatched the moment
/// query N completes, with no idle moment between them. A later
/// disconnect must cancel the token of the query in flight, N+1's, not
/// query N's already-finished one; otherwise query N+1 runs to completion
/// holding the only worker.
#[test]
fn disconnect_cancels_a_pipelined_back_to_back_query() {
    let server = start(128, 1, 100);
    let addr = server.addr();
    let registry = conquer_obs::registry();

    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let hello = read_frame(&mut raw).expect("hello frame").expect("hello");
    assert!(hello.get("session").is_some());

    // Pipeline a fast query and the slow one in one burst: the session
    // starts the slow query the instant the fast one's response is written.
    let fast = Request::Query {
        sql: "select v from big where v = 1".to_string(),
        strategy: Some(Strategy::Original),
    };
    let slow = Request::Query {
        sql: SLOW.to_string(),
        strategy: Some(Strategy::Original),
    };
    write_frame(&mut raw, &fast.to_json()).expect("send fast");
    write_frame(&mut raw, &slow.to_json()).expect("send slow");
    let first = read_frame(&mut raw).expect("fast response").expect("frame");
    assert!(
        first.get("result").is_some(),
        "expected rows, got {first:?}"
    );

    let mut observer = Client::connect(addr).expect("connect observer");
    assert!(
        wait_for_in_flight(&mut observer, 1, Duration::from_secs(10)),
        "slow query never became in-flight"
    );
    let trips_before = registry.counter("governor.trip.cancelled").get();

    drop(raw); // client gives up mid-slow-query

    assert!(
        wait_for_in_flight(&mut observer, 0, Duration::from_secs(5)),
        "back-to-back query was not cancelled after disconnect \
         (the connection held the previous query's token?)"
    );
    assert!(
        registry.counter("governor.trip.cancelled").get() > trips_before,
        "the engine never unwound through the cancellation token"
    );
    observer.quit().expect("quit");
    server.shutdown();
}

#[test]
fn dropping_the_connection_cancels_the_query_via_the_governor() {
    let server = start(128, 1, 100);
    let addr = server.addr();
    let registry = conquer_obs::registry();

    // Raw protocol client: send the query frame, then vanish mid-flight.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let hello = read_frame(&mut raw).expect("hello frame").expect("hello");
    assert!(
        hello.get("session").is_some(),
        "expected hello, got {hello:?}"
    );
    let query = Request::Query {
        sql: SLOW.to_string(),
        strategy: Some(Strategy::Original),
    };
    write_frame(&mut raw, &query.to_json()).expect("send query");

    let mut observer = Client::connect(addr).expect("connect observer");
    assert!(
        wait_for_in_flight(&mut observer, 1, Duration::from_secs(10)),
        "query never became in-flight"
    );
    let cancels_before = registry.counter("serve.disconnect_cancel").get();
    let trips_before = registry.counter("governor.trip.cancelled").get();

    drop(raw); // client gives up

    // The driver reads the FIN as soon as it arrives and the governor
    // checks every 256 rows, so the worker must free well inside this
    // deadline — far sooner than the multi-second natural runtime of the
    // query.
    let freed = Instant::now();
    assert!(
        wait_for_in_flight(&mut observer, 0, Duration::from_secs(5)),
        "in-flight query was not cancelled after disconnect"
    );
    let _ = freed.elapsed();

    assert!(
        registry.counter("serve.disconnect_cancel").get() > cancels_before,
        "the driver never saw the disconnect"
    );
    assert!(
        registry.counter("governor.trip.cancelled").get() > trips_before,
        "the engine never unwound through the cancellation token"
    );

    // The server is fully healthy afterwards.
    let quick = observer
        .query_with("select v from big where v = 1", Some(Strategy::Original))
        .expect("server healthy after cancel");
    assert_eq!(quick.rows.rows.len(), 1);
    observer.quit().expect("quit");
    server.shutdown();
}
