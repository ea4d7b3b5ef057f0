//! The event loop: disconnect detection through pipelined bytes,
//! accept-path liveness against non-reading peers, post-`wait()`
//! quiescence, the 256-connection soak with a thread census and every wire
//! answer compared with the in-process one — and the `poll(2)` drivers'
//! own contract, asserted on the loop's counters so it
//! holds on a one-CPU runner: an idle server polls nothing, a request
//! costs a bounded number of wake-ups, deadlines fire with no socket
//! traffic to ride on, and an over-full socket drains through `POLLOUT`.

use std::io::Read;
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use conquer_core::{consistent_answers_with, ConstraintSet};
use conquer_engine::{Database, ExecOptions};
use conquer_obs::Json;
use conquer_serve::protocol::{read_frame, rows_to_json, write_frame};
use conquer_serve::{serve, Client, Request, ServerConfig, ServerHandle, Strategy};

/// Serialize the tests in this binary: the thread census reads
/// `/proc/self/task`, which sees every thread of the process, so two tests
/// running servers concurrently would pollute each other's counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Names of this process's live `conquer-*` threads, via each task's
/// `comm` (truncated to 15 bytes by the kernel, which preserves the
/// prefix we filter on).
fn conquer_threads() -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            let comm = comm.trim();
            if comm.starts_with("conquer-") {
                names.push(comm.to_string());
            }
        }
    }
    names
}

/// Same long-running, low-memory query the overload suite uses: a
/// non-equality correlated EXISTS that can't short-circuit.
const SLOW: &str = "select count(*) from big a \
                    where exists (select b.v from big b, big c where b.v + c.v + a.v < 0)";

fn start_big(rows: usize, config: ServerConfig) -> ServerHandle {
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
    serve(Arc::new(db), sigma, config).expect("bind")
}

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

/// A client pipelines an extra frame behind a slow query and then
/// disconnects. A server that only `peek`ed at the socket would see the
/// queued bytes forever and never the FIN behind them, so the query would
/// burn its full runtime holding the admission slot. The driver drains the
/// socket, so the FIN surfaces as `read() == 0` regardless of what
/// preceded it: the in-flight query must be cancelled and
/// `serve.disconnect_cancel` must tick within the governor's cooperative
/// check interval, not the query's natural runtime.
#[test]
fn pipelined_disconnect_is_seen_through_queued_bytes() {
    let _guard = serial();
    let server = start_big(
        128,
        ServerConfig {
            max_concurrent: 1,
            queue_wait: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let registry = conquer_obs::registry();

    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let hello = read_frame(&mut raw).expect("hello frame").expect("hello");
    assert!(hello.get("session").is_some());

    // One burst: the slow query plus a pipelined ping that will still be
    // sitting unread in the server-side buffer at disconnect time, ahead
    // of the FIN.
    let slow = Request::Query {
        sql: SLOW.to_string(),
        strategy: Some(Strategy::Original),
    };
    write_frame(&mut raw, &slow.to_json()).expect("send slow");
    write_frame(&mut raw, &Request::Ping.to_json()).expect("send pipelined ping");

    let mut observer = Client::connect(addr).expect("connect observer");
    assert!(
        wait_for_in_flight(&mut observer, 1, Duration::from_secs(10)),
        "slow query never became in-flight"
    );
    let cancels_before = registry.counter("serve.disconnect_cancel").get();
    let trips_before = registry.counter("governor.trip.cancelled").get();

    drop(raw); // disconnect with the ping still queued server-side

    assert!(
        wait_for_in_flight(&mut observer, 0, Duration::from_secs(5)),
        "in-flight query survived a disconnect hidden behind pipelined bytes"
    );
    assert!(
        registry.counter("serve.disconnect_cancel").get() > cancels_before,
        "disconnect was never detected (peek-style blind spot?)"
    );
    assert!(
        registry.counter("governor.trip.cancelled").get() > trips_before,
        "the engine never unwound through the cancellation token"
    );
    observer.quit().expect("quit");
    server.shutdown();
}

/// Peers that connect and never read a byte — neither the greeting nor
/// the over-capacity `busy` frame — must not wedge the accept path for
/// clients that behave.
#[test]
fn non_reading_clients_do_not_wedge_the_accept_path() {
    let _guard = serial();
    let server = start_big(
        16,
        ServerConfig {
            max_sessions: 6,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();

    // Four sessions held by clients that never read their greeting, then a
    // pile of over-capacity connects that never read their rejection.
    let holders: Vec<TcpStream> = (0..4)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("holder {i}: {e}")))
        .collect();
    let mut over_cap = Vec::new();
    for _ in 0..10 {
        // Some of these take the remaining session slots (where they hold
        // an unread greeting), the rest hit the rejection path.
        over_cap.push(TcpStream::connect(addr).expect("over-cap connect"));
    }
    std::thread::sleep(Duration::from_millis(100));

    // A well-behaved client must still get through promptly. Freeing the
    // over-capacity sockets first guarantees a slot regardless of how many
    // of them landed as sessions.
    drop(over_cap);
    let asked = Instant::now();
    let mut client = loop {
        match Client::connect(addr) {
            Ok(client) => break client,
            Err(_) => {
                assert!(
                    asked.elapsed() < Duration::from_secs(10),
                    "accept path wedged: no session slot freed after dropping over-cap conns"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let outcome = client
        .query_with("select v from big where v = 1", Some(Strategy::Original))
        .expect("query on a server with non-reading peers");
    assert_eq!(outcome.rows.rows.len(), 1);
    assert!(
        asked.elapsed() < Duration::from_secs(10),
        "round trip took {:?} with non-reading peers connected",
        asked.elapsed()
    );
    client.quit().expect("quit");
    drop(holders);
    server.shutdown();
}

/// `wait()` returning must mean actual quiescence — zero live sessions and
/// zero server threads — even when shutdown lands while a query is in
/// flight.
#[test]
fn wait_returns_only_after_quiescence_event_mode() {
    let _guard = serial();
    let server = start_big(
        128,
        ServerConfig {
            max_concurrent: 2,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let shared = Arc::clone(server.shared());

    // A query mid-flight at shutdown time, from a raw client that will be
    // force-closed rather than politely quitting.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let _hello = read_frame(&mut raw).expect("hello").expect("frame");
    let slow = Request::Query {
        sql: SLOW.to_string(),
        strategy: Some(Strategy::Original),
    };
    write_frame(&mut raw, &slow.to_json()).expect("send slow");
    let mut observer = Client::connect(addr).expect("observer");
    assert!(
        wait_for_in_flight(&mut observer, 1, Duration::from_secs(10)),
        "slow query never became in-flight"
    );

    server.shutdown();
    server.wait();

    assert_eq!(
        shared.active_sessions(),
        0,
        "wait() returned with sessions still live"
    );
    let leftovers = conquer_threads();
    assert!(
        leftovers.is_empty(),
        "wait() returned with server threads still running: {leftovers:?}"
    );
}

/// `io_threads: 0` is not a mode: it is clamped to one driver, like
/// `max_sessions: 0` to one session.
#[test]
fn zero_io_threads_is_clamped_to_one_driver() {
    let _guard = serial();
    let server = start_big(
        16,
        ServerConfig {
            io_threads: 0,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping");
    let drivers = conquer_threads()
        .iter()
        .filter(|name| name.starts_with("conquer-io-"))
        .count();
    assert_eq!(drivers, 1);
    client.quit().expect("quit");
    server.shutdown();
    server.wait();
}

/// The soak: 256 concurrent connections served by a fixed thread topology
/// (census-verified: at most `io_threads + max_concurrent + 2` server
/// threads), with every response equal to the in-process answer to the
/// same statement rendered through the same `rows_to_json`.
#[test]
fn soak_256_connections_wire_identical_with_bounded_threads() {
    let _guard = serial();
    let seed = {
        let mut sql = String::from(
            "create table customer (ckey text, name text, nation text);
             create table orders (okey text, cust text, price float, qty int);\n",
        );
        sql.push_str("insert into customer values\n");
        for i in 0..60 {
            let nation = ["fr", "de", "jp"][i % 3];
            let sep = if i + 1 < 60 { "," } else { ";" };
            sql.push_str(&format!("('c{i}', 'name{i}', '{nation}'){sep}\n"));
        }
        // Key violations so the rewritten strategy has real work to do.
        sql.push_str("insert into customer values\n");
        for i in (0..60).step_by(10) {
            let sep = if i + 10 < 60 { "," } else { ";" };
            sql.push_str(&format!("('c{i}', 'dup{i}', 'us'){sep}\n"));
        }
        sql.push_str("insert into orders values\n");
        for i in 0..90 {
            let cust = i % 60;
            let price = (i * 17 % 400) as f64 + 0.25;
            let sep = if i + 1 < 90 { "," } else { ";" };
            sql.push_str(&format!(
                "('o{i}', 'c{cust}', {price}, {}){sep}\n",
                i % 7 + 1
            ));
        }
        sql
    };
    let queries = [
        "select ckey from customer where nation = 'fr'",
        "select o.okey from orders o, customer c where o.cust = c.ckey and c.nation = 'jp'",
        "select cust, count(*) from orders group by cust",
        "select okey from orders where price > 300",
    ];
    let strategies = [Strategy::Original, Strategy::Rewritten];
    let sigma = ConstraintSet::new()
        .with_key("customer", ["ckey"])
        .with_key("orders", ["okey"]);
    const IO_THREADS: usize = 2;
    const MAX_CONCURRENT: usize = 4;
    const ACTIVE: usize = 8;
    let db = Arc::new(Database::new());
    db.run_script(&seed).expect("seed");

    // The oracle: each statement answered in-process, no server involved.
    let options = ExecOptions::default();
    let oracle = |sql: &str, strategy: Strategy| {
        let rows = match strategy {
            Strategy::Original => db.query_with(sql, &options).expect("in-process original"),
            _ => consistent_answers_with(&db, sql, &sigma, &options).expect("in-process rewritten"),
        };
        rows_to_json(&rows).render()
    };

    let server = serve(
        Arc::clone(&db),
        sigma.clone(),
        ServerConfig {
            max_sessions: 300,
            max_concurrent: MAX_CONCURRENT,
            io_threads: IO_THREADS,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let mut idle: Vec<Client> = Vec::new();
    for i in 0..248 {
        idle.push(Client::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")));
    }
    // 248 idle + 8 workload = 256 concurrent connections, the workload
    // ones closed-loop over every (statement, strategy) pair.
    let served = {
        let results = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for worker in 0..ACTIVE {
                let results = &results;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("workload connect");
                    for sql in queries {
                        for strategy in strategies {
                            let outcome = client
                                .query_with(sql, Some(strategy))
                                .expect("workload query");
                            let got = rows_to_json(&outcome.rows).render();
                            results
                                .lock()
                                .expect("results")
                                .push((worker, sql, strategy, got));
                        }
                    }
                    client.quit().expect("workload quit");
                });
            }
        });
        results.into_inner().expect("results")
    };
    assert_eq!(served.len(), ACTIVE * queries.len() * strategies.len());
    for (worker, sql, strategy, got) in &served {
        assert!(
            *got == oracle(sql, *strategy),
            "connection {worker}: `{sql}` ({}) differs from the in-process answer",
            strategy.label()
        );
    }

    // Census while all 248 idle connections are still up and no query is
    // in flight (engine worker threads are scoped to a query, and would
    // inherit a `conquer-worker-*` comm if sampled mid-query).
    let threads = conquer_threads();
    assert!(
        !threads.is_empty(),
        "census found no server threads at all — /proc not readable?"
    );
    assert!(
        threads.len() <= IO_THREADS + MAX_CONCURRENT + 2,
        "{} server threads for 256 connections — not a fixed topology: {threads:?}",
        threads.len()
    );

    for client in idle {
        client.quit().expect("idle quit");
    }
    server.shutdown();
    server.wait();
    assert!(
        conquer_threads().is_empty(),
        "threads survived wait() after the soak"
    );
}

fn counter(name: &str) -> u64 {
    conquer_obs::registry().counter(name).get()
}

/// Block until `done()` or panic at `limit`. In-process polling: it puts
/// no traffic on the server's sockets.
fn wait_until(what: &str, limit: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < limit, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// An idle server makes no system calls: drivers sleep in `poll` with no
/// timeout however many connections are open (the sweep-and-nap loop this
/// replaced woke every millisecond, ~300 times per driver here) — and
/// `request_shutdown` still reaches them there.
#[test]
fn idle_connections_cost_no_polls_and_shutdown_still_wakes_the_drivers() {
    let _guard = serial();
    const IO_THREADS: u64 = 2;
    let server = start_big(
        16,
        ServerConfig {
            io_threads: IO_THREADS as usize,
            ..ServerConfig::default()
        },
    );
    // `connect` returns once the greeting is read, i.e. after adoption.
    let idle: Vec<Client> = (0..32)
        .map(|i| Client::connect(server.addr()).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();
    assert_eq!(
        conquer_obs::registry().gauge("serve.conns.open").get(),
        32,
        "serve.conns.open does not count the adopted connections"
    );
    let before = counter("serve.loop.polls");
    std::thread::sleep(Duration::from_millis(300));
    let polls = counter("serve.loop.polls") - before;
    assert!(
        polls <= 4 * IO_THREADS,
        "{polls} polls over 300 idle ms on {IO_THREADS} drivers"
    );

    let shared = Arc::clone(server.shared());
    let (stopped, wait) = mpsc::channel();
    server.shutdown();
    std::thread::spawn(move || {
        server.wait();
        let _ = stopped.send(());
    });
    wait.recv_timeout(Duration::from_secs(10))
        .expect("drivers blocked in poll never saw the shutdown");
    assert_eq!(shared.active_sessions(), 0);
    assert_eq!(conquer_obs::registry().gauge("serve.conns.open").get(), 0);
    drop(idle);
}

/// A control request costs its driver one wake-up: the readable socket.
/// The response is written in the same pass, so nothing else polls.
#[test]
fn a_ping_costs_a_bounded_number_of_polls() {
    let _guard = serial();
    let server = start_big(16, ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let (polls, frames_in, frames_out) = (
        counter("serve.loop.polls"),
        counter("serve.frames.in"),
        counter("serve.frames.out"),
    );
    for _ in 0..200 {
        client.ping().expect("ping");
    }
    let polls = counter("serve.loop.polls") - polls;
    assert!(polls <= 3 * 200, "{polls} polls for 200 sequential pings");
    assert_eq!(counter("serve.frames.in") - frames_in, 200);
    assert_eq!(counter("serve.frames.out") - frames_out, 200);
    client.quit().expect("quit");
    server.shutdown();
    server.wait();
}

/// With the only worker wedged and nothing arriving on any socket, the
/// driver's `poll` timeout is the one thing that can answer a queued
/// request: it must fire at the job's queue-wait deadline.
#[test]
fn queue_wait_deadline_fires_from_a_driver_blocked_in_poll() {
    let _guard = serial();
    const QUEUE_WAIT: Duration = Duration::from_millis(200);
    let server = start_big(
        128,
        ServerConfig {
            max_concurrent: 1,
            queue_wait: QUEUE_WAIT,
            io_threads: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let mut wedge = TcpStream::connect(addr).expect("connect wedge");
    let _hello = read_frame(&mut wedge).expect("hello").expect("frame");
    let slow = Request::Query {
        sql: SLOW.to_string(),
        strategy: Some(Strategy::Original),
    };
    write_frame(&mut wedge, &slow.to_json()).expect("send slow");
    let mut observer = Client::connect(addr).expect("observer");
    assert!(
        wait_for_in_flight(&mut observer, 1, Duration::from_secs(10)),
        "slow query never became in-flight"
    );
    let mut client = Client::connect(addr).expect("connect");

    // From here on the observer is silent: no request reaches the driver
    // but the one that will sit in the run queue.
    let deadline_wakes = counter("serve.loop.wake.deadline");
    let asked = Instant::now();
    let err = client
        .query_with("select v from big where v = 1", Some(Strategy::Original))
        .expect_err("the only worker is wedged");
    let waited = asked.elapsed();
    assert!(err.is_busy(), "expected busy, got {err}");
    assert!(waited >= QUEUE_WAIT, "busy after {waited:?}: early");
    assert!(
        waited < QUEUE_WAIT + Duration::from_millis(50),
        "busy after {waited:?}: the poll timeout missed the queue-wait deadline"
    );
    assert!(
        counter("serve.loop.wake.deadline") > deadline_wakes,
        "busy was not produced by a poll timeout"
    );
    drop(wedge);
    server.shutdown();
    server.wait();
}

/// The product of this table with itself renders to ~16 MB: more than a
/// loopback connection's send and receive buffers hold between them.
const WIDE: &str = "select a.pad, b.pad from wide a, wide b";

fn start_wide() -> (ServerHandle, Arc<Database>) {
    let db = Database::new();
    db.run_script("create table wide (k int, pad text)")
        .expect("create");
    let mut insert = String::from("insert into wide values ");
    for i in 0..200 {
        let sep = if i + 1 < 200 { "," } else { ";" };
        insert.push_str(&format!("({i}, '{}'){sep}", format!("{i:04}").repeat(50)));
    }
    db.run_script(&insert).expect("insert");
    let db = Arc::new(db);
    let sigma = ConstraintSet::new().with_key("wide", ["k"]);
    let server = serve(Arc::clone(&db), sigma, ServerConfig::default()).expect("bind");
    (server, db)
}

/// Send `WIDE` (and `then`, pipelined behind it) on a fresh raw connection
/// and return once the worker has queued the response — by which time the
/// socket has taken what it can and the rest waits in `out`.
fn send_wide(server: &ServerHandle, then: Option<Request>) -> TcpStream {
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let _hello = read_frame(&mut raw).expect("hello").expect("frame");
    let frames_out = counter("serve.frames.out");
    let wide = Request::Query {
        sql: WIDE.to_string(),
        strategy: Some(Strategy::Original),
    };
    write_frame(&mut raw, &wide.to_json()).expect("send wide");
    if let Some(then) = then {
        write_frame(&mut raw, &then.to_json()).expect("send pipelined");
    }
    wait_until("the response frame", Duration::from_secs(30), || {
        counter("serve.frames.out") > frames_out
    });
    raw
}

/// A `Read` that hands out at most 1 KiB per call.
struct Trickle(TcpStream);

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(1024);
        self.0.read(&mut buf[..n])
    }
}

/// A response that does not fit the socket reaches a slow reader whole:
/// the worker writes what the socket takes, and the driver sends the rest
/// as `POLLOUT` reports room — with `POLLOUT` in the interest set only
/// while bytes are owed.
#[test]
fn oversized_response_drains_through_pollout_to_a_slow_reader() {
    let _guard = serial();
    let (server, db) = start_wide();
    let expected = rows_to_json(&db.query(WIDE).expect("in-process")).render();
    assert!(
        expected.len() > 16_000_000,
        "fixture shrank: {}",
        expected.len()
    );

    let writable = counter("serve.loop.wake.writable");
    let raw = send_wide(&server, None);
    let frame = read_frame(&mut Trickle(raw.try_clone().expect("clone")))
        .expect("response")
        .expect("frame");
    let got = frame.get("result").expect("result").render();
    assert!(got == expected, "response differs from the in-process rows");
    assert!(
        counter("serve.loop.wake.writable") > writable,
        "16 MB crossed the socket without a single POLLOUT wake-up"
    );

    // Nothing is owed any more, so the connection polls for input only:
    // an idle writable socket must not spin the driver.
    let polls = counter("serve.loop.polls");
    std::thread::sleep(Duration::from_millis(100));
    let polls = counter("serve.loop.polls") - polls;
    assert!(polls <= 4, "{polls} polls while idle after the flush");
    drop(raw);
    server.shutdown();
    server.wait();
}

/// A closing connection whose peer never reads is dropped when its flush
/// grace (2 s) runs out — by the `poll` timeout, there being no traffic.
#[test]
fn non_reading_peer_is_closed_at_the_flush_deadline() {
    let _guard = serial();
    let (server, _db) = start_wide();
    let shared = Arc::clone(server.shared());
    let deadline_wakes = counter("serve.loop.wake.deadline");
    let sent = Instant::now();
    let raw = send_wide(&server, Some(Request::Quit));
    assert_eq!(shared.active_sessions(), 1);
    wait_until("the flush deadline", Duration::from_secs(15), || {
        shared.active_sessions() == 0
    });
    assert!(
        sent.elapsed() >= Duration::from_secs(2),
        "closed after {:?}: before the flush grace ran out",
        sent.elapsed()
    );
    assert!(
        counter("serve.loop.wake.deadline") > deadline_wakes,
        "the close was not produced by a poll timeout"
    );
    drop(raw);
    server.shutdown();
    server.wait();
}
