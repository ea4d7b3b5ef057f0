//! End-to-end tests over real loopback sockets: a 16-connection closed
//! loop checked bit-for-bit against in-process execution, cache hit rate
//! after warmup, session options, prepared statements, protocol errors,
//! and the session cap.

use std::sync::Arc;
use std::time::Duration;

use conquer_core::ConstraintSet;
use conquer_engine::{Database, ExecOptions};
use conquer_obs::Json;
use conquer_serve::cache::build_statement;
use conquer_serve::protocol::rows_to_json;
use conquer_serve::{serve, Client, ServerConfig, ServerHandle, Strategy};

/// An inconsistent two-table database: customers keyed by ckey and orders
/// keyed by okey, with injected key violations in both.
fn seed_script() -> String {
    let mut sql = String::from(
        "create table customer (ckey text, name text, nation text);
         create table orders (okey text, cust text, price float, qty int);\n",
    );
    sql.push_str("insert into customer values\n");
    for i in 0..60 {
        let nation = ["fr", "de", "jp"][i % 3];
        sql.push_str(&format!("('c{i}', 'name{i}', '{nation}'),\n"));
    }
    // Key violations: conflicting duplicates for every tenth customer.
    for i in (0..60).step_by(10) {
        let sep = if i + 10 < 60 { "," } else { ";" };
        sql.push_str(&format!("('c{i}', 'dup{i}', 'us'){sep}\n"));
    }
    sql.push_str("insert into orders values\n");
    for i in 0..90 {
        let cust = i % 60;
        let price = (i * 17 % 400) as f64 + 0.25;
        sql.push_str(&format!("('o{i}', 'c{cust}', {price}, {}),\n", i % 7 + 1));
    }
    for i in (0..90).step_by(15) {
        let sep = if i + 15 < 90 { "," } else { ";" };
        sql.push_str(&format!("('o{i}', 'c{}', 999.5, 9){sep}\n", (i + 3) % 60));
    }
    sql
}

fn seed() -> (Arc<Database>, ConstraintSet) {
    let db = Database::new();
    db.run_script(&seed_script()).expect("seed script");
    let sigma = ConstraintSet::new()
        .with_key("customer", ["ckey"])
        .with_key("orders", ["okey"]);
    (Arc::new(db), sigma)
}

fn start(config: ServerConfig) -> (ServerHandle, Arc<Database>, ConstraintSet) {
    let (db, sigma) = seed();
    let server = serve(Arc::clone(&db), sigma.clone(), config).expect("bind loopback");
    (server, db, sigma)
}

/// The closed-loop workload: selections, a key join, and an aggregation,
/// each run both as written and under the ConQuer rewriting.
const QUERIES: &[&str] = &[
    "select ckey from customer where nation = 'fr'",
    "select ckey, name from customer where nation = 'de'",
    "select o.okey from orders o, customer c where o.cust = c.ckey and c.nation = 'jp'",
    "select cust, count(*) from orders group by cust",
    "select cust, sum(price) from orders group by cust",
    "select okey from orders where price > 300",
];
const STRATEGIES: &[Strategy] = &[Strategy::Original, Strategy::Rewritten];

/// Canonical encoding of a result set — the same JSON the wire uses, so
/// equality here is exactly the protocol's bit-identity claim.
fn canon(rows: &conquer_engine::Rows) -> String {
    rows_to_json(rows).render()
}

#[test]
fn sixteen_connection_closed_loop_matches_in_process_execution() {
    let (server, db, sigma) = start(ServerConfig {
        max_concurrent: 8,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // Expected answers via the identical in-process pipeline, serially.
    let options = ExecOptions {
        threads: 1,
        ..ExecOptions::default()
    };
    let mut expected = Vec::new();
    for sql in QUERIES {
        for &strategy in STRATEGIES {
            let stmt =
                build_statement(&db, &sigma, sql, strategy, &options).expect("in-process build");
            let rows = db
                .execute_plan_with(&stmt.plan, &options)
                .expect("in-process execute");
            expected.push(((*sql, strategy), canon(&rows)));
        }
    }
    let expected = Arc::new(expected);

    const ROUNDS: usize = 8;
    std::thread::scope(|scope| {
        for worker in 0..16 {
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set("threads", Json::UInt(1)).expect("set threads");
                for round in 0..ROUNDS {
                    // Stagger start points so workers don't run in lockstep.
                    for step in 0..expected.len() {
                        let ((sql, strategy), want) =
                            &expected[(worker + round + step) % expected.len()];
                        let outcome = loop {
                            match client.query_with(sql, Some(*strategy)) {
                                Ok(outcome) => break outcome,
                                Err(e) if e.is_busy() => {
                                    std::thread::sleep(Duration::from_millis(2))
                                }
                                Err(e) => panic!("worker {worker}: {sql}: {e}"),
                            }
                        };
                        assert_eq!(
                            &canon(&outcome.rows),
                            want,
                            "worker {worker} round {round}: `{sql}` ({}) diverged from \
                             in-process execution",
                            strategy.label()
                        );
                    }
                }
                client.quit().expect("quit");
            });
        }
    });

    // ≥90% hit rate after warmup: 16 workers × 8 rounds × 12 statements,
    // only the first build of each (sql, strategy) should miss.
    let mut client = Client::connect(addr).expect("stats connect");
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    let hits = cache.get("hits").and_then(Json::as_f64).expect("hits");
    let misses = cache.get("misses").and_then(Json::as_f64).expect("misses");
    let hit_rate = hits / (hits + misses);
    assert!(
        hit_rate >= 0.9,
        "cache hit rate {hit_rate:.3} below 0.9 ({hits} hits / {misses} misses)"
    );
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn set_options_shape_execution() {
    let (server, _db, _sigma) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    // A row limit trips with the structured code...
    client.set("max_rows", Json::UInt(3)).expect("set max_rows");
    let err = client
        .query("select okey from orders")
        .expect_err("row limit should trip");
    match &err {
        conquer_serve::ClientError::Server { code, .. } => {
            assert_eq!(*code, conquer_serve::ErrorCode::RowLimit)
        }
        other => panic!("expected a row-limit server error, got {other}"),
    }
    // ...and clearing it (0) restores full results.
    client
        .set("max_rows", Json::UInt(0))
        .expect("clear max_rows");
    let all = client.query("select okey from orders").expect("query");
    assert!(all.rows.rows.len() > 3);

    // The session strategy changes what a bare query means.
    let original = client.query("select ckey from customer").expect("original");
    client
        .set("strategy", Json::Str("rewritten".into()))
        .expect("set strategy");
    let rewritten = client
        .query("select ckey from customer")
        .expect("rewritten");
    assert!(
        rewritten.rows.rows.len() < original.rows.rows.len(),
        "the rewriting must drop key-violating duplicates"
    );

    // Unknown options and bad values are protocol errors, session intact.
    for (name, value) in [
        ("no_such_option", Json::UInt(1)),
        ("threads", Json::Str("many".into())),
        ("strategy", Json::Str("fastest".into())),
    ] {
        let err = client.set(name, value).expect_err("bad set");
        match err {
            conquer_serve::ClientError::Server { code, .. } => {
                assert_eq!(code, conquer_serve::ErrorCode::Protocol)
            }
            other => panic!("expected protocol error, got {other}"),
        }
    }
    client.ping().expect("session survives bad SETs");
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn prepared_statements_roundtrip() {
    let (server, _db, _sigma) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    let sql = "select ckey from customer where nation = 'fr'";
    let id = client
        .prepare(sql, Some(Strategy::Rewritten))
        .expect("prepare");
    let first = client.execute(id).expect("execute");
    let second = client.execute(id).expect("re-execute");
    assert_eq!(canon(&first.rows), canon(&second.rows));
    assert!(second.cached, "second execute must come from the cache");

    client.close_statement(id).expect("close");
    let err = client.execute(id).expect_err("closed statement");
    match err {
        conquer_serve::ClientError::Server { code, .. } => {
            assert_eq!(code, conquer_serve::ErrorCode::UnknownStatement)
        }
        other => panic!("expected unknown_statement, got {other}"),
    }
    client.quit().expect("quit");
    server.shutdown();
}

/// The in-process answer to `sql` under `strategy`, one thread, as the wire
/// encodes it.
fn in_process(db: &Database, sigma: &ConstraintSet, sql: &str, strategy: Strategy) -> String {
    let options = ExecOptions {
        threads: 1,
        ..ExecOptions::default()
    };
    let stmt = build_statement(db, sigma, sql, strategy, &options).expect("in-process build");
    canon(
        &db.execute_plan_with(&stmt.plan, &options)
            .expect("in-process execute"),
    )
}

/// A prepared statement is its cache key, so a session may prepare more
/// statements than the cache holds: each `execute` re-resolves through the
/// cache, rebuilding what was evicted, and always answers right.
#[test]
fn prepared_statements_past_the_cache_capacity_answer_right() {
    let (server, db, sigma) = start(ServerConfig {
        cache_capacity: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.set("threads", Json::UInt(1)).expect("set threads");
    let statements: Vec<(&str, Strategy)> = QUERIES[..5]
        .iter()
        .zip(
            [Strategy::Rewritten, Strategy::Original]
                .into_iter()
                .cycle(),
        )
        .map(|(sql, strategy)| (*sql, strategy))
        .collect();
    let ids: Vec<u64> = statements
        .iter()
        .map(|(sql, strategy)| client.prepare(sql, Some(*strategy)).expect("prepare"))
        .collect();
    for _ in 0..2 {
        for (id, (sql, strategy)) in ids.iter().zip(&statements) {
            let served = client.execute(*id).expect("execute");
            assert_eq!(
                canon(&served.rows),
                in_process(&db, &sigma, sql, *strategy),
                "`{sql}` ({})",
                strategy.label()
            );
        }
    }
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(2.0));
    assert!(cache.get("evictions").and_then(Json::as_f64) >= Some(3.0));
    client.quit().expect("quit");
    server.shutdown();
}

/// A statement prepared before a write to a table it reads answers with
/// the write: its first `execute` after the write rebuilds (`cached` is
/// false), the next one is served from the rebuilt entry.
#[test]
fn a_prepared_statement_answers_a_write_made_after_it() {
    let (server, db, sigma) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let sql = "select okey from orders where price > 300";
    let id = client
        .prepare(sql, Some(Strategy::Rewritten))
        .expect("prepare");
    client
        .script("insert into orders values ('o500', 'c1', 512.0, 3)")
        .expect("insert");
    let want = in_process(&db, &sigma, sql, Strategy::Rewritten);
    assert!(want.contains("o500"), "{want}");
    for cached in [false, true] {
        let served = client.execute(id).expect("execute");
        assert_eq!(canon(&served.rows), want);
        assert_eq!(served.cached, cached);
    }
    client.quit().expect("quit");
    server.shutdown();
}

/// Cache entries are shared across sessions, so statements are *built*
/// under the server-level build options, not the requesting session's
/// `SET` limits — a session with a 1-byte memory budget can still prepare
/// a rewritten statement (whose build materializes CTEs); its limits
/// govern execution only.
#[test]
fn session_limits_do_not_shape_cache_builds() {
    let (server, db, sigma) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let sql = "select ckey from customer where nation = 'fr'";

    // Sanity: this build genuinely exceeds a 1-byte budget, so the prepare
    // below can only succeed via the server-level options.
    let mut tiny = ExecOptions::default();
    tiny.limits.max_memory_bytes = Some(1);
    assert!(
        build_statement(&db, &sigma, sql, Strategy::Rewritten, &tiny).is_err(),
        "expected the rewritten build to trip a 1-byte memory budget"
    );

    client
        .set("mem_limit", Json::UInt(1))
        .expect("set mem_limit");
    let id = client
        .prepare(sql, Some(Strategy::Rewritten))
        .expect("prepare must build under server options, not the session's 1-byte budget");
    client
        .set("mem_limit", Json::UInt(0))
        .expect("clear mem_limit");
    let served = client.execute(id).expect("execute");

    // The shared entry answers exactly like in-process execution.
    let reference = build_statement(
        &db,
        &sigma,
        sql,
        Strategy::Rewritten,
        &ExecOptions::default(),
    )
    .expect("in-process build");
    let expected = db
        .execute_plan_with(&reference.plan, &ExecOptions::default())
        .expect("in-process execute");
    assert_eq!(canon(&served.rows), canon(&expected));

    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn protocol_and_parse_errors_are_structured() {
    let (server, _db, _sigma) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    // Unknown request op: structured protocol error, session stays up.
    let resp = client
        .roundtrip(&conquer_serve::Request::Query {
            sql: "select ckey from".to_string(), // malformed SQL
            strategy: Some(Strategy::Original),
        })
        .expect_err("parse error");
    match resp {
        conquer_serve::ClientError::Server { code, .. } => {
            assert_eq!(code, conquer_serve::ErrorCode::Parse)
        }
        other => panic!("expected parse error, got {other}"),
    }

    // Non-tree queries are rejected by the rewriting with `rewrite`.
    let err = client
        .query_with(
            "select a.ckey from customer a, customer b where a.name = b.name",
            Some(Strategy::Rewritten),
        )
        .expect_err("non-tree query");
    match err {
        conquer_serve::ClientError::Server { code, .. } => {
            assert_eq!(code, conquer_serve::ErrorCode::Rewrite)
        }
        other => panic!("expected rewrite error, got {other}"),
    }

    client.ping().expect("session survives structured errors");
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn session_cap_greets_with_busy() {
    let (server, _db, _sigma) = start(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let first = Client::connect(server.addr()).expect("first connect");
    let err = Client::connect(server.addr()).expect_err("second connect should be rejected");
    assert!(err.is_busy(), "expected busy greeting, got {err}");
    drop(first);
    // The slot frees once the first session ends.
    let mut retry = None;
    for _ in 0..200 {
        match Client::connect(server.addr()) {
            Ok(client) => {
                retry = Some(client);
                break;
            }
            Err(e) if e.is_busy() => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("connect: {e}"),
        }
    }
    retry
        .expect("slot freed after disconnect")
        .quit()
        .expect("quit");
    server.shutdown();
}

/// There is one server: `--io-threads 0` no longer selects another one,
/// and the worker pool has no flag of its own. Both are usage errors,
/// reported before anything is bound.
#[test]
fn binary_rejects_zero_io_threads_and_the_workers_flag() {
    for (flags, complaint) in [
        (["--io-threads", "0"], "--io-threads: must be at least 1"),
        (["--workers", "4"], "unknown flag `--workers`"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_conquer-serve"))
            .args(flags)
            .output()
            .expect("run conquer-serve");
        assert!(!out.status.success(), "{flags:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(complaint), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} got as far as listening");
    }
}
