//! Tier-2 tests for the execution governor: resource limits trip promptly
//! with structured errors, cancellation works across threads, and the
//! database stays usable after every trip.

use std::time::{Duration, Instant};

use conquer_engine::{CancellationToken, Database, EngineError, ExecOptions, ResourceLimits};

/// A database whose cross-join `select * from a, b` yields `n * n`
/// intermediate rows — enough work to observe limits tripping mid-query.
fn cross_join_db(n: usize) -> Database {
    let db = Database::new();
    let mut script = String::from("create table a (x integer);\ncreate table b (y integer);\n");
    let vals: Vec<String> = (0..n).map(|i| format!("({i})")).collect();
    script.push_str(&format!("insert into a values {};\n", vals.join(", ")));
    script.push_str(&format!("insert into b values {};\n", vals.join(", ")));
    db.run_script(&script).expect("build cross-join fixture");
    db
}

/// After a trip the same Database must answer queries normally.
fn assert_usable(db: &Database) {
    let rows = db
        .query("select count(*) from a")
        .expect("database still usable after trip");
    assert_eq!(rows.len(), 1);
}

#[test]
fn timeout_trips_mid_join_with_operator_context() {
    let db = cross_join_db(2_000); // 4M intermediate rows
    let options = ExecOptions::default()
        .with_limits(ResourceLimits::unlimited().with_timeout(Duration::from_millis(10)));
    let t0 = Instant::now();
    let err = db
        .query_with("select count(*) from a, b where a.x + b.y > 0", &options)
        .expect_err("4M-row join must not finish in 10ms");
    let elapsed = t0.elapsed();
    match &err {
        EngineError::Timeout(trip) => {
            assert!(!trip.operator.is_empty(), "trip names an operator");
            assert!(trip.elapsed_ms >= 10, "trip records elapsed time");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    // The governor checks cooperatively every few hundred rows, so the
    // trip should land well within the ~50ms budget past the deadline.
    assert!(
        elapsed < Duration::from_millis(500),
        "timeout honored promptly, took {elapsed:?}"
    );
    assert_usable(&db);
}

#[test]
fn row_limit_trips_on_cross_join() {
    let db = cross_join_db(500); // 250k intermediate rows
    let options =
        ExecOptions::default().with_limits(ResourceLimits::unlimited().with_max_rows(10_000));
    let err = db
        .query_with("select count(*) from a, b", &options)
        .expect_err("row budget far below the cross-join cardinality");
    let trip = match &err {
        EngineError::RowLimitExceeded(trip) => trip,
        other => panic!("expected RowLimitExceeded, got {other:?}"),
    };
    assert!(trip.rows >= 10_000, "trip snapshot carries the row count");
    assert_usable(&db);
}

#[test]
fn memory_limit_trips_on_cross_join() {
    let db = cross_join_db(500);
    let options = ExecOptions::default()
        .with_limits(ResourceLimits::unlimited().with_max_memory_bytes(64 * 1024));
    let err = db
        .query_with("select a.x, b.y from a, b", &options)
        .expect_err("cross-join materialization exceeds a 64 KiB budget");
    let trip = match &err {
        EngineError::MemoryExceeded(trip) => trip,
        other => panic!("expected MemoryExceeded, got {other:?}"),
    };
    assert!(trip.mem_bytes >= 64 * 1024);
    assert_usable(&db);
}

#[test]
fn memory_limit_trips_on_aggregation_build() {
    let db = cross_join_db(500);
    // High-cardinality GROUP BY: the group table itself blows the budget.
    let options = ExecOptions::default()
        .with_limits(ResourceLimits::unlimited().with_max_memory_bytes(32 * 1024));
    let err = db
        .query_with(
            "select a.x, b.y, count(*) from a, b group by a.x, b.y",
            &options,
        )
        .expect_err("group table exceeds a 32 KiB budget");
    assert!(
        matches!(
            err,
            EngineError::MemoryExceeded(_) | EngineError::RowLimitExceeded(_)
        ),
        "expected a resource trip, got {err:?}"
    );
    assert_usable(&db);
}

#[test]
fn memory_limit_charges_distinct_by_key_width() {
    // 4 000 distinct rows, six integer columns wide. DISTINCT used to
    // charge `size_of::<Key>()` = 24 B per hash-set slot whatever the key
    // width — 7 168 slots, 172 032 B — and sailed through a 200 000 B
    // budget while really holding six cells per key, twice (set and
    // output). It now charges what it keeps, on any input: the group-key
    // kernel's table entry plus the six gathered 8 B values (68 B a key,
    // 272 000 B).
    let db = Database::new();
    let rows: Vec<String> = (0..4_000)
        .map(|i| format!("({i}, {i}, {i}, {i}, {i}, {i})"))
        .collect();
    db.run_script(&format!(
        "create table w (a integer, b integer, c integer, d integer, e integer, f integer);\n\
         insert into w values {};",
        rows.join(", ")
    ))
    .expect("build wide fixture");
    let budget = ResourceLimits::unlimited().with_max_memory_bytes(200_000);
    // The kernel over the scanned columns, and over a filter's row-shaped
    // output turned into columns (an arithmetic predicate is not compiled).
    for sql in [
        "select distinct a, b, c, d, e, f from w",
        "select distinct a, b, c, d, e, f from w where a + 0 >= 0",
    ] {
        let options = ExecOptions::default().with_limits(budget);
        let err = db
            .query_with(sql, &options)
            .expect_err("a six-column DISTINCT holds more than 200 000 B");
        match &err {
            EngineError::MemoryExceeded(trip) => {
                assert_eq!(trip.operator, "distinct", "{sql}");
                assert!(trip.mem_bytes > 200_000);
            }
            other => panic!("{sql}: expected MemoryExceeded, got {other:?}"),
        }
    }
    // The charge follows the key width: one column of the same table fits
    // the same budget on the kernel path (28 B a key).
    let rows = db
        .query_with(
            "select distinct a from w",
            &ExecOptions::default().with_limits(budget),
        )
        .expect("a one-column DISTINCT fits");
    assert_eq!(rows.len(), 4_000);
}

#[test]
fn memory_limit_charges_existence_join_by_distinct_key() {
    // 9 000 build rows holding 3 000 distinct keys, probed by 10 rows. Every
    // existence join keeps one 20 B table entry per distinct key — 60 000 B,
    // the keys themselves staying in their columns — so it trips 40 000 B
    // while building and fits 70 000 B, whether its key is a plain column or
    // an expression evaluated into a fresh column.
    let db = Database::new();
    let build: Vec<String> = (0..9_000).map(|i| format!("({})", i % 3_000)).collect();
    db.run_script(&format!(
        "create table a (x integer);\ncreate table b (y integer);\n\
         insert into a values (0), (1), (2), (3), (4), (5000), (5001), (5002), (5003), (5004);\n\
         insert into b values {};",
        build.join(", ")
    ))
    .expect("build semi-join fixture");
    let column = "select x from a where exists (select y from b where b.y = a.x)";
    let expression = "select x from a where exists (select y from b where b.y = a.x + 0)";
    let run = |sql: &str, bytes: u64| {
        let options = ExecOptions::default()
            .with_limits(ResourceLimits::unlimited().with_max_memory_bytes(bytes));
        db.query_with(sql, &options)
    };
    for sql in [column, expression] {
        match run(sql, 40_000) {
            Err(EngineError::MemoryExceeded(trip)) => {
                assert_eq!(trip.operator, "hash_join", "{sql}");
                assert!(trip.mem_bytes > 40_000);
            }
            other => panic!("40 000 B, {sql}: expected MemoryExceeded: {other:?}"),
        }
        // Under the budget that fits: the reference's five rows.
        let reference = conquer_reference::evaluate_sql(&db, sql).expect("reference");
        assert_eq!(reference.len(), 5);
        let got = run(sql, 70_000).expect("60 000 B of keys fit");
        assert_eq!(conquer_reference::diff(&reference, &got, true), None);
    }
    assert_usable(&db);
}

#[test]
fn cancellation_from_another_thread_stops_promptly() {
    let db = cross_join_db(2_000);
    let token = CancellationToken::new();
    let options = ExecOptions::default().with_cancellation(token.clone());

    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    };

    let t0 = Instant::now();
    let err = db
        .query_with("select count(*) from a, b where a.x + b.y > 0", &options)
        .expect_err("cancelled mid-join");
    let elapsed = t0.elapsed();
    canceller.join().expect("canceller thread");

    assert!(
        matches!(err, EngineError::Cancelled(_)),
        "expected Cancelled, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_millis(500),
        "cancellation honored promptly, took {elapsed:?}"
    );
    assert_usable(&db);

    // A fresh token runs the workload-free query fine; the cancelled token
    // stays cancelled for reuse detection.
    assert!(token.is_cancelled());
    let fresh = ExecOptions::default().with_cancellation(CancellationToken::new());
    db.query_with("select count(*) from a", &fresh)
        .expect("fresh token executes");
}

#[test]
fn pre_cancelled_token_fails_before_any_work() {
    let db = cross_join_db(50);
    let token = CancellationToken::new();
    token.cancel();
    let options = ExecOptions::default().with_cancellation(token);
    let err = db
        .query_with("select count(*) from a, b", &options)
        .expect_err("pre-cancelled token");
    assert!(matches!(err, EngineError::Cancelled(_)));
    assert_usable(&db);
}

#[test]
fn limits_cover_cte_materialization() {
    let db = cross_join_db(500);
    let options =
        ExecOptions::default().with_limits(ResourceLimits::unlimited().with_max_rows(10_000));
    // The cross join materializes inside the CTE at plan time; the governor
    // must already be attached there.
    let err = db
        .query_with(
            "with big as (select a.x as x, b.y as y from a, b) select count(*) from big",
            &options,
        )
        .expect_err("CTE materialization must respect the row budget");
    assert!(
        matches!(err, EngineError::RowLimitExceeded(_)),
        "expected RowLimitExceeded, got {err:?}"
    );
    assert_usable(&db);
}

#[test]
fn unlimited_options_do_not_interfere() {
    let db = cross_join_db(40);
    let rows = db
        .query_with(
            "select count(*) from a, b",
            &ExecOptions::default().with_limits(ResourceLimits::unlimited()),
        )
        .expect("unlimited run succeeds");
    assert_eq!(rows.rows[0][0].to_string(), "1600");
}
