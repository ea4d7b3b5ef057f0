//! Thread-count invariance of the morsel driver.
//!
//! Every test runs the same query at `threads = 1` (each operator body
//! called once, inline) and at `threads ∈ {2, 8}` (the same bodies fanned
//! out over morsels), asserting the results are *exactly* equal —
//! including row order, which the executor reconstructs from morsel order
//! even where SQL leaves it free. Since both sides run one body, equality
//! alone cannot catch a bug they share: the tests whose result depends on
//! an order the executor must reconstruct (first-seen group order, which
//! duplicate a DISTINCT keeps, stable sort ties) also compare against the
//! row-at-a-time reference evaluator (`conquer-reference`), row for row
//! and variant for variant. Float SUM/AVG are exact
//! ([`conquer_engine::fsum`]); the one test that predates that still uses
//! a relative tolerance.
//!
//! Tables are sized past the executor's parallel threshold (4 × 1024-row
//! morsels) so the fan-out actually runs.

use conquer_engine::{
    CancellationToken, DataType, Database, EngineError, ExecOptions, ResourceLimits, Rows, Table,
    Value,
};

/// Deterministic LCG so the fixture is identical across runs and platforms.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// `t(k, v, s, f, m)` with `n` rows: `k` unique, `v` low-cardinality
/// (many groups with many rows each) and sometimes NULL, `s` a 7-way
/// skewed text column with ties for sort-stability checks, `f` a float,
/// `m` five numbers each stored now as `Int(x)`, now as `Float(x)` (one
/// DISTINCT value, two representations). Plus `u(k, w)` with `n/8` rows
/// sharing `k`'s domain so joins hit and miss.
fn fixture(n: usize) -> Database {
    let db = Database::new();
    let mut rng = Lcg(0xC0FFEE);
    let mut t = Table::new(
        "t",
        vec![
            ("k", DataType::Integer),
            ("v", DataType::Integer),
            ("s", DataType::Text),
            ("f", DataType::Float),
            ("m", DataType::Float),
        ],
    );
    for i in 0..n {
        let r = rng.next();
        let s = match r % 7 {
            0 => "alpha",
            1 => "bravo",
            2 => "charlie",
            3 => "delta",
            4 => "echo",
            5 => "", // empty string ties with itself a lot
            _ => "golf",
        };
        let v = (r % 97) as i64;
        let row = vec![
            Value::Int(i as i64),
            if r.is_multiple_of(31) {
                Value::Null
            } else {
                Value::Int(v)
            },
            Value::str(s),
            Value::Float((r % 1000) as f64 / 8.0 - 60.0),
            if r.is_multiple_of(3) {
                Value::Int((r % 5) as i64)
            } else {
                Value::Float((r % 5) as f64)
            },
        ];
        t.push(row).unwrap();
    }
    db.register(t).unwrap();
    let mut u = Table::new(
        "u",
        vec![("k", DataType::Integer), ("w", DataType::Integer)],
    );
    for _ in 0..n / 8 {
        let r = rng.next();
        u.push(vec![
            Value::Int((r % (2 * n as u64)) as i64),
            Value::Int((r % 13) as i64),
        ])
        .unwrap();
    }
    db.register(u).unwrap();
    db
}

fn run_at(db: &Database, sql: &str, threads: usize) -> Rows {
    db.query_with(sql, &ExecOptions::default().with_threads(threads))
        .unwrap_or_else(|e| panic!("query failed at threads={threads}: {e}\n{sql}"))
}

/// Assert the query's output is bit-identical at 1, 2, and 8 threads.
fn assert_thread_invariant(db: &Database, sql: &str) {
    let serial = run_at(db, sql, 1);
    for threads in [2, 8] {
        let parallel = run_at(db, sql, threads);
        assert_eq!(
            serial.rows, parallel.rows,
            "threads={threads} diverged from serial on: {sql}"
        );
    }
}

/// Assert the query returns exactly the reference evaluator's answer, in
/// its order, at 1, 2 and 8 threads, and return that answer.
fn assert_matches_reference(db: &Database, sql: &str) -> Rows {
    let expected = conquer_reference::evaluate_sql(db, sql).unwrap();
    for threads in [1, 2, 8] {
        let got = run_at(db, sql, threads);
        if let Some(diff) = conquer_reference::diff(&expected, &got, true) {
            panic!("threads={threads}: {diff}, on: {sql}");
        }
    }
    expected
}

/// Like [`assert_thread_invariant`] but floats compare within relative
/// tolerance (parallel SUM/AVG re-associates addition).
fn assert_thread_invariant_approx(db: &Database, sql: &str) {
    let serial = run_at(db, sql, 1);
    for threads in [2, 8] {
        let parallel = run_at(db, sql, threads);
        assert_eq!(serial.rows.len(), parallel.rows.len(), "row count: {sql}");
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                match (x, y) {
                    (Value::Float(x), Value::Float(y)) => {
                        let scale = x.abs().max(y.abs()).max(1.0);
                        assert!(
                            (x - y).abs() <= 1e-9 * scale,
                            "float diverged: {x} vs {y} at threads={threads} on: {sql}"
                        );
                    }
                    _ => assert_eq!(x, y, "threads={threads} diverged on: {sql}"),
                }
            }
        }
    }
}

#[test]
fn filter_and_project_preserve_order() {
    let db = fixture(12_000);
    assert_thread_invariant(&db, "select t.k, t.v from t where t.v > 40");
    assert_thread_invariant(&db, "select t.k from t where t.s = 'delta'");
}

#[test]
fn inner_join_matches_serial() {
    let db = fixture(12_000);
    assert_thread_invariant(&db, "select t.k, t.v, u.w from t, u where t.k = u.k");
}

#[test]
fn join_with_residual_matches_serial() {
    let db = fixture(12_000);
    assert_thread_invariant(
        &db,
        "select t.k, u.w from t, u where t.k = u.k and t.v > u.w",
    );
}

#[test]
fn semi_and_anti_joins_match_serial() {
    let db = fixture(12_000);
    assert_thread_invariant(
        &db,
        "select t.k from t where exists (select u.k from u where u.k = t.k)",
    );
    assert_thread_invariant(
        &db,
        "select t.k from t where not exists (select u.k from u where u.k = t.k)",
    );
}

#[test]
fn aggregation_matches_serial_including_group_order() {
    let db = fixture(12_000);
    // Integer aggregates are exact; group rows must come out in serial
    // first-seen order.
    assert_thread_invariant(
        &db,
        "select t.v, count(*), sum(t.k), min(t.k), max(t.k) from t group by t.v",
    );
    // Global aggregate (no GROUP BY) over an input that fans out.
    assert_thread_invariant(&db, "select count(*), sum(t.k) from t");

    // The same answers from the reference: groups in first-seen order.
    let grouped = assert_matches_reference(
        &db,
        "select t.v, count(*), sum(t.k), min(t.k), max(t.k) from t group by t.v",
    );
    assert!(grouped.rows.len() == 98, "97 values of v, and NULL");
    assert_matches_reference(&db, "select count(*), sum(t.k) from t");
}

#[test]
fn distinct_aggregates_match_serial() {
    let db = fixture(12_000);
    assert_thread_invariant(
        &db,
        "select t.v, count(distinct t.s), min(t.s) from t group by t.v",
    );

    // `m` stores each of its five numbers both as `Int(x)` and `Float(x)`:
    // one DISTINCT value, and the aggregate must fold whichever a group saw
    // first — so MIN/MAX come out as `0` or `0.0`, `4` or `4.0` by group.
    let sql = "select t.v, count(distinct t.m), min(distinct t.m), max(distinct t.m) \
               from t group by t.v";
    assert_thread_invariant(&db, sql);
    let expected = assert_matches_reference(&db, sql);
    let ints = expected
        .rows
        .iter()
        .filter(|row| matches!(row[2], Value::Int(_)))
        .count();
    assert!(
        0 < ints && ints < expected.rows.len(),
        "the fixture exercises both variants"
    );
}

#[test]
fn float_aggregates_match_within_ulp_tolerance() {
    let db = fixture(12_000);
    assert_thread_invariant_approx(&db, "select t.v, sum(t.f), avg(t.f) from t group by t.v");
}

#[test]
fn distinct_preserves_first_occurrence_order() {
    let db = fixture(12_000);
    assert_thread_invariant(&db, "select distinct t.v from t");
    assert_thread_invariant(&db, "select distinct t.s, t.v from t");

    // The same answer from the reference: each pair where it first occurs.
    let pairs = assert_matches_reference(&db, "select distinct t.s, t.v from t");
    assert!(pairs.rows.len() > 600, "most of the 7 x 98 pairs occur");
}

#[test]
fn sort_preserves_stable_tie_order() {
    let db = fixture(12_000);
    // `s` has only 7 distinct values over 12k rows: massive tie runs. The
    // parallel sort must reproduce the serial stable sort exactly.
    assert_thread_invariant(&db, "select t.s, t.k from t order by t.s");
    assert_thread_invariant(&db, "select t.s, t.v, t.k from t order by t.s, t.v desc");
    assert_thread_invariant(&db, "select t.v, t.k from t order by t.v desc limit 100");

    // The same answers from the reference's stable sort: rows of a tie run
    // keep their input order, NULL `v`s come last even descending.
    assert_matches_reference(&db, "select t.s, t.k from t order by t.s");
    assert_matches_reference(&db, "select t.s, t.v, t.k from t order by t.s, t.v desc");
}

#[test]
fn order_by_with_nulls_matches_serial() {
    let db = fixture(12_000);
    // `v` is NULL for ~1/31 of rows; NULLs sort last in both paths.
    assert_thread_invariant(&db, "select t.v, t.k from t order by t.v");
}

#[test]
fn union_all_feeding_parallel_operators_matches_serial() {
    let db = fixture(8_000);
    assert_thread_invariant(
        &db,
        "select t.v from t union all select u.w from u order by 1",
    );
}

#[test]
fn row_limit_trips_identically_at_any_thread_count() {
    let db = fixture(12_000);
    for sql in [
        "select t.k, u.w from t, u where t.k = u.k",
        // The typed existence kernel emits per morsel, not per row: the
        // scans commit 13 500 rows, the join's ~750 survivors go over.
        "select t.k from t where exists (select u.k from u where u.k = t.k)",
    ] {
        for (max_rows, trips) in [(500, true), (13_600, true), (1_000_000, false)] {
            for threads in [1, 2, 8] {
                let options = ExecOptions {
                    limits: ResourceLimits::default().with_max_rows(max_rows),
                    ..ExecOptions::default()
                }
                .with_threads(threads);
                match db.query_with(sql, &options) {
                    Err(EngineError::RowLimitExceeded(_)) if trips => {}
                    Ok(_) if !trips => {}
                    other => {
                        panic!(
                        "threads={threads} max_rows={max_rows}: expected {}, got {other:?}\n{sql}",
                        if trips { "RowLimitExceeded" } else { "an answer" }
                    )
                    }
                }
            }
        }
    }
    // The database stays fully usable after governed parallel failures.
    assert_eq!(run_at(&db, "select count(*) from u", 8).rows.len(), 1);
}

#[test]
fn memory_limit_trips_identically_at_any_thread_count() {
    let db = fixture(12_000);
    let sql = "select t.v, count(distinct t.s) from t group by t.v";
    for threads in [1, 2, 8] {
        let options = ExecOptions {
            limits: ResourceLimits::default().with_max_memory_bytes(2_000),
            ..ExecOptions::default()
        }
        .with_threads(threads);
        let err = db.query_with(sql, &options).unwrap_err();
        assert!(
            matches!(err, EngineError::MemoryExceeded(_)),
            "threads={threads}: expected MemoryExceeded, got {err:?}"
        );
    }

    // Operators fed by a join's row-shaped output (20 000 join rows, 10
    // distinct): whether a budget trips must not depend on the thread
    // count. DISTINCT once charged its one-worker set for every input row up
    // front and tripped at 800 000 B where two workers passed.
    let mut a = Table::new("a", vec![("k", DataType::Integer)]);
    for i in 0..20_000 {
        a.push(vec![Value::Int(i % 10)]).unwrap();
    }
    db.register(a).unwrap();
    let mut b = Table::new(
        "b",
        vec![("k", DataType::Integer), ("w", DataType::Integer)],
    );
    for i in 0..10 {
        b.push(vec![Value::Int(i), Value::Int(i * 7)]).unwrap();
    }
    db.register(b).unwrap();
    // And the existence join, whose key table is built on one worker and
    // probed on many: 1 500 build keys of `u` at 20 B, then 16 B a surviving
    // row of the 12 000 probed.
    for sql in [
        "select distinct a.k, b.w from a join b on a.k = b.k",
        "select a.k, b.w, count(*) from a join b on a.k = b.k group by a.k, b.w",
        "select a.k, b.w from a join b on a.k = b.k order by b.w, a.k",
        "select t.k, t.v from t where exists (select u.k from u where u.k = t.k)",
        "select t.k, t.v from t where not exists (select u.k from u where u.k = t.k)",
    ] {
        for budget in [20_000, 35_000, 800_000, 2_000_000] {
            let outcome = |threads: usize| {
                let options = ExecOptions {
                    limits: ResourceLimits::default().with_max_memory_bytes(budget),
                    ..ExecOptions::default()
                }
                .with_threads(threads);
                match db.query_with(sql, &options) {
                    Ok(rows) => Ok(rows.rows.len()),
                    Err(EngineError::MemoryExceeded(_)) => Err(()),
                    Err(other) => panic!("threads={threads} budget={budget}: {other:?}\n{sql}"),
                }
            };
            let one = outcome(1);
            for threads in [2, 8] {
                assert_eq!(
                    one,
                    outcome(threads),
                    "budget={budget}: threads=1 and threads={threads} disagree on: {sql}"
                );
            }
        }
    }
}

#[test]
fn pre_cancelled_token_stops_parallel_execution() {
    let db = fixture(12_000);
    let token = CancellationToken::new();
    token.cancel();
    let options = ExecOptions {
        cancellation: Some(token),
        ..ExecOptions::default()
    }
    .with_threads(8);
    let err = db
        .query_with("select t.v, count(*) from t group by t.v", &options)
        .unwrap_err();
    assert!(matches!(err, EngineError::Cancelled(_)), "got {err:?}");
}

#[test]
fn explain_analyze_reports_thread_fanout() {
    let db = fixture(12_000);
    let (rows, text) = db
        .explain_analyze_with(
            "select t.v, count(*) from t where t.k >= 0 group by t.v order by t.v",
            &ExecOptions::default().with_threads(4),
        )
        .unwrap();
    assert!(!rows.rows.is_empty());
    assert!(
        text.contains("threads="),
        "EXPLAIN ANALYZE missing thread fan-out:\n{text}"
    );
    // The serial run never reports a thread count.
    let (_, serial_text) = db
        .explain_analyze_with(
            "select t.v, count(*) from t where t.k >= 0 group by t.v order by t.v",
            &ExecOptions::default().with_threads(1),
        )
        .unwrap();
    assert!(
        !serial_text.contains("threads="),
        "serial EXPLAIN ANALYZE should not report threads:\n{serial_text}"
    );
}

#[test]
fn small_inputs_fall_back_to_serial() {
    // Below the morsel threshold the driver must not spawn. EXPLAIN ANALYZE
    // exposes the fan-out per operator; the spawn counters themselves
    // (`exec.morsel.fanouts`, `exec.morsel.workers_spawned`) are
    // process-wide, so their zero-delta checks — threads = 1, and a
    // sub-threshold input at threads = 8 — live in the one-test binary
    // `tests/pivot_counters.rs`, where no concurrent test can move them.
    let db = fixture(512);
    let (_, text) = db
        .explain_analyze_with(
            "select t.v, count(*) from t group by t.v",
            &ExecOptions::default().with_threads(8),
        )
        .unwrap();
    assert!(
        !text.contains("threads="),
        "sub-threshold input should run serially:\n{text}"
    );
    assert_thread_invariant(&db, "select t.v, count(*) from t group by t.v");
}

#[test]
fn traced_parallel_query_includes_worker_spans() {
    let db = fixture(10_000);
    let ctx = conquer_obs::TraceContext::new();
    let options = ExecOptions::default()
        .with_threads(4)
        .with_trace(ctx.clone());
    let rows = db
        .query_with(
            "select t.v, count(*) from t group by t.v order by t.v",
            &options,
        )
        .unwrap();
    assert!(!rows.rows.is_empty());
    let spans = ctx.take_records();
    let execute = spans
        .iter()
        .find(|s| s.name == "execute")
        .expect("execute span captured");
    let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
    assert!(
        !workers.is_empty(),
        "a 10k-row parallel aggregate must produce worker spans; got {:?}",
        spans.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    assert!(
        workers.iter().any(|s| s.thread != execute.thread),
        "worker spans must come from threads other than the coordinator"
    );
    assert!(
        workers
            .iter()
            .all(|s| s.fields.iter().any(|(k, _)| *k == "worker")),
        "worker spans carry their worker id"
    );
    // Per-phase totals over the trace include the execute phase.
    let totals = conquer_obs::phase_totals(&spans);
    assert!(totals.iter().any(|(name, _)| *name == "execute"));
}

#[test]
fn capture_sees_worker_spans_without_a_trace_context() {
    // `capture` collectors are adopted by workers the same way installed
    // trace contexts are, so phase breakdowns see parallel work too.
    let db = fixture(10_000);
    let (rows, spans) = conquer_obs::capture(|| {
        db.query_with(
            "select t.v, count(*) from t group by t.v order by t.v",
            &ExecOptions::default().with_threads(4),
        )
        .unwrap()
    });
    assert!(!rows.rows.is_empty());
    assert!(
        spans.iter().any(|s| s.name == "worker"),
        "capture should include adopted worker spans"
    );
}

#[test]
fn untraced_parallel_queries_produce_no_worker_spans() {
    // Without an active collector the worker guard is inert: run a traced
    // query after an untraced one and check only the traced run recorded.
    let db = fixture(10_000);
    let sql = "select t.v, count(*) from t group by t.v order by t.v";
    run_at(&db, sql, 4); // untraced; nothing to observe, must not panic
    let ctx = conquer_obs::TraceContext::new();
    let options = ExecOptions::default()
        .with_threads(4)
        .with_trace(ctx.clone());
    db.query_with(sql, &options).unwrap();
    let spans = ctx.take_records();
    assert!(spans.iter().any(|s| s.name == "worker"));
}
