//! Tier-2 fault-injection tests (`--features fault-injection`): every named
//! fault point propagates an injected failure as a structured `Err` — never
//! a panic — and the `Database` stays fully usable afterwards.

#![cfg(feature = "fault-injection")]

use conquer_engine::{faults, Database, EngineError, ExecOptions};

/// One query per fault point, each guaranteed to reach that point on the
/// small fixture below.
const POINT_QUERIES: &[(&str, &str)] = &[
    ("scan", "select x from a"),
    ("filter", "select x from a where x > 1"),
    ("project", "select x + 1 from a"),
    ("rename", "select t.x from (select x from a) t"),
    ("join.build", "select a.x from a join b on a.x = b.y"),
    ("join.probe", "select a.x from a join b on a.x = b.y"),
    // The same two points inside the typed existence-join kernel.
    (
        "join.build",
        "select x from a where exists (select y from b where b.y = a.x)",
    ),
    (
        "join.probe",
        "select x from a where not exists (select y from b where b.y = a.x)",
    ),
    ("nested_loop", "select a.x from a join b on a.x > b.y"),
    ("aggregate.group", "select x, count(*) from a group by x"),
    ("distinct", "select distinct x from a"),
    ("union", "select x from a union all select y from b"),
    ("sort", "select x from a order by x"),
    ("limit", "select x from a order by x limit 2"),
    (
        "cte.materialize",
        "with t as (select x from a) select x from t",
    ),
];

fn fixture() -> Database {
    let db = Database::new();
    db.run_script(
        "create table a (x integer);
         create table b (y integer);
         insert into a values (1), (2), (3), (4);
         insert into b values (2), (3), (5);",
    )
    .expect("fixture");
    db
}

fn is_injected(err: &EngineError, point: &str) -> bool {
    matches!(err, EngineError::Execution(msg) if msg.contains("injected fault")
        && msg.contains(point))
}

/// WAL/checkpoint-layer points: not reachable from a query — exercised by
/// the crash matrix in `tests/durability_faults.rs` instead.
const STORAGE_POINTS: &[&str] = &[
    "wal_append_io",
    "wal_sync_fail",
    "segment_write_torn",
    "manifest_rename_fail",
];

/// Points whose armed failure never surfaces as a query `Err`: the engine
/// degrades instead (here, the planner falls back to a SeqScan access
/// path). Covered by `index_build_failure_falls_back_to_seq_scan` below
/// rather than the err-propagation loop.
const FALLBACK_POINTS: &[&str] = &["index_build_fail"];

#[test]
fn every_fault_point_errs_and_database_survives() {
    // The query table must cover the exhaustive point list, so a new
    // executor fault point cannot ship without a test riding through it.
    // (Storage-layer points ride through durability_faults.rs.)
    let covered: std::collections::BTreeSet<&str> = POINT_QUERIES.iter().map(|(p, _)| *p).collect();
    let all: std::collections::BTreeSet<&str> = faults::POINTS
        .iter()
        .copied()
        .filter(|p| !STORAGE_POINTS.contains(p) && !FALLBACK_POINTS.contains(p))
        .collect();
    assert_eq!(covered, all, "POINT_QUERIES must cover faults::POINTS");

    let db = fixture();
    for (point, sql) in POINT_QUERIES {
        faults::disarm_all();
        // Sanity: the query actually reaches the point when disarmed.
        db.query(sql)
            .unwrap_or_else(|e| panic!("{point}: baseline query failed: {e}"));
        assert!(
            faults::hits(point) > 0,
            "query `{sql}` never reaches fault point `{point}`"
        );

        faults::disarm_all();
        faults::arm(point, 0);
        let err = db
            .query(sql)
            .expect_err(&format!("armed `{point}` must surface as Err"));
        assert!(
            is_injected(&err, point),
            "`{point}`: expected injected-fault error, got {err:?}"
        );

        // The database is untouched: the same query succeeds right after.
        faults::disarm_all();
        let rows = db
            .query(sql)
            .unwrap_or_else(|e| panic!("{point}: database unusable after trip: {e}"));
        assert!(!rows.schema.columns.is_empty());
    }
}

/// Every trip sits at operator entry on the coordinating thread, so an
/// armed point fires whichever body the operator then runs — a kernel or a
/// row loop — at every thread count, and the database survives it: the
/// same query then answers what the reference evaluator does.
#[test]
fn fault_points_fire() {
    let db = fixture();
    for threads in [1, 8] {
        let options = ExecOptions::default().with_threads(threads);
        for (point, sql) in POINT_QUERIES {
            faults::disarm_all();
            faults::arm(point, 0);
            let err = db
                .query_with(sql, &options)
                .expect_err(&format!("threads={threads}: armed `{point}` must err"));
            assert!(
                is_injected(&err, point),
                "threads={threads} `{point}`: expected injected fault, got {err:?}"
            );
            faults::disarm_all();
            let rows = db.query_with(sql, &options).unwrap_or_else(|e| {
                panic!("threads={threads} {point}: database unusable after trip: {e}")
            });
            let reference = conquer_reference::evaluate_sql(&db, sql).expect("reference");
            let diff = conquer_reference::diff(&reference, &rows, false);
            assert_eq!(
                diff, None,
                "threads={threads} {point}: answer after the trip"
            );
        }
    }
}

#[test]
fn armed_countdown_survives_across_queries() {
    let db = fixture();
    // Each query reaches `join.probe` once; with a countdown of 1, the
    // first query passes and the second trips — the schedule is stateful
    // across queries on the same thread.
    faults::disarm_all();
    faults::arm("join.probe", 1);
    let sql = "select a.x from a join b on a.x = b.y";
    db.query(sql).expect("first probe hit only counts down");
    let err = db.query(sql).expect_err("second probe hit fires");
    assert!(is_injected(&err, "join.probe"));
    faults::disarm_all();
    assert!(db.query("select x from a").is_ok());
}

#[test]
fn seeded_schedule_never_panics_and_is_deterministic() {
    let db = fixture();
    let outcomes = |seed: u64| -> Vec<bool> {
        (0..16)
            .map(|_| {
                faults::disarm_all();
                faults::arm_seeded(seed, 4);
                let mut failures = Vec::new();
                for (_, sql) in POINT_QUERIES {
                    failures.push(db.query(sql).is_err());
                }
                faults::disarm_all();
                failures.iter().any(|f| *f)
            })
            .collect()
    };
    let a = outcomes(0xDEAD_BEEF);
    let b = outcomes(0xDEAD_BEEF);
    assert_eq!(a, b, "seeded schedule must reproduce exactly");
    assert!(
        a.iter().any(|f| *f),
        "a 1-in-4 schedule over all points should fire at least once"
    );
    // And the database still answers after the whole storm.
    assert_eq!(db.query("select count(*) from a").unwrap().len(), 1);
}

/// `index_build_fail` is a degradation point, not an error point: with the
/// build tripping, planning falls back to a SeqScan access path and the
/// query still returns the right rows — never an `Err`, never a panic. A
/// failed build is not remembered: once disarmed, the next planned query
/// builds every index of the table.
#[test]
fn index_build_failure_falls_back_to_seq_scan() {
    let db = fixture();
    db.run_script(
        "create table c (x integer, y integer);
         insert into c values (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60);",
    )
    .expect("two-index fixture");
    db.create_index("c", &["x"]).expect("declare index");
    db.create_index("c", &["y"]).expect("declare index");
    let queries = [
        ("select y from c where x = 2", "access=index(x eq)"),
        ("select x from c where y = 50", "access=index(y eq)"),
    ];
    let built =
        |db: &Database| -> Vec<bool> { db.index_status().into_iter().map(|(_, _, b)| b).collect() };

    // Arm persistently before the *first* planning pass: every lazy build
    // attempt trips, so the plans must fall back to sequential scans.
    faults::disarm_all();
    faults::arm_every("index_build_fail");
    let mut answers = Vec::new();
    for (sql, _) in queries {
        let rows = db
            .query(sql)
            .expect("armed index_build_fail must not surface as a query error");
        let reference = conquer_reference::evaluate_sql(&db, sql).expect("reference");
        assert_eq!(
            conquer_reference::diff(&reference, &rows, false),
            None,
            "{sql}"
        );
        assert_eq!(rows.rows.len(), 1, "fallback path returns correct answers");
        let plan = db.explain(sql).expect("explain under armed fault");
        assert!(
            !plan.contains("access=index"),
            "failed build must leave a SeqScan plan, got:\n{plan}"
        );
        answers.push(rows);
    }
    assert!(
        faults::hits("index_build_fail") > 0,
        "the lazy build actually reached the fault point"
    );
    assert_eq!(built(&db), [false, false], "a failed build is not kept");

    // Disarmed, the next planned query builds both indexes, and each
    // query uses its own.
    faults::disarm_all();
    db.explain(queries[0].0).expect("explain after disarm");
    assert_eq!(built(&db), [true, true], "both build on the next pass");
    for ((sql, access), rows) in queries.into_iter().zip(answers) {
        let plan = db.explain(sql).expect("explain after disarm");
        assert!(
            plan.contains(access),
            "build succeeds once disarmed, got:\n{plan}"
        );
        let indexed = db.query(sql).expect("indexed query");
        assert_eq!(indexed.rows, rows.rows);
    }
}
