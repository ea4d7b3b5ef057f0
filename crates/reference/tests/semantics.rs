//! The reference evaluator's own semantics, held to answers worked out by
//! hand: the oracle the differential suites trust is itself checked
//! against SQL's rules, not against the engine.

use conquer_engine::{Database, EngineError, Value};
use conquer_reference::evaluate_sql;

/// `t(k, v, s)` with NULLs in every column, `u(k, w)` with a repeated key
/// and one no row of `t` has, and an empty `e(k)`.
fn db() -> Database {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v integer, s text);
         insert into t values
           (1, 10, 'a'), (2, null, 'b'), (null, 30, 'a'), (1, 40, null), (null, 50, 'c');
         create table u (k integer, w text);
         insert into u values (1, 'x'), (1, 'y'), (3, 'z');
         create table e (k integer);",
    )
    .unwrap();
    db
}

const NULL: Value = Value::Null;

fn int(i: i64) -> Value {
    Value::Int(i)
}

fn text(s: &str) -> Value {
    Value::str(s)
}

/// `sql`'s rows, in order, compared by their `Debug` form: `Value`'s `==`
/// takes `Int(2)` for `Float(2.0)`, and the variant is part of the answer.
fn assert_rows(db: &Database, sql: &str, expected: &[Vec<Value>]) {
    let got = evaluate_sql(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert_eq!(format!("{:?}", got.rows), format!("{expected:?}"), "{sql}");
}

#[test]
fn left_join_pads_unmatched_rows_with_nulls() {
    // Key 1 meets both of `u`'s rows; key 2 meets none; a NULL key never
    // meets anything. Each left row keeps its place.
    assert_rows(
        &db(),
        "select t.k, t.v, u.w from t left join u on t.k = u.k",
        &[
            vec![int(1), int(10), text("x")],
            vec![int(1), int(10), text("y")],
            vec![int(2), NULL, NULL],
            vec![NULL, int(30), NULL],
            vec![int(1), int(40), text("x")],
            vec![int(1), int(40), text("y")],
            vec![NULL, int(50), NULL],
        ],
    );
    // A WHERE on the padded side filters after the padding.
    assert_rows(
        &db(),
        "select t.v from t left join u on t.k = u.k where u.w is null",
        &[vec![NULL], vec![int(30)], vec![int(50)]],
    );
}

#[test]
fn not_in_with_a_null_is_never_true() {
    let db = db();
    // `1 NOT IN (2, NULL)` is NOT (false OR unknown): unknown, so no row.
    assert_rows(&db, "select v from t where k not in (2, null)", &[]);
    // `IN` is still true on an equal item.
    assert_rows(
        &db,
        "select v from t where k in (1, null)",
        &[vec![int(10)], vec![int(40)]],
    );
    // The same through a subquery holding a NULL: `3 NOT IN (1, 2, NULL,
    // 1, NULL)` is unknown; without the NULLs it is true.
    assert_rows(&db, "select w from u where k not in (select k from t)", &[]);
    assert_rows(
        &db,
        "select w from u where k not in (select k from t where k is not null)",
        &[vec![text("z")]],
    );
}

#[test]
fn count_of_a_column_skips_its_nulls() {
    assert_rows(
        &db(),
        "select count(*), count(k), count(v), count(s) from t",
        &[vec![int(5), int(3), int(4), int(4)]],
    );
}

#[test]
fn avg_over_integers_is_a_float() {
    let db = db();
    // (10 + 30 + 40 + 50) / 4, the NULL skipped.
    assert_rows(&db, "select avg(v) from t", &[vec![Value::Float(32.5)]]);
    // (1 + 2 + 1) / 3, rounded once.
    assert_rows(
        &db,
        "select avg(k) from t",
        &[vec![Value::Float(4.0 / 3.0)]],
    );
}

#[test]
fn a_global_aggregate_over_no_rows_is_one_row() {
    let db = db();
    assert_rows(
        &db,
        "select count(*), sum(k), avg(k), min(k), max(k) from e",
        &[vec![int(0), NULL, NULL, NULL, NULL]],
    );
    assert_rows(&db, "select count(*) from t where k > 100", &[vec![int(0)]]);
    // Grouped, no rows make no groups.
    assert_rows(&db, "select k, count(*) from e group by k", &[]);
}

#[test]
fn distinct_and_group_by_put_nulls_in_one_group() {
    let db = db();
    assert_rows(
        &db,
        "select distinct k from t",
        &[vec![int(1)], vec![int(2)], vec![NULL]],
    );
    // First-seen order; SUM over only NULLs is NULL.
    assert_rows(
        &db,
        "select k, count(*), sum(v) from t group by k",
        &[
            vec![int(1), int(2), int(50)],
            vec![int(2), int(1), NULL],
            vec![NULL, int(2), int(80)],
        ],
    );
}

#[test]
fn a_cte_is_read_wherever_it_is_named() {
    let db = db();
    // `c` is (NULL, 30), (1, 40), (NULL, 50); read twice, joined on its
    // key, only key 1 meets itself.
    assert_rows(
        &db,
        "with c as (select k, v from t where v > 20) \
         select a.v, b.v from c a, c b where a.k = b.k",
        &[vec![int(40), int(40)]],
    );
    assert_rows(
        &db,
        "with c as (select k from u) select k from c union all select k from c",
        &[
            vec![int(1)],
            vec![int(1)],
            vec![int(3)],
            vec![int(1)],
            vec![int(1)],
            vec![int(3)],
        ],
    );
}

#[test]
fn a_scalar_subquery_of_two_rows_is_an_error() {
    let db = db();
    // No row is NULL ...
    assert_rows(
        &db,
        "select t.s, (select u.w from u where u.k = t.k) from t where t.k = 2",
        &[vec![text("b"), NULL]],
    );
    // ... but key 1 finds two rows of `u`.
    let err = evaluate_sql(
        &db,
        "select t.k, (select u.w from u where u.k = t.k) from t",
    )
    .expect_err("a scalar subquery returned two rows");
    assert!(matches!(err, EngineError::Execution(_)), "{err:?}");
}

#[test]
fn syntax_outside_the_dialect_is_rejected() {
    let db = db();
    for sql in [
        // A scalar function the evaluator does not define.
        "select abs(k) from t",
        // ORDER BY a position rather than a column.
        "select k from t order by 1",
        // A column neither grouped nor aggregated.
        "select k, v from t group by k",
    ] {
        let err = evaluate_sql(&db, sql).expect_err(sql);
        assert!(matches!(err, EngineError::Unsupported(_)), "{sql}: {err:?}");
    }
}
