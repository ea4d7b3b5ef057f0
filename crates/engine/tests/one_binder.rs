//! Statements that bind through the planner's one lowering of SQL
//! expressions: scalar functions above aggregation are checked as they are
//! below it, a subquery over a CTE binds in a `JOIN … ON` clause and in
//! ORDER BY as it does in WHERE, and `INSERT … VALUES` items are constant
//! expressions evaluated by the same bound-expression evaluator as queries.

use conquer_engine::{Database, ExecOptions, Value};

fn db() -> Database {
    let db = Database::new();
    db.run_script(
        "create table a (x integer, v integer);
         insert into a values (1, 10), (2, 20), (3, 30), (4, 40);
         create table b (y integer, w integer);
         insert into b values (1, 100), (2, 200), (3, 300), (5, 500);",
    )
    .expect("fixture");
    db
}

fn err(db: &Database, sql: &str) -> String {
    match db.query(sql) {
        Ok(rows) => panic!("{sql} answered {:?}", rows.rows),
        Err(e) => e.to_string(),
    }
}

/// The rows of `sql` at one and at four threads, which must agree.
fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let one = db
        .query_with(sql, &ExecOptions::default().with_threads(1))
        .expect(sql)
        .rows;
    let four = db
        .query_with(sql, &ExecOptions::default().with_threads(4))
        .expect(sql)
        .rows;
    assert_eq!(one, four, "{sql}");
    one
}

fn int(i: i64) -> Value {
    Value::Int(i)
}

#[test]
fn scalar_function_arity_is_checked_above_aggregation() {
    let db = db();
    for sql in [
        "select abs(x, v) from a group by x, v",
        "select abs(x, v) from a",
    ] {
        assert!(
            err(&db, sql).contains("wrong number of arguments to `abs`"),
            "{sql}"
        );
    }
}

#[test]
fn distinct_in_a_scalar_function_is_refused_above_aggregation() {
    let db = db();
    for sql in [
        "select coalesce(distinct x) from a group by x",
        "select coalesce(distinct x) from a",
    ] {
        assert!(
            err(&db, sql).contains("DISTINCT in scalar function"),
            "{sql}"
        );
    }
}

#[test]
fn grouped_scalar_functions_still_bind() {
    let db = db();
    assert_eq!(
        rows(
            &db,
            "select x, abs(v - 25), coalesce(x, 0) + count(*) from a group by x, v order by x"
        ),
        [
            [int(1), int(15), int(2)],
            [int(2), int(5), int(3)],
            [int(3), int(5), int(4)],
            [int(4), int(15), int(5)],
        ]
    );
}

/// `c` holds the `b` keys whose `w` is at least 200: {2, 3, 5}.
const WITH_C: &str = "with c as (select y as z from b where w >= 200) ";

#[test]
fn a_join_condition_reads_a_cte_through_exists() {
    let db = db();
    // a ⋈ b on x = y keeps x ∈ {1, 2, 3}; the EXISTS keeps y ∈ c.
    let inner = format!(
        "{WITH_C}select a.x, b.w from a join b \
         on a.x = b.y and exists (select 1 from c where c.z = b.y) order by a.x"
    );
    assert_eq!(rows(&db, &inner), [[int(2), int(200)], [int(3), int(300)]]);
    // Left outer: every `a` row survives, null-extended where the ON fails.
    let left = format!(
        "{WITH_C}select a.x, b.w from a left join b \
         on a.x = b.y and exists (select 1 from c where c.z = b.y) order by a.x"
    );
    assert_eq!(
        rows(&db, &left),
        [
            [int(1), Value::Null],
            [int(2), int(200)],
            [int(3), int(300)],
            [int(4), Value::Null],
        ]
    );
}

#[test]
fn order_by_reads_a_cte_through_a_scalar_subquery() {
    let db = db();
    // A constant key: the second key alone orders.
    let constant = format!("{WITH_C}select x from a order by (select max(z) from c), x desc");
    assert_eq!(
        rows(&db, &constant),
        [[int(4)], [int(3)], [int(2)], [int(1)]]
    );
    // Correlated with the output row: the largest key in c not above x is
    // none for 1, 2 for 2, 3 for 3 and 4; NULLs sort last.
    let correlated =
        format!("{WITH_C}select x from a order by (select max(z) from c where z <= x) desc, x");
    assert_eq!(
        rows(&db, &correlated),
        [[int(3)], [int(4)], [int(2)], [int(1)]]
    );
}

#[test]
fn insert_values_are_constant_expressions() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, n integer);
         insert into t values (-5, 1 + 1), (2 * 3, -(4 - 1));",
    )
    .expect("constant expressions insert");
    assert_eq!(
        db.query("select k, n from t").expect("query").rows,
        [[int(-5), int(2)], [int(6), int(-3)]]
    );
    // A column reference has no row to read, and a subquery is refused.
    for values in ["(k, 1)", "(1, (select 1))", "(1, count(*))"] {
        let sql = format!("insert into t values {values}");
        assert!(db.run_script(&sql).is_err(), "{sql} was accepted");
    }
    // Negation's overflow is the evaluator's error.
    assert!(db
        .run_script("insert into t values (-(-9223372036854775807 - 1), 0)")
        .is_err());
    assert_eq!(
        db.query("select count(*) from t").expect("count").rows,
        [[int(2)]]
    );
}
