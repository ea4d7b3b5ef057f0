//! End-to-end SQL execution tests for the engine, including hand-written
//! versions of the paper's rewritten queries (which conquer-core will later
//! generate automatically).

use conquer_engine::{Database, ExecOptions, Value};

fn v_int(rows: &conquer_engine::Rows) -> Vec<Vec<i64>> {
    rows.rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    other => panic!("expected int, got {other:?}"),
                })
                .collect()
        })
        .collect()
}

#[allow(dead_code)]
fn sorted(mut rows: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    rows.sort();
    rows
}

/// The inconsistent customer relation of Figure 1.
fn figure1_db() -> Database {
    let db = Database::new();
    db.run_script(
        "create table customer (custkey text, acctbal float);
         insert into customer values
           ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500);",
    )
    .unwrap();
    db
}

/// The inconsistent order/customer database of Figure 2.
fn figure2_db() -> Database {
    let db = Database::new();
    db.run_script(
        "create table orders (orderkey text, clerk text, custfk text);
         insert into orders values
           ('o1', 'ali', 'c1'), ('o2', 'jo', 'c2'), ('o2', 'ali', 'c3'),
           ('o3', 'ali', 'c4'), ('o3', 'pat', 'c2'), ('o4', 'ali', 'c2'),
           ('o4', 'ali', 'c3'), ('o5', 'ali', 'c2');
         create table customer (custkey text, acctbal float);
         insert into customer values
           ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500);",
    )
    .unwrap();
    db
}

#[test]
fn original_q1_returns_possible_answers() {
    // Section 1: q1 on Figure 1 returns {c1, c2, c3, c3}.
    let db = figure1_db();
    let rows = db
        .query("select custkey from customer where acctbal > 1000")
        .unwrap();
    let mut vals: Vec<String> = rows.rows.iter().map(|r| r[0].to_string()).collect();
    vals.sort();
    assert_eq!(vals, vec!["c1", "c2", "c3", "c3"]);
}

#[test]
fn hand_rewritten_qc1_returns_consistent_answers() {
    // The rewriting from Section 1 of the paper, verbatim.
    let db = figure1_db();
    let rows = db
        .query(
            "select distinct custkey from customer c \
             where acctbal > 1000 and not exists (\
               select * from customer c2 \
               where c2.custkey = c.custkey and c2.acctbal <= 1000)",
        )
        .unwrap();
    let mut vals: Vec<String> = rows.rows.iter().map(|r| r[0].to_string()).collect();
    vals.sort();
    assert_eq!(vals, vec!["c2", "c3"]);
}

#[test]
fn hand_rewritten_qc2_figure3() {
    // Figure 3 of the paper: consistent answers {o2, o4, o5}.
    let db = figure2_db();
    let rows = db
        .query(
            "with candidates as (
               select distinct o.orderkey from customer c, orders o
               where c.acctbal > 1000 and o.custfk = c.custkey),
             filter as (
               select o.orderkey from candidates cand
               join orders o on cand.orderkey = o.orderkey
               left outer join customer c on o.custfk = c.custkey
               where c.custkey is null or c.acctbal <= 1000)
             select orderkey from candidates cand
             where not exists (select * from filter f where cand.orderkey = f.orderkey)",
        )
        .unwrap();
    let mut vals: Vec<String> = rows.rows.iter().map(|r| r[0].to_string()).collect();
    vals.sort();
    assert_eq!(vals, vec!["o2", "o4", "o5"]);
}

#[test]
fn hand_rewritten_qc3_figure4() {
    // Figure 4: the consistent answer to q3 is {ali, ali} (with multiplicity).
    let db = figure2_db();
    let rows = db
        .query(
            "with candidates as (
               select distinct o.orderkey, o.clerk from customer c, orders o
               where c.acctbal > 1000 and o.custfk = c.custkey),
             filter as (
               select o.orderkey from candidates cand
               join orders o on cand.orderkey = o.orderkey
               left outer join customer c on o.custfk = c.custkey
               where c.custkey is null or c.acctbal <= 1000
               union all
               select orderkey from candidates cand
               group by orderkey having count(*) > 1)
             select clerk from candidates cand
             where not exists (select * from filter f where cand.orderkey = f.orderkey)",
        )
        .unwrap();
    let vals: Vec<String> = rows.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(vals, vec!["ali", "ali"]);
}

#[test]
fn hand_rewritten_qc3_without_decorrelation_matches() {
    let db = figure2_db();
    let sql = "with candidates as (
                 select distinct o.orderkey, o.clerk from customer c, orders o
                 where c.acctbal > 1000 and o.custfk = c.custkey),
               filter as (
                 select o.orderkey from candidates cand
                 join orders o on cand.orderkey = o.orderkey
                 left outer join customer c on o.custfk = c.custkey
                 where c.custkey is null or c.acctbal <= 1000
                 union all
                 select orderkey from candidates cand
                 group by orderkey having count(*) > 1)
               select clerk from candidates cand
               where not exists (select * from filter f where cand.orderkey = f.orderkey)";
    let fast = db.query(sql).unwrap();
    // The reference evaluator runs the `NOT EXISTS` per row.
    let reference = conquer_reference::evaluate_sql(&db, sql).unwrap();
    assert_eq!(conquer_reference::diff(&reference, &fast, false), None);
    let inline = db
        .query_with(
            sql,
            &ExecOptions {
                materialize_ctes: false,
                ..ExecOptions::default()
            },
        )
        .unwrap();
    assert_eq!(fast.rows, inline.rows);
}

#[test]
fn inner_join_bag_semantics() {
    let db = Database::new();
    db.run_script(
        "create table a (x integer); insert into a values (1), (1), (2);
         create table b (x integer); insert into b values (1), (1), (3);",
    )
    .unwrap();
    let rows = db.query("select a.x from a join b on a.x = b.x").unwrap();
    // 2 a-rows with x=1, each matching 2 b-rows: 4 output rows.
    assert_eq!(v_int(&rows), vec![vec![1], vec![1], vec![1], vec![1]]);
}

#[test]
fn left_outer_join_pads_nulls() {
    let db = Database::new();
    db.run_script(
        "create table a (x integer); insert into a values (1), (2);
         create table b (x integer, y integer); insert into b values (1, 10);",
    )
    .unwrap();
    let rows = db
        .query("select a.x, b.y from a left outer join b on a.x = b.x order by a.x")
        .unwrap();
    assert_eq!(
        rows.rows,
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Null]
        ]
    );
}

#[test]
fn left_outer_join_on_residual_condition() {
    // Residual ON predicates affect the match decision, not a post-filter.
    let db = Database::new();
    db.run_script(
        "create table a (x integer); insert into a values (1);
         create table b (x integer, y integer); insert into b values (1, 5);",
    )
    .unwrap();
    let rows = db
        .query("select a.x, b.y from a left outer join b on a.x = b.x and b.y > 100")
        .unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(1), Value::Null]]);
}

#[test]
fn cross_join_via_comma() {
    let db = Database::new();
    db.run_script(
        "create table a (x integer); insert into a values (1), (2);
         create table b (y integer); insert into b values (10), (20);",
    )
    .unwrap();
    let rows = db.query("select x, y from a, b").unwrap();
    assert_eq!(rows.len(), 4);
}

#[test]
fn group_by_with_having_and_count() {
    let db = Database::new();
    db.run_script(
        "create table t (k text, v integer);
         insert into t values ('a', 1), ('a', 2), ('b', 3), ('b', 4), ('c', 5);",
    )
    .unwrap();
    let rows = db
        .query("select k, count(*), sum(v) from t group by k having count(*) > 1 order by k")
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.rows[0][1], Value::Int(2));
    assert_eq!(rows.rows[0][2], Value::Int(3));
    assert_eq!(rows.rows[1][2], Value::Int(7));
}

#[test]
fn global_aggregates_over_empty_input() {
    let db = Database::new();
    db.run_script("create table t (v integer)").unwrap();
    let rows = db
        .query("select count(*), sum(v), min(v), avg(v) from t")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.rows[0][0], Value::Int(0));
    assert_eq!(rows.rows[0][1], Value::Null);
    assert_eq!(rows.rows[0][2], Value::Null);
    assert_eq!(rows.rows[0][3], Value::Null);
}

#[test]
fn grouped_aggregate_over_empty_input_returns_no_rows() {
    let db = Database::new();
    db.run_script("create table t (k integer, v integer)")
        .unwrap();
    let rows = db.query("select k, sum(v) from t group by k").unwrap();
    assert!(rows.is_empty());
}

#[test]
fn aggregates_skip_nulls() {
    let db = Database::new();
    db.run_script(
        "create table t (v integer);
         insert into t values (1), (null), (3);",
    )
    .unwrap();
    let rows = db
        .query("select count(*), count(v), sum(v), avg(v) from t")
        .unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(3));
    assert_eq!(rows.rows[0][1], Value::Int(2));
    assert_eq!(rows.rows[0][2], Value::Int(4));
    assert_eq!(rows.rows[0][3], Value::Float(2.0));
}

#[test]
fn distinct_aggregates() {
    let db = Database::new();
    db.run_script(
        "create table t (v integer);
         insert into t values (1), (1), (2), (null);",
    )
    .unwrap();
    let rows = db
        .query("select count(distinct v), sum(distinct v) from t")
        .unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(2));
    assert_eq!(rows.rows[0][1], Value::Int(3));
}

#[test]
fn group_by_expression() {
    let db = Database::new();
    db.run_script(
        "create table t (v integer);
         insert into t values (1), (2), (3), (4);",
    )
    .unwrap();
    let rows = db
        .query("select v % 2, count(*) from t group by v % 2 order by 1")
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![0, 2], vec![1, 2]]);
}

#[test]
fn sum_mixing_int_and_float_promotes() {
    let db = Database::new();
    db.run_script(
        "create table t (v float);
         insert into t values (1), (2.5);",
    )
    .unwrap();
    let rows = db.query("select sum(v) from t").unwrap();
    assert_eq!(rows.rows[0][0], Value::Float(3.5));
}

#[test]
fn union_all_keeps_duplicates() {
    let db = Database::new();
    db.run_script("create table t (v integer); insert into t values (1)")
        .unwrap();
    let rows = db
        .query("select v from t union all select v from t")
        .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn union_all_arity_mismatch_errors() {
    let db = Database::new();
    db.run_script("create table t (a integer, b integer); insert into t values (1, 2)")
        .unwrap();
    assert!(db
        .query("select a from t union all select a, b from t")
        .is_err());
}

#[test]
fn order_by_desc_and_nulls_last() {
    let db = Database::new();
    db.run_script(
        "create table t (v integer);
         insert into t values (2), (null), (1), (3);",
    )
    .unwrap();
    let asc = db.query("select v from t order by v").unwrap();
    assert_eq!(
        asc.rows,
        vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)],
            vec![Value::Null]
        ]
    );
    let desc = db.query("select v from t order by v desc").unwrap();
    assert_eq!(desc.rows[0], vec![Value::Int(3)]);
}

#[test]
fn order_by_alias_and_position_and_limit() {
    let db = Database::new();
    db.run_script(
        "create table t (k text, v integer);
         insert into t values ('a', 1), ('b', 5), ('c', 3);",
    )
    .unwrap();
    let rows = db
        .query("select k, v * 2 as doubled from t order by doubled desc limit 2")
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.rows[0][1], Value::Int(10));
    let rows = db
        .query("select k, v from t order by 2 desc limit 1")
        .unwrap();
    assert_eq!(rows.rows[0][0], Value::str("b"));
}

#[test]
fn correlated_exists_and_not_exists() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer); insert into t values (1), (2), (3);
         create table u (k integer); insert into u values (2), (3), (3);",
    )
    .unwrap();
    let rows = db
        .query("select k from t where exists (select * from u where u.k = t.k) order by k")
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![2], vec![3]]);
    let rows = db
        .query("select k from t where not exists (select * from u where u.k = t.k)")
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![1]]);
}

#[test]
fn not_exists_with_extra_local_predicate() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer); insert into t values (1), (2);
         create table u (k integer, flag integer); insert into u values (1, 0), (2, 1);",
    )
    .unwrap();
    let rows = db
        .query(
            "select k from t where not exists (\
               select * from u where u.k = t.k and u.flag = 1)",
        )
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![1]]);
}

#[test]
fn correlated_exists_with_inequality_falls_back_to_nested_loop() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer); insert into t values (1), (5);
         create table u (k integer); insert into u values (3);",
    )
    .unwrap();
    // Non-equality correlation cannot be hashed; must still be correct.
    let rows = db
        .query("select k from t where exists (select * from u where u.k > t.k)")
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![1]]);
}

#[test]
fn in_subquery_and_not_in_null_semantics() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer); insert into t values (1), (2);
         create table u (k integer); insert into u values (2), (null);",
    )
    .unwrap();
    let rows = db
        .query("select k from t where k in (select k from u)")
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![2]]);
    // NOT IN against a set containing NULL is never satisfied.
    let rows = db
        .query("select k from t where k not in (select k from u)")
        .unwrap();
    assert!(rows.is_empty());
}

#[test]
fn scalar_subquery() {
    let db = Database::new();
    db.run_script("create table t (v integer); insert into t values (1), (2), (3);")
        .unwrap();
    let rows = db
        .query("select v from t where v = (select max(v) from t)")
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![3]]);
}

#[test]
fn case_expression_in_aggregate() {
    let db = Database::new();
    db.run_script(
        "create table t (mode text, pri text);
         insert into t values ('MAIL', '1-URGENT'), ('MAIL', '3-LOW'), ('SHIP', '1-URGENT');",
    )
    .unwrap();
    // The shape of TPC-H Q12.
    let rows = db
        .query(
            "select mode, \
               sum(case when pri = '1-URGENT' then 1 else 0 end) as high, \
               sum(case when pri <> '1-URGENT' then 1 else 0 end) as low \
             from t group by mode order by mode",
        )
        .unwrap();
    assert_eq!(v_int(&sorted_strless(&rows)), vec![vec![1, 1], vec![1, 0]]);
}

fn sorted_strless(rows: &conquer_engine::Rows) -> conquer_engine::Rows {
    let mut out = rows.clone();
    out.rows.iter_mut().for_each(|r| {
        r.remove(0);
    });
    let mut s = out.schema.clone();
    s.columns.remove(0);
    conquer_engine::Rows {
        schema: s,
        rows: out.rows,
    }
}

#[test]
fn dates_compare_and_filter() {
    let db = Database::new();
    db.run_script(
        "create table o (d date);
         insert into o values (date '1995-01-01'), (date '1995-06-15'), (date '1996-01-01');",
    )
    .unwrap();
    let rows = db
        .query("select count(*) from o where d >= date '1995-01-01' and d < date '1996-01-01'")
        .unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(2));
}

#[test]
fn between_and_in_list_and_like() {
    let db = Database::new();
    db.run_script(
        "create table l (disc float, mode text);
         insert into l values (0.05, 'MAIL'), (0.06, 'SHIP'), (0.09, 'RAIL');",
    )
    .unwrap();
    let rows = db
        .query("select count(*) from l where disc between 0.05 and 0.07")
        .unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(2));
    let rows = db
        .query("select count(*) from l where mode in ('MAIL', 'SHIP')")
        .unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(2));
    let rows = db
        .query("select count(*) from l where mode like '%AIL'")
        .unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(2));
}

#[test]
fn distinct_on_multiple_columns() {
    let db = Database::new();
    db.run_script(
        "create table t (a integer, b integer);
         insert into t values (1, 1), (1, 1), (1, 2);",
    )
    .unwrap();
    let rows = db.query("select distinct a, b from t").unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn where_with_null_comparison_filters_row() {
    let db = Database::new();
    db.run_script("create table t (v integer); insert into t values (1), (null);")
        .unwrap();
    // NULL > 0 is unknown, so the NULL row is filtered out.
    let rows = db.query("select v from t where v > 0").unwrap();
    assert_eq!(rows.len(), 1);
    // ... and it does not satisfy the negation either.
    let rows = db.query("select v from t where not v > 0").unwrap();
    assert_eq!(rows.len(), 0);
    // IS NULL catches it.
    let rows = db.query("select v from t where v is null").unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn ambiguous_column_is_an_error() {
    let db = Database::new();
    db.run_script(
        "create table a (k integer); create table b (k integer);
         insert into a values (1); insert into b values (1);",
    )
    .unwrap();
    let err = db.query("select k from a, b").unwrap_err();
    assert!(err.to_string().contains("ambiguous"));
}

#[test]
fn duplicate_binding_is_an_error() {
    let db = Database::new();
    db.run_script("create table a (k integer)").unwrap();
    assert!(db.query("select * from a, a").is_err());
    assert!(db.query("select a1.k from a a1, a a2").is_ok());
}

#[test]
fn select_without_from() {
    let db = Database::new();
    let rows = db.query("select 1 + 2 as three, 'x'").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(3), Value::str("x")]]);
}

#[test]
fn cte_shadowing_and_chaining() {
    let db = Database::new();
    db.run_script("create table t (v integer); insert into t values (1), (2)")
        .unwrap();
    let rows = db
        .query(
            "with t2 as (select v + 10 as v from t),
                  t3 as (select v + 100 as v from t2)
             select v from t3 order by v",
        )
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![111], vec![112]]);
}

#[test]
fn derived_table_in_from() {
    let db = Database::new();
    db.run_script("create table t (v integer); insert into t values (1), (2), (3)")
        .unwrap();
    let rows = db
        .query("select s.total from (select sum(v) as total from t) s")
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![6]]);
}

#[test]
fn qualified_wildcard_in_join() {
    let db = Database::new();
    db.run_script(
        "create table a (x integer); insert into a values (1);
         create table b (y integer); insert into b values (2);",
    )
    .unwrap();
    let rows = db.query("select b.* from a, b").unwrap();
    assert_eq!(rows.schema.len(), 1);
    assert_eq!(v_int(&rows), vec![vec![2]]);
}

#[test]
fn arithmetic_on_projected_expressions() {
    let db = Database::new();
    db.run_script(
        "create table l (price float, disc float);
         insert into l values (100, 0.1), (200, 0.05);",
    )
    .unwrap();
    let rows = db.query("select sum(price * (1 - disc)) from l").unwrap();
    let Value::Float(total) = rows.rows[0][0] else {
        panic!()
    };
    assert!((total - 280.0).abs() < 1e-9);
}

#[test]
fn group_by_column_used_qualified_and_bare() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v integer);
         insert into t values (1, 10), (1, 20), (2, 5);",
    )
    .unwrap();
    // group by t.k, select k: structural match through binding.
    let rows = db
        .query("select k, sum(v) from t group by t.k order by k")
        .unwrap();
    assert_eq!(v_int(&rows), vec![vec![1, 30], vec![2, 5]]);
}

#[test]
fn projection_of_non_grouped_column_errors() {
    let db = Database::new();
    db.run_script("create table t (k integer, v integer); insert into t values (1, 2)")
        .unwrap();
    let err = db
        .query("select v, count(*) from t group by k")
        .unwrap_err();
    assert!(err.to_string().contains("GROUP BY"), "{err}");
}
