//! Access-path planning with secondary indexes: the planner must pick an
//! index scan / index-backed join exactly when it is sound and cheaper,
//! and the answers must be identical to the index-blind plans.

use conquer_engine::{Database, ExecOptions, Value};

/// Canonical row order for multiset comparison (`Value` has no `Ord`;
/// `total_cmp` is its total order).
fn canon(rows: &mut [Vec<Value>]) {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

fn opts() -> ExecOptions {
    ExecOptions::default()
}

fn no_index_opts() -> ExecOptions {
    ExecOptions::default().with_indexes(false)
}

fn demo_db() -> Database {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v float, s text);
         insert into t values
           (1, 10.5, 'a'), (2, 20.5, 'b'), (2, 21.5, 'c'), (3, 30.5, 'd'),
           (4, 40.5, 'e'), (5, 50.5, 'f'), (5, 51.5, 'g'), (6, 60.5, 'h'),
           (7, 70.5, 'i'), (8, 80.5, 'j');",
    )
    .unwrap();
    db
}

/// Warm the scan cache so the lazy index build has a batch to attach to —
/// the first planned query does this implicitly in production.
fn warm(db: &Database) {
    db.query("select count(*) from t").unwrap();
}

#[test]
fn point_lookup_plans_an_index_scan() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    warm(&db);
    let sql = "select s from t where k = 5";
    let plan = db.explain_with(sql, &opts()).unwrap();
    assert!(
        plan.contains("access=index(k eq)"),
        "expected index access in:\n{plan}"
    );
    let blind = db.explain_with(sql, &no_index_opts()).unwrap();
    assert!(
        !blind.contains("access=index"),
        "index-blind plan:\n{blind}"
    );
    let rows = db.query_with(sql, &opts()).unwrap();
    let expect = db.query_with(sql, &no_index_opts()).unwrap();
    assert_eq!(rows, expect);
    assert_eq!(rows.rows.len(), 2);
}

#[test]
fn range_predicate_plans_an_index_scan() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    warm(&db);
    let sql = "select s from t where k > 2 and k <= 5";
    let plan = db.explain_with(sql, &opts()).unwrap();
    assert!(
        plan.contains("access=index(k range)"),
        "expected range index access in:\n{plan}"
    );
    let rows = db.query_with(sql, &opts()).unwrap();
    let expect = db.query_with(sql, &no_index_opts()).unwrap();
    assert_eq!(rows, expect);
    assert_eq!(rows.rows.len(), 4); // k in {3, 4, 5, 5}
}

#[test]
fn key_equality_self_join_probes_the_index() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    warm(&db);
    // The shape of ConQuer's rewritings: a self-join on the key columns.
    let sql = "select a.s, b.s from t a, t b where a.k = b.k and a.v < b.v";
    let plan = db.explain_with(sql, &opts()).unwrap();
    assert!(
        plan.contains("access=index(k)"),
        "expected index-backed join in:\n{plan}"
    );
    let mut rows = db.query_with(sql, &opts()).unwrap();
    let mut expect = db.query_with(sql, &no_index_opts()).unwrap();
    canon(&mut rows.rows);
    canon(&mut expect.rows);
    assert_eq!(rows, expect);
    assert_eq!(rows.rows.len(), 2); // (2,b)<(2,c) and (5,f)<(5,g)
}

#[test]
fn insert_extends_the_index_and_results_stay_correct() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    warm(&db);
    // Build the index, then append rows — the maintenance path extends
    // the postings rather than rebuilding.
    db.query_with("select s from t where k = 5", &opts())
        .unwrap();
    db.run_script("insert into t values (5, 99.5, 'z'), (11, 1.5, 'w')")
        .unwrap();
    warm(&db);
    let rows = db
        .query_with("select s from t where k = 5", &opts())
        .unwrap();
    let expect = db
        .query_with("select s from t where k = 5", &no_index_opts())
        .unwrap();
    assert_eq!(rows, expect);
    assert_eq!(rows.rows.len(), 3);
    let fresh = db
        .query_with("select s from t where k = 11", &opts())
        .unwrap();
    assert_eq!(fresh.rows, vec![vec![Value::str("w")]]);
}

#[test]
fn null_keys_are_never_matched_by_the_index() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, s text);
         insert into t values (1, 'a'), (2, 'b'), (2, 'c');
         insert into t (s) values ('n1'), ('n2');",
    )
    .unwrap();
    db.create_index("t", &["k"]).unwrap();
    db.query("select count(*) from t").unwrap();
    for sql in [
        "select s from t where k = 2",
        "select s from t where k > 0",
        "select a.s from t a, t b where a.k = b.k",
    ] {
        let mut rows = db.query_with(sql, &opts()).unwrap();
        let mut expect = db.query_with(sql, &no_index_opts()).unwrap();
        canon(&mut rows.rows);
        canon(&mut expect.rows);
        assert_eq!(rows, expect, "divergence on {sql}");
    }
}

#[test]
fn create_index_is_idempotent_ddl_and_bumps_the_epoch() {
    let db = demo_db();
    let e0 = db.catalog_epoch();
    assert!(db.create_index("t", &["k"]).unwrap());
    let e1 = db.catalog_epoch();
    assert!(e1 > e0, "declare is a catalog mutation");
    assert_eq!(db.table_version("t"), Some(e1), "of the indexed table");
    assert!(!db.create_index("t", &["k"]).unwrap());
    assert_eq!(db.catalog_epoch(), e1, "re-declare bumps nothing");
    assert_eq!(db.table_version("t"), Some(e1));
    assert!(db.create_index("missing", &["k"]).is_err());
    assert!(db.create_index("t", &["nope"]).is_err());
    assert_eq!(
        db.index_status(),
        vec![("t".to_string(), vec!["k".to_string()], false)],
        "declared but not yet built"
    );
    warm(&db);
    db.query_with("select s from t where k = 5", &opts())
        .unwrap();
    assert!(
        db.index_status()[0].2,
        "first planned query triggers the lazy build"
    );
}

#[test]
fn drop_table_removes_the_declaration() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    db.drop_table("t").unwrap();
    assert!(db.index_status().is_empty());
}

#[test]
fn unindexed_and_multi_bound_predicates_keep_residual_filters() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    warm(&db);
    for sql in [
        "select s from t where k = 5 and v > 51.0",
        "select s from t where k >= 2 and k < 7 and k > 3",
        "select s from t where v > 50.0",
        "select s from t where k + 0 = 5", // non-sargable: no index
    ] {
        let mut rows = db.query_with(sql, &opts()).unwrap();
        let mut expect = db.query_with(sql, &no_index_opts()).unwrap();
        canon(&mut rows.rows);
        canon(&mut expect.rows);
        assert_eq!(rows, expect, "divergence on {sql}");
    }
}
