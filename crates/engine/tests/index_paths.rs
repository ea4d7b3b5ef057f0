//! Access-path planning with secondary indexes: the planner must pick an
//! index scan / index-backed join exactly when it is sound and cheaper —
//! and not at all on an index-blind twin, a database over the same tables
//! that declares no index — and the answers must be the row-at-a-time
//! reference evaluator's (`conquer-reference`).

use conquer_engine::{Database, ExecOptions, Value};

fn opts() -> ExecOptions {
    ExecOptions::default()
}

/// A database over `db`'s tables that declares no index: its plans are
/// the ones the planner makes with no index to consider.
fn blind_twin(db: &Database) -> Database {
    let twin = Database::new();
    for name in db.table_names() {
        twin.register((*db.table(&name).unwrap()).clone()).unwrap();
    }
    twin
}

/// `sql`'s answer on the indexed plans, after checking it is the
/// reference's — as a bag: an index access path may change the order.
fn query_checked(db: &Database, sql: &str) -> conquer_engine::Rows {
    let rows = db.query_with(sql, &opts()).unwrap();
    let reference = conquer_reference::evaluate_sql(db, sql).unwrap();
    if let Some(diff) = conquer_reference::diff(&reference, &rows, false) {
        panic!("{sql}: {diff}");
    }
    rows
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

#[test]
fn point_lookup_plans_an_index_scan() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    let sql = "select s from t where k = 5";
    let plan = db.explain_with(sql, &opts()).unwrap();
    assert!(
        plan.contains("access=index(k eq)"),
        "expected index access in:\n{plan}"
    );
    let blind = blind_twin(&db).explain_with(sql, &opts()).unwrap();
    assert!(
        !blind.contains("access=index"),
        "index-blind plan:\n{blind}"
    );
    assert_eq!(query_checked(&db, sql).rows.len(), 2);
}

#[test]
fn range_predicate_plans_an_index_scan() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    let sql = "select s from t where k > 2 and k <= 5";
    let plan = db.explain_with(sql, &opts()).unwrap();
    assert!(
        plan.contains("access=index(k range)"),
        "expected range index access in:\n{plan}"
    );
    assert_eq!(query_checked(&db, sql).rows.len(), 4); // k in {3, 4, 5, 5}
}

#[test]
fn key_equality_self_join_probes_the_index() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    // The shape of ConQuer's rewritings: a self-join on the key columns.
    let sql = "select a.s, b.s from t a, t b where a.k = b.k and a.v < b.v";
    let plan = db.explain_with(sql, &opts()).unwrap();
    assert!(
        plan.contains("access=index(k)"),
        "expected index-backed join in:\n{plan}"
    );
    assert_eq!(query_checked(&db, sql).rows.len(), 2); // (2,b)<(2,c) and (5,f)<(5,g)
}

#[test]
fn insert_extends_the_index_and_results_stay_correct() {
    let db = demo_db();
    db.create_index("t", &["k"]).unwrap();
    // Build the index, then append rows — the maintenance path extends
    // the postings rather than rebuilding.
    db.query_with("select s from t where k = 5", &opts())
        .unwrap();
    db.run_script("insert into t values (5, 99.5, 'z'), (11, 1.5, 'w')")
        .unwrap();
    assert_eq!(
        query_checked(&db, "select s from t where k = 5").rows.len(),
        3
    );
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
    for sql in [
        "select s from t where k = 2",
        "select s from t where k > 0",
        "select a.s from t a, t b where a.k = b.k",
    ] {
        query_checked(&db, sql);
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
    db.query_with("select s from t where k = 5", &opts())
        .unwrap();
    assert!(
        db.index_status()[0].2,
        "first planned query triggers the lazy build"
    );
}

/// A table's second index is built and used like its first: the planner
/// considers every index over a scan, not only the first declared.
#[test]
fn every_declared_index_is_built_and_used() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v integer);
         insert into t values
           (1, 3), (2, 4), (3, 5), (4, 6), (5, 3), (6, 7), (7, 8), (8, 9),
           (9, 10), (10, 11), (11, 12), (12, 13);",
    )
    .unwrap();
    db.create_index("t", &["k"]).unwrap();
    db.create_index("t", &["v"]).unwrap();
    let sql = "select k from t where v = 3";
    let plan = db.explain_with(sql, &opts()).unwrap();
    assert!(
        plan.contains("access=index(v eq)"),
        "expected the index on v in:\n{plan}"
    );
    let built: Vec<(Vec<String>, bool)> = db
        .index_status()
        .into_iter()
        .map(|(_, cols, built)| (cols, built))
        .collect();
    assert_eq!(
        built,
        vec![(vec!["k".to_string()], true), (vec!["v".to_string()], true)],
        "one planned query builds both"
    );
    assert_eq!(query_checked(&db, sql).rows.len(), 2);
    let by_key = "select v from t where k = 5";
    assert!(db
        .explain_with(by_key, &opts())
        .unwrap()
        .contains("access=index(k eq)"));
    assert_eq!(query_checked(&db, by_key).rows, vec![vec![Value::Int(3)]]);
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
    for sql in [
        "select s from t where k = 5 and v > 51.0",
        "select s from t where k >= 2 and k < 7 and k > 3",
        "select s from t where v > 50.0",
        "select s from t where k + 0 = 5", // non-sargable: no index
    ] {
        query_checked(&db, sql);
    }
}
