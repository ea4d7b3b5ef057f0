//! A table version's statistics are collected by the first reader that
//! needs them — a plan's estimator, `Database::table_stats`, a durable
//! Snapshot or checkpoint encode — and by no write. Every count here is a
//! delta of the process-global `stats.collect` counter, so the tests of
//! this binary take turns (`serial`).
//!
//! What a reader gets must be what a collection from scratch over the
//! version's rows gives: a cell carried across a data change would show as
//! a `row_count` that is not the table's length.

use std::fs;
use std::path::PathBuf;
use std::sync::{Barrier, Mutex, MutexGuard};

use conquer_core::{
    annotate_database, consistent_answers_annotated_with, consistent_answers_with,
    declare_key_indexes,
};
use conquer_engine::{
    DataType, Database, DurabilityOptions, ExecOptions, SyncPolicy, Table, TableStats, Value,
};
use conquer_tpch::{
    benchmark_constraints, generate_database, inject_database, BenchmarkQuery, GenConfig, Q10, Q12,
    Q3, Q4, Q6,
};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn collections() -> u64 {
    conquer_obs::registry().counter("stats.collect").get()
}

/// Collections `f` made.
fn collected_by(f: impl FnOnce()) -> u64 {
    let before = collections();
    f();
    collections() - before
}

fn plan(db: &Database, sql: &str) {
    let query = conquer_sql::parse_query(sql).unwrap();
    db.plan(&query, &ExecOptions::default()).unwrap();
}

fn assert_stats_are_current(db: &Database, table: &str) {
    let installed = db.table_stats(table).expect("statistics");
    let rows = db.table(table).expect("table");
    assert_eq!(*installed, TableStats::collect(rows.cols()), "`{table}`");
    assert_eq!(installed.row_count, rows.len() as u64, "`{table}`");
}

/// The paper's set-up at a small scale: generate, inject, annotate,
/// declare the keys.
fn loaded() -> Database {
    let db = generate_database(&GenConfig {
        scale_factor: 0.002,
        seed: 0xC09E_5EED,
        threads: 1,
    });
    let sigma = benchmark_constraints();
    inject_database(&db, &sigma, 0.05, 2, 0xC09E_5EED);
    annotate_database(&db, &sigma).unwrap();
    declare_key_indexes(&db, &sigma);
    db
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lazy-stats-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path) -> Database {
    let options = DurabilityOptions {
        sync: SyncPolicy::Never,
        checkpoint_wal_bytes: 0,
    };
    Database::open(dir, options).expect("open durable database")
}

/// [`open`], asserting that recovery collected no statistics.
fn reopen(dir: &std::path::Path) -> Database {
    let before = collections();
    let db = open(dir);
    assert_eq!(collections() - before, 0, "recovery collects nothing");
    db
}

/// A plan that reads `t`'s statistics: the optimizer orients the join.
const SELF_JOIN: &str = "select count(*) from t a, t b where a.k = b.k";

#[test]
fn writes_collect_nothing() {
    let _serial = serial();
    let n = collected_by(|| {
        let db = loaded();
        db.run_script(
            "create table churn (k integer, v text);
             insert into churn values (1, 'a'), (2, 'b');
             insert into churn values (3, null);",
        )
        .unwrap();
    });
    assert_eq!(n, 0, "generate, inject, annotate, declare, CREATE, INSERT");
}

#[test]
fn the_first_plan_collects_once_per_table_version() {
    let _serial = serial();
    let db = loaded();
    let sigma = benchmark_constraints();
    let options = ExecOptions::default();
    // A pass runs each query as written, rewritten and annotated.
    let pass = |queries: &[&BenchmarkQuery]| {
        for q in queries {
            db.query(q.sql).unwrap();
            consistent_answers_with(&db, q.sql, &sigma, &options).unwrap();
            consistent_answers_annotated_with(&db, q.sql, &sigma, &options).unwrap();
        }
    };
    assert_eq!(collected_by(|| pass(&[&Q6])), 1, "first Q6 pass: lineitem");
    assert_eq!(collected_by(|| pass(&[&Q6])), 0, "second Q6 pass");
    assert_stats_are_current(&db, "lineitem");

    // The join queries read `lineitem` (collected above), `orders`,
    // `customer` and `nation`.
    let joins = [&Q3, &Q4, &Q10, &Q12];
    assert_eq!(collected_by(|| pass(&joins)), 3, "orders, customer, nation");
    assert_eq!(collected_by(|| pass(&joins)), 0, "second join pass");
}

#[test]
fn concurrent_first_plans_collect_once() {
    let _serial = serial();
    let db = Database::new();
    let mut script = String::from("create table t (k integer, v float);\n");
    for i in 0..2000 {
        script.push_str(&format!("insert into t values ({i}, {}.5);\n", i % 17));
    }
    db.run_script(&script).unwrap();
    let barrier = Barrier::new(8);
    let n = collected_by(|| {
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    plan(&db, SELF_JOIN);
                });
            }
        });
    });
    assert_eq!(n, 1, "eight first plans of one version");
    assert_stats_are_current(&db, "t");
}

#[test]
fn every_mutation_leaves_current_statistics() {
    let _serial = serial();
    let db = Database::new();
    let mut table = Table::new("t", vec![("k", DataType::Integer), ("s", DataType::Text)]);
    for i in 0..50 {
        table.push(vec![Value::Int(i), Value::str("x")]).unwrap();
    }
    db.register(table).unwrap();
    assert_stats_are_current(&db, "t");

    // A filled cell must not survive the rows it describes.
    db.run_script("insert into t values (50, 'y'), (51, null)")
        .unwrap();
    assert_stats_are_current(&db, "t");
    assert_eq!(db.table_stats("t").unwrap().row_count, 52);

    // A republish over the same batch keeps it.
    assert!(db.create_index("t", &["k"]).unwrap());
    assert_eq!(collected_by(|| assert_stats_are_current(&db, "t")), 0);

    db.drop_table("t").unwrap();
    db.run_script("create table t (k integer); insert into t values (7)")
        .unwrap();
    assert_stats_are_current(&db, "t");
    assert_eq!(db.table_stats("t").unwrap().columns.len(), 1);
}

#[test]
fn recovery_collects_on_first_read() {
    let _serial = serial();
    let dir = temp_dir("tail");
    {
        let db = open(&dir);
        db.run_script("create table t (k integer, v text)").unwrap();
        for i in 0..40 {
            db.run_script(&format!("insert into t values ({i}, 'v{}')", i % 3))
                .unwrap();
        }
    }
    let db = reopen(&dir);
    assert_eq!(collected_by(|| assert_stats_are_current(&db, "t")), 1);
    drop(db);
    let _ = fs::remove_dir_all(&dir);

    // A segment carries the statistics it was written with; Insert records
    // on top of it leave the table to its first reader.
    let dir = temp_dir("segment");
    {
        let db = open(&dir);
        db.run_script("create table s (k integer); insert into s values (1), (2), (2)")
            .unwrap();
        db.run_script("create table u (k integer); insert into u values (1)")
            .unwrap();
        assert!(db.checkpoint().unwrap());
        db.run_script("insert into u values (2), (3)").unwrap();
    }
    let db = reopen(&dir);
    assert_eq!(collected_by(|| assert_stats_are_current(&db, "s")), 0);
    assert_eq!(db.table_stats("s").unwrap().columns[0].ndv, 2);
    assert_eq!(collected_by(|| assert_stats_are_current(&db, "u")), 1);
    assert_eq!(db.table_stats("u").unwrap().row_count, 3);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_durable_register_collects_once_for_its_snapshot() {
    let _serial = serial();
    let dir = temp_dir("register");
    let db = open(&dir);
    let mut table = Table::new("t", vec![("k", DataType::Integer)]);
    for i in 0..100 {
        table.push(vec![Value::Int(i % 10)]).unwrap();
    }
    assert_eq!(
        collected_by(|| db.register(table).unwrap()),
        1,
        "the Snapshot's"
    );
    assert_eq!(collected_by(|| plan(&db, SELF_JOIN)), 0, "first plan");
    assert_stats_are_current(&db, "t");
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}
