//! Recovery collects no statistics for a table the WAL tail's `CREATE` and
//! `INSERT` records rebuilt: its first reader collects them once, over the
//! recovered rows — not once per replayed `INSERT` record, which made
//! recovery quadratic in the tail. What a reader gets must be what a
//! collection from scratch over the recovered table gives, whatever mix of
//! records touched the table.

use std::fs;
use std::path::PathBuf;

use conquer_engine::{Database, DurabilityOptions, SyncPolicy, TableStats};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("recovery-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path) -> Database {
    let options = DurabilityOptions {
        sync: SyncPolicy::Never,
        checkpoint_wal_bytes: 0, // everything stays in the WAL tail
    };
    Database::open(dir, options).expect("open durable database")
}

fn assert_stats_are_current(db: &Database, table: &str) {
    let installed = db.table_stats(table).expect("statistics installed");
    let fresh = TableStats::collect(db.table(table).expect("table").cols());
    assert_eq!(*installed, fresh, "statistics of `{table}`");
}

#[test]
fn replayed_inserts_leave_current_statistics() {
    let dir = temp_dir("inserts");
    let epoch = {
        let db = open(&dir);
        db.run_script("create table t (k integer, v text, x float)")
            .unwrap();
        for i in 0..500 {
            let v = if i % 7 == 0 {
                "null".to_string()
            } else {
                format!("'v{}'", i % 13)
            };
            db.run_script(&format!("insert into t values ({i}, {v}, {}.5)", i % 40))
                .unwrap();
        }
        db.catalog_epoch()
    };
    let (db, opened) = conquer_obs::capture(|| open(&dir));
    assert!(
        opened.iter().all(|span| span.name != "stats.collect"),
        "opening a 500-record tail collects nothing"
    );
    assert_eq!(db.table("t").unwrap().len(), 500);
    assert_stats_are_current(&db, "t");
    let stats = db.table_stats("t").unwrap();
    assert_eq!(
        (stats.row_count, stats.columns[0].ndv, stats.columns[1].ndv),
        (500, 500, 13)
    );
    assert_eq!(stats.columns[1].null_count, 72);
    // One epoch bump per replayed record, as when they were first applied.
    assert_eq!(db.catalog_epoch(), epoch);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshots_drops_and_recreations_between_inserts() {
    let dir = temp_dir("mixed");
    {
        let db = open(&dir);
        // `kept`: inserts, then a snapshot (register), then more inserts.
        // `gone`: inserts, then dropped. `again`: dropped and re-created.
        db.run_script(
            "create table kept (k integer); insert into kept values (1), (2);
             create table gone (k integer); insert into gone values (1);
             create table again (k integer); insert into again values (1), (1);",
        )
        .unwrap();
        let kept = (*db.table("kept").unwrap()).clone();
        db.register(kept).unwrap();
        db.run_script("insert into kept values (3)").unwrap();
        db.drop_table("gone").unwrap();
        db.drop_table("again").unwrap();
        db.run_script("create table again (k integer, s text)")
            .unwrap();
    }
    let db = open(&dir);
    assert!(db.table("gone").is_err() && db.table_stats("gone").is_none());
    assert_stats_are_current(&db, "kept");
    assert_eq!(db.table_stats("kept").unwrap().row_count, 3);
    assert_stats_are_current(&db, "again");
    assert_eq!(db.table_stats("again").unwrap().columns.len(), 2);
    let _ = fs::remove_dir_all(&dir);
}
