//! Crash matrix over the storage-layer fault points
//! (`--features fault-injection`): every injected WAL/checkpoint failure
//! surfaces as a structured `Err`, loses at most the operation in flight,
//! and leaves both the in-memory catalog and the on-disk state recoverable.
//!
//! Fault schedules are thread-local, so each test arms and mutates on its
//! own thread (the test thread) — recovery opens run disarmed.

#![cfg(feature = "fault-injection")]

use std::fs;
use std::path::{Path, PathBuf};

use conquer_engine::{faults, Database, DurabilityOptions, EngineError, SyncPolicy, Value};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("conquer-durafault-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> Database {
    Database::open(
        dir,
        DurabilityOptions {
            sync: SyncPolicy::Always,
            checkpoint_wal_bytes: 0,
        },
    )
    .expect("open durable database")
}

fn ints(db: &Database, sql: &str) -> Vec<i64> {
    db.query(sql)
        .expect("query")
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Int(i) => *i,
            other => panic!("expected int, got {other:?}"),
        })
        .collect()
}

fn is_injected_storage(err: &EngineError, point: &str) -> bool {
    matches!(err, EngineError::Storage(msg) if msg.contains("injected fault")
        && msg.contains(point))
}

#[test]
fn wal_append_fault_rejects_op_and_leaves_catalog_untouched() {
    let dir = temp_dir("append");
    faults::disarm_all();
    let db = open(&dir);
    db.run_script("create table t (x integer); insert into t values (1)")
        .unwrap();

    faults::arm("wal_append_io", 0);
    let err = db
        .run_script("insert into t values (2)")
        .expect_err("append fault must surface");
    assert!(
        is_injected_storage(&err, "wal_append_io"),
        "expected injected storage error, got {err:?}"
    );
    faults::disarm_all();

    // Log-before-apply: the failed insert never touched memory...
    assert_eq!(ints(&db, "select x from t order by x"), vec![1]);
    // ...and the database keeps working once the fault clears.
    db.run_script("insert into t values (3)").unwrap();
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 3]);
    drop(db);

    // Reopen: disk agrees with memory — nothing from the failed append.
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 3]);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_sync_fault_rejects_op_and_recovery_stays_well_formed() {
    let dir = temp_dir("sync");
    faults::disarm_all();
    let db = open(&dir);
    db.run_script("create table t (x integer); insert into t values (1)")
        .unwrap();

    faults::arm("wal_sync_fail", 0);
    let err = db
        .run_script("insert into t values (2)")
        .expect_err("sync fault must surface");
    assert!(
        is_injected_storage(&err, "wal_sync_fail"),
        "expected injected storage error, got {err:?}"
    );
    faults::disarm_all();

    // The op errored, so memory does not hold row 2, and the record bytes
    // written before the fsync failed were cut back out of the WAL: a
    // reopen with no crash replays exactly what memory holds.
    assert_eq!(ints(&db, "select x from t order by x"), vec![1]);
    db.run_script("insert into t values (3)").unwrap();
    drop(db);
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 3]);
    // Still writable after recovery.
    db.run_script("insert into t values (9)").unwrap();
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 3, 9]);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn failed_cut_after_sync_fault_poisons_the_store_until_reopen() {
    let dir = temp_dir("poison");
    faults::disarm_all();
    let db = open(&dir);
    db.run_script("create table t (x integer); insert into t values (1)")
        .unwrap();

    faults::arm("wal_sync_fail", 0);
    faults::arm("wal_truncate_fail", 0);
    let err = db
        .run_script("insert into t values (2)")
        .expect_err("sync fault must surface");
    assert!(is_injected_storage(&err, "wal_sync_fail"), "{err:?}");
    faults::disarm_all();

    // The orphan record could not be cut: every later write errs, reads
    // still answer from memory.
    let err = db
        .run_script("insert into t values (3)")
        .expect_err("a poisoned store refuses appends");
    assert!(
        matches!(&err, EngineError::Storage(msg) if msg.contains("poisoned")),
        "{err:?}"
    );
    assert!(
        db.checkpoint().is_err(),
        "a poisoned store refuses checkpoints"
    );
    assert_eq!(ints(&db, "select x from t order by x"), vec![1]);
    drop(db);

    // Reopening clears the poison; the record that stayed in the log is
    // the crash-window outcome, replayed.
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2]);
    db.run_script("insert into t values (4)").unwrap();
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2, 4]);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_segment_write_fails_checkpoint_and_old_state_governs() {
    let dir = temp_dir("torn-seg");
    faults::disarm_all();
    let db = open(&dir);
    db.run_script("create table t (x integer); insert into t values (1), (2)")
        .unwrap();

    faults::arm("segment_write_torn", 0);
    let err = db
        .checkpoint()
        .expect_err("torn segment must fail checkpoint");
    assert!(
        is_injected_storage(&err, "segment_write_torn"),
        "expected injected storage error, got {err:?}"
    );
    faults::disarm_all();

    // The manifest never moved, so the WAL still carries everything; the
    // in-memory catalog is untouched and writable.
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2]);
    db.run_script("insert into t values (3)").unwrap();
    drop(db);

    // Recovery replays the WAL under the old (absent) manifest; the torn
    // segment file is an orphan and gets cleaned.
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2, 3]);
    let leftover_segs: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".seg"))
        .collect();
    assert!(
        leftover_segs.is_empty(),
        "torn segment orphans must be cleaned, found {leftover_segs:?}"
    );
    // And checkpointing works once the fault clears.
    assert!(db.checkpoint().unwrap());
    drop(db);
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2, 3]);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifest_rename_fault_fails_checkpoint_and_tmp_is_cleaned() {
    let dir = temp_dir("manifest");
    faults::disarm_all();
    let db = open(&dir);
    db.run_script("create table t (x integer); insert into t values (1)")
        .unwrap();

    faults::arm("manifest_rename_fail", 0);
    let err = db
        .checkpoint()
        .expect_err("rename fault must fail checkpoint");
    assert!(
        is_injected_storage(&err, "manifest_rename_fail"),
        "expected injected storage error, got {err:?}"
    );
    faults::disarm_all();

    // The tmp file was fully written but never renamed: the commit point
    // was not crossed, so the old state governs.
    assert!(dir.join("MANIFEST.tmp").exists(), "tmp survives the crash");
    assert_eq!(ints(&db, "select x from t order by x"), vec![1]);
    drop(db);

    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1]);
    assert!(
        !dir.join("MANIFEST.tmp").exists(),
        "recovery must clean the stale MANIFEST.tmp"
    );
    // Post-disarm the checkpoint lands, and the manifest now governs.
    assert!(db.checkpoint().unwrap());
    assert!(dir.join("MANIFEST").exists());
    drop(db);
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1]);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn repeated_fault_storms_never_wedge_the_store() {
    // Alternate injected failures and successes across every storage
    // point; the database must absorb each error and finish consistent.
    let dir = temp_dir("storm");
    faults::disarm_all();
    let db = open(&dir);
    db.run_script("create table t (x integer)").unwrap();

    let mut expected = Vec::new();
    let points = [
        "wal_append_io",
        "wal_sync_fail",
        "segment_write_torn",
        "manifest_rename_fail",
    ];
    for (i, point) in points.iter().cycle().take(12).enumerate() {
        let x = i as i64;
        faults::arm(point, 0);
        let sql = format!("insert into t values ({x})");
        let failed_insert = db.run_script(&sql).is_err();
        let _ = db.checkpoint(); // may fail under segment/manifest faults
        faults::disarm_all();
        if failed_insert {
            // The op was rejected; retry cleanly and it must land.
            db.run_script(&sql).unwrap();
        }
        expected.push(x);
    }
    assert_eq!(ints(&db, "select x from t order by x"), expected);
    drop(db);

    // Final recovery: exactly the retried history, no failed insert
    // replayed beside its retry.
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), expected);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}
