//! Durable-storage integration tests: WAL replay, checkpoint recovery,
//! epoch restoration, and the torn-tail property sweep (truncate/corrupt a
//! recorded WAL at every byte offset — recovery never panics and never
//! resurrects a partially-applied record).

use std::fs;
use std::path::{Path, PathBuf};

use conquer_engine::{ColumnChunk, DataType, Database, DurabilityOptions, SyncPolicy, Value};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("conquer-durability-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts_always() -> DurabilityOptions {
    DurabilityOptions {
        sync: SyncPolicy::Always,
        checkpoint_wal_bytes: 0, // no auto-checkpoint: tests control folding
    }
}

fn open(dir: &Path) -> Database {
    Database::open(dir, opts_always()).expect("open durable database")
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

#[test]
fn create_insert_survive_reopen_via_wal_replay() {
    let dir = temp_dir("replay");
    {
        let db = open(&dir);
        db.run_script(
            "create table t (x integer, s text);
             insert into t values (1, 'a'), (2, 'b');
             insert into t values (3, 'c');",
        )
        .unwrap();
    } // dropped without checkpoint: everything lives in the WAL tail
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2, 3]);
    // The recovered table is fully usable: inserts and queries work.
    db.run_script("insert into t values (4, 'd')").unwrap();
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2, 3, 4]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_then_reopen_loads_segments_with_verbatim_stats_and_epoch() {
    let dir = temp_dir("checkpoint");
    let (epoch, stats_before);
    {
        let db = open(&dir);
        db.run_script(
            "create table t (x integer);
             insert into t values (1), (2), (3), (3);",
        )
        .unwrap();
        assert!(db.checkpoint().unwrap(), "first checkpoint must run");
        epoch = db.catalog_epoch();
        stats_before = format!("{:?}", db.table_stats("t").expect("stats"));
        // A clean checkpoint folds the WAL down to just its magic header.
        let status = db.storage_status().unwrap();
        assert!(status.segments > 0, "checkpoint must write segments");
        assert!(status.wal_bytes <= 8, "checkpoint must truncate the WAL");
    }
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2, 3, 3]);
    // Stats come back verbatim from the segment, not recomputed — and the
    // epoch lands exactly where it was, so table versions keep growing
    // across a restart instead of starting over.
    assert_eq!(
        format!("{:?}", db.table_stats("t").expect("stats")),
        stats_before
    );
    assert_eq!(db.catalog_epoch(), epoch);
    assert!(db.table_version("t").is_some_and(|v| v <= epoch));
    let _ = fs::remove_dir_all(&dir);
}

/// Manifests written before per-table versions carry a `stats_epoch` meta
/// key next to `catalog_epoch`. Such a directory must still open: the key
/// is ignored, the data and the epoch come back.
#[test]
fn manifest_with_legacy_stats_epoch_key_opens() {
    use conquer_storage::{Store, StoreOptions};

    let dir = temp_dir("legacy-meta");
    let epoch;
    {
        let db = open(&dir);
        db.run_script("create table t (x integer); insert into t values (1), (2)")
            .unwrap();
        db.checkpoint().unwrap();
        epoch = db.catalog_epoch();
    }
    {
        // Re-commit the same segments under the old manifest shape.
        let options = StoreOptions {
            sync: SyncPolicy::Always,
        };
        let (store, recovered) = Store::open(&dir, options).expect("open store");
        let tables: Vec<(String, Vec<u8>)> = recovered
            .segments
            .into_iter()
            .map(|seg| (seg.table, seg.payload))
            .collect();
        let mut meta = recovered.meta;
        assert!(meta.iter().all(|(key, _)| key == "catalog_epoch"));
        meta.push(("stats_epoch".to_string(), 7));
        store.checkpoint(&tables, &meta).expect("legacy checkpoint");
    }
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2]);
    assert_eq!(db.catalog_epoch(), epoch);
    // And it keeps working: the next checkpoint drops the key again.
    db.run_script("insert into t values (3)").unwrap();
    db.checkpoint().unwrap();
    drop(db);
    assert_eq!(
        ints(&open(&dir), "select x from t order by x"),
        vec![1, 2, 3]
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_tail_on_top_of_checkpoint_replays() {
    let dir = temp_dir("tail");
    {
        let db = open(&dir);
        db.run_script("create table t (x integer); insert into t values (1)")
            .unwrap();
        db.checkpoint().unwrap();
        // Mutations after the checkpoint live only in the new WAL.
        db.run_script("insert into t values (2)").unwrap();
        db.run_script("create table u (y integer); insert into u values (9)")
            .unwrap();
    }
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2]);
    assert_eq!(ints(&db, "select y from u"), vec![9]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn annotations_survive_restart() {
    let dir = temp_dir("annotations");
    {
        let db = open(&dir);
        db.run_script(
            "create table customer (custkey text, acctbal float);
             insert into customer values ('c1', 2000), ('c1', 100), ('c2', 2500);",
        )
        .unwrap();
        // Same shape conquer-core's annotate_database produces: replace the
        // table with a copy carrying the computed `cons` column. register()
        // logs it as a snapshot record.
        let table = db.table("customer").unwrap();
        let flags = ColumnChunk::from_values(["n", "n", "y"].map(Value::str));
        let annotated = table.with_column("cons", DataType::Text, flags).unwrap();
        db.register(annotated).unwrap();
    }
    let db = open(&dir);
    let rows = db
        .query("select custkey, cons from customer order by custkey, cons")
        .unwrap();
    let flags: Vec<(String, String)> = rows
        .rows
        .iter()
        .map(|r| (r[0].to_string(), r[1].to_string()))
        .collect();
    assert_eq!(
        flags,
        vec![
            ("c1".into(), "n".into()),
            ("c1".into(), "n".into()),
            ("c2".into(), "y".into()),
        ]
    );
    // And again through a checkpoint: the annotation column is ordinary
    // stored data in the segment too.
    db.checkpoint().unwrap();
    drop(db);
    let db = open(&dir);
    assert_eq!(db.query("select cons from customer").unwrap().len(), 3);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn drop_table_replays() {
    let dir = temp_dir("drop");
    {
        let db = open(&dir);
        db.run_script("create table gone (x integer); insert into gone values (1)")
            .unwrap();
        db.run_script("create table kept (x integer); insert into kept values (2)")
            .unwrap();
        db.checkpoint().unwrap();
        // Drop AFTER the checkpoint: the segment still holds `gone`, and
        // only the WAL tail records its removal.
        db.drop_table("gone").unwrap().expect("gone existed");
    }
    let db = open(&dir);
    assert!(
        db.table("gone").is_err(),
        "dropped table must not resurrect"
    );
    assert_eq!(ints(&db, "select x from kept"), vec![2]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_idempotent_across_repeated_opens() {
    let dir = temp_dir("idempotent");
    {
        let db = open(&dir);
        db.run_script(
            "create table t (x integer);
             insert into t values (1), (2);",
        )
        .unwrap();
    }
    // Open/close repeatedly without mutating: each recovery replays the
    // same WAL and must land on the identical catalog.
    for _ in 0..3 {
        let db = open(&dir);
        assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2]);
    }
    // Same through a checkpoint (segments + empty WAL).
    open(&dir).checkpoint().unwrap();
    for _ in 0..3 {
        let db = open(&dir);
        assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2]);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_if_dirty_skips_clean_wal() {
    let dir = temp_dir("dirty");
    let db = open(&dir);
    db.run_script("create table t (x integer)").unwrap();
    assert!(db.checkpoint_if_dirty().unwrap());
    assert!(
        !db.checkpoint_if_dirty().unwrap(),
        "clean WAL must not re-checkpoint"
    );
    db.run_script("insert into t values (1)").unwrap();
    assert!(db.checkpoint_if_dirty().unwrap());
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Torn-tail property sweep
// ---------------------------------------------------------------------------

/// Record a short WAL-only history whose valid recovery states are exactly
/// the prefixes of its statements:
///
/// ```text
/// []            (truncated inside CREATE)
/// [1]           (after `insert (1)`)
/// [1,2,3]       (after `insert (2),(3)` — one record, all-or-nothing)
/// [1,2,3,4]     (complete)
/// ```
///
/// Returns the WAL path. The multi-row insert is the partial-application
/// probe: recovering `[1,2]` would mean half a record was applied.
fn record_history(dir: &Path) -> PathBuf {
    let db = open(dir);
    db.run_script("create table t (x integer)").unwrap();
    db.run_script("insert into t values (1)").unwrap();
    db.run_script("insert into t values (2), (3)").unwrap();
    db.run_script("insert into t values (4)").unwrap();
    drop(db);
    let wal = dir.join("wal-0.log");
    assert!(wal.exists(), "history must live in generation-0 WAL");
    wal
}

const VALID_PREFIXES: &[&[i64]] = &[&[], &[1], &[1, 2, 3], &[1, 2, 3, 4]];

/// Reopen `dir` and assert the recovered state is one of the valid
/// prefixes. Never panics on any mutilation of the WAL.
fn assert_prefix_state(dir: &Path, what: &str) {
    let db = Database::open(dir, opts_always())
        .unwrap_or_else(|e| panic!("{what}: recovery must not fail: {e}"));
    let state: Vec<i64> = match db.table("t") {
        Ok(_) => {
            let mut xs = ints(&db, "select x from t order by x");
            xs.sort_unstable();
            xs
        }
        Err(_) => Vec::new(),
    };
    assert!(
        VALID_PREFIXES.contains(&state.as_slice()),
        "{what}: recovered {state:?}, which is not a statement prefix — \
         a partially-applied record was resurrected"
    );
}

#[test]
fn truncating_wal_at_every_offset_recovers_a_prefix() {
    let master = temp_dir("truncate-master");
    let wal = record_history(&master);
    let bytes = fs::read(&wal).unwrap();

    let dir = temp_dir("truncate-work");
    for cut in 0..bytes.len() {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("wal-0.log"), &bytes[..cut]).unwrap();
        assert_prefix_state(&dir, &format!("truncated at byte {cut}"));
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&master);
}

#[test]
fn corrupting_wal_at_every_offset_recovers_a_prefix() {
    let master = temp_dir("corrupt-master");
    let wal = record_history(&master);
    let bytes = fs::read(&wal).unwrap();

    let dir = temp_dir("corrupt-work");
    for pos in 0..bytes.len() {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0xFF;
        fs::write(dir.join("wal-0.log"), &mutated).unwrap();
        assert_prefix_state(&dir, &format!("corrupted at byte {pos}"));
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&master);
}

#[test]
fn reopen_after_torn_tail_truncates_and_new_writes_survive() {
    let master = temp_dir("heal-master");
    let wal = record_history(&master);
    let bytes = fs::read(&wal).unwrap();

    // Tear the final record in half, reopen, write on top of the healed
    // tail, and confirm a third open sees old prefix + new writes.
    let dir = temp_dir("heal-work");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("wal-0.log"), &bytes[..bytes.len() - 3]).unwrap();
    {
        let db = open(&dir);
        assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2, 3]);
        db.run_script("insert into t values (7)").unwrap();
    }
    let db = open(&dir);
    assert_eq!(ints(&db, "select x from t order by x"), vec![1, 2, 3, 7]);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&master);
}
