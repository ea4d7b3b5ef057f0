//! A data directory written before snapshots went columnar still opens.
//!
//! `tests/fixtures/pre_columnar` was written by the row-shaped format
//! (`fixtures/write_pre_columnar.rs`, run by `fixtures/make_pre_columnar.sh`
//! on the last commit that wrote it): three segments under a manifest
//! without a `segment_format` key, then a WAL tail holding a kind-3
//! Snapshot, Insert records, an Index record and a Create. Its rows are
//! formulas of the row number, rebuilt here to compare.

use std::fs;
use std::path::{Path, PathBuf};

use conquer_engine::{Database, DurabilityOptions, SyncPolicy, Table, TableStats, Value};
use conquer_storage::{Store, StoreOptions};

/// The epoch the fixture's writer reported before it stopped.
const FIXTURE_EPOCH: u64 = 12;

/// The Snapshot record kind the columnar format writes, and the one it
/// only reads.
const KIND_SNAPSHOT: u8 = 6;
const KIND_ROW_SNAPSHOT: u8 = 3;

fn fixture_copy(tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pre_columnar");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("format-compat-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for file in fs::read_dir(&src).unwrap() {
        let file = file.unwrap();
        fs::copy(file.path(), dir.join(file.file_name())).unwrap();
    }
    dir
}

fn open(dir: &Path) -> Database {
    let options = DurabilityOptions {
        sync: SyncPolicy::Always,
        checkpoint_wal_bytes: 0,
    };
    Database::open(dir, options).expect("open the data directory")
}

/// The store under `dir`, as recovery finds it: its meta keys and the
/// kinds of its WAL records.
fn store_state(dir: &Path) -> (Vec<(String, u64)>, Vec<u8>) {
    let options = StoreOptions {
        sync: SyncPolicy::Always,
    };
    let (_, recovered) = Store::open(dir, options).expect("open the store");
    let kinds = recovered.wal_records.iter().map(|r| r.kind).collect();
    (recovered.meta, kinds)
}

fn collections() -> u64 {
    conquer_obs::registry().counter("stats.collect").get()
}

/// Row `i` of `typed`, as the fixture's writer builds it.
fn typed_row(i: i64) -> Vec<Value> {
    let null_every = |n: i64, v: Value| if i % n == 0 { Value::Null } else { v };
    vec![
        Value::Int(i),
        null_every(7, Value::Int(i * i - 50)),
        null_every(5, Value::Float(i as f64 * 0.25 - 3.0)),
        null_every(3, Value::str(format!("s{}", i % 4))),
        null_every(11, Value::Date(9000 + i as i32)),
        null_every(6, Value::Bool(i % 2 == 0)),
    ]
}

fn expected_rows(table: &str) -> Vec<Vec<Value>> {
    let ints = |xs: &[i64]| xs.iter().map(|&x| vec![Value::Int(x)]).collect();
    match table {
        "typed" => {
            let mut rows: Vec<_> = (0..60).map(typed_row).collect();
            let mut tail = vec![Value::Null; 6];
            (tail[0], tail[3]) = (Value::Int(100), Value::str("tail"));
            rows.push(tail);
            rows
        }
        "mixed" => (0..12i64)
            .map(|i| {
                let x = if i % 2 == 0 {
                    Value::Int(i)
                } else {
                    Value::Float(i as f64 + 0.5)
                };
                let a = match i % 4 {
                    0 => Value::Null,
                    1 => Value::str(format!("a{i}")),
                    2 => Value::Date(i as i32),
                    _ => Value::Bool(true),
                };
                vec![Value::Int(i), x, a]
            })
            .collect(),
        "made" => [
            (1, Some("a")),
            (2, None),
            (3, Some("a")),
            (4, Some("b")),
            (5, None),
        ]
        .into_iter()
        .map(|(k, s)| vec![Value::Int(k), s.map_or(Value::Null, Value::str)])
        .collect(),
        "late" => ints(&[7, 8]),
        other => panic!("unexpected table {other}"),
    }
}

/// Every table holds its expected rows (the same variants, floats to the
/// bit) and index declarations, none of them built.
fn assert_fixture_contents(db: &Database) {
    assert_eq!(db.table_names(), ["late", "made", "mixed", "typed"]);
    for name in db.table_names() {
        let table = db.table(&name).unwrap();
        let got: Vec<String> = table.rows().iter().map(|r| format!("{r:?}")).collect();
        let want: Vec<String> = expected_rows(&name)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(got, want, "rows of `{name}`");
    }
    let declared = |t: &str| db.declared_indexes(t);
    assert_eq!(declared("typed"), [["k"]]);
    assert_eq!(declared("mixed"), [["k"]]);
    assert_eq!(declared("made"), [["k", "s"]]);
    assert!(declared("late").is_empty());
    assert!(db.index_status().iter().all(|(_, _, built)| !built));
}

/// The first reader of each table collects its statistics, once, equal to
/// a collection from scratch.
fn assert_first_reads_collect_once(db: &Database) {
    for name in db.table_names() {
        let before = collections();
        let stats = db.table_stats(&name).unwrap();
        let again = db.table_stats(&name).unwrap();
        assert_eq!(collections() - before, 1, "`{name}`");
        let table: std::sync::Arc<Table> = db.table(&name).unwrap();
        assert_eq!(*stats, TableStats::collect(table.cols()), "`{name}`");
        assert_eq!(stats, again);
    }
}

#[test]
fn a_pre_columnar_directory_opens_and_is_rewritten_columnar() {
    let dir = fixture_copy("rewrite");
    let (meta, kinds) = store_state(&dir);
    assert!(meta.iter().all(|(key, _)| key != "segment_format"));
    assert!(kinds.contains(&KIND_ROW_SNAPSHOT), "{kinds:?}");

    let before = collections();
    let db = open(&dir);
    assert_eq!(collections() - before, 0, "recovery collects nothing");
    assert_eq!(db.catalog_epoch(), FIXTURE_EPOCH);
    assert_fixture_contents(&db);
    assert_first_reads_collect_once(&db);

    // The next checkpoint rewrites the directory columnar: the manifest
    // carries the format key, the WAL restarts empty.
    assert!(db.checkpoint().unwrap());
    drop(db);
    let (meta, kinds) = store_state(&dir);
    assert!(
        meta.contains(&("segment_format".to_string(), 2)),
        "{meta:?}"
    );
    assert!(meta.contains(&("catalog_epoch".to_string(), FIXTURE_EPOCH)));
    assert!(kinds.is_empty());

    // The rewritten directory recovers the same catalog, and a register
    // logs a columnar Snapshot.
    let db = open(&dir);
    assert_eq!(db.catalog_epoch(), FIXTURE_EPOCH);
    assert_fixture_contents(&db);
    assert_first_reads_collect_once(&db);
    let late = (*db.table("late").unwrap()).clone();
    db.register(late).unwrap();
    drop(db);
    assert_eq!(store_state(&dir).1, [KIND_SNAPSHOT]);
    assert_fixture_contents(&open(&dir));
    let _ = fs::remove_dir_all(&dir);
}
