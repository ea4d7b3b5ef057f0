//! A data directory written before snapshots went columnar is refused.
//!
//! `tests/fixtures/pre_columnar` was written by the row-shaped format
//! (`fixtures/write_pre_columnar.rs`, run by `fixtures/make_pre_columnar.sh`
//! on the last commit that wrote it): three segments under a manifest
//! without a `segment_format` key, then a WAL tail holding a kind-3
//! Snapshot, Insert records, an Index record and a Create. The columnar
//! format reads neither its segments nor its kind-3 records, so
//! `Database::open` answers with a structured `Storage` error naming the
//! format before it applies anything, and leaves the directory as it was.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use conquer_engine::{Database, DurabilityOptions, EngineError, SyncPolicy};
use conquer_storage::{Store, StoreOptions};

/// The row-shaped Snapshot record kind, which nothing writes any more.
const KIND_ROW_SNAPSHOT: u8 = 3;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pre_columnar")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("format-compat-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_copy(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    for file in fs::read_dir(fixture()).unwrap() {
        let file = file.unwrap();
        fs::copy(file.path(), dir.join(file.file_name())).unwrap();
    }
    dir
}

/// Every file under `dir`, by name, with its bytes.
fn contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|file| {
            let file = file.unwrap();
            let name = file.file_name().to_string_lossy().into_owned();
            (name, fs::read(file.path()).unwrap())
        })
        .collect()
}

fn options() -> DurabilityOptions {
    DurabilityOptions {
        sync: SyncPolicy::Always,
        checkpoint_wal_bytes: 0,
    }
}

/// The `Storage` error opening `dir` answers with.
fn refusal(dir: &Path) -> String {
    match Database::open(dir, options()) {
        Err(EngineError::Storage(message)) => message,
        Err(other) => panic!("expected a storage error, got {other:?}"),
        Ok(db) => panic!("opened with tables {:?}", db.table_names()),
    }
}

#[test]
fn a_pre_columnar_directory_is_refused_with_a_structured_error() {
    let dir = fixture_copy("refused");
    let before = contents(&dir);
    assert_eq!(before, contents(&fixture()));
    assert_eq!(before.len(), 5, "{:?}", before.keys());

    for _ in 0..2 {
        let message = refusal(&dir);
        assert!(
            message.contains("segment_format") && message.contains("row-shaped"),
            "{message}"
        );
        // Nothing was applied, rewritten, truncated or cleaned up.
        assert_eq!(contents(&dir), before);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_row_shaped_wal_record_is_refused_before_anything_is_applied() {
    // A directory that never checkpointed has no manifest: its WAL alone
    // says which format wrote it.
    let dir = scratch_dir("row-record");
    let store_options = StoreOptions {
        sync: SyncPolicy::Always,
    };
    {
        let (store, _) = Store::open(&dir, store_options).unwrap();
        store.append(KIND_ROW_SNAPSHOT, b"row-shaped").unwrap();
    }
    let before = contents(&dir);
    let message = refusal(&dir);
    assert!(message.contains("kind 3"), "{message}");
    assert_eq!(contents(&dir), before);
    let _ = fs::remove_dir_all(&dir);
}
