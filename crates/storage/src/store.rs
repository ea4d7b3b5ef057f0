//! The store: glue between the manifest, the checkpoint segments, and the
//! active WAL. This is the only module with mutable state; everything it
//! coordinates is written exactly once.
//!
//! ## Directory layout
//!
//! ```text
//! <data-dir>/
//!   MANIFEST            source of truth (atomically replaced)
//!   wal-<gen>.log       the active WAL for manifest generation <gen>
//!   seg-<gen>-<i>.seg   immutable table snapshots named by the manifest
//! ```
//!
//! ## Crash windows
//!
//! Checkpointing performs, in order: write + fsync every segment, rename a
//! new manifest into place (generation+1, `covered_seq` = last appended
//! seq), create the new empty WAL, delete the old WAL and old segments.
//! A crash anywhere in that sequence recovers cleanly:
//!
//! - before the manifest rename → the old manifest still governs; the
//!   half-written segments are unreferenced orphans, deleted on next open;
//! - after the rename, before the new WAL exists → the new manifest
//!   governs; a missing WAL reads as empty and is created on open;
//! - after the rename, before the old files are deleted → the old WAL's
//!   records all have `seq <= covered_seq` and live in a file recovery
//!   never opens; the leftovers are orphans, deleted on next open.
//!
//! Recovery itself mutates nothing until the store is fully constructed
//! (orphan deletion happens last, and deleting an orphan twice is a no-op),
//! so a crash *during recovery* just recovers again.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use crate::manifest::{
    load_manifest, store_manifest, sync_dir, Manifest, SegmentEntry, MANIFEST_NAME,
    MANIFEST_TMP_NAME,
};
use crate::segment::{read_segment, write_segment};
use crate::wal::{scan_wal, WalRecord, WalWriter};
use crate::{StoreOptions, SyncPolicy};

/// One recovered table snapshot: the opaque payload the application gave
/// [`Store::checkpoint`], handed back verbatim.
#[derive(Debug, Clone)]
pub struct SegmentData {
    pub table: String,
    pub payload: Vec<u8>,
}

/// Everything recovery found, in replay order: apply `segments` first, then
/// `wal_records` (already filtered to `seq > covered_seq`).
#[derive(Debug, Default)]
pub struct Recovered {
    pub segments: Vec<SegmentData>,
    pub wal_records: Vec<WalRecord>,
    /// Application metadata stored at the last checkpoint (empty for a
    /// fresh directory).
    pub meta: Vec<(String, u64)>,
    /// Whether the WAL ended in a torn or corrupt record that was dropped.
    pub torn_tail: bool,
}

/// A point-in-time view of the store for status endpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStatus {
    pub generation: u64,
    pub last_seq: u64,
    pub wal_bytes: u64,
    pub wal_unsynced_bytes: u64,
    pub segments: u64,
}

struct Inner {
    wal: WalWriter,
    next_seq: u64,
    manifest: Manifest,
    /// Set when a record whose fsync failed could not be cut back out of
    /// the WAL: the file holds a record its caller was told failed, so
    /// every later append and checkpoint errs until the store is reopened.
    poisoned: bool,
}

/// A durable record store rooted at one directory. Thread-safe; appends
/// and checkpoints serialize on an internal mutex.
pub struct Store {
    dir: PathBuf,
    sync: SyncPolicy,
    inner: Mutex<Inner>,
}

impl Inner {
    fn check_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "store poisoned: a failed WAL append could not be cut from the log; reopen it",
            ));
        }
        Ok(())
    }
}

fn wal_file_name(generation: u64) -> String {
    format!("wal-{generation}.log")
}

impl Store {
    /// Open (or create) the store at `dir`, returning it together with
    /// everything recovery found. Never panics on torn or truncated files;
    /// a corrupt manifest or segment (files that were fully fsynced before
    /// being referenced) is a hard error.
    pub fn open(dir: &Path, options: StoreOptions) -> io::Result<(Store, Recovered)> {
        let t0 = Instant::now();
        std::fs::create_dir_all(dir)?;
        let manifest = load_manifest(dir)?.unwrap_or_default();

        let mut segments = Vec::with_capacity(manifest.segments.len());
        for entry in &manifest.segments {
            let (payload, crc) = read_segment(&dir.join(&entry.file))?;
            if payload.len() as u64 != entry.len || crc != entry.crc {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("segment {} does not match its manifest entry", entry.file),
                ));
            }
            segments.push(SegmentData {
                table: entry.table.clone(),
                payload,
            });
        }

        let wal_path = dir.join(wal_file_name(manifest.generation));
        let scan = scan_wal(&wal_path)?;
        let wal_records: Vec<WalRecord> = scan
            .records
            .into_iter()
            .filter(|r| r.seq > manifest.covered_seq)
            .collect();
        let last_seq = wal_records
            .last()
            .map(|r| r.seq)
            .unwrap_or(manifest.covered_seq)
            .max(manifest.covered_seq);

        let wal = WalWriter::open(wal_path, scan.valid_len)?;
        sync_dir(dir)?;

        let registry = conquer_obs::registry();
        registry
            .counter("storage.recover.records")
            .add(wal_records.len() as u64);
        registry
            .counter("storage.recover.segments")
            .add(segments.len() as u64);
        registry
            .histogram("storage.recover.replay.us")
            .record(t0.elapsed().as_micros() as u64);

        let store = Store {
            dir: dir.to_path_buf(),
            sync: options.sync,
            inner: Mutex::new(Inner {
                wal,
                next_seq: last_seq + 1,
                manifest: manifest.clone(),
                poisoned: false,
            }),
        };
        store.remove_orphans(&manifest);

        Ok((
            store,
            Recovered {
                segments,
                wal_records,
                meta: manifest.meta,
                torn_tail: scan.torn,
            },
        ))
    }

    /// Delete files in the data directory that the manifest does not
    /// reference: stale WAL generations, unreferenced segments, and a
    /// leftover `MANIFEST.tmp`. Best-effort — an orphan that survives is
    /// garbage, not state.
    fn remove_orphans(&self, manifest: &Manifest) {
        let live_wal = wal_file_name(manifest.generation);
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(_) => return,
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let keep = name == MANIFEST_NAME
                || name == live_wal
                || manifest.segments.iter().any(|s| s.file == name)
                || (!name.starts_with("wal-")
                    && !name.starts_with("seg-")
                    && name != MANIFEST_TMP_NAME);
            if !keep {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Append one record ahead of applying it, returning its sequence
    /// number. Syncs according to the store's [`SyncPolicy`].
    ///
    /// Under [`SyncPolicy::Always`] an `Err` means the record is not in
    /// the log: when the fsync fails after the bytes were written, the WAL
    /// is cut back to its length before the append and the sequence number
    /// is handed out again, so a reopen replays nothing the caller was told
    /// failed. If that cut fails too, the store is poisoned.
    pub fn append(&self, kind: u8, payload: &[u8]) -> io::Result<u64> {
        let mut inner = self.lock();
        inner.check_poisoned()?;
        let (seq, before) = (inner.next_seq, inner.wal.len());
        let bytes = inner.wal.append(seq, kind, payload)?;
        inner.next_seq += 1;
        let registry = conquer_obs::registry();
        registry.counter("storage.wal.appends").inc();
        registry.counter("storage.wal.append_bytes").add(bytes);
        match self.sync {
            SyncPolicy::Always => {
                if let Err(e) = inner.wal.sync() {
                    match inner.wal.truncate(before) {
                        Ok(()) => inner.next_seq = seq,
                        Err(_) => inner.poisoned = true,
                    }
                    return Err(e);
                }
            }
            SyncPolicy::IntervalMs(ms) => {
                if inner.wal.millis_since_sync() >= u128::from(ms) {
                    inner.wal.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Force an fsync of the WAL regardless of policy (graceful shutdown,
    /// explicit flush).
    pub fn sync(&self) -> io::Result<()> {
        self.lock().wal.sync()
    }

    /// Sync if the interval policy says one is due; no-op otherwise. The
    /// background checkpointer ticks this so `interval_ms` holds even when
    /// no appends arrive.
    pub fn maybe_sync(&self) -> io::Result<()> {
        let mut inner = self.lock();
        if let SyncPolicy::IntervalMs(ms) = self.sync {
            if inner.wal.unsynced_bytes() > 0 && inner.wal.millis_since_sync() >= u128::from(ms) {
                inner.wal.sync()?;
            }
        }
        Ok(())
    }

    /// Bytes in the active WAL (the auto-checkpoint trigger reads this).
    pub fn wal_bytes(&self) -> u64 {
        self.lock().wal.len()
    }

    pub fn status(&self) -> StoreStatus {
        let inner = self.lock();
        StoreStatus {
            generation: inner.manifest.generation,
            last_seq: inner.next_seq.saturating_sub(1),
            wal_bytes: inner.wal.len(),
            wal_unsynced_bytes: inner.wal.unsynced_bytes(),
            segments: inner.manifest.segments.len() as u64,
        }
    }

    /// Write a checkpoint: one immutable segment per `(table, payload)`
    /// pair, a new manifest covering every record appended so far, a fresh
    /// WAL, then deletion of the previous generation's files.
    pub fn checkpoint(
        &self,
        tables: &[(String, Vec<u8>)],
        meta: &[(String, u64)],
    ) -> io::Result<()> {
        let t0 = Instant::now();
        let mut inner = self.lock();
        inner.check_poisoned()?;
        // Everything logged so far will live inside the segments.
        inner.wal.sync()?;
        let covered_seq = inner.next_seq - 1;
        let generation = inner.manifest.generation + 1;

        let mut entries = Vec::with_capacity(tables.len());
        for (i, (table, payload)) in tables.iter().enumerate() {
            let file = format!("seg-{generation}-{i}.seg");
            let crc = write_segment(&self.dir.join(&file), payload)?;
            entries.push(SegmentEntry {
                file,
                table: table.clone(),
                len: payload.len() as u64,
                crc,
            });
        }
        sync_dir(&self.dir)?;

        let manifest = Manifest {
            generation,
            covered_seq,
            meta: meta.to_vec(),
            segments: entries,
        };
        // The commit point: before this rename the old state governs,
        // after it the new one does.
        store_manifest(&self.dir, &manifest)?;

        let old_wal = inner.wal.path().to_path_buf();
        let wal = WalWriter::open(self.dir.join(wal_file_name(generation)), 0)?;
        sync_dir(&self.dir)?;
        inner.wal = wal;
        inner.manifest = manifest.clone();
        drop(inner);

        let _ = std::fs::remove_file(old_wal);
        self.remove_orphans(&manifest);

        let registry = conquer_obs::registry();
        registry.counter("storage.checkpoints").inc();
        registry
            .histogram("storage.checkpoint.us")
            .record(t0.elapsed().as_micros() as u64);
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("conquer-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> StoreOptions {
        StoreOptions {
            sync: SyncPolicy::Always,
        }
    }

    #[test]
    fn fresh_open_then_reopen_replays_appends() {
        let dir = temp_dir("replay");
        {
            let (store, recovered) = Store::open(&dir, opts()).unwrap();
            assert!(recovered.segments.is_empty());
            assert!(recovered.wal_records.is_empty());
            assert_eq!(store.append(1, b"create t").unwrap(), 1);
            assert_eq!(store.append(2, b"insert t 1").unwrap(), 2);
        }
        let (_store, recovered) = Store::open(&dir, opts()).unwrap();
        assert_eq!(recovered.wal_records.len(), 2);
        assert_eq!(recovered.wal_records[0].payload, b"create t");
        assert_eq!(recovered.wal_records[1].seq, 2);
        assert!(!recovered.torn_tail);
    }

    #[test]
    fn checkpoint_moves_state_into_segments_and_resets_wal() {
        let dir = temp_dir("checkpoint");
        {
            let (store, _) = Store::open(&dir, opts()).unwrap();
            store.append(1, b"create t").unwrap();
            store.append(2, b"insert t").unwrap();
            store
                .checkpoint(
                    &[("t".to_string(), b"snapshot of t".to_vec())],
                    &[("epoch".to_string(), 5)],
                )
                .unwrap();
            // Post-checkpoint appends land in the new WAL.
            store.append(2, b"insert t again").unwrap();
        }
        let (store, recovered) = Store::open(&dir, opts()).unwrap();
        assert_eq!(recovered.segments.len(), 1);
        assert_eq!(recovered.segments[0].table, "t");
        assert_eq!(recovered.segments[0].payload, b"snapshot of t");
        assert_eq!(recovered.meta, vec![("epoch".to_string(), 5)]);
        assert_eq!(recovered.wal_records.len(), 1);
        assert_eq!(recovered.wal_records[0].payload, b"insert t again");
        assert_eq!(recovered.wal_records[0].seq, 3);
        // Sequence numbers continue past the checkpoint after reopen.
        assert_eq!(store.append(1, b"next").unwrap(), 4);
        // Exactly one WAL file (the new generation) remains.
        let wals: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .collect();
        assert_eq!(wals.len(), 1);
        assert_eq!(wals[0].file_name().to_string_lossy(), "wal-1.log");
    }

    #[test]
    fn crash_between_manifest_rename_and_wal_delete_is_idempotent() {
        let dir = temp_dir("crashwindow");
        {
            let (store, _) = Store::open(&dir, opts()).unwrap();
            store.append(1, b"create t").unwrap();
            store
                .checkpoint(&[("t".to_string(), b"snap".to_vec())], &[])
                .unwrap();
        }
        // Simulate the crash window: resurrect the old WAL file with its
        // already-covered record (as if deletion never happened).
        {
            let mut w = WalWriter::open(dir.join("wal-0.log"), 0).unwrap();
            w.append(1, 1, b"create t").unwrap();
            w.sync().unwrap();
        }
        let (_store, recovered) = Store::open(&dir, opts()).unwrap();
        // The stale generation is ignored entirely and cleaned up.
        assert_eq!(recovered.wal_records.len(), 0);
        assert_eq!(recovered.segments.len(), 1);
        assert!(!dir.join("wal-0.log").exists());
    }

    #[test]
    fn leftover_manifest_tmp_and_orphan_segments_are_cleaned() {
        let dir = temp_dir("orphans");
        {
            let (store, _) = Store::open(&dir, opts()).unwrap();
            store.append(1, b"x").unwrap();
        }
        std::fs::write(dir.join(MANIFEST_TMP_NAME), b"half a manifest").unwrap();
        std::fs::write(dir.join("seg-9-0.seg"), b"unreferenced").unwrap();
        let (_store, recovered) = Store::open(&dir, opts()).unwrap();
        assert_eq!(recovered.wal_records.len(), 1);
        assert!(!dir.join(MANIFEST_TMP_NAME).exists());
        assert!(!dir.join("seg-9-0.seg").exists());
    }

    #[test]
    fn torn_tail_is_dropped_and_overwritten() {
        let dir = temp_dir("torntail");
        {
            let (store, _) = Store::open(&dir, opts()).unwrap();
            store.append(1, b"good").unwrap();
        }
        // Append garbage: a torn record.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("wal-0.log"))
                .unwrap();
            f.write_all(&[0x55, 0x66, 0x77]).unwrap();
        }
        let (store, recovered) = Store::open(&dir, opts()).unwrap();
        assert!(recovered.torn_tail);
        assert_eq!(recovered.wal_records.len(), 1);
        store.append(1, b"after-torn").unwrap();
        let (_store, recovered) = Store::open(&dir, opts()).unwrap();
        assert!(!recovered.torn_tail);
        assert_eq!(recovered.wal_records.len(), 2);
        assert_eq!(recovered.wal_records[1].payload, b"after-torn");
    }

    #[test]
    fn status_reports_progress() {
        let dir = temp_dir("status");
        let (store, _) = Store::open(&dir, opts()).unwrap();
        store.append(1, b"abc").unwrap();
        let status = store.status();
        assert_eq!(status.generation, 0);
        assert_eq!(status.last_seq, 1);
        assert!(status.wal_bytes > 8);
        store
            .checkpoint(&[("t".to_string(), vec![1, 2, 3])], &[])
            .unwrap();
        let status = store.status();
        assert_eq!(status.generation, 1);
        assert_eq!(status.segments, 1);
    }
}
