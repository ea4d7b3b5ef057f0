//! The write-ahead log: an append-only file of length-prefixed, CRC-guarded
//! records, plus the torn-tail-tolerant reader recovery replays.
//!
//! ## On-disk format
//!
//! ```text
//! file   := MAGIC record*
//! MAGIC  := "CQWAL1\0\0"                      (8 bytes)
//! record := len:u32 crc:u32 seq:u64 kind:u8 body:[u8; len-9]
//! ```
//!
//! All integers are little-endian. `len` counts the `seq`/`kind`/`body`
//! bytes; `crc` is the CRC-32 of exactly those bytes, so a record is either
//! wholly valid or wholly rejected — replay can never observe half a
//! mutation. `seq` is a store-wide monotonically increasing sequence number
//! that survives WAL rotation (checkpoints record the last sequence they
//! cover, and replay skips anything at or below it).
//!
//! ## Torn tails
//!
//! [`scan_wal`] stops at the first truncated or checksum-failing record and
//! reports how many bytes of the file were valid. A crash mid-append
//! (partial length prefix, partial body, garbage past a power cut) loses at
//! most that final unsynced record; the writer truncates the file back to
//! the valid length before appending again, so torn bytes never sit in the
//! middle of a live log.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::crc32::{crc32, crc32_extend};
use crate::fault;

pub(crate) const WAL_MAGIC: &[u8; 8] = b"CQWAL1\0\0";

/// Upper bound on a single record body; anything larger in a length prefix
/// is treated as corruption (stops replay) rather than attempted.
const MAX_RECORD_LEN: u64 = 1 << 31;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Store-wide sequence number (never reused across rotations).
    pub seq: u64,
    /// Application-defined record type tag.
    pub kind: u8,
    /// Application-defined payload.
    pub payload: Vec<u8>,
}

/// Result of scanning one WAL file: the valid records in order, and the
/// byte length of the valid prefix (where appending may safely resume).
pub(crate) struct WalScan {
    pub records: Vec<WalRecord>,
    pub valid_len: u64,
    /// Whether the scan stopped early on a bad record (torn or corrupt
    /// tail) rather than a clean end-of-file.
    pub torn: bool,
}

/// Read every valid record of a WAL file, stopping (never panicking) at the
/// first torn or corrupt record. A missing file reads as empty.
pub(crate) fn scan_wal(path: &Path) -> io::Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() {
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            torn: false,
        });
    }
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // Unrecognized header: treat the whole file as a torn write.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            torn: true,
        });
    }
    let mut records = Vec::new();
    let mut at = WAL_MAGIC.len();
    let mut last_seq = 0u64;
    loop {
        let Some(header) = bytes.get(at..at + 8) else {
            // Clean EOF or a partial length/crc prefix: stop here.
            return Ok(WalScan {
                torn: at != bytes.len(),
                records,
                valid_len: at as u64,
            });
        };
        let len = u64::from(u32::from_le_bytes([
            header[0], header[1], header[2], header[3],
        ]));
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if !(9..=MAX_RECORD_LEN).contains(&len) {
            return Ok(WalScan {
                records,
                valid_len: at as u64,
                torn: true,
            });
        }
        let body_end = at + 8 + len as usize;
        let Some(framed) = bytes.get(at + 8..body_end) else {
            // Truncated mid-record: the torn tail.
            return Ok(WalScan {
                records,
                valid_len: at as u64,
                torn: true,
            });
        };
        if crc32(framed) != crc {
            return Ok(WalScan {
                records,
                valid_len: at as u64,
                torn: true,
            });
        }
        let seq = u64::from_le_bytes([
            framed[0], framed[1], framed[2], framed[3], framed[4], framed[5], framed[6], framed[7],
        ]);
        if seq <= last_seq {
            // Sequence numbers are strictly increasing within a file; a
            // regression means stale bytes from a recycled file.
            return Ok(WalScan {
                records,
                valid_len: at as u64,
                torn: true,
            });
        }
        last_seq = seq;
        records.push(WalRecord {
            seq,
            kind: framed[8],
            payload: framed[9..].to_vec(),
        });
        at = body_end;
    }
}

/// The append half of the WAL: owns the active file handle and the sync
/// policy bookkeeping. Callers serialize appends externally (the store
/// keeps this behind a mutex).
pub(crate) struct WalWriter {
    path: PathBuf,
    file: File,
    /// Bytes in the file (valid prefix at open, grows with appends).
    len: u64,
    /// Bytes appended since the last successful fsync.
    unsynced: u64,
    last_sync: Instant,
}

impl WalWriter {
    /// Open (or create) the WAL at `path` for appending, truncating any
    /// torn tail back to `valid_len` first.
    pub fn open(path: PathBuf, valid_len: u64) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut len = valid_len;
        if len == 0 {
            file.set_len(0)?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
            len = WAL_MAGIC.len() as u64;
        } else {
            // Drop any torn tail so appends resume on a record boundary.
            file.set_len(len)?;
        }
        file.seek(SeekFrom::Start(len))?;
        Ok(WalWriter {
            path,
            file,
            len,
            unsynced: 0,
            last_sync: Instant::now(),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn unsynced_bytes(&self) -> u64 {
        self.unsynced
    }

    /// Append one record (framed and CRC-stamped here) and return the
    /// bytes written. The payload goes to the file from the caller's
    /// buffer, after a 17-byte header; the caller decides when to
    /// [`sync`](WalWriter::sync).
    pub fn append(&mut self, seq: u64, kind: u8, payload: &[u8]) -> io::Result<u64> {
        fault::trip("wal_append_io")?;
        let len = 9 + payload.len();
        let mut header = [0u8; 17];
        header[..4].copy_from_slice(&(len as u32).to_le_bytes());
        header[8..16].copy_from_slice(&seq.to_le_bytes());
        header[16] = kind;
        let crc = crc32_extend(crc32(&header[8..]), payload);
        header[4..8].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&header)?;
        self.file.write_all(payload)?;
        let written = (header.len() + payload.len()) as u64;
        self.len += written;
        self.unsynced += written;
        Ok(written)
    }

    /// fsync the file, recording the fsync latency in the obs registry.
    pub fn sync(&mut self) -> io::Result<()> {
        fault::trip("wal_sync_fail")?;
        if self.unsynced == 0 {
            return Ok(());
        }
        let t0 = Instant::now();
        self.file.sync_data()?;
        conquer_obs::registry()
            .histogram("storage.wal.fsync.us")
            .record(t0.elapsed().as_micros() as u64);
        conquer_obs::registry().counter("storage.wal.syncs").inc();
        self.unsynced = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Cut the file back to `len` bytes, a record boundary at or below the
    /// current length: the store's undo of an append whose fsync failed.
    pub fn truncate(&mut self, len: u64) -> io::Result<()> {
        fault::trip("wal_truncate_fail")?;
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.unsynced = self.unsynced.saturating_sub(self.len - len);
        self.len = len;
        Ok(())
    }

    /// Milliseconds since the last successful fsync (for interval sync).
    pub fn millis_since_sync(&self) -> u128 {
        self.last_sync.elapsed().as_millis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("conquer-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal-0.log")
    }

    #[test]
    fn append_and_scan_roundtrip() {
        let path = temp_path("roundtrip");
        let mut w = WalWriter::open(path.clone(), 0).unwrap();
        w.append(1, 7, b"hello").unwrap();
        w.append(2, 9, b"").unwrap();
        w.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].seq, 1);
        assert_eq!(scan.records[0].kind, 7);
        assert_eq!(scan.records[0].payload, b"hello");
        assert_eq!(scan.records[1].seq, 2);
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_stops_cleanly_at_every_truncation() {
        let path = temp_path("torn");
        let mut w = WalWriter::open(path.clone(), 0).unwrap();
        w.append(1, 1, b"first-record").unwrap();
        w.append(2, 1, b"second-record").unwrap();
        w.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&path).unwrap();
            // Only complete records survive, in prefix order.
            assert!(scan.records.len() <= 2);
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r.seq, i as u64 + 1);
            }
            assert!(scan.valid_len <= cut as u64);
        }
    }

    #[test]
    fn corrupt_byte_never_yields_a_partial_record() {
        let path = temp_path("corrupt");
        let mut w = WalWriter::open(path.clone(), 0).unwrap();
        w.append(1, 1, b"first-record").unwrap();
        w.append(2, 1, b"second-record").unwrap();
        w.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut mutated = full.clone();
            mutated[i] ^= 0xFF;
            std::fs::write(&path, &mutated).unwrap();
            let scan = scan_wal(&path).unwrap();
            for r in &scan.records {
                // Any surviving record must be byte-identical to an original.
                assert!(r.payload == b"first-record" || r.payload == b"second-record");
            }
        }
    }

    #[test]
    fn reopen_truncates_torn_tail_and_appends() {
        let path = temp_path("reopen");
        let mut w = WalWriter::open(path.clone(), 0).unwrap();
        w.append(1, 1, b"keep").unwrap();
        w.sync().unwrap();
        drop(w);
        // Simulate a torn append.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x17, 0x00, 0x00]);
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.torn);
        let mut w = WalWriter::open(path.clone(), scan.valid_len).unwrap();
        w.append(2, 1, b"after").unwrap();
        w.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].payload, b"after");
    }
}
