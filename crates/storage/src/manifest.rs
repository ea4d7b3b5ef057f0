//! The manifest: the single small file that names which segments and which
//! WAL generation constitute the database. It is the source of truth —
//! a segment or WAL file not referenced by the manifest does not exist as
//! far as recovery is concerned.
//!
//! ## On-disk format
//!
//! ```text
//! file    := MAGIC body crc:u32
//! MAGIC   := "CQMAN1\0\0"                     (8 bytes)
//! body    := generation:u64 covered_seq:u64
//!            n_meta:u32 (key:str val:u64)*
//!            n_segments:u32 segment*
//! segment := file:str table:str len:u64 crc:u32
//! str     := len:u32 bytes:[u8; len]          (UTF-8)
//! ```
//!
//! `crc` is the CRC-32 of the body. The manifest is written to
//! `MANIFEST.tmp`, fsynced, then atomically renamed over `MANIFEST`, and
//! the directory is fsynced — a crash at any point leaves either the old
//! manifest or the new one, never a mix.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use crate::crc32::crc32;
use crate::fault;

pub(crate) const MANIFEST_MAGIC: &[u8; 8] = b"CQMAN1\0\0";
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";
pub(crate) const MANIFEST_TMP_NAME: &str = "MANIFEST.tmp";

/// One segment reference in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentEntry {
    /// File name inside the data directory (e.g. `seg-3-orders.seg`).
    pub file: String,
    /// Table the segment snapshots.
    pub table: String,
    /// Expected payload length, cross-checked on read.
    pub len: u64,
    /// Expected payload CRC-32, cross-checked on read.
    pub crc: u32,
}

/// Decoded manifest contents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Manifest {
    /// Checkpoint generation; names the active WAL file `wal-<gen>.log`.
    pub generation: u64,
    /// WAL records with `seq <= covered_seq` are already inside the
    /// segments; replay skips them. This is what makes a crash between
    /// manifest rename and WAL truncation harmless.
    pub covered_seq: u64,
    /// Application metadata (the engine stores its catalog epoch here).
    pub meta: Vec<(String, u64)>,
    pub segments: Vec<SegmentEntry>,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn encode(manifest: &Manifest) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&manifest.generation.to_le_bytes());
    body.extend_from_slice(&manifest.covered_seq.to_le_bytes());
    body.extend_from_slice(&(manifest.meta.len() as u32).to_le_bytes());
    for (key, val) in &manifest.meta {
        put_str(&mut body, key);
        body.extend_from_slice(&val.to_le_bytes());
    }
    body.extend_from_slice(&(manifest.segments.len() as u32).to_le_bytes());
    for seg in &manifest.segments {
        put_str(&mut body, &seg.file);
        put_str(&mut body, &seg.table);
        body.extend_from_slice(&seg.len.to_le_bytes());
        body.extend_from_slice(&seg.crc.to_le_bytes());
    }
    let mut out = Vec::with_capacity(MANIFEST_MAGIC.len() + body.len() + 4);
    out.extend_from_slice(MANIFEST_MAGIC);
    let crc = crc32(&body);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A tiny cursor over the manifest body; every read is bounds-checked so a
/// corrupt file can never panic the process.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

fn decode(bytes: &[u8]) -> Option<Manifest> {
    let rest = bytes.strip_prefix(MANIFEST_MAGIC.as_slice())?;
    if rest.len() < 4 {
        return None;
    }
    let (body, crc_bytes) = rest.split_at(rest.len() - 4);
    let crc = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != crc {
        return None;
    }
    let mut cur = Cursor { bytes: body, at: 0 };
    let generation = cur.u64()?;
    let covered_seq = cur.u64()?;
    let n_meta = cur.u32()?;
    let mut meta = Vec::new();
    for _ in 0..n_meta {
        let key = cur.str()?;
        let val = cur.u64()?;
        meta.push((key, val));
    }
    let n_segments = cur.u32()?;
    let mut segments = Vec::new();
    for _ in 0..n_segments {
        let file = cur.str()?;
        let table = cur.str()?;
        let len = cur.u64()?;
        let crc = cur.u32()?;
        segments.push(SegmentEntry {
            file,
            table,
            len,
            crc,
        });
    }
    if cur.at != body.len() {
        return None; // trailing bytes that the CRC somehow blessed
    }
    Some(Manifest {
        generation,
        covered_seq,
        meta,
        segments,
    })
}

/// Load the manifest from `dir`, or `None` when the directory is fresh.
/// A corrupt manifest is an error, not a silent empty database.
pub(crate) fn load_manifest(dir: &Path) -> io::Result<Option<Manifest>> {
    let path = dir.join(MANIFEST_NAME);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    match decode(&bytes) {
        Some(m) => Ok(Some(m)),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt manifest: {}", path.display()),
        )),
    }
}

/// Durably install a new manifest: write `MANIFEST.tmp`, fsync it, rename
/// over `MANIFEST`, fsync the directory. The `manifest_rename_fail` fault
/// point fires between the tmp write and the rename — the crash window the
/// atomic rename exists to close.
pub(crate) fn store_manifest(dir: &Path, manifest: &Manifest) -> io::Result<()> {
    let tmp = dir.join(MANIFEST_TMP_NAME);
    let bytes = encode(manifest);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    fault::trip("manifest_rename_fail")?;
    std::fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
    sync_dir(dir)?;
    Ok(())
}

/// fsync a directory so a rename within it is durable. Best-effort on
/// platforms where directories cannot be opened for sync.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(handle) => handle.sync_all(),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("conquer-man-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Manifest {
        Manifest {
            generation: 7,
            covered_seq: 42,
            meta: vec![("catalog_epoch".into(), 13), ("unknown_key".into(), 9)],
            segments: vec![
                SegmentEntry {
                    file: "seg-7-orders.seg".into(),
                    table: "orders".into(),
                    len: 1024,
                    crc: 0xDEAD_BEEF,
                },
                SegmentEntry {
                    file: "seg-7-lineitem.seg".into(),
                    table: "lineitem".into(),
                    len: 0,
                    crc: 0,
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let dir = temp_dir("roundtrip");
        let m = sample();
        store_manifest(&dir, &m).unwrap();
        assert_eq!(load_manifest(&dir).unwrap(), Some(m));
        // The tmp file must be gone after the rename.
        assert!(!dir.join(MANIFEST_TMP_NAME).exists());
    }

    #[test]
    fn missing_manifest_is_none() {
        let dir = temp_dir("missing");
        assert_eq!(load_manifest(&dir).unwrap(), None);
    }

    #[test]
    fn corrupt_manifest_is_an_error_never_a_panic() {
        let dir = temp_dir("corrupt");
        store_manifest(&dir, &sample()).unwrap();
        let full = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
        for i in 0..full.len() {
            let mut mutated = full.clone();
            mutated[i] ^= 0x10;
            std::fs::write(dir.join(MANIFEST_NAME), &mutated).unwrap();
            assert!(load_manifest(&dir).is_err());
        }
        for cut in 0..full.len() {
            std::fs::write(dir.join(MANIFEST_NAME), &full[..cut]).unwrap();
            assert!(load_manifest(&dir).is_err());
        }
    }

    #[test]
    fn overwrite_replaces_previous_generation() {
        let dir = temp_dir("overwrite");
        let mut m = sample();
        store_manifest(&dir, &m).unwrap();
        m.generation = 8;
        m.covered_seq = 99;
        m.segments.clear();
        store_manifest(&dir, &m).unwrap();
        assert_eq!(load_manifest(&dir).unwrap(), Some(m));
    }
}
