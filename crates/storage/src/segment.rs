//! Immutable checkpoint segments: one file per table snapshot, written once
//! and never modified.
//!
//! ## On-disk format
//!
//! ```text
//! file  := MAGIC len:u32 payload:[u8; len] crc:u32
//! MAGIC := "CQSEG1\0\0"                       (8 bytes)
//! ```
//!
//! `crc` is the CRC-32 of the payload, computed once on write and handed
//! back to the store for the manifest entry. The payload itself is opaque
//! to this layer — the engine encodes a table's columns into it. A segment
//! that fails its length or checksum check is rejected whole; recovery
//! treats a bad segment as fatal (unlike the WAL tail, a manifest only ever
//! points at segments that were fully written and fsynced before the
//! manifest was renamed into place, so corruption here means real damage,
//! not a crash window).

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::crc32::crc32;
use crate::fault;

pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"CQSEG1\0\0";

/// Magic plus the length prefix.
const HEADER_LEN: usize = SEGMENT_MAGIC.len() + 4;

/// Write a segment file: magic + length-prefixed payload + trailing CRC,
/// fsynced before return, and return that CRC. The payload is written
/// from the caller's buffer, never copied into a framed one. On a
/// `segment_write_torn` fault trip, a real truncated prefix is left on
/// disk so recovery faces an honest torn file.
pub(crate) fn write_segment(path: &Path, payload: &[u8]) -> io::Result<u32> {
    let mut file = File::create(path)?;
    file.write_all(SEGMENT_MAGIC)?;
    file.write_all(&(payload.len() as u32).to_le_bytes())?;
    if let Err(e) = fault::trip("segment_write_torn") {
        // Leave a deliberately torn file: the header plus half the
        // payload, no trailing checksum. Crash-matrix tests recover over
        // this.
        file.write_all(&payload[..payload.len() / 2])?;
        file.sync_all()?;
        return Err(e);
    }
    let crc = crc32(payload);
    file.write_all(payload)?;
    file.write_all(&crc.to_le_bytes())?;
    file.sync_all()?;
    Ok(crc)
}

/// Read and verify a segment file, returning its payload and the CRC it
/// was checked against. The payload is read straight into the buffer
/// returned, whose size the file's own length bounds.
pub(crate) fn read_segment(path: &Path) -> io::Result<(Vec<u8>, u32)> {
    let corrupt = || {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt segment file: {}", path.display()),
        )
    };
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut head = [0u8; HEADER_LEN];
    file.read_exact(&mut head).map_err(|_| corrupt())?;
    let (magic, len) = head.split_at(SEGMENT_MAGIC.len());
    let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as u64;
    // Trailing garbage is corruption too.
    if magic != SEGMENT_MAGIC.as_slice() || file_len != HEADER_LEN as u64 + len + 4 {
        return Err(corrupt());
    }
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload).map_err(|_| corrupt())?;
    let mut trailer = [0u8; 4];
    file.read_exact(&mut trailer).map_err(|_| corrupt())?;
    let crc = u32::from_le_bytes(trailer);
    if crc32(&payload) != crc {
        return Err(corrupt());
    }
    Ok((payload, crc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("conquer-seg-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn segment_roundtrip() {
        let path = temp_dir("roundtrip").join("seg-1-orders.seg");
        let crc = write_segment(&path, b"table payload bytes").unwrap();
        assert_eq!(crc, crc32(b"table payload bytes"));
        let (payload, read_crc) = read_segment(&path).unwrap();
        assert_eq!(payload, b"table payload bytes");
        assert_eq!(read_crc, crc);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let path = temp_dir("empty").join("seg-1-empty.seg");
        write_segment(&path, b"").unwrap();
        assert_eq!(read_segment(&path).unwrap().0, b"");
    }

    #[test]
    fn corruption_is_rejected_at_every_offset() {
        let path = temp_dir("corrupt").join("seg-1-t.seg");
        write_segment(&path, b"payload-under-test").unwrap();
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut mutated = full.clone();
            mutated[i] ^= 0x40;
            std::fs::write(&path, &mutated).unwrap();
            let err = read_segment(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // Truncations are rejected too.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(read_segment(&path).is_err());
        }
    }
}
