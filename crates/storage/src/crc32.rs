//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum that
//! guards every WAL record, segment payload, and manifest body.
//!
//! Slicing-by-16, std-only: sixteen 256-entry tables let one step fold 16
//! input bytes with sixteen independent lookups instead of sixteen
//! dependent ones. The tables are built at first use and cached in a
//! `OnceLock`, so the cost is one 16 KiB computation per process.

use std::sync::OnceLock;

type Tables = [[u32; 256]; 16];

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Box<Tables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 16]);
        for i in 0..256 {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            t[0][i] = crc;
        }
        // `t[k][i]` is the CRC of byte `i` followed by `k` zero bytes.
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 of `bytes` (IEEE, as used by zip/png/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of `a ++ bytes`, given `crc == crc32(a)`: a record framed in
/// pieces is checksummed without first being copied into one buffer.
pub(crate) fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut crc = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook loop, one byte and one lookup at a time: the oracle
    /// the sliced loop is held to.
    fn bytewise(bytes: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(n: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let buf = noise(64 + 16);
        for offset in 0..16 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset} len {len}");
            }
        }
        let big = noise(3 << 20);
        assert_eq!(crc32(&big), bytewise(&big));
    }

    #[test]
    fn extend_continues_a_crc() {
        let buf = noise(1000);
        for cut in [0, 1, 15, 16, 17, 500, 999, 1000] {
            let (a, b) = buf.split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), crc32(&buf), "cut {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = crc32(b"conquer-storage");
        let mut corrupted = b"conquer-storage".to_vec();
        corrupted[3] ^= 0x01;
        assert_ne!(base, crc32(&corrupted));
    }
}
