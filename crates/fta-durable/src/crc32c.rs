//! Software CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected).
//!
//! The WAL and snapshot formats checksum every payload with CRC32C — the
//! same polynomial iSCSI, ext4 and SpacetimeDB's commitlog use — because
//! it detects the failure modes a torn write actually produces (trailing
//! zero fill, truncation mid-frame) far better than a sum. Hardware SSE4.2
//! `crc32` would be faster but needs `unsafe` intrinsics. A journaled
//! simulated day writes round frames of a few hundred KiB, so the checksum
//! is a visible share of journaling: the slice-by-8 tables below fold
//! eight bytes per step, about 4× the throughput of one table lookup per
//! byte, with identical checksums.

/// Slice-by-8 lookup tables for the reflected Castagnoli poly: `T[0]` is
/// the classic byte table, and `T[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0x82F6_3B78; // 0x1EDC6F41 bit-reflected
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC32C of `data` (init `!0`, final xor `!0` — the standard reflected
/// convention, matching the `crc32c` crate and RFC 3720 test vectors).
pub fn crc32c(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::{crc32c, TABLES};
    use proptest::prelude::*;

    /// The one-lookup-per-byte loop the slice-by-8 kernel must agree with.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    /// RFC 3720 appendix B.4 test vectors.
    #[test]
    fn rfc3720_vectors() {
        for crc in [crc32c, crc32c_bytewise] {
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA);
            assert_eq!(crc(&[0xFFu8; 32]), 0x62A8_AB43);
            let ascending: Vec<u8> = (0u8..32).collect();
            assert_eq!(crc(&ascending), 0x46DD_794E);
            let descending: Vec<u8> = (0u8..32).rev().collect();
            assert_eq!(crc(&descending), 0x113F_DB5C);
        }
    }

    #[test]
    fn classic_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut buf = vec![0x5Au8; 97];
        let clean = crc32c(&buf);
        for i in 0..buf.len() {
            buf[i] ^= 0x01;
            assert_ne!(crc32c(&buf), clean, "flip at byte {i} undetected");
            buf[i] ^= 0x01;
        }
    }

    proptest! {
        /// Slice-by-8 equals the byte-wise loop for every length and for
        /// every alignment of the slice start.
        #[test]
        fn slice_by_8_matches_bytewise(
            bytes in prop::collection::vec(0u8..=255, 4_104..4_105),
            len in 0usize..=4_096,
            offset in 0usize..8,
        ) {
            let data = &bytes[offset..offset + len];
            prop_assert_eq!(crc32c(data), crc32c_bytewise(data));
        }
    }
}
