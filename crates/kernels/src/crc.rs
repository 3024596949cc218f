//! CRC32C (Castagnoli) bodies: the SSE4.2 `crc32` instruction where the CPU
//! has it, slicing-by-8 tables elsewhere. Both work on the raw (inverted)
//! register; [`extend`] applies the inversions.

use crate::isa::{Isa, Level};

/// Reflected form of the Castagnoli polynomial `0x1EDC6F41`.
pub(crate) const POLY_REFLECTED: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables, built at compile time: `TABLES[0]` is the
/// classic byte-at-a-time table and `TABLES[k][b]` the register after byte
/// `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY_REFLECTED
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let previous = tables[k - 1][i];
            tables[k][i] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Portable body: eight bytes per step through the eight tables, then a
/// byte-at-a-time tail.
fn extend_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, rest) = bytes.as_chunks::<8>();
    for word in words {
        let low = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        crc = TABLES[7][(low & 0xFF) as usize]
            ^ TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][word[4] as usize]
            ^ TABLES[2][word[5] as usize]
            ^ TABLES[1][word[6] as usize]
            ^ TABLES[0][word[7] as usize];
    }
    for &byte in rest {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// Hardware body: the `crc32` instruction over `u64` words, then bytes.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn extend_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, rest) = bytes.as_chunks::<8>();
    let mut wide = u64::from(crc);
    for word in words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(*word));
    }
    // The instruction leaves the upper half of its 64-bit result zero.
    let mut crc = wide as u32;
    for &byte in rest {
        crc = _mm_crc32_u8(crc, byte);
    }
    crc
}

/// Fold `bytes` into the finalized checksum `state` with the body of `isa`.
#[inline]
pub(crate) fn extend(isa: Isa, state: u32, bytes: &[u8]) -> u32 {
    let crc = !state;
    let crc = match isa.level() {
        Level::Portable => extend_tables(crc, bytes),
        // SAFETY: every level above `Portable` includes SSE4.2, and an `Isa`
        // of such a level exists only after `Isa::detect` saw
        // `is_x86_feature_detected!("sse4.2")` hold.
        #[cfg(target_arch = "x86_64")]
        Level::Sse42 | Level::Avx2 | Level::Avx512 => unsafe { extend_sse42(crc, bytes) },
    };
    !crc
}
