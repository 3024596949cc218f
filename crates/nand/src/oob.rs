//! Out-of-band (OOB) area layout for the embedding–document linkage.
//!
//! Every flash page carries a spare OOB area (e.g. 2208 bytes for a 16 KB
//! page) normally reserved for ECC parity and mapping metadata. REIS
//! repurposes a small slice of it (Sec. 4.1.3 and 4.2.1): for every
//! embedding stored in the page it records the address of the associated
//! document chunk (DADR), the address of the INT8 copy of the embedding used
//! for reranking (RADR), and the 8-bit tag of the IVF cluster the embedding
//! belongs to. Because the OOB bytes are sensed together with the page, the
//! linkage is available in the page buffer the moment the distance
//! computation finishes — no separate lookup structure is needed.

use serde::{Deserialize, Serialize};

use crate::error::{NandError, Result};

/// Linkage metadata for one embedding, stored in the OOB area of the page
/// that holds the embedding.
///
/// # Examples
///
/// ```
/// use reis_nand::oob::OobEntry;
///
/// let entry = OobEntry { dadr: 0xDEAD_BEEF, radr: 0x1234_5678, tag: 42 };
/// let bytes = entry.to_bytes();
/// assert_eq!(OobEntry::from_bytes(&bytes), entry);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct OobEntry {
    /// Document address: the index of the document chunk associated with
    /// this embedding (interpreted by the SSD layer as a sub-page index in
    /// the document region).
    pub dadr: u32,
    /// Rescoring address: the index of the INT8 copy of this embedding in the
    /// INT8 sub-region, used by the reranking kernel.
    pub radr: u32,
    /// 8-bit cluster tag identifying the IVF cluster this embedding belongs
    /// to (or, on a centroid page, the tag of the cluster the centroid
    /// represents).
    pub tag: u8,
}

impl OobEntry {
    /// Serialized size of one entry in bytes.
    pub const SIZE: usize = 9;

    /// Serialize the entry to its on-flash byte representation
    /// (little-endian fields, DADR then RADR then TAG).
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut out = [0u8; Self::SIZE];
        out[0..4].copy_from_slice(&self.dadr.to_le_bytes());
        out[4..8].copy_from_slice(&self.radr.to_le_bytes());
        out[8] = self.tag;
        out
    }

    /// Deserialize an entry from its on-flash byte representation.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than [`OobEntry::SIZE`].
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() >= Self::SIZE,
            "OOB entry needs {} bytes",
            Self::SIZE
        );
        OobEntry {
            dadr: u32::from_le_bytes(bytes[0..4].try_into().expect("slice length checked")),
            radr: u32::from_le_bytes(bytes[4..8].try_into().expect("slice length checked")),
            tag: bytes[8],
        }
    }
}

/// Describes how linkage entries are packed into the OOB area of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OobLayout {
    /// Total OOB bytes available per page.
    pub oob_size_bytes: usize,
    /// Number of embeddings (mini-pages) stored in each page, i.e. the
    /// number of linkage entries that must fit.
    pub entries_per_page: usize,
}

impl OobLayout {
    /// Create a layout and verify that the entries fit in the OOB area.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::OobTooLarge`] if `entries_per_page` linkage
    /// entries do not fit into `oob_size_bytes`.
    pub fn new(oob_size_bytes: usize, entries_per_page: usize) -> Result<Self> {
        let needed = entries_per_page * OobEntry::SIZE;
        if needed > oob_size_bytes {
            return Err(NandError::OobTooLarge {
                provided: needed,
                capacity: oob_size_bytes,
            });
        }
        Ok(OobLayout {
            oob_size_bytes,
            entries_per_page,
        })
    }

    /// Bytes of the OOB area consumed by linkage entries.
    pub fn used_bytes(&self) -> usize {
        self.entries_per_page * OobEntry::SIZE
    }

    /// Pack linkage entries into a freshly allocated OOB buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::OobTooLarge`] if more entries are provided than
    /// the layout was created for.
    pub fn pack(&self, entries: &[OobEntry]) -> Result<Vec<u8>> {
        if entries.len() > self.entries_per_page {
            return Err(NandError::OobTooLarge {
                provided: entries.len() * OobEntry::SIZE,
                capacity: self.entries_per_page * OobEntry::SIZE,
            });
        }
        let mut out = vec![0u8; self.oob_size_bytes];
        for (i, entry) in entries.iter().enumerate() {
            let start = i * OobEntry::SIZE;
            out[start..start + OobEntry::SIZE].copy_from_slice(&entry.to_bytes());
        }
        Ok(out)
    }

    /// Unpack all linkage entries from an OOB buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::OobTooLarge`] if the buffer is smaller than the
    /// layout's OOB size.
    pub fn unpack(&self, oob: &[u8]) -> Result<Vec<OobEntry>> {
        if oob.len() < self.used_bytes() {
            return Err(NandError::OobTooLarge {
                provided: self.used_bytes(),
                capacity: oob.len(),
            });
        }
        Ok((0..self.entries_per_page)
            .map(|i| OobEntry::from_bytes(&oob[i * OobEntry::SIZE..]))
            .collect())
    }

    /// Unpack the linkage entry for a single mini-page offset.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::MiniPageOutOfRange`] if `offset` exceeds the
    /// number of entries per page, or [`NandError::OobTooLarge`] if the
    /// buffer is too small.
    pub fn unpack_entry(&self, oob: &[u8], offset: usize) -> Result<OobEntry> {
        if offset >= self.entries_per_page {
            return Err(NandError::MiniPageOutOfRange {
                offset,
                limit: self.entries_per_page,
            });
        }
        let start = offset * OobEntry::SIZE;
        if oob.len() < start + OobEntry::SIZE {
            return Err(NandError::OobTooLarge {
                provided: start + OobEntry::SIZE,
                capacity: oob.len(),
            });
        }
        Ok(OobEntry::from_bytes(&oob[start..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_roundtrip() {
        let entry = OobEntry {
            dadr: 123_456,
            radr: u32::MAX,
            tag: 7,
        };
        assert_eq!(OobEntry::from_bytes(&entry.to_bytes()), entry);
    }

    #[test]
    fn layout_packs_and_unpacks_entries() {
        let layout = OobLayout::new(2208, 128).unwrap();
        let entries: Vec<OobEntry> = (0..128)
            .map(|i| OobEntry {
                dadr: i,
                radr: i * 2,
                tag: (i % 256) as u8,
            })
            .collect();
        let oob = layout.pack(&entries).unwrap();
        assert_eq!(oob.len(), 2208);
        let unpacked = layout.unpack(&oob).unwrap();
        assert_eq!(unpacked, entries);
        assert_eq!(layout.unpack_entry(&oob, 17).unwrap(), entries[17]);
    }

    #[test]
    fn layout_rejects_oversized_configurations() {
        // 9 bytes/entry x 300 entries = 2700 bytes > 2208-byte OOB.
        assert!(matches!(
            OobLayout::new(2208, 300),
            Err(NandError::OobTooLarge { .. })
        ));
    }

    #[test]
    fn pack_rejects_too_many_entries() {
        let layout = OobLayout::new(256, 8).unwrap();
        let entries = vec![OobEntry::default(); 9];
        assert!(layout.pack(&entries).is_err());
    }

    #[test]
    fn unpack_entry_checks_offset() {
        let layout = OobLayout::new(256, 8).unwrap();
        let oob = layout.pack(&[OobEntry::default(); 8]).unwrap();
        assert!(matches!(
            layout.unpack_entry(&oob, 8),
            Err(NandError::MiniPageOutOfRange {
                offset: 8,
                limit: 8
            })
        ));
    }

    #[test]
    fn overhead_fraction_is_small_for_reference_layout() {
        // 128 binary 1024-d embeddings per 16 KB page (Sec. 4.3.2).
        let layout = OobLayout::new(2208, 128).unwrap();
        assert!((layout.used_bytes() as f64 / layout.oob_size_bytes as f64) < 0.6);
        assert_eq!(layout.used_bytes(), 128 * 9);
    }
}
