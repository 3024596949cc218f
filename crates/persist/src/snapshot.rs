//! The offset-addressed snapshot container.
//!
//! A snapshot is one file with a fixed superblock followed by raw section
//! payloads:
//!
//! ```text
//! offset 0   magic            8 bytes   "REISSNP1" (version-bearing magic)
//!        8   format version   u32       SNAPSHOT_VERSION
//!       12   section count    u32       N
//!       16   directory        N × 24    (id u32, offset u64, len u64, crc32c u32)
//!  16+24N    superblock CRC   u32       crc32c of bytes [0, 16+24N)
//!  20+24N    section payloads           at their directory offsets, in id order
//! ```
//!
//! All integers little-endian. Section ids are opaque to this module —
//! `reis-core` encodes its meaning (meta, per-database quantizers,
//! centroids, entries, layout) into them. The directory and every payload
//! carry independent CRC32C checksums, so [`SnapshotReader::parse`] can
//! pinpoint *what* rotted: a bad superblock, a bad directory, or one bad
//! section. Offsets make sections independently addressable — a reader
//! never scans past data it does not understand.

use reis_kernels::crc32c;

use crate::error::{PersistError, Result};
use crate::wire::{ByteReader, ByteWriter};

/// The version-bearing magic of a snapshot file. The trailing digit is the
/// major format version: readers reject both a foreign magic and a known
/// magic with an incompatible [`SNAPSHOT_VERSION`].
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"REISSNP1";

/// Newest snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Bytes of one directory entry: id + offset + len + crc.
const DIR_ENTRY_BYTES: usize = 4 + 8 + 8 + 4;

/// Accumulates sections, then emits the complete snapshot file.
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// A builder with no sections.
    pub fn new() -> Self {
        SnapshotBuilder::default()
    }

    /// Add a section. Ids must be unique; sections are laid out in the
    /// order added, so deterministic callers produce byte-identical files.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate id (a writer bug, not a runtime condition).
    pub fn add_section(&mut self, id: u32, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "duplicate snapshot section id {id:#x}"
        );
        self.sections.push((id, payload));
    }

    /// Emit the snapshot file bytes.
    pub fn finish(self) -> Vec<u8> {
        let header_len = 8 + 4 + 4 + self.sections.len() * DIR_ENTRY_BYTES;
        let mut offset = (header_len + 4) as u64; // + superblock CRC
        let mut header = ByteWriter::new();
        header.put_raw(&SNAPSHOT_MAGIC);
        header.put_u32(SNAPSHOT_VERSION);
        header.put_u32(self.sections.len() as u32);
        for (id, payload) in &self.sections {
            header.put_u32(*id);
            header.put_u64(offset);
            header.put_u64(payload.len() as u64);
            header.put_u32(crc32c(payload));
            offset += payload.len() as u64;
        }
        let mut bytes = header.into_bytes();
        debug_assert_eq!(bytes.len(), header_len);
        let superblock_crc = crc32c(&bytes);
        bytes.extend_from_slice(&superblock_crc.to_le_bytes());
        for (_, payload) in self.sections {
            bytes.extend_from_slice(&payload);
        }
        bytes
    }
}

/// A parsed, fully validated snapshot: magic, version, superblock CRC and
/// every section CRC checked up front, so accessors are infallible.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    /// (id, offset, len) per section, in file order.
    directory: Vec<(u32, usize, usize)>,
}

impl<'a> SnapshotReader<'a> {
    /// Parse and validate `bytes` as a snapshot file. `file` names the
    /// source in errors.
    pub fn parse(bytes: &'a [u8], file: &str) -> Result<Self> {
        let corrupt = |detail: String| PersistError::CorruptSnapshot {
            file: file.to_string(),
            detail,
        };
        if bytes.len() < 8 + 4 + 4 + 4 {
            return Err(corrupt(format!(
                "{} bytes is shorter than the minimal superblock",
                bytes.len()
            )));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(corrupt(format!(
                "bad magic {:02x?} (expected {:02x?})",
                &bytes[..8],
                SNAPSHOT_MAGIC
            )));
        }
        let mut reader = ByteReader::new(&bytes[8..]);
        let version = reader.get_u32().expect("length checked");
        if version != SNAPSHOT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                file: file.to_string(),
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let count = reader.get_u32().expect("length checked") as usize;
        let header_len = 8 + 4 + 4 + count * DIR_ENTRY_BYTES;
        if bytes.len() < header_len + 4 {
            return Err(corrupt(format!(
                "directory of {count} sections does not fit {} bytes",
                bytes.len()
            )));
        }
        let mut directory = Vec::with_capacity(count);
        let mut crcs = Vec::with_capacity(count);
        for _ in 0..count {
            let id = reader.get_u32().expect("length checked");
            let offset = reader.get_u64().expect("length checked") as usize;
            let len = reader.get_u64().expect("length checked") as usize;
            let crc = reader.get_u32().expect("length checked");
            directory.push((id, offset, len));
            crcs.push(crc);
        }
        let stored_superblock_crc = u32::from_le_bytes(
            bytes[header_len..header_len + 4]
                .try_into()
                .expect("4 bytes"),
        );
        let actual = crc32c(&bytes[..header_len]);
        if stored_superblock_crc != actual {
            return Err(corrupt(format!(
                "superblock checksum mismatch (stored {stored_superblock_crc:#010x}, \
                 computed {actual:#010x})"
            )));
        }
        for (&(id, offset, len), &stored) in directory.iter().zip(&crcs) {
            let end = offset.checked_add(len).filter(|&end| end <= bytes.len());
            let Some(end) = end else {
                return Err(corrupt(format!(
                    "section {id:#x} [{offset}, +{len}) runs past the {}-byte file",
                    bytes.len()
                )));
            };
            let actual = crc32c(&bytes[offset..end]);
            if actual != stored {
                return Err(corrupt(format!(
                    "section {id:#x} checksum mismatch (stored {stored:#010x}, \
                     computed {actual:#010x})"
                )));
            }
        }
        Ok(SnapshotReader { bytes, directory })
    }

    /// The payload of section `id`, if present.
    pub fn section(&self, id: u32) -> Option<&'a [u8]> {
        self.directory
            .iter()
            .find(|(existing, _, _)| *existing == id)
            .map(|&(_, offset, len)| &self.bytes[offset..offset + len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut builder = SnapshotBuilder::new();
        builder.add_section(0x01, b"meta payload".to_vec());
        builder.add_section(0x0102, vec![0u8; 64]);
        builder.add_section(0x0103, (0u8..=255).collect());
        builder.finish()
    }

    #[test]
    fn round_trips_sections_by_id() {
        let bytes = sample();
        let snap = SnapshotReader::parse(&bytes, "snap").unwrap();
        let ids: Vec<u32> = snap.directory.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(ids, vec![0x01, 0x0102, 0x0103], "file order");
        assert_eq!(snap.section(0x01).unwrap(), b"meta payload");
        assert_eq!(snap.section(0x0102).unwrap(), &[0u8; 64]);
        assert_eq!(snap.section(0x0103).unwrap().len(), 256);
        assert!(snap.section(0x99).is_none());
    }

    #[test]
    fn building_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn rejects_foreign_magic_and_unknown_version() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotReader::parse(&bytes, "snap"),
            Err(PersistError::CorruptSnapshot { .. })
        ));

        let mut bytes = sample();
        bytes[8] = 99; // version field
        assert!(matches!(
            SnapshotReader::parse(&bytes, "snap"),
            Err(PersistError::UnsupportedVersion {
                found: 99,
                supported: SNAPSHOT_VERSION,
                ..
            })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let clean = sample();
        for offset in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x40;
            assert!(
                SnapshotReader::parse(&bytes, "snap").is_err(),
                "flip at byte {offset} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_caught() {
        let clean = sample();
        for len in 0..clean.len() {
            assert!(
                SnapshotReader::parse(&clean[..len], "snap").is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let bytes = SnapshotBuilder::new().finish();
        let snap = SnapshotReader::parse(&bytes, "snap").unwrap();
        assert!(snap.directory.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section id")]
    fn duplicate_section_ids_are_a_writer_bug() {
        let mut builder = SnapshotBuilder::new();
        builder.add_section(7, vec![]);
        builder.add_section(7, vec![]);
    }
}
