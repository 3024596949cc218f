//! Flash Translation Layer: REIS's coarse-grained region mapping (the R-DB
//! record).
//!
//! A conventional page-level FTL needs roughly 1 GB of mapping table per TB
//! of flash — DRAM that REIS would rather spend on the Temporal Top Lists.
//! Because a deployed vector database occupies two physically contiguous
//! regions, REIS replaces the per-page map with a 21-byte record per database
//! (start/end of the embedding and document regions plus the database id) and
//! computes each next address by incrementing the previous one (Sec. 4.1.4).

use serde::{Deserialize, Serialize};

use crate::allocator::StripedRegion;
use crate::error::{Result, SsdError};

/// Bytes of DRAM one coarse-grained database record occupies (the paper
/// quotes 21 bytes: a 1-byte id plus first/last addresses of both regions).
pub const COARSE_RECORD_BYTES: usize = 21;

/// The record REIS keeps per deployed database: where its regions live and
/// how many entries it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatabaseRecord {
    /// Database identifier (the `Did` of the host API).
    pub db_id: u32,
    /// Region holding binary embeddings (and centroids), programmed ESP-SLC.
    pub embedding_region: StripedRegion,
    /// Region holding INT8 embeddings for reranking, programmed TLC.
    pub int8_region: StripedRegion,
    /// Region holding document chunks, programmed TLC.
    pub document_region: StripedRegion,
    /// Number of database entries (embedding/document pairs).
    pub entries: usize,
}

/// The R-DB array: coarse-grained FTL over all deployed databases.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoarseFtl {
    records: Vec<DatabaseRecord>,
}

impl CoarseFtl {
    /// Create an empty R-DB.
    pub fn new() -> Self {
        CoarseFtl::default()
    }

    /// Total DRAM footprint of all records in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.records.len() * COARSE_RECORD_BYTES
    }

    /// Register a database record.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::DatabaseAlreadyDeployed`] if a record with the
    /// same id exists.
    pub fn deploy(&mut self, record: DatabaseRecord) -> Result<()> {
        if self.records.iter().any(|r| r.db_id == record.db_id) {
            return Err(SsdError::DatabaseAlreadyDeployed(record.db_id));
        }
        self.records.push(record);
        Ok(())
    }

    /// Look up the record of a database.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::UnknownDatabase`] if the id is not deployed.
    pub fn record(&self, db_id: u32) -> Result<&DatabaseRecord> {
        self.records
            .iter()
            .find(|r| r.db_id == db_id)
            .ok_or(SsdError::UnknownDatabase(db_id))
    }

    /// Remove a database record.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::UnknownDatabase`] if the id is not deployed.
    pub fn remove(&mut self, db_id: u32) -> Result<DatabaseRecord> {
        let idx = self
            .records
            .iter()
            .position(|r| r.db_id == db_id)
            .ok_or(SsdError::UnknownDatabase(db_id))?;
        Ok(self.records.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::PageAllocator;
    use reis_nand::Geometry;

    #[test]
    fn coarse_ftl_translates_by_arithmetic() {
        let geom = Geometry::tiny();
        let mut alloc = PageAllocator::new(&geom);
        let emb = alloc.reserve(16).unwrap();
        let int8 = alloc.reserve(16).unwrap();
        let docs = alloc.reserve(32).unwrap();
        let mut rdb = CoarseFtl::new();
        rdb.deploy(DatabaseRecord {
            db_id: 1,
            embedding_region: emb,
            int8_region: int8,
            document_region: docs,
            entries: 100,
        })
        .unwrap();
        // Every page of a database is its record's region start plus an
        // offset: no per-page table lookup.
        let record = rdb.record(1).unwrap();
        let a = record.embedding_region.page_at(&geom, 0).unwrap();
        let b = record.embedding_region.page_at(&geom, 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, emb.page_at(&geom, 0).unwrap());
        assert_eq!(
            record.document_region.page_at(&geom, 3).unwrap(),
            docs.page_at(&geom, 3).unwrap()
        );
        assert_eq!(
            record.int8_region.page_at(&geom, 5).unwrap(),
            int8.page_at(&geom, 5).unwrap()
        );
        assert!(matches!(
            record.embedding_region.page_at(&geom, 16),
            Err(SsdError::RegionOutOfBounds { .. })
        ));
        assert!(matches!(rdb.record(9), Err(SsdError::UnknownDatabase(9))));
    }

    #[test]
    fn coarse_ftl_rejects_duplicate_ids_and_tracks_footprint() {
        let mut rdb = CoarseFtl::new();
        let record = DatabaseRecord {
            db_id: 2,
            embedding_region: StripedRegion { start: 0, len: 4 },
            int8_region: StripedRegion { start: 4, len: 4 },
            document_region: StripedRegion { start: 8, len: 8 },
            entries: 10,
        };
        rdb.deploy(record).unwrap();
        assert!(matches!(
            rdb.deploy(record),
            Err(SsdError::DatabaseAlreadyDeployed(2))
        ));
        assert_eq!(rdb.footprint_bytes(), COARSE_RECORD_BYTES);
        assert_eq!(rdb.record(2).unwrap().entries, 10);
        rdb.remove(2).unwrap();
        assert_eq!(rdb.footprint_bytes(), 0);
        assert!(matches!(rdb.remove(2), Err(SsdError::UnknownDatabase(2))));
    }

    #[test]
    fn coarse_addressing_saves_orders_of_magnitude_of_dram() {
        // The paper's example: a 1 TB database that needs ~1 GB of page-level
        // FTL (8 bytes per 16 KiB page) collapses to a 21-byte record.
        let pages_1tb = (1usize << 40) / (16 * 1024);
        let mut rdb = CoarseFtl::new();
        rdb.deploy(DatabaseRecord {
            db_id: 1,
            embedding_region: StripedRegion::EMPTY,
            int8_region: StripedRegion::EMPTY,
            document_region: StripedRegion {
                start: 0,
                len: pages_1tb,
            },
            entries: 0,
        })
        .unwrap();
        let saving = (pages_1tb * 8) as f64 / rdb.footprint_bytes() as f64;
        assert!(
            saving > 1e7,
            "saving factor {saving} should exceed ten million"
        );
    }
}
