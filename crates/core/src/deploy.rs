//! Database deployment (`DB_Deploy` / `IVF_Deploy`).
//!
//! Deployment lays a [`VectorDatabase`] out in flash exactly as Sec. 4.1 and
//! 4.2.1 describe: cluster centroids followed by the binary embeddings in
//! cluster-contiguous storage order in the ESP-SLC embedding region, the
//! INT8 embeddings and document chunks in TLC regions, the
//! embedding-to-document linkage in the OOB bytes of every embedding page,
//! the R-DB record in the coarse-grained FTL, and the R-IVF array in
//! controller DRAM.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use reis_ann::quantize::{BinaryQuantizer, Int8Quantizer};
use reis_nand::oob::{OobEntry, OobLayout};
use reis_nand::Nanos;
use reis_ssd::{DatabaseRecord, RegionKind, SsdController, StripedRegion};
use reis_update::UpdateState;

use crate::database::VectorDatabase;
use crate::error::Result;
use crate::layout::LayoutPlan;
use crate::records::{RIvf, RIvfEntry};

/// The DRAM bookkeeping names of a database: its three base regions and its
/// update state. Regions are renamed per compaction generation, and
/// releasing a region needs the name it was reserved under, so the names
/// travel with the deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionNames {
    /// Name of the ESP-SLC embedding (and centroid) region.
    pub embeddings: String,
    /// Name of the TLC INT8 region.
    pub int8: String,
    /// Name of the TLC document region.
    pub documents: String,
    /// Name of the update state's DRAM allocation (segment table,
    /// tombstones, relocation maps), re-sized by every mutation; the same
    /// in every generation.
    pub update_state: String,
}

impl RegionNames {
    /// The names of generation `generation` of database `db_id` (generation
    /// 0 is the original deployment; each compaction starts a new one).
    pub fn generation(db_id: u32, generation: u64) -> Self {
        let prefix = if generation == 0 {
            format!("db{db_id}")
        } else {
            format!("db{db_id}/g{generation}")
        };
        RegionNames {
            embeddings: format!("{prefix}/embeddings"),
            int8: format!("{prefix}/int8"),
            documents: format!("{prefix}/documents"),
            update_state: format!("db{db_id}/update-state"),
        }
    }
}

/// Host-visible handle to a deployed database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployedDatabase {
    /// Database id (the `Did` of the host API).
    pub db_id: u32,
    /// How the database maps onto pages.
    pub layout: LayoutPlan,
    /// Where its regions live (also registered in the coarse FTL).
    pub record: DatabaseRecord,
    /// DRAM bookkeeping names of the current base regions.
    pub region_names: RegionNames,
    /// Per-cluster R-IVF array (empty for flat deployments).
    pub rivf: RIvf,
    /// Mapping from storage order to original entry id.
    pub storage_to_original: Vec<u32>,
    /// Mapping from original entry id to storage order (inverse of
    /// `storage_to_original`; ids become sparse once entries are deleted).
    pub original_to_storage: HashMap<u32, u32>,
    /// Cluster tag of every storage-order position (0 for flat deployments).
    pub storage_tags: Vec<u8>,
    /// Binary quantizer used to encode queries consistently with the
    /// deployed embeddings.
    pub binary_quantizer: BinaryQuantizer,
    /// INT8 quantizer used to encode queries for reranking.
    pub int8_quantizer: Int8Quantizer,
    /// Total latency of writing the database to flash (the offline indexing
    /// cost; not part of query latency).
    pub deploy_latency: Nanos,
    /// Online mutation state: append segments, tombstones, relocations and
    /// mutation counters (see `reis-update`).
    pub updates: UpdateState,
}

impl DeployedDatabase {
    /// Whether the database was deployed with IVF cluster structure.
    pub fn is_ivf(&self) -> bool {
        !self.rivf.is_empty()
    }

    /// Number of entries in the base region (the deployed corpus before
    /// online mutations; see [`DeployedDatabase::live_entries`]).
    pub fn entries(&self) -> usize {
        self.layout.entries
    }

    /// Number of live logical entries: base entries minus tombstones plus
    /// live append-segment entries.
    pub fn live_entries(&self) -> usize {
        self.updates.live_entries(self.layout.entries)
    }

    /// Number of clusters the update path tracks (1 for flat deployments,
    /// which treat the whole database as one pseudo-cluster).
    pub fn update_clusters(&self) -> usize {
        self.rivf.len().max(1)
    }

    /// The OOB layout of its embedding pages.
    pub fn oob_layout(&self, oob_size_bytes: usize) -> Result<OobLayout> {
        Ok(OobLayout::new(
            oob_size_bytes,
            self.layout.embeddings_per_page,
        )?)
    }
}

/// Deploy a database onto the SSD under the given id.
///
/// # Errors
///
/// * Layout errors for entries that do not fit a page.
/// * [`reis_ssd::SsdError::OutOfSpace`] if the flash array is too small.
/// * [`reis_ssd::SsdError::DatabaseAlreadyDeployed`] for a duplicate id.
pub fn deploy(
    ssd: &mut SsdController,
    database: &VectorDatabase,
    db_id: u32,
) -> Result<DeployedDatabase> {
    deploy_inner(ssd, database, db_id, None, None)
}

/// Deploy with *externally assigned* stable entry ids — the snapshot
/// recovery path.
///
/// A fresh [`deploy`] numbers entries `0..n` and records those numbers as
/// the OOB `dadr` linkage. After online mutations the surviving ids are
/// sparse, and a recovered deployment must reproduce them exactly (WAL
/// replay and client-visible search results address entries by stable id).
/// `stable_ids[i]` is the id of the database's `i`-th entry;
/// `min_doc_slot_bytes` floors the document slot size so documents larger
/// than the snapshot corpus's current maximum — still possible under
/// replayed or future mutations, as they were before the crash — keep
/// fitting their slots.
///
/// The next-id watermark advances past the largest assigned id, and
/// document chunks — which live at entry-order slots — resolve through an
/// explicit id → slot map, since the identity fallback of
/// `UpdateState::base_doc_slot` no longer holds.
///
/// # Errors
///
/// Same as [`deploy`], plus [`crate::error::ReisError::MalformedDatabase`]
/// if `stable_ids` does not cover the corpus one-to-one.
pub(crate) fn deploy_with_ids(
    ssd: &mut SsdController,
    database: &VectorDatabase,
    db_id: u32,
    stable_ids: &[u32],
    min_doc_slot_bytes: usize,
) -> Result<DeployedDatabase> {
    let mut deployed = deploy_inner(
        ssd,
        database,
        db_id,
        Some(stable_ids),
        Some(min_doc_slot_bytes),
    )?;
    let updates = &mut deployed.updates;
    let past_max = stable_ids.iter().map(|&id| id + 1).max().unwrap_or(0);
    updates.next_id = updates.next_id.max(past_max);
    updates.doc_slots = Some(
        stable_ids
            .iter()
            .enumerate()
            .map(|(slot, &id)| (id, slot as u32))
            .collect(),
    );
    Ok(deployed)
}

fn deploy_inner(
    ssd: &mut SsdController,
    database: &VectorDatabase,
    db_id: u32,
    stable_ids: Option<&[u32]>,
    min_doc_slot_bytes: Option<usize>,
) -> Result<DeployedDatabase> {
    let geometry = ssd.config().geometry;
    let mut layout = LayoutPlan::plan(database, &geometry)?;
    if let Some(min_slot) = min_doc_slot_bytes {
        let slot = min_slot.min(geometry.page_size_bytes);
        if slot > layout.doc_slot_bytes {
            layout.doc_slot_bytes = slot;
            layout.docs_per_page = (geometry.page_size_bytes / slot).max(1);
            layout.doc_pages = layout.entries.div_ceil(layout.docs_per_page);
        }
    }
    if let Some(ids) = stable_ids {
        if ids.len() != database.len() {
            return Err(crate::error::ReisError::MalformedDatabase(format!(
                "{} stable ids for {} entries",
                ids.len(),
                database.len()
            )));
        }
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(crate::error::ReisError::MalformedDatabase(
                "duplicate stable ids".into(),
            ));
        }
    }
    let oob_layout = OobLayout::new(geometry.oob_size_bytes, layout.embeddings_per_page)?;

    // Region reservation: centroids and embeddings share the ESP-SLC
    // embedding region; INT8 and documents get TLC regions.
    let region_names = RegionNames::generation(db_id, 0);
    let embedding_region = ssd.reserve_region(
        &region_names.embeddings,
        layout.centroid_pages + layout.embedding_pages,
    )?;
    let int8_region = ssd.reserve_region(&region_names.int8, layout.int8_pages)?;
    let document_region = ssd.reserve_region(&region_names.documents, layout.doc_pages)?;

    // Storage order: cluster-contiguous for IVF, entry order for flat.
    // `storage_to_entry` indexes the database arrays; `storage_to_original`
    // is the stable-id view recorded in the OOB linkage (identical unless
    // recovery supplied explicit ids).
    let (storage_to_entry, storage_tags, rivf) = storage_order(database, &layout);
    let storage_to_original: Vec<u32> = match stable_ids {
        Some(ids) => storage_to_entry
            .iter()
            .map(|&entry| ids[entry as usize])
            .collect(),
        None => storage_to_entry.clone(),
    };

    let order = StorageOrder {
        to_entry: &storage_to_entry,
        to_original: &storage_to_original,
        tags: &storage_tags,
    };
    let mut latency = Nanos::ZERO;
    latency += write_embedding_region(
        ssd,
        database,
        &layout,
        &oob_layout,
        &embedding_region,
        &order,
    )?;
    latency += write_int8_region(ssd, database, &layout, &int8_region, &storage_to_entry)?;
    latency += write_document_region(ssd, database, &layout, &document_region)?;

    let record = DatabaseRecord {
        db_id,
        embedding_region,
        int8_region,
        document_region,
        entries: layout.entries,
    };
    ssd.coarse_ftl_mut().deploy(record)?;
    ssd.dram_mut()
        .allocate(&format!("db{db_id}/r-ivf"), rivf.footprint_bytes())?;

    let original_to_storage = storage_to_original
        .iter()
        .enumerate()
        .map(|(storage, &original)| (original, storage as u32))
        .collect();
    let updates = UpdateState::new(layout.entries, rivf.len().max(1));
    Ok(DeployedDatabase {
        db_id,
        layout,
        record,
        region_names,
        rivf,
        storage_to_original,
        original_to_storage,
        storage_tags,
        binary_quantizer: database.binary_quantizer().clone(),
        int8_quantizer: database.int8_quantizer().clone(),
        deploy_latency: latency,
        updates,
    })
}

/// Compute the storage order, per-position cluster tags, and the R-IVF array.
fn storage_order(database: &VectorDatabase, layout: &LayoutPlan) -> (Vec<u32>, Vec<u8>, RIvf) {
    match database.clusters() {
        Some(info) => {
            let mut order = Vec::with_capacity(database.len());
            let mut tags = Vec::with_capacity(database.len());
            let mut entries = Vec::with_capacity(info.nlist());
            for (cluster, members) in info.lists.iter().enumerate() {
                let tag = (cluster % 256) as u8;
                let first = order.len();
                for &id in members {
                    order.push(id as u32);
                    tags.push(tag);
                }
                let (centroid_page, centroid_slot) = layout.centroid_location(cluster);
                let entry = if members.is_empty() {
                    RIvfEntry {
                        centroid_page: centroid_page as u32,
                        centroid_slot: centroid_slot as u32,
                        first_embedding: 1,
                        last_embedding: 0,
                        tag,
                    }
                } else {
                    RIvfEntry {
                        centroid_page: centroid_page as u32,
                        centroid_slot: centroid_slot as u32,
                        first_embedding: first as u32,
                        last_embedding: (order.len() - 1) as u32,
                        tag,
                    }
                };
                entries.push(entry);
            }
            (order, tags, RIvf::new(entries))
        }
        None => {
            let order: Vec<u32> = (0..database.len() as u32).collect();
            let tags = vec![0u8; database.len()];
            (order, tags, RIvf::new(Vec::new()))
        }
    }
}

pub(crate) fn pad_slot(bytes: &[u8], slot: usize) -> Vec<u8> {
    let mut out = vec![0u8; slot];
    out[..bytes.len()].copy_from_slice(bytes);
    out
}

/// What each storage-order position of a deployment holds: the database
/// entry, the stable id its OOB linkage records, and its cluster tag.
struct StorageOrder<'a> {
    to_entry: &'a [u32],
    to_original: &'a [u32],
    tags: &'a [u8],
}

fn write_embedding_region(
    ssd: &mut SsdController,
    database: &VectorDatabase,
    layout: &LayoutPlan,
    oob_layout: &OobLayout,
    region: &StripedRegion,
    order: &StorageOrder<'_>,
) -> Result<Nanos> {
    let mut latency = Nanos::ZERO;
    let slot = layout.embedding_slot_bytes;
    let epp = layout.embeddings_per_page;

    // Centroid pages first.
    if let Some(info) = database.clusters() {
        for page in 0..layout.centroid_pages {
            let mut data = Vec::with_capacity(epp * slot);
            let mut oob_entries = Vec::with_capacity(epp);
            for s in 0..epp {
                let cluster = page * epp + s;
                if cluster >= info.nlist() {
                    break;
                }
                data.extend(pad_slot(info.centroids[cluster].as_bytes(), slot));
                oob_entries.push(OobEntry {
                    dadr: cluster as u32,
                    radr: cluster as u32,
                    tag: (cluster % 256) as u8,
                });
            }
            let oob = oob_layout.pack(&oob_entries)?;
            latency += ssd.program_region_page(region, page, RegionKind::Centroids, &data, &oob)?;
        }
    }

    // Database embedding pages, in storage order.
    for page in 0..layout.embedding_pages {
        let mut data = Vec::with_capacity(epp * slot);
        let mut oob_entries = Vec::with_capacity(epp);
        for s in 0..epp {
            let storage_index = page * epp + s;
            if storage_index >= layout.entries {
                break;
            }
            let entry = order.to_entry[storage_index] as usize;
            data.extend(pad_slot(database.binary()[entry].as_bytes(), slot));
            oob_entries.push(OobEntry {
                dadr: order.to_original[storage_index],
                radr: storage_index as u32,
                tag: order.tags[storage_index],
            });
        }
        let oob = oob_layout.pack(&oob_entries)?;
        latency += ssd.program_region_page(
            region,
            layout.centroid_pages + page,
            RegionKind::BinaryEmbeddings,
            &data,
            &oob,
        )?;
    }
    Ok(latency)
}

fn write_int8_region(
    ssd: &mut SsdController,
    database: &VectorDatabase,
    layout: &LayoutPlan,
    region: &StripedRegion,
    storage_to_entry: &[u32],
) -> Result<Nanos> {
    let mut latency = Nanos::ZERO;
    for page in 0..layout.int8_pages {
        let mut data = Vec::with_capacity(layout.int8_per_page * layout.int8_bytes);
        for s in 0..layout.int8_per_page {
            let storage_index = page * layout.int8_per_page + s;
            if storage_index >= layout.entries {
                break;
            }
            let entry = storage_to_entry[storage_index] as usize;
            data.extend(database.int8()[entry].as_slice().iter().map(|&v| v as u8));
        }
        latency += ssd.program_region_page(region, page, RegionKind::Int8Embeddings, &data, &[])?;
    }
    Ok(latency)
}

fn write_document_region(
    ssd: &mut SsdController,
    database: &VectorDatabase,
    layout: &LayoutPlan,
    region: &StripedRegion,
) -> Result<Nanos> {
    let mut latency = Nanos::ZERO;
    for page in 0..layout.doc_pages {
        let mut data = vec![0u8; layout.docs_per_page * layout.doc_slot_bytes];
        for s in 0..layout.docs_per_page {
            let doc_index = page * layout.docs_per_page + s;
            if doc_index >= layout.entries {
                break;
            }
            let doc = &database.documents()[doc_index];
            let start = s * layout.doc_slot_bytes;
            data[start..start + 4].copy_from_slice(&(doc.len() as u32).to_le_bytes());
            data[start + 4..start + 4 + doc.len()].copy_from_slice(doc);
        }
        latency += ssd.program_region_page(region, page, RegionKind::Documents, &data, &[])?;
    }
    Ok(latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reis_ssd::SsdConfig;

    fn vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| (((i * 31 + d * 7) % 23) as f32 - 11.0) / 5.0)
                    .collect()
            })
            .collect()
    }

    fn documents(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("chunk number {i} with some body text").into_bytes())
            .collect()
    }

    #[test]
    fn flat_deployment_registers_regions_and_writes_all_pages() {
        let mut ssd = SsdController::new(SsdConfig::tiny());
        let db = VectorDatabase::flat(&vectors(60, 64), documents(60)).unwrap();
        let deployed = deploy(&mut ssd, &db, 1).unwrap();
        assert!(!deployed.is_ivf());
        assert_eq!(deployed.entries(), 60);
        assert!(deployed.deploy_latency > Nanos::ZERO);
        // The R-DB record is registered.
        let record = ssd.coarse_ftl().record(1).unwrap();
        assert_eq!(record.entries, 60);
        // Every embedding page is programmed.
        for offset in 0..deployed.layout.embedding_pages {
            let stripe = record.embedding_region.stripe_at(offset).unwrap();
            assert!(ssd.device().is_programmed(stripe));
        }
        // Program counts match the layout's page totals.
        assert_eq!(
            ssd.device().stats().page_programs as usize,
            deployed.layout.total_pages()
        );
    }

    #[test]
    fn ivf_deployment_builds_rivf_covering_every_entry() {
        let mut ssd = SsdController::new(SsdConfig::tiny());
        let db = VectorDatabase::ivf(&vectors(90, 64), documents(90), 5).unwrap();
        let deployed = deploy(&mut ssd, &db, 3).unwrap();
        assert!(deployed.is_ivf());
        assert_eq!(deployed.rivf.len(), 5);
        let covered: usize = deployed
            .rivf
            .entries()
            .iter()
            .map(RIvfEntry::member_count)
            .sum();
        assert_eq!(covered, 90);
        // Cluster ranges are contiguous and ordered.
        let mut expected_first = 0u32;
        for entry in deployed.rivf.entries() {
            if entry.member_count() == 0 {
                continue;
            }
            assert_eq!(entry.first_embedding, expected_first);
            expected_first = entry.last_embedding + 1;
        }
        // Storage order is a permutation of the original ids.
        let mut ids = deployed.storage_to_original.clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..90).collect::<Vec<u32>>());
        // R-IVF footprint is accounted in DRAM.
        assert_eq!(
            ssd.dram().allocation("db3/r-ivf"),
            Some(deployed.rivf.footprint_bytes())
        );
    }

    #[test]
    fn oob_linkage_points_back_to_original_ids() {
        let mut ssd = SsdController::new(SsdConfig::tiny());
        let db = VectorDatabase::ivf(&vectors(40, 64), documents(40), 4).unwrap();
        let deployed = deploy(&mut ssd, &db, 9).unwrap();
        let geom = ssd.config().geometry;
        let oob_layout = deployed.oob_layout(geom.oob_size_bytes).unwrap();
        // Read back the OOB of the first database-embedding page and verify
        // every entry's DADR equals the original id recorded at deployment.
        let record = deployed.record;
        let addr = record
            .embedding_region
            .page_at(&geom, deployed.layout.centroid_pages)
            .unwrap();
        let (oob, _) = ssd.device_mut().read_oob(addr).unwrap();
        for slot in 0..deployed.layout.embeddings_per_page.min(deployed.entries()) {
            let entry = oob_layout.unpack_entry(&oob, slot).unwrap();
            assert_eq!(entry.dadr, deployed.storage_to_original[slot]);
            assert_eq!(entry.radr, slot as u32);
            assert_eq!(entry.tag, deployed.storage_tags[slot]);
        }
    }

    #[test]
    fn duplicate_database_ids_are_rejected() {
        let mut ssd = SsdController::new(SsdConfig::tiny());
        let db = VectorDatabase::flat(&vectors(10, 32), documents(10)).unwrap();
        deploy(&mut ssd, &db, 7).unwrap();
        assert!(deploy(&mut ssd, &db, 7).is_err());
    }
}
