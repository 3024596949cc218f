//! The in-storage ANNS engine (Sec. 4.3): everything around the scan that
//! is not the scan driver.
//!
//! A search executes *functionally* on the simulated flash device: embedding
//! pages are sensed, XORed against the broadcast query, bit-counted and
//! distance-filtered in the plane; the surviving Temporal-Top-List entries
//! (with the OOB linkage they carry) stream to the controller, which runs
//! quickselect, fetches the INT8 copies for reranking, quicksorts the
//! survivors and finally reads the documents of the top-k results. The page
//! walk itself lives in [`crate::scan`] — the one scan core every search
//! entry point reaches. This module holds what the core is built from and
//! what runs after it: the activity counters ([`ScanCounts`]), the pooled
//! buffers of the downstream phases ([`ScanScratch`]), the fine-scan
//! selection (`plan_fine_selection`), the three candidate-admission rules
//! (`coarse_scan_entry`, `base_scan_entry`, `segment_scan_entry`), the
//! adaptive threshold rule (`tighten_threshold`), and the rerank and
//! document phases ([`InStorageEngine`]).
//!
//! # Downstream-phase invariants
//!
//! Reranking and document retrieval sort their candidates by flash page and
//! stream each page once, scoring INT8 slots directly from the pooled staging
//! buffer — no page cache map, no per-candidate vector copies and no per-page
//! allocation.

use reis_ann::topk::Neighbor;
use reis_ann::vector::Int8Vector;
use reis_nand::OobEntry;
use reis_ssd::{RegionKind, SsdController, StripedRegion};
use reis_update::OOB_INVALID_RADR;

use crate::deploy::DeployedDatabase;
use crate::error::{ReisError, Result};
use crate::layout::LayoutPlan;
use crate::leaf::LeafCandidate;
use crate::records::{TemporalTopList, TtlEntry};

/// Activity counters of one scan pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Pages sensed.
    pub pages: usize,
    /// Embedding slots whose distance was computed.
    pub slots_scanned: usize,
    /// Entries that passed the distance filter and were transferred.
    pub entries_passed: usize,
    /// Adaptive window barriers crossed (0 for static-threshold scans): the
    /// number of times the embedded core re-ran quickselect over the
    /// accumulated Temporal Top List to tighten the in-plane threshold.
    pub windows: usize,
}

impl ScanCounts {
    /// Fold the page/slot/entry counters of one shard into this one (window
    /// barriers are counted by the pass driver, not by its shards, so they
    /// do not accumulate here).
    pub(crate) fn absorb(&mut self, other: ScanCounts) {
        self.pages += other.pages;
        self.slots_scanned += other.slots_scanned;
        self.entries_passed += other.entries_passed;
    }
}

/// Reusable buffers of the phases downstream of the scan.
///
/// One scratch serves one engine at a time; creating it is cheap but the
/// point is to create it *once* per system so steady-state reranking and
/// document fetching perform no per-page heap allocation.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// The Temporal Top List holding the current query's candidates, in rank
    /// order once the scan core selected them.
    pub(crate) ttl: TemporalTopList,
    /// Candidate visit order for the page-sorted rerank / document phases.
    order: Vec<usize>,
    /// Rerank scoring buffer: exact INT8 distances keyed for the
    /// deterministic `(distance, storage position)` tie-break.
    rerank_buf: Vec<RerankCandidate>,
    /// Pooled controller staging buffer for ECC'd TLC page reads (the
    /// rerank and document-fetch phases reuse it across pages and queries).
    page_buf: Vec<u8>,
    /// Pooled OOB staging buffer accompanying `page_buf`.
    page_oob: Vec<u8>,
    /// Number of fine-search candidates requested (bounds `ttl.top`).
    pub(crate) candidate_count: usize,
}

impl ScanScratch {
    /// Create an empty scratch.
    pub fn new() -> Self {
        ScanScratch::default()
    }
}

/// One reranked candidate: the exact INT8 squared distance plus the keys of
/// the deterministic final sort. Sorting by `(raw, storage_index)` — the
/// entry's position in the scan order rather than its stable id — makes the
/// final ranking invariant under relocations: an index mutated online and
/// the same logical corpus redeployed from scratch order ties identically.
#[derive(Debug, Clone, Copy)]
struct RerankCandidate {
    raw: i64,
    storage_index: u32,
    dadr: u32,
}

/// Tighten an adaptive distance-filter threshold against the current
/// contents of a Temporal Top List: once at least `2 × candidate_count`
/// entries accumulated, quickselect down to the candidate count and clamp
/// the threshold to the worst surviving distance. Any embedding farther
/// than that can never enter the final candidate set (its total-order key
/// exceeds every kept key, and more candidates only shrink the cut), so
/// filtering it in-plane is lossless. The `<=` pass condition keeps
/// equal-distance entries flowing, which the `storage_index` tie-break may
/// still admit.
///
/// Under the windowed schedule this runs only at window *barriers* — fixed
/// page-count positions of the scan's deterministic page list — over the
/// TTL state accumulated across all completed windows. Because the TTL
/// quickselect keys on a total order, the merged state at a barrier (and
/// therefore the tightened threshold) is independent of how the window's
/// pages were partitioned across shard workers.
pub(crate) fn tighten_threshold(
    ttl: &mut crate::records::TemporalTopList,
    candidate_count: usize,
    threshold: &mut u32,
) {
    if ttl.len() >= candidate_count.saturating_mul(2) {
        ttl.quickselect(candidate_count);
        if let Some(max) = ttl.entries().iter().map(|e| e.distance).max() {
            *threshold = (*threshold).min(max);
        }
    }
}

/// The rerank and document phases of the in-storage engine, borrowing the
/// SSD controller (and a [`ScanScratch`]) for the duration of one or more
/// queries.
#[derive(Debug)]
pub struct InStorageEngine<'a> {
    ssd: &'a mut SsdController,
    scratch: &'a mut ScanScratch,
}

/// Merge a list of `(start, end)` half-open ranges in place: empty ranges
/// are dropped, the rest sorted and overlapping/adjacent ranges coalesced.
pub(crate) fn merge_page_ranges(ranges: &mut Vec<(usize, usize)>) {
    ranges.retain(|&(start, end)| start < end);
    if ranges.len() <= 1 {
        return;
    }
    ranges.sort_unstable();
    let mut write = 0usize;
    for read in 1..ranges.len() {
        let (start, end) = ranges[read];
        if start <= ranges[write].1 {
            ranges[write].1 = ranges[write].1.max(end);
        } else {
            write += 1;
            ranges[write] = (start, end);
        }
    }
    ranges.truncate(write + 1);
}

/// Whether `index` falls inside one of the sorted, disjoint inclusive
/// `(first, last)` ranges.
pub(crate) fn in_valid_ranges(ranges: &[(u32, u32)], index: u32) -> bool {
    let after = ranges.partition_point(|&(first, _)| first <= index);
    after > 0 && ranges[after - 1].1 >= index
}

/// Whether relative page `offset` falls inside one of the sorted, disjoint
/// half-open `(start, end)` merged page ranges (the scan core's per-query
/// membership test).
pub(crate) fn in_page_ranges(ranges: &[(usize, usize)], offset: usize) -> bool {
    let after = ranges.partition_point(|&(start, _)| start <= offset);
    after > 0 && ranges[after - 1].1 > offset
}

/// The fine-scan selection of one query.
#[derive(Debug, Default)]
pub(crate) struct FineSelection {
    /// Merged page ranges, relative to the database-embedding sub-region.
    pub(crate) page_ranges: Vec<(usize, usize)>,
    /// Sorted storage-index ranges of the probed clusters.
    pub(crate) valid_ranges: Vec<(u32, u32)>,
    /// The clusters whose append segments the scan must also cover, in
    /// probe order (the order their segment runs join the page list).
    pub(crate) clusters: Vec<usize>,
}

/// Compute the fine-scan selection of one query from its probed clusters
/// (`None` selects the whole database, a brute-force scan).
pub(crate) fn plan_fine_selection(
    db: &DeployedDatabase,
    clusters: Option<&[usize]>,
) -> Result<FineSelection> {
    let layout = db.layout;
    let mut selection = FineSelection::default();
    match clusters {
        Some(selected) => {
            for &cluster in selected {
                let entry = db
                    .rivf
                    .entry(cluster)
                    .ok_or(ReisError::UnsupportedSearch(format!(
                        "cluster {cluster} unknown"
                    )))?;
                selection.clusters.push(cluster);
                if entry.member_count() == 0 {
                    continue;
                }
                selection
                    .valid_ranges
                    .push((entry.first_embedding, entry.last_embedding));
                selection.page_ranges.push(layout.embedding_page_range(
                    entry.first_embedding as usize,
                    entry.last_embedding as usize,
                ));
            }
        }
        None => {
            selection.clusters.extend(0..db.update_clusters());
            if layout.entries > 0 {
                selection
                    .valid_ranges
                    .push((0, (layout.entries - 1) as u32));
                selection.page_ranges.push((0, layout.embedding_pages));
            }
        }
    }
    merge_page_ranges(&mut selection.page_ranges);
    selection.valid_ranges.sort_unstable();
    Ok(selection)
}

/// Convert one passing base-region slot into a TTL entry, or `None` for
/// slots that are out of range, tombstoned or outside the probed clusters.
pub(crate) fn base_scan_entry(
    layout: &LayoutPlan,
    tombstones: &reis_update::TombstoneSet,
    valid_ranges: &[(u32, u32)],
    page: usize,
    slot: usize,
    distance: u32,
    oob: OobEntry,
) -> Option<TtlEntry> {
    let storage_index = (page - layout.centroid_pages) * layout.embeddings_per_page + slot;
    if storage_index >= layout.entries {
        return None;
    }
    // Tombstoned base entries are dead; their flash pages still hold
    // them, so the scan must drop them here.
    if tombstones.contains(storage_index) {
        return None;
    }
    let si = storage_index as u32;
    if !in_valid_ranges(valid_ranges, si) {
        return None;
    }
    Some(TtlEntry {
        distance,
        storage_index: si,
        radr: oob.radr,
        dadr: oob.dadr,
        tag: oob.tag,
    })
}

/// Convert one passing append-segment slot into a TTL entry, filtering the
/// OOB validity sentinel of unfilled slots and DRAM-side deletions.
pub(crate) fn segment_scan_entry(
    store: &reis_update::SegmentStore,
    base_capacity: u32,
    distance: u32,
    oob: OobEntry,
) -> Option<TtlEntry> {
    if oob.radr == OOB_INVALID_RADR || oob.radr < base_capacity {
        return None;
    }
    let entry = store.entry(oob.radr - base_capacity)?;
    if entry.deleted {
        return None;
    }
    Some(TtlEntry {
        distance,
        storage_index: oob.radr,
        radr: oob.radr,
        dadr: oob.dadr,
        tag: oob.tag,
    })
}

/// Convert one passing centroid slot into a TTL-C entry, or `None` for pad
/// slots past the last centroid.
pub(crate) fn coarse_scan_entry(
    epp: usize,
    centroids: usize,
    page: usize,
    slot: usize,
    distance: u32,
    oob: OobEntry,
) -> Option<TtlEntry> {
    let cluster = page * epp + slot;
    if cluster >= centroids {
        return None;
    }
    Some(TtlEntry {
        distance,
        storage_index: cluster as u32,
        radr: oob.radr,
        dadr: oob.dadr,
        tag: oob.tag,
    })
}

impl<'a> InStorageEngine<'a> {
    /// Create an engine bound to a controller and the scratch buffers it may
    /// reuse across queries.
    pub fn new(ssd: &'a mut SsdController, scratch: &'a mut ScanScratch) -> Self {
        InStorageEngine { ssd, scratch }
    }

    /// The fine-search candidates in rank order (valid once the scan core
    /// left its selection in the scratch's Temporal Top List).
    pub fn candidates(&self) -> &[TtlEntry] {
        self.scratch.ttl.top(self.scratch.candidate_count)
    }

    /// Number of candidates the fine search produced for reranking.
    pub fn num_candidates(&self) -> usize {
        self.candidates().len()
    }

    /// Rerank the fine-search candidates in INT8 precision on the embedded
    /// core: fetch their INT8 copies from the TLC regions (through the
    /// controller, with ECC), recompute distances, and return the `k`
    /// nearest as `(original id, INT8 squared distance)` plus the number of
    /// distinct INT8 pages read.
    ///
    /// Candidates are visited in page order so every distinct page is read
    /// exactly once and each slot is scored directly from the pooled staging
    /// buffer — no page cache, no per-candidate copy and no per-page
    /// allocation (the ECC staging buffer lives in the [`ScanScratch`]).
    /// Base-region candidates resolve their INT8 copy through the layout's
    /// RADR arithmetic; append-segment candidates resolve through the
    /// segment store's slot references. The final ranking ties on
    /// `(distance, storage_index)`, matching the candidate selection's total
    /// order.
    pub fn rerank(
        &mut self,
        db: &DeployedDatabase,
        query_int8: &Int8Vector,
        k: usize,
    ) -> Result<(Vec<Neighbor>, usize)> {
        let layout = db.layout;
        let base_capacity = db.updates.base_capacity;
        let candidate_count = self.scratch.candidate_count;
        let ScanScratch {
            ttl,
            order,
            rerank_buf,
            page_buf,
            page_oob,
            ..
        } = &mut *self.scratch;
        let candidates = ttl.top(candidate_count);

        // Resolve a candidate's INT8 page: `(region, page, slot)`.
        let locate = |candidate: &TtlEntry| -> (StripedRegion, usize, usize) {
            if candidate.radr < base_capacity {
                let (page, slot) = layout.int8_location(candidate.radr as usize);
                (db.record.int8_region, page, slot)
            } else {
                let entry = db
                    .updates
                    .store
                    .entry(candidate.radr - base_capacity)
                    .expect("candidate segment entry exists");
                (entry.int8.region, entry.int8.page, entry.int8.slot)
            }
        };

        order.clear();
        order.extend(0..candidates.len());
        order.sort_unstable_by_key(|&i| {
            let (region, page, _) = locate(&candidates[i]);
            (region.start, page)
        });

        rerank_buf.clear();
        let mut pages_read = 0usize;
        let mut current: Option<(usize, usize)> = None;
        for &i in order.iter() {
            let candidate = &candidates[i];
            let (region, page, slot) = locate(candidate);
            if current != Some((region.start, page)) {
                self.ssd.read_region_page_into(
                    &region,
                    page,
                    RegionKind::Int8Embeddings,
                    page_buf,
                    page_oob,
                )?;
                current = Some((region.start, page));
                pages_read += 1;
            }
            let start = slot * layout.int8_bytes;
            let raw = query_int8.squared_l2_raw(&page_buf[start..start + layout.int8_bytes]);
            rerank_buf.push(RerankCandidate {
                raw,
                storage_index: candidate.storage_index,
                dadr: candidate.dadr,
            });
        }
        rerank_buf.sort_unstable_by_key(|c| (c.raw, c.storage_index));
        let top = rerank_buf[..k.min(rerank_buf.len())]
            .iter()
            .map(|c| Neighbor::new(c.dadr as usize, c.raw as f32))
            .collect();
        Ok((top, pages_read))
    }

    /// Rerank *every* fine-search candidate and return the full scored set
    /// instead of a top-k cut — the leaf half of the scale-out protocol
    /// (see `crate::leaf`). The aggregator needs each candidate's binary
    /// scan distance (to reproduce the single-device candidate cut
    /// globally) *and* its INT8 raw distance (to reproduce the final
    /// ranking), so both are returned per candidate, together with the
    /// stable id. INT8 pages are read in page order exactly like
    /// [`InStorageEngine::rerank`]; the returned set is ordered by the
    /// leaf-local `(binary distance, storage index)` total order.
    pub fn rerank_all(
        &mut self,
        db: &DeployedDatabase,
        query_int8: &Int8Vector,
    ) -> Result<(Vec<LeafCandidate>, usize)> {
        let layout = db.layout;
        let base_capacity = db.updates.base_capacity;
        let candidate_count = self.scratch.candidate_count;
        let ScanScratch {
            ttl,
            order,
            page_buf,
            page_oob,
            ..
        } = &mut *self.scratch;
        let candidates = ttl.top(candidate_count);

        // Resolve a candidate's INT8 page: `(region, page, slot)`.
        let locate = |candidate: &TtlEntry| -> (StripedRegion, usize, usize) {
            if candidate.radr < base_capacity {
                let (page, slot) = layout.int8_location(candidate.radr as usize);
                (db.record.int8_region, page, slot)
            } else {
                let entry = db
                    .updates
                    .store
                    .entry(candidate.radr - base_capacity)
                    .expect("candidate segment entry exists");
                (entry.int8.region, entry.int8.page, entry.int8.slot)
            }
        };

        order.clear();
        order.extend(0..candidates.len());
        order.sort_unstable_by_key(|&i| {
            let (region, page, _) = locate(&candidates[i]);
            (region.start, page)
        });

        let mut scored: Vec<LeafCandidate> = Vec::with_capacity(candidates.len());
        let mut pages_read = 0usize;
        let mut current: Option<(usize, usize)> = None;
        for &i in order.iter() {
            let candidate = &candidates[i];
            let (region, page, slot) = locate(candidate);
            if current != Some((region.start, page)) {
                self.ssd.read_region_page_into(
                    &region,
                    page,
                    RegionKind::Int8Embeddings,
                    page_buf,
                    page_oob,
                )?;
                current = Some((region.start, page));
                pages_read += 1;
            }
            let start = slot * layout.int8_bytes;
            let raw = query_int8.squared_l2_raw(&page_buf[start..start + layout.int8_bytes]);
            scored.push(LeafCandidate {
                binary: candidate.distance,
                storage_index: candidate.storage_index,
                id: candidate.dadr,
                raw,
            });
        }
        scored.sort_unstable_by_key(|c| (c.binary, c.storage_index));
        Ok((scored, pages_read))
    }

    /// Document identification and retrieval: read the chunks of the top-k
    /// results from the document regions, in page order (each document page
    /// is read once), validating every slot's length prefix.
    ///
    /// A result id resolves to its live chunk: relocated ids (inserts, and
    /// upserts of base entries) read from their append-segment page; base
    /// ids read from the base document region at the slot the update state
    /// maps them to (identity before the first compaction). The page reads
    /// stage through the scratch's pooled buffer.
    ///
    /// # Errors
    ///
    /// * [`ReisError::CorruptDocument`] if a slot's 4-byte length prefix is
    ///   missing or points outside the slot.
    /// * [`ReisError::EntryNotFound`] if a result id has no live document
    ///   (cannot happen for ids produced by the same search).
    pub fn fetch_documents(
        &mut self,
        db: &DeployedDatabase,
        top: &[Neighbor],
    ) -> Result<Vec<Vec<u8>>> {
        let layout = db.layout;
        // Resolve an id's document page: `(region, page, slot)`.
        let locate = |id: u32| -> Result<(StripedRegion, usize, usize)> {
            if let Some(&sid) = db.updates.relocated.get(&id) {
                let entry = db
                    .updates
                    .store
                    .entry(sid)
                    .ok_or(ReisError::EntryNotFound(id))?;
                return Ok((
                    entry.document.region,
                    entry.document.page,
                    entry.document.slot,
                ));
            }
            let slot_index = db
                .updates
                .base_doc_slot(id)
                .ok_or(ReisError::EntryNotFound(id))? as usize;
            let (page, slot) = layout.document_location(slot_index);
            Ok((db.record.document_region, page, slot))
        };

        let ScanScratch {
            order,
            page_buf,
            page_oob,
            ..
        } = &mut *self.scratch;
        // Resolve every result's location once, up front; the sort and the
        // read loop then work off the resolved triples.
        let locations = top
            .iter()
            .map(|n| locate(n.id as u32))
            .collect::<Result<Vec<_>>>()?;
        order.clear();
        order.extend(0..top.len());
        order.sort_unstable_by_key(|&i| {
            let (region, page, _) = locations[i];
            (region.start, page)
        });

        let mut documents: Vec<Vec<u8>> = vec![Vec::new(); top.len()];
        let mut current: Option<(usize, usize)> = None;
        for &i in order.iter() {
            let (region, page, slot) = locations[i];
            if current != Some((region.start, page)) {
                self.ssd.read_region_page_into(
                    &region,
                    page,
                    RegionKind::Documents,
                    page_buf,
                    page_oob,
                )?;
                current = Some((region.start, page));
            }
            let start = slot * layout.doc_slot_bytes;
            let corrupt = ReisError::CorruptDocument { page, slot };
            if start + 4 > page_buf.len() {
                return Err(corrupt);
            }
            let len = u32::from_le_bytes(
                page_buf[start..start + 4]
                    .try_into()
                    .expect("4-byte prefix"),
            ) as usize;
            if len > layout.doc_slot_bytes - 4 || start + 4 + len > page_buf.len() {
                return Err(corrupt);
            }
            documents[i] = page_buf[start + 4..start + 4 + len].to_vec();
        }
        Ok(documents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::VectorDatabase;
    use reis_ssd::SsdConfig;

    #[test]
    fn fetch_documents_reports_corrupt_slots_instead_of_panicking() {
        let vectors: Vec<Vec<f32>> = (0..24)
            .map(|i| {
                (0..32)
                    .map(|d| (((i * 7 + d) % 13) as f32 - 6.0) / 3.0)
                    .collect()
            })
            .collect();
        let documents: Vec<Vec<u8>> = (0..24).map(|i| format!("doc {i}").into_bytes()).collect();
        let mut ssd = SsdController::new(SsdConfig::tiny());
        let db = VectorDatabase::flat(&vectors, documents).unwrap();
        let deployed = crate::deploy::deploy(&mut ssd, &db, 1).unwrap();

        // Corrupt the first document page: erase its block and reprogram the
        // page with all-ones, which makes every slot's length prefix invalid.
        let geometry = ssd.config().geometry;
        let addr = deployed
            .record
            .document_region
            .page_at(&geometry, 0)
            .unwrap();
        ssd.device_mut().erase_block(addr.block_addr()).unwrap();
        ssd.device_mut()
            .program_page(
                addr,
                &vec![0xFF; geometry.page_size_bytes],
                &[],
                reis_nand::ProgramScheme::EnhancedSlc,
            )
            .unwrap();

        let mut scratch = ScanScratch::new();
        let mut engine = InStorageEngine::new(&mut ssd, &mut scratch);
        let top = [Neighbor::new(0, 0.0)];
        let err = engine.fetch_documents(&deployed, &top).unwrap_err();
        assert!(
            matches!(err, ReisError::CorruptDocument { page: 0, slot: 0 }),
            "expected CorruptDocument, got {err:?}"
        );
    }

    #[test]
    fn merge_page_ranges_coalesces_overlaps() {
        let mut ranges = vec![(5, 7), (0, 2), (1, 4), (7, 9), (12, 12), (10, 11)];
        merge_page_ranges(&mut ranges);
        assert_eq!(ranges, vec![(0, 4), (5, 9), (10, 11)]);
        let mut empty: Vec<(usize, usize)> = vec![(3, 3)];
        merge_page_ranges(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn in_valid_ranges_uses_binary_search_semantics() {
        let ranges = vec![(0u32, 4u32), (10, 10), (20, 29)];
        for (index, expected) in [
            (0, true),
            (4, true),
            (5, false),
            (9, false),
            (10, true),
            (11, false),
            (25, true),
            (30, false),
        ] {
            assert_eq!(in_valid_ranges(&ranges, index), expected, "index {index}");
        }
        assert!(!in_valid_ranges(&[], 0));
    }
}
