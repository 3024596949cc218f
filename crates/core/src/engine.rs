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
//! read each page once through the controller's borrowed read
//! (`read_in_page_order`), scoring or copying the one slot they need straight
//! out of the view — no page cache map, no staging copy of the page, no
//! per-candidate vector copies and no per-page allocation.

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
    /// Where each rerank candidate's INT8 copy (or each result's document)
    /// lives, and the page-sorted order the phase visits them in.
    slots: SlotPlan,
    /// Rerank scoring buffer: exact INT8 distances keyed for the
    /// deterministic `(distance, storage position)` tie-break.
    rerank_buf: Vec<RerankCandidate>,
    /// Number of fine-search candidates requested (bounds `ttl.top`).
    pub(crate) candidate_count: usize,
}

impl ScanScratch {
    /// Create an empty scratch.
    pub fn new() -> Self {
        ScanScratch::default()
    }
}

/// One payload slot on flash: the region, the page within it, the slot
/// within the page.
type SlotLocation = (StripedRegion, usize, usize);

/// The payload slots one downstream phase reads, pooled across queries: the
/// resolved locations in candidate order and the page-sorted visit order.
#[derive(Debug, Default)]
struct SlotPlan {
    locations: Vec<SlotLocation>,
    order: Vec<usize>,
}

impl SlotPlan {
    /// Read the pages behind the locations in `(region, page)` order — every
    /// distinct page once, through the controller's borrowed read — and hand
    /// `visit` each location's index, page, slot and page bytes. Returns the
    /// number of pages read. The one page-ordered read loop of the rerank
    /// and document phases.
    fn read_in_page_order(
        &mut self,
        ssd: &mut SsdController,
        kind: RegionKind,
        mut visit: impl FnMut(usize, usize, usize, &[u8]) -> Result<()>,
    ) -> Result<usize> {
        let SlotPlan { locations, order } = self;
        let page_of = |&i: &usize| (locations[i].0.start, locations[i].1);
        order.clear();
        order.extend(0..locations.len());
        order.sort_unstable_by_key(page_of);
        let mut pages_read = 0;
        for same_page in order.chunk_by(|a, b| page_of(a) == page_of(b)) {
            let (region, page, _) = locations[same_page[0]];
            let view = ssd.read_region_page_view(&region, page, kind)?;
            pages_read += 1;
            for &i in same_page {
                visit(i, page, locations[i].2, view.data)?;
            }
        }
        Ok(pages_read)
    }
}

/// Parse a document slot (4-byte length prefix + payload) out of a document
/// page.
pub(crate) fn parse_doc_slot(
    page_bytes: &[u8],
    slot: usize,
    slot_bytes: usize,
    page: usize,
) -> Result<Vec<u8>> {
    let start = slot * slot_bytes;
    let corrupt = ReisError::CorruptDocument { page, slot };
    let Some(&[a, b, c, d]) = page_bytes.get(start..start + 4) else {
        return Err(corrupt);
    };
    let len = u32::from_le_bytes([a, b, c, d]) as usize;
    if len > slot_bytes - 4 || start + 4 + len > page_bytes.len() {
        return Err(corrupt);
    }
    Ok(page_bytes[start + 4..start + 4 + len].to_vec())
}

/// Score rerank candidates in INT8 precision: resolve each one's INT8 copy
/// (base-region candidates through the layout's RADR arithmetic,
/// append-segment candidates through the segment store's slot references),
/// read the TLC pages in page order through the controller (with ECC) and
/// hand `scored` each candidate with its exact squared distance. Returns the
/// number of distinct INT8 pages read.
///
/// # Errors
///
/// [`ReisError::EntryNotFound`] if a candidate's segment entry is gone or
/// tombstoned (cannot happen for candidates of a scan over the same state);
/// flash read errors.
fn score_candidates(
    ssd: &mut SsdController,
    db: &DeployedDatabase,
    candidates: &[TtlEntry],
    slots: &mut SlotPlan,
    query_int8: &Int8Vector,
    mut scored: impl FnMut(&TtlEntry, i64),
) -> Result<usize> {
    let layout = db.layout;
    let base_capacity = db.updates.base_capacity;
    slots.locations.clear();
    for candidate in candidates {
        slots.locations.push(if candidate.radr < base_capacity {
            let (page, slot) = layout.int8_location(candidate.radr as usize);
            (db.record.int8_region, page, slot)
        } else {
            let entry = db
                .updates
                .store
                .entry(candidate.radr - base_capacity)
                .filter(|entry| !entry.deleted)
                .ok_or(ReisError::EntryNotFound(candidate.dadr))?;
            (entry.int8.region, entry.int8.page, entry.int8.slot)
        });
    }
    slots.read_in_page_order(ssd, RegionKind::Int8Embeddings, |i, _, slot, page| {
        let start = slot * layout.int8_bytes;
        let raw = query_int8.squared_l2_raw(&page[start..start + layout.int8_bytes]);
        scored(&candidates[i], raw);
        Ok(())
    })
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
    /// core (see `score_candidates`) and return the `k` nearest as
    /// `(original id, INT8 squared distance)` plus the number of distinct
    /// INT8 pages read. The final ranking ties on `(distance,
    /// storage_index)`, matching the candidate selection's total order.
    ///
    /// # Errors
    ///
    /// [`ReisError::EntryNotFound`] if a candidate's segment entry is gone or
    /// tombstoned; flash read errors.
    pub fn rerank(
        &mut self,
        db: &DeployedDatabase,
        query_int8: &Int8Vector,
        k: usize,
    ) -> Result<(Vec<Neighbor>, usize)> {
        let ScanScratch {
            ttl,
            slots,
            rerank_buf,
            candidate_count,
        } = &mut *self.scratch;
        let candidates = ttl.top(*candidate_count);
        rerank_buf.clear();
        let pages_read = score_candidates(
            self.ssd,
            db,
            candidates,
            slots,
            query_int8,
            |candidate, raw| {
                rerank_buf.push(RerankCandidate {
                    raw,
                    storage_index: candidate.storage_index,
                    dadr: candidate.dadr,
                });
            },
        )?;
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
    ///
    /// # Errors
    ///
    /// Same conditions as [`InStorageEngine::rerank`].
    pub fn rerank_all(
        &mut self,
        db: &DeployedDatabase,
        query_int8: &Int8Vector,
    ) -> Result<(Vec<LeafCandidate>, usize)> {
        let ScanScratch {
            ttl,
            slots,
            candidate_count,
            ..
        } = &mut *self.scratch;
        let candidates = ttl.top(*candidate_count);
        let mut scored: Vec<LeafCandidate> = Vec::with_capacity(candidates.len());
        let pages_read = score_candidates(
            self.ssd,
            db,
            candidates,
            slots,
            query_int8,
            |candidate, raw| {
                scored.push(LeafCandidate {
                    binary: candidate.distance,
                    storage_index: candidate.storage_index,
                    id: candidate.dadr,
                    raw,
                });
            },
        )?;
        scored.sort_unstable_by_key(|c| (c.binary, c.storage_index));
        Ok((scored, pages_read))
    }

    /// Document identification and retrieval: read the chunks of the top-k
    /// results from the document regions, in page order (each document page
    /// is read once), validating every slot's length prefix and copying the
    /// payload straight out of the controller's page view.
    ///
    /// A result id resolves to its live chunk: relocated ids (inserts, and
    /// upserts of base entries) read from their append-segment page; base
    /// ids read from the base document region at the slot the update state
    /// maps them to (identity before the first compaction).
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
        let slots = &mut self.scratch.slots;
        slots.locations.clear();
        for neighbor in top {
            let id = neighbor.id as u32;
            slots
                .locations
                .push(if let Some(&sid) = db.updates.relocated.get(&id) {
                    let entry = db
                        .updates
                        .store
                        .entry(sid)
                        .ok_or(ReisError::EntryNotFound(id))?;
                    (
                        entry.document.region,
                        entry.document.page,
                        entry.document.slot,
                    )
                } else {
                    let slot_index =
                        db.updates
                            .base_doc_slot(id)
                            .ok_or(ReisError::EntryNotFound(id))? as usize;
                    let (page, slot) = layout.document_location(slot_index);
                    (db.record.document_region, page, slot)
                });
        }

        let mut documents: Vec<Vec<u8>> = vec![Vec::new(); top.len()];
        slots.read_in_page_order(self.ssd, RegionKind::Documents, |i, page, slot, bytes| {
            documents[i] = parse_doc_slot(bytes, slot, layout.doc_slot_bytes, page)?;
            Ok(())
        })?;
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
    fn rerank_reports_a_segment_entry_tombstoned_since_the_scan() {
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
        let mut deployed = crate::deploy::deploy(&mut ssd, &db, 1).unwrap();
        let (ids, _, _) = crate::mutate::insert_batch(
            &mut ssd,
            &mut deployed,
            &[vectors[3].clone()],
            &[b"appended".to_vec()],
        )
        .unwrap();
        let sid = deployed.updates.relocated[&ids[0]];

        // The scan admits the live append-segment entry as a candidate...
        let linkage = OobEntry {
            dadr: ids[0],
            radr: deployed.updates.base_capacity + sid,
            tag: 0,
        };
        let candidate = segment_scan_entry(
            &deployed.updates.store,
            deployed.updates.base_capacity,
            0,
            linkage,
        )
        .expect("a live segment entry passes the scan");
        let mut scratch = ScanScratch::new();
        scratch.ttl.push(candidate);
        scratch.candidate_count = 1;
        let query = deployed.int8_quantizer.quantize(&vectors[3]).unwrap();
        let mut engine = InStorageEngine::new(&mut ssd, &mut scratch);
        let (top, pages) = engine.rerank(&deployed, &query, 1).unwrap();
        assert_eq!((top[0].id, pages), (ids[0] as usize, 1));

        // ...and is tombstoned before the rerank gets to it.
        assert!(deployed.updates.store.mark_deleted(sid));
        let mut engine = InStorageEngine::new(&mut ssd, &mut scratch);
        for err in [
            engine.rerank(&deployed, &query, 1).unwrap_err(),
            engine.rerank_all(&deployed, &query).unwrap_err(),
        ] {
            assert!(
                matches!(err, ReisError::EntryNotFound(id) if id == ids[0]),
                "expected EntryNotFound({}), got {err:?}",
                ids[0]
            );
        }
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
