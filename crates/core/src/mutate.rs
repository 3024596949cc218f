//! Online index mutations: insert, delete, upsert and compaction.
//!
//! NAND flash permits no in-place update, so every mutation is realised
//! out-of-place, mirroring how an FTL serves host writes:
//!
//! * **Insert** — the new entry's binary embedding, INT8 copy and document
//!   chunk are appended to its cluster's *append segment*: freshly reserved
//!   pages programmed through the controller (ESP-SLC for the embedding run
//!   so the in-plane scan can cover it, TLC for the INT8/document pages),
//!   with the stable id, rescoring address and validity recorded in the
//!   embedding pages' OOB bytes. Cluster assignment reuses the in-storage
//!   coarse path: the centroid pages are scanned and the nearest centroid
//!   (by binary Hamming distance, the same metric the coarse search uses)
//!   wins.
//! * **Delete** — a tombstone: the base-region validity bitmap (or the
//!   segment entry's deletion flag) is set in controller DRAM; the flash
//!   pages are untouched until compaction.
//! * **Upsert** — a delete of the live version plus an append under the
//!   *same* stable id.
//! * **Compaction** — reads the surviving corpus (base + segments, through
//!   the controller with ECC where the scheme needs it), rewrites it as a
//!   densely packed cluster-contiguous base region of a new *generation*,
//!   swaps the R-DB record, releases every old region and erases each block
//!   whose programmed pages all became invalid — returning the space to the
//!   allocator for recycling.
//!
//! The search path (see [`crate::scan`]) composes with all of this:
//! scans cover base + live segments and filter tombstones, so a search
//! after any mutation sequence returns exactly what a from-scratch
//! deployment of the surviving corpus (under the same quantizers and
//! cluster structure) would return.

use std::collections::{BTreeMap, HashMap};

use reis_ann::vector::{BinaryVector, Int8Vector};
use reis_ann::AnnError;
use reis_nand::{Nanos, OobEntry, OobLayout};
use reis_ssd::{DatabaseRecord, RegionKind, SsdController, StripedRegion};
use reis_update::{EntryLocation, SegmentEntry, SlotRef, OOB_INVALID_RADR};

use crate::deploy::{document_page, pad_slot, push_slot, DeployedDatabase, RegionNames};
use crate::error::{ReisError, Result};
use crate::records::{RIvf, RIvfEntry};
use crate::scan::{self, parse_doc_slot};

/// Outcome of one insert/delete/upsert call.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationOutcome {
    /// Stable ids assigned (inserts/upserts) or affected (deletes), in
    /// request order.
    pub ids: Vec<u32>,
    /// Modelled flash latency of the mutation (page programs, and the
    /// centroid scan of the cluster assignment).
    pub latency: Nanos,
    /// Flash pages programmed by the mutation.
    pub pages_programmed: usize,
    /// The compaction this mutation triggered under the configured policy,
    /// if any.
    pub compaction: Option<CompactionOutcome>,
}

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Modelled flash latency of the pass (reads, rewrites and erases).
    pub latency: Nanos,
    /// Pages programmed while rewriting the surviving corpus.
    pub pages_rewritten: usize,
    /// Blocks erased because every programmed page in them was invalid.
    pub blocks_reclaimed: usize,
    /// Live entries in the compacted base region.
    pub live_entries: usize,
}

/// Validate and quantize a batch of vectors/documents for appending: every
/// check runs before anything is quantized, programmed or logged. The
/// batch is borrowed in whatever shape the caller holds it: an insert's
/// `Vec`s, an upsert's one slice of each.
fn encode_batch(
    db: &DeployedDatabase,
    vectors: &[impl AsRef<[f32]>],
    documents: &[impl AsRef<[u8]>],
) -> Result<(Vec<BinaryVector>, Vec<Int8Vector>)> {
    if vectors.len() != documents.len() {
        return Err(ReisError::MalformedDatabase(format!(
            "{} vectors but {} documents in mutation batch",
            vectors.len(),
            documents.len()
        )));
    }
    let dim = db.binary_quantizer.dim();
    for (row, vector) in vectors.iter().enumerate() {
        let vector = vector.as_ref();
        if vector.len() != dim {
            return Err(ReisError::QueryDimensionMismatch {
                expected: dim,
                actual: vector.len(),
            });
        }
        // The quantizers would encode a NaN as a zero bit and a zero INT8
        // level without complaint; searches already refuse one.
        if let Some(component) = vector.iter().position(|x| !x.is_finite()) {
            return Err(AnnError::NonFinite { row, component }.into());
        }
    }
    for document in documents {
        if document.as_ref().len() + 4 > db.layout.doc_slot_bytes {
            return Err(ReisError::MalformedDatabase(format!(
                "document chunk of {} bytes does not fit the deployment's {}-byte slots",
                document.as_ref().len(),
                db.layout.doc_slot_bytes
            )));
        }
    }
    let binaries = vectors
        .iter()
        .map(|v| db.binary_quantizer.quantize(v.as_ref()))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let int8s = vectors
        .iter()
        .map(|v| db.int8_quantizer.quantize(v.as_ref()))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    Ok((binaries, int8s))
}

/// Assign a quantized embedding to its nearest IVF centroid by scanning the
/// centroid pages (binary Hamming distance, ties to the lower cluster — the
/// same total order the coarse search selects under; see
/// [`scan::nearest_centroid`]). Returns the cluster (0 for flat
/// deployments) plus the modelled latency of the scan's page senses.
fn nearest_cluster(
    ssd: &mut SsdController,
    db: &DeployedDatabase,
    binary: &BinaryVector,
) -> Result<(usize, Nanos)> {
    if !db.is_ivf() {
        return Ok((0, Nanos::ZERO));
    }
    let padded = pad_slot(binary.as_bytes(), db.layout.embedding_slot_bytes);
    scan::nearest_centroid(ssd, db, &padded)
}

/// One cluster group of an append batch with its reserved regions.
struct GroupPlan {
    cluster: usize,
    members: Vec<usize>,
    emb_region: StripedRegion,
    int8_region: StripedRegion,
    doc_region: StripedRegion,
}

/// Append already-encoded entries (with pre-assigned stable ids and cluster
/// assignments) into their clusters' segments, programming fresh pages and
/// recording the DRAM-side bookkeeping. Returns the program latency and the
/// number of pages programmed.
///
/// All flash regions of every cluster group are reserved *before* anything
/// is programmed or any bookkeeping mutates, and a failed reservation
/// releases the ones already made — so a batch that cannot fit leaves the
/// database exactly as it was (no phantom entries, no leaked regions).
/// Segment regions are reserved without names: their DRAM records are
/// accounted under the database's one segment allocation.
fn append_entries(
    ssd: &mut SsdController,
    db: &mut DeployedDatabase,
    ids: &[u32],
    binaries: &[BinaryVector],
    int8s: &[Int8Vector],
    documents: &[impl AsRef<[u8]>],
    clusters: &[usize],
) -> Result<(Nanos, usize)> {
    let layout = db.layout;
    let geometry = ssd.config().geometry;
    let oob_layout = OobLayout::new(geometry.oob_size_bytes, layout.embeddings_per_page)?;
    let mut latency = Nanos::ZERO;
    let mut pages_programmed = 0usize;
    let epp = layout.embeddings_per_page;
    let i8pp = layout.int8_per_page;
    let dpp = layout.docs_per_page;
    let slot_bytes = layout.embedding_slot_bytes;
    let doc_page_bytes = (dpp * layout.doc_slot_bytes).min(geometry.page_size_bytes);
    let account = &db.region_names.segments;

    // Group the batch per cluster, preserving batch order within a group so
    // segment append order is deterministic.
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &cluster) in clusters.iter().enumerate() {
        groups.entry(cluster).or_default().push(i);
    }

    // Reservation pass: all-or-nothing.
    let mut plans: Vec<GroupPlan> = Vec::with_capacity(groups.len());
    let mut reserved: Vec<StripedRegion> = Vec::with_capacity(3 * groups.len());
    for (cluster, members) in groups {
        let mut reserve = |pages: usize| -> Result<StripedRegion> {
            let region = ssd.reserve_region_in(account, pages)?;
            reserved.push(region);
            Ok(region)
        };
        let regions = reserve(members.len().div_ceil(epp)).and_then(|emb| {
            let int8 = reserve(members.len().div_ceil(i8pp))?;
            Ok((emb, int8, reserve(members.len().div_ceil(dpp))?))
        });
        match regions {
            Ok((emb_region, int8_region, doc_region)) => plans.push(GroupPlan {
                cluster,
                members,
                emb_region,
                int8_region,
                doc_region,
            }),
            Err(error) => {
                // Unwind: nothing was programmed yet, so releasing every
                // region reserved so far (this group's too) restores the
                // allocator and DRAM exactly.
                for region in &reserved {
                    ssd.release_region_in(account, region);
                }
                return Err(error);
            }
        }
    }

    for GroupPlan {
        cluster,
        members,
        emb_region,
        int8_region,
        doc_region,
    } in plans
    {
        let tag = (cluster % 256) as u8;
        let sid_base = db.updates.store.len() as u32;
        let radr_base = db.updates.base_capacity + sid_base;

        // Embedding pages: slot-padded binaries plus OOB linkage. Unfilled
        // slots get the RADR sentinel so the scan rejects them from the OOB
        // bytes alone (validity recorded at program time). Every page is
        // built at its programmed length and moved into the device.
        for (page, run) in members.chunks(epp).enumerate() {
            let mut data = Vec::with_capacity(run.len() * slot_bytes);
            let mut oob_entries = Vec::with_capacity(epp);
            for (s, &m) in run.iter().enumerate() {
                push_slot(&mut data, binaries[m].as_bytes(), slot_bytes);
                oob_entries.push(OobEntry {
                    dadr: ids[m],
                    radr: radr_base + (page * epp + s) as u32,
                    tag,
                });
            }
            oob_entries.resize(
                epp,
                OobEntry {
                    dadr: u32::MAX,
                    radr: OOB_INVALID_RADR,
                    tag: 0,
                },
            );
            let oob = oob_layout.pack(&oob_entries)?;
            latency += ssd.program_region_page(
                &emb_region,
                page,
                RegionKind::BinaryEmbeddings,
                data,
                &oob,
            )?;
            pages_programmed += 1;
        }
        // INT8 pages.
        for (page, run) in members.chunks(i8pp).enumerate() {
            let mut data = Vec::with_capacity(run.len() * layout.int8_bytes);
            for &m in run {
                data.extend(int8s[m].as_slice().iter().map(|&v| v as u8));
            }
            latency +=
                ssd.program_region_page(&int8_region, page, RegionKind::Int8Embeddings, data, &[])?;
            pages_programmed += 1;
        }
        // Document pages.
        for (page, run) in members.chunks(dpp).enumerate() {
            let data = document_page(
                run.iter().map(|&m| documents[m].as_ref()),
                layout.doc_slot_bytes,
                doc_page_bytes,
            );
            latency +=
                ssd.program_region_page(&doc_region, page, RegionKind::Documents, data, &[])?;
            pages_programmed += 1;
        }

        // DRAM-side bookkeeping: the run joins the cluster's scan set, the
        // regions are remembered for release at compaction, and each member
        // becomes a live, relocatable segment entry.
        db.updates.store.add_run(cluster, emb_region);
        db.updates.store.register_region(emb_region);
        db.updates.store.register_region(int8_region);
        db.updates.store.register_region(doc_region);
        for (j, &m) in members.iter().enumerate() {
            let sid = db.updates.store.push(SegmentEntry {
                id: ids[m],
                cluster,
                embedding: SlotRef {
                    region: emb_region,
                    page: j / epp,
                    slot: j % epp,
                },
                int8: SlotRef {
                    region: int8_region,
                    page: j / i8pp,
                    slot: j % i8pp,
                },
                document: SlotRef {
                    region: doc_region,
                    page: j / dpp,
                    slot: j % dpp,
                },
                deleted: false,
            });
            debug_assert_eq!(sid, sid_base + j as u32);
            db.updates.relocated.insert(ids[m], sid);
        }
    }
    db.updates.stats.segment_pages_programmed += pages_programmed as u64;
    Ok((latency, pages_programmed))
}

/// Insert a batch of entries, assigning fresh stable ids. Returns the ids
/// (in batch order), the flash latency and the pages programmed.
pub(crate) fn insert_batch(
    ssd: &mut SsdController,
    db: &mut DeployedDatabase,
    vectors: &[Vec<f32>],
    documents: &[Vec<u8>],
) -> Result<(Vec<u32>, Nanos, usize)> {
    let ids: Vec<u32> = (0..vectors.len() as u32)
        .map(|i| db.updates.next_id + i)
        .collect();
    let (latency, pages) = insert_batch_at(ssd, db, &ids, vectors, documents)?;
    Ok((ids, latency, pages))
}

/// Insert a batch of entries under *caller-chosen* stable ids (the cluster
/// router uses this so each leaf stores the globally assigned id natively).
/// Every id must be fresh — at or past the database's next unassigned id —
/// and the batch must not repeat an id; `next_id` advances past the largest
/// inserted id so later upserts and plain inserts stay collision-free.
/// Returns the flash latency and the pages programmed.
pub(crate) fn insert_batch_at(
    ssd: &mut SsdController,
    db: &mut DeployedDatabase,
    ids: &[u32],
    vectors: &[Vec<f32>],
    documents: &[Vec<u8>],
) -> Result<(Nanos, usize)> {
    if ids.len() != vectors.len() {
        return Err(ReisError::MalformedDatabase(format!(
            "{} stable ids for {} vectors in routed insert batch",
            ids.len(),
            vectors.len()
        )));
    }
    for &id in ids {
        if id < db.updates.next_id {
            return Err(ReisError::MalformedDatabase(format!(
                "stable id {id} is not fresh (next unassigned id is {})",
                db.updates.next_id
            )));
        }
    }
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err(ReisError::MalformedDatabase(
            "routed insert batch repeats a stable id".to_string(),
        ));
    }
    let (binaries, int8s) = encode_batch(db, vectors, documents)?;
    let mut latency = Nanos::ZERO;
    let mut clusters = Vec::with_capacity(binaries.len());
    for binary in &binaries {
        let (cluster, scan_latency) = nearest_cluster(ssd, db, binary)?;
        clusters.push(cluster);
        latency += scan_latency;
    }
    let appended = append_entries(ssd, db, ids, &binaries, &int8s, documents, &clusters);
    let (append_latency, pages) = appended?;
    if let Some(&max_id) = sorted.last() {
        db.updates.next_id = db.updates.next_id.max(max_id + 1);
    }
    db.updates.stats.inserts += vectors.len() as u64;
    account_update_state(ssd, db)?;
    Ok((latency + append_latency, pages))
}

/// Tombstone the live version of `id`.
pub(crate) fn delete_entry(
    ssd: &mut SsdController,
    db: &mut DeployedDatabase,
    id: u32,
) -> Result<()> {
    let location = db
        .updates
        .locate(id, |id| db.original_to_storage.get(&id).copied())
        .ok_or(ReisError::EntryNotFound(id))?;
    match location {
        EntryLocation::Base(storage) => {
            db.updates.tombstones.mark(storage as usize);
        }
        EntryLocation::Segment(sid) => {
            db.updates.store.mark_deleted(sid);
        }
    }
    db.updates.stats.deletes += 1;
    account_update_state(ssd, db)?;
    Ok(())
}

/// Replace (or revive) the entry with stable id `id`: tombstone the live
/// version, if any, and append the new one under the same id. The id must
/// have been assigned before (by the deployment or an insert). Returns the
/// flash latency, the pages programmed, and whether a live previous version
/// was actually tombstoned (false when the upsert revived a deleted id).
pub(crate) fn upsert_entry(
    ssd: &mut SsdController,
    db: &mut DeployedDatabase,
    id: u32,
    vector: &[f32],
    document: &[u8],
) -> Result<(Nanos, usize, bool)> {
    if id >= db.updates.next_id {
        return Err(ReisError::EntryNotFound(id));
    }
    let (binaries, int8s) = encode_batch(db, &[vector], &[document])?;
    let (cluster, scan_latency) = nearest_cluster(ssd, db, &binaries[0])?;
    // Capture the live version *before* the append (afterwards the
    // relocation table already points at the new one), but only tombstone
    // it once the append has succeeded — a failed upsert must leave the old
    // version live. A missing live version just revives the id.
    let old_location = db
        .updates
        .locate(id, |id| db.original_to_storage.get(&id).copied());
    let (append_latency, pages) =
        append_entries(ssd, db, &[id], &binaries, &int8s, &[document], &[cluster])?;
    let tombstoned = old_location.is_some();
    if let Some(location) = old_location {
        match location {
            EntryLocation::Base(storage) => {
                db.updates.tombstones.mark(storage as usize);
            }
            EntryLocation::Segment(sid) => {
                db.updates.store.mark_deleted(sid);
            }
        }
        db.updates.stats.deletes += 1;
    }
    db.updates.stats.inserts += 1;
    db.updates.stats.upserts += 1;
    account_update_state(ssd, db)?;
    Ok((scan_latency + append_latency, pages, tombstoned))
}

/// Re-account the update state's controller-DRAM footprint (tombstone
/// bitmap, segment entry table, relocation and document-slot maps).
fn account_update_state(ssd: &mut SsdController, db: &DeployedDatabase) -> Result<()> {
    let bytes = db.updates.tombstones.footprint_bytes()
        + db.updates.store.footprint_bytes()
        + db.updates.relocated.len() * 8
        + db.updates.doc_slots.as_ref().map_or(0, |m| m.len() * 8);
    ssd.dram_mut()
        .allocate(&db.region_names.update_state, bytes)?;
    Ok(())
}

/// One surviving logical entry, staged in host memory between the read and
/// rewrite halves of a compaction pass — and the unit a durable snapshot
/// stores per entry (`crate::durable` reads survivors through the same
/// path, so what a snapshot persists is exactly what a compaction would
/// rewrite).
pub(crate) struct Survivor {
    pub(crate) id: u32,
    pub(crate) tag: u8,
    pub(crate) binary: Vec<u8>,
    pub(crate) int8: Vec<u8>,
    pub(crate) doc: Vec<u8>,
}

/// The full surviving corpus of one database as read back from flash:
/// survivors in logical scan order, per-cluster `(begin, end)` bounds over
/// that vector, and the accumulated modelled read latency.
pub(crate) struct Sweep {
    pub(crate) survivors: Vec<Survivor>,
    pub(crate) cluster_bounds: Vec<(usize, usize)>,
    pub(crate) read_latency: Nanos,
}

/// One-page staging cache for a single payload kind. Compaction keeps one
/// per kind (embedding / INT8 / document), so the per-survivor interleaved
/// reads do not evict each other and every page is read once per kind, not
/// once per survivor.
#[derive(Default)]
struct PageCache {
    key: Option<(usize, usize)>,
    buf: Vec<u8>,
}

impl PageCache {
    /// Stage a region page in the cache unless it already is, returning the
    /// read latency (zero on a hit).
    fn load(
        &mut self,
        ssd: &mut SsdController,
        region: &StripedRegion,
        page: usize,
        kind: RegionKind,
    ) -> Result<Nanos> {
        if self.key == Some((region.start, page)) {
            return Ok(Nanos::ZERO);
        }
        let view = ssd.read_region_page_view(region, page, kind)?;
        self.buf.clear();
        self.buf.extend_from_slice(view.data);
        self.key = Some((region.start, page));
        Ok(view.latency)
    }
}

/// Read the surviving corpus of a database from flash, cluster-major, base
/// entries before segment entries (the same logical order the mutated scan
/// visits entries in, so downstream consumers preserve every deterministic
/// tie-break). Returns the survivors, per-cluster `(begin, end)` bounds
/// over the survivor vector and the accumulated read latency.
///
/// This is the shared read half of both [`compact`] (which rewrites the
/// corpus as a new region generation) and `crate::durable` snapshots
/// (which persist it byte-for-byte).
pub(crate) fn collect_survivors(ssd: &mut SsdController, db: &DeployedDatabase) -> Result<Sweep> {
    let old_layout = db.layout;
    let nclusters = db.update_clusters();
    let mut latency = Nanos::ZERO;
    let mut survivors: Vec<Survivor> = Vec::with_capacity(db.live_entries());
    let mut cluster_bounds: Vec<(usize, usize)> = Vec::with_capacity(nclusters);
    let mut emb_cache = PageCache::default();
    let mut int8_cache = PageCache::default();
    let mut doc_cache = PageCache::default();

    for cluster in 0..nclusters {
        let begin = survivors.len();
        // Base members of the cluster, in storage order.
        let base_range = if db.is_ivf() {
            db.rivf
                .entry(cluster)
                .filter(|e| e.member_count() > 0)
                .map(|e| (e.first_embedding as usize, e.last_embedding as usize + 1))
        } else if old_layout.entries > 0 {
            Some((0, old_layout.entries))
        } else {
            None
        };
        if let Some((first, end)) = base_range {
            for storage in first..end {
                if db.updates.tombstones.contains(storage) {
                    continue;
                }
                let id = db.storage_to_original[storage];
                let tag = db.storage_tags[storage];
                let (epage, eslot) = old_layout.embedding_location(storage);
                latency += emb_cache.load(
                    ssd,
                    &db.record.embedding_region,
                    old_layout.centroid_pages + epage,
                    RegionKind::BinaryEmbeddings,
                )?;
                let estart = eslot * old_layout.embedding_slot_bytes;
                let binary = emb_cache.buf[estart..estart + old_layout.embedding_bytes].to_vec();
                let (ipage, islot) = old_layout.int8_location(storage);
                latency += int8_cache.load(
                    ssd,
                    &db.record.int8_region,
                    ipage,
                    RegionKind::Int8Embeddings,
                )?;
                let istart = islot * old_layout.int8_bytes;
                let int8 = int8_cache.buf[istart..istart + old_layout.int8_bytes].to_vec();
                let doc_index = db
                    .updates
                    .base_doc_slot(id)
                    .ok_or(ReisError::EntryNotFound(id))? as usize;
                let (dpage, dslot) = old_layout.document_location(doc_index);
                latency += doc_cache.load(
                    ssd,
                    &db.record.document_region,
                    dpage,
                    RegionKind::Documents,
                )?;
                let doc = parse_doc_slot(&doc_cache.buf, dslot, old_layout.doc_slot_bytes, dpage)?;
                survivors.push(Survivor {
                    id,
                    tag,
                    binary,
                    int8,
                    doc,
                });
            }
        }
        // Live segment members of the cluster, in append order.
        for entry in db.updates.store.entries() {
            if entry.cluster != cluster || entry.deleted {
                continue;
            }
            latency += emb_cache.load(
                ssd,
                &entry.embedding.region,
                entry.embedding.page,
                RegionKind::BinaryEmbeddings,
            )?;
            let estart = entry.embedding.slot * old_layout.embedding_slot_bytes;
            let binary = emb_cache.buf[estart..estart + old_layout.embedding_bytes].to_vec();
            latency += int8_cache.load(
                ssd,
                &entry.int8.region,
                entry.int8.page,
                RegionKind::Int8Embeddings,
            )?;
            let istart = entry.int8.slot * old_layout.int8_bytes;
            let int8 = int8_cache.buf[istart..istart + old_layout.int8_bytes].to_vec();
            latency += doc_cache.load(
                ssd,
                &entry.document.region,
                entry.document.page,
                RegionKind::Documents,
            )?;
            let doc = parse_doc_slot(
                &doc_cache.buf,
                entry.document.slot,
                old_layout.doc_slot_bytes,
                entry.document.page,
            )?;
            survivors.push(Survivor {
                id: entry.id,
                tag: (cluster % 256) as u8,
                binary,
                int8,
                doc,
            });
        }
        cluster_bounds.push((begin, survivors.len()));
    }
    Ok(Sweep {
        survivors,
        cluster_bounds,
        read_latency: latency,
    })
}

/// Fold the database's append segments and tombstones back into a densely
/// packed base region: read the surviving corpus, rewrite it as a new
/// region generation, swap the R-DB record, release every superseded region
/// and erase the blocks they complete.
pub(crate) fn compact(
    ssd: &mut SsdController,
    db: &mut DeployedDatabase,
) -> Result<CompactionOutcome> {
    let old_layout = db.layout;
    let nclusters = db.update_clusters();

    // ---- Read the surviving corpus.
    let sweep = collect_survivors(ssd, db)?;
    let (survivors, cluster_bounds) = (sweep.survivors, sweep.cluster_bounds);
    let mut latency = sweep.read_latency;
    debug_assert_eq!(cluster_bounds.len(), nclusters);

    // Stage the centroid pages (data + OOB) for verbatim rewrite.
    let mut centroid_pages: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(old_layout.centroid_pages);
    for page in 0..old_layout.centroid_pages {
        let view = ssd.read_region_page_view(
            &db.record.embedding_region,
            page,
            RegionKind::BinaryEmbeddings,
        )?;
        latency += view.latency;
        centroid_pages.push((view.data.to_vec(), view.oob.to_vec()));
    }

    // ---- Rewrite as a new region generation.
    let total = survivors.len();
    let new_layout = old_layout.with_entries(total);
    let generation = db.updates.generation + 1;
    let names = RegionNames::generation(db.db_id, generation);
    let geometry = ssd.config().geometry;
    let oob_layout = OobLayout::new(geometry.oob_size_bytes, new_layout.embeddings_per_page)?;
    let emb_region = ssd.reserve_region(
        &names.embeddings,
        new_layout.centroid_pages + new_layout.embedding_pages,
    )?;
    let int8_region = ssd.reserve_region(&names.int8, new_layout.int8_pages)?;
    let doc_region = ssd.reserve_region(&names.documents, new_layout.doc_pages)?;
    let mut pages_rewritten = 0usize;

    for (page, (data, oob)) in centroid_pages.into_iter().enumerate() {
        latency += ssd.program_region_page(&emb_region, page, RegionKind::Centroids, data, &oob)?;
        pages_rewritten += 1;
    }
    let epp = new_layout.embeddings_per_page;
    let slot_bytes = new_layout.embedding_slot_bytes;
    for (page, run) in survivors.chunks(epp).enumerate() {
        let mut data = Vec::with_capacity(run.len() * slot_bytes);
        let mut oob_entries = Vec::with_capacity(epp);
        for (s, survivor) in run.iter().enumerate() {
            push_slot(&mut data, &survivor.binary, slot_bytes);
            oob_entries.push(OobEntry {
                dadr: survivor.id,
                radr: (page * epp + s) as u32,
                tag: survivor.tag,
            });
        }
        oob_entries.resize(
            epp,
            OobEntry {
                dadr: u32::MAX,
                radr: OOB_INVALID_RADR,
                tag: 0,
            },
        );
        let oob = oob_layout.pack(&oob_entries)?;
        latency += ssd.program_region_page(
            &emb_region,
            new_layout.centroid_pages + page,
            RegionKind::BinaryEmbeddings,
            data,
            &oob,
        )?;
        pages_rewritten += 1;
    }
    for (page, run) in survivors.chunks(new_layout.int8_per_page).enumerate() {
        let mut data = Vec::with_capacity(run.len() * new_layout.int8_bytes);
        for survivor in run {
            data.extend_from_slice(&survivor.int8);
        }
        latency +=
            ssd.program_region_page(&int8_region, page, RegionKind::Int8Embeddings, data, &[])?;
        pages_rewritten += 1;
    }
    let doc_page_bytes =
        (new_layout.docs_per_page * new_layout.doc_slot_bytes).min(geometry.page_size_bytes);
    for (page, run) in survivors.chunks(new_layout.docs_per_page).enumerate() {
        let data = document_page(
            run.iter().map(|survivor| survivor.doc.as_slice()),
            new_layout.doc_slot_bytes,
            doc_page_bytes,
        );
        latency += ssd.program_region_page(&doc_region, page, RegionKind::Documents, data, &[])?;
        pages_rewritten += 1;
    }

    // ---- Swap the metadata: R-IVF ranges, R-DB record, host-side maps.
    let rivf = if db.is_ivf() {
        // One bound per R-IVF entry: `collect_survivors` walked the same
        // `update_clusters()` clusters.
        let entries = db
            .rivf
            .entries()
            .iter()
            .zip(&cluster_bounds)
            .map(|(old, &(begin, end))| {
                if begin == end {
                    RIvfEntry {
                        first_embedding: 1,
                        last_embedding: 0,
                        ..*old
                    }
                } else {
                    RIvfEntry {
                        first_embedding: begin as u32,
                        last_embedding: (end - 1) as u32,
                        ..*old
                    }
                }
            })
            .collect();
        RIvf::new(entries)
    } else {
        RIvf::new(Vec::new())
    };
    let record = DatabaseRecord {
        db_id: db.db_id,
        embedding_region: emb_region,
        int8_region,
        document_region: doc_region,
        entries: total,
    };
    ssd.coarse_ftl_mut().remove(db.db_id)?;
    ssd.coarse_ftl_mut().deploy(record)?;
    ssd.dram_mut()
        .allocate(&format!("db{}/r-ivf", db.db_id), rivf.footprint_bytes())?;

    // ---- Release everything the new generation supersedes, then erase the
    // blocks whose programmed pages all became invalid.
    let old_names = &db.region_names;
    ssd.release_region(&old_names.embeddings, &db.record.embedding_region);
    ssd.release_region(&old_names.int8, &db.record.int8_region);
    ssd.release_region(&old_names.documents, &db.record.document_region);
    for region in db.updates.store.regions() {
        ssd.release_region_in(&old_names.segments, region);
    }
    let (blocks_reclaimed, erase_latency) = ssd.reclaim_invalid_blocks()?;
    latency += erase_latency;

    // ---- Install the new generation on the host-side handle.
    let storage_to_original: Vec<u32> = survivors.iter().map(|s| s.id).collect();
    let original_to_storage: HashMap<u32, u32> = storage_to_original
        .iter()
        .enumerate()
        .map(|(storage, &id)| (id, storage as u32))
        .collect();
    let doc_slots: HashMap<u32, u32> = original_to_storage.clone();
    db.layout = new_layout;
    db.record = record;
    db.region_names = names;
    db.rivf = rivf;
    db.storage_tags = survivors.iter().map(|s| s.tag).collect();
    db.storage_to_original = storage_to_original;
    db.original_to_storage = original_to_storage;
    db.updates
        .reset_after_compaction(total, nclusters, doc_slots);
    db.updates.stats.pages_rewritten += pages_rewritten as u64;
    db.updates.stats.blocks_reclaimed += blocks_reclaimed as u64;
    account_update_state(ssd, db)?;

    Ok(CompactionOutcome {
        latency,
        pages_rewritten,
        blocks_reclaimed,
        live_entries: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{ClusterInfo, VectorDatabase};
    use proptest::prelude::*;
    use reis_ann::quantize::{BinaryQuantizer, Int8Quantizer};
    use reis_ssd::SsdConfig;

    /// An IVF deployment whose centroids are exactly `centroids` (one entry
    /// per cluster) on a tiny device.
    fn deployed(dim: usize, centroids: &[Vec<u8>]) -> (SsdController, DeployedDatabase) {
        let binary: Vec<BinaryVector> = centroids
            .iter()
            .map(|bytes| BinaryVector::from_packed(dim, bytes.clone()))
            .collect();
        let n = centroids.len();
        let database = VectorDatabase::from_quantized_parts(
            dim,
            binary.clone(),
            vec![Int8Vector::new(vec![0; dim]); n],
            (0..n).map(|i| format!("doc {i}").into_bytes()).collect(),
            BinaryQuantizer::zero_threshold(dim),
            Int8Quantizer::from_parts(vec![0.0; dim], vec![1.0; dim]),
            Some(ClusterInfo {
                centroids: binary,
                lists: (0..n).map(|i| vec![i]).collect(),
            }),
        )
        .unwrap();
        let mut ssd = SsdController::new(SsdConfig::tiny());
        let db = crate::deploy::deploy(&mut ssd, &database, 1).unwrap();
        (ssd, db)
    }

    fn hamming(a: &[u8], b: &[u8]) -> u32 {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    proptest! {
        /// The fused-kernel centroid walk picks the brute-force minimum of
        /// `(distance, cluster)` — ties, forced by duplicated centroids and
        /// by queries equal to one, go to the lower cluster — and prices
        /// one sense per centroid page and nothing else.
        #[test]
        fn nearest_cluster_is_the_brute_force_minimum(
            dim_choice in 0usize..3,
            random_centroids in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 64), 1..150),
            duplicates in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..20),
            query_bytes in proptest::collection::vec(any::<u8>(), 64),
            query_is_centroid in any::<bool>(),
            query_index in any::<usize>(),
        ) {
            let dim_bytes = [8, 32, 64][dim_choice];
            let mut centroids: Vec<Vec<u8>> = random_centroids
                .into_iter()
                .map(|mut bytes| {
                    bytes.truncate(dim_bytes);
                    bytes
                })
                .collect();
            let n = centroids.len();
            for (from, to) in duplicates {
                centroids[to % n] = centroids[from % n].clone();
            }
            let query = if query_is_centroid {
                centroids[query_index % n].clone()
            } else {
                query_bytes[..dim_bytes].to_vec()
            };
            let (mut ssd, db) = deployed(8 * dim_bytes, &centroids);
            let expected = (0..n)
                .map(|c| (hamming(&query, &centroids[c]), c))
                .min()
                .unwrap()
                .1;
            let before = *ssd.device().stats();
            let dram_before = ssd.dram().bytes_written();
            let (cluster, latency) =
                nearest_cluster(&mut ssd, &db, &BinaryVector::from_packed(8 * dim_bytes, query))
                    .unwrap();
            prop_assert_eq!(cluster, expected);

            let pages = db.layout.centroid_pages;
            prop_assert!(pages >= 1);
            let timing = ssd.config().timing;
            let scheme = ssd.hybrid_policy().scheme_for(RegionKind::Centroids);
            let sense = timing.read_latency(scheme) + timing.t_command_overhead;
            prop_assert_eq!(latency, sense * pages as u64);
            let mut expected_stats = before;
            expected_stats.page_reads += pages as u64;
            prop_assert_eq!(ssd.device().stats(), &expected_stats);
            prop_assert_eq!(ssd.dram().bytes_written(), dram_before);
        }
    }
}
