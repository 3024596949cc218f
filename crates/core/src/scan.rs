//! The scan core: the one executor behind every search entry point.
//!
//! `search`, `ivf_search*`, the three `*_batch*` methods and `leaf_query`
//! all build a `Request` and call `execute`; a single query is a batch
//! of one. The core has four parts.
//!
//! * **The plan.** A query set of size B ≥ 1, each query with its own fine
//!   selection (`plan_fine_selection`), and an ordered page list
//!   walked in three *passes*: the centroid pages (IVF only), the merged base
//!   ranges, then the probed clusters' append-segment runs. A pass is a list
//!   of `Span`s — runs of consecutive pages of one region that the same
//!   queries score — so each distinct page is sensed **once** however many
//!   queries cover it, the way REIS amortizes flash sensing across in-flight
//!   queries.
//! * **The page body** (`PageBody::score_page`): the threshold-aware fused
//!   kernel ([`PassFailChecker::filter_fused`]) scores one sensed page
//!   against every covering query in a single pass over the page words, the
//!   OOB linkage of a passing slot unpacks once for all queries that passed
//!   it, and the pass's admission rule (`coarse_scan_entry`,
//!   `base_scan_entry`, `segment_scan_entry`) turns hits into
//!   Temporal-Top-List entries.
//! * **The pass driver** (`Scan::run_pass`): cuts the pass at the next
//!   adaptive-window barrier of any in-flight query (a non-adapting pass is
//!   one chunk), picks the chunk's shard count with
//!   [`ScanParallelism::effective_shards`](crate::config::ScanParallelism),
//!   runs the shards as pool tasks — inline when the count is one —, merges
//!   them in shard order and tightens the thresholds of the queries that
//!   completed a window (`tighten_threshold`). The same driver runs the
//!   coarse, base and segment passes.
//! * **The lifecycle** (`execute`): validate → quantise → scan → select →
//!   rerank → fetch → [`QueryActivity`] → price → telemetry, per query.
//!   The rerank scores every selected candidate once, into a
//!   [`LeafCandidate`] at its position in the selection's `(distance,
//!   storage_index)` order. A device search then ranks that scored set with
//!   [`merge_top_k`] over one leaf — the rule the cluster aggregator runs
//!   over many — and fetches the winners' documents; a leaf query hands the
//!   scored set back.
//!
//! # Why the special cases are special cases
//!
//! * *One query is a batch of one.* Every per-query quantity — candidates,
//!   counters, thresholds, window positions — lives in that query's own
//!   slot; queries only share the sensed page bytes. A query is charged
//!   every page its own selection covers, even though the device sensed the
//!   page once for the whole batch, so per-query outcomes do not depend on
//!   what else was in flight.
//! * *One shard is a sharded scan with one shard.* Within a chunk every
//!   threshold is constant, admission is per slot, and candidate selection
//!   keys on the `(distance, storage_index)` total order, so the merged
//!   state is independent of how the chunk's pages were partitioned.
//! * *A static scan is an adaptive scan with one window.* A query's
//!   threshold tightens only at barriers every
//!   [`adaptive_window_pages`](crate::config::ReisConfig::adaptive_window_pages)
//!   pages of its own page list, from the TTL state of its completed
//!   windows; a scan that does not adapt never cuts its passes.
//!
//! Adapting queries of one batch may probe different clusters in different
//! orders. Their base pages are a subsequence of the ascending union walk,
//! so one walk serves them all; their segment runs are walked once per
//! group of queries sharing a probe order (equal order ⇒ equal page list ⇒
//! aligned windows). Statically filtered batches fuse segments per cluster,
//! since admission is then order-independent.
//!
//! # The two page readers
//!
//! The device keeps every page in one table in stripe order
//! ([`reis_nand::Geometry::stripe_index`]), the order regions are laid out
//! in: page `offset` of a region sits at stripe position `start + offset`,
//! so finding it is one table index and no physical address is built.
//! Embedding regions normally read error-free (ESP-SLC), so the core borrows
//! stored pages straight from the controller at that position
//! ([`SsdController::scan_region_page`]), shares the controller immutably
//! across shards and folds the physical activity back afterwards. A stored
//! page is lent as programmed — an append-segment page holding one embedding
//! is one slot long — so the kernel reads what was written, while every
//! counter goes on saying what the plane does: a full page of slots. On a
//! device whose embedding scheme injects read errors the page must be
//! sensed ([`reis_nand::FlashDevice::sense`], at the same stripe position)
//! so the errors land in the scored bytes: that reader builds the sensed
//! page in a buffer of its own, standing in for the plane's sensing latch,
//! and since every sense advances the device's error stream it runs on one
//! shard. [`reis_nand::FlashDevice::read_is_error_free`] decides — it is
//! something the core observes, not an option. Neither reader builds a
//! physical page address.
//!
//! A sharded chunk is cut, in chunk order, into contiguous page runs of
//! nearly equal length, one per shard (`cut_into_runs`). Shards are how the
//! host spreads the simulation over its cores: the modelled device time
//! prices the whole scan's activity, whichever shard read a page.
//!
//! Reranking and document retrieval sort their slots by flash page and read
//! each page once through the controller's borrowed read
//! (`SlotPlan::read_in_page_order`), scoring or copying the one slot they
//! need straight out of the view — no page cache map, no staging copy of the
//! page, no per-candidate vector copies and no per-page allocation. The
//! loop is *resolve → prefetch → read*: a first pass over the page order
//! resolves every page to its stripe position and stored bytes through the
//! uncounted borrow ([`SsdController::scan_region_page`]), then hints each
//! slot's cache lines in ([`reis_nand::prefetch`]), so the request's
//! scattered slots miss in parallel rather than one after another; the
//! second pass does the counted reads at those stripe positions
//! ([`SsdController::read_page_view`]) and scores or copies. The first pass
//! counts nothing and skips a page that fails to resolve, so every counter,
//! byte and error — that page's included — is what one counted pass gives.
//! A batch runs the loop per query.
//!
//! # Accounting
//!
//! After the scan the *physical* flash activity — each page sensed once, the
//! in-plane XOR/count/check per `(page, query)` pair, the aggregate TTL
//! traffic, every query's input broadcast — is folded into the controller,
//! also when a pass failed midway. Each outcome's `flash_stats` is the
//! query's *logical* share: its own pages, its broadcast, and the device
//! delta of its rerank and document reads.

use std::time::Instant;

use reis_ann::topk::Neighbor;
use reis_ann::vector::Int8Vector;
use reis_nand::peripheral::PassFailChecker;
use reis_nand::{prefetch, FlashStats, FusedHit, Nanos, OobEntry, OobLayout};
use reis_sched::WorkerPool;
use reis_ssd::{RegionKind, SsdController, StripedRegion};
use reis_telemetry::{
    CounterId, ExplainEvent, ExplainTrace, HistogramId, QueryTrace, Span as TraceSpan, Telemetry,
};
use reis_update::OOB_INVALID_RADR;

use crate::config::ReisConfig;
use crate::deploy::DeployedDatabase;
use crate::energy::EnergyModel;
use crate::error::{ReisError, Result};
use crate::layout::LayoutPlan;
use crate::leaf::{merge_top_k, LeafCandidate};
use crate::perf::{PerfModel, QueryActivity};
use crate::records::{TemporalTopList, TtlEntry};
use crate::system::SearchOutcome;

/// Activity counters of one scan pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ScanCounts {
    /// Pages sensed.
    pages: usize,
    /// Embedding slots whose distance was computed.
    slots_scanned: usize,
    /// Entries that passed the distance filter and were transferred.
    entries_passed: usize,
    /// Adaptive window barriers crossed (0 for static-threshold scans): the
    /// number of times the embedded core re-ran quickselect over the
    /// accumulated Temporal Top List to tighten the in-plane threshold.
    windows: usize,
}

impl ScanCounts {
    /// Fold the page/slot/entry counters of one shard into this one (window
    /// barriers are counted by the pass driver, not by its shards, so they
    /// do not accumulate here).
    fn absorb(&mut self, other: ScanCounts) {
        self.pages += other.pages;
        self.slots_scanned += other.slots_scanned;
        self.entries_passed += other.entries_passed;
    }
}

/// Reusable buffers of the phases downstream of the scan, created once per
/// system so steady-state reranking and document fetching perform no
/// per-page heap allocation.
#[derive(Debug, Default)]
pub(crate) struct ScanScratch {
    /// Where each rerank candidate's INT8 copy (or each result's document)
    /// lives, and the page-sorted order the phase visits them in.
    slots: SlotPlan,
    /// The current query's scored candidates, in selection order.
    scored: Vec<LeafCandidate>,
}

/// One payload slot on flash: the region, the page within it, the slot
/// within the page.
type SlotLocation = (StripedRegion, usize, usize);

/// The payload slots one downstream phase reads, pooled across queries: the
/// resolved locations in candidate order, the page-sorted visit order and
/// each visited page's stripe position.
#[derive(Debug, Default)]
struct SlotPlan {
    locations: Vec<SlotLocation>,
    order: Vec<usize>,
    /// One entry per distinct page, in visit order: the page's stripe
    /// position, or `None` where resolving it failed, so that the counted
    /// read surfaces the error at the page it belongs to.
    pages: Vec<Option<usize>>,
}

impl SlotPlan {
    /// Read the pages behind the locations in `(region, page)` order — every
    /// distinct page once, through the controller's borrowed read — and hand
    /// `visit` each location's index, page, slot and page bytes. Returns the
    /// number of pages read. The one page-ordered read loop of the rerank
    /// and document phases.
    ///
    /// Two passes over the same order. The first resolves every page to
    /// its stripe position and stored bytes through the uncounted borrow
    /// ([`SsdController::scan_region_page`]), then prefetches each
    /// `slot_bytes`-long slot, so the slots' memory misses overlap instead
    /// of landing one per visit. The second does the counted reads at the
    /// stripe positions the first resolved and visits the slots: every
    /// counter, byte and error is what a single counted pass gives.
    fn read_in_page_order(
        &mut self,
        ssd: &mut SsdController,
        kind: RegionKind,
        slot_bytes: usize,
        mut visit: impl FnMut(usize, usize, usize, &[u8]) -> Result<()>,
    ) -> Result<usize> {
        let SlotPlan {
            locations,
            order,
            pages,
        } = self;
        let page_of = |&i: &usize| (locations[i].0.start, locations[i].1);
        order.clear();
        order.extend(0..locations.len());
        order.sort_unstable_by_key(page_of);
        pages.clear();
        let mut slots = Vec::with_capacity(order.len());
        for same_page in order.chunk_by(|a, b| page_of(a) == page_of(b)) {
            let (region, page, _) = locations[same_page[0]];
            let Ok((stripe, data, _)) = ssd.scan_region_page(&region, page) else {
                pages.push(None);
                continue;
            };
            slots.extend(same_page.iter().map(|&i| {
                let start = (locations[i].2 * slot_bytes).min(data.len());
                &data[start..(start + slot_bytes).min(data.len())]
            }));
            pages.push(Some(stripe));
        }
        // Hinted once every page is resolved, so that the lookups do not
        // queue behind the slots' cache misses.
        slots.into_iter().for_each(prefetch);
        let same_pages = order.chunk_by(|a, b| page_of(a) == page_of(b));
        for (same_page, stripe) in same_pages.zip(pages.iter()) {
            let (region, page, _) = locations[same_page[0]];
            let view = match *stripe {
                Some(stripe) => ssd.read_page_view(stripe, kind)?,
                None => ssd.read_region_page_view(&region, page, kind)?,
            };
            for &i in same_page {
                visit(i, page, locations[i].2, view.data)?;
            }
        }
        Ok(pages.len())
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
fn tighten_threshold(ttl: &mut TemporalTopList, candidate_count: usize, threshold: &mut u32) {
    if ttl.len() >= candidate_count.saturating_mul(2) {
        ttl.quickselect(candidate_count);
        if let Some(max) = ttl.entries().iter().map(|e| e.distance).max() {
            *threshold = (*threshold).min(max);
        }
    }
}

/// Merge a list of `(start, end)` half-open ranges in place: empty ranges
/// are dropped, the rest sorted and overlapping/adjacent ranges coalesced.
fn merge_page_ranges(ranges: &mut Vec<(usize, usize)>) {
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
fn in_valid_ranges(ranges: &[(u32, u32)], index: u32) -> bool {
    let after = ranges.partition_point(|&(first, _)| first <= index);
    after > 0 && ranges[after - 1].1 >= index
}

/// Whether relative page `offset` falls inside one of the sorted, disjoint
/// half-open `(start, end)` merged page ranges (the per-query membership
/// test of the base pass).
fn in_page_ranges(ranges: &[(usize, usize)], offset: usize) -> bool {
    let after = ranges.partition_point(|&(start, _)| start <= offset);
    after > 0 && ranges[after - 1].1 > offset
}

/// The fine-scan selection of one query.
#[derive(Debug, Default)]
struct FineSelection {
    /// Merged page ranges, relative to the database-embedding sub-region.
    page_ranges: Vec<(usize, usize)>,
    /// Sorted storage-index ranges of the probed clusters.
    valid_ranges: Vec<(u32, u32)>,
    /// The clusters whose append segments the scan must also cover, in
    /// probe order (the order their segment runs join the page list).
    clusters: Vec<usize>,
}

/// Compute the fine-scan selection of one query from its probed clusters
/// (`None` selects the whole database, a brute-force scan).
fn plan_fine_selection(db: &DeployedDatabase, clusters: Option<&[usize]>) -> Result<FineSelection> {
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
fn base_scan_entry(
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
fn segment_scan_entry(
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

/// The IVF centroid nearest to `padded` (a binary embedding padded to the
/// embedding slot size) and the modelled latency of finding it: the cluster
/// an append joins. Each centroid page is borrowed as stored and scored by
/// the fused page kernel in one call, under no threshold; the nearest
/// `(distance, cluster)` wins, so ties go to the lower cluster — the total
/// order the coarse search selects under. Priced as one sense per centroid
/// page ([`SsdController::read_page_view`] minus the transfer): the pages
/// are counted as reads, and nothing moves over the channel or into a TTL.
pub(crate) fn nearest_centroid(
    ssd: &mut SsdController,
    db: &DeployedDatabase,
    padded: &[u8],
) -> Result<(usize, Nanos)> {
    let layout = db.layout;
    let epp = layout.embeddings_per_page;
    let slot_bytes = layout.embedding_slot_bytes;
    let scheme = ssd.hybrid_policy().scheme_for(RegionKind::Centroids);
    let timing = ssd.config().timing;
    let sense = timing.read_latency(scheme) + timing.t_command_overhead;
    let mut best: Option<(u32, usize)> = None;
    let mut hits = Vec::with_capacity(epp);
    for page in 0..layout.centroid_pages {
        let (_, data, _) = ssd.scan_region_page(&db.record.embedding_region, page)?;
        let centroids = layout.centroids.saturating_sub(page * epp).min(epp);
        let limit = data.len().div_ceil(slot_bytes).min(centroids);
        PassFailChecker::filter_fused(data, slot_bytes, limit, &[padded], &[u32::MAX], &mut hits);
        // One query: hits arrive in ascending slot order.
        for hit in &hits {
            let candidate = (hit.distance, page * epp + hit.slot as usize);
            if best.is_none_or(|best| candidate < best) {
                best = Some(candidate);
            }
        }
    }
    ssd.device_mut().absorb_stats(&FlashStats {
        page_reads: layout.centroid_pages as u64,
        ..FlashStats::new()
    });
    let latency = sense * layout.centroid_pages as u64;
    Ok((best.map_or(0, |(_, cluster)| cluster), latency))
}

/// Convert one passing centroid slot into a TTL-C entry, or `None` for pad
/// slots past the last centroid.
fn coarse_scan_entry(
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

/// Everything one request borrows from its [`ReisSystem`](crate::ReisSystem).
pub(crate) struct ScanCtx<'a> {
    /// The configuration the request runs under (a leaf query pins adaptive
    /// filtering off in its copy).
    pub(crate) config: ReisConfig,
    pub(crate) controller: &'a mut SsdController,
    pub(crate) perf: &'a PerfModel,
    pub(crate) energy: &'a EnergyModel,
    pub(crate) scratch: &'a mut ScanScratch,
    pub(crate) pool: &'a WorkerPool,
    pub(crate) db: &'a DeployedDatabase,
    pub(crate) telemetry: &'a Telemetry,
    /// What [`ScanParallelism::auto`](crate::config::ScanParallelism)
    /// resolves to: the host's parallelism, capped by a batch's `workers`.
    pub(crate) shard_budget: usize,
}

/// What the lifecycle does with a query's scored candidates.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Finish {
    /// Rank them as a one-leaf merge, keep the top `k` and fetch their
    /// documents.
    Documents,
    /// Report *every* one, fetching nothing (the leaf half of the scale-out
    /// protocol, see [`crate::leaf`]).
    Candidates,
}

/// One request: B ≥ 0 queries answered under the same `k` and probe count.
#[derive(Clone, Copy)]
pub(crate) struct Request<'q> {
    pub(crate) queries: &'q [&'q [f32]],
    pub(crate) k: usize,
    /// `Some` for an IVF search, `None` for a brute-force scan.
    pub(crate) nprobe: Option<usize>,
    pub(crate) finish: Finish,
    /// The trace kind the queries are recorded under.
    pub(crate) kind: &'static str,
}

/// One answered query. `candidates` is filled by [`Finish::Candidates`],
/// `outcome.results` / `outcome.documents` by [`Finish::Documents`].
pub(crate) struct Executed {
    pub(crate) outcome: SearchOutcome,
    pub(crate) candidates: Vec<LeafCandidate>,
}

/// Check a request against the database it targets, before any device work.
/// Every search entry point — single, batch, leaf, pipeline submission —
/// raises the same typed errors from here.
pub(crate) fn validate(
    db: &DeployedDatabase,
    queries: &[&[f32]],
    k: usize,
    nprobe: Option<usize>,
) -> Result<()> {
    if let Some(nprobe) = nprobe {
        if !db.is_ivf() {
            return Err(ReisError::UnsupportedSearch(
                "IVF_Search requires an IVF deployment".into(),
            ));
        }
        if nprobe == 0 {
            return Err(ReisError::InvalidQuery("nprobe must be at least 1".into()));
        }
    }
    if k == 0 {
        return Err(ReisError::InvalidQuery("k must be at least 1".into()));
    }
    let dim = db.binary_quantizer.dim();
    for query in queries {
        if query.len() != dim {
            return Err(ReisError::QueryDimensionMismatch {
                expected: dim,
                actual: query.len(),
            });
        }
        if let Some(position) = query.iter().position(|x| !x.is_finite()) {
            return Err(ReisError::InvalidQuery(format!(
                "query component {position} is not finite"
            )));
        }
    }
    Ok(())
}

/// The candidates and counters one query accumulates during a phase: in the
/// scan's own slot for that query, or in a shard's private copy that the
/// pass driver merges back in shard order.
#[derive(Default)]
struct Tally {
    ttl: TemporalTopList,
    counts: ScanCounts,
    /// Per-page capture of an armed explain trace (single queries only).
    explain: Option<Vec<ExplainEvent>>,
}

/// A run of consecutive pages of one region that the same queries score.
#[derive(Clone, Copy)]
struct Span {
    region: StripedRegion,
    /// Region-relative page offsets, half-open.
    start: usize,
    end: usize,
    /// The scoring queries: `members[first..last]` of the owning pass.
    members: (usize, usize),
}

/// The ordered page list of one pass.
#[derive(Default)]
struct PassList {
    spans: Vec<Span>,
    members: Vec<usize>,
}

impl PassList {
    /// Append the page runs `(region, start, end)`, all scored by `members`.
    /// An empty query set adds nothing — its runs are not even looked at —
    /// and neither do empty page runs.
    fn push(
        &mut self,
        runs: impl IntoIterator<Item = (StripedRegion, usize, usize)>,
        members: impl IntoIterator<Item = usize>,
    ) {
        let first = self.members.len();
        self.members.extend(members);
        let members = (first, self.members.len());
        if members.0 == members.1 {
            return;
        }
        let spans = self.spans.len();
        for (region, start, end) in runs {
            if start < end {
                self.spans.push(Span {
                    region,
                    start,
                    end,
                    members,
                });
            }
        }
        if self.spans.len() == spans {
            self.members.truncate(first);
        }
    }

    fn members_of(&self, span: &Span) -> &[usize] {
        &self.members[span.members.0..span.members.1]
    }
}

/// Which part of the page list a pass walks: it fixes the admission rule of
/// a passing slot.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// The centroid pages: never filtered, never adapting.
    Coarse,
    /// The merged base ranges of the embedding region.
    Base,
    /// The probed clusters' append-segment runs.
    Segments,
}

/// How the core obtains the bytes of a page (see the module docs).
enum PageReader<'a> {
    /// Error-free regions: borrow the stored page. Nothing on the device
    /// moves, so shards share the controller; the senses are counted here
    /// and folded into the device after the scan.
    Stored {
        controller: &'a SsdController,
        senses: u64,
    },
    /// Error-injecting regions: sense the page — the device draws the read
    /// errors and counts the sense itself — and score the sensed bytes,
    /// built in the reader's own page buffer (the plane's sensing latch).
    Latch {
        controller: &'a mut SsdController,
        latch: Vec<u8>,
    },
}

impl PageReader<'_> {
    /// The user data and OOB bytes of page `offset` of `region`.
    fn page(&mut self, region: &StripedRegion, offset: usize) -> Result<(&[u8], &[u8])> {
        match self {
            PageReader::Stored { controller, senses } => {
                let (_, data, oob) = controller.scan_region_page(region, offset)?;
                *senses += 1;
                Ok((data, oob))
            }
            PageReader::Latch { controller, latch } => {
                let page = controller.device_mut().sense(region.stripe_at(offset)?)?;
                page.sensed_into(latch);
                Ok((latch, page.oob))
            }
        }
    }
}

/// Reusable buffers of one page-scoring loop: the covering queries' padded
/// images and current thresholds, and the emitted hits. One set serves one
/// thread.
#[derive(Default)]
struct ScoreBufs<'a> {
    queries: Vec<&'a [u8]>,
    thresholds: Vec<u32>,
    hits: Vec<FusedHit>,
}

/// What every shard of one chunk shares, immutably: the queries, their
/// current thresholds (constant between two barriers) and the admission
/// rule of the pass.
struct PageBody<'a, 'q> {
    db: &'a DeployedDatabase,
    padded: &'q [Vec<u8>],
    selections: &'a [FineSelection],
    thresholds: &'a [u32],
    oob_layout: &'a OobLayout,
    pass: Pass,
    list: &'a PassList,
    /// The adaptive window a captured explain event belongs to.
    explain_window: u32,
}

impl<'q> PageBody<'_, 'q> {
    /// Turn one passing slot of query `q` into a candidate, or `None` for a
    /// slot outside the query's selection (pad, tombstoned, unprobed, dead).
    fn admit(
        &self,
        q: usize,
        page: usize,
        slot: usize,
        distance: u32,
        oob: OobEntry,
    ) -> Option<TtlEntry> {
        let layout = &self.db.layout;
        let updates = &self.db.updates;
        match self.pass {
            Pass::Coarse => coarse_scan_entry(
                layout.embeddings_per_page,
                layout.centroids,
                page,
                slot,
                distance,
                oob,
            ),
            Pass::Base => base_scan_entry(
                layout,
                &updates.tombstones,
                &self.selections[q].valid_ranges,
                page,
                slot,
                distance,
                oob,
            ),
            Pass::Segments => {
                segment_scan_entry(&updates.store, updates.base_capacity, distance, oob)
            }
        }
    }

    /// Score one page against the queries of `members`, each under its
    /// current threshold, and push the admitted entries into their tallies.
    fn score_page(
        &self,
        (data, oob): (&[u8], &[u8]),
        page: usize,
        members: &[usize],
        tallies: &mut [Tally],
        bufs: &mut ScoreBufs<'q>,
    ) -> Result<()> {
        let slot_bytes = self.db.layout.embedding_slot_bytes;
        bufs.queries.clear();
        bufs.queries
            .extend(members.iter().map(|&q| self.padded[q].as_slice()));
        bufs.thresholds.clear();
        bufs.thresholds
            .extend(members.iter().map(|&q| self.thresholds[q]));
        // The stored-page reader lends the programmed prefix of the page,
        // so the kernel reads the slots that were written; the plane still
        // computes — and the counters still say — a full page of slots.
        let slots_per_page = self.db.layout.embeddings_per_page;
        let limit = data.len().div_ceil(slot_bytes).min(slots_per_page);
        PassFailChecker::filter_fused(
            data,
            slot_bytes,
            limit,
            &bufs.queries,
            &bufs.thresholds,
            &mut bufs.hits,
        );
        for &q in members {
            let tally = &mut tallies[q];
            tally.counts.pages += 1;
            tally.counts.slots_scanned += slots_per_page;
            if let Some(events) = tally.explain.as_mut() {
                events.push(ExplainEvent {
                    page: page as u32,
                    window: self.explain_window,
                    slots: slots_per_page as u32,
                    passed: 0,
                });
            }
        }
        // Hits arrive chunk-major (ascending slot), so a slot's OOB entry is
        // unpacked once and reused across the queries that passed it.
        let mut cached: Option<(u32, OobEntry)> = None;
        for hit in bufs.hits.iter() {
            let oob_entry = match cached {
                Some((slot, entry)) if slot == hit.slot => entry,
                _ => {
                    let entry = self.oob_layout.unpack_entry(oob, hit.slot as usize)?;
                    cached = Some((hit.slot, entry));
                    entry
                }
            };
            let q = members[hit.query as usize];
            if let Some(entry) = self.admit(q, page, hit.slot as usize, hit.distance, oob_entry) {
                let tally = &mut tallies[q];
                tally.counts.entries_passed += 1;
                tally.ttl.push(entry);
                if let Some(event) = tally.explain.as_mut().and_then(|events| events.last_mut()) {
                    event.passed += 1;
                }
            }
        }
        Ok(())
    }

    /// Walk `spans` in order: read each page once and score it. The one
    /// page loop of the scan path — a whole chunk when it runs inline, one
    /// shard's pieces of it on a pool task.
    fn walk(
        &self,
        reader: &mut PageReader<'_>,
        spans: &[Span],
        tallies: &mut [Tally],
        bufs: &mut ScoreBufs<'q>,
    ) -> Result<()> {
        for span in spans {
            let members = self.list.members_of(span);
            for offset in span.start..span.end {
                let page = reader.page(&span.region, offset)?;
                self.score_page(page, offset, members, tallies, bufs)?;
            }
        }
        Ok(())
    }
}

/// Cut the pages of `chunk` into `shards` runs of consecutive pages, in
/// chunk order, of nearly equal length (they differ by at most one page),
/// splitting spans at the cut points. A run is empty only when the chunk
/// has fewer pages than there are shards.
fn cut_into_runs(chunk: &[Span], shards: usize) -> Vec<Vec<Span>> {
    let pages: usize = chunk.iter().map(|span| span.end - span.start).sum();
    let mut spans = chunk.iter().copied();
    let mut current = spans.next();
    (0..shards)
        .map(|shard| {
            let mut want = (shard + 1) * pages / shards - shard * pages / shards;
            let mut run = Vec::new();
            while want > 0 {
                let span = current.as_mut().expect("the runs cover the chunk's pages");
                let take = (span.end - span.start).min(want);
                run.push(Span {
                    end: span.start + take,
                    ..*span
                });
                (span.start, want) = (span.start + take, want - take);
                if span.start == span.end {
                    current = spans.next();
                }
            }
            run
        })
        .collect()
}

/// The state of one request's scan: the plan, the per-query accumulators
/// and the reader.
struct Scan<'a> {
    config: ReisConfig,
    db: &'a DeployedDatabase,
    pool: &'a WorkerPool,
    shard_budget: usize,
    reader: PageReader<'a>,
    oob_layout: OobLayout,
    /// Binary queries padded to the embedding slot size (the broadcast
    /// images the fused kernel scores against).
    padded: &'a [Vec<u8>],
    selections: Vec<FineSelection>,
    /// Current distance-filter threshold per query.
    thresholds: Vec<u32>,
    /// Candidates and counters of the phase in progress, per query.
    tallies: Vec<Tally>,
    /// Coarse-phase counters, set aside when the fine phase starts.
    coarse: Vec<ScanCounts>,
    /// `Some(window)` when the fine scan adapts its thresholds.
    window: Option<usize>,
    candidate_count: usize,
    /// Per query: passed-entry counts per adaptive window, and the entries
    /// already logged (telemetry only; recorded at barriers on the driving
    /// thread, so the log sums to the query's `entries_passed`).
    window_logs: Vec<(Vec<u64>, usize)>,
    record: bool,
    bufs: ScoreBufs<'a>,
}

/// What one shard task hands back: its private tallies, the pages it sensed
/// and the error that stopped it, if any.
type ShardOutput = (Vec<Tally>, u64, Option<ReisError>);

impl<'a> Scan<'a> {
    /// Walk one pass: chunk by chunk, each chunk sharded when worth it,
    /// thresholds tightened at the window barriers between chunks.
    fn run_pass(&mut self, pass: Pass, list: &PassList) -> Result<()> {
        let window = if pass == Pass::Coarse {
            None
        } else {
            self.window
        };
        let scan_units = self.config.ssd.geometry.total_dies();
        let mut next = 0usize;
        let mut offset = list.spans.first().map_or(0, |span| span.start);
        let mut chunk: Vec<Span> = Vec::new();
        let mut position: Vec<usize> = vec![0; self.tallies.len()];
        let mut crossed: Vec<usize> = Vec::new();
        loop {
            // ---- Cut the next chunk: up to the first page at which some
            // covering query completes a window of its own page list. Page
            // positions advance deterministically with the walk, so the cut
            // is computed up front, independent of how the chunk is scanned.
            chunk.clear();
            for (at, tally) in position.iter_mut().zip(&self.tallies) {
                *at = tally.counts.pages;
            }
            let mut barrier = false;
            while !barrier && next < list.spans.len() {
                let span = list.spans[next];
                let members = list.members_of(&span);
                let room = window
                    .and_then(|w| members.iter().map(|&q| w - position[q] % w).min())
                    .unwrap_or(usize::MAX);
                let take = (span.end - offset).min(room);
                chunk.push(Span {
                    start: offset,
                    end: offset + take,
                    ..span
                });
                for &q in members {
                    position[q] += take;
                }
                barrier = take == room;
                offset += take;
                if offset == span.end {
                    next += 1;
                    offset = list.spans.get(next).map_or(0, |span| span.start);
                }
            }
            if chunk.is_empty() {
                return Ok(());
            }
            crossed.clear();
            if let Some(w) = window {
                crossed.extend((0..position.len()).filter(|&q| {
                    position[q] > self.tallies[q].counts.pages && position[q].is_multiple_of(w)
                }));
            }

            // ---- Scan the chunk. Every threshold is constant for its
            // duration, so it shards like a static scan.
            let pages: usize = chunk.iter().map(|span| span.end - span.start).sum();
            let body = PageBody {
                db: self.db,
                padded: self.padded,
                selections: &self.selections,
                thresholds: &self.thresholds,
                oob_layout: &self.oob_layout,
                pass,
                list,
                explain_window: self.tallies[0].counts.windows as u32,
            };
            let shards = match &self.reader {
                PageReader::Latch { .. } => 1,
                PageReader::Stored { .. } => self.config.scan_parallelism.effective_shards(
                    self.shard_budget,
                    scan_units,
                    pages,
                ),
            };
            if shards == 1 {
                body.walk(&mut self.reader, &chunk, &mut self.tallies, &mut self.bufs)?;
            } else {
                let PageReader::Stored { controller, senses } = &mut self.reader else {
                    unreachable!("latch reads run on one shard");
                };
                let controller: &SsdController = controller;
                let work = cut_into_runs(&chunk, shards);
                let explain = self.tallies[0].explain.is_some();
                let queries = self.tallies.len();
                let body = &body;
                let mut outputs: Vec<Option<ShardOutput>> = work.iter().map(|_| None).collect();
                self.pool
                    .scope(|scope| {
                        for (pieces, output) in work.iter().zip(outputs.iter_mut()) {
                            scope.spawn(move |_ctx| {
                                let mut reader = PageReader::Stored {
                                    controller,
                                    senses: 0,
                                };
                                let mut local: Vec<Tally> =
                                    (0..queries).map(|_| Tally::default()).collect();
                                local[0].explain = explain.then(Vec::new);
                                let error = body
                                    .walk(
                                        &mut reader,
                                        pieces,
                                        &mut local,
                                        &mut ScoreBufs::default(),
                                    )
                                    .err();
                                let PageReader::Stored { senses, .. } = reader else {
                                    unreachable!("shards read stored pages");
                                };
                                *output = Some((local, senses, error));
                            });
                        }
                    })
                    .map_err(|panic| ReisError::WorkerPanic(panic.message))?;
                // Merge in shard order; the work a failing shard performed
                // is merged before its error surfaces.
                let mut first_error = None;
                for output in outputs {
                    let (local, shard_senses, error) =
                        output.expect("the scope waits for every shard task");
                    *senses += shard_senses;
                    for (tally, mut shard) in self.tallies.iter_mut().zip(local) {
                        tally.counts.absorb(shard.counts);
                        tally.ttl.absorb(&mut shard.ttl);
                        if let (Some(events), Some(captured)) =
                            (tally.explain.as_mut(), shard.explain)
                        {
                            events.extend(captured);
                        }
                    }
                    first_error = first_error.or(error);
                }
                if let Some(error) = first_error {
                    return Err(error);
                }
            }

            // ---- Window barriers (by construction only at the chunk's
            // end): every query that just completed a window tightens
            // against the TTL state of all its completed windows.
            for &q in &crossed {
                let tally = &mut self.tallies[q];
                tally.counts.windows += 1;
                tighten_threshold(
                    &mut tally.ttl,
                    self.candidate_count,
                    &mut self.thresholds[q],
                );
                if self.record {
                    self.log_window(q);
                }
            }
        }
    }

    /// Log the entries query `q` admitted since its last barrier as one
    /// telemetry window.
    fn log_window(&mut self, q: usize) {
        let (log, logged) = &mut self.window_logs[q];
        let passed = self.tallies[q].counts.entries_passed;
        log.push((passed - *logged) as u64);
        *logged = passed;
    }

    /// Coarse phase: every centroid page, scored against the whole batch
    /// and never filtered; returns each query's `nprobe` nearest clusters.
    fn coarse(&mut self, nprobe: usize) -> Result<Vec<Vec<usize>>> {
        let mut list = PassList::default();
        list.push(
            [(
                self.db.record.embedding_region,
                0,
                self.db.layout.centroid_pages,
            )],
            0..self.tallies.len(),
        );
        self.thresholds.fill(u32::MAX);
        self.run_pass(Pass::Coarse, &list)?;
        self.thresholds
            .fill(self.config.filter_threshold(self.db.binary_quantizer.dim()));
        Ok(self
            .tallies
            .iter_mut()
            .zip(self.coarse.iter_mut())
            .map(|(tally, coarse)| {
                *coarse = std::mem::take(&mut tally.counts);
                tally.ttl.quickselect(nprobe);
                tally.ttl.sort_ascending();
                let clusters = tally
                    .ttl
                    .top(nprobe)
                    .iter()
                    .map(|entry| entry.storage_index as usize)
                    .collect();
                tally.ttl.clear();
                clusters
            })
            .collect())
    }

    /// Fine phase: plan every query's selection, walk the union of the base
    /// ranges, then the append segments.
    fn fine(&mut self, clusters: Option<&[Vec<usize>]>) -> Result<()> {
        self.selections = (0..self.tallies.len())
            .map(|q| plan_fine_selection(self.db, clusters.map(|c| c[q].as_slice())))
            .collect::<Result<_>>()?;

        // ---- Base pass: cut the union at every range boundary of any
        // query, so each span has one fixed set of covering queries.
        let mut cuts: Vec<usize> = self
            .selections
            .iter()
            .flat_map(|s| s.page_ranges.iter().flat_map(|&(start, end)| [start, end]))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let base = self.db.layout.centroid_pages;
        let mut list = PassList::default();
        for pair in cuts.windows(2) {
            list.push(
                [(
                    self.db.record.embedding_region,
                    base + pair[0],
                    base + pair[1],
                )],
                (0..self.selections.len())
                    .filter(|&q| in_page_ranges(&self.selections[q].page_ranges, pair[0])),
            );
        }
        self.run_pass(Pass::Base, &list)?;

        // ---- Segment pass: the runs entries inserted since deployment
        // live in, which the base region does not cover.
        let store = &self.db.updates.store;
        if !store.is_empty() {
            let mut list = PassList::default();
            if self.window.is_none() {
                // Static thresholds: admission is order-independent, so each
                // run page is sensed once for every query probing its cluster.
                for cluster in 0..store.clusters() {
                    list.push(
                        store.runs(cluster).iter().map(|run| (*run, 0, run.len)),
                        (0..self.selections.len())
                            .filter(|&q| self.selections[q].clusters.contains(&cluster)),
                    );
                }
            } else {
                // Adapting: a query's windows continue from its base pages
                // into its runs in *its* probe order, so runs fuse only
                // across queries that share the order.
                let mut groups: Vec<(&[usize], Vec<usize>)> = Vec::new();
                for (q, selection) in self.selections.iter().enumerate() {
                    match groups
                        .iter_mut()
                        .find(|(order, _)| *order == selection.clusters.as_slice())
                    {
                        Some((_, members)) => members.push(q),
                        None => groups.push((&selection.clusters, vec![q])),
                    }
                }
                for (order, members) in &groups {
                    list.push(
                        store.ordered_runs(order).map(|run| (*run, 0, run.len)),
                        members.iter().copied(),
                    );
                }
            }
            self.run_pass(Pass::Segments, &list)?;
        }

        // Trailing telemetry window per query: entries admitted since the
        // last barrier (the whole scan for a statically filtered query).
        if self.record {
            for q in 0..self.tallies.len() {
                if self.tallies[q].counts.entries_passed > self.window_logs[q].1 {
                    self.log_window(q);
                }
            }
        }
        Ok(())
    }
}

/// The logical flash activity of one query's scan phases, as the device
/// tallies it: one sense, one XOR, one fail-bit count and one pass/fail
/// check per scanned page, plus the aggregate TTL channel traffic.
fn logical_scan_stats(coarse: &ScanCounts, fine: &ScanCounts, entry_bytes: usize) -> FlashStats {
    let pages = (coarse.pages + fine.pages) as u64;
    FlashStats::fused_scan(
        pages,
        pages,
        (entry_bytes * (coarse.entries_passed + fine.entries_passed)) as u64,
    )
}

/// The logical flash activity of broadcasting one query into every die's
/// cache latches (Input Broadcasting, optionally multi-plane): one
/// broadcast per die, and the payload's bytes from the controller once per
/// die with MPIBC, once per plane without. The only definition of these
/// counters; `TimingParams::input_broadcast` prices the same transfer.
fn broadcast_stats(config: &ReisConfig, payload_bytes: usize) -> FlashStats {
    let geometry = &config.ssd.geometry;
    let dies = (geometry.channels * geometry.dies_per_channel) as u64;
    let per_die = if config.optimizations.multi_plane_ibc {
        payload_bytes as u64
    } else {
        (payload_bytes * geometry.planes_per_die) as u64
    };
    FlashStats {
        broadcast_ops: dies,
        bytes_from_controller: dies * per_die,
        ..FlashStats::new()
    }
}

/// Score the selected candidates in INT8 precision on the embedded core:
/// resolve each one's INT8 copy (base-region candidates through the
/// layout's RADR arithmetic, append-segment candidates through the segment
/// store's slot references), read the TLC pages in page order through the
/// controller (with ECC) and write each candidate into the scratch's scored
/// set at its own index, which keeps the selection's `(distance,
/// storage_index)` order. Returns the number of distinct INT8 pages read.
///
/// # Errors
///
/// [`ReisError::EntryNotFound`] if a candidate's segment entry is gone or
/// tombstoned (cannot happen for candidates of a scan over the same state);
/// flash read errors.
fn score_candidates(
    controller: &mut SsdController,
    scratch: &mut ScanScratch,
    db: &DeployedDatabase,
    selected: &[TtlEntry],
    query_int8: &Int8Vector,
) -> Result<usize> {
    let layout = db.layout;
    let base_capacity = db.updates.base_capacity;
    let ScanScratch { slots, scored } = scratch;
    slots.locations.clear();
    scored.clear();
    for candidate in selected {
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
        scored.push(LeafCandidate {
            binary: candidate.distance,
            storage_index: candidate.storage_index,
            id: candidate.dadr,
            raw: 0,
        });
    }
    slots.read_in_page_order(
        controller,
        RegionKind::Int8Embeddings,
        layout.int8_bytes,
        |i, _, slot, page| {
            let start = slot * layout.int8_bytes;
            scored[i].raw = query_int8.squared_l2_raw(&page[start..start + layout.int8_bytes]);
            Ok(())
        },
    )
}

/// The rerank phase of one query: score every selected candidate once, then
/// finish as the request asks. [`Finish::Documents`] ranks the scored set as
/// one leaf's answer under [`merge_top_k`] — the selection is already cut
/// to `budget` under the same total order, so the merge's cut keeps every
/// candidate — and returns the top `k` as results; [`Finish::Candidates`]
/// hands the whole scored set back. Also returns the number of INT8 pages
/// read.
///
/// # Errors
///
/// Same conditions as `score_candidates`.
fn rerank(
    controller: &mut SsdController,
    scratch: &mut ScanScratch,
    db: &DeployedDatabase,
    selected: &[TtlEntry],
    query_int8: &Int8Vector,
    request: &Request<'_>,
    budget: usize,
) -> Result<(Vec<Neighbor>, Vec<LeafCandidate>, usize)> {
    let int8_pages = score_candidates(controller, scratch, db, selected, query_int8)?;
    Ok(match request.finish {
        Finish::Documents => {
            let ranked = merge_top_k(std::slice::from_ref(&scratch.scored), budget, request.k);
            (ranked.results(), Vec::new(), int8_pages)
        }
        Finish::Candidates => (Vec::new(), scratch.scored.clone(), int8_pages),
    })
}

/// Document identification and retrieval: read the chunks of `results`
/// from the document regions, in page order (each document page is read
/// once), validating every slot's length prefix and copying the payload
/// straight out of the controller's page view.
///
/// A result id resolves to its live chunk: relocated ids (inserts, and
/// upserts of base entries) read from their append-segment page; base ids
/// read from the base document region at the slot the update state maps
/// them to (identity before the first compaction).
///
/// # Errors
///
/// * [`ReisError::CorruptDocument`] if a slot's 4-byte length prefix is
///   missing or points outside the slot.
/// * [`ReisError::EntryNotFound`] if a result id has no live document
///   (cannot happen for ids produced by the same search).
pub(crate) fn fetch_documents(
    controller: &mut SsdController,
    scratch: &mut ScanScratch,
    db: &DeployedDatabase,
    results: &[Neighbor],
) -> Result<Vec<Vec<u8>>> {
    let layout = db.layout;
    let slots = &mut scratch.slots;
    slots.locations.clear();
    for neighbor in results {
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
                let slot_index = db
                    .updates
                    .base_doc_slot(id)
                    .ok_or(ReisError::EntryNotFound(id))? as usize;
                let (page, slot) = layout.document_location(slot_index);
                (db.record.document_region, page, slot)
            });
    }

    let mut documents: Vec<Vec<u8>> = vec![Vec::new(); results.len()];
    slots.read_in_page_order(
        controller,
        RegionKind::Documents,
        layout.doc_slot_bytes,
        |i, page, slot, bytes| {
            documents[i] = parse_doc_slot(bytes, slot, layout.doc_slot_bytes, page)?;
            Ok(())
        },
    )?;
    Ok(documents)
}

/// Execute a request: the one query lifecycle (see the module docs).
/// Outcomes come back in query order; the first failing step's error is
/// returned.
pub(crate) fn execute(ctx: ScanCtx<'_>, request: &Request<'_>) -> Result<Vec<Executed>> {
    let ScanCtx {
        config,
        controller,
        perf,
        energy,
        scratch,
        pool,
        db,
        telemetry,
        shard_budget,
    } = ctx;
    let Request {
        queries,
        k,
        nprobe,
        finish,
        kind,
    } = *request;
    validate(db, queries, k, nprobe)?;
    if queries.is_empty() {
        return Ok(Vec::new());
    }

    // Telemetry only *reads* values the scan computes anyway, at barrier and
    // post-query points on this thread, so execution is identical with it on
    // and off.
    let record = telemetry.is_enabled();
    let mut mark = record.then(Instant::now);
    let mut scan_walls = StageWalls::default();

    let layout = db.layout;
    let slot_bytes = layout.embedding_slot_bytes;
    let dim = db.binary_quantizer.dim();
    let entry_bytes = slot_bytes + config.ttl_metadata_bytes;
    let candidate_count = config.rerank_candidates(k);

    // ---- Quantise every query and build the padded images the fused
    // kernel scores against (the broadcast payloads).
    let mut padded = Vec::with_capacity(queries.len());
    let mut int8s = Vec::with_capacity(queries.len());
    for query in queries {
        let binary = db.binary_quantizer.quantize(query)?;
        let mut image = vec![0u8; slot_bytes];
        image[..binary.as_bytes().len()].copy_from_slice(binary.as_bytes());
        padded.push(image);
        int8s.push(db.int8_quantizer.quantize(query)?);
    }
    stamp(&mut mark, &mut scan_walls.broadcast);

    // ---- Scan. The reader is chosen by what the device says about reads
    // of the embedding scheme.
    let embedding_scheme = controller
        .hybrid_policy()
        .scheme_for(RegionKind::BinaryEmbeddings);
    let reader = if controller.device().read_is_error_free(embedding_scheme) {
        PageReader::Stored {
            controller: &*controller,
            senses: 0,
        }
    } else {
        PageReader::Latch {
            controller: &mut *controller,
            latch: Vec::new(),
        }
    };
    let explain = record && queries.len() == 1 && telemetry.explain_armed();
    let mut scan = Scan {
        config,
        db,
        pool,
        shard_budget,
        reader,
        oob_layout: db.oob_layout(config.ssd.geometry.oob_size_bytes)?,
        padded: &padded,
        selections: Vec::new(),
        thresholds: vec![config.filter_threshold(dim); queries.len()],
        tallies: queries.iter().map(|_| Tally::default()).collect(),
        coarse: vec![ScanCounts::default(); queries.len()],
        window: config
            .adapts(nprobe.is_none())
            .then_some(config.adaptive_window_pages.max(1)),
        candidate_count,
        window_logs: vec![(Vec::new(), 0); queries.len()],
        record,
        bufs: ScoreBufs::default(),
    };
    let scanned = (|| -> Result<()> {
        let clusters = match nprobe {
            Some(nprobe) => Some(scan.coarse(nprobe)?),
            None => None,
        };
        stamp(&mut mark, &mut scan_walls.coarse);
        // The explain trace covers the fine scan's pages.
        scan.tallies[0].explain = explain.then(Vec::new);
        scan.fine(clusters.as_deref())?;
        stamp(&mut mark, &mut scan_walls.fine);
        Ok(())
    })();
    let Scan {
        reader,
        mut tallies,
        coarse,
        window_logs,
        ..
    } = scan;
    let senses = match reader {
        PageReader::Stored { senses, .. } => senses,
        // The device counted every latch sense as it happened.
        PageReader::Latch { .. } => 0,
    };

    // ---- Fold the physical scan activity into the device *before*
    // surfacing a scan error or running a phase that could fail: even a
    // failing scan walked real pages.
    let broadcast = broadcast_stats(&config, slot_bytes);
    let mut page_scores = 0u64;
    let mut ttl_bytes = 0u64;
    for (coarse, tally) in coarse.iter().zip(&tallies) {
        let logical = logical_scan_stats(coarse, &tally.counts, entry_bytes);
        page_scores += logical.xor_ops;
        ttl_bytes += logical.bytes_to_controller;
    }
    let mut physical = FlashStats::fused_scan(senses, page_scores, ttl_bytes);
    for _ in queries {
        physical.accumulate(&broadcast);
    }
    controller.device_mut().absorb_stats(&physical);
    scanned?;

    // ---- Downstream phases, per query on the shared controller, measured
    // with per-query device deltas. The scan served the whole request at
    // once, so its wall time is shared evenly between the queries.
    let share = queries.len() as u64;
    let mut executed = Vec::with_capacity(queries.len());
    for (q, (tally, coarse)) in tallies.iter_mut().zip(&coarse).enumerate() {
        let mut walls = StageWalls {
            broadcast: scan_walls.broadcast / share,
            coarse: scan_walls.coarse / share,
            fine: scan_walls.fine / share,
            ..StageWalls::default()
        };
        tally.ttl.quickselect(candidate_count);
        tally.ttl.sort_ascending();
        let selected = tally.ttl.top(candidate_count);

        let stats_before = *controller.device().stats();
        let dram_before = controller.dram().bytes_written();
        let (results, candidates, int8_pages) = rerank(
            controller,
            scratch,
            db,
            selected,
            &int8s[q],
            request,
            candidate_count,
        )?;
        stamp(&mut mark, &mut walls.rerank);
        let mut documents = Vec::new();
        if finish == Finish::Documents {
            documents = fetch_documents(controller, scratch, db, &results)?;
            stamp(&mut mark, &mut walls.doc_fetch);
        }
        let downstream = controller.device().stats().delta_since(&stats_before);
        let dram_bytes = controller.dram().bytes_written() - dram_before;

        let activity = QueryActivity {
            coarse_pages: coarse.pages,
            coarse_entries: coarse.entries_passed,
            fine_pages: tally.counts.pages,
            fine_entries: tally.counts.entries_passed,
            fine_windows: tally.counts.windows,
            rerank_candidates: selected.len(),
            int8_pages,
            documents: results.len(),
            embedding_slot_bytes: slot_bytes,
            dim,
            doc_slot_bytes: layout.doc_slot_bytes,
        };
        let mut flash_stats = logical_scan_stats(coarse, &tally.counts, entry_bytes);
        flash_stats.accumulate(&broadcast);
        flash_stats.accumulate(&downstream);
        let latency = perf.query_latency(&activity, k);
        let core_busy = perf.core_busy(&activity, k);
        let outcome = SearchOutcome {
            results,
            documents,
            latency,
            activity,
            energy: energy.query_energy(&flash_stats, dram_bytes, core_busy, latency.total()),
            flash_stats,
        };
        if record {
            record_query_telemetry(
                telemetry,
                kind,
                &walls,
                &window_logs[q].0,
                tally.explain.take(),
                &outcome,
            );
        }
        executed.push(Executed {
            outcome,
            candidates,
        });
    }
    Ok(executed)
}

/// Wall-clock nanoseconds of each query stage (all zero when telemetry is
/// disabled or a stage did not run).
#[derive(Debug, Default, Clone, Copy)]
struct StageWalls {
    broadcast: u64,
    coarse: u64,
    fine: u64,
    rerank: u64,
    doc_fetch: u64,
}

/// Advance a stage-timing mark: store the elapsed nanoseconds since the
/// previous mark and restart the clock. No-op when timing is off.
fn stamp(mark: &mut Option<Instant>, out: &mut u64) {
    if let Some(t0) = mark {
        *out = t0.elapsed().as_nanos() as u64;
        *mark = Some(Instant::now());
    }
}

/// Record one completed query into the telemetry handle: lifecycle
/// counters, wall/modelled histograms, the trace-ring span record and the
/// explain trace if one was captured.
fn record_query_telemetry(
    telemetry: &Telemetry,
    kind: &'static str,
    walls: &StageWalls,
    window_log: &[u64],
    explain_log: Option<Vec<ExplainEvent>>,
    outcome: &SearchOutcome,
) {
    let activity = &outcome.activity;
    let latency = &outcome.latency;
    telemetry.count(CounterId::Queries, 1);
    telemetry.count(CounterId::CoarsePages, activity.coarse_pages as u64);
    telemetry.count(CounterId::FinePages, activity.fine_pages as u64);
    telemetry.count(CounterId::FineEntries, activity.fine_entries as u64);
    telemetry.count(CounterId::FineWindows, activity.fine_windows as u64);
    telemetry.count(
        CounterId::RerankCandidates,
        activity.rerank_candidates as u64,
    );
    telemetry.count(CounterId::DocumentsFetched, activity.documents as u64);
    telemetry.count(CounterId::FlashSenses, outcome.flash_stats.page_reads);
    for &entries in window_log {
        telemetry.count(CounterId::WindowEntries, entries);
        telemetry.observe(HistogramId::WindowEntriesPerWindow, entries);
    }
    let wall_total = walls.broadcast + walls.coarse + walls.fine + walls.rerank + walls.doc_fetch;
    telemetry.observe(HistogramId::QueryWallNs, wall_total);
    telemetry.observe(HistogramId::QueryModelledNs, latency.total().as_nanos());
    telemetry.observe(
        HistogramId::CoarseModelledNs,
        latency.coarse_scan.as_nanos(),
    );
    telemetry.observe(HistogramId::FineModelledNs, latency.fine_scan.as_nanos());
    telemetry.observe(HistogramId::RerankModelledNs, latency.rerank.as_nanos());
    telemetry.observe(
        HistogramId::DocFetchModelledNs,
        latency.document_fetch.as_nanos(),
    );
    let sequence = telemetry.next_sequence();
    telemetry.record_trace(QueryTrace {
        sequence,
        kind,
        spans: vec![
            span("broadcast", walls.broadcast, latency.input_broadcast),
            span("coarse_scan", walls.coarse, latency.coarse_scan),
            span("fine_scan", walls.fine, latency.fine_scan),
            span("select", 0, latency.select),
            span("rerank", walls.rerank, latency.rerank),
            span("doc_fetch", walls.doc_fetch, latency.document_fetch),
            span("host_transfer", 0, latency.host_transfer),
        ],
    });
    if let Some(events) = explain_log {
        telemetry.record_explain(ExplainTrace { sequence, events });
    }
}

/// A lifecycle span with both clocks (see [`reis_telemetry::Span`]).
fn span(stage: &'static str, wall_ns: u64, modelled: Nanos) -> TraceSpan {
    TraceSpan {
        stage,
        index: 0,
        wall_ns,
        modelled_ns: modelled.as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::VectorDatabase;
    use reis_ssd::SsdConfig;

    fn corpus() -> (Vec<Vec<f32>>, VectorDatabase) {
        let vectors: Vec<Vec<f32>> = (0..24)
            .map(|i| {
                (0..32)
                    .map(|d| (((i * 7 + d) % 13) as f32 - 6.0) / 3.0)
                    .collect()
            })
            .collect();
        let documents: Vec<Vec<u8>> = (0..24).map(|i| format!("doc {i}").into_bytes()).collect();
        let db = VectorDatabase::flat(&vectors, documents).unwrap();
        (vectors, db)
    }

    /// The counters a counted page read moves: flash page reads, bytes to
    /// the controller, ECC pages decoded and DRAM bytes staged.
    fn read_counters(ssd: &SsdController) -> [u64; 4] {
        let stats = ssd.device().stats();
        [
            stats.page_reads,
            stats.bytes_to_controller,
            ssd.ecc().pages_decoded(),
            ssd.dram().bytes_written(),
        ]
    }

    /// What `fetch_documents` of `ids` returns and how far it moves the
    /// read counters, next to what one counted region read of each of
    /// `counted` moves: the cost of a single page-ordered counted pass that
    /// stops at its failure.
    fn failing_fetch(
        ssd: &mut SsdController,
        deployed: &DeployedDatabase,
        ids: &[usize],
        counted: &[usize],
    ) -> (ReisError, [u64; 4], [u64; 4]) {
        let since = |ssd: &SsdController, before: [u64; 4]| {
            let now = read_counters(ssd);
            std::array::from_fn(|i| now[i] - before[i])
        };
        let results: Vec<Neighbor> = ids.iter().map(|&id| Neighbor::new(id, 0.0)).collect();
        let before = read_counters(ssd);
        let err = fetch_documents(ssd, &mut ScanScratch::default(), deployed, &results)
            .expect_err("the fetch fails");
        let spent = since(ssd, before);
        let before = read_counters(ssd);
        let region = deployed.record.document_region;
        for &page in counted {
            ssd.read_region_page_view(&region, page, RegionKind::Documents)
                .expect("a page the fetch read before failing reads");
        }
        (err, spent, since(ssd, before))
    }

    #[test]
    fn fetch_documents_reports_corrupt_slots_instead_of_panicking() {
        let (_, db) = corpus();
        let mut ssd = SsdController::new(SsdConfig::tiny());
        let deployed = crate::deploy::deploy(&mut ssd, &db, 1).unwrap();
        let region = deployed.record.document_region;
        let geometry = ssd.config().geometry;
        let on_page = |page: usize| {
            (0..24)
                .find(|&id| deployed.layout.document_location(id).0 == page)
                .expect("a document on the page")
        };

        // Corrupt the first document page: erase its block and reprogram the
        // page with all-ones, which makes every slot's length prefix invalid.
        let addr = region.page_at(&geometry, 0).unwrap();
        ssd.device_mut().erase_block(addr.block_addr()).unwrap();
        ssd.device_mut()
            .program_page(
                addr,
                &vec![0xFF; geometry.page_size_bytes],
                &[],
                reis_nand::ProgramScheme::EnhancedSlc,
            )
            .unwrap();
        // Erase the block of document page 5 and leave it unprogrammed: the
        // page no longer resolves. (Pages 0, 3, 5 and 7 sit on four
        // different planes, so neither erase touches another of them.)
        let unprogrammed = region.page_at(&geometry, 5).unwrap();
        ssd.device_mut()
            .erase_block(unprogrammed.block_addr())
            .unwrap();

        let (err, spent, one_pass) = failing_fetch(&mut ssd, &deployed, &[on_page(0)], &[0]);
        assert!(
            matches!(err, ReisError::CorruptDocument { page: 0, slot: 0 }),
            "expected CorruptDocument, got {err:?}"
        );
        // The resolve/prefetch pass counts nothing: the failed fetch cost
        // exactly the one counted read of the corrupt page.
        assert_eq!(spent, one_pass);
        assert_eq!(one_pass[0], 1);

        // A page that fails to resolve errors from the counted pass, in page
        // order: after page 3 was read and counted, before page 7 is.
        let ids = [on_page(7), on_page(5), on_page(3)];
        let (err, spent, one_pass) = failing_fetch(&mut ssd, &deployed, &ids, &[3]);
        let direct = ssd
            .read_region_page_view(&region, 5, RegionKind::Documents)
            .expect_err("page 5 is unprogrammed");
        assert_eq!(err, ReisError::from(direct));
        assert_eq!(spent, one_pass);
        assert_eq!(one_pass[0], 1);
    }

    #[test]
    fn rerank_reports_a_segment_entry_tombstoned_since_the_scan() {
        let (vectors, db) = corpus();
        let mut ssd = SsdController::new(SsdConfig::tiny());
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
        let query = deployed.int8_quantizer.quantize(&vectors[3]).unwrap();
        let request = |finish| Request {
            queries: &[],
            k: 1,
            nprobe: None,
            finish,
            kind: "test",
        };
        let mut scratch = ScanScratch::default();
        let (top, _, pages) = rerank(
            &mut ssd,
            &mut scratch,
            &deployed,
            &[candidate],
            &query,
            &request(Finish::Documents),
            1,
        )
        .unwrap();
        assert_eq!((top[0].id, pages), (ids[0] as usize, 1));

        // ...and is tombstoned before the rerank of either finish gets to it.
        assert!(deployed.updates.store.mark_deleted(sid));
        for finish in [Finish::Documents, Finish::Candidates] {
            let err = rerank(
                &mut ssd,
                &mut scratch,
                &deployed,
                &[candidate],
                &query,
                &request(finish),
                1,
            )
            .unwrap_err();
            assert!(
                matches!(err, ReisError::EntryNotFound(id) if id == ids[0]),
                "expected EntryNotFound({}), got {err:?}",
                ids[0]
            );
        }
    }

    /// Spans of one region, all scored by the pass's first query set.
    fn spans(ranges: &[(usize, usize)]) -> Vec<Span> {
        ranges
            .iter()
            .map(|&(start, end)| Span {
                region: StripedRegion::EMPTY,
                start,
                end,
                members: (0, 1),
            })
            .collect()
    }

    #[test]
    fn every_page_lands_in_exactly_one_shard() {
        let chunk = spans(&[(0, 13), (20, 27)]);
        let expected: Vec<usize> = chunk.iter().flat_map(|span| span.start..span.end).collect();
        for shards in 1..=8 {
            let runs = cut_into_runs(&chunk, shards);
            assert_eq!(runs.len(), shards);
            // One run after the other walks the chunk's pages in order.
            let seen: Vec<usize> = runs
                .iter()
                .flatten()
                .flat_map(|span| span.start..span.end)
                .collect();
            assert_eq!(seen, expected, "{shards} shards");
            assert!(runs
                .iter()
                .flatten()
                .all(|span| span.start < span.end && span.members == (0, 1)));
        }
    }

    #[test]
    fn striped_scans_balance_to_within_one_unit() {
        let chunk = spans(&[(0, 300), (512, 513), (700, 1423)]);
        for shards in 1..=8 {
            let pages: Vec<usize> = cut_into_runs(&chunk, shards)
                .iter()
                .map(|run| run.iter().map(|span| span.end - span.start).sum())
                .collect();
            let (min, max) = (pages.iter().min().unwrap(), pages.iter().max().unwrap());
            assert!(max - min <= 1, "{shards} shards: {pages:?}");
            assert_eq!(pages.iter().sum::<usize>(), 1024);
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
