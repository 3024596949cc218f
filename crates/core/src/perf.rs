//! Latency model of one in-storage query.
//!
//! The functional engine (the `scan` module) counts what a query actually did —
//! pages scanned, entries that passed the distance filter, candidates
//! reranked, documents fetched. This module turns those counts into latency
//! by composing the flash, channel, DRAM and embedded-core costs of Table 3
//! with the parallelism and pipelining rules of Sec. 4.3: all planes sense
//! and compute concurrently, channels transfer concurrently, and (with PL
//! enabled) reads, in-plane computation, channel transfers and the
//! controller's selection kernel overlap.

use serde::{Deserialize, Serialize};

use reis_nand::{Nanos, ProgramScheme};
use reis_ssd::{EccParams, EmbeddedCores};

use crate::config::ReisConfig;

/// DRAM bytes of one relocation-map slot (stable id → segment id), matching
/// the update path's bookkeeping accounting.
const RELOCATION_ENTRY_BYTES: usize = 8;

/// What one query did, as counted by the functional engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryActivity {
    /// Centroid pages scanned during the coarse-grained search.
    pub coarse_pages: usize,
    /// TTL-C entries transferred to the controller during the coarse search.
    pub coarse_entries: usize,
    /// Embedding pages scanned during the fine-grained search.
    pub fine_pages: usize,
    /// TTL-E entries transferred to the controller during the fine search.
    pub fine_entries: usize,
    /// Adaptive window barriers the fine scan crossed (0 for
    /// static-threshold scans). At each barrier the embedded core re-ran
    /// quickselect over the accumulated Temporal Top List to tighten the
    /// in-plane threshold; [`PerfModel::window_maintenance`] prices that
    /// from the per-window entry counts. The barrier count is a pure
    /// function of the scan's page list and the configured window size, so
    /// it is identical across every parallelism setting.
    pub fine_windows: usize,
    /// Candidates handed to the reranking kernel.
    pub rerank_candidates: usize,
    /// Distinct INT8 pages fetched for reranking.
    pub int8_pages: usize,
    /// Documents fetched and returned to the host.
    pub documents: usize,
    /// Bytes of one embedding slot (mini-page) — also the broadcast payload.
    pub embedding_slot_bytes: usize,
    /// Embedding dimensionality (for the rerank kernel cost).
    pub dim: usize,
    /// Bytes of one document slot.
    pub doc_slot_bytes: usize,
}

impl QueryActivity {
    /// Fold another query's counters into this one — the scale-out
    /// aggregator uses this to report cluster-wide activity as the sum of
    /// its leaves' work. The geometry descriptors (slot bytes,
    /// dimensionality) are not additive: they must agree across the merged
    /// activities and the receiver's are kept (a zero-valued receiver, as
    /// `QueryActivity::default()` produces, adopts the other side's).
    pub fn absorb(&mut self, other: &QueryActivity) {
        debug_assert!(
            self.embedding_slot_bytes == 0
                || other.embedding_slot_bytes == 0
                || self.embedding_slot_bytes == other.embedding_slot_bytes,
            "merging activities of different embedding layouts"
        );
        debug_assert!(
            self.dim == 0 || other.dim == 0 || self.dim == other.dim,
            "merging activities of different dimensionalities"
        );
        self.coarse_pages += other.coarse_pages;
        self.coarse_entries += other.coarse_entries;
        self.fine_pages += other.fine_pages;
        self.fine_entries += other.fine_entries;
        self.fine_windows += other.fine_windows;
        self.rerank_candidates += other.rerank_candidates;
        self.int8_pages += other.int8_pages;
        self.documents += other.documents;
        if self.embedding_slot_bytes == 0 {
            self.embedding_slot_bytes = other.embedding_slot_bytes;
        }
        if self.dim == 0 {
            self.dim = other.dim;
        }
        if self.doc_slot_bytes == 0 {
            self.doc_slot_bytes = other.doc_slot_bytes;
        }
    }
}

/// Per-phase latency of one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Input Broadcasting of the query into the page buffers.
    pub input_broadcast: Nanos,
    /// Coarse-grained centroid scan (senses, in-plane compute, transfers).
    pub coarse_scan: Nanos,
    /// Fine-grained embedding scan.
    pub fine_scan: Nanos,
    /// Quickselect on the embedded core (portion not hidden by the scan).
    pub select: Nanos,
    /// INT8 fetch plus rerank kernel plus final quicksort.
    pub rerank: Nanos,
    /// Document identification and flash reads.
    pub document_fetch: Nanos,
    /// Transfer of the retrieved documents to the host.
    pub host_transfer: Nanos,
}

impl LatencyBreakdown {
    /// End-to-end latency of the query.
    pub fn total(&self) -> Nanos {
        self.input_broadcast
            + self.coarse_scan
            + self.fine_scan
            + self.select
            + self.rerank
            + self.document_fetch
            + self.host_transfer
    }
}

/// The latency model for a given REIS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PerfModel {
    config: ReisConfig,
}

impl PerfModel {
    /// Create the model for a configuration.
    pub fn new(config: ReisConfig) -> Self {
        PerfModel { config }
    }

    /// The configuration driving the model.
    pub fn config(&self) -> &ReisConfig {
        &self.config
    }

    /// Latency of broadcasting the query embedding into every die's page
    /// buffers. Dies on the same channel receive the broadcast one after the
    /// other; channels operate in parallel; MPIBC lets all planes of a die
    /// latch the payload in one transfer.
    pub fn input_broadcast(&self, query_bytes: usize) -> Nanos {
        let geom = &self.config.ssd.geometry;
        let timing = &self.config.ssd.timing;
        let per_die = timing.input_broadcast(
            query_bytes,
            geom.planes_per_die,
            self.config.optimizations.multi_plane_ibc,
        );
        per_die * geom.dies_per_channel as u64
    }

    /// Latency of scanning `pages` embedding (or centroid) pages and
    /// transferring `entries_out` TTL entries to the controller.
    ///
    /// `entries_out` is the *actual* transferred-entry count the functional
    /// engine measured, so optimizations that shrink the transfer — static
    /// distance filtering, and the adaptive threshold tightening that
    /// discards provably-unrankable entries in-plane — are priced directly:
    /// fewer entries mean smaller per-round channel transfers here and a
    /// cheaper quickselect in [`PerfModel::select_with_maintenance`].
    pub fn scan(&self, pages: usize, entries_out: usize, embedding_slot_bytes: usize) -> Nanos {
        self.fused_scan(pages, 1, entries_out, embedding_slot_bytes)
    }

    /// Latency of one *fused multi-query* scan pass: `pages` pages sensed
    /// once each, every sensed page scored in-plane against `batch`
    /// resident queries, and `entries_out` TTL entries (across the whole
    /// batch) transferred to the controller.
    ///
    /// This prices the single-sense/multi-score asymmetry of page-major
    /// batch execution: the sense amortizes over the batch while the
    /// XOR + fail-bit-count peripheral still runs once per query, so a
    /// fused pass over `B` queries costs far less than `B` independent
    /// scans but more than one. With `batch == 1` this is exactly
    /// [`PerfModel::scan`].
    pub fn fused_scan(
        &self,
        pages: usize,
        batch: usize,
        entries_out: usize,
        embedding_slot_bytes: usize,
    ) -> Nanos {
        if pages == 0 {
            return Nanos::ZERO;
        }
        let geom = &self.config.ssd.geometry;
        let timing = &self.config.ssd.timing;
        let opts = &self.config.optimizations;

        let total_planes = geom.total_planes();
        let rounds = pages.div_ceil(total_planes);
        let sense = timing.read_latency(ProgramScheme::EnhancedSlc);
        let compute = timing.in_plane_distance(opts.distance_filtering) * batch.max(1) as u64;

        // Channel transfer per round: the entries produced in one round are
        // spread evenly over the channels.
        let entry_bytes = embedding_slot_bytes + self.config.ttl_metadata_bytes;
        let entries_per_round = entries_out as f64 / rounds as f64;
        let bytes_per_channel_round = entries_per_round * entry_bytes as f64 / geom.channels as f64;
        let transfer = Nanos::from_secs_f64(bytes_per_channel_round / timing.channel_bandwidth_bps);

        if opts.pipelining {
            // Read-page-cache mode: pipeline fill (first sense), a steady
            // state where each remaining round costs the slowest of
            // {next sense, in-plane compute, channel transfer}, and a drain
            // (compute + transfer of the last page).
            let steady = sense.max(compute.max(transfer));
            sense + steady * (rounds as u64 - 1) + compute + transfer
        } else {
            (sense + compute + transfer) * rounds as u64
        }
    }

    /// Latency of the selection phase including the windowed adaptive
    /// maintenance: the final quickselect over `entries` TTL entries plus
    /// the (precomputed, see [`PerfModel::window_maintenance`]) per-barrier
    /// TTL upkeep, hidden together behind `scan_time` when pipelining is
    /// enabled — both run on the embedded core, interleaved with the scan
    /// they overlap. This is the single implementation of the selection
    /// pricing rule; a static scan passes zero maintenance.
    pub fn select_with_maintenance(
        &self,
        entries: usize,
        k: usize,
        maintenance: Nanos,
        scan_time: Nanos,
    ) -> Nanos {
        let cores = EmbeddedCores::new(self.config.ssd.cores);
        let kernel = cores.quickselect(entries, k) + maintenance;
        if self.config.optimizations.pipelining {
            kernel.saturating_sub(scan_time)
        } else {
            kernel
        }
    }

    /// Controller cost of the windowed adaptive-threshold maintenance: one
    /// quickselect of the accumulated Temporal Top List per window barrier.
    ///
    /// Priced from the per-window entry counts: between two barriers the
    /// scan admits `entries / barriers` entries on average on top of the
    /// `candidates` the list was last truncated to, so each barrier's
    /// quickselect examines roughly `candidates + entries / barriers`
    /// entries and keeps `candidates`. Static scans (`barriers == 0`) cost
    /// nothing. Like the final selection kernel, this runs on the embedded
    /// core and — with pipelining enabled — overlaps the ongoing scan (see
    /// [`PerfModel::query_latency`] for how the two are hidden together).
    pub fn window_maintenance(&self, barriers: usize, entries: usize, candidates: usize) -> Nanos {
        if barriers == 0 {
            return Nanos::ZERO;
        }
        let cores = EmbeddedCores::new(self.config.ssd.cores);
        let per_window = entries / barriers;
        cores.quickselect(candidates + per_window, candidates) * barriers as u64
    }

    /// Latency of the reranking phase: fetching `int8_pages` pages of INT8
    /// embeddings through the controller (TLC reads + ECC, spread across the
    /// channels), recomputing `candidates` distances on the embedded core and
    /// quicksorting the survivors.
    pub fn rerank(&self, candidates: usize, int8_pages: usize, dim: usize) -> Nanos {
        if candidates == 0 {
            return Nanos::ZERO;
        }
        let geom = &self.config.ssd.geometry;
        let timing = &self.config.ssd.timing;
        let ecc = EccParams::ldpc();
        let cores = EmbeddedCores::new(self.config.ssd.cores);

        let page_bytes = geom.page_size_bytes;
        let per_page = timing.read_latency(ProgramScheme::Ispp(reis_nand::CellMode::Tlc))
            + timing.channel_transfer(page_bytes)
            + ecc.decode_latency_per_page;
        let serial_pages = int8_pages.div_ceil(geom.channels);
        per_page * serial_pages as u64 + cores.rerank(candidates, dim) + cores.quicksort(candidates)
    }

    /// Latency of fetching `documents` chunks of `doc_slot_bytes` each from
    /// the TLC document region (reads spread over the channels).
    pub fn document_fetch(&self, documents: usize, doc_slot_bytes: usize) -> Nanos {
        if documents == 0 {
            return Nanos::ZERO;
        }
        let geom = &self.config.ssd.geometry;
        let timing = &self.config.ssd.timing;
        let ecc = EccParams::ldpc();
        let per_doc = timing.read_latency(ProgramScheme::Ispp(reis_nand::CellMode::Tlc))
            + timing.channel_transfer(doc_slot_bytes)
            + ecc.decode_latency_per_page;
        per_doc * documents.div_ceil(geom.channels) as u64
    }

    /// Latency of returning `documents` chunks to the host over PCIe.
    pub fn host_transfer(&self, documents: usize, doc_slot_bytes: usize) -> Nanos {
        Nanos::from_secs_f64(
            (documents * doc_slot_bytes) as f64 / self.config.host_link_bandwidth_bps,
        )
    }

    /// Compose the full per-query latency from the activity counts.
    pub fn query_latency(&self, activity: &QueryActivity, k: usize) -> LatencyBreakdown {
        let input_broadcast = self.input_broadcast(activity.embedding_slot_bytes);
        let coarse_scan = self.scan(
            activity.coarse_pages,
            activity.coarse_entries,
            activity.embedding_slot_bytes,
        );
        let fine_scan = self.scan(
            activity.fine_pages,
            activity.fine_entries,
            activity.embedding_slot_bytes,
        );
        let candidates = self.config.rerank_factor * k;
        let select = self.select_with_maintenance(
            activity.coarse_entries + activity.fine_entries,
            candidates,
            self.window_maintenance(activity.fine_windows, activity.fine_entries, candidates),
            coarse_scan + fine_scan,
        );
        let rerank = self.rerank(
            activity.rerank_candidates,
            activity.int8_pages,
            activity.dim,
        );
        let document_fetch = self.document_fetch(activity.documents, activity.doc_slot_bytes);
        let host_transfer = self.host_transfer(activity.documents, activity.doc_slot_bytes);
        LatencyBreakdown {
            input_broadcast,
            coarse_scan,
            fine_scan,
            select,
            rerank,
            document_fetch,
            host_transfer,
        }
    }

    /// Controller-side cost of appending `entries` new index entries: the
    /// in-plane compute of the centroid-assignment scan (its page senses are
    /// priced by the mutation path itself), the nearest-centroid selection
    /// on the embedded core, and the DRAM bookkeeping of the segment-entry
    /// table and relocation map. Flat deployments skip the assignment scan
    /// (`centroid_pages == 0`) and pay only the DRAM bookkeeping.
    ///
    /// This is what makes the modelled insert/upsert latency more than
    /// flash-only: page programs + centroid senses come from the mutation
    /// path, controller cores and DRAM from here.
    pub fn append_overhead(
        &self,
        entries: usize,
        centroid_pages: usize,
        centroids: usize,
    ) -> Nanos {
        if entries == 0 {
            return Nanos::ZERO;
        }
        let timing = &self.config.ssd.timing;
        let cores = EmbeddedCores::new(self.config.ssd.cores);
        let mut per_entry = Nanos::ZERO;
        if centroid_pages > 0 {
            // XOR + fail-bit count per centroid page (no pass/fail check —
            // the assignment keeps every distance), then the min-selection
            // over all centroid distances on the embedded core.
            per_entry += timing.in_plane_distance(false) * centroid_pages as u64;
            per_entry += cores.quickselect(centroids.max(1), 1);
        }
        // DRAM bookkeeping: one segment-table entry plus one relocation-map
        // slot per appended entry.
        per_entry +=
            self.dram_write(reis_update::segment::SEGMENT_ENTRY_BYTES + RELOCATION_ENTRY_BYTES);
        per_entry * entries as u64
    }

    /// Controller-side cost of tombstoning one entry: the id-map lookup on
    /// the embedded core plus the DRAM write of the validity bit. Deletes
    /// touch no flash, so this is their entire modelled latency.
    pub fn tombstone_overhead(&self) -> Nanos {
        let cores = EmbeddedCores::new(self.config.ssd.cores);
        cores.ftl_lookups(1) + self.dram_write(1)
    }

    /// Latency of one bookkeeping write of `bytes` to the controller DRAM
    /// (one access plus the streaming transfer, the same model
    /// `InternalDram::write` applies).
    fn dram_write(&self, bytes: usize) -> Nanos {
        let dram = &self.config.ssd.dram;
        dram.access_latency + Nanos::from_secs_f64(bytes as f64 / dram.bandwidth_bps)
    }

    /// Time the embedded core is busy for one query (used for core energy).
    /// Includes the per-barrier TTL maintenance of windowed adaptive scans —
    /// hidden or not, the core performs that work.
    pub fn core_busy(&self, activity: &QueryActivity, k: usize) -> Nanos {
        let cores = EmbeddedCores::new(self.config.ssd.cores);
        let candidates = self.config.rerank_factor * k;
        cores.quickselect(activity.coarse_entries + activity.fine_entries, candidates)
            + self.window_maintenance(activity.fine_windows, activity.fine_entries, candidates)
            + cores.rerank(activity.rerank_candidates, activity.dim)
            + cores.quicksort(activity.rerank_candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;

    fn activity() -> QueryActivity {
        QueryActivity {
            coarse_pages: 16,
            coarse_entries: 64,
            fine_pages: 512,
            fine_entries: 2_000,
            fine_windows: 0,
            rerank_candidates: 100,
            int8_pages: 32,
            documents: 10,
            embedding_slot_bytes: 128,
            dim: 1024,
            doc_slot_bytes: 4096,
        }
    }

    #[test]
    fn all_phases_contribute_and_total_sums_them() {
        let model = PerfModel::new(ReisConfig::ssd1());
        let breakdown = model.query_latency(&activity(), 10);
        assert!(breakdown.input_broadcast > Nanos::ZERO);
        assert!(breakdown.coarse_scan > Nanos::ZERO);
        assert!(breakdown.fine_scan > breakdown.coarse_scan);
        assert!(breakdown.rerank > Nanos::ZERO);
        assert!(breakdown.document_fetch > Nanos::ZERO);
        assert!(breakdown.host_transfer > Nanos::ZERO);
        let manual = breakdown.input_broadcast
            + breakdown.coarse_scan
            + breakdown.fine_scan
            + breakdown.select
            + breakdown.rerank
            + breakdown.document_fetch
            + breakdown.host_transfer;
        assert_eq!(breakdown.total(), manual);
    }

    #[test]
    fn pipelining_reduces_scan_latency() {
        let with = PerfModel::new(ReisConfig::ssd1());
        let without = PerfModel::new(ReisConfig::ssd1().with_optimizations(Optimizations {
            pipelining: false,
            ..Optimizations::all()
        }));
        let a = activity();
        assert!(
            with.scan(a.fine_pages, a.fine_entries, 128)
                < without.scan(a.fine_pages, a.fine_entries, 128)
        );
    }

    #[test]
    fn mpibc_reduces_broadcast_latency() {
        let with = PerfModel::new(ReisConfig::ssd2());
        let without = PerfModel::new(ReisConfig::ssd2().with_optimizations(Optimizations {
            multi_plane_ibc: false,
            ..Optimizations::all()
        }));
        assert!(with.input_broadcast(128) < without.input_broadcast(128));
    }

    #[test]
    fn fewer_transferred_entries_speed_up_the_scan() {
        // This is the effect distance filtering has on the timing model: the
        // same pages are scanned but far fewer entries cross the channels.
        let model = PerfModel::new(ReisConfig::ssd1());
        let filtered = model.scan(4096, 5_000, 128);
        let unfiltered = model.scan(4096, 4096 * 128, 128);
        assert!(filtered < unfiltered);
    }

    #[test]
    fn ssd2_is_faster_than_ssd1_for_the_same_activity() {
        let a = activity();
        let t1 = PerfModel::new(ReisConfig::ssd1())
            .query_latency(&a, 10)
            .total();
        let t2 = PerfModel::new(ReisConfig::ssd2())
            .query_latency(&a, 10)
            .total();
        assert!(t2 < t1);
    }

    #[test]
    fn empty_activity_costs_only_the_broadcast() {
        let model = PerfModel::new(ReisConfig::ssd1());
        let empty = QueryActivity {
            embedding_slot_bytes: 128,
            dim: 1024,
            ..Default::default()
        };
        let b = model.query_latency(&empty, 10);
        assert_eq!(b.coarse_scan, Nanos::ZERO);
        assert_eq!(b.fine_scan, Nanos::ZERO);
        assert_eq!(b.rerank, Nanos::ZERO);
        assert_eq!(b.document_fetch, Nanos::ZERO);
        assert!(b.input_broadcast > Nanos::ZERO);
    }

    #[test]
    fn fused_scan_amortizes_the_sense_but_not_the_compute() {
        let model = PerfModel::new(ReisConfig::ssd1());
        let (pages, entries, slot) = (4096usize, 5_000usize, 128usize);
        let single = model.scan(pages, entries, slot);
        // batch == 1 is exactly the single-query scan.
        assert_eq!(model.fused_scan(pages, 1, entries, slot), single);
        for batch in [2usize, 4, 8] {
            let fused = model.fused_scan(pages, batch, entries * batch, slot);
            let independent = single * batch as u64;
            assert!(
                fused < independent,
                "fused batch {batch}: {fused} should beat {independent}"
            );
            // The per-query in-plane compute still runs, so fusing is not free.
            assert!(
                fused > single,
                "fused batch {batch} must cost more than one scan"
            );
        }
    }

    #[test]
    fn window_maintenance_prices_barrier_quickselects() {
        let model = PerfModel::new(ReisConfig::ssd1());
        // Static scans cost nothing.
        assert_eq!(model.window_maintenance(0, 5_000, 100), Nanos::ZERO);
        let few = model.window_maintenance(4, 5_000, 100);
        assert!(few > Nanos::ZERO);
        // More barriers over the same entries cost more core time (each
        // barrier pays the candidate-set floor again).
        let many = model.window_maintenance(64, 5_000, 100);
        assert!(many > few);
        // The maintenance flows into core busy time and — without
        // pipelining to hide it — into the modelled select latency.
        let static_activity = activity();
        let windowed = QueryActivity {
            fine_windows: 64,
            ..static_activity
        };
        assert!(model.core_busy(&windowed, 10) > model.core_busy(&static_activity, 10));
        let unpipelined = PerfModel::new(ReisConfig::ssd1().with_optimizations(Optimizations {
            pipelining: false,
            ..Optimizations::all()
        }));
        assert!(
            unpipelined.query_latency(&windowed, 10).select
                > unpipelined.query_latency(&static_activity, 10).select
        );
    }

    #[test]
    fn append_overhead_prices_cores_and_dram() {
        let model = PerfModel::new(ReisConfig::ssd1());
        assert_eq!(model.append_overhead(0, 4, 100), Nanos::ZERO);
        // Flat deployments still pay the DRAM bookkeeping.
        let flat = model.append_overhead(1, 0, 0);
        assert!(flat > Nanos::ZERO);
        // IVF appends add the assignment scan and the centroid selection.
        let ivf = model.append_overhead(1, 4, 100);
        assert!(ivf > flat);
        assert!(model.append_overhead(2, 4, 100) == ivf * 2);
        assert!(model.append_overhead(1, 8, 100) > ivf);
    }

    #[test]
    fn tombstone_overhead_is_positive_and_tiny() {
        let model = PerfModel::new(ReisConfig::ssd1());
        let t = model.tombstone_overhead();
        assert!(t > Nanos::ZERO);
        assert!(t < model.append_overhead(1, 0, 0) * 10);
    }

    #[test]
    fn core_busy_time_is_positive_and_scales() {
        let model = PerfModel::new(ReisConfig::ssd1());
        let small = model.core_busy(
            &QueryActivity {
                fine_entries: 100,
                rerank_candidates: 10,
                dim: 128,
                ..activity()
            },
            10,
        );
        let large = model.core_busy(&activity(), 10);
        assert!(large > small);
    }
}
