//! The static-key metric registry.
//!
//! Every metric the serving stack records is declared here as an enum
//! variant — a *static key*. Recording a sample indexes a fixed array of
//! atomics by `id as usize`; the hot path never hashes a string, never
//! allocates, and never takes a lock. The name/help strings exist only
//! for the exporters, which run off the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in a [`Histogram`]: one per power of two of a `u64`
/// sample (bucket 0 holds exact zeros), so any nanosecond latency or
/// entry count lands without configuration.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Monotonic event counters.
///
/// The `#[repr(usize)]` discriminants index the registry's counter
/// array directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Queries executed: every single search, every member of a batch and
    /// every leaf query.
    Queries,
    /// Batched search calls.
    Batches,
    /// Batches that took the page-major fused path.
    FusedBatches,
    /// Coarse (centroid) pages scanned.
    CoarsePages,
    /// Fine-scan pages scanned.
    FinePages,
    /// Fine-scan entries transferred to the controller (the distance
    /// filter's survivors — `ScanCounts::entries_passed`).
    FineEntries,
    /// Adaptive fine-scan windows retired (barrier crossings).
    FineWindows,
    /// Entries attributed to individual scan windows at their barriers.
    /// Invariant: equals [`CounterId::FineEntries`] in every execution
    /// mode (the telemetry property suite enforces it).
    WindowEntries,
    /// NAND page senses (reads) attributed to query execution, measured
    /// as `FlashStats::page_reads` deltas around each query.
    FlashSenses,
    /// Candidates submitted to INT8 reranking.
    RerankCandidates,
    /// Documents fetched for final results.
    DocumentsFetched,
    /// Entries inserted by mutations.
    Inserts,
    /// Entries deleted (tombstoned) by mutations.
    Deletes,
    /// Entries upserted by mutations.
    Upserts,
    /// Compaction passes completed.
    Compactions,
    /// Pages rewritten by compaction.
    CompactionPagesRewritten,
    /// Blocks reclaimed (erased) by compaction.
    CompactionBlocksReclaimed,
    /// WAL frames appended.
    WalAppends,
    /// Bytes appended (and flushed) to the WAL.
    WalAppendBytes,
    /// Snapshots written.
    SnapshotWrites,
    /// Bytes written to snapshots.
    SnapshotBytes,
    /// Recoveries performed (`ReisSystem::recover`).
    Recoveries,
    /// WAL records replayed during recovery.
    WalRecordsReplayed,
    /// Torn WAL tails quarantined during recovery.
    WalQuarantines,
    /// Queries served by a cluster aggregator.
    ClusterQueries,
    /// Leaf requests fanned out by the aggregator (one per leaf per
    /// query). Invariant: equals the sum of the leaves' own
    /// [`CounterId::Queries`] counters.
    LeafRequests,
    /// Hedge requests launched against straggling leaves.
    HedgesLaunched,
    /// Leaf query attempts retried after a transient fault (each retry
    /// issuance past a replica's first attempt counts once).
    LeafRetries,
    /// Replicas passed over while serving a shard: already-down replicas
    /// skipped plus replicas abandoned after exhausting their retries.
    LeafFailovers,
    /// Cluster queries answered with partial shard coverage (at least one
    /// shard had no live replica).
    DegradedQueries,
    /// Corrupt snapshots found by a durable-store scrub.
    ScrubCorruptSnapshots,
    /// WAL files a scrub found with a torn or corrupt (quarantinable) tail.
    ScrubQuarantinedWals,
    /// Requests accepted by an async pipeline's submission queues.
    PipelineRequests,
    /// Requests shed by pipeline backpressure (`ReisError::Overloaded`).
    PipelineShed,
}

impl CounterId {
    /// Every counter, in registry order.
    pub const ALL: [CounterId; 34] = [
        CounterId::Queries,
        CounterId::Batches,
        CounterId::FusedBatches,
        CounterId::CoarsePages,
        CounterId::FinePages,
        CounterId::FineEntries,
        CounterId::FineWindows,
        CounterId::WindowEntries,
        CounterId::FlashSenses,
        CounterId::RerankCandidates,
        CounterId::DocumentsFetched,
        CounterId::Inserts,
        CounterId::Deletes,
        CounterId::Upserts,
        CounterId::Compactions,
        CounterId::CompactionPagesRewritten,
        CounterId::CompactionBlocksReclaimed,
        CounterId::WalAppends,
        CounterId::WalAppendBytes,
        CounterId::SnapshotWrites,
        CounterId::SnapshotBytes,
        CounterId::Recoveries,
        CounterId::WalRecordsReplayed,
        CounterId::WalQuarantines,
        CounterId::ClusterQueries,
        CounterId::LeafRequests,
        CounterId::HedgesLaunched,
        CounterId::LeafRetries,
        CounterId::LeafFailovers,
        CounterId::DegradedQueries,
        CounterId::ScrubCorruptSnapshots,
        CounterId::ScrubQuarantinedWals,
        CounterId::PipelineRequests,
        CounterId::PipelineShed,
    ];

    /// The Prometheus metric name.
    pub const fn name(self) -> &'static str {
        match self {
            CounterId::Queries => "reis_queries_total",
            CounterId::Batches => "reis_batches_total",
            CounterId::FusedBatches => "reis_fused_batches_total",
            CounterId::CoarsePages => "reis_coarse_pages_total",
            CounterId::FinePages => "reis_fine_pages_total",
            CounterId::FineEntries => "reis_fine_entries_total",
            CounterId::FineWindows => "reis_fine_windows_total",
            CounterId::WindowEntries => "reis_window_entries_total",
            CounterId::FlashSenses => "reis_flash_senses_total",
            CounterId::RerankCandidates => "reis_rerank_candidates_total",
            CounterId::DocumentsFetched => "reis_documents_fetched_total",
            CounterId::Inserts => "reis_inserts_total",
            CounterId::Deletes => "reis_deletes_total",
            CounterId::Upserts => "reis_upserts_total",
            CounterId::Compactions => "reis_compactions_total",
            CounterId::CompactionPagesRewritten => "reis_compaction_pages_rewritten_total",
            CounterId::CompactionBlocksReclaimed => "reis_compaction_blocks_reclaimed_total",
            CounterId::WalAppends => "reis_wal_appends_total",
            CounterId::WalAppendBytes => "reis_wal_append_bytes_total",
            CounterId::SnapshotWrites => "reis_snapshot_writes_total",
            CounterId::SnapshotBytes => "reis_snapshot_bytes_total",
            CounterId::Recoveries => "reis_recoveries_total",
            CounterId::WalRecordsReplayed => "reis_wal_records_replayed_total",
            CounterId::WalQuarantines => "reis_wal_quarantines_total",
            CounterId::ClusterQueries => "reis_cluster_queries_total",
            CounterId::LeafRequests => "reis_leaf_requests_total",
            CounterId::HedgesLaunched => "reis_hedges_launched_total",
            CounterId::LeafRetries => "reis_leaf_retries_total",
            CounterId::LeafFailovers => "reis_leaf_failovers_total",
            CounterId::DegradedQueries => "reis_degraded_queries_total",
            CounterId::ScrubCorruptSnapshots => "reis_scrub_corrupt_snapshots_total",
            CounterId::ScrubQuarantinedWals => "reis_scrub_quarantined_wals_total",
            CounterId::PipelineRequests => "reis_pipeline_requests_total",
            CounterId::PipelineShed => "reis_pipeline_shed_total",
        }
    }

    /// The Prometheus `# HELP` line.
    pub const fn help(self) -> &'static str {
        match self {
            CounterId::Queries => "Single queries executed on this system",
            CounterId::Batches => "Batched search calls",
            CounterId::FusedBatches => "Batches executed on the page-major fused path",
            CounterId::CoarsePages => "Coarse (centroid) pages scanned",
            CounterId::FinePages => "Fine-scan pages scanned",
            CounterId::FineEntries => "Fine-scan entries transferred to the controller",
            CounterId::FineWindows => "Adaptive fine-scan windows retired",
            CounterId::WindowEntries => "Entries attributed to scan windows at barriers",
            CounterId::FlashSenses => "NAND page senses attributed to query execution",
            CounterId::RerankCandidates => "Candidates submitted to INT8 reranking",
            CounterId::DocumentsFetched => "Documents fetched for final results",
            CounterId::Inserts => "Entries inserted",
            CounterId::Deletes => "Entries deleted (tombstoned)",
            CounterId::Upserts => "Entries upserted",
            CounterId::Compactions => "Compaction passes completed",
            CounterId::CompactionPagesRewritten => "Pages rewritten by compaction",
            CounterId::CompactionBlocksReclaimed => "Blocks reclaimed by compaction",
            CounterId::WalAppends => "WAL frames appended",
            CounterId::WalAppendBytes => "Bytes appended to the WAL",
            CounterId::SnapshotWrites => "Snapshots written",
            CounterId::SnapshotBytes => "Bytes written to snapshots",
            CounterId::Recoveries => "Recoveries performed",
            CounterId::WalRecordsReplayed => "WAL records replayed during recovery",
            CounterId::WalQuarantines => "Torn WAL tails quarantined during recovery",
            CounterId::ClusterQueries => "Queries served by the cluster aggregator",
            CounterId::LeafRequests => "Leaf requests fanned out by the aggregator",
            CounterId::HedgesLaunched => "Hedge requests launched against stragglers",
            CounterId::LeafRetries => "Leaf query attempts retried after a transient fault",
            CounterId::LeafFailovers => "Replicas passed over while serving a shard",
            CounterId::DegradedQueries => "Cluster queries answered with partial shard coverage",
            CounterId::ScrubCorruptSnapshots => "Corrupt snapshots found by a scrub",
            CounterId::ScrubQuarantinedWals => "WAL files a scrub found with a corrupt tail",
            CounterId::PipelineRequests => "Requests accepted by an async pipeline",
            CounterId::PipelineShed => "Requests shed by pipeline backpressure",
        }
    }
}

/// Last-value gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Live append-segment entries across deployed databases.
    SegmentEntries,
    /// Dead (tombstoned) entries across deployed databases.
    Tombstones,
    /// Databases currently deployed.
    DatabasesDeployed,
    /// Leaves in the cluster (aggregator only).
    ClusterLeaves,
}

impl GaugeId {
    /// Every gauge, in registry order.
    pub const ALL: [GaugeId; 4] = [
        GaugeId::SegmentEntries,
        GaugeId::Tombstones,
        GaugeId::DatabasesDeployed,
        GaugeId::ClusterLeaves,
    ];

    /// The Prometheus metric name.
    pub const fn name(self) -> &'static str {
        match self {
            GaugeId::SegmentEntries => "reis_segment_entries",
            GaugeId::Tombstones => "reis_tombstones",
            GaugeId::DatabasesDeployed => "reis_databases_deployed",
            GaugeId::ClusterLeaves => "reis_cluster_leaves",
        }
    }

    /// The Prometheus `# HELP` line.
    pub const fn help(self) -> &'static str {
        match self {
            GaugeId::SegmentEntries => "Live append-segment entries",
            GaugeId::Tombstones => "Dead (tombstoned) entries",
            GaugeId::DatabasesDeployed => "Databases currently deployed",
            GaugeId::ClusterLeaves => "Leaves in the cluster",
        }
    }
}

/// Fixed-bucket log2 histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Wall-clock per-query latency (ns).
    QueryWallNs,
    /// Modelled (`PerfModel`) per-query latency (ns).
    QueryModelledNs,
    /// Modelled coarse-scan stage time (ns).
    CoarseModelledNs,
    /// Modelled fine-scan stage time (ns).
    FineModelledNs,
    /// Modelled rerank stage time (ns).
    RerankModelledNs,
    /// Modelled document-fetch stage time (ns).
    DocFetchModelledNs,
    /// Wall-clock per-mutation latency (ns).
    MutationWallNs,
    /// Modelled per-mutation latency (ns).
    MutationModelledNs,
    /// Wall-clock compaction latency (ns).
    CompactionWallNs,
    /// Wall-clock snapshot-save latency (ns).
    SnapshotWallNs,
    /// Wall-clock recovery latency (ns).
    RecoveryWallNs,
    /// Entries transferred per adaptive scan window.
    WindowEntriesPerWindow,
    /// Modelled per-leaf completion time under the skew model (ns).
    LeafCompletionNs,
    /// Modelled per-query fan-out latency — max over leaves (ns).
    FanoutNs,
    /// Pipeline lane depth observed at each submission.
    PipelineQueueDepth,
    /// Virtual time a request waited in its lane before dispatch (ns).
    PipelineQueueWaitNs,
    /// Size of each batch the pipeline's formation handed to the executor.
    PipelineBatchSize,
}

impl HistogramId {
    /// Every histogram, in registry order.
    pub const ALL: [HistogramId; 17] = [
        HistogramId::QueryWallNs,
        HistogramId::QueryModelledNs,
        HistogramId::CoarseModelledNs,
        HistogramId::FineModelledNs,
        HistogramId::RerankModelledNs,
        HistogramId::DocFetchModelledNs,
        HistogramId::MutationWallNs,
        HistogramId::MutationModelledNs,
        HistogramId::CompactionWallNs,
        HistogramId::SnapshotWallNs,
        HistogramId::RecoveryWallNs,
        HistogramId::WindowEntriesPerWindow,
        HistogramId::LeafCompletionNs,
        HistogramId::FanoutNs,
        HistogramId::PipelineQueueDepth,
        HistogramId::PipelineQueueWaitNs,
        HistogramId::PipelineBatchSize,
    ];

    /// The Prometheus metric name.
    pub const fn name(self) -> &'static str {
        match self {
            HistogramId::QueryWallNs => "reis_query_wall_ns",
            HistogramId::QueryModelledNs => "reis_query_modelled_ns",
            HistogramId::CoarseModelledNs => "reis_coarse_modelled_ns",
            HistogramId::FineModelledNs => "reis_fine_modelled_ns",
            HistogramId::RerankModelledNs => "reis_rerank_modelled_ns",
            HistogramId::DocFetchModelledNs => "reis_doc_fetch_modelled_ns",
            HistogramId::MutationWallNs => "reis_mutation_wall_ns",
            HistogramId::MutationModelledNs => "reis_mutation_modelled_ns",
            HistogramId::CompactionWallNs => "reis_compaction_wall_ns",
            HistogramId::SnapshotWallNs => "reis_snapshot_wall_ns",
            HistogramId::RecoveryWallNs => "reis_recovery_wall_ns",
            HistogramId::WindowEntriesPerWindow => "reis_window_entries_per_window",
            HistogramId::LeafCompletionNs => "reis_leaf_completion_ns",
            HistogramId::FanoutNs => "reis_fanout_ns",
            HistogramId::PipelineQueueDepth => "reis_pipeline_queue_depth",
            HistogramId::PipelineQueueWaitNs => "reis_pipeline_queue_wait_ns",
            HistogramId::PipelineBatchSize => "reis_pipeline_batch_size",
        }
    }

    /// The Prometheus `# HELP` line.
    pub const fn help(self) -> &'static str {
        match self {
            HistogramId::QueryWallNs => "Wall-clock per-query latency in nanoseconds",
            HistogramId::QueryModelledNs => "Modelled per-query latency in nanoseconds",
            HistogramId::CoarseModelledNs => "Modelled coarse-scan stage time in nanoseconds",
            HistogramId::FineModelledNs => "Modelled fine-scan stage time in nanoseconds",
            HistogramId::RerankModelledNs => "Modelled rerank stage time in nanoseconds",
            HistogramId::DocFetchModelledNs => "Modelled document-fetch stage time in nanoseconds",
            HistogramId::MutationWallNs => "Wall-clock per-mutation latency in nanoseconds",
            HistogramId::MutationModelledNs => "Modelled per-mutation latency in nanoseconds",
            HistogramId::CompactionWallNs => "Wall-clock compaction latency in nanoseconds",
            HistogramId::SnapshotWallNs => "Wall-clock snapshot-save latency in nanoseconds",
            HistogramId::RecoveryWallNs => "Wall-clock recovery latency in nanoseconds",
            HistogramId::WindowEntriesPerWindow => "Entries transferred per adaptive scan window",
            HistogramId::LeafCompletionNs => "Modelled per-leaf completion time in nanoseconds",
            HistogramId::FanoutNs => "Modelled per-query fan-out latency in nanoseconds",
            HistogramId::PipelineQueueDepth => "Pipeline lane depth observed at each submission",
            HistogramId::PipelineQueueWaitNs => {
                "Virtual nanoseconds a request waited in its lane before dispatch"
            }
            HistogramId::PipelineBatchSize => "Formed batch size handed to the batch executor",
        }
    }
}

/// One log2 histogram: 64 power-of-two buckets plus an exact-zero
/// bucket, a sample count and a sample sum — all relaxed atomics.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// The bucket a sample lands in: 0 for an exact zero, otherwise
/// `floor(log2(value)) + 1` (bucket `i` covers `[2^(i-1), 2^i)`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A consistent-enough copy of one histogram's state (each atomic is
/// read independently; concurrent recording can skew count vs buckets
/// by in-flight samples, which is acceptable for monitoring output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples observed.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean of the observed samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`), linearly interpolated
    /// inside the containing power-of-two bucket. Exact when every
    /// sample in the bucket is uniform; at worst off by the bucket
    /// width. Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            if cumulative + in_bucket >= target {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (i - 1)) as f64;
                let hi = if i >= 64 {
                    u64::MAX as f64
                } else {
                    (1u64 << i) as f64
                };
                let into = (target - cumulative) as f64 / in_bucket as f64;
                return lo + (hi - lo) * into;
            }
            cumulative += in_bucket;
        }
        0.0
    }

    /// The difference `self - earlier` (for interval measurements).
    /// Saturates at zero if `earlier` has counts this snapshot lacks.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, out) in buckets.iter_mut().enumerate() {
            *out = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

/// The fixed-size registry: one atomic slot per declared metric.
///
/// Construction allocates nothing beyond the arrays themselves, and no
/// recording path allocates, locks or hashes.
#[derive(Debug)]
pub struct Registry {
    counters: [AtomicU64; CounterId::ALL.len()],
    gauges: [AtomicU64; GaugeId::ALL.len()],
    histograms: [Histogram; HistogramId::ALL.len()],
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh all-zero registry.
    pub fn new() -> Self {
        Registry {
            counters: [const { AtomicU64::new(0) }; CounterId::ALL.len()],
            gauges: [const { AtomicU64::new(0) }; GaugeId::ALL.len()],
            histograms: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn count(&self, id: CounterId, by: u64) {
        self.counters[id as usize].fetch_add(by, Ordering::Relaxed);
    }

    /// Read a counter.
    #[inline]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// Set a gauge to its new last value.
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, value: u64) {
        self.gauges[id as usize].store(value, Ordering::Relaxed);
    }

    /// Read a gauge.
    #[inline]
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize].load(Ordering::Relaxed)
    }

    /// Record one histogram sample.
    #[inline]
    pub fn observe(&self, id: HistogramId, value: u64) {
        self.histograms[id as usize].observe(value);
    }

    /// Snapshot one histogram.
    pub fn histogram(&self, id: HistogramId) -> HistogramSnapshot {
        self.histograms[id as usize].snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let registry = Registry::new();
        registry.count(CounterId::Queries, 3);
        registry.count(CounterId::Queries, 2);
        assert_eq!(registry.counter(CounterId::Queries), 5);
        assert_eq!(registry.counter(CounterId::Inserts), 0);

        registry.gauge_set(GaugeId::Tombstones, 17);
        registry.gauge_set(GaugeId::Tombstones, 9);
        assert_eq!(registry.gauge(GaugeId::Tombstones), 9);

        for v in [0u64, 1, 100, 100, 100, 1_000_000] {
            registry.observe(HistogramId::QueryWallNs, v);
        }
        let snap = registry.histogram(HistogramId::QueryWallNs);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1_000_301);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[bucket_index(100)], 3);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let registry = Registry::new();
        for _ in 0..100 {
            registry.observe(HistogramId::FanoutNs, 1000);
        }
        let snap = registry.histogram(HistogramId::FanoutNs);
        // All samples share bucket [512, 1024); every quantile lies there.
        for q in [0.5, 0.95, 0.99] {
            let est = snap.quantile(q);
            assert!((512.0..1024.0).contains(&est), "q{q}: {est}");
        }
        assert_eq!(snap.quantile(0.5) as u64, snap.quantile(0.5) as u64);
        // Mixed magnitudes order correctly.
        let registry = Registry::new();
        for _ in 0..90 {
            registry.observe(HistogramId::FanoutNs, 100);
        }
        for _ in 0..10 {
            registry.observe(HistogramId::FanoutNs, 1 << 20);
        }
        let snap = registry.histogram(HistogramId::FanoutNs);
        assert!(snap.quantile(0.5) < 256.0);
        assert!(snap.quantile(0.95) >= (1 << 19) as f64);
        // Deltas subtract interval starts.
        let empty = HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        };
        assert_eq!(snap.delta(&empty), snap);
        assert_eq!(snap.delta(&snap).count, 0);
    }
}
