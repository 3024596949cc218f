//! REIS system configuration.

use serde::{Deserialize, Serialize};

use reis_ssd::SsdConfig;
use reis_update::CompactionPolicy;

/// The three optimizations evaluated in the sensitivity study of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Optimizations {
    /// Distance Filtering (DF): discard embeddings whose Hamming distance
    /// from the query exceeds a threshold inside the flash die, before they
    /// are transferred to the controller (Sec. 4.3.3).
    pub distance_filtering: bool,
    /// Pipelining (PL): overlap page reads, in-plane computation, channel
    /// transfers and the controller's selection kernel (Sec. 4.3.4).
    pub pipelining: bool,
    /// Multi-Plane Input Broadcasting (MPIBC): broadcast the query to all
    /// planes of a die simultaneously (Sec. 4.3.4).
    pub multi_plane_ibc: bool,
}

impl Optimizations {
    /// All optimizations enabled (the full REIS design).
    pub fn all() -> Self {
        Optimizations {
            distance_filtering: true,
            pipelining: true,
            multi_plane_ibc: true,
        }
    }

    /// All optimizations disabled (the `No-OPT` baseline of Fig. 9).
    pub fn none() -> Self {
        Optimizations {
            distance_filtering: false,
            pipelining: false,
            multi_plane_ibc: false,
        }
    }

    /// `No-OPT` plus Distance Filtering only.
    pub fn df_only() -> Self {
        Optimizations {
            distance_filtering: true,
            ..Optimizations::none()
        }
    }

    /// Distance Filtering plus Pipelining.
    pub fn df_pl() -> Self {
        Optimizations {
            distance_filtering: true,
            pipelining: true,
            multi_plane_ibc: false,
        }
    }
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations::all()
    }
}

/// How far a scan is parallelized *inside* the device.
///
/// REIS partitions a single scan over the SSD's channel×die units so that
/// the flash-internal parallelism shortens the *latency* of one query, not
/// just the throughput of many (Sec. 4.3.4). The simulator mirrors that
/// with pool tasks, one per scan shard, each scoring a contiguous run of a
/// pass's pages ahead and logging its hits; the driving thread replays the
/// merged log into the queries' Temporal Top Lists. See [`crate::scan`]
/// for the split, the scan-ahead, the merge and the replay.
///
/// The default ([`ScanParallelism::auto`]) leaves the shard budget to the
/// caller's context: the host's available parallelism for a single query,
/// the `workers` cap for a batch. Results never depend on the setting —
/// only wall-clock time does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanParallelism {
    /// Maximum number of scan shards per pass; `None` means "the host
    /// budget" (capped by a batch's `workers`), `Some(1)` a sequential
    /// scan. The effective count is additionally capped by the device's
    /// channel×die unit count and by the size of the scan.
    pub max_shards: Option<usize>,
    /// Minimum pages a shard must receive for sharding to be worthwhile;
    /// passes smaller than `2 × min_pages_per_shard` run on one shard so
    /// task dispatch never dominates tiny scans.
    pub min_pages_per_shard: usize,
}

impl ScanParallelism {
    /// Shard up to the host budget (the default).
    pub fn auto() -> Self {
        ScanParallelism {
            max_shards: None,
            min_pages_per_shard: 16,
        }
    }

    /// Sequential scanning: one shard, no pool tasks — for single queries
    /// and batches alike.
    pub fn sequential() -> Self {
        ScanParallelism::sharded(1)
    }

    /// Shard every large-enough scan across up to `max_shards` workers.
    pub fn sharded(max_shards: usize) -> Self {
        ScanParallelism {
            max_shards: Some(max_shards.max(1)),
            ..ScanParallelism::auto()
        }
    }

    /// Builder-style override of the minimum shard size.
    pub fn with_min_pages_per_shard(mut self, pages: usize) -> Self {
        self.min_pages_per_shard = pages.max(1);
        self
    }

    /// The shard count to actually use for a pass of `pages` pages on a
    /// device with `scan_units` channel×die units (always at least 1);
    /// `budget` is what [`ScanParallelism::auto`] resolves to.
    pub fn effective_shards(&self, budget: usize, scan_units: usize, pages: usize) -> usize {
        self.max_shards
            .unwrap_or(budget)
            .min(scan_units)
            .min(pages / self.min_pages_per_shard.max(1))
            .max(1)
    }
}

impl Default for ScanParallelism {
    fn default() -> Self {
        ScanParallelism::auto()
    }
}

/// Which scans tighten their distance-filter threshold adaptively as the
/// Temporal Top List fills (see [`ReisConfig::with_adaptive_filtering`]).
///
/// The adaptive schedule is *windowed*: the scan's deterministic page list
/// (merged base ranges followed by the probed clusters' segment runs, in
/// probe order) is split into fixed page-count windows
/// ([`ReisConfig::adaptive_window_pages`]), and the threshold only tightens
/// at window barriers, computed from the Temporal-Top-List state
/// accumulated over all *completed* windows. The threshold a page's hits
/// are admitted under is therefore a pure function of the page's position
/// in that list — never of which worker scanned it when — so adaptive scans
/// are **partition-invariant**: results, documents and transferred-entry
/// counts are bit-identical across every [`ScanParallelism`] setting and
/// batch size, on every machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdaptiveFiltering {
    /// Never adapt; the static paper threshold holds for the whole scan.
    Off,
    /// Adapt only brute-force fine scans (the default): those scans walk the
    /// whole embedding region, so tightening pays the most, and their page
    /// order is the plain storage order on every machine.
    BruteForce,
    /// Adapt every fine scan, IVF included.
    All,
}

/// Complete configuration of a REIS system instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReisConfig {
    /// The underlying SSD configuration (geometry, timing, DRAM, cores).
    pub ssd: SsdConfig,
    /// Which of the REIS optimizations are enabled.
    pub optimizations: Optimizations,
    /// Reranking candidate multiplier: the engine reranks the top
    /// `rerank_factor × k` binary candidates in INT8 (the paper uses 10).
    pub rerank_factor: usize,
    /// Distance-filter threshold, expressed as a fraction of the embedding
    /// dimensionality; an embedding passes when its Hamming distance is at or
    /// below `threshold_fraction × dim`.
    pub filter_threshold_fraction: f64,
    /// PCIe bandwidth between the SSD and the host, bytes per second (used
    /// for returning document chunks).
    pub host_link_bandwidth_bps: f64,
    /// Bytes of one Temporal-Top-List entry on the flash channel, excluding
    /// the embedding itself (DIST + EADR + RADR + DADR + TAG).
    pub ttl_metadata_bytes: usize,
    /// Intra-query scan sharding, capped by the device's channel×die units.
    pub scan_parallelism: ScanParallelism,
    /// Which scans tighten the distance-filter threshold adaptively (see
    /// [`ReisConfig::with_adaptive_filtering`]). Defaults to
    /// [`AdaptiveFiltering::BruteForce`]: brute-force fine scans adapt, IVF
    /// scans keep the static paper threshold.
    pub adaptive_filtering: AdaptiveFiltering,
    /// Page-count window of the adaptive threshold schedule: an adapting
    /// scan's threshold tightens only at barriers every
    /// `adaptive_window_pages` pages of its deterministic page list (see
    /// [`AdaptiveFiltering`]). Values are clamped to at least 1; a window
    /// of 1 reproduces the historical tighten-after-every-page schedule,
    /// and a window larger than the scan is the static threshold.
    ///
    /// The window does not limit intra-scan parallelism: a whole pass is
    /// scored ahead on [`ScanParallelism::effective_shards`] shards under
    /// the thresholds in force at its start, and the barriers are replayed
    /// over the recorded hits on the driving thread, so a windowed pass
    /// shards like a static one. Smaller windows tighten sooner — fewer
    /// transferred entries, more barrier quickselects (`reis-perf` reports
    /// the barriers a query pays as `core.fine_windows_per_op`); the
    /// *results and entry counts* are identical under every parallelism
    /// setting — that is the windowed schedule's partition invariance.
    pub adaptive_window_pages: usize,
    /// When the update path compacts automatically (append segments folded
    /// back into dense regions). [`CompactionPolicy::manual`] disables
    /// auto-compaction entirely.
    pub compaction: CompactionPolicy,
}

impl ReisConfig {
    /// REIS on the cost-oriented SSD1 with all optimizations.
    pub fn ssd1() -> Self {
        ReisConfig {
            ssd: SsdConfig::ssd1(),
            optimizations: Optimizations::all(),
            rerank_factor: 10,
            filter_threshold_fraction: 0.47,
            host_link_bandwidth_bps: 7.0e9,
            ttl_metadata_bytes: 13,
            scan_parallelism: ScanParallelism::auto(),
            adaptive_filtering: AdaptiveFiltering::BruteForce,
            adaptive_window_pages: 4,
            compaction: CompactionPolicy::auto(),
        }
    }

    /// REIS on the performance-oriented SSD2 with all optimizations.
    pub fn ssd2() -> Self {
        ReisConfig {
            ssd: SsdConfig::ssd2(),
            ..ReisConfig::ssd1()
        }
    }

    /// A miniature configuration for unit tests.
    pub fn tiny() -> Self {
        ReisConfig {
            ssd: SsdConfig::tiny(),
            ..ReisConfig::ssd1()
        }
    }

    /// Builder-style override of the optimization set.
    pub fn with_optimizations(mut self, optimizations: Optimizations) -> Self {
        self.optimizations = optimizations;
        self
    }

    /// Builder-style override of the scan sharding policy.
    pub fn with_scan_parallelism(mut self, scan_parallelism: ScanParallelism) -> Self {
        self.scan_parallelism = scan_parallelism;
        self
    }

    /// Builder-style toggle of adaptive distance filtering: `true` adapts
    /// every fine scan ([`AdaptiveFiltering::All`]), `false` disables
    /// adaptation entirely ([`AdaptiveFiltering::Off`]). The constructor
    /// default sits between the two ([`AdaptiveFiltering::BruteForce`]).
    ///
    /// With adaptive filtering on, a scan tightens its pass/fail threshold
    /// once its Temporal Top List holds a full candidate set: an embedding
    /// whose distance exceeds the current k-th best can never enter the
    /// final candidate list, so transferring it is pure waste. The top-k
    /// result is provably identical to the static threshold; only the
    /// number of transferred entries — and with it the modelled channel
    /// transfer and quickselect latency, which [`crate::perf::PerfModel`]
    /// prices from the actual entry count — shrinks. The threshold tightens
    /// at fixed page-window barriers, which makes the schedule — and the
    /// transferred-entry counts — identical under every parallelism setting
    /// (see [`AdaptiveFiltering`] and
    /// [`ReisConfig::adaptive_window_pages`]).
    pub fn with_adaptive_filtering(mut self, adaptive: bool) -> Self {
        self.adaptive_filtering = if adaptive {
            AdaptiveFiltering::All
        } else {
            AdaptiveFiltering::Off
        };
        self
    }

    /// Builder-style override of the adaptive-filtering scope.
    pub fn with_adaptive_scope(mut self, scope: AdaptiveFiltering) -> Self {
        self.adaptive_filtering = scope;
        self
    }

    /// Builder-style override of the adaptive threshold-window size in
    /// pages (clamped to at least 1; see
    /// [`ReisConfig::adaptive_window_pages`]).
    pub fn with_adaptive_window(mut self, pages: usize) -> Self {
        self.adaptive_window_pages = pages.max(1);
        self
    }

    /// Builder-style override of the automatic compaction policy.
    pub fn with_compaction(mut self, compaction: CompactionPolicy) -> Self {
        self.compaction = compaction;
        self
    }

    /// Number of candidates handed to the reranker for a top-`k` search
    /// (`rerank_factor × k`, the paper's 10·k).
    pub fn rerank_candidates(&self, k: usize) -> usize {
        self.rerank_factor.max(1) * k.max(1)
    }

    /// Whether a fine scan adapts its distance-filter threshold, given
    /// whether the scan is brute-force (no cluster selection). Adapting
    /// requires distance filtering to be enabled in the first place.
    pub fn adapts(&self, brute_force: bool) -> bool {
        self.optimizations.distance_filtering
            && match self.adaptive_filtering {
                AdaptiveFiltering::Off => false,
                AdaptiveFiltering::BruteForce => brute_force,
                AdaptiveFiltering::All => true,
            }
    }

    /// The absolute Hamming-distance filter threshold for embeddings of
    /// `dim` dimensions (`u32::MAX`, i.e. no filtering, when DF is off).
    pub fn filter_threshold(&self, dim: usize) -> u32 {
        if !self.optimizations.distance_filtering {
            return u32::MAX;
        }
        (self.filter_threshold_fraction * dim as f64).round() as u32
    }
}

impl Default for ReisConfig {
    fn default() -> Self {
        ReisConfig::ssd1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_presets_cover_the_sensitivity_ladder() {
        assert!(!Optimizations::none().distance_filtering);
        assert!(Optimizations::df_only().distance_filtering);
        assert!(!Optimizations::df_only().pipelining);
        assert!(Optimizations::df_pl().pipelining);
        assert!(!Optimizations::df_pl().multi_plane_ibc);
        assert!(Optimizations::all().multi_plane_ibc);
    }

    #[test]
    fn filter_threshold_scales_with_dimensionality_and_respects_df() {
        let config = ReisConfig::ssd1();
        assert_eq!(config.filter_threshold(1024), 481);
        let no_df = config.with_optimizations(Optimizations::none());
        assert_eq!(no_df.filter_threshold(1024), u32::MAX);
        let tighter = ReisConfig {
            filter_threshold_fraction: 0.25,
            ..config
        };
        assert_eq!(tighter.filter_threshold(1024), 256);
    }

    #[test]
    fn effective_shards_respects_units_pages_and_floor() {
        // Sequential means sequential whatever the host budget is.
        let seq = ScanParallelism::sequential();
        assert_eq!(seq.effective_shards(64, 128, 10_000), 1);
        assert_eq!(ScanParallelism::sharded(0), seq);
        // The default takes the budget it is handed.
        let auto = ScanParallelism::auto();
        assert_eq!(auto, ScanParallelism::default());
        assert_eq!(auto.effective_shards(4, 128, 10_000), 4);
        assert_eq!(auto.effective_shards(1, 128, 10_000), 1);
        let sharded = ScanParallelism::sharded(8);
        // Capped by the requested maximum, not by the budget.
        assert_eq!(sharded.effective_shards(2, 128, 10_000), 8);
        // Capped by the device's scan units.
        assert_eq!(sharded.effective_shards(2, 4, 10_000), 4);
        // Capped by the scan size: 40 pages / 16 per shard = 2 shards.
        assert_eq!(sharded.effective_shards(2, 128, 40), 2);
        // Tiny scans stay sequential.
        assert_eq!(sharded.effective_shards(2, 128, 8), 1);
        let fine = sharded.with_min_pages_per_shard(1);
        assert_eq!(fine.effective_shards(2, 128, 8), 8);
        assert_eq!(fine.effective_shards(2, 128, 0), 1);
    }

    #[test]
    fn adaptive_window_builder_clamps_and_defaults() {
        let config = ReisConfig::ssd1();
        assert_eq!(config.adaptive_window_pages, 4);
        assert_eq!(config.with_adaptive_window(32).adaptive_window_pages, 32);
        // A zero window would never reach a barrier; it clamps to 1 (the
        // historical per-page schedule).
        assert_eq!(config.with_adaptive_window(0).adaptive_window_pages, 1);
    }

    #[test]
    fn adaptive_scope_and_fusion_defaults() {
        let config = ReisConfig::ssd1();
        assert_eq!(config.adaptive_filtering, AdaptiveFiltering::BruteForce);
        assert!(config.adapts(true));
        assert!(!config.adapts(false));
        assert!(config.with_adaptive_filtering(true).adapts(false));
        assert!(!config.with_adaptive_filtering(false).adapts(true));
        // Without distance filtering there is no threshold to tighten.
        assert!(!config
            .with_optimizations(Optimizations::none())
            .adapts(true));
        assert_eq!(
            config
                .with_adaptive_scope(AdaptiveFiltering::Off)
                .adaptive_filtering,
            AdaptiveFiltering::Off
        );
    }

    #[test]
    fn presets_differ_only_in_the_ssd() {
        let a = ReisConfig::ssd1();
        let b = ReisConfig::ssd2();
        assert_eq!(a.rerank_factor, b.rerank_factor);
        assert_ne!(a.ssd.geometry.channels, b.ssd.geometry.channels);
        assert_eq!(a.ssd.name, "REIS-SSD1");
        assert_eq!(b.ssd.name, "REIS-SSD2");
    }
}
