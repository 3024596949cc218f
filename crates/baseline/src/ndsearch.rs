//! Model of NDSearch, the graph-traversal near-data ANNS accelerator
//! (Fig. 11).
//!
//! NDSearch executes HNSW / DiskANN-style searches near the flash dies. Graph
//! traversal is inherently sequential in depth — the next vertex to visit is
//! only known after the current vertex has been examined — so its latency is
//! governed by the number of traversal *steps* times the flash read latency,
//! with only the beam width available as parallelism, and with channel/chip
//! conflicts eroding even that (Sec. 3.2). The model exposes the hop count
//! and beam width so the benchmarks can sweep them; the defaults are
//! calibrated to billion-scale beam searches at the recall points of
//! Fig. 11.

use serde::{Deserialize, Serialize};

use reis_core::ReisConfig;
use reis_nand::{Nanos, ProgramScheme};
use reis_workloads::DatasetProfile;

/// Which graph index NDSearch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NdSearchAlgorithm {
    /// In-memory-style HNSW graph laid out in flash.
    Hnsw,
    /// The SSD-resident DiskANN (Vamana) graph.
    DiskAnn,
}

/// Analytic model of NDSearch on a given SSD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NdSearchModel {
    config: ReisConfig,
    /// Vertices visited per query at the target recall.
    pub hops_per_query: usize,
    /// Traversal beam width (vertex expansions that can proceed in
    /// parallel).
    pub beam_width: usize,
    /// Fraction of beam parallelism lost to channel / chip conflicts caused
    /// by the irregular access pattern.
    pub conflict_factor: f64,
}

impl NdSearchModel {
    /// Create a model with hop counts calibrated for a billion-scale dataset
    /// at roughly 0.93–0.94 Recall@10 (the Fig. 11 operating points).
    pub fn new(config: ReisConfig, algorithm: NdSearchAlgorithm) -> Self {
        let (hops, beam) = match algorithm {
            // HNSW visits fewer vertices but each visit is a dependent flash
            // read; DiskANN uses larger beams over a flatter graph.
            NdSearchAlgorithm::Hnsw => (1_800, 4),
            NdSearchAlgorithm::DiskAnn => (2_600, 8),
        };
        NdSearchModel {
            config,
            hops_per_query: hops,
            beam_width: beam,
            conflict_factor: 0.35,
        }
    }

    /// Per-query latency: dependent flash reads of visited vertices, with
    /// beam-width parallelism degraded by access conflicts, plus the
    /// neighbour-data transfers.
    pub fn query_latency(&self, profile: &DatasetProfile) -> Nanos {
        let timing = &self.config.ssd.timing;
        let effective_beam = (self.beam_width as f64 * (1.0 - self.conflict_factor)).max(1.0);
        let dependent_reads = (self.hops_per_query as f64 / effective_beam).ceil() as u64;
        let read = timing.read_latency(ProgramScheme::Ispp(reis_nand::CellMode::Slc));
        // Each visited vertex pulls its vector plus adjacency list over the
        // channel (vector bytes + ~64 neighbour ids).
        let vertex_bytes = profile.dim * 4 + 64 * 4;
        let transfer = timing.channel_transfer(vertex_bytes) * self.hops_per_query as u64
            / self.config.ssd.geometry.channels as u64;
        read * dependent_reads + transfer
    }

    /// Queries per second at the modelled operating point.
    pub fn qps(&self, profile: &DatasetProfile) -> f64 {
        let secs = self.query_latency(profile).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            1.0 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diskann_and_hnsw_have_distinct_operating_points() {
        let sift = DatasetProfile::sift_1b();
        let hnsw = NdSearchModel::new(ReisConfig::ssd2(), NdSearchAlgorithm::Hnsw);
        let diskann = NdSearchModel::new(ReisConfig::ssd2(), NdSearchAlgorithm::DiskAnn);
        assert_ne!(hnsw.query_latency(&sift), diskann.query_latency(&sift));
        assert!(hnsw.qps(&sift) > 0.0);
    }

    #[test]
    fn more_hops_cost_more() {
        let deep = DatasetProfile::deep_1b();
        let base = NdSearchModel::new(ReisConfig::ssd1(), NdSearchAlgorithm::Hnsw);
        let deeper = NdSearchModel {
            hops_per_query: base.hops_per_query * 2,
            ..base
        };
        assert!(deeper.query_latency(&deep) > base.query_latency(&deep));
    }

    #[test]
    fn graph_traversal_latency_is_dominated_by_dependent_reads() {
        // The whole point of the comparison: thousands of dependent flash
        // reads put NDSearch in the multi-millisecond range per query.
        let sift = DatasetProfile::sift_1b();
        let model = NdSearchModel::new(ReisConfig::ssd2(), NdSearchAlgorithm::Hnsw);
        let latency = model.query_latency(&sift);
        assert!(latency > Nanos::from_millis(5));
    }
}
