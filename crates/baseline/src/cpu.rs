//! The host CPU baseline (CPU-Real, No-I/O and CPU+BQ).
//!
//! The paper's baseline is a dual-socket AMD EPYC 9554 server with 1.5 TB of
//! DDR4 and a PM9A3 SSD (Table 3). Its retrieval time has two parts: loading
//! the dataset from storage into host DRAM and the in-memory ANNS itself.
//! This model prices both from first-order parameters (storage bandwidth,
//! per-core distance throughput, memory bandwidth), which is what governs the
//! CPU-Real, No-I/O and CPU+BQ series of Figs. 2, 3, 7, 8 and Table 4.

use serde::{Deserialize, Serialize};

use reis_workloads::DatasetProfile;

/// Parameters of the host CPU system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSystemConfig {
    /// Number of physical cores across both sockets.
    pub cores: usize,
    /// Sustained clock frequency in Hz.
    pub clock_hz: f64,
    /// Effective f32 dimension-operations per second per core (SIMD distance
    /// kernel, accounting for loads).
    pub f32_dims_per_sec_per_core: f64,
    /// Effective INT8 dimension-operations per second per core.
    pub int8_dims_per_sec_per_core: f64,
    /// Effective binary (bit) operations per second per core (XOR+popcount).
    pub binary_bits_per_sec_per_core: f64,
    /// Aggregate DRAM bandwidth in bytes per second (caps streaming scans).
    pub dram_bandwidth_bps: f64,
    /// Sequential read bandwidth of the SSD used for dataset loading, bytes
    /// per second.
    pub storage_read_bps: f64,
    /// Average power of the CPU package(s) under load, watts.
    pub cpu_power_w: f64,
    /// Average power of the DRAM subsystem under load, watts.
    pub dram_power_w: f64,
    /// Average power of the storage device during loading, watts.
    pub storage_power_w: f64,
    /// Fraction of the theoretical many-core throughput a single retrieval
    /// batch actually sustains (synchronisation, NUMA and memory-latency
    /// effects keep real FAISS-style scans well below linear scaling).
    pub parallel_efficiency: f64,
}

impl CpuSystemConfig {
    /// The paper's CPU-Real configuration: 2 × AMD EPYC 9554 (128 cores),
    /// 1.5 TB DDR4, Samsung PM9A3.
    pub fn epyc_9554_dual() -> Self {
        CpuSystemConfig {
            cores: 128,
            clock_hz: 3.1e9,
            f32_dims_per_sec_per_core: 1.6e10,
            int8_dims_per_sec_per_core: 3.2e10,
            binary_bits_per_sec_per_core: 2.0e11,
            dram_bandwidth_bps: 400.0e9,
            storage_read_bps: 6.8e9,
            cpu_power_w: 540.0,
            dram_power_w: 120.0,
            storage_power_w: 12.0,
            parallel_efficiency: 0.30,
        }
    }

    /// Total system power during the search phase, watts.
    pub fn compute_power_w(&self) -> f64 {
        self.cpu_power_w + self.dram_power_w
    }

    /// Total system power during dataset loading, watts.
    pub fn loading_power_w(&self) -> f64 {
        // Loading keeps the storage device and memory busy but the cores
        // mostly stalled; charge a quarter of the CPU's active power.
        self.cpu_power_w * 0.25 + self.dram_power_w + self.storage_power_w
    }
}

impl Default for CpuSystemConfig {
    fn default() -> Self {
        CpuSystemConfig::epyc_9554_dual()
    }
}

/// Which embedding representation the CPU searches over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CpuPrecision {
    /// Full-precision `f32` embeddings (Fig. 2 and the BF columns).
    Float32,
    /// Binary-quantized embeddings with INT8 reranking (Fig. 3 and the IVF
    /// columns, matching REIS's algorithm).
    BinaryWithRerank,
}

/// Result of evaluating the CPU baseline on one workload setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuRetrievalEstimate {
    /// Dataset-loading time in seconds (zero for the No-I/O variant).
    pub load_seconds: f64,
    /// In-memory search time per query in seconds.
    pub search_seconds_per_query: f64,
    /// Number of queries the loading cost is amortized over.
    pub queries: usize,
    /// System power during loading, watts.
    pub loading_power_w: f64,
    /// System power during search, watts.
    pub compute_power_w: f64,
}

impl CpuRetrievalEstimate {
    /// Total retrieval-stage time for the whole query batch, seconds.
    pub fn total_seconds(&self) -> f64 {
        self.load_seconds + self.search_seconds_per_query * self.queries as f64
    }

    /// Sustained queries per second over the batch (the Fig. 7 metric).
    pub fn qps(&self) -> f64 {
        if self.total_seconds() <= 0.0 {
            return 0.0;
        }
        self.queries as f64 / self.total_seconds()
    }

    /// Total energy of the retrieval stage in joules.
    pub fn energy_joules(&self) -> f64 {
        self.load_seconds * self.loading_power_w
            + self.search_seconds_per_query * self.queries as f64 * self.compute_power_w
    }

    /// Queries per second per watt (the Fig. 8 metric).
    pub fn qps_per_watt(&self) -> f64 {
        let energy = self.energy_joules();
        if energy <= 0.0 {
            return 0.0;
        }
        self.queries as f64 / energy
    }
}

/// The CPU baseline system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSystem {
    config: CpuSystemConfig,
}

impl CpuSystem {
    /// Create the baseline from its configuration.
    pub fn new(config: CpuSystemConfig) -> Self {
        CpuSystem { config }
    }

    /// Effective number of cores after accounting for parallel efficiency.
    fn effective_cores(&self) -> f64 {
        (self.config.cores as f64 * self.config.parallel_efficiency).max(1.0)
    }

    /// Time to load `bytes` from storage into host memory, seconds.
    pub fn load_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.config.storage_read_bps
    }

    /// In-memory brute-force search time per query, seconds.
    pub fn flat_search_seconds(&self, profile: &DatasetProfile, precision: CpuPrecision) -> f64 {
        let n = profile.full_entries as f64;
        let dim = profile.dim as f64;
        match precision {
            CpuPrecision::Float32 => {
                let compute =
                    n * dim / (self.config.f32_dims_per_sec_per_core * self.effective_cores());
                let memory = n * dim * 4.0 / self.config.dram_bandwidth_bps;
                compute.max(memory)
            }
            CpuPrecision::BinaryWithRerank => {
                let compute =
                    n * dim / (self.config.binary_bits_per_sec_per_core * self.effective_cores());
                let memory = n * dim / 8.0 / self.config.dram_bandwidth_bps;
                let rerank = self.rerank_seconds(profile, 100);
                compute.max(memory) + rerank
            }
        }
    }

    /// In-memory IVF search time per query, seconds, probing `nprobe` of the
    /// profile's `full_nlist` clusters.
    pub fn ivf_search_seconds(
        &self,
        profile: &DatasetProfile,
        nprobe: usize,
        precision: CpuPrecision,
    ) -> f64 {
        let n = profile.full_entries as f64;
        let dim = profile.dim as f64;
        let nlist = profile.full_nlist as f64;
        let probed = n * (nprobe as f64 / nlist).min(1.0);
        match precision {
            CpuPrecision::Float32 => {
                let coarse =
                    nlist * dim / (self.config.f32_dims_per_sec_per_core * self.effective_cores());
                let fine_compute =
                    probed * dim / (self.config.f32_dims_per_sec_per_core * self.effective_cores());
                let fine_memory = probed * dim * 4.0 / self.config.dram_bandwidth_bps;
                coarse + fine_compute.max(fine_memory)
            }
            CpuPrecision::BinaryWithRerank => {
                let coarse = nlist * dim
                    / (self.config.binary_bits_per_sec_per_core * self.effective_cores());
                let fine_compute = probed * dim
                    / (self.config.binary_bits_per_sec_per_core * self.effective_cores());
                let fine_memory = probed * dim / 8.0 / self.config.dram_bandwidth_bps;
                coarse + fine_compute.max(fine_memory) + self.rerank_seconds(profile, 100)
            }
        }
    }

    fn rerank_seconds(&self, profile: &DatasetProfile, candidates: usize) -> f64 {
        candidates as f64 * profile.dim as f64
            / (self.config.int8_dims_per_sec_per_core * self.effective_cores())
    }

    /// Full CPU-Real retrieval estimate: dataset loading plus per-query
    /// search, amortized over `queries` queries.
    pub fn cpu_real(
        &self,
        profile: &DatasetProfile,
        queries: usize,
        nprobe: Option<usize>,
        precision: CpuPrecision,
    ) -> CpuRetrievalEstimate {
        let load_bytes = match precision {
            CpuPrecision::Float32 => profile.full_load_bytes_f32(),
            CpuPrecision::BinaryWithRerank => profile.full_load_bytes_bq(),
        };
        let search = match nprobe {
            Some(p) => self.ivf_search_seconds(profile, p, precision),
            None => self.flat_search_seconds(profile, precision),
        };
        CpuRetrievalEstimate {
            load_seconds: self.load_seconds(load_bytes),
            search_seconds_per_query: search,
            queries,
            loading_power_w: self.config.loading_power_w(),
            compute_power_w: self.config.compute_power_w(),
        }
    }

    /// The No-I/O variant: identical search but the dataset is assumed to
    /// already reside in host memory.
    pub fn no_io(
        &self,
        profile: &DatasetProfile,
        queries: usize,
        nprobe: Option<usize>,
        precision: CpuPrecision,
    ) -> CpuRetrievalEstimate {
        CpuRetrievalEstimate {
            load_seconds: 0.0,
            ..self.cpu_real(profile, queries, nprobe, precision)
        }
    }
}

impl Default for CpuSystem {
    fn default() -> Self {
        CpuSystem::new(CpuSystemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loading_dominates_large_datasets() {
        let cpu = CpuSystem::default();
        let wiki = DatasetProfile::wiki_en();
        let est = cpu.cpu_real(&wiki, 1000, Some(200), CpuPrecision::BinaryWithRerank);
        assert!(
            est.load_seconds > est.search_seconds_per_query * est.queries as f64 * 0.3,
            "loading should be a major fraction for wiki_en"
        );
        assert!(est.qps() > 0.0);
        assert!(est.qps_per_watt() > 0.0);
    }

    #[test]
    fn no_io_is_strictly_faster_than_cpu_real() {
        let cpu = CpuSystem::default();
        let p = DatasetProfile::hotpotqa();
        let real = cpu.cpu_real(&p, 500, None, CpuPrecision::Float32);
        let no_io = cpu.no_io(&p, 500, None, CpuPrecision::Float32);
        assert!(no_io.total_seconds() < real.total_seconds());
        assert_eq!(no_io.load_seconds, 0.0);
        assert!(no_io.qps() > real.qps());
    }

    #[test]
    fn binary_quantization_speeds_up_both_loading_and_search() {
        let cpu = CpuSystem::default();
        let p = DatasetProfile::wiki_en();
        let f32_est = cpu.cpu_real(&p, 1000, None, CpuPrecision::Float32);
        let bq_est = cpu.cpu_real(&p, 1000, None, CpuPrecision::BinaryWithRerank);
        assert!(bq_est.load_seconds < f32_est.load_seconds);
        assert!(bq_est.search_seconds_per_query < f32_est.search_seconds_per_query);
        // But loading does not vanish: documents still move (Sec. 3.2).
        assert!(bq_est.load_seconds > 0.3 * f32_est.load_seconds * 0.3);
    }

    #[test]
    fn ivf_is_cheaper_than_flat_and_scales_with_nprobe() {
        let cpu = CpuSystem::default();
        let p = DatasetProfile::hotpotqa();
        let flat = cpu.flat_search_seconds(&p, CpuPrecision::Float32);
        let narrow = cpu.ivf_search_seconds(&p, 16, CpuPrecision::Float32);
        let wide = cpu.ivf_search_seconds(&p, 1024, CpuPrecision::Float32);
        assert!(narrow < wide);
        assert!(wide < flat);
    }

    #[test]
    fn power_figures_are_server_class() {
        let config = CpuSystemConfig::default();
        assert!(config.compute_power_w() > 500.0);
        assert!(config.loading_power_w() < config.compute_power_w());
        assert_eq!(config.cores, 128);
    }
}
