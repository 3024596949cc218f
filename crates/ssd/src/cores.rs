//! The SSD controller's embedded processors.
//!
//! The controller of a modern SSD contains a handful of embedded
//! general-purpose cores (Cortex-R8-class in the devices of Table 3) whose
//! day job is executing the FTL and servicing I/O. REIS borrows *one* of
//! them to run its selection kernels — quickselect over the Temporal Top
//! List, INT8 reranking, and the final quicksort — leaving the remaining
//! cores for normal SSD duties (Sec. 4.3.4, 7.2). This module provides an
//! analytic cycle-cost model of those kernels.

use serde::{Deserialize, Serialize};

use reis_nand::Nanos;

/// Parameters of the embedded core complex.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreParams {
    /// Number of embedded cores in the controller.
    pub num_cores: usize,
    /// Core clock frequency in Hz (Cortex-R8 class parts clock around 1 GHz).
    pub clock_hz: f64,
    /// Average cycles per element for the quickselect kernel (comparison,
    /// swap, loop overhead on an in-order core).
    pub cycles_per_quickselect_element: f64,
    /// Average cycles per element·log2(element) for quicksort.
    pub cycles_per_quicksort_element: f64,
    /// Cycles per dimension for one INT8 distance computation during
    /// reranking (multiply-accumulate plus load).
    pub cycles_per_rerank_dimension: f64,
    /// Cycles charged per FTL lookup (hash + DRAM pointer chase issued by the
    /// core).
    pub cycles_per_ftl_lookup: f64,
}

impl CoreParams {
    /// Cortex-R8-class defaults used by both REIS SSD configurations: four
    /// cores, REIS's kernels priced on one of them.
    pub fn cortex_r8() -> Self {
        CoreParams {
            num_cores: 4,
            clock_hz: 1.0e9,
            cycles_per_quickselect_element: 6.0,
            cycles_per_quicksort_element: 8.0,
            cycles_per_rerank_dimension: 2.0,
            cycles_per_ftl_lookup: 40.0,
        }
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams::cortex_r8()
    }
}

/// Cost model of the kernels REIS runs on the embedded cores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmbeddedCores {
    params: CoreParams,
}

impl EmbeddedCores {
    /// Create the cost model from core parameters.
    pub fn new(params: CoreParams) -> Self {
        EmbeddedCores { params }
    }

    fn cycles_to_time(&self, cycles: f64) -> Nanos {
        Nanos::from_secs_f64(cycles / self.params.clock_hz)
    }

    /// Latency of a quickselect pass that keeps the `k` smallest of `n`
    /// candidates (expected O(n); `k` only affects the constant marginally
    /// and is ignored).
    pub fn quickselect(&self, n: usize, _k: usize) -> Nanos {
        self.cycles_to_time(self.params.cycles_per_quickselect_element * n as f64)
    }

    /// Latency of quicksorting `n` elements (O(n log n)).
    pub fn quicksort(&self, n: usize) -> Nanos {
        if n <= 1 {
            return Nanos::ZERO;
        }
        let cycles = self.params.cycles_per_quicksort_element * n as f64 * (n as f64).log2();
        self.cycles_to_time(cycles)
    }

    /// Latency of reranking `candidates` embeddings of `dim` dimensions in
    /// INT8 precision (distance recomputation only; the final sort is charged
    /// separately via [`EmbeddedCores::quicksort`]).
    pub fn rerank(&self, candidates: usize, dim: usize) -> Nanos {
        self.cycles_to_time(self.params.cycles_per_rerank_dimension * (candidates * dim) as f64)
    }

    /// Latency of `lookups` page-level FTL translations.
    pub fn ftl_lookups(&self, lookups: usize) -> Nanos {
        self.cycles_to_time(self.params.cycles_per_ftl_lookup * lookups as f64)
    }
}

impl Default for EmbeddedCores {
    fn default() -> Self {
        EmbeddedCores::new(CoreParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_costs_scale_with_input_size() {
        let cores = EmbeddedCores::default();
        assert!(cores.quickselect(10_000, 10) > cores.quickselect(1_000, 10));
        assert!(cores.quicksort(1_000) > cores.quicksort(100));
        assert!(cores.rerank(100, 1024) > cores.rerank(100, 128));
        assert!(cores.ftl_lookups(100) > cores.ftl_lookups(1));
        assert_eq!(cores.quicksort(1), Nanos::ZERO);
        assert_eq!(cores.quicksort(0), Nanos::ZERO);
    }

    #[test]
    fn quickselect_is_cheaper_than_quicksort_for_large_inputs() {
        let cores = EmbeddedCores::default();
        // This is the reason REIS uses quickselect on the TTL instead of
        // sorting it: linear vs O(n log n).
        assert!(cores.quickselect(100_000, 100) < cores.quicksort(100_000));
    }

    #[test]
    fn rerank_cost_matches_cycle_model() {
        let params = CoreParams::cortex_r8();
        let cores = EmbeddedCores::new(params);
        let t = cores.rerank(100, 1024);
        let expected = 2.0 * 100.0 * 1024.0 / 1.0e9;
        assert!((t.as_secs_f64() - expected).abs() < 1e-12);
    }
}
