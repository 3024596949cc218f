//! Operation counters of the flash device.
//!
//! The counters are the raw material of the energy model in `reis-core`:
//! every page read, program, erase, in-plane operation and byte moved over a
//! channel is tallied here so that energy can be attributed per operation
//! after a simulation completes.

use serde::{Deserialize, Serialize};

/// Cumulative operation counters of a [`crate::array::FlashDevice`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashStats {
    /// Number of page sense operations (array → sensing latch).
    pub page_reads: u64,
    /// Number of page program operations.
    pub page_programs: u64,
    /// Number of block erase operations.
    pub block_erases: u64,
    /// Number of inter-latch XOR operations.
    pub xor_ops: u64,
    /// Number of fail-bit-counter invocations (full-page popcount scans).
    pub bit_count_ops: u64,
    /// Number of pass/fail comparator invocations (distance-filter checks).
    pub pass_fail_ops: u64,
    /// Number of Input Broadcast operations (query copies into cache latches).
    pub broadcast_ops: u64,
    /// Bytes transferred from flash dies to the controller over the channels.
    pub bytes_to_controller: u64,
    /// Bytes transferred from the controller to flash dies (programs and
    /// broadcasts).
    pub bytes_from_controller: u64,
    /// Bit errors injected into page reads of non-ESP pages.
    pub injected_bit_errors: u64,
}

impl FlashStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        FlashStats::default()
    }

    /// Counters of one fused multi-query scan pass: `pages_sensed` pages
    /// each sensed exactly once, `page_scores` `(page, query)` scoring
    /// operations (one XOR, one fail-bit count and one pass/fail check per
    /// resident query against each sensed page), and the aggregate TTL
    /// traffic the pass moved to the controller.
    ///
    /// This is the *physical* accounting of a page-major batch scan: the
    /// sense amortizes across the in-flight queries while the in-plane
    /// compute still runs per query, which is exactly the asymmetry a
    /// batched scan exploits.
    pub fn fused_scan(pages_sensed: u64, page_scores: u64, bytes_to_controller: u64) -> FlashStats {
        FlashStats {
            page_reads: pages_sensed,
            xor_ops: page_scores,
            bit_count_ops: page_scores,
            pass_fail_ops: page_scores,
            bytes_to_controller,
            ..FlashStats::new()
        }
    }

    /// Total bytes moved over the flash channels in either direction.
    pub fn channel_bytes(&self) -> u64 {
        self.bytes_to_controller + self.bytes_from_controller
    }

    /// Element-wise accumulation of another counter set into this one, used
    /// to merge the activity of per-worker device replicas (batch search)
    /// back into the primary device's counters.
    pub fn accumulate(&mut self, other: &FlashStats) {
        self.page_reads += other.page_reads;
        self.page_programs += other.page_programs;
        self.block_erases += other.block_erases;
        self.xor_ops += other.xor_ops;
        self.bit_count_ops += other.bit_count_ops;
        self.pass_fail_ops += other.pass_fail_ops;
        self.broadcast_ops += other.broadcast_ops;
        self.bytes_to_controller += other.bytes_to_controller;
        self.bytes_from_controller += other.bytes_from_controller;
        self.injected_bit_errors += other.injected_bit_errors;
    }

    /// Element-wise difference `self - earlier`, useful for measuring a
    /// single query's activity by snapshotting the counters around it.
    pub fn delta_since(&self, earlier: &FlashStats) -> FlashStats {
        FlashStats {
            page_reads: self.page_reads - earlier.page_reads,
            page_programs: self.page_programs - earlier.page_programs,
            block_erases: self.block_erases - earlier.block_erases,
            xor_ops: self.xor_ops - earlier.xor_ops,
            bit_count_ops: self.bit_count_ops - earlier.bit_count_ops,
            pass_fail_ops: self.pass_fail_ops - earlier.pass_fail_ops,
            broadcast_ops: self.broadcast_ops - earlier.broadcast_ops,
            bytes_to_controller: self.bytes_to_controller - earlier.bytes_to_controller,
            bytes_from_controller: self.bytes_from_controller - earlier.bytes_from_controller,
            injected_bit_errors: self.injected_bit_errors - earlier.injected_bit_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_component_counters() {
        let stats = FlashStats {
            page_reads: 10,
            page_programs: 5,
            block_erases: 1,
            xor_ops: 7,
            bit_count_ops: 7,
            pass_fail_ops: 3,
            broadcast_ops: 2,
            bytes_to_controller: 100,
            bytes_from_controller: 50,
            injected_bit_errors: 0,
        };
        assert_eq!(stats.channel_bytes(), 150);
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let earlier = FlashStats {
            page_reads: 4,
            bytes_to_controller: 10,
            ..FlashStats::new()
        };
        let later = FlashStats {
            page_reads: 9,
            bytes_to_controller: 25,
            ..FlashStats::new()
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.page_reads, 5);
        assert_eq!(delta.bytes_to_controller, 15);
        assert_eq!(delta.page_programs, 0);
    }

    #[test]
    fn accumulate_is_the_inverse_of_delta_since() {
        let earlier = FlashStats {
            page_reads: 4,
            xor_ops: 2,
            ..FlashStats::new()
        };
        let later = FlashStats {
            page_reads: 9,
            xor_ops: 6,
            ..FlashStats::new()
        };
        let mut rebuilt = earlier;
        rebuilt.accumulate(&later.delta_since(&earlier));
        assert_eq!(rebuilt, later);
    }
}
