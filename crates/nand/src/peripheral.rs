//! On-die peripheral logic reused by REIS for computation.
//!
//! Modern NAND dies already contain (Sec. 2.3): a *fail-bit counter* that
//! counts set bits during program verification, a *pass/fail checker* that
//! compares the count against a threshold to steer ISPP, and XOR logic
//! between the latches used for on-chip data randomization. REIS repurposes
//! the XOR logic to compute bitwise differences, the fail-bit counter to turn
//! those differences into Hamming distances, and the pass/fail checker to
//! implement distance filtering.
//!
//! The three run as one pass over a sensed page
//! ([`PassFailChecker::filter_fused`]): the workspace's single kernel crate,
//! [`reis_kernels`], scores blocks of eight (slot, query) pairs in registers
//! behind one run-time ISA dispatch and compares eight counts against eight
//! thresholds in one vector compare, the way the on-die checker tests a
//! count as it comes off the counter. The scan counts and prices each XOR,
//! count and check all the same (`FlashStats::fused_scan`,
//! `TimingParams::in_plane_distance`).

use serde::{Deserialize, Serialize};

pub use reis_kernels::FusedHit;

/// The on-die pass/fail checker, repurposed as the distance-filtering
/// comparator (Sec. 4.3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassFailChecker;

impl PassFailChecker {
    /// Threshold-aware fused scoring: score the first `slot_limit`
    /// `chunk_bytes`-sized chunks of one sensed page against every query in
    /// one pass over the page — XOR against the broadcast query, fail-bit
    /// count per chunk — and emit only the [`FusedHit`]s at or below that
    /// query's own threshold. A trailing partial chunk is scored against
    /// the query's prefix.
    ///
    /// This is the comparator form the windowed adaptive scan uses: every
    /// query's threshold is constant for the duration of one page window, so
    /// the pass/fail check folds into the scoring pass and failing distances
    /// are never materialized. Callers still account one fail-bit count and
    /// one pass/fail check per `(page, query)` pair — fusing the comparison
    /// changes where the work happens, not how much of it the peripheral
    /// performs.
    ///
    /// `out` is a reusable hit buffer (see
    /// [`reis_kernels::fused_hamming_filter_into`] for the exact contract
    /// and panics).
    pub fn filter_fused(
        latch: &[u8],
        chunk_bytes: usize,
        slot_limit: usize,
        queries: &[&[u8]],
        thresholds: &[u32],
        out: &mut Vec<FusedHit>,
    ) {
        // The kernel's accumulator argument is vestigial: an empty `Vec`
        // allocates nothing.
        reis_kernels::fused_hamming_filter_into(
            latch,
            chunk_bytes,
            slot_limit,
            queries,
            thresholds,
            &mut Vec::new(),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_fail_threshold_is_inclusive() {
        // One-byte slots at distances 0, 8, 4 and 5 from a zero query.
        let passing = |threshold| {
            let mut hits = Vec::new();
            let page = [0x00, 0xFF, 0x0F, 0x1F];
            PassFailChecker::filter_fused(&page, 1, 4, &[&[0]], &[threshold], &mut hits);
            hits.iter().map(|hit| hit.slot).collect::<Vec<_>>()
        };
        assert_eq!(passing(4), vec![0, 2]);
        assert_eq!(passing(5), vec![0, 2, 3]);
        assert_eq!(passing(0), vec![0]);
        assert_eq!(passing(u32::MAX), vec![0, 1, 2, 3]);
    }
}
