//! Tombstones: the base-region validity bitmap.
//!
//! Deleting an entry cannot clear its flash pages — erases work on whole
//! blocks shared with live neighbours — so deletions are recorded as
//! *tombstones*: a DRAM bitmap over the base region's storage-order indices
//! that the fine scan consults before admitting a candidate to the Temporal
//! Top List. One bit per base slot keeps the footprint negligible next to
//! the R-IVF array (a 1M-entry database costs 128 KB).

use serde::{Deserialize, Serialize};

/// Validity bitmap over the base region's storage-order indices.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TombstoneSet {
    bits: Vec<u64>,
    capacity: usize,
    dead: usize,
}

impl TombstoneSet {
    /// A tombstone set over `capacity` storage-order slots, all live.
    pub fn new(capacity: usize) -> Self {
        TombstoneSet {
            bits: vec![0u64; capacity.div_ceil(64)],
            capacity,
            dead: 0,
        }
    }

    /// Number of tombstoned slots.
    pub fn dead_count(&self) -> usize {
        self.dead
    }

    /// Tombstone the slot at `index`, returning whether it was live before
    /// (marking an already-dead or out-of-range slot is a no-op).
    pub fn mark(&mut self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        let (word, bit) = (index / 64, index % 64);
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.dead += 1;
        true
    }

    /// Whether the slot at `index` is tombstoned (out-of-range slots read as
    /// live, matching the scan's bounds checks).
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        (self.bits[index / 64] >> (index % 64)) & 1 != 0
    }

    /// DRAM footprint of the bitmap in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query() {
        let mut set = TombstoneSet::new(100);
        assert_eq!(set.dead_count(), 0);
        assert!(set.mark(0));
        assert!(set.mark(63));
        assert!(set.mark(64));
        assert!(set.mark(99));
        assert!(!set.mark(0), "double delete is a no-op");
        assert!(!set.mark(100), "out of range is a no-op");
        assert_eq!(set.dead_count(), 4);
        assert!(set.contains(0) && set.contains(63) && set.contains(64) && set.contains(99));
        assert!(!set.contains(1));
        assert!(!set.contains(100));
        assert_eq!(set.footprint_bytes(), 16);
    }

    #[test]
    fn empty_capacity_is_harmless() {
        let mut set = TombstoneSet::new(0);
        assert!(!set.mark(0));
        assert!(!set.contains(0));
        assert_eq!(set.footprint_bytes(), 0);
    }
}
