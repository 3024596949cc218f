//! SSD maintenance: invalid-page tracking and block reclamation.
//!
//! Releasing a database region leaves its programmed pages invalid; a NAND
//! page can only be programmed again after its whole block was erased.
//! Compaction therefore marks released pages invalid and erases every block
//! whose programmed pages all are, which returns the block to service.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

use reis_nand::{BlockAddr, FlashDevice, Nanos, PageAddr};

use crate::error::Result;

/// Invalid-page bookkeeping and block reclamation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceManager {
    invalid_pages: HashMap<BlockAddr, HashSet<usize>>,
}

impl MaintenanceManager {
    /// Create a manager with no invalid pages.
    pub fn new() -> Self {
        MaintenanceManager::default()
    }

    /// Record that the page at `addr` no longer holds live data (its region
    /// was released).
    pub fn mark_invalid(&mut self, addr: PageAddr) {
        self.invalid_pages
            .entry(addr.block_addr())
            .or_default()
            .insert(addr.page);
    }

    /// Erase every block whose programmed pages have all been invalidated
    /// (the block-reclaim half of compaction: once an update pass migrated
    /// or tombstone-dropped every live page of a block, the block holds no
    /// useful data and an erase returns it to service).
    ///
    /// Returns the blocks erased, in erase order, and the total erase latency.
    /// Blocks with a mix of live and invalid pages are left alone — a later
    /// release of the neighbouring region may complete them.
    ///
    /// # Errors
    ///
    /// Propagates flash erase errors.
    pub fn reclaim_invalid_blocks(
        &mut self,
        device: &mut FlashDevice,
    ) -> Result<(Vec<BlockAddr>, Nanos)> {
        let mut victims: Vec<BlockAddr> = Vec::new();
        for (&block, invalid) in &self.invalid_pages {
            let programmed = device.programmed_pages_in_block(block)?;
            if programmed > 0 && invalid.len() >= programmed {
                victims.push(block);
            }
        }
        // Deterministic erase order regardless of hash-map iteration.
        victims.sort_unstable_by_key(|b| (b.channel, b.die, b.plane, b.block));
        let mut latency = Nanos::ZERO;
        for block in &victims {
            latency += device.erase_block(*block)?;
            self.invalid_pages.remove(block);
        }
        Ok((victims, latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reis_nand::{Geometry, ProgramScheme, TimingParams};

    #[test]
    fn reclaim_erases_only_fully_invalid_blocks() {
        let geom = Geometry::tiny();
        let mut device = FlashDevice::new(geom, TimingParams::default());
        let mut m = MaintenanceManager::new();

        // Block 0: two programmed pages, both invalidated -> reclaimable.
        // Block 1: two programmed pages, one invalidated -> must survive.
        for block in 0..2usize {
            for page in 0..2usize {
                let addr = PageAddr::new(0, 0, 0, block, page);
                device
                    .program_page(addr, &[7u8; 32], &[], ProgramScheme::EnhancedSlc)
                    .unwrap();
            }
        }
        m.mark_invalid(PageAddr::new(0, 0, 0, 0, 0));
        m.mark_invalid(PageAddr::new(0, 0, 0, 0, 1));
        m.mark_invalid(PageAddr::new(0, 0, 0, 1, 0));

        let (reclaimed, latency) = m.reclaim_invalid_blocks(&mut device).unwrap();
        assert_eq!(reclaimed, [BlockAddr::new(0, 0, 0, 0)]);
        assert!(latency > Nanos::ZERO);
        assert_eq!(device.erase_count(BlockAddr::new(0, 0, 0, 0)).unwrap(), 1);
        assert_eq!(device.erase_count(BlockAddr::new(0, 0, 0, 1)).unwrap(), 0);
        // The partially invalid block keeps its record; a second pass with
        // nothing new reclaims nothing.
        let (again, _) = m.reclaim_invalid_blocks(&mut device).unwrap();
        assert!(again.is_empty());
        // Invalidating the remaining live page completes block 1.
        m.mark_invalid(PageAddr::new(0, 0, 0, 1, 1));
        let (last, _) = m.reclaim_invalid_blocks(&mut device).unwrap();
        assert_eq!(last, [BlockAddr::new(0, 0, 0, 1)]);
    }
}
