//! SSD maintenance: garbage collection, wear statistics and mode switching.
//!
//! REIS coexists with normal SSD duties (Sec. 7.2): the device operates in
//! either RAG mode (coarse-grained FTL resident, in-storage search enabled)
//! or normal block-I/O mode (page-level FTL resident), switching by loading
//! the corresponding FTL metadata. Garbage collection and wear leveling keep
//! running on the cores not reserved for REIS; retrieval workloads are
//! read-dominated, so these paths mostly matter for the conventional
//! read/write mode of the controller.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

use reis_nand::{BlockAddr, FlashDevice, Nanos, PageAddr};

use crate::error::Result;
use crate::ftl::PageLevelFtl;

/// The mode the SSD is operating in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SsdMode {
    /// Conventional block-I/O mode: page-level FTL active.
    #[default]
    Normal,
    /// RAG retrieval mode: coarse-grained FTL active, in-storage search
    /// enabled.
    Rag,
}

impl SsdMode {
    /// Human-readable name of the mode.
    pub fn name(&self) -> &'static str {
        match self {
            SsdMode::Normal => "normal",
            SsdMode::Rag => "RAG",
        }
    }
}

/// Summary of wear across the blocks that have been erased at least once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WearStats {
    /// Lowest erase count among touched blocks.
    pub min_erase_count: u64,
    /// Highest erase count among touched blocks.
    pub max_erase_count: u64,
    /// Mean erase count among touched blocks.
    pub mean_erase_count: f64,
    /// Number of blocks that have been erased at least once.
    pub touched_blocks: usize,
}

/// Garbage collection and mode management.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceManager {
    invalid_pages: HashMap<BlockAddr, HashSet<usize>>,
    mode: SsdMode,
    gc_runs: u64,
    pages_relocated: u64,
    blocks_reclaimed: u64,
}

impl MaintenanceManager {
    /// Create a manager in normal mode with no invalid pages.
    pub fn new() -> Self {
        MaintenanceManager::default()
    }

    /// The current operating mode.
    pub fn mode(&self) -> SsdMode {
        self.mode
    }

    /// Switch operating mode, returning the latency of loading/flushing the
    /// corresponding FTL metadata between flash and DRAM (proportional to the
    /// metadata moved; a fixed representative cost is used here).
    pub fn switch_mode(&mut self, target: SsdMode) -> Nanos {
        if self.mode == target {
            return Nanos::ZERO;
        }
        self.mode = target;
        // Loading coarse records is trivial; loading a page-level FTL for a
        // large drive is the expensive direction. A few milliseconds covers
        // flushing + loading the affected mapping ranges.
        Nanos::from_millis(2)
    }

    /// Record that the page at `addr` no longer holds live data (its logical
    /// page was overwritten or trimmed).
    pub fn mark_invalid(&mut self, addr: PageAddr) {
        self.invalid_pages
            .entry(addr.block_addr())
            .or_default()
            .insert(addr.page);
    }

    /// Number of invalid pages in a block.
    pub fn invalid_count(&self, block: BlockAddr) -> usize {
        self.invalid_pages
            .get(&block)
            .map(HashSet::len)
            .unwrap_or(0)
    }

    /// The block with the most invalid pages, if any block has invalid pages
    /// (the greedy victim-selection policy).
    pub fn gc_candidate(&self) -> Option<BlockAddr> {
        self.invalid_pages
            .iter()
            .filter(|(_, pages)| !pages.is_empty())
            .max_by_key(|(_, pages)| pages.len())
            .map(|(&block, _)| block)
    }

    /// Garbage-collect one victim block: relocate its still-valid pages to
    /// fresh locations supplied by `relocate`, update the FTL, erase the
    /// block, and return the total latency.
    ///
    /// `relocate` must hand back a free physical page for every valid page
    /// that needs to move.
    ///
    /// # Errors
    ///
    /// Propagates flash programming/erase errors.
    pub fn collect(
        &mut self,
        device: &mut FlashDevice,
        ftl: &mut PageLevelFtl,
        victim: BlockAddr,
        mut relocate: impl FnMut() -> Result<PageAddr>,
    ) -> Result<Nanos> {
        let invalid = self.invalid_pages.remove(&victim).unwrap_or_default();
        let mut latency = Nanos::ZERO;
        // Find live mappings pointing into the victim block.
        let live: Vec<(u64, PageAddr)> = ftl
            .iter()
            .filter(|(_, ppa)| ppa.block_addr() == victim && !invalid.contains(&ppa.page))
            .collect();
        for (lpa, old) in live {
            let readout = device.read_page(old)?;
            let target = relocate()?;
            latency += readout.latency;
            latency += device.program_page(target, &readout.data, &readout.oob, readout.scheme)?;
            ftl.map(lpa, target);
            self.pages_relocated += 1;
        }
        latency += device.erase_block(victim)?;
        self.gc_runs += 1;
        Ok(latency)
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
            self.blocks_reclaimed += 1;
        }
        Ok((victims, latency))
    }

    /// Number of blocks reclaimed (erased) because all their programmed
    /// pages had been invalidated.
    pub fn blocks_reclaimed(&self) -> u64 {
        self.blocks_reclaimed
    }

    /// Number of garbage collection runs performed.
    pub fn gc_runs(&self) -> u64 {
        self.gc_runs
    }

    /// Number of pages relocated by garbage collection.
    pub fn pages_relocated(&self) -> u64 {
        self.pages_relocated
    }

    /// Summarize wear across all blocks of the device that were erased at
    /// least once.
    pub fn wear_stats(&self, device: &FlashDevice) -> WearStats {
        let geometry = *device.geometry();
        let mut counts = Vec::new();
        for plane in geometry.planes() {
            for block in 0..geometry.blocks_per_plane {
                let addr = BlockAddr::new(plane.channel, plane.die, plane.plane, block);
                let count = device.erase_count(addr).unwrap_or(0);
                if count > 0 {
                    counts.push(count);
                }
            }
        }
        if counts.is_empty() {
            return WearStats::default();
        }
        let min = *counts.iter().min().expect("non-empty");
        let max = *counts.iter().max().expect("non-empty");
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        WearStats {
            min_erase_count: min,
            max_erase_count: max,
            mean_erase_count: mean,
            touched_blocks: counts.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reis_nand::{Geometry, ProgramScheme, TimingParams};

    #[test]
    fn mode_switching_costs_only_on_change() {
        let mut m = MaintenanceManager::new();
        assert_eq!(m.mode(), SsdMode::Normal);
        assert_eq!(m.switch_mode(SsdMode::Normal), Nanos::ZERO);
        assert!(m.switch_mode(SsdMode::Rag) > Nanos::ZERO);
        assert_eq!(m.mode(), SsdMode::Rag);
        assert_eq!(m.mode().name(), "RAG");
    }

    #[test]
    fn gc_relocates_live_pages_and_erases_the_victim() {
        let geom = Geometry::tiny();
        let mut device = FlashDevice::new(geom, TimingParams::default());
        let mut ftl = PageLevelFtl::new();
        let mut m = MaintenanceManager::new();

        // Fill block 0 of plane (0,0,0) with four logical pages.
        let victim = BlockAddr::new(0, 0, 0, 0);
        for i in 0..4usize {
            let ppa = PageAddr::new(0, 0, 0, 0, i);
            device
                .program_page(
                    ppa,
                    &[i as u8; 64],
                    &[],
                    ProgramScheme::Ispp(reis_nand::CellMode::Tlc),
                )
                .unwrap();
            ftl.map(i as u64, ppa);
        }
        // Overwrite logical pages 0 and 1 elsewhere, invalidating their old copies.
        for i in 0..2usize {
            let new = PageAddr::new(0, 0, 0, 1, i);
            device
                .program_page(
                    new,
                    &[0xAA; 64],
                    &[],
                    ProgramScheme::Ispp(reis_nand::CellMode::Tlc),
                )
                .unwrap();
            let old = ftl.map(i as u64, new).unwrap();
            m.mark_invalid(old);
        }
        assert_eq!(m.invalid_count(victim), 2);
        assert_eq!(m.gc_candidate(), Some(victim));

        // Relocate the two still-valid pages into block 2.
        let mut next = 0usize;
        let latency = m
            .collect(&mut device, &mut ftl, victim, || {
                let addr = PageAddr::new(0, 0, 0, 2, next);
                next += 1;
                Ok(addr)
            })
            .unwrap();
        assert!(latency > Nanos::ZERO);
        assert_eq!(m.pages_relocated(), 2);
        assert_eq!(m.gc_runs(), 1);
        // Logical pages 2 and 3 now live in block 2 and still read back.
        for i in 2..4u64 {
            let ppa = ftl.translate(i).unwrap();
            assert_eq!(ppa.block, 2);
            let readout = device.read_page(ppa).unwrap();
            assert_eq!(readout.data[0], i as u8);
        }
        // The victim block was erased.
        assert_eq!(device.erase_count(victim).unwrap(), 1);
        let wear = m.wear_stats(&device);
        assert_eq!(wear.touched_blocks, 1);
        assert_eq!(wear.max_erase_count, 1);
    }

    #[test]
    fn gc_candidate_is_none_without_invalid_pages() {
        let m = MaintenanceManager::new();
        assert_eq!(m.gc_candidate(), None);
    }

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
        assert_eq!(m.blocks_reclaimed(), 1);
        assert_eq!(device.erase_count(BlockAddr::new(0, 0, 0, 0)).unwrap(), 1);
        assert_eq!(device.erase_count(BlockAddr::new(0, 0, 0, 1)).unwrap(), 0);
        // The partially invalid block keeps its record; a second pass with
        // nothing new reclaims nothing.
        assert_eq!(m.invalid_count(BlockAddr::new(0, 0, 0, 1)), 1);
        let (again, _) = m.reclaim_invalid_blocks(&mut device).unwrap();
        assert!(again.is_empty());
        // Invalidating the remaining live page completes block 1.
        m.mark_invalid(PageAddr::new(0, 0, 0, 1, 1));
        let (last, _) = m.reclaim_invalid_blocks(&mut device).unwrap();
        assert_eq!(last, [BlockAddr::new(0, 0, 0, 1)]);
        assert_eq!(m.blocks_reclaimed(), 2);
    }
}
