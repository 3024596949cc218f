//! Physical organisation of a NAND flash based storage device.
//!
//! The geometry follows the hierarchy described in Sec. 2.3 of the REIS
//! paper: an SSD contains multiple *channels*, each channel connects several
//! flash *dies*, each die contains 2–16 *planes*, planes are divided into
//! *blocks*, and blocks consist of hundreds of 16 KB *pages*. Each page also
//! carries a spare out-of-band (OOB) area used for ECC metadata and — in REIS
//! — for the embedding-to-document linkage.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{NandError, Result};

/// Static description of the flash array organisation of one SSD.
///
/// The two reference configurations used throughout the REIS evaluation
/// ([`Geometry::reis_ssd1`] and [`Geometry::reis_ssd2`]) mirror Table 3 of
/// the paper: a cost-oriented 8-channel device and a performance-oriented
/// 16-channel device.
///
/// # Examples
///
/// ```
/// use reis_nand::geometry::Geometry;
///
/// let geom = Geometry::reis_ssd1();
/// assert_eq!(geom.channels, 8);
/// assert_eq!(geom.planes_per_die, 2);
/// assert_eq!(geom.page_size_bytes, 16 * 1024);
/// assert!(geom.total_planes() >= 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    /// Number of flash channels attached to the SSD controller.
    pub channels: usize,
    /// Number of flash dies sharing each channel.
    pub dies_per_channel: usize,
    /// Number of planes inside each die (2–16 in modern devices).
    pub planes_per_die: usize,
    /// Number of blocks inside each plane.
    pub blocks_per_plane: usize,
    /// Number of pages inside each block.
    pub pages_per_block: usize,
    /// User-data bytes per page (typically 16 KB).
    pub page_size_bytes: usize,
    /// Out-of-band (spare) bytes per page (e.g. 2208 bytes for a 16 KB page).
    pub oob_size_bytes: usize,
}

impl Geometry {
    /// Geometry of the cost-oriented configuration **REIS-SSD1** (modeled
    /// after a Samsung PM9A3-class device): 8 channels, 16 dies per channel,
    /// 2 planes per die.
    ///
    /// The block/page counts are scaled down relative to a real 512 Gb die so
    /// the functional simulation stays memory-friendly; timing and bandwidth
    /// parameters (which determine the paper's results) are independent of
    /// this scaling and live in [`crate::timing::TimingParams`].
    pub fn reis_ssd1() -> Self {
        Geometry {
            channels: 8,
            dies_per_channel: 16,
            planes_per_die: 2,
            blocks_per_plane: 64,
            pages_per_block: 256,
            page_size_bytes: 16 * 1024,
            oob_size_bytes: 2208,
        }
    }

    /// Geometry of the performance-oriented configuration **REIS-SSD2**
    /// (modeled after a Micron 9400-class device): 16 channels, 8 dies per
    /// channel, 4 planes per die.
    pub fn reis_ssd2() -> Self {
        Geometry {
            channels: 16,
            dies_per_channel: 8,
            planes_per_die: 4,
            blocks_per_plane: 64,
            pages_per_block: 256,
            page_size_bytes: 16 * 1024,
            oob_size_bytes: 2208,
        }
    }

    /// A deliberately tiny geometry for unit tests: 2 channels × 2 dies ×
    /// 2 planes × 4 blocks × 8 pages of 4 KB.
    pub fn tiny() -> Self {
        Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 4,
            pages_per_block: 8,
            page_size_bytes: 4 * 1024,
            oob_size_bytes: 256,
        }
    }

    /// Total number of dies in the device.
    pub fn total_dies(&self) -> usize {
        self.channels * self.dies_per_channel
    }

    /// Total number of planes in the device.
    pub fn total_planes(&self) -> usize {
        self.total_dies() * self.planes_per_die
    }

    /// Total number of blocks in the device.
    pub fn total_blocks(&self) -> usize {
        self.total_planes() * self.blocks_per_plane
    }

    /// Total number of pages in the device.
    pub fn total_pages(&self) -> usize {
        self.total_blocks() * self.pages_per_block
    }

    /// Validate that an address lies inside this geometry.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] naming the first offending
    /// component.
    pub fn check_page(&self, addr: PageAddr) -> Result<()> {
        self.check_plane(addr.plane_addr())?;
        if addr.block >= self.blocks_per_plane {
            return Err(NandError::AddressOutOfRange {
                what: "block",
                index: addr.block,
                limit: self.blocks_per_plane,
            });
        }
        if addr.page >= self.pages_per_block {
            return Err(NandError::AddressOutOfRange {
                what: "page",
                index: addr.page,
                limit: self.pages_per_block,
            });
        }
        Ok(())
    }

    /// Validate that a plane address lies inside this geometry.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] naming the first offending
    /// component.
    pub fn check_plane(&self, addr: PlaneAddr) -> Result<()> {
        if addr.channel >= self.channels {
            return Err(NandError::AddressOutOfRange {
                what: "channel",
                index: addr.channel,
                limit: self.channels,
            });
        }
        if addr.die >= self.dies_per_channel {
            return Err(NandError::AddressOutOfRange {
                what: "die",
                index: addr.die,
                limit: self.dies_per_channel,
            });
        }
        if addr.plane >= self.planes_per_die {
            return Err(NandError::AddressOutOfRange {
                what: "plane",
                index: addr.plane,
                limit: self.planes_per_die,
            });
        }
        Ok(())
    }

    /// Convert a plane address to a dense index in `0..total_planes()`.
    ///
    /// Planes are ordered channel-major, then die, then plane, which matches
    /// the order in which Parallelism-First Page Allocation stripes data.
    pub fn plane_index(&self, addr: PlaneAddr) -> usize {
        (addr.channel * self.dies_per_channel + addr.die) * self.planes_per_die + addr.plane
    }

    /// Inverse of [`Geometry::plane_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total_planes()`.
    pub fn plane_at(&self, index: usize) -> PlaneAddr {
        assert!(
            index < self.total_planes(),
            "plane index {index} out of range"
        );
        let plane = index % self.planes_per_die;
        let die_global = index / self.planes_per_die;
        let die = die_global % self.dies_per_channel;
        let channel = die_global / self.dies_per_channel;
        PlaneAddr {
            channel,
            die,
            plane,
        }
    }

    /// The position of a page in *stripe order*, in `0..total_pages()`.
    ///
    /// Stripe order is the order of Parallelism-First Page Allocation
    /// (Sec. 4.1): consecutive positions rotate through the channels first,
    /// then the dies of a channel, then the planes of a die, and only then
    /// move on to the next page of each plane, so a run of positions keeps
    /// every channel, die and plane busy in round-robin order. Regions are
    /// ranges of it, scans walk it, and the flash device stores its pages
    /// in it.
    pub fn stripe_index(&self, addr: PageAddr) -> usize {
        let within_plane = addr.block * self.pages_per_block + addr.page;
        ((within_plane * self.planes_per_die + addr.plane) * self.dies_per_channel + addr.die)
            * self.channels
            + addr.channel
    }

    /// Inverse of [`Geometry::stripe_index`].
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] if `stripe` lies beyond the
    /// device (`stripe >= self.total_pages()`).
    pub fn stripe_addr(&self, stripe: usize) -> Result<PageAddr> {
        if stripe >= self.total_pages() {
            return Err(NandError::AddressOutOfRange {
                what: "stripe",
                index: stripe,
                limit: self.total_pages(),
            });
        }
        let channel = stripe % self.channels;
        let rest = stripe / self.channels;
        let die = rest % self.dies_per_channel;
        let rest = rest / self.dies_per_channel;
        let plane = rest % self.planes_per_die;
        let within_plane = rest / self.planes_per_die;
        Ok(PageAddr {
            channel,
            die,
            plane,
            block: within_plane / self.pages_per_block,
            page: within_plane % self.pages_per_block,
        })
    }

    /// The stripe positions of a block's pages, page 0 first: one every
    /// `total_planes()` positions.
    pub fn block_stripes(&self, addr: BlockAddr) -> impl Iterator<Item = usize> {
        let (c, d, p, b) = (addr.channel, addr.die, addr.plane, addr.block);
        let first = self.stripe_index(PageAddr::new(c, d, p, b, 0));
        (first..)
            .step_by(self.total_planes())
            .take(self.pages_per_block)
    }

    /// Iterate over all plane addresses in dense-index order.
    pub fn planes(&self) -> impl Iterator<Item = PlaneAddr> + '_ {
        (0..self.total_planes()).map(move |i| self.plane_at(i))
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry::reis_ssd1()
    }
}

/// Address of one plane inside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlaneAddr {
    /// Channel index.
    pub channel: usize,
    /// Die index within the channel.
    pub die: usize,
    /// Plane index within the die.
    pub plane: usize,
}

impl PlaneAddr {
    /// Create a plane address from its components.
    pub fn new(channel: usize, die: usize, plane: usize) -> Self {
        PlaneAddr {
            channel,
            die,
            plane,
        }
    }
}

impl fmt::Display for PlaneAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}/die{}/pl{}", self.channel, self.die, self.plane)
    }
}

/// Address of one block inside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockAddr {
    /// Channel index.
    pub channel: usize,
    /// Die index within the channel.
    pub die: usize,
    /// Plane index within the die.
    pub plane: usize,
    /// Block index within the plane.
    pub block: usize,
}

impl BlockAddr {
    /// Create a block address from its components.
    pub fn new(channel: usize, die: usize, plane: usize, block: usize) -> Self {
        BlockAddr {
            channel,
            die,
            plane,
            block,
        }
    }

    /// The plane containing this block.
    pub fn plane_addr(&self) -> PlaneAddr {
        PlaneAddr {
            channel: self.channel,
            die: self.die,
            plane: self.plane,
        }
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/blk{}", self.plane_addr(), self.block)
    }
}

/// Address of one physical page inside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageAddr {
    /// Channel index.
    pub channel: usize,
    /// Die index within the channel.
    pub die: usize,
    /// Plane index within the die.
    pub plane: usize,
    /// Block index within the plane.
    pub block: usize,
    /// Page index within the block.
    pub page: usize,
}

impl PageAddr {
    /// Create a page address from its components.
    pub fn new(channel: usize, die: usize, plane: usize, block: usize, page: usize) -> Self {
        PageAddr {
            channel,
            die,
            plane,
            block,
            page,
        }
    }

    /// The plane containing this page.
    pub fn plane_addr(&self) -> PlaneAddr {
        PlaneAddr {
            channel: self.channel,
            die: self.die,
            plane: self.plane,
        }
    }

    /// The block containing this page.
    pub fn block_addr(&self) -> BlockAddr {
        BlockAddr {
            channel: self.channel,
            die: self.die,
            plane: self.plane,
            block: self.block,
        }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/pg{}", self.block_addr(), self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_geometries_match_table3() {
        let g1 = Geometry::reis_ssd1();
        assert_eq!(g1.channels, 8);
        assert_eq!(g1.dies_per_channel, 16);
        assert_eq!(g1.planes_per_die, 2);
        let g2 = Geometry::reis_ssd2();
        assert_eq!(g2.channels, 16);
        assert_eq!(g2.dies_per_channel, 8);
        assert_eq!(g2.planes_per_die, 4);
        // SSD2 has twice the planes of SSD1 with the same total die count.
        assert_eq!(g1.total_dies(), g2.total_dies());
        assert_eq!(g2.total_planes(), 2 * g1.total_planes());
    }

    #[test]
    fn plane_index_roundtrip() {
        let g = Geometry::tiny();
        for i in 0..g.total_planes() {
            let addr = g.plane_at(i);
            assert_eq!(g.plane_index(addr), i);
        }
    }

    #[test]
    fn page_index_roundtrip() {
        let g = Geometry::tiny();
        for stripe in 0..g.total_pages() {
            let addr = g.stripe_addr(stripe).unwrap();
            g.check_page(addr).expect("generated address must be valid");
            assert_eq!(g.stripe_index(addr), stripe);
        }
        assert!(matches!(
            g.stripe_addr(g.total_pages()),
            Err(NandError::AddressOutOfRange { what: "stripe", .. })
        ));
        // Consecutive stripes hit distinct planes until every plane was used.
        let first_planes: std::collections::HashSet<PlaneAddr> = (0..g.total_planes())
            .map(|stripe| g.stripe_addr(stripe).unwrap().plane_addr())
            .collect();
        assert_eq!(first_planes.len(), g.total_planes());
    }

    #[test]
    fn check_page_rejects_out_of_range_components() {
        let g = Geometry::tiny();
        let bad_channel = PageAddr::new(g.channels, 0, 0, 0, 0);
        assert!(matches!(
            g.check_page(bad_channel),
            Err(NandError::AddressOutOfRange {
                what: "channel",
                ..
            })
        ));
        let bad_die = PageAddr::new(0, g.dies_per_channel, 0, 0, 0);
        assert!(matches!(
            g.check_page(bad_die),
            Err(NandError::AddressOutOfRange { what: "die", .. })
        ));
        let bad_plane = PageAddr::new(0, 0, g.planes_per_die, 0, 0);
        assert!(matches!(
            g.check_page(bad_plane),
            Err(NandError::AddressOutOfRange { what: "plane", .. })
        ));
        let bad_block = PageAddr::new(0, 0, 0, g.blocks_per_plane, 0);
        assert!(matches!(
            g.check_page(bad_block),
            Err(NandError::AddressOutOfRange { what: "block", .. })
        ));
        let bad_page = PageAddr::new(0, 0, 0, 0, g.pages_per_block);
        assert!(matches!(
            g.check_page(bad_page),
            Err(NandError::AddressOutOfRange { what: "page", .. })
        ));
    }

    #[test]
    fn capacity_accounts_all_pages() {
        let g = Geometry::tiny();
        assert_eq!(
            g.total_pages(),
            2 * 2 * 2 * 4 * 8,
            "tiny geometry should count every page of every plane"
        );
    }

    #[test]
    fn planes_iterator_visits_each_plane_once() {
        let g = Geometry::tiny();
        let planes: Vec<_> = g.planes().collect();
        assert_eq!(planes.len(), g.total_planes());
        let mut sorted = planes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), planes.len());
    }

    #[test]
    fn display_formats_are_informative() {
        let addr = PageAddr::new(1, 2, 0, 3, 7);
        assert_eq!(addr.to_string(), "ch1/die2/pl0/blk3/pg7");
    }
}
