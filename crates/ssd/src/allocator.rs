//! Physical page allocation.
//!
//! REIS needs two things from the allocator (Sec. 4.1): *Parallelism-First
//! Page Allocation*, which spreads consecutive data across all planes of the
//! device so one logical scan keeps every plane busy, and *contiguity*, so
//! the coarse-grained FTL can compute the next physical address by simply
//! incrementing the current one. Both are satisfied by allocating regions as
//! contiguous ranges of a *stripe index* whose successive values rotate
//! through the planes.

use serde::{Deserialize, Serialize};

use reis_nand::{Geometry, PageAddr};

use crate::error::{Result, SsdError};

/// A contiguous range of stripe indices reserved for one purpose (one region
/// of one database). The default value is the empty region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StripedRegion {
    /// First stripe index of the region.
    pub start: usize,
    /// Number of pages in the region.
    pub len: usize,
}

impl StripedRegion {
    /// An empty region.
    pub const EMPTY: StripedRegion = StripedRegion { start: 0, len: 0 };

    /// Whether the region holds no pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stripe index of the `offset`-th page of the region.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::RegionOutOfBounds`] if `offset >= self.len`.
    pub fn stripe_at(&self, offset: usize) -> Result<usize> {
        if offset >= self.len {
            return Err(SsdError::RegionOutOfBounds {
                region: "striped",
                offset,
                limit: self.len,
            });
        }
        Ok(self.start + offset)
    }

    /// The physical page address of the `offset`-th page of the region under
    /// parallelism-first striping.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::RegionOutOfBounds`] if `offset >= self.len`.
    pub fn page_at(&self, geometry: &Geometry, offset: usize) -> Result<PageAddr> {
        Ok(stripe_to_page(geometry, self.stripe_at(offset)?))
    }
}

/// Convert a stripe index to a physical page address.
///
/// Consecutive stripe indices rotate through the channels first, then the
/// dies of a channel, then the planes of a die, so a sequential scan of
/// stripe indices keeps every channel, die and plane of the device busy in
/// round-robin order (Parallelism-First Page Allocation).
///
/// # Panics
///
/// Panics if the stripe index exceeds the device capacity.
pub fn stripe_to_page(geometry: &Geometry, stripe: usize) -> PageAddr {
    assert!(
        stripe < geometry.total_pages(),
        "stripe {stripe} beyond device capacity"
    );
    let channel = stripe % geometry.channels;
    let rest = stripe / geometry.channels;
    let die = rest % geometry.dies_per_channel;
    let rest = rest / geometry.dies_per_channel;
    let plane = rest % geometry.planes_per_die;
    let within_plane = rest / geometry.planes_per_die;
    PageAddr {
        channel,
        die,
        plane,
        block: within_plane / geometry.pages_per_block,
        page: within_plane % geometry.pages_per_block,
    }
}

/// Convert a physical page address back to its stripe index (inverse of
/// [`stripe_to_page`]).
pub fn page_to_stripe(geometry: &Geometry, addr: PageAddr) -> usize {
    let within_plane = addr.block * geometry.pages_per_block + addr.page;
    ((within_plane * geometry.planes_per_die + addr.plane) * geometry.dies_per_channel + addr.die)
        * geometry.channels
        + addr.channel
}

/// Bump allocator over the stripe index space, with a recycling free list.
///
/// Base database regions are deployed once and read many times, so a simple
/// high-watermark allocator (with whole-region reservation to guarantee
/// physical contiguity) models the defragmented layout REIS creates during
/// `DB_Deploy` (Sec. 4.1.4). The online update path additionally needs to
/// give pages back, and a NAND page can only be programmed again after its
/// block was erased. The allocator therefore keeps released stripes in two
/// coalesced range lists: *reusable* ones (released unprogrammed, or erased
/// since) that [`PageAllocator::reserve_recycled`] hands out again, and
/// ones *awaiting an erase*, which it never looks at until
/// [`PageAllocator::mark_erased`] moves them over. The controller reports
/// both events; a reservation costs the number of reusable ranges, however
/// many programmed stripes a compaction left behind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageAllocator {
    total_pages: usize,
    next_free: usize,
    /// Released `(start, len)` stripe ranges that can be programmed again,
    /// sorted by start and coalesced.
    recycled: Vec<(usize, usize)>,
    /// Released ranges whose pages are still programmed, sorted by start
    /// and coalesced.
    awaiting_erase: Vec<(usize, usize)>,
}

/// Insert `[start, start + len)` into a sorted range list, coalescing it
/// with the ranges it touches.
fn insert_coalesced(ranges: &mut Vec<(usize, usize)>, start: usize, len: usize) {
    let mut i = ranges.partition_point(|&(other, _)| other < start);
    ranges.insert(i, (start, len));
    // The predecessor may reach the new range; after that, whatever sits at
    // `i` may reach its successors.
    i = i.saturating_sub(1);
    while i + 1 < ranges.len() {
        let (a_start, a_len) = ranges[i];
        let (b_start, b_len) = ranges[i + 1];
        if a_start + a_len >= b_start {
            let end = (a_start + a_len).max(b_start + b_len);
            ranges[i] = (a_start, end - a_start);
            ranges.remove(i + 1);
        } else if ranges[i].0 < start {
            i += 1;
        } else {
            break;
        }
    }
}

/// Cut `[start, start + len)` out of range `i` of a sorted range list,
/// which must contain it.
fn carve(ranges: &mut Vec<(usize, usize)>, i: usize, start: usize, len: usize) {
    let (range_start, range_len) = ranges[i];
    let head = start - range_start;
    let tail = (range_start + range_len) - (start + len);
    match (head > 0, tail > 0) {
        (false, false) => {
            ranges.remove(i);
        }
        (true, false) => ranges[i] = (range_start, head),
        (false, true) => ranges[i] = (start + len, tail),
        (true, true) => {
            ranges[i] = (range_start, head);
            ranges.insert(i + 1, (start + len, tail));
        }
    }
}

impl PageAllocator {
    /// Create an allocator covering the whole device.
    pub fn new(geometry: &Geometry) -> Self {
        PageAllocator {
            total_pages: geometry.total_pages(),
            next_free: 0,
            recycled: Vec::new(),
            awaiting_erase: Vec::new(),
        }
    }

    /// Pages not currently reserved (never-touched pages above the bump
    /// watermark plus released ranges, erased or not).
    pub fn free_pages(&self) -> usize {
        self.total_pages - self.next_free + self.recycled_pages()
    }

    /// Pages currently reserved.
    #[cfg(test)]
    fn used_pages(&self) -> usize {
        self.next_free - self.recycled_pages()
    }

    /// Pages sitting in released ranges: reusable now or once erased.
    pub fn recycled_pages(&self) -> usize {
        self.reusable_pages()
            + self
                .awaiting_erase
                .iter()
                .map(|&(_, len)| len)
                .sum::<usize>()
    }

    /// Released pages a reservation can take right now.
    pub fn reusable_pages(&self) -> usize {
        self.recycled.iter().map(|&(_, len)| len).sum()
    }

    /// Reserve a contiguous striped region of `pages` pages from the bump
    /// watermark (never from released ranges; see
    /// [`PageAllocator::reserve_recycled`]).
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::OutOfSpace`] if the watermark cannot fit the
    /// region, even if enough released pages exist.
    pub fn reserve(&mut self, pages: usize) -> Result<StripedRegion> {
        if self.next_free + pages > self.total_pages {
            return Err(SsdError::OutOfSpace {
                requested_pages: pages,
                available_pages: self.free_pages(),
            });
        }
        let region = StripedRegion {
            start: self.next_free,
            len: pages,
        };
        self.next_free += pages;
        Ok(region)
    }

    /// Try to reserve `pages` contiguous stripes from the reusable released
    /// ranges: the lowest window of that many stripes that were all
    /// released unprogrammed or erased since. Returns `None` — without side
    /// effects — when there is none; callers then fall back to
    /// [`PageAllocator::reserve`].
    pub fn reserve_recycled(&mut self, pages: usize) -> Option<StripedRegion> {
        if pages == 0 {
            return None;
        }
        let i = self.recycled.iter().position(|&(_, len)| len >= pages)?;
        let start = self.recycled[i].0;
        carve(&mut self.recycled, i, start, pages);
        Some(StripedRegion { start, len: pages })
    }

    /// Return a region's stripes to the free list (coalescing with adjacent
    /// released ranges of the same kind). `programmed` says whether the
    /// region's pages hold data: such stripes wait for
    /// [`PageAllocator::mark_erased`] before they are handed out again.
    pub fn release(&mut self, region: &StripedRegion, programmed: bool) {
        if region.is_empty() {
            return;
        }
        let ranges = if programmed {
            &mut self.awaiting_erase
        } else {
            &mut self.recycled
        };
        insert_coalesced(ranges, region.start, region.len);
    }

    /// Record that the page at `stripe` was erased: if it is a released
    /// stripe awaiting exactly that, it becomes reusable. Any other stripe
    /// (reserved, never touched, already reusable) is left alone.
    pub fn mark_erased(&mut self, stripe: usize) {
        let after = self
            .awaiting_erase
            .partition_point(|&(start, _)| start <= stripe);
        let Some(i) = after.checked_sub(1) else {
            return;
        };
        let (start, len) = self.awaiting_erase[i];
        if stripe < start + len {
            carve(&mut self.awaiting_erase, i, stripe, 1);
            insert_coalesced(&mut self.recycled, stripe, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The physical page addresses of a region, in order.
    fn pages(region: &StripedRegion, geometry: &Geometry) -> Vec<PageAddr> {
        (0..region.len)
            .map(|offset| region.page_at(geometry, offset).unwrap())
            .collect()
    }

    #[test]
    fn stripe_mapping_round_trips_and_rotates_planes() {
        let geom = Geometry::tiny();
        let planes = geom.total_planes();
        let mut seen = HashSet::new();
        for stripe in 0..geom.total_pages() {
            let addr = stripe_to_page(&geom, stripe);
            geom.check_page(addr).unwrap();
            assert_eq!(page_to_stripe(&geom, addr), stripe);
            assert!(seen.insert(addr), "stripe mapping must be injective");
        }
        // Consecutive stripes hit distinct planes until every plane was used.
        let first_planes: Vec<usize> = (0..planes)
            .map(|s| geom.plane_index(stripe_to_page(&geom, s).plane_addr()))
            .collect();
        let unique: HashSet<_> = first_planes.iter().collect();
        assert_eq!(
            unique.len(),
            planes,
            "first {planes} stripes must cover all planes"
        );
    }

    #[test]
    fn regions_are_disjoint_and_in_bounds() {
        let geom = Geometry::tiny();
        let mut alloc = PageAllocator::new(&geom);
        let a = alloc.reserve(10).unwrap();
        let b = alloc.reserve(20).unwrap();
        assert_eq!(a.len, 10);
        assert_eq!(b.start, 10);
        assert_eq!(alloc.used_pages(), 30);
        let pages_a: HashSet<_> = pages(&a, &geom).into_iter().collect();
        let pages_b: HashSet<_> = pages(&b, &geom).into_iter().collect();
        assert!(pages_a.is_disjoint(&pages_b));
        assert_eq!(pages_a.len(), 10);
    }

    #[test]
    fn reserve_rejects_oversized_requests() {
        let geom = Geometry::tiny();
        let mut alloc = PageAllocator::new(&geom);
        let total = geom.total_pages();
        assert!(alloc.reserve(total + 1).is_err());
        let all = alloc.reserve(total).unwrap();
        assert!(matches!(alloc.reserve(1), Err(SsdError::OutOfSpace { .. })));
        alloc.release(&all, false);
        assert_eq!(alloc.free_pages(), total);
    }

    #[test]
    fn region_page_at_checks_bounds() {
        let geom = Geometry::tiny();
        let region = StripedRegion { start: 5, len: 3 };
        assert_eq!(region.stripe_at(0).unwrap(), 5);
        assert!(region.page_at(&geom, 2).is_ok());
        assert!(matches!(
            region.page_at(&geom, 3),
            Err(SsdError::RegionOutOfBounds {
                offset: 3,
                limit: 3,
                ..
            })
        ));
        assert!(StripedRegion::EMPTY.is_empty());
    }

    #[test]
    fn released_ranges_coalesce_and_recycle_once_erased() {
        let geom = Geometry::tiny();
        let mut alloc = PageAllocator::new(&geom);
        let a = alloc.reserve(8).unwrap();
        let b = alloc.reserve(8).unwrap();
        let c = alloc.reserve(8).unwrap();
        let used = alloc.used_pages();
        alloc.release(&a, false);
        alloc.release(&c, false);
        assert_eq!(alloc.recycled_pages(), 16);
        assert_eq!(alloc.used_pages(), used - 16);
        // Releasing b bridges a and c into one 24-stripe range.
        alloc.release(&b, false);
        assert_eq!(alloc.recycled_pages(), 24);
        assert_eq!(alloc.recycled, [(0, 24)]);

        // Stripe 3 comes back programmed: windows form on either side of it.
        let d = alloc.reserve_recycled(24).unwrap();
        alloc.release(&StripedRegion { start: 0, len: 3 }, false);
        alloc.release(&StripedRegion { start: 3, len: 1 }, true);
        alloc.release(&StripedRegion { start: 4, len: 20 }, false);
        assert_eq!((d.start, d.len), (0, 24));
        let r = alloc.reserve_recycled(8).unwrap();
        assert_eq!((r.start, r.len), (4, 8));
        assert_eq!(alloc.recycled_pages(), 16);
        assert_eq!(alloc.reusable_pages(), 15);
        // Nothing reusable is wide enough; the free list is untouched.
        assert!(alloc.reserve_recycled(13).is_none());
        assert_eq!(alloc.recycled_pages(), 16);
        // Erasing stripe 3 rejoins it with the head [0,3).
        alloc.mark_erased(3);
        let head = alloc.reserve_recycled(4).unwrap();
        assert_eq!((head.start, head.len), (0, 4));
        let tail = alloc.reserve_recycled(12).unwrap();
        assert_eq!((tail.start, tail.len), (12, 12));
        assert_eq!(alloc.recycled_pages(), 0);
    }

    #[test]
    fn a_released_stripe_is_looked_at_once_per_erase() {
        // Every other stripe of a reserved stretch comes back programmed,
        // so nothing coalesces: N one-stripe ranges await an erase.
        const N: usize = 64;
        let mut alloc = PageAllocator::new(&Geometry::tiny());
        alloc.reserve(2 * N).unwrap();
        for i in 0..N {
            alloc.release(
                &StripedRegion {
                    start: 2 * i,
                    len: 1,
                },
                true,
            );
        }
        assert_eq!(alloc.awaiting_erase.len(), N);
        // However many reservations follow, none of them has a range to
        // walk: the programmed stripes are not in the list they search.
        for _ in 0..N {
            assert!(alloc.reserve_recycled(1).is_none());
            assert!(alloc.recycled.is_empty());
        }
        assert_eq!(alloc.recycled_pages(), N);

        // An erase covers a quarter of them (and stripes that were never
        // released, which it must not free): exactly those are handed out,
        // lowest first, each once.
        for stripe in 0..N / 2 {
            alloc.mark_erased(stripe);
        }
        assert_eq!(alloc.reusable_pages(), N / 4);
        for i in 0..N / 4 {
            let region = alloc.reserve_recycled(1).unwrap();
            assert_eq!((region.start, region.len), (2 * i, 1));
        }
        assert!(alloc.reserve_recycled(1).is_none());
        assert_eq!(alloc.recycled_pages(), N - N / 4);
        // Erasing a stripe twice, or one that is reserved again, is a no-op.
        alloc.mark_erased(0);
        assert_eq!(alloc.reusable_pages(), 0);
    }

    #[test]
    fn recycled_pages_count_as_free() {
        let geom = Geometry::tiny();
        let mut alloc = PageAllocator::new(&geom);
        let total = geom.total_pages();
        let a = alloc.reserve(total).unwrap();
        assert_eq!(alloc.free_pages(), 0);
        alloc.release(&a, false);
        assert_eq!(alloc.free_pages(), total);
        // The bump watermark is exhausted, so plain reserve still fails …
        assert!(alloc.reserve(1).is_err());
        // … but recycling succeeds.
        assert!(alloc.reserve_recycled(total).is_some());
    }

    #[test]
    fn consecutive_region_pages_spread_over_channels() {
        let geom = Geometry::reis_ssd1();
        let region = StripedRegion {
            start: 0,
            len: geom.channels * 4,
        };
        let channels: HashSet<usize> = pages(&region, &geom).iter().map(|p| p.channel).collect();
        assert_eq!(
            channels.len(),
            geom.channels,
            "a short scan must already touch every channel"
        );
    }
}
