//! Geometry-aware planning of intra-query scan shards.
//!
//! REIS's latency win comes from flash-internal parallelism *within* one
//! query: every channel, die and plane scans a different slice of the
//! embedding store concurrently (Sec. 4.3.4). The simulator models that by
//! splitting the merged page ranges of one scan into **scan shards**, each
//! covering a disjoint subset of the device's channel×die *scan units*, and
//! running the shards on worker threads.
//!
//! The planner in this module only decides *which pages go to which shard*;
//! executing a shard (and merging the shard-local candidate lists back into
//! one Temporal Top List) is the engine's job in `reis-core`. Keeping the
//! plan geometry-aware — a shard owns whole channel/die units, never a slice
//! of one — mirrors how the hardware would partition the work: a die can
//! only scan pages it physically stores, and two shards never contend for
//! the same die's page buffer.
//!
//! # Examples
//!
//! ```
//! use reis_nand::geometry::{Geometry, PlaneAddr};
//! use reis_nand::sharding::ScanShardPlan;
//!
//! let geometry = Geometry::tiny(); // 2 channels x 2 dies
//! assert_eq!(ScanShardPlan::scan_units(&geometry), 4);
//!
//! // Pages 0..8 striped round-robin over the 4 channel/die units.
//! let plan = ScanShardPlan::build::<()>(&geometry, 2, &[(0, 8)], |offset| {
//!     Ok(PlaneAddr::new(offset % 2, (offset / 2) % 2, 0))
//! })
//! .unwrap();
//! assert_eq!(plan.shards().len(), 2);
//! // Every page lands in exactly one shard.
//! let pages: usize = plan
//!     .shards()
//!     .iter()
//!     .flat_map(|s| s.ranges())
//!     .map(|&(start, end)| end - start)
//!     .sum();
//! assert_eq!(pages, 8);
//! ```

use crate::geometry::{Geometry, PlaneAddr};

/// The pages one scan worker is responsible for, as run-length-encoded
/// half-open `(start, end)` ranges of page offsets (in the same offset space
/// the caller planned over, e.g. offsets into a striped flash region).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanShard {
    ranges: Vec<(usize, usize)>,
}

impl ScanShard {
    /// The half-open page-offset ranges of this shard, in ascending order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Append one page offset, extending the last range when contiguous.
    /// Offsets must be pushed in strictly ascending order.
    fn push_offset(&mut self, offset: usize) {
        if let Some(last) = self.ranges.last_mut() {
            if last.1 == offset {
                last.1 = offset + 1;
                return;
            }
        }
        self.ranges.push((offset, offset + 1));
    }
}

/// A complete shard assignment for one scan: every page of the input ranges
/// appears in exactly one shard, and each shard covers a disjoint set of
/// channel×die units.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanShardPlan {
    shards: Vec<ScanShard>,
}

impl ScanShardPlan {
    /// Number of independent scan units the device offers: one per
    /// channel×die pair. Planes of one die share a page buffer and a die-I/O
    /// bus, so they belong to the same unit.
    pub fn scan_units(geometry: &Geometry) -> usize {
        geometry.channels * geometry.dies_per_channel
    }

    /// Build a shard plan for the pages of `ranges` (half-open, ascending,
    /// non-overlapping — e.g. the merged page ranges of a fine scan).
    ///
    /// `plane_of` maps a page offset to the plane that physically stores it;
    /// the planner assigns each page to shard `unit % shard_count` where
    /// `unit` is the page's channel×die index. Under parallelism-first
    /// striping consecutive offsets rotate through the units, so the shards
    /// come out balanced to within one unit's worth of pages.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `plane_of` (typically an
    /// out-of-bounds region offset).
    pub fn build<E>(
        geometry: &Geometry,
        shard_count: usize,
        ranges: &[(usize, usize)],
        mut plane_of: impl FnMut(usize) -> Result<PlaneAddr, E>,
    ) -> Result<ScanShardPlan, E> {
        let shard_count = shard_count.max(1);
        let mut shards = vec![ScanShard::default(); shard_count];
        for &(start, end) in ranges {
            for offset in start..end {
                let plane = plane_of(offset)?;
                let unit = plane.channel * geometry.dies_per_channel + plane.die;
                shards[unit % shard_count].push_offset(offset);
            }
        }
        Ok(ScanShardPlan { shards })
    }

    /// The planned shards (some may be empty: a scan can touch fewer
    /// channel/die units than there are shards).
    pub fn shards(&self) -> &[ScanShard] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Striping used by the tests: offsets rotate channel-first, then die,
    /// matching the SSD allocator's parallelism-first page order.
    fn striped_plane(geometry: &Geometry, offset: usize) -> PlaneAddr {
        let channel = offset % geometry.channels;
        let rest = offset / geometry.channels;
        let die = rest % geometry.dies_per_channel;
        PlaneAddr::new(channel, die, 0)
    }

    /// Pages assigned to a shard.
    fn pages(shard: &ScanShard) -> usize {
        shard.ranges().iter().map(|&(start, end)| end - start).sum()
    }

    /// Pages of a plan's largest shard — the critical path of a sharded scan.
    fn max_shard_pages(plan: &ScanShardPlan) -> usize {
        plan.shards().iter().map(pages).max().unwrap_or(0)
    }

    #[test]
    fn every_page_lands_in_exactly_one_shard() {
        let geometry = Geometry::tiny();
        let ranges = [(0usize, 13usize), (20, 27)];
        for shard_count in 1..=8 {
            let plan = ScanShardPlan::build::<()>(&geometry, shard_count, &ranges, |o| {
                Ok(striped_plane(&geometry, o))
            })
            .unwrap();
            assert_eq!(plan.shards().len(), shard_count);
            let mut seen: Vec<usize> = plan
                .shards()
                .iter()
                .flat_map(|s| s.ranges().iter().flat_map(|&(a, b)| a..b))
                .collect();
            seen.sort_unstable();
            let expected: Vec<usize> = ranges.iter().flat_map(|&(a, b)| a..b).collect();
            assert_eq!(seen, expected, "{shard_count} shards");
            assert_eq!(
                plan.shards().iter().map(pages).sum::<usize>(),
                expected.len()
            );
        }
    }

    #[test]
    fn shards_cover_disjoint_channel_die_units() {
        let geometry = Geometry::tiny(); // 4 units
        let plan = ScanShardPlan::build::<()>(&geometry, 2, &[(0, 32)], |o| {
            Ok(striped_plane(&geometry, o))
        })
        .unwrap();
        let units_of = |shard: &ScanShard| -> Vec<usize> {
            let mut units: Vec<usize> = shard
                .ranges()
                .iter()
                .flat_map(|&(a, b)| a..b)
                .map(|o| {
                    let p = striped_plane(&geometry, o);
                    p.channel * geometry.dies_per_channel + p.die
                })
                .collect();
            units.sort_unstable();
            units.dedup();
            units
        };
        let a = units_of(&plan.shards()[0]);
        let b = units_of(&plan.shards()[1]);
        assert!(
            a.iter().all(|u| !b.contains(u)),
            "units overlap: {a:?} {b:?}"
        );
        assert_eq!(a.len() + b.len(), ScanShardPlan::scan_units(&geometry));
    }

    #[test]
    fn striped_scans_balance_to_within_one_unit() {
        let geometry = Geometry::reis_ssd1(); // 128 units
        let total = 1024usize;
        for shard_count in [2usize, 4, 8] {
            let plan = ScanShardPlan::build::<()>(&geometry, shard_count, &[(0, total)], |o| {
                Ok(striped_plane(&geometry, o))
            })
            .unwrap();
            let min = plan.shards().iter().map(pages).min().unwrap();
            assert_eq!(max_shard_pages(&plan), min, "{shard_count} shards");
            assert_eq!(max_shard_pages(&plan), total / shard_count);
        }
    }

    #[test]
    fn contiguous_offsets_on_one_unit_run_length_encode() {
        let geometry = Geometry {
            channels: 1,
            dies_per_channel: 1,
            ..Geometry::tiny()
        };
        // Single unit: everything goes to shard 0 as one merged range.
        let plan = ScanShardPlan::build::<()>(&geometry, 4, &[(3, 9)], |o| {
            Ok(striped_plane(&geometry, o))
        })
        .unwrap();
        assert_eq!(plan.shards()[0].ranges(), &[(3, 9)]);
        assert!(plan.shards()[1].ranges().is_empty());
        assert_eq!(max_shard_pages(&plan), 6);
    }

    #[test]
    fn plane_of_errors_propagate() {
        let geometry = Geometry::tiny();
        let result = ScanShardPlan::build(&geometry, 2, &[(0, 4)], |o| {
            if o == 2 {
                Err("bad offset")
            } else {
                Ok(striped_plane(&geometry, o))
            }
        });
        assert_eq!(result.unwrap_err(), "bad offset");
    }
}
