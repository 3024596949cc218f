//! # reis-update — online index mutation for the REIS reproduction
//!
//! The paper evaluates a read-only retrieval pipeline: `DB_Deploy` lays a
//! corpus out once and every later operation is a search. A production
//! retrieval system must also *mutate* the index — accept new documents,
//! drop stale ones and replace changed ones — without pausing traffic for a
//! full rebuild. This crate holds the controller-DRAM state that makes that
//! possible on NAND flash, where data can never be updated in place:
//!
//! * **Append segments** ([`segment`]) — freshly inserted entries are
//!   appended, per IVF cluster, into small out-of-place segment regions
//!   (fresh pages programmed through the FTL's allocator, with the stable
//!   entry id, rescoring address and validity recorded in the OOB bytes,
//!   exactly like the base region's linkage). The fine scan covers base
//!   pages *and* live segment pages, so fresh entries are searchable
//!   immediately.
//! * **Tombstones** ([`tombstone`]) — deleting an entry cannot clear flash
//!   bits, so deletions are recorded in a DRAM validity bitmap over the base
//!   region (and a `deleted` flag on segment entries). The scan filters
//!   candidates against them.
//! * **Compaction** ([`policy`], executed by `reis-core`) — once segments
//!   and tombstones accumulate, a compaction pass rewrites the surviving
//!   corpus into densely packed cluster regions, releases the old regions
//!   and erases every block whose pages all became invalid, returning the
//!   space to the allocator.
//!
//! The flash I/O itself lives in `reis-core` (which owns the deployment
//! layout) and `reis-ssd` (allocator, block reclaim); this crate is the
//! bookkeeping those layers share. [`UpdateState`] bundles it per deployed
//! database.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod policy;
pub mod segment;
pub mod stats;
pub mod tombstone;

pub use policy::CompactionPolicy;
pub use segment::{SegmentEntry, SegmentStore, SlotRef};
pub use stats::MutationStats;
pub use tombstone::TombstoneSet;

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Sentinel RADR value marking an OOB slot of a segment page as invalid
/// (the slot is beyond the entries actually appended to the page). Written
/// at program time, so a scan can reject unfilled slots from the OOB bytes
/// alone.
pub const OOB_INVALID_RADR: u32 = u32::MAX;

/// Where the live version of a logical entry is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryLocation {
    /// In the base region, at the given storage-order index.
    Base(u32),
    /// In an append segment, at the given segment-entry index (sid).
    Segment(u32),
}

/// The complete mutation state of one deployed database: append segments,
/// the base-region tombstone bitmap, the id relocation table and the
/// mutation counters. Lives in controller DRAM next to the R-DB and R-IVF
/// records; its footprint is accounted there by `reis-core`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateState {
    /// Append segments of the database, one list per cluster.
    pub store: SegmentStore,
    /// Validity bitmap over the base region's storage-order indices.
    pub tombstones: TombstoneSet,
    /// Stable ids whose live version moved into a segment (upserts of base
    /// entries, and every plain insert), mapped to their segment-entry
    /// index.
    pub relocated: HashMap<u32, u32>,
    /// Document-slot mapping for base entries: `None` means the identity
    /// mapping of the original deployment (document chunk `id` lives in slot
    /// `id`); after a compaction the surviving ids are densely re-packed and
    /// this map records each id's new slot.
    pub doc_slots: Option<HashMap<u32, u32>>,
    /// Next stable id to assign to an inserted entry.
    pub next_id: u32,
    /// Number of storage-order slots in the base region. Segment entries are
    /// assigned storage indices (and RADR values) starting here, so one
    /// `u32` namespace covers both regions.
    pub base_capacity: u32,
    /// Mutation and compaction counters.
    pub stats: MutationStats,
    /// Compaction generation, used to give each rewritten region a unique
    /// DRAM bookkeeping name.
    pub generation: u64,
}

impl UpdateState {
    /// Fresh state for a database deployed with `base_entries` entries in
    /// `clusters` clusters (pass 1 for a flat deployment).
    pub fn new(base_entries: usize, clusters: usize) -> Self {
        UpdateState {
            store: SegmentStore::new(clusters.max(1)),
            tombstones: TombstoneSet::new(base_entries),
            relocated: HashMap::new(),
            doc_slots: None,
            next_id: base_entries as u32,
            base_capacity: base_entries as u32,
            stats: MutationStats::default(),
            generation: 0,
        }
    }

    /// Publish this state's shape into a telemetry handle: the
    /// segment-entry and tombstone gauges. Called by the owning system
    /// after every mutation/compaction; a no-op on a disabled handle.
    pub fn publish_telemetry(&self, telemetry: &reis_telemetry::Telemetry) {
        telemetry.gauge_set(
            reis_telemetry::GaugeId::SegmentEntries,
            self.store.len() as u64,
        );
        telemetry.gauge_set(
            reis_telemetry::GaugeId::Tombstones,
            self.tombstones.dead_count() as u64,
        );
    }

    /// Whether the database has no pending mutations (searches can take the
    /// base-region-only fast path).
    pub fn is_clean(&self) -> bool {
        self.store.is_empty() && self.tombstones.dead_count() == 0
    }

    /// Number of live logical entries (base survivors plus live segment
    /// entries).
    pub fn live_entries(&self, base_entries: usize) -> usize {
        base_entries - self.tombstones.dead_count() + self.store.live_count()
    }

    /// Where the live version of `id` resides, or `None` if the id was
    /// deleted or never existed. `base_lookup` maps a stable id to its base
    /// storage index, if the id was part of the base deployment.
    pub fn locate(
        &self,
        id: u32,
        base_lookup: impl Fn(u32) -> Option<u32>,
    ) -> Option<EntryLocation> {
        if let Some(&sid) = self.relocated.get(&id) {
            let entry = self.store.entry(sid)?;
            if entry.deleted {
                return None;
            }
            return Some(EntryLocation::Segment(sid));
        }
        let storage = base_lookup(id)?;
        if self.tombstones.contains(storage as usize) {
            return None;
        }
        Some(EntryLocation::Base(storage))
    }

    /// The document slot of a base entry with stable id `id` (identity
    /// before the first compaction, mapped afterwards).
    pub fn base_doc_slot(&self, id: u32) -> Option<u32> {
        match &self.doc_slots {
            None => Some(id),
            Some(map) => map.get(&id).copied(),
        }
    }

    /// Reset the state after a compaction folded everything into a new base
    /// region of `base_entries` entries: segments, tombstones and the
    /// relocation table empty out; `doc_slots` is replaced by the compacted
    /// document-slot mapping; id assignment continues where it left off.
    pub fn reset_after_compaction(
        &mut self,
        base_entries: usize,
        clusters: usize,
        doc_slots: HashMap<u32, u32>,
    ) {
        self.store.reset(clusters.max(1));
        self.tombstones = TombstoneSet::new(base_entries);
        self.relocated.clear();
        self.doc_slots = Some(doc_slots);
        self.base_capacity = base_entries as u32;
        self.generation += 1;
        self.stats.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A live segment entry; no test here reads its payload locations.
    fn live(id: u32, cluster: usize) -> SegmentEntry {
        SegmentEntry {
            id,
            cluster,
            embedding: SlotRef::default(),
            int8: SlotRef::default(),
            document: SlotRef::default(),
            deleted: false,
        }
    }

    #[test]
    fn locate_routes_through_tombstones_and_relocations() {
        let mut state = UpdateState::new(10, 1);
        assert!(state.is_clean());
        assert_eq!(state.next_id, 10);
        assert_eq!(state.locate(3, Some), Some(EntryLocation::Base(3)));
        state.tombstones.mark(3);
        assert_eq!(state.locate(3, Some), None);
        assert_eq!(state.live_entries(10), 9);

        // An upserted id points at its live segment version.
        let sid = state.store.push(live(4, 0));
        state.relocated.insert(4, sid);
        state.tombstones.mark(4);
        assert_eq!(state.locate(4, Some), Some(EntryLocation::Segment(sid)));
        assert_eq!(state.live_entries(10), 9);
        // Deleting the segment version kills the id entirely.
        state.store.mark_deleted(sid);
        assert_eq!(state.locate(4, Some), None);
        assert!(!state.is_clean());
    }

    #[test]
    fn compaction_reset_starts_a_new_generation() {
        let mut state = UpdateState::new(8, 2);
        state.tombstones.mark(1);
        let sid = state.store.push(live(8, 1));
        state.relocated.insert(8, sid);
        state.next_id = 9;

        let mut slots = HashMap::new();
        for (slot, id) in [0u32, 2, 3, 4, 5, 6, 7, 8].iter().enumerate() {
            slots.insert(*id, slot as u32);
        }
        state.reset_after_compaction(8, 2, slots);
        assert!(state.is_clean());
        assert_eq!(state.generation, 1);
        assert_eq!(state.stats.compactions, 1);
        assert_eq!(state.next_id, 9, "id assignment continues");
        assert_eq!(state.base_doc_slot(2), Some(1));
        assert_eq!(state.base_doc_slot(1), None, "compacted-away id");
    }

    #[test]
    fn doc_slots_default_to_identity() {
        let state = UpdateState::new(5, 1);
        assert_eq!(state.base_doc_slot(4), Some(4));
    }
}
