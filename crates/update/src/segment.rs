//! Append segments: the out-of-place landing zone for inserted entries.
//!
//! NAND pages cannot be rewritten, so inserts never touch the densely
//! packed base region. Instead every insert batch programs *fresh* pages —
//! an ESP-SLC embedding run per touched cluster plus TLC INT8/document
//! pages — and records one [`SegmentEntry`] per appended entry in controller
//! DRAM. The per-cluster embedding runs are what the fine scan walks in
//! addition to the base region; the INT8 and document slots are what the
//! rerank and document-fetch phases follow for segment-resident candidates.
//! Compaction folds everything back into a new base region and resets the
//! store.

use serde::{Deserialize, Serialize};

use reis_ssd::StripedRegion;

/// Bytes of controller DRAM one segment entry occupies (id, cluster, three
/// slot references and the validity flag, conservatively padded).
pub const SEGMENT_ENTRY_BYTES: usize = 40;

/// One payload location inside a segment region: which region, which page
/// offset within it, and which slot within the page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotRef {
    /// The striped region holding the payload.
    pub region: StripedRegion,
    /// Page offset within the region.
    pub page: usize,
    /// Slot index within the page.
    pub slot: usize,
}

/// One appended entry: where its three payloads live and whether it is
/// still alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// Stable logical id of the entry (its DADR).
    pub id: u32,
    /// IVF cluster the entry was assigned to (0 for flat databases).
    pub cluster: usize,
    /// Binary embedding location (ESP-SLC segment run).
    pub embedding: SlotRef,
    /// INT8 rerank copy location (TLC).
    pub int8: SlotRef,
    /// Document chunk location (TLC).
    pub document: SlotRef,
    /// Whether the entry was deleted (or superseded by an upsert) after it
    /// was appended. Flash cannot be updated in place, so this flag — not
    /// the OOB validity written at program time — is the live truth.
    pub deleted: bool,
}

/// The append segments of one database: the sid-indexed entry table, the
/// per-cluster embedding runs the scan must cover, and every flash region
/// the segments occupy (for release at compaction).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentStore {
    entries: Vec<SegmentEntry>,
    /// Per-cluster embedding-run regions, in append order. Each run is a
    /// small ESP-SLC region whose OOB carries the linkage (and validity) of
    /// the entries it holds.
    cluster_runs: Vec<Vec<StripedRegion>>,
    /// Every region backing the segments — embedding runs plus INT8 and
    /// document pages — with the DRAM bookkeeping name it was reserved
    /// under, so compaction can release all of them.
    regions: Vec<(String, StripedRegion)>,
    live: usize,
}

impl SegmentStore {
    /// An empty store for a database with `clusters` clusters.
    pub fn new(clusters: usize) -> Self {
        SegmentStore {
            entries: Vec::new(),
            cluster_runs: vec![Vec::new(); clusters],
            regions: Vec::new(),
            live: 0,
        }
    }

    /// Number of entries ever appended (live and deleted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of live (not deleted) entries.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Number of clusters the store tracks.
    pub fn clusters(&self) -> usize {
        self.cluster_runs.len()
    }

    /// Append an entry, returning its segment-entry index (sid).
    pub fn push(&mut self, entry: SegmentEntry) -> u32 {
        debug_assert!(entry.cluster < self.cluster_runs.len());
        let sid = self.entries.len() as u32;
        if !entry.deleted {
            self.live += 1;
        }
        self.entries.push(entry);
        sid
    }

    /// The entry at `sid`, if it exists.
    pub fn entry(&self, sid: u32) -> Option<&SegmentEntry> {
        self.entries.get(sid as usize)
    }

    /// All entries in append (sid) order.
    pub fn entries(&self) -> &[SegmentEntry] {
        &self.entries
    }

    /// Mark the entry at `sid` deleted, returning whether it was live.
    pub fn mark_deleted(&mut self, sid: u32) -> bool {
        match self.entries.get_mut(sid as usize) {
            Some(entry) if !entry.deleted => {
                entry.deleted = true;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Record a new embedding run for `cluster` (a region the fine scan of
    /// that cluster must cover).
    pub fn add_run(&mut self, cluster: usize, region: StripedRegion) {
        self.cluster_runs[cluster].push(region);
    }

    /// The embedding runs of `cluster`, in append order.
    pub fn runs(&self, cluster: usize) -> &[StripedRegion] {
        self.cluster_runs
            .get(cluster)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The embedding runs covering `clusters`, in the deterministic scan
    /// order: clusters in probe order, each cluster's runs in append order.
    /// This is the segment tail of the windowed adaptive scan's page list —
    /// the fixed page sequence that window barriers are measured against.
    pub fn ordered_runs<'a>(
        &'a self,
        clusters: &'a [usize],
    ) -> impl Iterator<Item = &'a StripedRegion> + 'a {
        clusters.iter().flat_map(move |&cluster| self.runs(cluster))
    }

    /// Register a flash region backing the segments (embedding, INT8 or
    /// document pages) under its DRAM bookkeeping name.
    pub fn register_region(&mut self, name: String, region: StripedRegion) {
        self.regions.push((name, region));
    }

    /// Every registered region with its name (compaction releases these).
    pub fn regions(&self) -> &[(String, StripedRegion)] {
        &self.regions
    }

    /// Controller-DRAM footprint of the entry table in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.entries.len() * SEGMENT_ENTRY_BYTES
    }

    /// Drop everything and start over with `clusters` clusters (after a
    /// compaction folded the segments into the base region).
    pub fn reset(&mut self, clusters: usize) {
        self.entries.clear();
        self.cluster_runs.clear();
        self.cluster_runs.resize(clusters, Vec::new());
        self.regions.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_mark_and_count() {
        let live = |id, cluster| SegmentEntry {
            id,
            cluster,
            embedding: SlotRef::default(),
            int8: SlotRef::default(),
            document: SlotRef::default(),
            deleted: false,
        };
        let mut store = SegmentStore::new(2);
        assert!(store.is_empty());
        let a = store.push(live(10, 0));
        let b = store.push(live(11, 1));
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.live_count(), 2);
        assert!(store.mark_deleted(a));
        assert!(!store.mark_deleted(a), "second delete is a no-op");
        assert!(!store.mark_deleted(99), "unknown sid is a no-op");
        assert_eq!(store.live_count(), 1);
        assert_eq!(store.entry(b).unwrap().id, 11);
        assert!(store.entry(a).unwrap().deleted);
        assert_eq!(store.footprint_bytes(), 2 * SEGMENT_ENTRY_BYTES);
    }

    #[test]
    fn ordered_runs_follow_probe_order() {
        let mut store = SegmentStore::new(3);
        let a = StripedRegion { start: 0, len: 2 };
        let b = StripedRegion { start: 2, len: 1 };
        let c = StripedRegion { start: 3, len: 4 };
        store.add_run(0, a);
        store.add_run(2, b);
        store.add_run(2, c);
        // Probe order 2-then-0: cluster 2's runs (append order) come first.
        let got: Vec<StripedRegion> = store.ordered_runs(&[2, 0]).copied().collect();
        assert_eq!(got, vec![b, c, a]);
        assert_eq!(store.ordered_runs(&[1]).count(), 0);
    }

    #[test]
    fn runs_and_regions_round_trip_and_reset() {
        let mut store = SegmentStore::new(3);
        let r1 = StripedRegion { start: 0, len: 2 };
        let r2 = StripedRegion { start: 2, len: 1 };
        store.add_run(1, r1);
        store.add_run(1, r2);
        store.register_region("db1/seg0/emb".into(), r1);
        store.register_region("db1/seg1/emb".into(), r2);
        assert_eq!(store.runs(1), &[r1, r2]);
        assert!(store.runs(0).is_empty());
        assert!(store.runs(9).is_empty(), "unknown cluster is empty");
        assert_eq!(store.regions().len(), 2);
        store.reset(1);
        assert!(store.is_empty());
        assert_eq!(store.clusters(), 1);
        assert!(store.runs(0).is_empty());
        assert!(store.regions().is_empty());
    }
}
