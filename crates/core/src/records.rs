//! Controller-DRAM resident records: R-IVF and the Temporal Top Lists.
//!
//! Besides the R-DB database records (which live in `reis-ssd`'s coarse FTL),
//! REIS keeps two further structures in the SSD's DRAM (Sec. 4.2.1, 4.3.1):
//! the **R-IVF** array describing every IVF cluster (centroid address, the
//! index range of its member embeddings, and an 8-bit tag) and the
//! **Temporal Top Lists** (TTL-C for centroids, TTL-E for embeddings) that
//! accumulate candidate entries streamed out of the flash dies before the
//! embedded core runs quickselect on them.

use serde::{Deserialize, Serialize};

use reis_ann::topk::{distance_index_key, quickselect_by_key};

/// DRAM bytes per R-IVF entry (the paper quotes 15 bytes: centroid address,
/// first/last member index, and the tag).
pub const RIVF_ENTRY_BYTES: usize = 15;

/// One R-IVF entry describing an IVF cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RIvfEntry {
    /// Page offset of the centroid inside the centroid sub-region.
    pub centroid_page: u32,
    /// Mini-page slot of the centroid within that page.
    pub centroid_slot: u32,
    /// Storage-order index of the first embedding belonging to the cluster.
    pub first_embedding: u32,
    /// Storage-order index of the last embedding belonging to the cluster
    /// (inclusive).
    pub last_embedding: u32,
    /// 8-bit tag identifying the cluster.
    pub tag: u8,
}

impl RIvfEntry {
    /// Number of embeddings in the cluster (0 when the cluster is empty,
    /// encoded as `first_embedding > last_embedding`).
    pub fn member_count(&self) -> usize {
        if self.last_embedding < self.first_embedding {
            0
        } else {
            (self.last_embedding - self.first_embedding) as usize + 1
        }
    }
}

/// The R-IVF array: one entry per IVF cluster, resident in controller DRAM.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RIvf {
    entries: Vec<RIvfEntry>,
}

impl RIvf {
    /// Create an R-IVF array from per-cluster entries.
    pub fn new(entries: Vec<RIvfEntry>) -> Self {
        RIvf { entries }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the array holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry of cluster `tag_index` (clusters are numbered in storage
    /// order; the 8-bit tag equals `tag_index % 256`).
    pub fn entry(&self, index: usize) -> Option<&RIvfEntry> {
        self.entries.get(index)
    }

    /// All entries in cluster order.
    pub fn entries(&self) -> &[RIvfEntry] {
        &self.entries
    }

    /// DRAM footprint of the array in bytes (`clusters × 15 B`).
    pub fn footprint_bytes(&self) -> usize {
        self.entries.len() * RIVF_ENTRY_BYTES
    }
}

/// One Temporal-Top-List entry streamed from a flash die to the controller.
///
/// During the coarse search the `payload` field carries the cluster tag;
/// during the fine search it is unused and the rescoring/document addresses
/// matter instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TtlEntry {
    /// Hamming distance from the query (DIST).
    pub distance: u32,
    /// Storage-order index of the embedding (derived from its mini-page
    /// address EADR).
    pub storage_index: u32,
    /// Address of the INT8 copy used for reranking (RADR).
    pub radr: u32,
    /// Address of the associated document chunk (DADR); this also identifies
    /// the original database entry.
    pub dadr: u32,
    /// Cluster tag (TAG) — meaningful for TTL-C entries.
    pub tag: u8,
}

/// A Temporal Top List accumulating candidate entries in controller DRAM.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TemporalTopList {
    entries: Vec<TtlEntry>,
}

impl TemporalTopList {
    /// Create an empty list.
    pub fn new() -> Self {
        TemporalTopList::default()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append entries streamed from a die.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = TtlEntry>) {
        self.entries.extend(entries);
    }

    /// Append one entry streamed from a die.
    pub fn push(&mut self, entry: TtlEntry) {
        self.entries.push(entry);
    }

    /// Drop all entries but keep the allocation, so one list can be reused
    /// across the coarse and fine phases (and across queries) without
    /// re-allocating.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Sort the retained entries ascending by `(distance, storage_index)` in
    /// place (the final quicksort step, without copying the list).
    pub fn sort_ascending(&mut self) {
        self.entries
            .sort_unstable_by_key(|e| (e.distance, e.storage_index));
    }

    /// The first `k` entries as a borrowed slice (call
    /// [`TemporalTopList::sort_ascending`] first to make these the `k`
    /// nearest in rank order).
    pub fn top(&self, k: usize) -> &[TtlEntry] {
        &self.entries[..k.min(self.entries.len())]
    }

    /// Total entries received so far (before any truncation).
    pub fn entries(&self) -> &[TtlEntry] {
        &self.entries
    }

    /// Run the quickselect kernel: keep only the `k` smallest entries under
    /// the total order `(distance, storage_index)` (unordered), discarding
    /// the rest, and return how many entries were examined. This mirrors
    /// what the embedded core does after each batch of pages so the list
    /// never grows unboundedly.
    ///
    /// The `storage_index` tie-break makes the kept set independent of the
    /// order entries were streamed in, so a sharded scan that merges
    /// per-channel/per-die candidate lists selects bit-identically to a
    /// sequential scan of the same pages.
    pub fn quickselect(&mut self, k: usize) -> usize {
        let examined = self.entries.len();
        if self.entries.len() > k {
            quickselect_by_key(&mut self.entries, k, |e| {
                distance_index_key(e.distance, e.storage_index)
            });
            self.entries.truncate(k);
        }
        examined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(distance: u32, idx: u32) -> TtlEntry {
        TtlEntry {
            distance,
            storage_index: idx,
            radr: idx,
            dadr: idx * 2,
            tag: (idx % 256) as u8,
        }
    }

    #[test]
    fn rivf_tracks_clusters_and_footprint() {
        let rivf = RIvf::new(vec![
            RIvfEntry {
                centroid_page: 0,
                centroid_slot: 0,
                first_embedding: 0,
                last_embedding: 9,
                tag: 0,
            },
            RIvfEntry {
                centroid_page: 0,
                centroid_slot: 1,
                first_embedding: 10,
                last_embedding: 24,
                tag: 1,
            },
        ]);
        assert_eq!(rivf.len(), 2);
        assert_eq!(rivf.entry(0).unwrap().member_count(), 10);
        assert_eq!(rivf.entry(1).unwrap().member_count(), 15);
        assert_eq!(rivf.footprint_bytes(), 30);
        assert!(rivf.entry(2).is_none());
        assert!(!rivf.is_empty());
    }

    #[test]
    fn ttl_quickselect_keeps_the_k_nearest() {
        let mut ttl = TemporalTopList::new();
        ttl.extend((0..100).map(|i| entry(1000 - i, i)));
        assert_eq!(ttl.len(), 100);
        let examined = ttl.quickselect(10);
        assert_eq!(examined, 100);
        assert_eq!(ttl.len(), 10);
        // The kept entries are exactly the ten largest indices (smallest distances).
        let mut kept: Vec<u32> = ttl.entries().iter().map(|e| e.storage_index).collect();
        kept.sort_unstable();
        assert_eq!(kept, (90..100).collect::<Vec<u32>>());
        ttl.sort_ascending();
        let sorted = ttl.top(3);
        assert_eq!(sorted[0].storage_index, 99);
        assert!(sorted.windows(2).all(|w| w[0].distance <= w[1].distance));
    }

    #[test]
    fn in_place_sort_and_top_match_sorted_top() {
        let mut ttl = TemporalTopList::new();
        ttl.extend((0..50).map(|i| entry((i * 37) % 23, i)));
        // Reference: a stable sort of a copy by (distance, storage index).
        let mut copied = ttl.entries().to_vec();
        copied.sort_by_key(|e| (e.distance, e.storage_index));
        copied.truncate(7);
        ttl.sort_ascending();
        assert_eq!(ttl.top(7), &copied[..]);
        ttl.clear();
        assert!(ttl.is_empty());
        assert!(ttl.top(3).is_empty());
    }

    #[test]
    fn quickselect_with_large_k_is_a_no_op() {
        let mut ttl = TemporalTopList::new();
        ttl.extend((0..5).map(|i| entry(i, i)));
        ttl.quickselect(100);
        assert_eq!(ttl.len(), 5);
        assert!(!ttl.is_empty());
    }
}
