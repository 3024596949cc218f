//! Top-k selection primitives.
//!
//! REIS's embedded cores run *quickselect* to keep the k best candidates of a
//! Temporal Top List without fully sorting it, followed by a final
//! *quicksort* of the k survivors (Sec. 4.3.1). The same primitives are used
//! by the CPU baselines, so they live here in the algorithm library.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One search candidate: a vector id and its distance from the query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Identifier of the database vector.
    pub id: usize,
    /// Distance from the query (lower is closer).
    pub distance: f32,
}

impl Neighbor {
    /// Create a neighbor entry.
    pub fn new(id: usize, distance: f32) -> Self {
        Neighbor { id, distance }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order: distance first (NaN sorts last), then id for stability.
        self.distance
            .partial_cmp(&other.distance)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Partition `items` in place so the `k` smallest elements (by `key`) occupy
/// the first `k` positions, in arbitrary order. Runs in expected O(n) time —
/// the quickselect kernel executed by the SSD's embedded core.
///
/// If `k >= items.len()` the slice is left untouched.
pub fn quickselect_by_key<T, K, F>(items: &mut [T], k: usize, key: F)
where
    K: PartialOrd,
    F: Fn(&T) -> K,
{
    if k == 0 || k >= items.len() {
        return;
    }
    let mut lo = 0usize;
    let mut hi = items.len() - 1;
    let target = k - 1;
    // Deterministic pseudo-random pivot sequence keeps the kernel reproducible.
    let mut pivot_seed = 0x9E37_79B9_u64;
    while lo < hi {
        pivot_seed = pivot_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let pivot_index = lo + (pivot_seed % (hi - lo + 1) as u64) as usize;
        items.swap(pivot_index, hi);
        let mut store = lo;
        for i in lo..hi {
            if key(&items[i]) < key(&items[hi]) {
                items.swap(i, store);
                store += 1;
            }
        }
        items.swap(store, hi);
        match store.cmp(&target) {
            Ordering::Equal => return,
            Ordering::Less => lo = store + 1,
            Ordering::Greater => hi = store - 1,
        }
    }
}

/// Total-order ranking key for a `(distance, index)` candidate pair:
/// distance first, index as the tie-break.
///
/// Selection by raw distance leaves the kept set ambiguous when several
/// candidates tie at the k-th position — whichever the partitioning happens
/// to visit first survives, so the result depends on input order. Keying
/// quickselect with this composite instead makes the kept set a pure
/// function of the candidate *set*: REIS relies on that to merge the
/// shard-local Temporal Top Lists of an intra-query sharded scan into
/// exactly the candidates a sequential scan would have kept.
pub fn distance_index_key(distance: u32, index: u32) -> u64 {
    ((distance as u64) << 32) | index as u64
}

/// Select the `k` nearest neighbors from a slice of candidates, returned in
/// ascending distance order (quickselect followed by a sort of the k
/// survivors, mirroring REIS's quickselect + quicksort pipeline).
pub fn select_k_nearest(candidates: &[Neighbor], k: usize) -> Vec<Neighbor> {
    let mut work = candidates.to_vec();
    let k = k.min(work.len());
    quickselect_by_key(&mut work, k, |n| n.distance);
    work.truncate(k);
    work.sort();
    work
}

/// Streaming top-k accumulator backed by a bounded max-heap, used by index
/// implementations that visit candidates one at a time.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Create an accumulator that keeps the `k` nearest candidates.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer a candidate to the accumulator.
    pub fn push(&mut self, candidate: Neighbor) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(worst) = self.heap.peek() {
            if candidate < *worst {
                self.heap.pop();
                self.heap.push(candidate);
            }
        }
    }

    /// Consume the accumulator and return the neighbors in ascending distance
    /// order.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let mut out: Vec<Neighbor> = self.heap.into_vec();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<Neighbor> {
        vec![
            Neighbor::new(0, 5.0),
            Neighbor::new(1, 1.0),
            Neighbor::new(2, 9.0),
            Neighbor::new(3, 0.5),
            Neighbor::new(4, 2.5),
            Neighbor::new(5, 7.0),
        ]
    }

    #[test]
    fn select_k_nearest_returns_sorted_k_smallest() {
        let top = select_k_nearest(&candidates(), 3);
        let ids: Vec<usize> = top.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 1, 4]);
        assert!(top.windows(2).all(|w| w[0].distance <= w[1].distance));
    }

    #[test]
    fn select_k_handles_k_larger_than_input() {
        let top = select_k_nearest(&candidates(), 100);
        assert_eq!(top.len(), 6);
        assert_eq!(top[0].id, 3);
        assert_eq!(top[5].id, 2);
    }

    #[test]
    fn select_zero_returns_empty() {
        assert!(select_k_nearest(&candidates(), 0).is_empty());
    }

    #[test]
    fn quickselect_partitions_smallest_first() {
        let mut values: Vec<u32> = (0..1000).rev().collect();
        quickselect_by_key(&mut values, 10, |&v| v);
        let mut head = values[..10].to_vec();
        head.sort_unstable();
        assert_eq!(head, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn topk_accumulator_matches_select() {
        let mut acc = TopK::new(3);
        for c in candidates() {
            acc.push(c);
        }
        let streamed = acc.into_sorted_vec();
        let direct = select_k_nearest(&candidates(), 3);
        assert_eq!(streamed, direct);
        assert_eq!(streamed.last().map(|n| n.distance), Some(2.5));
    }

    #[test]
    fn topk_with_zero_capacity_stays_empty() {
        let mut acc = TopK::new(0);
        acc.push(Neighbor::new(1, 1.0));
        assert!(acc.into_sorted_vec().is_empty());
    }

    #[test]
    fn neighbor_ordering_breaks_ties_by_id() {
        let a = Neighbor::new(1, 2.0);
        let b = Neighbor::new(2, 2.0);
        assert!(a < b);
    }
}
