//! The exact scatter–gather merge.
//!
//! A single device cuts its rerank candidate set *globally*: the best
//! `rerank_factor × k` threshold survivors by `(binary distance, storage
//! index)`, then the top k of those by `(raw INT8 distance, storage
//! index)`. Leaves can only cut locally, so each reports its full ≤ budget
//! candidate set ([`LeafCandidate`]) and the aggregator replays both cuts
//! over the union under the **lifted** orders
//!
//! * candidate cut: `(binary, leaf, storage index)`
//! * final ranking: `(raw, leaf, storage index)`
//!
//! When each leaf holds a contiguous slice of the single-device scan
//! order, `(leaf, storage index)` is order-isomorphic to the single-device
//! storage index, so the lifted orders coincide with the single-device
//! orders and the merged top-k is bit-identical. Any candidate in the
//! union's top budget is a fortiori in its own leaf's top budget, so the
//! union of leaf sets is a superset of the single-device candidate set and
//! no survivor is ever missing.

use reis_core::LeafCandidate;

/// A merged candidate with its originating leaf (the merge tie-break key
/// and the document-fetch routing handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedCandidate {
    /// Index of the leaf that reported the candidate.
    pub leaf: usize,
    /// The leaf's fully scored candidate.
    pub candidate: LeafCandidate,
}

/// What the merge produced, with the accounting the aggregator reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The global top-k, ascending by `(raw, leaf, storage index)`.
    pub winners: Vec<RankedCandidate>,
    /// Union candidate count before the global cut.
    pub merged_candidates: usize,
    /// Candidates surviving the global `rerank_factor × k` cut.
    pub cut_candidates: usize,
}

/// Merge per-leaf candidate sets into the global top `k`: the global
/// candidate cut to `budget` by `(binary, leaf, storage index)`, then the
/// top `k` by `(raw, leaf, storage index)`.
///
/// Both keys are total orders (a leaf reports each storage index once), so
/// selecting each cut and sorting only the `k` winners yields exactly what
/// sorting the whole union twice would.
pub fn merge_top_k(per_leaf: &[Vec<LeafCandidate>], budget: usize, k: usize) -> MergeOutcome {
    let mut union: Vec<RankedCandidate> = per_leaf
        .iter()
        .enumerate()
        .flat_map(|(leaf, candidates)| {
            candidates
                .iter()
                .map(move |&candidate| RankedCandidate { leaf, candidate })
        })
        .collect();
    let merged_candidates = union.len();

    keep_least(&mut union, budget, |r| {
        (r.candidate.binary, r.leaf, r.candidate.storage_index)
    });
    let cut_candidates = union.len();

    let rank = |r: &RankedCandidate| (r.candidate.raw, r.leaf, r.candidate.storage_index);
    keep_least(&mut union, k, rank);
    union.sort_unstable_by_key(rank);

    MergeOutcome {
        winners: union,
        merged_candidates,
        cut_candidates,
    }
}

/// Keep the `n` least elements of `items` under the total order `key`, in
/// no particular order.
fn keep_least<K: Ord>(
    items: &mut Vec<RankedCandidate>,
    n: usize,
    key: impl FnMut(&RankedCandidate) -> K,
) {
    if n < items.len() {
        items.select_nth_unstable_by_key(n, key);
        items.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(binary: u32, storage_index: u32, id: u32, raw: i64) -> LeafCandidate {
        LeafCandidate {
            binary,
            storage_index,
            id,
            raw,
        }
    }

    #[test]
    fn candidate_cut_prefers_lower_leaf_then_lower_storage_index() {
        // Three candidates share the boundary binary distance; budget keeps
        // exactly one of them. Leaf order breaks the tie first, storage
        // index second.
        let per_leaf = vec![
            vec![cand(3, 9, 100, 50)],
            vec![cand(3, 0, 200, 10), cand(3, 1, 201, 20)],
        ];
        let merged = merge_top_k(&per_leaf, 1, 1);
        assert_eq!(merged.merged_candidates, 3);
        assert_eq!(merged.cut_candidates, 1);
        // (3, leaf 0, idx 9) beats (3, leaf 1, idx 0) despite the larger
        // storage index: the leaf id is the senior tie-break.
        assert_eq!(merged.winners[0].candidate.id, 100);
    }

    #[test]
    fn final_ranking_breaks_raw_ties_by_leaf_then_storage_index() {
        // Duplicate raw distances colliding across leaves.
        let per_leaf = vec![
            vec![cand(1, 5, 10, 77), cand(2, 6, 11, 77)],
            vec![cand(1, 0, 20, 77)],
            vec![cand(1, 2, 30, 76)],
        ];
        let merged = merge_top_k(&per_leaf, 10, 4);
        let ids: Vec<u32> = merged.winners.iter().map(|w| w.candidate.id).collect();
        // 30 wins outright (raw 76); among the 77s: leaf 0 idx 5, leaf 0
        // idx 6, then leaf 1 idx 0.
        assert_eq!(ids, vec![30, 10, 11, 20]);
    }

    #[test]
    fn cut_happens_before_ranking() {
        // A candidate with the best raw distance but a boundary-losing
        // binary distance must be cut before ranking, exactly as a single
        // device would cut it.
        let per_leaf = vec![
            vec![cand(1, 0, 1, 100), cand(1, 1, 2, 90)],
            vec![cand(5, 0, 3, 1)],
        ];
        let merged = merge_top_k(&per_leaf, 2, 2);
        let ids: Vec<u32> = merged.winners.iter().map(|w| w.candidate.id).collect();
        assert_eq!(
            ids,
            vec![2, 1],
            "raw-best candidate must not survive the binary cut"
        );
    }

    /// The merge as it was first written: sort the whole union by the cut
    /// key, truncate, sort the survivors by the rank key, truncate.
    fn two_sort_reference(
        per_leaf: &[Vec<LeafCandidate>],
        budget: usize,
        k: usize,
    ) -> MergeOutcome {
        let mut union: Vec<RankedCandidate> = per_leaf
            .iter()
            .enumerate()
            .flat_map(|(leaf, candidates)| {
                candidates
                    .iter()
                    .map(move |&candidate| RankedCandidate { leaf, candidate })
            })
            .collect();
        let merged_candidates = union.len();
        union.sort_by_key(|r| (r.candidate.binary, r.leaf, r.candidate.storage_index));
        union.truncate(budget);
        let cut_candidates = union.len();
        union.sort_by_key(|r| (r.candidate.raw, r.leaf, r.candidate.storage_index));
        union.truncate(k);
        MergeOutcome {
            winners: union,
            merged_candidates,
            cut_candidates,
        }
    }

    #[test]
    fn selecting_merge_equals_the_two_sort_reference() {
        let mut state = 0x3E26_E5E1_u64;
        let mut draw = |bound: u64| reis_persist::splitmix64(&mut state) % bound;
        for case in 0..2_000 {
            // Distances from a handful of values, so ties are the rule.
            let spread = 1 + draw(6);
            let per_leaf: Vec<Vec<LeafCandidate>> = (0..1 + draw(5))
                .map(|_| {
                    (0..draw(40) as u32)
                        .map(|index| {
                            cand(draw(spread) as u32, index, index, draw(spread) as i64 - 2)
                        })
                        .collect()
                })
                .collect();
            let union: usize = per_leaf.iter().map(Vec::len).sum();
            // Budgets below, at and past the union; `k` below, at and past
            // the budget.
            let budget = draw(union as u64 + 8) as usize;
            let k = draw(budget as u64 + 4) as usize;
            assert_eq!(
                merge_top_k(&per_leaf, budget, k),
                two_sort_reference(&per_leaf, budget, k),
                "case {case}: budget {budget}, k {k}, union {union}"
            );
        }
    }

    #[test]
    fn short_inputs_merge_without_padding() {
        let merged = merge_top_k(&[vec![], vec![cand(0, 0, 7, 5)]], 10, 3);
        assert_eq!(merged.merged_candidates, 1);
        assert_eq!(merged.cut_candidates, 1);
        assert_eq!(merged.winners.len(), 1);
        assert_eq!(merged.winners[0].leaf, 1);
    }
}
