//! Leaf-facing hooks for multi-device scale-out, and the one ranking rule.
//!
//! A scale-out deployment (see the `reis-cluster` crate) partitions one
//! logical corpus across N independent leaf [`ReisSystem`] instances and
//! merges their answers on an aggregator. Exactness is subtle: a single
//! device cuts the rerank candidate set *globally* (the best
//! `rerank_factor × k` by binary scan distance), while each leaf can only
//! cut locally. The protocol here makes the merge exact anyway:
//!
//! 1. [`ReisSystem::leaf_query`] runs the ordinary in-storage pipeline but
//!    returns **every** leaf-local candidate — up to the same
//!    `rerank_factor × k` budget a single device would use — with both its
//!    binary scan distance and its INT8 rerank distance
//!    ([`LeafCandidate`]). Any candidate in the union's global top-C is, a
//!    fortiori, in its own leaf's top-C, so the union of the leaf sets is a
//!    superset of the single-device candidate set.
//! 2. The aggregator re-applies the global cut over the union of leaf
//!    candidates under the lifted total order
//!    `(binary distance, leaf id, storage index)`, then ranks the
//!    survivors by `(raw INT8 distance, leaf id, storage index)` — the
//!    single-device `(distance, storage_index)` tie-breaks with the leaf id
//!    spliced in ([`merge_top_k`]). When each leaf holds a contiguous slice
//!    of the single-device scan order, the lifted order coincides with the
//!    single-device order and the merged top-k is bit-identical. A single
//!    device ranks its own candidates with the same function over one leaf:
//!    its selection is already cut to the budget under the same order, so
//!    the cut keeps everything, and `(raw, 0, storage index)` orders as
//!    `(raw, storage index)` does.
//! 3. [`ReisSystem::leaf_fetch_documents`] retrieves the winners' chunks
//!    from their owning leaves only.
//!
//! Leaf scans pin [`AdaptiveFiltering`](crate::config::AdaptiveFiltering)
//! off: the windowed threshold schedule is a function of one *device's*
//! page list, which sharding a corpus changes. The static threshold is a
//! pure function of the configuration and the query, so the set of entries
//! that pass it — and with it the summed transferred-entry accounting — is
//! partition-invariant.
//!
//! Mutation routing stores *global* stable ids natively on the owning leaf:
//! [`ReisSystem::deploy_with_ids`] deploys a shard under its global ids and
//! [`ReisSystem::insert_batch_at`] appends new entries under
//! aggregator-assigned ids (WAL-logged as
//! [`WalRecord::InsertBatchAt`](reis_persist::WalRecord) so replay
//! reproduces the assignment). Deletes, upserts and compactions reuse the
//! ordinary per-leaf paths unchanged.

use reis_ann::topk::Neighbor;
use reis_nand::{FlashStats, Nanos};

use crate::database::VectorDatabase;
use crate::deploy;
use crate::energy::EnergyBreakdown;
use crate::error::{ReisError, Result};
use crate::mutate::MutationOutcome;
use crate::perf::{LatencyBreakdown, QueryActivity};
use crate::scan::{self, Finish, Request};
use crate::system::ReisSystem;

/// One fully scored fine-search candidate, as a leaf reports it to the
/// aggregator: the binary scan distance (the candidate-cut key), the
/// leaf-local storage index (the scan-order tie-break), the stable entry id
/// and the INT8 rerank distance (the final ranking key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafCandidate {
    /// Binary Hamming distance from the fine scan.
    pub binary: u32,
    /// Leaf-local storage index (scan-order position).
    pub storage_index: u32,
    /// Stable entry id (global in a cluster deployment).
    pub id: u32,
    /// Raw INT8 squared-L2 rerank distance.
    pub raw: i64,
}

/// Everything one leaf contributes to a fanned-out query: its full scored
/// candidate set plus the honest per-leaf accounting of the work done.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafQueryOutcome {
    /// All leaf-local candidates, ordered by `(binary, storage_index)`.
    pub candidates: Vec<LeafCandidate>,
    /// Activity counters of the leaf's scan and rerank phases.
    pub activity: QueryActivity,
    /// Per-phase modelled latency of the leaf's work (documents excluded —
    /// the aggregator fetches only the merged winners' chunks).
    pub latency: LatencyBreakdown,
    /// Energy of the leaf's work.
    pub energy: EnergyBreakdown,
    /// Flash operation counters attributable to the leaf's work.
    pub flash_stats: FlashStats,
}

/// The winners' document chunks as fetched from one owning leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafDocumentsOutcome {
    /// The chunks, aligned with the requested results.
    pub documents: Vec<Vec<u8>>,
    /// Modelled latency of the fetch (flash reads + host transfer).
    pub latency: Nanos,
    /// Flash operation counters of the fetch.
    pub flash_stats: FlashStats,
}

impl ReisSystem {
    /// Deploy a database shard under *externally assigned* stable ids (the
    /// cluster router's global ids; `stable_ids[i]` names entry `i`).
    /// `min_doc_slot_bytes` floors the document slot size so every leaf
    /// uses the slot layout the union corpus would — per-leaf maxima differ,
    /// and slot size feeds both document accounting and insert validation.
    ///
    /// The shard's next-id watermark advances past the largest assigned id,
    /// so later [`ReisSystem::insert_batch_at`] calls and upserts of global
    /// ids validate against the global namespace. Like
    /// [`ReisSystem::deploy`], a durably-opened system checkpoints a
    /// snapshot before returning.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::deploy`], plus
    /// [`ReisError::MalformedDatabase`] if `stable_ids` does not cover the
    /// corpus one-to-one.
    pub fn deploy_with_ids(
        &mut self,
        database: &VectorDatabase,
        stable_ids: &[u32],
        min_doc_slot_bytes: usize,
    ) -> Result<u32> {
        let deployed = deploy::deploy_with_ids(
            &mut self.controller,
            database,
            self.next_db_id,
            stable_ids,
            min_doc_slot_bytes,
        )?;
        self.install(deployed)
    }

    /// Insert a batch under *caller-chosen* stable ids (see
    /// [`crate::mutate`]'s routed-insert primitive): every id must be fresh
    /// (at or past the shard's next-id watermark) and unique within the
    /// batch. On a durably-opened system the batch is WAL-logged as
    /// [`WalRecord::InsertBatchAt`](reis_persist::WalRecord) so replay
    /// re-applies the recorded assignment verbatim. [`ReisSystem::insert_batch`]
    /// is this call with the next unassigned ids.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::insert_batch`], plus
    /// [`ReisError::MalformedDatabase`] for stale or duplicate ids.
    pub fn insert_batch_at(
        &mut self,
        db_id: u32,
        ids: &[u32],
        vectors: &[Vec<f32>],
        documents: &[Vec<u8>],
    ) -> Result<MutationOutcome> {
        self.insert_logged(db_id, Some(ids), vectors, documents)
    }

    /// The shard's next unassigned stable id — after recovery, the cluster
    /// re-derives its global id watermark as the maximum over its leaves.
    pub fn next_stable_id(&self, db_id: u32) -> Result<u32> {
        Ok(self.database(db_id)?.updates.next_id)
    }

    /// Execute the leaf half of a fanned-out query: the ordinary in-storage
    /// pipeline through the INT8 rerank, returning *every* leaf-local
    /// candidate fully scored (see the module docs for why that makes the
    /// aggregator's global cut exact) instead of a top-k cut, and no
    /// documents — the aggregator fetches only the merged winners' chunks
    /// via [`ReisSystem::leaf_fetch_documents`].
    ///
    /// The scan pins adaptive filtering off (static thresholds are
    /// partition-invariant; the windowed schedule is not) but is otherwise
    /// the request [`ReisSystem::search`] runs — same validation, same
    /// [`ScanParallelism`](crate::config::ScanParallelism), same scan core.
    /// Like [`ReisSystem::search_batch`]'s, the scan shards across up to
    /// `workers` (capped at the host's parallelism): an aggregator running
    /// several leaves at once splits its host budget between them. Results
    /// never depend on it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::search`] /
    /// [`ReisSystem::ivf_search_with_nprobe`] (pass `nprobe: None` for a
    /// brute-force scan).
    pub fn leaf_query(
        &mut self,
        db_id: u32,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
        workers: usize,
    ) -> Result<LeafQueryOutcome> {
        let config = self.config.with_adaptive_filtering(false);
        let request = Request {
            queries: &[query],
            k,
            nprobe,
            finish: Finish::Candidates,
            kind: "leaf",
        };
        let mut executed = self.execute(db_id, config, self.shard_budget(workers), &request)?;
        let answered = executed.pop().expect("one outcome per query");
        Ok(LeafQueryOutcome {
            candidates: answered.candidates,
            activity: answered.outcome.activity,
            latency: answered.outcome.latency,
            energy: answered.outcome.energy,
            flash_stats: answered.outcome.flash_stats,
        })
    }

    /// Fetch the document chunks of merged winners owned by this leaf, in
    /// the order given (the aggregator passes each leaf only its own
    /// winners and splices the chunks back into global rank order).
    ///
    /// # Errors
    ///
    /// Same conditions as the document phase of [`ReisSystem::search`]
    /// ([`ReisError::EntryNotFound`] for an id this leaf does not hold).
    pub fn leaf_fetch_documents(
        &mut self,
        db_id: u32,
        results: &[Neighbor],
    ) -> Result<LeafDocumentsOutcome> {
        let db = self
            .databases
            .get(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        let stats_before = *self.controller.device().stats();
        let documents =
            scan::fetch_documents(&mut self.controller, &mut self.scratch, db, results)?;
        let doc_slot_bytes = db.layout.doc_slot_bytes;
        let latency = self.perf.document_fetch(documents.len(), doc_slot_bytes)
            + self.perf.host_transfer(documents.len(), doc_slot_bytes);
        let flash_stats = self.controller.device().stats().delta_since(&stats_before);
        Ok(LeafDocumentsOutcome {
            documents,
            latency,
            flash_stats,
        })
    }
}

/// A ranked candidate with its originating leaf (the merge tie-break key
/// and the document-fetch routing handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedCandidate {
    /// Index of the leaf that reported the candidate (0 on a single device).
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

impl MergeOutcome {
    /// The winners as search results: `(stable id, INT8 rerank distance)`,
    /// in rank order.
    pub fn results(&self) -> Vec<Neighbor> {
        self.winners
            .iter()
            .map(|w| Neighbor::new(w.candidate.id as usize, w.candidate.raw as f32))
            .collect()
    }
}

/// Rank per-leaf candidate sets into the global top `k` (see the module
/// docs): the global candidate cut to `budget` by `(binary, leaf, storage
/// index)`, then the top `k` by `(raw, leaf, storage index)`. The one
/// ranking rule of both a device (one leaf) and a cluster aggregator.
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
