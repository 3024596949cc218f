//! Leaf-facing hooks for multi-device scale-out.
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
//!    spliced in. When each leaf holds a contiguous slice of the
//!    single-device scan order, the lifted order coincides with the
//!    single-device order and the merged top-k is bit-identical.
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
use crate::engine::InStorageEngine;
use crate::error::{ReisError, Result};
use crate::mutate::MutationOutcome;
use crate::perf::{LatencyBreakdown, QueryActivity};
use crate::scan::{Finish, Request};
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
    /// The candidate budget this leaf cut to (`rerank_factor × k`).
    pub candidate_budget: usize,
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
        let db_id = self.next_db_id;
        let mut deployed = deploy::deploy_with_ids(
            &mut self.controller,
            database,
            db_id,
            stable_ids,
            min_doc_slot_bytes,
        )?;
        let past_max = stable_ids.iter().map(|&id| id + 1).max().unwrap_or(0);
        deployed.updates.next_id = deployed.updates.next_id.max(past_max);
        // Document chunks live at entry-order slots; with external ids the
        // identity fallback of `base_doc_slot` no longer holds, so install
        // the explicit id → slot map (as snapshot recovery does).
        deployed.updates.doc_slots = Some(
            stable_ids
                .iter()
                .enumerate()
                .map(|(slot, &id)| (id, slot as u32))
                .collect(),
        );
        self.databases.insert(db_id, deployed);
        self.next_db_id += 1;
        if self.durability.is_some() {
            self.save()?;
        }
        Ok(db_id)
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
            candidate_budget: config.rerank_candidates(k),
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
        let mut engine = InStorageEngine::new(&mut self.controller, &mut self.scratch);
        let documents = engine.fetch_documents(db, results)?;
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
