//! The REIS system: the host-facing API of Table 1 on top of the in-storage
//! engine.
//!
//! [`ReisSystem`] owns the simulated SSD, deploys vector databases into it
//! (`DB_Deploy` / `IVF_Deploy`) and serves `Search` / `IVF_Search` requests,
//! returning both the retrieved documents and the modelled latency and
//! energy of each query. Single and batched searches alike run through the
//! one scan core ([`crate::scan`]): a batch senses each distinct page once
//! for all its queries, and a single search is a batch of one.

use std::collections::HashMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use reis_ann::topk::Neighbor;
use reis_nand::{FlashStats, Nanos};
use reis_persist::{wal, WalRecord};
use reis_sched::WorkerPool;
use reis_ssd::SsdController;
use reis_telemetry::{CounterId, GaugeId, HistogramId, Telemetry};

use crate::config::ReisConfig;
use crate::database::VectorDatabase;
use crate::deploy::{self, DeployedDatabase};
use crate::durable::Durability;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::error::{ReisError, Result};
use crate::mutate::{self, CompactionOutcome, MutationOutcome};
use crate::perf::{LatencyBreakdown, PerfModel, QueryActivity};
use crate::scan::{self, Executed, Finish, Request, ScanCtx, ScanScratch};

/// Result of one REIS search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The top-k results as `(original entry id, INT8 rerank distance)` in
    /// ascending distance order.
    pub results: Vec<Neighbor>,
    /// The retrieved document chunks, aligned with `results`.
    pub documents: Vec<Vec<u8>>,
    /// Per-phase latency of the query.
    pub latency: LatencyBreakdown,
    /// Activity counters (pages scanned, entries transferred, …).
    pub activity: QueryActivity,
    /// Energy breakdown of the query.
    pub energy: EnergyBreakdown,
    /// Flash operation counters attributable to the query.
    pub flash_stats: FlashStats,
}

impl SearchOutcome {
    /// End-to-end latency of the query.
    pub fn total_latency(&self) -> Nanos {
        self.latency.total()
    }

    /// The original entry ids of the results, in rank order.
    pub fn result_ids(&self) -> Vec<usize> {
        self.results.iter().map(|n| n.id).collect()
    }
}

/// The REIS retrieval system.
#[derive(Debug)]
pub struct ReisSystem {
    pub(crate) config: ReisConfig,
    pub(crate) controller: SsdController,
    pub(crate) perf: PerfModel,
    pub(crate) energy: EnergyModel,
    pub(crate) databases: HashMap<u32, DeployedDatabase>,
    pub(crate) next_db_id: u32,
    /// Downstream-phase scratch reused by every query this system serves.
    pub(crate) scratch: ScanScratch,
    /// The host's available parallelism, captured once: the shard budget
    /// [`ScanParallelism::auto`] resolves to (a batch's `workers` caps it).
    ///
    /// [`ScanParallelism::auto`]: crate::config::ScanParallelism::auto
    pub(crate) auto_shards: usize,
    /// The durable store this system checkpoints snapshots to and logs
    /// mutations into — `None` for a purely in-memory system (the
    /// [`ReisSystem::new`] default) and during WAL replay, which is how
    /// replayed mutations avoid re-logging themselves. Attached by
    /// [`ReisSystem::open`] / [`ReisSystem::recover`] (see `crate::durable`).
    pub(crate) durability: Option<Durability>,
    /// The telemetry handle every layer of this system records into.
    /// Disabled by default (every recording call is a single branch);
    /// enabled by `REIS_TELEMETRY=1` at construction or by
    /// [`ReisSystem::enable_telemetry`]. Recording only reads values the
    /// engine already computed, at merge/barrier/post-query points, so
    /// results and all logical accounting are bit-identical with telemetry
    /// on and off (the CI determinism gate enforces this).
    pub(crate) telemetry: Telemetry,
    /// The persistent worker pool every scan shard executes on. Created
    /// once here; no query or mutation path spawns threads afterwards.
    /// Sized by `REIS_SCHED_WORKERS`, else by `auto_shards`.
    pub(crate) sched: WorkerPool,
}

impl ReisSystem {
    /// Create a REIS system on a freshly initialised SSD.
    ///
    /// The host's parallelism ([`reis_sched::host_parallelism`]) is
    /// captured once and used as the shard budget of auto-sharded scans.
    /// Results never depend on it (the windowed adaptive schedule and the
    /// total-order candidate selection are partition-invariant); the
    /// `REIS_TEST_PARALLELISM` environment variable overrides the captured
    /// value so CI can *prove* that by diffing runs pinned to different
    /// budgets on the same machine.
    pub fn new(config: ReisConfig) -> Self {
        let controller = SsdController::new(config.ssd);
        let auto_shards = reis_sched::host_parallelism();
        let sched = WorkerPool::from_env(auto_shards);
        ReisSystem {
            config,
            controller,
            perf: PerfModel::new(config),
            energy: EnergyModel::default(),
            databases: HashMap::new(),
            next_db_id: 1,
            scratch: ScanScratch::default(),
            auto_shards,
            durability: None,
            telemetry: Telemetry::from_env(),
            sched,
        }
    }

    /// The persistent worker pool this system executes scan shards on.
    /// Exposed so tests and benches can
    /// observe its size (set via `REIS_SCHED_WORKERS`, defaulting to the
    /// captured host parallelism) or drive it directly.
    pub fn scheduler(&self) -> &WorkerPool {
        &self.sched
    }

    /// The telemetry handle of this system (disabled unless
    /// `REIS_TELEMETRY=1` was set at construction or
    /// [`ReisSystem::enable_telemetry`] was called). Use it to read
    /// counters/histograms, pull query traces, arm explain mode, or render
    /// a Prometheus/JSON export.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enable telemetry on this system with a fresh registry (no-op if
    /// already enabled). Enabling is provably non-perturbing: results,
    /// transferred-entry counts and all modelled accounting stay
    /// bit-identical to a telemetry-off run.
    pub fn enable_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::enabled();
        }
    }

    /// The configuration of this instance.
    pub fn config(&self) -> &ReisConfig {
        &self.config
    }

    /// Access to the underlying SSD controller (primarily for inspection in
    /// tests and benchmarks).
    pub fn controller(&self) -> &SsdController {
        &self.controller
    }

    /// The deployed database with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`ReisError::DatabaseNotDeployed`] for an unknown id.
    pub fn database(&self, db_id: u32) -> Result<&DeployedDatabase> {
        self.databases
            .get(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))
    }

    /// Deploy a database (`DB_Deploy` for flat databases, `IVF_Deploy` when
    /// the database carries cluster information) and return its id.
    ///
    /// On a durably-opened system (see [`ReisSystem::open`]) a deployment
    /// immediately checkpoints a new snapshot: deployments are carried by
    /// snapshots, mutations by the WAL, so a database is crash-durable from
    /// the moment this method returns.
    ///
    /// # Errors
    ///
    /// Propagates layout and capacity errors from the deployment path.
    pub fn deploy(&mut self, database: &VectorDatabase) -> Result<u32> {
        let deployed = deploy::deploy(&mut self.controller, database, self.next_db_id)?;
        self.install(deployed)
    }

    /// Take a freshly deployed database into service under its id: the one
    /// tail of [`ReisSystem::deploy`], [`ReisSystem::deploy_with_ids`] and
    /// snapshot recovery. Deployments are carried by snapshots, so a
    /// durably-opened system checkpoints; the deployment gauge is published
    /// either way.
    pub(crate) fn install(&mut self, deployed: DeployedDatabase) -> Result<u32> {
        let db_id = deployed.db_id;
        self.databases.insert(db_id, deployed);
        self.next_db_id = self.next_db_id.max(db_id + 1);
        if self.durability.is_some() {
            self.save()?;
        }
        self.telemetry
            .gauge_set(GaugeId::DatabasesDeployed, self.databases.len() as u64);
        Ok(db_id)
    }

    /// Map a target Recall@10 to an `nprobe` setting for a database with
    /// `nlist` clusters (the `R` parameter of `IVF_Search`). The mapping is
    /// the monotone heuristic the device uses when the host does not specify
    /// `nprobe` directly: ~2 % of the clusters at recall 0.90 rising to
    /// ~10 % at recall 0.98. It is unsourced: no section of the paper is
    /// cited for these numbers, so every figure row that picks its `nprobe`
    /// here rests on this choice too.
    pub fn nprobe_for_recall(nlist: usize, target_recall: f64) -> usize {
        let recall = target_recall.clamp(0.0, 1.0);
        let fraction = 0.02 + (recall - 0.90).max(0.0) * 1.0;
        ((nlist as f64 * fraction).ceil() as usize).clamp(1, nlist.max(1))
    }

    /// `Search(Q, Qid, Did, k)`: brute-force top-k search over the whole
    /// database.
    ///
    /// # Errors
    ///
    /// * [`ReisError::DatabaseNotDeployed`] for an unknown id.
    /// * [`ReisError::QueryDimensionMismatch`] for a query of the wrong
    ///   dimensionality.
    /// * [`ReisError::InvalidQuery`] for `k = 0` or a query holding a NaN or
    ///   infinite component.
    ///
    /// # Examples
    ///
    /// ```
    /// use reis_core::{ReisConfig, ReisSystem, VectorDatabase};
    ///
    /// # fn main() -> Result<(), reis_core::ReisError> {
    /// let vectors: Vec<Vec<f32>> = (0..64)
    ///     .map(|i| (0..32).map(|d| ((i * 7 + d) % 13) as f32 - 6.0).collect())
    ///     .collect();
    /// let documents: Vec<Vec<u8>> = (0..64).map(|i| format!("doc {i}").into_bytes()).collect();
    ///
    /// let mut reis = ReisSystem::new(ReisConfig::tiny());
    /// let db = reis.deploy(&VectorDatabase::flat(&vectors, documents)?)?;
    /// let outcome = reis.search(db, &vectors[5], 5)?;
    ///
    /// // An indexed vector is its own nearest neighbor, and the linked
    /// // document chunk comes back with the hit.
    /// assert_eq!(outcome.results[0].id, 5);
    /// assert_eq!(outcome.documents[0], b"doc 5");
    /// assert!(outcome.total_latency().as_secs_f64() > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn search(&mut self, db_id: u32, query: &[f32], k: usize) -> Result<SearchOutcome> {
        self.run_single(db_id, query, k, None)
    }

    /// `IVF_Search(Q, Qid, Did, k, R)`: IVF top-k search with a target
    /// recall, which the device maps to an `nprobe` value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::search`], plus
    /// [`ReisError::UnsupportedSearch`] if the database was deployed without
    /// cluster structure and [`ReisError::InvalidQuery`] for a NaN or
    /// infinite `target_recall`.
    pub fn ivf_search(
        &mut self,
        db_id: u32,
        query: &[f32],
        k: usize,
        target_recall: f64,
    ) -> Result<SearchOutcome> {
        // `nprobe_for_recall` would map NaN to the smallest probe count.
        if !target_recall.is_finite() {
            return Err(ReisError::InvalidQuery(format!(
                "target recall must be finite, got {target_recall}"
            )));
        }
        let nlist = self.database(db_id)?.rivf.len();
        let nprobe = Self::nprobe_for_recall(nlist, target_recall);
        self.run_single(db_id, query, k, Some(nprobe))
    }

    /// IVF top-k search with an explicit `nprobe` (used by benchmarks that
    /// calibrate `nprobe` against measured recall).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::ivf_search`], plus
    /// [`ReisError::InvalidQuery`] for `nprobe = 0`.
    pub fn ivf_search_with_nprobe(
        &mut self,
        db_id: u32,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<SearchOutcome> {
        self.run_single(db_id, query, k, Some(nprobe))
    }

    /// Check a search request against a deployed database without running
    /// it: exactly the validation every search entry point applies before
    /// any device work (pass `nprobe: None` for a brute-force search). The
    /// request pipelines call this at submission, so a malformed request is
    /// refused to its own submitter instead of failing the batch it would
    /// have ridden in.
    ///
    /// # Errors
    ///
    /// The error the search itself would raise:
    /// [`ReisError::DatabaseNotDeployed`], [`ReisError::UnsupportedSearch`],
    /// [`ReisError::QueryDimensionMismatch`] or [`ReisError::InvalidQuery`].
    pub fn validate_search(
        &self,
        db_id: u32,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> Result<()> {
        scan::validate(self.database(db_id)?, &[query], k, nprobe)
    }

    /// Insert one entry into a deployed database and return its assigned
    /// stable id (plus the mutation's cost breakdown).
    ///
    /// The embedding is quantized with the deployment's frozen quantizers,
    /// assigned to its nearest IVF centroid (cluster 0 for flat
    /// deployments) and appended — together with its INT8 copy and document
    /// chunk — to that cluster's append segment on freshly programmed
    /// pages. The entry is searchable immediately; no rebuild or redeploy
    /// happens. May trigger an automatic compaction afterwards, per the
    /// configured [`CompactionPolicy`](reis_update::CompactionPolicy).
    ///
    /// # Errors
    ///
    /// * [`ReisError::DatabaseNotDeployed`] for an unknown id.
    /// * [`ReisError::QueryDimensionMismatch`] for a vector of the wrong
    ///   dimensionality.
    /// * [`ReisError::Ann`] wrapping
    ///   [`AnnError::NonFinite`](reis_ann::AnnError::NonFinite) for a vector
    ///   holding a NaN or an infinite component (its batch index is the
    ///   `row`); nothing is appended or logged.
    /// * [`ReisError::MalformedDatabase`] for a document chunk that does
    ///   not fit the deployment's document slots.
    ///
    /// # Examples
    ///
    /// ```
    /// use reis_core::{ReisConfig, ReisSystem, VectorDatabase};
    ///
    /// # fn main() -> Result<(), reis_core::ReisError> {
    /// let vectors: Vec<Vec<f32>> = (0..32)
    ///     .map(|i| (0..16).map(|d| ((i * 5 + d) % 11) as f32 - 5.0).collect())
    ///     .collect();
    /// let documents: Vec<Vec<u8>> = (0..32).map(|i| format!("doc {i}").into_bytes()).collect();
    /// let mut reis = ReisSystem::new(ReisConfig::tiny());
    /// let db = reis.deploy(&VectorDatabase::flat(&vectors, documents)?)?;
    ///
    /// let fresh: Vec<f32> = (0..16).map(|d| (d % 3) as f32).collect();
    /// let outcome = reis.insert(db, &fresh, b"fresh doc".to_vec())?;
    /// let id = outcome.ids[0];
    ///
    /// // The inserted entry is immediately searchable and returns its chunk.
    /// let hit = reis.search(db, &fresh, 1)?;
    /// assert_eq!(hit.results[0].id, id as usize);
    /// assert_eq!(hit.documents[0], b"fresh doc");
    ///
    /// // And it can be deleted again.
    /// reis.delete(db, id)?;
    /// let miss = reis.search(db, &fresh, 1)?;
    /// assert_ne!(miss.results[0].id, id as usize);
    /// # Ok(())
    /// # }
    /// ```
    pub fn insert(
        &mut self,
        db_id: u32,
        vector: &[f32],
        document: Vec<u8>,
    ) -> Result<MutationOutcome> {
        self.insert_logged(db_id, None, &[vector], &[document])
    }

    /// Insert a batch of entries (see [`ReisSystem::insert`]); ids are
    /// returned in batch order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::insert`].
    pub fn insert_batch(
        &mut self,
        db_id: u32,
        vectors: &[Vec<f32>],
        documents: Vec<Vec<u8>>,
    ) -> Result<MutationOutcome> {
        self.insert_logged(db_id, None, vectors, &documents)
    }

    /// Both public insert entry points: apply the batch, WAL-log it under
    /// the record kind of the entry point (`InsertBatchAt` when the caller
    /// chose the ids, `InsertBatch` when the device minted them) and record
    /// its telemetry.
    pub(crate) fn insert_logged(
        &mut self,
        db_id: u32,
        ids: Option<&[u32]>,
        vectors: &[impl AsRef<[f32]>],
        documents: &[Vec<u8>],
    ) -> Result<MutationOutcome> {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let outcome = self.insert_batch_inner(db_id, ids, vectors, documents)?;
        if let Some(durability) = self.durability.as_mut() {
            durability.append(|frame| {
                wal::frame_insert_batch(
                    frame,
                    ids.is_some(),
                    db_id,
                    vectors,
                    documents,
                    &outcome.ids,
                )
            })?;
        }
        self.record_mutation(
            CounterId::Inserts,
            outcome.ids.len() as u64,
            started,
            &outcome,
            db_id,
        );
        Ok(outcome)
    }

    /// The body of every insert, minus WAL logging (WAL replay re-applies
    /// records through this path): under the caller-chosen `ids`, or under
    /// freshly minted ones for `None`.
    pub(crate) fn insert_batch_inner(
        &mut self,
        db_id: u32,
        ids: Option<&[u32]>,
        vectors: &[impl AsRef<[f32]>],
        documents: &[Vec<u8>],
    ) -> Result<MutationOutcome> {
        let db = self
            .databases
            .get_mut(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        let (centroid_pages, centroids) = if db.is_ivf() {
            (db.layout.centroid_pages, db.layout.centroids)
        } else {
            (0, 0)
        };
        let (ids, latency, pages_programmed) = match ids {
            Some(ids) => {
                let (latency, pages) =
                    mutate::insert_batch_at(&mut self.controller, db, ids, vectors, documents)?;
                (ids.to_vec(), latency, pages)
            }
            None => mutate::insert_batch(&mut self.controller, db, vectors, documents)?,
        };
        // The mutation path prices the flash work (page programs, centroid
        // senses); the controller-core and DRAM costs of the append are
        // modelled here.
        let overhead = self
            .perf
            .append_overhead(ids.len(), centroid_pages, centroids);
        let compaction = self.maybe_auto_compact(db_id)?;
        Ok(MutationOutcome {
            ids,
            latency: latency + overhead,
            pages_programmed,
            compaction,
        })
    }

    /// Delete the entry with stable id `id` (a tombstone: the flash pages
    /// are reclaimed by the next compaction).
    ///
    /// # Errors
    ///
    /// * [`ReisError::DatabaseNotDeployed`] for an unknown database.
    /// * [`ReisError::EntryNotFound`] if the id never existed or was
    ///   already deleted.
    pub fn delete(&mut self, db_id: u32, id: u32) -> Result<MutationOutcome> {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let outcome = self.delete_inner(db_id, id)?;
        self.log_wal(WalRecord::Delete { db_id, id })?;
        self.record_mutation(CounterId::Deletes, 1, started, &outcome, db_id);
        Ok(outcome)
    }

    /// The body of [`ReisSystem::delete`], minus WAL logging.
    pub(crate) fn delete_inner(&mut self, db_id: u32, id: u32) -> Result<MutationOutcome> {
        let db = self
            .databases
            .get_mut(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        mutate::delete_entry(&mut self.controller, db, id)?;
        let compaction = self.maybe_auto_compact(db_id)?;
        Ok(MutationOutcome {
            ids: vec![id],
            // A tombstone touches no flash; its modelled cost is the id-map
            // lookup plus the DRAM validity-bit write.
            latency: self.perf.tombstone_overhead(),
            pages_programmed: 0,
            compaction,
        })
    }

    /// Replace the entry with stable id `id` by a new embedding/document
    /// pair under the same id (delete + append in one call; a deleted id is
    /// revived). The id must have been assigned by the deployment or an
    /// earlier insert.
    ///
    /// # Errors
    ///
    /// Union of the conditions of [`ReisSystem::insert`] and
    /// [`ReisSystem::delete`].
    pub fn upsert(
        &mut self,
        db_id: u32,
        id: u32,
        vector: &[f32],
        document: &[u8],
    ) -> Result<MutationOutcome> {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let outcome = self.upsert_inner(db_id, id, vector, document)?;
        if let Some(durability) = self.durability.as_mut() {
            durability.append(|frame| wal::frame_upsert(frame, db_id, id, vector, document))?;
        }
        self.record_mutation(CounterId::Upserts, 1, started, &outcome, db_id);
        Ok(outcome)
    }

    /// The body of [`ReisSystem::upsert`], minus WAL logging.
    pub(crate) fn upsert_inner(
        &mut self,
        db_id: u32,
        id: u32,
        vector: &[f32],
        document: &[u8],
    ) -> Result<MutationOutcome> {
        let db = self
            .databases
            .get_mut(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        let (centroid_pages, centroids) = if db.is_ivf() {
            (db.layout.centroid_pages, db.layout.centroids)
        } else {
            (0, 0)
        };
        let (latency, pages_programmed, tombstoned) =
            mutate::upsert_entry(&mut self.controller, db, id, vector, document)?;
        // A revival of a deleted id writes no tombstone, so it costs none.
        let mut overhead = self.perf.append_overhead(1, centroid_pages, centroids);
        if tombstoned {
            overhead += self.perf.tombstone_overhead();
        }
        let compaction = self.maybe_auto_compact(db_id)?;
        Ok(MutationOutcome {
            ids: vec![id],
            latency: latency + overhead,
            pages_programmed,
            compaction,
        })
    }

    /// Compact a database now: fold its append segments and tombstones into
    /// a densely packed base region, swap the R-DB record and erase every
    /// block the rewrite freed completely. Search results are unchanged by
    /// compaction; only the scan cost shrinks back to the dense layout's.
    ///
    /// # Errors
    ///
    /// * [`ReisError::DatabaseNotDeployed`] for an unknown database.
    /// * Flash/allocator errors if the device cannot hold the old and new
    ///   generation simultaneously during the rewrite.
    pub fn compact(&mut self, db_id: u32) -> Result<CompactionOutcome> {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let outcome = self.compact_inner(db_id)?;
        self.log_wal(WalRecord::Compact { db_id })?;
        if self.telemetry.is_enabled() {
            self.record_compaction(&outcome, started.map(|t0| t0.elapsed().as_nanos() as u64));
            self.publish_gauges(db_id);
        }
        Ok(outcome)
    }

    /// The body of [`ReisSystem::compact`], minus WAL logging. Also the
    /// compaction the auto-compaction policy triggers: a policy-driven
    /// compaction is *derived* state, re-derived identically during WAL
    /// replay, so only explicitly requested compactions are logged.
    pub(crate) fn compact_inner(&mut self, db_id: u32) -> Result<CompactionOutcome> {
        let db = self
            .databases
            .get_mut(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        mutate::compact(&mut self.controller, db)
    }

    /// Append one mutation record to the open WAL epoch, if a durable store
    /// is attached (no-op otherwise — including during WAL replay, which
    /// runs before the store is re-attached). An I/O failure here surfaces
    /// as an error *after* the in-memory mutation applied; the next
    /// successful [`ReisSystem::save`] re-establishes durability.
    pub(crate) fn log_wal(&mut self, record: WalRecord) -> Result<()> {
        if let Some(durability) = self.durability.as_mut() {
            durability.append(|frame| record.encode_framed_into(frame))?;
        }
        Ok(())
    }

    /// Run the configured [`CompactionPolicy`](reis_update::CompactionPolicy)
    /// against a database's current shape, compacting if it says so.
    pub(crate) fn maybe_auto_compact(&mut self, db_id: u32) -> Result<Option<CompactionOutcome>> {
        let db = self
            .databases
            .get(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        let store = &db.updates.store;
        let dead = db.updates.tombstones.dead_count() + (store.len() - store.live_count());
        let should = self.config.compaction.should_compact(
            db.entries(),
            store.len(),
            dead,
            db.live_entries(),
            db.updates.stats.mutations(),
        );
        if should {
            Ok(Some(self.compact_inner(db_id)?))
        } else {
            Ok(None)
        }
    }

    /// Record one completed mutation: its counter, wall-clock and modelled
    /// latencies, any compaction it triggered, and the refreshed update
    /// gauges. No-op when telemetry is disabled.
    fn record_mutation(
        &self,
        counter: CounterId,
        entries: u64,
        started: Option<Instant>,
        outcome: &MutationOutcome,
        db_id: u32,
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.count(counter, entries);
        if let Some(t0) = started {
            self.telemetry
                .observe(HistogramId::MutationWallNs, t0.elapsed().as_nanos() as u64);
        }
        self.telemetry
            .observe(HistogramId::MutationModelledNs, outcome.latency.as_nanos());
        if let Some(compaction) = &outcome.compaction {
            // Auto-triggered: the wall clock is folded into the mutation's.
            self.record_compaction(compaction, None);
        }
        self.publish_gauges(db_id);
    }

    /// Record one compaction pass (explicit or policy-triggered).
    fn record_compaction(&self, outcome: &CompactionOutcome, wall_ns: Option<u64>) {
        self.telemetry.count(CounterId::Compactions, 1);
        self.telemetry.count(
            CounterId::CompactionPagesRewritten,
            outcome.pages_rewritten as u64,
        );
        self.telemetry.count(
            CounterId::CompactionBlocksReclaimed,
            outcome.blocks_reclaimed as u64,
        );
        if let Some(ns) = wall_ns {
            self.telemetry.observe(HistogramId::CompactionWallNs, ns);
        }
    }

    /// Refresh the update-state gauges (segment entries, tombstones) of a
    /// database plus the deployment gauge.
    fn publish_gauges(&self, db_id: u32) {
        if let Some(db) = self.databases.get(&db_id) {
            db.updates.publish_telemetry(&self.telemetry);
        }
        self.telemetry
            .gauge_set(GaugeId::DatabasesDeployed, self.databases.len() as u64);
    }

    /// Hand a request to the scan core on this system's device.
    /// `shard_budget` is what [`ScanParallelism::auto`] resolves to for it.
    ///
    /// [`ScanParallelism::auto`]: crate::config::ScanParallelism::auto
    pub(crate) fn execute(
        &mut self,
        db_id: u32,
        config: ReisConfig,
        shard_budget: usize,
        request: &Request<'_>,
    ) -> Result<Vec<Executed>> {
        let db = self
            .databases
            .get(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        scan::execute(
            ScanCtx {
                config,
                controller: &mut self.controller,
                perf: &self.perf,
                energy: &self.energy,
                scratch: &mut self.scratch,
                pool: &self.sched,
                db,
                telemetry: &self.telemetry,
                shard_budget,
            },
            request,
        )
    }

    /// The shard budget of a call given `workers`: at least one, at most
    /// the host's parallelism.
    pub(crate) fn shard_budget(&self, workers: usize) -> usize {
        workers.clamp(1, self.auto_shards.max(1))
    }

    /// A single query is a batch of one, sharded up to the host budget.
    fn run_single(
        &mut self,
        db_id: u32,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> Result<SearchOutcome> {
        let request = Request {
            queries: &[query],
            k,
            nprobe,
            finish: Finish::Documents,
            kind: "search",
        };
        let mut executed = self.execute(db_id, self.config, self.auto_shards, &request)?;
        Ok(executed.pop().expect("one outcome per query").outcome)
    }

    /// `Search` over a whole batch of independent queries.
    ///
    /// The batch executes page-major on the shared device: the union of the
    /// batch's probed pages is computed up front, each distinct page is
    /// sensed once, and the fused multi-query kernel scores it against every
    /// query whose selection covers it — the same sense-amortization REIS
    /// applies to in-flight query batches. The scan additionally shards
    /// across up to `workers` (capped at the host's parallelism) scan
    /// shards — adaptive scans included, chunked at their
    /// window barriers — unless the configured [`ScanParallelism`] names a
    /// shard count of its own. Per-query results, documents, activity and
    /// modelled latency/energy are bit-identical to running
    /// [`ReisSystem::search`] per query; only the device-level sense count
    /// (and the wall clock) shrinks. Only the raw error-injection statistics
    /// may differ from the one-by-one run, since TLC rerank reads draw from
    /// different points of the error stream.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::search`]; a malformed query fails the
    /// whole batch before any device work.
    ///
    /// [`ScanParallelism`]: crate::config::ScanParallelism
    pub fn search_batch(
        &mut self,
        db_id: u32,
        queries: &[Vec<f32>],
        k: usize,
        workers: usize,
    ) -> Result<Vec<SearchOutcome>> {
        self.run_batch(db_id, queries, k, None, workers)
    }

    /// IVF batch search with an explicit `nprobe` (see
    /// [`ReisSystem::search_batch`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::ivf_search_with_nprobe`].
    pub fn ivf_search_batch_with_nprobe(
        &mut self,
        db_id: u32,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: usize,
        workers: usize,
    ) -> Result<Vec<SearchOutcome>> {
        self.run_batch(db_id, queries, k, Some(nprobe), workers)
    }

    pub(crate) fn run_batch(
        &mut self,
        db_id: u32,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: Option<usize>,
        workers: usize,
    ) -> Result<Vec<SearchOutcome>> {
        let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let request = Request {
            queries: &queries,
            k,
            nprobe,
            finish: Finish::Documents,
            kind: "fused_batch",
        };
        let executed = self.execute(db_id, self.config, self.shard_budget(workers), &request)?;
        if !executed.is_empty() {
            self.telemetry.count(CounterId::Batches, 1);
            self.telemetry.count(CounterId::FusedBatches, 1);
        }
        Ok(executed.into_iter().map(|e| e.outcome).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use reis_ann::flat::FlatIndex;
    use reis_ann::metrics::recall_at_k;
    use reis_ann::Metric;

    fn clustered_vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        // Eight well-separated pseudo-random clusters.
        (0..n)
            .map(|i| {
                let cluster = i % 8;
                (0..dim)
                    .map(|d| {
                        let center = (((cluster * 37 + d * 11) % 19) as f32 - 9.0) / 2.0;
                        let jitter = (((i * 13 + d * 7) % 11) as f32 - 5.0) / 25.0;
                        center + jitter
                    })
                    .collect()
            })
            .collect()
    }

    fn documents(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("document {i}").into_bytes())
            .collect()
    }

    fn deploy_flat(system: &mut ReisSystem, n: usize, dim: usize) -> (u32, Vec<Vec<f32>>) {
        let vectors = clustered_vectors(n, dim);
        let db = VectorDatabase::flat(&vectors, documents(n)).unwrap();
        let id = system.deploy(&db).unwrap();
        (id, vectors)
    }

    fn deploy_ivf(
        system: &mut ReisSystem,
        n: usize,
        dim: usize,
        nlist: usize,
    ) -> (u32, Vec<Vec<f32>>) {
        let vectors = clustered_vectors(n, dim);
        let db = VectorDatabase::ivf(&vectors, documents(n), nlist).unwrap();
        let id = system.deploy(&db).unwrap();
        (id, vectors)
    }

    #[test]
    fn brute_force_search_returns_the_query_itself_and_its_document() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_flat(&mut system, 96, 64);
        let outcome = system.search(id, &vectors[17], 5).unwrap();
        assert_eq!(outcome.results.len(), 5);
        assert_eq!(
            outcome.results[0].id, 17,
            "an indexed vector is its own nearest neighbor"
        );
        assert_eq!(outcome.documents[0], b"document 17");
        assert!(outcome.total_latency() > Nanos::ZERO);
        assert!(outcome.energy.total_j() > 0.0);
        assert!(outcome.flash_stats.page_reads > 0);
        assert_eq!(outcome.activity.coarse_pages, 0);
        // A brute-force search scans every embedding page of the database.
        let expected_pages = system.database(id).unwrap().layout.embedding_pages;
        assert_eq!(outcome.activity.fine_pages, expected_pages);
    }

    #[test]
    fn ivf_search_matches_brute_force_recall_on_clustered_data() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_ivf(&mut system, 160, 64, 8);
        let flat = FlatIndex::new(vectors.clone(), Metric::SquaredL2).unwrap();
        let mut recall = 0.0;
        let queries = 8usize;
        for q in 0..queries {
            let query = &vectors[q * 19];
            let truth: Vec<usize> = flat
                .search(query, 10)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let outcome = system.ivf_search_with_nprobe(id, query, 10, 8).unwrap();
            recall += recall_at_k(&outcome.result_ids(), &truth, 10);
        }
        recall /= queries as f64;
        assert!(recall > 0.8, "in-storage IVF recall@10 = {recall}");
    }

    #[test]
    fn probing_fewer_clusters_scans_fewer_pages() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_ivf(&mut system, 200, 64, 10);
        let query = &vectors[3];
        let narrow = system.ivf_search_with_nprobe(id, query, 10, 1).unwrap();
        let wide = system.ivf_search_with_nprobe(id, query, 10, 10).unwrap();
        assert!(narrow.activity.fine_pages < wide.activity.fine_pages);
        assert!(narrow.total_latency() < wide.total_latency());
        assert!(narrow.activity.coarse_pages > 0);
    }

    #[test]
    fn distance_filtering_reduces_transferred_entries_without_losing_the_top_hit() {
        let config_df = ReisConfig::tiny();
        let config_nodf = ReisConfig::tiny().with_optimizations(Optimizations::none());
        let mut with_df = ReisSystem::new(config_df);
        let mut without_df = ReisSystem::new(config_nodf);
        let vectors = clustered_vectors(120, 64);
        let db = VectorDatabase::flat(&vectors, documents(120)).unwrap();
        let id_a = with_df.deploy(&db).unwrap();
        let id_b = without_df.deploy(&db).unwrap();
        let query = &vectors[33];
        let a = with_df.search(id_a, query, 5).unwrap();
        let b = without_df.search(id_b, query, 5).unwrap();
        assert!(a.activity.fine_entries < b.activity.fine_entries);
        assert_eq!(a.results[0].id, 33);
        assert_eq!(b.results[0].id, 33);
    }

    #[test]
    fn searches_validate_inputs() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_flat(&mut system, 32, 64);
        assert!(matches!(
            system.search(99, &vectors[0], 5),
            Err(ReisError::DatabaseNotDeployed(99))
        ));
        assert!(matches!(
            system.search(id, &vectors[0][..10], 5),
            Err(ReisError::QueryDimensionMismatch { .. })
        ));
        assert!(matches!(
            system.ivf_search(id, &vectors[0], 5, 0.94),
            Err(ReisError::UnsupportedSearch(_))
        ));
    }

    #[test]
    fn search_batch_matches_sequential_search_for_any_worker_count() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_flat(&mut system, 96, 64);
        let queries: Vec<Vec<f32>> = (0..7).map(|q| vectors[q * 11].clone()).collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| system.search(id, q, 5).unwrap())
            .collect();
        for workers in [1usize, 2, 3, 8] {
            let batch = system.search_batch(id, &queries, 5, workers).unwrap();
            assert_eq!(batch.len(), sequential.len());
            for (b, s) in batch.iter().zip(&sequential) {
                assert_eq!(b.result_ids(), s.result_ids(), "workers {workers}");
                assert_eq!(b.documents, s.documents, "workers {workers}");
                assert_eq!(b.latency, s.latency, "workers {workers}");
                assert_eq!(b.activity, s.activity, "workers {workers}");
            }
        }
    }

    #[test]
    fn fused_batch_amortizes_senses_but_reports_per_query_activity() {
        // Per-query outcomes are those of one-by-one searches, but the device
        // senses the shared pages once for the whole batch, so the merged
        // delta is strictly below the per-query sum.
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_ivf(&mut system, 160, 64, 8);
        let queries: Vec<Vec<f32>> = (0..6).map(|q| vectors[q * 19].clone()).collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| system.ivf_search_with_nprobe(id, q, 10, 4).unwrap())
            .collect();
        let before = *system.controller().device().stats();
        let batch = system
            .ivf_search_batch_with_nprobe(id, &queries, 10, 4, 3)
            .unwrap();
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.result_ids(), s.result_ids());
            assert_eq!(b.documents, s.documents);
            assert_eq!(b.latency, s.latency);
            assert_eq!(b.activity, s.activity);
        }
        let delta = system.controller().device().stats().delta_since(&before);
        let per_query: u64 = batch.iter().map(|o| o.flash_stats.page_reads).sum();
        assert!(
            delta.page_reads < per_query,
            "fused batch sensed {} pages, per-query accounting says {}",
            delta.page_reads,
            per_query
        );
        // The in-plane compute is not amortized: one XOR per (page, query).
        let per_query_xor: u64 = batch.iter().map(|o| o.flash_stats.xor_ops).sum();
        assert_eq!(delta.xor_ops, per_query_xor);
        assert!(delta.page_reads > 0);
    }

    #[test]
    fn batch_searches_validate_inputs() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_flat(&mut system, 32, 64);
        assert!(matches!(
            system.search_batch(99, &[vectors[0].clone()], 5, 2),
            Err(ReisError::DatabaseNotDeployed(99))
        ));
        assert!(matches!(
            system.search_batch(id, &[vectors[0][..10].to_vec()], 5, 2),
            Err(ReisError::QueryDimensionMismatch { .. })
        ));
        assert!(matches!(
            system.ivf_search_batch_with_nprobe(id, &[vectors[0].clone()], 5, 2, 2),
            Err(ReisError::UnsupportedSearch(_))
        ));
        assert!(system.search_batch(id, &[], 5, 4).unwrap().is_empty());
    }

    #[test]
    fn sharded_scan_is_bit_identical_to_sequential() {
        let vectors = clustered_vectors(160, 64);
        let db = VectorDatabase::ivf(&vectors, documents(160), 8).unwrap();
        for shards in [2usize, 3, 4, 8] {
            // Fresh systems per shard count so both devices see the same
            // query history; everything including the raw error-injection
            // stream must then agree. This test pins static thresholds; the
            // adaptive (windowed) counterpart lives in
            // `crates/core/tests/adaptive.rs`.
            let mut sequential = ReisSystem::new(ReisConfig::tiny().with_adaptive_filtering(false));
            let seq_id = sequential.deploy(&db).unwrap();
            let config = ReisConfig::tiny()
                .with_adaptive_filtering(false)
                .with_scan_parallelism(
                    crate::config::ScanParallelism::sharded(shards).with_min_pages_per_shard(1),
                );
            let mut system = ReisSystem::new(config);
            let id = system.deploy(&db).unwrap();
            for q in [0usize, 19, 57] {
                let query = &vectors[q];
                let a = sequential.search(seq_id, query, 10).unwrap();
                let b = system.search(id, query, 10).unwrap();
                assert_eq!(a, b, "brute force, {shards} shards, query {q}");
                let a = sequential
                    .ivf_search_with_nprobe(seq_id, query, 10, 4)
                    .unwrap();
                let b = system.ivf_search_with_nprobe(id, query, 10, 4).unwrap();
                assert_eq!(a, b, "ivf, {shards} shards, query {q}");
            }
        }
    }

    #[test]
    fn batch_workers_compose_with_intra_query_shards() {
        // An explicit shard count in the configuration wins over the batch's
        // `workers` cap; either way the batch answers like its queries do
        // one by one.
        let config = ReisConfig::tiny()
            .with_adaptive_filtering(false)
            .with_scan_parallelism(
                crate::config::ScanParallelism::sharded(2).with_min_pages_per_shard(1),
            );
        let mut system = ReisSystem::new(config);
        let (id, vectors) = deploy_flat(&mut system, 96, 64);
        let queries: Vec<Vec<f32>> = (0..5).map(|q| vectors[q * 13].clone()).collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| system.search(id, q, 5).unwrap())
            .collect();
        let batch = system.search_batch(id, &queries, 5, 3).unwrap();
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.result_ids(), s.result_ids());
            assert_eq!(b.documents, s.documents);
            assert_eq!(b.latency, s.latency);
            assert_eq!(b.activity, s.activity);
        }
    }

    #[test]
    fn auto_sharded_default_search_matches_forced_sequential() {
        // The constructor default is ScanParallelism::auto(), which shards a
        // single query up to the host's parallelism. A config that pins the
        // scan to one shard must produce bit-identical outcomes on every
        // machine.
        let vectors = clustered_vectors(160, 64);
        let db = VectorDatabase::ivf(&vectors, documents(160), 8).unwrap();
        let mut auto = ReisSystem::new(ReisConfig::tiny());
        let auto_id = auto.deploy(&db).unwrap();
        let pinned_config =
            ReisConfig::tiny().with_scan_parallelism(crate::config::ScanParallelism::sequential());
        let mut pinned = ReisSystem::new(pinned_config);
        let pinned_id = pinned.deploy(&db).unwrap();
        for q in [0usize, 19, 57] {
            let query = &vectors[q];
            let a = auto.search(auto_id, query, 10).unwrap();
            let b = pinned.search(pinned_id, query, 10).unwrap();
            assert_eq!(a, b, "brute force, query {q}");
            let a = auto.ivf_search_with_nprobe(auto_id, query, 10, 4).unwrap();
            let b = pinned
                .ivf_search_with_nprobe(pinned_id, query, 10, 4)
                .unwrap();
            assert_eq!(a, b, "ivf, query {q}");
        }
    }

    #[test]
    fn default_adaptive_brute_force_keeps_topk_and_lowers_modelled_latency() {
        // Adaptive filtering is default-on for brute-force scans; against an
        // explicitly static system the top-k is identical while the
        // transferred entries — and with them the modelled latency — shrink.
        let vectors = clustered_vectors(150, 64);
        let db = VectorDatabase::flat(&vectors, documents(150)).unwrap();
        let mut adaptive = ReisSystem::new(ReisConfig::tiny());
        let adaptive_id = adaptive.deploy(&db).unwrap();
        let mut static_system = ReisSystem::new(ReisConfig::tiny().with_adaptive_filtering(false));
        let static_id = static_system.deploy(&db).unwrap();
        let query = &vectors[42];
        let a = adaptive.search(adaptive_id, query, 1).unwrap();
        let b = static_system.search(static_id, query, 1).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.documents, b.documents);
        assert!(
            a.activity.fine_entries < b.activity.fine_entries,
            "adaptive transferred {} entries, static {}",
            a.activity.fine_entries,
            b.activity.fine_entries
        );
        assert!(
            a.total_latency() < b.total_latency(),
            "adaptive modelled latency {} should beat static {}",
            a.total_latency(),
            b.total_latency()
        );
        // IVF scans keep the static threshold under the default scope
        // (fresh systems — the tiny device cannot hold a second database).
        let ivf_db = VectorDatabase::ivf(&vectors, documents(150), 8).unwrap();
        let mut adaptive_ivf = ReisSystem::new(ReisConfig::tiny());
        let ivf_a = adaptive_ivf.deploy(&ivf_db).unwrap();
        let mut static_ivf = ReisSystem::new(ReisConfig::tiny().with_adaptive_filtering(false));
        let ivf_b = static_ivf.deploy(&ivf_db).unwrap();
        let x = adaptive_ivf
            .ivf_search_with_nprobe(ivf_a, query, 5, 4)
            .unwrap();
        let y = static_ivf
            .ivf_search_with_nprobe(ivf_b, query, 5, 4)
            .unwrap();
        assert_eq!(x.activity, y.activity);
    }

    #[test]
    fn mutation_latency_includes_controller_overheads() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_ivf(&mut system, 96, 64, 4);
        let fresh: Vec<f32> = (0..64).map(|d| (d % 5) as f32).collect();
        let insert = system.insert(id, &fresh, b"fresh".to_vec()).unwrap();
        let perf = PerfModel::new(*system.config());
        let db = system.database(id).unwrap();
        let overhead = perf.append_overhead(1, db.layout.centroid_pages, db.layout.centroids);
        assert!(overhead > Nanos::ZERO);
        assert!(insert.latency > overhead, "insert prices flash + overhead");
        // Deletes used to be modelled as free; they now cost the id-map
        // lookup and the DRAM tombstone write.
        let delete = system.delete(id, insert.ids[0]).unwrap();
        assert_eq!(delete.latency, perf.tombstone_overhead());
        assert!(delete.latency > Nanos::ZERO);
        let upsert = system
            .upsert(id, vectors.len() as u32 - 1, &fresh, b"updated")
            .unwrap();
        assert!(upsert.latency > overhead + perf.tombstone_overhead());
    }

    #[test]
    fn nprobe_mapping_is_monotone_in_recall() {
        let low = ReisSystem::nprobe_for_recall(16384, 0.90);
        let mid = ReisSystem::nprobe_for_recall(16384, 0.94);
        let high = ReisSystem::nprobe_for_recall(16384, 0.98);
        assert!(low < mid && mid < high);
        assert!(ReisSystem::nprobe_for_recall(4, 0.99) <= 4);
        assert_eq!(ReisSystem::nprobe_for_recall(0, 0.9), 1);
    }

    #[test]
    fn ssd2_serves_the_same_query_faster_than_ssd1_scaled_geometry() {
        // Use the two reference configurations on a small database; SSD2's
        // extra channels and planes must strictly reduce latency.
        let vectors = clustered_vectors(256, 1024);
        let db = VectorDatabase::ivf(&vectors, documents(256), 8).unwrap();
        let mut ssd1 = ReisSystem::new(ReisConfig::ssd1());
        let mut ssd2 = ReisSystem::new(ReisConfig::ssd2());
        let a = ssd1.deploy(&db).unwrap();
        let b = ssd2.deploy(&db).unwrap();
        let q = &vectors[5];
        let t1 = ssd1
            .ivf_search_with_nprobe(a, q, 10, 4)
            .unwrap()
            .total_latency();
        let t2 = ssd2
            .ivf_search_with_nprobe(b, q, 10, 4)
            .unwrap()
            .total_latency();
        assert!(t2 < t1, "REIS-SSD2 ({t2}) should beat REIS-SSD1 ({t1})");
    }
}
