//! [`ClusterSystem`]: the aggregator over N leaf devices.
//!
//! The aggregator owns the leaves, the shard router, the skew model and
//! the cluster manifest. Its public surface mirrors the single-device
//! [`ReisSystem`] (deploy, search, batched search, insert/delete/upsert,
//! compaction, save/recover) but every operation is scattered to the
//! leaves and gathered exactly:
//!
//! * **Deploy** slices the union corpus's storage order contiguously
//!   across shards, re-using the union's quantizers (and, for IVF, the
//!   full global centroid set) so every leaf scores exactly as the
//!   single device would, and floors every leaf's document slot at the
//!   union's slot size so document accounting matches. With a
//!   replication factor `R` each shard's slice is deployed identically
//!   to all `R` leaves of its replica group.
//! * **Search** fans out [`ReisSystem::leaf_query`] to one live replica
//!   per shard — concurrently, on the aggregator's worker pool — merges
//!   under the lifted `(distance, shard, storage index)` orders
//!   ([`reis_core::merge_top_k`], the rule a single device ranks its own
//!   candidates with) and fetches only the winners' chunks from their
//!   serving replicas.
//! * **Mutations** route to every live replica of the owning shard with
//!   globally assigned stable ids, so the cluster's id namespace is the
//!   single device's and replicas stay in bit-identical lockstep.
//! * **Durability** is per-leaf (each leaf keeps its own snapshot/WAL
//!   store) plus one tiny cluster manifest
//!   ([`reis_persist::ClusterManifest`]) tying the leaves together;
//!   recovery restores each leaf independently and re-derives the id
//!   watermark as the max over leaf watermarks.
//! * **Faults** are survived, not hidden: an optional seeded
//!   [`FaultPlan`] rules each fan-out leaf call, transient faults are
//!   retried under a deterministic [`RetryPolicy`], exhausted replicas
//!   go down and queries fail over along each shard's replica group,
//!   and a shard with no live replica degrades the answer *explicitly*
//!   via [`ClusterSearchOutcome::shard_coverage`] rather than erroring.
//!   Down leaves rejoin by replaying their durable epoch
//!   ([`ClusterSystem::reload_leaf`]) and catching up missed mutations
//!   from the aggregator's in-memory log.

use std::borrow::Cow;
use std::time::Instant;

use reis_ann::topk::Neighbor;
use reis_nand::Nanos;
use reis_persist::{ClusterManifest, InsertIds, Mutation, PersistError, Vfs};
use reis_telemetry::{CounterId, HistogramId, QueryTrace, Span, Telemetry};

use reis_core::system::ReisSystem;
use reis_core::{
    host_parallelism, merge_top_k, Backend, ClusterInfo, CompactionOutcome, DurableStore,
    LeafCandidate, LeafQueryOutcome, Modelled, MutationOutcome, Pipeline, PipelineConfig,
    QueryActivity, RecoveryReport, ReisConfig, ReisError, Result, ScrubReport, VectorDatabase,
    WorkerPool, DOC_SUBPAGE_BYTES,
};

use crate::fault::{FaultDecision, FaultPlan};
use crate::health::{HealthState, LeafHealth, RetryPolicy, ShardCoverage};
use crate::latency::{leaf_completion, HedgePolicy, LatencyModel};
use crate::router::ShardRouter;

/// File name of the cluster manifest inside its VFS.
pub const MANIFEST_FILE: &str = "CLUSTER.manifest";

/// Skew-draw attempt index of the document-fetch phase (0 and 1 are the
/// fan-out primary and its hedge).
const DOC_ATTEMPT: u32 = 2;

/// Skew-draw attempt index of the first fault retry; retry `n` draws
/// attempt `RETRY_ATTEMPT_BASE + n`, keeping retry service times
/// independent of the primary/hedge/doc draws.
const RETRY_ATTEMPT_BASE: u32 = 3;

/// What one fanned-out leaf call returned, with its wall time in ns.
type LeafAnswer = (Result<LeafQueryOutcome>, u64);

/// Cluster-wide activity accounting of one fanned-out query. Deliberately
/// free of any schedule-dependent field: the same query against the same
/// corpus reports the same `ClusterActivity` whatever the skew seed,
/// hedging deadline, or hedge race outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterActivity {
    /// Summed per-shard activity (see [`QueryActivity::absorb`]); its
    /// `fine_entries` is the cluster's transferred-entry count, equal to a
    /// single device's under the static-threshold leaf protocol.
    pub activity: QueryActivity,
    /// Number of shards fanned out to (one serving replica each).
    pub leaves: usize,
    /// Union candidate count before the global cut.
    pub merged_candidates: usize,
    /// Candidates surviving the global `rerank_factor × k` cut.
    pub cut_candidates: usize,
}

/// Outcome of one cluster query.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSearchOutcome {
    /// The global top-k as `(stable id, INT8 rerank distance)`.
    pub results: Vec<Neighbor>,
    /// The winners' document chunks, aligned with `results`.
    pub documents: Vec<Vec<u8>>,
    /// Schedule-independent work accounting.
    pub activity: ClusterActivity,
    /// Modelled end-to-end latency: fan-out plus document phase.
    pub latency: Nanos,
    /// Modelled fan-out latency (max over hedged leaf completions,
    /// including retry backoffs and failover penalties under faults).
    pub fanout_latency: Nanos,
    /// Modelled document-phase latency (max over serving leaves).
    pub document_latency: Nanos,
    /// Hedged duplicates launched by the straggler policy (schedule
    /// dependent, deliberately outside [`ClusterActivity`]).
    pub hedges_launched: usize,
    /// Which shards answered. Full coverage means the answer is
    /// bit-identical to the no-fault run; partial coverage means it is
    /// bit-identical to a deployment of exactly the covered shards.
    pub shard_coverage: ShardCoverage,
}

impl ClusterSearchOutcome {
    /// Whether the answer covers every shard (not degraded).
    pub fn is_full_coverage(&self) -> bool {
        self.shard_coverage.is_full()
    }
}

/// What cluster recovery found: the manifest epoch plus each leaf's own
/// recovery report, in leaf order.
#[derive(Debug)]
pub struct ClusterRecovery {
    /// Epoch recorded in the recovered manifest.
    pub epoch: u64,
    /// Per-leaf recovery reports.
    pub leaves: Vec<RecoveryReport>,
}

impl ClusterRecovery {
    /// Per-leaf quarantined-WAL-tail counts, in leaf order — the uniform
    /// cluster view of [`RecoveryReport::quarantine_count`].
    pub fn quarantine_counts(&self) -> Vec<usize> {
        self.leaves
            .iter()
            .map(RecoveryReport::quarantine_count)
            .collect()
    }
}

/// The aggregator: N leaf systems behind one logical corpus.
#[derive(Debug)]
pub struct ClusterSystem {
    config: ReisConfig,
    leaves: Vec<ReisSystem>,
    /// Per-leaf deployed database id (empty until `deploy_*`).
    leaf_dbs: Vec<u32>,
    router: ShardRouter,
    latency: LatencyModel,
    hedge: Option<HedgePolicy>,
    manifest_vfs: Option<Box<dyn Vfs>>,
    epoch: u64,
    /// Query sequence number (the skew model's per-query key).
    seq: u64,
    /// Aggregator-side telemetry (fan-out counters, completion
    /// histograms, per-leaf trace spans). Each leaf additionally keeps
    /// its own [`ReisSystem`] telemetry handle; see
    /// [`ClusterSystem::enable_telemetry`].
    telemetry: Telemetry,
    /// Seeded fault schedule ruling each fan-out leaf call (`None` never
    /// faults).
    fault: Option<FaultPlan>,
    retry: RetryPolicy,
    /// Per-leaf health, indexed by physical leaf.
    health: Vec<LeafHealth>,
    /// Mutations retained for down leaves to replay on rejoin, owned
    /// copies of what the live route applied. The log only grows while at
    /// least one leaf is down and is dropped once every leaf has caught
    /// up, so the healthy path never pays for it.
    agg_wal: Vec<Mutation<'static>>,
    /// Run [`ClusterSystem::scrub`] after every save and fail the save on
    /// corruption.
    scrub_on_save: bool,
    /// The host's parallelism, captured once: the scan budget a query's
    /// serving leaves split between them.
    host_budget: usize,
    /// The pool a query's leaf calls run on. Sized by
    /// `REIS_SCHED_WORKERS`, else by `host_budget`, like a leaf's own.
    pool: WorkerPool,
}

impl ClusterSystem {
    /// An in-memory cluster of `num_leaves` fresh leaves (one shard each).
    ///
    /// # Errors
    ///
    /// [`ReisError::MalformedDatabase`] when `num_leaves` is zero.
    pub fn new(config: ReisConfig, num_leaves: usize) -> Result<Self> {
        ClusterSystem::new_replicated(config, num_leaves, 1)
    }

    /// An in-memory cluster of `num_shards` shards, each served by
    /// `replication` lockstep replica leaves (`num_shards × replication`
    /// fresh leaves in total).
    ///
    /// # Errors
    ///
    /// [`ReisError::MalformedDatabase`] when either count is zero.
    pub fn new_replicated(
        config: ReisConfig,
        num_shards: usize,
        replication: usize,
    ) -> Result<Self> {
        let router = ShardRouter::new_replicated(num_shards, replication)?;
        let leaves = (0..router.num_leaves())
            .map(|_| ReisSystem::new(config))
            .collect();
        Ok(ClusterSystem::assemble(config, leaves, router, None))
    }

    /// The one place a `ClusterSystem` is put together: the given leaves
    /// behind the given router with no corpus deployed at epoch 0,
    /// everything else at its default (uniform latency, no hedging, no
    /// faults, every leaf healthy).
    fn assemble(
        config: ReisConfig,
        leaves: Vec<ReisSystem>,
        router: ShardRouter,
        manifest_vfs: Option<Box<dyn Vfs>>,
    ) -> Self {
        let host_budget = host_parallelism();
        ClusterSystem {
            config,
            health: vec![LeafHealth::new(); leaves.len()],
            leaves,
            leaf_dbs: Vec::new(),
            router,
            latency: LatencyModel::uniform(),
            hedge: None,
            manifest_vfs,
            epoch: 0,
            seq: 0,
            telemetry: Telemetry::from_env(),
            fault: None,
            retry: RetryPolicy::default(),
            agg_wal: Vec::new(),
            scrub_on_save: false,
            host_budget,
            pool: WorkerPool::from_env(host_budget),
        }
    }

    /// Open a durable cluster: one snapshot/WAL store per leaf plus a VFS
    /// holding the cluster manifest. A present manifest triggers full
    /// recovery (each leaf from its own store, the router from the
    /// manifest, including its recorded replication factor); an absent one
    /// opens every leaf fresh and unreplicated.
    ///
    /// # Errors
    ///
    /// Propagates leaf recovery errors, and rejects a manifest whose leaf
    /// count disagrees with `stores.len()`.
    pub fn open(
        config: ReisConfig,
        stores: Vec<DurableStore>,
        manifest_vfs: Box<dyn Vfs>,
    ) -> Result<(Self, Option<ClusterRecovery>)> {
        ClusterSystem::open_with_replication(config, stores, manifest_vfs, None)
    }

    /// [`ClusterSystem::open`] with an explicit replication factor: the
    /// `stores.len()` leaves group into `stores.len() / replication`
    /// shards. A present manifest must record the same factor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterSystem::open`], plus a factor that does
    /// not divide the store count or disagrees with the manifest.
    pub fn open_replicated(
        config: ReisConfig,
        stores: Vec<DurableStore>,
        manifest_vfs: Box<dyn Vfs>,
        replication: usize,
    ) -> Result<(Self, Option<ClusterRecovery>)> {
        ClusterSystem::open_with_replication(config, stores, manifest_vfs, Some(replication))
    }

    fn open_with_replication(
        config: ReisConfig,
        stores: Vec<DurableStore>,
        manifest_vfs: Box<dyn Vfs>,
        expected_replication: Option<usize>,
    ) -> Result<(Self, Option<ClusterRecovery>)> {
        if stores.is_empty() {
            return Err(ReisError::MalformedDatabase(
                "a cluster needs at least one leaf store".into(),
            ));
        }
        let num_leaves = stores.len();
        if manifest_vfs.exists(MANIFEST_FILE) {
            let bytes = manifest_vfs.read_file(MANIFEST_FILE)?;
            let manifest = ClusterManifest::decode(&bytes, MANIFEST_FILE)?;
            if manifest.num_leaves() != num_leaves {
                return Err(PersistError::Malformed(format!(
                    "manifest describes {} leaves but {num_leaves} stores were given",
                    manifest.num_leaves()
                ))
                .into());
            }
            let replication = manifest.replication as usize;
            if let Some(expected) = expected_replication {
                if expected != replication {
                    return Err(PersistError::Malformed(format!(
                        "manifest records replication {replication} but {expected} was requested"
                    ))
                    .into());
                }
            }
            let mut leaves = Vec::with_capacity(num_leaves);
            let mut reports = Vec::with_capacity(num_leaves);
            for store in stores {
                let (leaf, report) = ReisSystem::recover(config, store)?;
                leaves.push(leaf);
                reports.push(report);
            }
            // The id watermark is re-derived from the leaves: WAL replay may
            // have carried inserts past the last manifest write.
            let mut next_global = manifest.next_global;
            for (leaf, &db_id) in leaves.iter().zip(&manifest.leaf_db_ids) {
                next_global = next_global.max(leaf.next_stable_id(db_id)?);
            }
            let router = ShardRouter::from_owners_replicated(
                manifest.initial_owners.clone(),
                num_leaves,
                replication,
                next_global,
            )?;
            let mut cluster = ClusterSystem::assemble(config, leaves, router, Some(manifest_vfs));
            cluster.leaf_dbs = manifest.leaf_db_ids.clone();
            cluster.epoch = manifest.epoch;
            let recovery = ClusterRecovery {
                epoch: manifest.epoch,
                leaves: reports,
            };
            Ok((cluster, Some(recovery)))
        } else {
            let replication = expected_replication.unwrap_or(1);
            if replication == 0 || !num_leaves.is_multiple_of(replication) {
                return Err(ReisError::MalformedDatabase(format!(
                    "{num_leaves} leaf stores do not divide into replica groups of {replication}"
                )));
            }
            let mut leaves = Vec::with_capacity(num_leaves);
            for store in stores {
                let (leaf, _) = ReisSystem::open(config, store)?;
                leaves.push(leaf);
            }
            let router = ShardRouter::new_replicated(num_leaves / replication, replication)?;
            let cluster = ClusterSystem::assemble(config, leaves, router, Some(manifest_vfs));
            Ok((cluster, None))
        }
    }

    /// Replace the skew model (chainable).
    pub fn with_latency_model(mut self, model: LatencyModel) -> Self {
        self.latency = model;
        self
    }

    /// Replace the hedging policy (chainable; `None` disables hedging).
    pub fn with_hedging(mut self, hedge: Option<HedgePolicy>) -> Self {
        self.hedge = hedge;
        self
    }

    /// Replace the fault plan (chainable; `None` never faults).
    pub fn with_fault_plan(mut self, fault: Option<FaultPlan>) -> Self {
        self.fault = fault;
        self
    }

    /// Replace the retry policy (chainable).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Scrub every live leaf's durable store after each save and fail the
    /// save when corruption is found (off by default).
    pub fn set_scrub_on_save(&mut self, scrub: bool) {
        self.scrub_on_save = scrub;
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The aggregator's telemetry handle (fan-out counters, leaf
    /// completion and fan-out histograms, cluster query traces). Per-leaf
    /// counters live on each leaf's own handle: `cluster.leaf(i).telemetry()`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enable telemetry on the aggregator and on every leaf (fresh
    /// registries where not already enabled). Recording is strictly
    /// observational: results, activity accounting and modelled schedules
    /// are bit-identical with telemetry on or off.
    pub fn enable_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::enabled();
        }
        for leaf in &mut self.leaves {
            leaf.enable_telemetry();
        }
    }

    /// Deploy a flat corpus sharded across the leaves: union-fitted
    /// quantizers, contiguous entry-order slices, global stable ids equal
    /// to corpus positions — exactly the ids a single device would assign.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::deploy`], plus
    /// [`ReisError::MalformedDatabase`] when the corpus has fewer entries
    /// than the cluster has shards or a corpus is already deployed.
    pub fn deploy_flat(&mut self, vectors: &[Vec<f32>], documents: &[Vec<u8>]) -> Result<()> {
        let union = VectorDatabase::flat(vectors, documents.to_vec())?;
        self.deploy_sharded(&union, vectors, documents)
    }

    /// Deploy an IVF corpus sharded across the leaves: the union's
    /// centroids are replicated to **every** leaf (so coarse search picks
    /// identical probe sets everywhere) while the member lists split as
    /// contiguous slices of the union's cluster-major storage order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterSystem::deploy_flat`].
    pub fn deploy_ivf(
        &mut self,
        vectors: &[Vec<f32>],
        documents: &[Vec<u8>],
        nlist: usize,
    ) -> Result<()> {
        let union = VectorDatabase::ivf(vectors, documents.to_vec(), nlist)?;
        self.deploy_sharded(&union, vectors, documents)
    }

    fn deploy_sharded(
        &mut self,
        union: &VectorDatabase,
        vectors: &[Vec<f32>],
        documents: &[Vec<u8>],
    ) -> Result<()> {
        if !self.leaf_dbs.is_empty() {
            return Err(ReisError::MalformedDatabase(
                "cluster already serves a deployed corpus".into(),
            ));
        }
        let entries = vectors.len();
        let num_shards = self.router.num_shards();
        if entries < num_shards {
            return Err(ReisError::MalformedDatabase(format!(
                "cannot shard {entries} entries across {num_shards} shards"
            )));
        }

        // The union's storage order: entry order for flat, cluster-major
        // for IVF. Slicing *this* order contiguously is what makes the
        // lifted merge order coincide with the single-device scan order.
        let order: Vec<usize> = match union.clusters() {
            Some(info) => info.lists.iter().flatten().copied().collect(),
            None => (0..entries).collect(),
        };
        let cluster_of: Option<Vec<usize>> = union.clusters().map(|info| {
            let mut map = vec![0usize; entries];
            for (cluster, members) in info.lists.iter().enumerate() {
                for &member in members {
                    map[member] = cluster;
                }
            }
            map
        });

        // Every leaf must use the document slot size the *union* corpus
        // would: the slot is a step function of the corpus's largest
        // document, and per-leaf maxima can fall on the other side of the
        // step.
        let max_doc = documents.iter().map(Vec::len).max().unwrap_or(0);
        let page = self.config.ssd.geometry.page_size_bytes;
        let min_doc_slot = if max_doc + 4 <= DOC_SUBPAGE_BYTES {
            DOC_SUBPAGE_BYTES.min(page)
        } else {
            page
        };

        let mut owners = vec![0u32; entries];
        let mut leaf_dbs = Vec::with_capacity(self.leaves.len());
        for (shard_idx, range) in ShardRouter::slices(entries, num_shards)
            .into_iter()
            .enumerate()
        {
            let slice = &order[range];
            let ids: Vec<u32> = slice.iter().map(|&entry| entry as u32).collect();
            for &entry in slice {
                owners[entry] = shard_idx as u32;
            }
            let leaf_vectors: Vec<Vec<f32>> =
                slice.iter().map(|&entry| vectors[entry].clone()).collect();
            let leaf_documents: Vec<Vec<u8>> = slice
                .iter()
                .map(|&entry| documents[entry].clone())
                .collect();
            let shard = match (union.clusters(), &cluster_of) {
                (Some(info), Some(cluster_of)) => {
                    let mut lists = vec![Vec::new(); info.nlist()];
                    for (position, &entry) in slice.iter().enumerate() {
                        lists[cluster_of[entry]].push(position);
                    }
                    VectorDatabase::ivf_with_clusters(
                        &leaf_vectors,
                        leaf_documents,
                        union.binary_quantizer().clone(),
                        union.int8_quantizer().clone(),
                        ClusterInfo {
                            centroids: info.centroids.clone(),
                            lists,
                        },
                    )?
                }
                _ => VectorDatabase::flat_with_quantizers(
                    &leaf_vectors,
                    leaf_documents,
                    union.binary_quantizer().clone(),
                    union.int8_quantizer().clone(),
                )?,
            };
            // Every replica of the shard receives the identical deployment,
            // so the group is bit-identical by construction.
            for leaf_idx in self.router.replicas(shard_idx) {
                leaf_dbs.push(self.leaves[leaf_idx].deploy_with_ids(&shard, &ids, min_doc_slot)?);
            }
        }

        self.leaf_dbs = leaf_dbs;
        self.router.set_initial_owners(owners);
        if self.manifest_vfs.is_some() {
            self.write_manifest()?;
        }
        Ok(())
    }

    /// Brute-force top-k over the whole cluster.
    ///
    /// A query runs in three phases. *Plan* walks the shards in order and
    /// picks one serving replica each, drawing every fault-plan decision
    /// and applying every retry, failover and mark-down before any leaf
    /// runs. *Execute* runs the serving leaves' [`ReisSystem::leaf_query`]
    /// as tasks on the aggregator's pool (inline when only one serves),
    /// each under `max(1, host parallelism / serving leaves)` scan shards.
    /// *Gather* folds the answers in shard order, then merges and fetches
    /// the winners' documents. Results, modelled latencies, fault-plan
    /// cursors and counters are those of calling the leaves one after
    /// another, whatever the pool size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::search`], plus
    /// [`ReisError::MalformedDatabase`] before a corpus is deployed. The
    /// first leaf error in shard order is returned; by then the fault plan
    /// has ruled, and leaf health has absorbed, the calls of *every*
    /// shard, later ones included. A panicking leaf task surfaces as
    /// [`ReisError::WorkerPanic`] instead of unwinding the caller.
    pub fn search(&mut self, query: &[f32], k: usize) -> Result<ClusterSearchOutcome> {
        self.run(query, k, None)
    }

    /// IVF top-k probing `nprobe` clusters (the same clusters on every
    /// leaf — they share the full centroid set).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::ivf_search_with_nprobe`], plus
    /// [`ReisError::MalformedDatabase`] before a corpus is deployed.
    pub fn ivf_search_with_nprobe(
        &mut self,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<ClusterSearchOutcome> {
        self.run(query, k, Some(nprobe))
    }

    /// Batched search: each query is fanned out and merged independently
    /// (per-query outcomes, in request order). Every query advances the
    /// skew model's sequence number exactly as the same queries issued
    /// one at a time would, so batching never changes results *or*
    /// modelled schedules.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterSystem::search`].
    pub fn search_batch(
        &mut self,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: Option<usize>,
    ) -> Result<Vec<ClusterSearchOutcome>> {
        // A malformed query fails the batch before any of it runs.
        for query in queries {
            self.validate_search(query, k, nprobe)?;
        }
        queries.iter().map(|q| self.run(q, k, nprobe)).collect()
    }

    /// Check a search request without running it: the validation every
    /// leaf applies before any device work (all leaves share the corpus'
    /// dimensionality and cluster structure, so the first one speaks for
    /// the cluster). The request pipeline calls this at submission.
    ///
    /// # Errors
    ///
    /// The error the search itself would raise (see
    /// [`ReisSystem::validate_search`]), or
    /// [`ReisError::MalformedDatabase`] before a corpus is deployed.
    pub fn validate_search(&self, query: &[f32], k: usize, nprobe: Option<usize>) -> Result<()> {
        match self.leaf_dbs.first() {
            Some(&db) => self.leaves[0].validate_search(db, query, k, nprobe),
            None => Err(ReisError::MalformedDatabase(
                "cluster has no deployed corpus".into(),
            )),
        }
    }

    fn run(
        &mut self,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> Result<ClusterSearchOutcome> {
        // Refuse a malformed request before it costs a fault-plan draw or
        // advances the skew sequence.
        self.validate_search(query, k, nprobe)?;
        let seq = self.seq;
        self.seq += 1;
        let enabled = self.telemetry.is_enabled();
        let mut spans: Vec<Span> = Vec::new();

        // Plan: pick one serving replica per shard, drawing every fault
        // decision before any leaf runs.
        let num_shards = self.router.num_shards();
        let (serving, penalties): (Vec<Option<usize>>, Vec<Nanos>) = (0..num_shards)
            .map(|shard| self.plan_shard(shard, seq))
            .unzip();
        let mut fanout_latency = Nanos::ZERO;
        for (leaf, &penalty) in serving.iter().zip(&penalties) {
            if leaf.is_none() {
                // The shard is uncovered; the time spent discovering that
                // still gates the fan-out.
                fanout_latency = fanout_latency.max(penalty);
            }
        }

        // Execute: every serving leaf runs the in-storage pipeline through
        // the rerank and reports its full scored candidate set.
        let calls: Vec<usize> = serving.iter().flatten().copied().collect();
        let mut answers = self.fan_out(&calls, query, k, nprobe, enabled)?.into_iter();

        // Gather, in shard order. A shard whose replicas are all down
        // contributes nothing and is reported uncovered.
        let mut per_shard: Vec<Vec<LeafCandidate>> = vec![Vec::new(); num_shards];
        let mut activity = QueryActivity::default();
        let mut hedges_launched = 0;
        for (shard, slot) in serving.iter().enumerate() {
            let Some(leaf_idx) = *slot else {
                continue;
            };
            let (answer, wall_ns) = answers.next().expect("one answer per serving leaf");
            let outcome = answer?;
            let (completion, hedged) = leaf_completion(
                &self.latency,
                self.hedge,
                leaf_idx,
                seq,
                outcome.latency.total(),
            );
            let shard_completion = penalties[shard] + completion;
            fanout_latency = fanout_latency.max(shard_completion);
            hedges_launched += usize::from(hedged);
            activity.absorb(&outcome.activity);
            per_shard[shard] = outcome.candidates;
            self.health[leaf_idx].on_success();
            if enabled {
                self.telemetry.count(CounterId::LeafRequests, 1);
                if hedged {
                    self.telemetry.count(CounterId::HedgesLaunched, 1);
                }
                self.telemetry
                    .observe(HistogramId::LeafCompletionNs, shard_completion.as_nanos());
                spans.push(Span {
                    stage: if hedged { "leaf_hedged" } else { "leaf" },
                    index: leaf_idx as u32,
                    wall_ns,
                    modelled_ns: shard_completion.as_nanos(),
                });
            }
        }
        let covered: Vec<bool> = serving.iter().map(Option::is_some).collect();
        let degraded = covered.iter().any(|&c| !c);

        // Gather: replay the single-device cut and ranking over the union
        // of the covered shards (all shards, in the healthy case). Every
        // leaf runs this configuration, so they all cut to its budget.
        let merge_started = enabled.then(Instant::now);
        let merged = merge_top_k(&per_shard, self.config.rerank_candidates(k), k);
        let results = merged.results();

        // Fetch only the winners' chunks, each from its shard's serving
        // replica, and splice them back into global rank order.
        let merge_wall = merge_started
            .map(|t0| t0.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        let doc_started = enabled.then(Instant::now);
        let mut documents: Vec<Vec<u8>> = vec![Vec::new(); results.len()];
        let mut document_latency = Nanos::ZERO;
        for (shard, slot) in serving.iter().enumerate() {
            let Some(leaf_idx) = *slot else {
                continue;
            };
            let wanted: Vec<usize> = merged
                .winners
                .iter()
                .enumerate()
                .filter(|(_, w)| w.leaf == shard)
                .map(|(rank, _)| rank)
                .collect();
            if wanted.is_empty() {
                continue;
            }
            let neighbors: Vec<Neighbor> = wanted.iter().map(|&rank| results[rank]).collect();
            let fetched =
                self.leaves[leaf_idx].leaf_fetch_documents(self.leaf_dbs[leaf_idx], &neighbors)?;
            document_latency = document_latency
                .max(fetched.latency + self.latency.delay(leaf_idx, seq, DOC_ATTEMPT));
            for (rank, chunk) in wanted.into_iter().zip(fetched.documents) {
                documents[rank] = chunk;
            }
        }
        activity.documents = results.len();

        if enabled {
            self.telemetry.count(CounterId::ClusterQueries, 1);
            if degraded {
                self.telemetry.count(CounterId::DegradedQueries, 1);
            }
            self.telemetry
                .observe(HistogramId::FanoutNs, fanout_latency.as_nanos());
            spans.push(Span {
                stage: "merge",
                index: 0,
                wall_ns: merge_wall,
                modelled_ns: 0,
            });
            spans.push(Span {
                stage: "doc_fetch",
                index: 0,
                wall_ns: doc_started
                    .map(|t0| t0.elapsed().as_nanos() as u64)
                    .unwrap_or(0),
                modelled_ns: document_latency.as_nanos(),
            });
            let sequence = self.telemetry.next_sequence();
            self.telemetry.record_trace(QueryTrace {
                sequence,
                kind: "cluster_search",
                spans,
            });
        }

        Ok(ClusterSearchOutcome {
            results,
            documents,
            activity: ClusterActivity {
                activity,
                leaves: num_shards,
                merged_candidates: merged.merged_candidates,
                cut_candidates: merged.cut_candidates,
            },
            latency: fanout_latency + document_latency,
            fanout_latency,
            document_latency,
            hedges_launched,
            shard_coverage: ShardCoverage::new(covered),
        })
    }

    /// Pick the replica of `shard` that serves query `seq`, without
    /// calling any leaf. Replicas are tried in failover order: known-down
    /// replicas are skipped outright (no fault-plan draw), transient faults
    /// are retried with deterministic exponential backoff, and a replica
    /// that exhausts its retries is marked down before the next replica
    /// takes over. Returns the serving leaf (`None` when every replica is
    /// down) and the modelled time burned before it answers: failed
    /// attempts, backoffs and timeout deadlines, sequentially.
    fn plan_shard(&mut self, shard: usize, seq: u64) -> (Option<usize>, Nanos) {
        let mut penalty = Nanos::ZERO;
        for leaf_idx in self.router.replicas(shard) {
            if self.health[leaf_idx].is_down() {
                self.telemetry.count(CounterId::LeafFailovers, 1);
                continue;
            }
            let mut attempt: u32 = 0;
            loop {
                let decision = match self.fault.as_mut() {
                    Some(plan) => plan.decide(leaf_idx),
                    None => FaultDecision::Ok,
                };
                match decision {
                    FaultDecision::Ok => return (Some(leaf_idx), penalty),
                    FaultDecision::Unavailable => {
                        // A fast failure still costs one service draw.
                        penalty += self
                            .latency
                            .delay(leaf_idx, seq, RETRY_ATTEMPT_BASE + attempt);
                        self.health[leaf_idx].on_failure();
                    }
                    FaultDecision::Timeout => {
                        penalty += self.retry.deadline;
                        self.health[leaf_idx].on_failure();
                    }
                }
                if attempt >= self.retry.max_retries {
                    let position = self.agg_wal.len();
                    self.health[leaf_idx].mark_down(position);
                    self.telemetry.count(CounterId::LeafFailovers, 1);
                    break;
                }
                penalty += self.retry.backoff(attempt);
                attempt += 1;
                self.telemetry.count(CounterId::LeafRetries, 1);
            }
        }
        (None, penalty)
    }

    /// Run `leaf_query` on each of the distinct leaves `calls`, each under
    /// an equal share of the host's scan budget: as tasks on the
    /// aggregator's pool, or inline when there is only one. Answers come
    /// back in `calls` order with each call's wall time (0 unless `timed`).
    ///
    /// # Errors
    ///
    /// [`ReisError::WorkerPanic`] when a leaf task panicked; a leaf's own
    /// error is part of its answer.
    fn fan_out(
        &mut self,
        calls: &[usize],
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
        timed: bool,
    ) -> Result<Vec<LeafAnswer>> {
        let workers = (self.host_budget / calls.len().max(1)).max(1);
        let call = |leaf: &mut ReisSystem, db: u32| -> LeafAnswer {
            let started = timed.then(Instant::now);
            let answer = leaf.leaf_query(db, query, k, nprobe, workers);
            let wall_ns = started.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
            (answer, wall_ns)
        };
        let mut leaves: Vec<Option<&mut ReisSystem>> = self.leaves.iter_mut().map(Some).collect();
        let tasks: Vec<(&mut ReisSystem, u32)> = calls
            .iter()
            .map(|&leaf| {
                let system = leaves[leaf].take().expect("a leaf serves one shard");
                (system, self.leaf_dbs[leaf])
            })
            .collect();
        if tasks.len() <= 1 {
            return Ok(tasks.into_iter().map(|(leaf, db)| call(leaf, db)).collect());
        }
        let mut answers: Vec<Option<LeafAnswer>> = calls.iter().map(|_| None).collect();
        let call = &call;
        self.pool
            .scope(|scope| {
                for ((leaf, db), slot) in tasks.into_iter().zip(answers.iter_mut()) {
                    scope.spawn(move |_| *slot = Some(call(leaf, db)));
                }
            })
            .map_err(|panic| ReisError::WorkerPanic(panic.message))?;
        Ok(answers
            .into_iter()
            .map(|answer| answer.expect("every leaf task ran"))
            .collect())
    }

    /// Insert one entry under a freshly minted global stable id (see
    /// [`ClusterSystem::insert_batch`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::insert`].
    pub fn insert(&mut self, vector: &[f32], document: Vec<u8>) -> Result<MutationOutcome> {
        self.mutate(Mutation::insert(
            InsertIds::Minted(None),
            [vector],
            [document],
        ))
    }

    /// Insert a batch; global ids are minted consecutively and each entry
    /// is routed to (and natively stored under its global id by) every
    /// live replica of its owning shard, keeping the group in lockstep.
    ///
    /// The outcome's `ids` are the minted global ids, in batch order. Its
    /// cost is what [`ClusterSystem::delete`] / [`ClusterSystem::upsert`]
    /// report, over every owning shard: the first live replica speaks for
    /// its shard, shards program in parallel (latency is the slowest
    /// shard's, pages are summed), and `compaction` is the first shard's
    /// that compacted.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::insert_batch`], plus
    /// [`ReisError::Unavailable`] when a target shard has no live replica
    /// (refused before any id is minted or any leaf touched).
    pub fn insert_batch(
        &mut self,
        vectors: &[Vec<f32>],
        documents: Vec<Vec<u8>>,
    ) -> Result<MutationOutcome> {
        self.mutate(Mutation::insert(
            InsertIds::Minted(None),
            vectors,
            documents,
        ))
    }

    /// Delete stable id `id` from every live replica of its owning shard.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::delete`], plus
    /// [`ReisError::Unavailable`] when the shard has no live replica.
    pub fn delete(&mut self, id: u32) -> Result<MutationOutcome> {
        self.mutate(Mutation::Delete { id })
    }

    /// Upsert stable id `id` in place on every live replica of its owning
    /// shard.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::upsert`], plus
    /// [`ReisError::Unavailable`] when the shard has no live replica.
    pub fn upsert(&mut self, id: u32, vector: &[f32], document: &[u8]) -> Result<MutationOutcome> {
        self.mutate(Mutation::Upsert {
            id,
            vector: vector.into(),
            document: document.into(),
        })
    }

    /// The one route of a mutation (every mutation entry point but
    /// [`ClusterSystem::compact`], and the pipeline's backend): a minted
    /// insert gets consecutive global ids, then each shard's part of the
    /// mutation ([`shard_part`]) is applied to every live replica of that
    /// shard, and a copy is retained while a leaf is down. The outcome
    /// combines the shards' as [`ClusterSystem::insert_batch`] documents.
    fn mutate(&mut self, mut mutation: Mutation<'_>) -> Result<MutationOutcome> {
        if self.leaf_dbs.is_empty() {
            return Err(ReisError::MalformedDatabase(
                "cluster has no deployed corpus".into(),
            ));
        }
        let ids = match &mut mutation {
            Mutation::Insert {
                ids,
                vectors,
                documents,
            } => {
                if vectors.len() != documents.len() {
                    return Err(ReisError::MalformedDatabase(format!(
                        "{} vectors but {} documents in cluster insert",
                        vectors.len(),
                        documents.len()
                    )));
                }
                // Pre-check availability against the ids about to be
                // minted so a refused insert leaves the id watermark
                // untouched.
                let start = self.router.next_global();
                for offset in 0..vectors.len() {
                    let shard = self.router.owner(start + offset as u32);
                    if self.live_replica(shard).is_none() {
                        return Err(self.unavailable(shard));
                    }
                }
                let minted = self.router.assign(vectors.len());
                *ids = InsertIds::Chosen(minted.clone().into());
                minted
            }
            Mutation::Delete { id } | Mutation::Upsert { id, .. } => vec![*id],
            Mutation::Compact => Vec::new(),
        };
        let mut combined = MutationOutcome {
            ids,
            latency: Nanos::ZERO,
            pages_programmed: 0,
            compaction: None,
        };
        for shard in 0..self.router.num_shards() {
            let Some(part) = shard_part(&self.router, &mutation, shard) else {
                continue;
            };
            let outcome = self.on_live_replicas(shard, |leaf, db| leaf.mutate(db, part.clone()))?;
            combined.latency = combined.latency.max(outcome.latency);
            combined.pages_programmed += outcome.pages_programmed;
            combined.compaction = combined.compaction.or(outcome.compaction);
        }
        self.log_mutation(mutation);
        Ok(combined)
    }

    /// Apply one mutation to every live replica of `shard`, in failover
    /// order; the first live replica's outcome speaks for the lockstep
    /// group. [`ReisError::Unavailable`] when no replica is live.
    fn on_live_replicas(
        &mut self,
        shard: usize,
        mut apply: impl FnMut(&mut ReisSystem, u32) -> Result<MutationOutcome>,
    ) -> Result<MutationOutcome> {
        let mut first: Option<MutationOutcome> = None;
        for leaf in self.router.replicas(shard) {
            if self.health[leaf].is_down() {
                continue;
            }
            let outcome = apply(&mut self.leaves[leaf], self.leaf_dbs[leaf])?;
            first.get_or_insert(outcome);
        }
        first.ok_or_else(|| self.unavailable(shard))
    }

    /// The error of a shard with no live replica.
    fn unavailable(&self, shard: usize) -> ReisError {
        ReisError::Unavailable {
            leaf: self.router.replicas(shard).start,
            source: None,
        }
    }

    /// Compact every live leaf, in leaf order (down leaves compact during
    /// rejoin catch-up instead).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::compact`].
    pub fn compact(&mut self) -> Result<Vec<CompactionOutcome>> {
        if self.leaf_dbs.is_empty() {
            return Err(ReisError::MalformedDatabase(
                "cluster has no deployed corpus".into(),
            ));
        }
        let mut outcomes = Vec::new();
        for leaf in 0..self.leaves.len() {
            if self.health[leaf].is_down() {
                continue;
            }
            outcomes.push(self.leaves[leaf].compact(self.leaf_dbs[leaf])?);
        }
        self.log_mutation(Mutation::Compact);
        Ok(outcomes)
    }

    /// Checkpoint the whole cluster: every live leaf saves a snapshot,
    /// then the manifest is rewritten under a bumped epoch (down leaves
    /// keep their last durable epoch and catch up on rejoin). With
    /// [`ClusterSystem::set_scrub_on_save`], every live leaf's store is
    /// scrubbed afterwards and corruption fails the save. Returns the new
    /// epoch.
    ///
    /// # Errors
    ///
    /// [`ReisError::Persist`] when the cluster was not opened durably, on
    /// storage failure, or when the post-save scrub finds corruption.
    pub fn save(&mut self) -> Result<u64> {
        if self.manifest_vfs.is_none() {
            return Err(ReisError::Persist(PersistError::Malformed(
                "save() requires a durably opened cluster (see ClusterSystem::open)".into(),
            )));
        }
        for (leaf_idx, leaf) in self.leaves.iter_mut().enumerate() {
            if self.health[leaf_idx].is_down() {
                continue;
            }
            leaf.save()?;
        }
        self.epoch += 1;
        self.write_manifest()?;
        if self.scrub_on_save {
            for (leaf_idx, report) in self.scrub()?.into_iter().enumerate() {
                if !report.is_clean() {
                    return Err(ReisError::Persist(PersistError::Malformed(format!(
                        "post-save scrub of leaf {leaf_idx} found {} corrupt artifacts",
                        report.corrupt_artifacts()
                    ))));
                }
            }
        }
        Ok(self.epoch)
    }

    /// Scrub every live leaf's durable store — verify all snapshot and WAL
    /// epoch checksums without loading anything — and return the per-leaf
    /// reports, in leaf order (down leaves report empty).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::scrub`].
    pub fn scrub(&self) -> Result<Vec<ScrubReport>> {
        self.leaves
            .iter()
            .enumerate()
            .map(|(leaf_idx, leaf)| {
                if self.health[leaf_idx].is_down() {
                    Ok(ScrubReport::default())
                } else {
                    leaf.scrub()
                }
            })
            .collect()
    }

    /// Rejoin down leaf `leaf` using its retained in-memory state: replay
    /// every aggregator-logged mutation it missed, lift any fault-plan
    /// kill, and mark it [`HealthState::Recovered`] (promoted back to
    /// healthy by its next successful call).
    ///
    /// # Errors
    ///
    /// [`ReisError::MalformedDatabase`] when `leaf` is out of range or not
    /// down; propagates replay errors.
    pub fn rejoin_leaf(&mut self, leaf: usize) -> Result<()> {
        self.rejoin(leaf, |_| Ok(()))
    }

    /// Rejoin down leaf `leaf` from its durable store: run single-device
    /// recovery (newest snapshot plus WAL replay, PR 6), then catch up the
    /// mutations the aggregator logged while the leaf was down, exactly as
    /// [`ClusterSystem::rejoin_leaf`]. Returns the leaf's recovery report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterSystem::rejoin_leaf`]; propagates
    /// recovery errors.
    pub fn reload_leaf(&mut self, leaf: usize, store: DurableStore) -> Result<RecoveryReport> {
        self.rejoin(leaf, |cluster| {
            let (system, report) = ReisSystem::recover(cluster.config, store)?;
            cluster.leaves[leaf] = system;
            if cluster.telemetry.is_enabled() {
                cluster.leaves[leaf].enable_telemetry();
            }
            Ok(report)
        })
    }

    /// The one rejoin body: check `leaf` is a down leaf, `restore` its
    /// state, replay what it missed, lift any fault-plan kill and mark it
    /// recovered.
    fn rejoin<T>(
        &mut self,
        leaf: usize,
        restore: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        if leaf >= self.leaves.len() {
            return Err(ReisError::MalformedDatabase(format!(
                "leaf {leaf} is out of range for a {}-leaf cluster",
                self.leaves.len()
            )));
        }
        if !self.health[leaf].is_down() {
            return Err(ReisError::MalformedDatabase(format!(
                "leaf {leaf} is not down"
            )));
        }
        let restored = restore(self)?;
        let from = self.health[leaf].down_at_log();
        self.catch_up(leaf, from)?;
        if let Some(plan) = &mut self.fault {
            plan.revive(leaf);
        }
        self.health[leaf].rejoin();
        self.maybe_truncate_agg_wal();
        Ok(restored)
    }

    /// Replay the aggregator log from `from` on `leaf`: each retained
    /// mutation's part for the leaf's shard, as the live route applied it.
    fn catch_up(&mut self, leaf: usize, from: usize) -> Result<()> {
        let shard = self.router.shard_of_leaf(leaf);
        let from = from.min(self.agg_wal.len());
        for mutation in &self.agg_wal[from..] {
            if let Some(part) = shard_part(&self.router, mutation, shard) {
                self.leaves[leaf].mutate(self.leaf_dbs[leaf], part)?;
            }
        }
        Ok(())
    }

    /// Whether mutations must currently be retained for a down leaf.
    fn log_needed(&self) -> bool {
        self.health.iter().any(LeafHealth::is_down)
    }

    /// Retain an owned copy of `mutation` while a leaf is down.
    fn log_mutation(&mut self, mutation: Mutation<'_>) {
        if self.log_needed() {
            self.agg_wal.push(mutation.into_owned());
        }
    }

    fn maybe_truncate_agg_wal(&mut self) {
        if !self.log_needed() {
            self.agg_wal.clear();
        }
    }

    fn write_manifest(&self) -> Result<()> {
        let vfs = self
            .manifest_vfs
            .as_ref()
            .expect("write_manifest is only called on durable clusters");
        let manifest = ClusterManifest {
            epoch: self.epoch,
            leaf_db_ids: self.leaf_dbs.clone(),
            next_global: self.router.next_global(),
            initial_owners: self.router.initial_owners().to_vec(),
            replication: self.router.replication() as u32,
        };
        vfs.write_file(MANIFEST_FILE, &manifest.encode())?;
        Ok(())
    }

    /// The first live replica of `shard`, in failover order.
    fn live_replica(&self, shard: usize) -> Option<usize> {
        self.router
            .replicas(shard)
            .find(|&leaf| !self.health[leaf].is_down())
    }

    /// Number of physical leaves (`num_shards × replication`).
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Number of shards the corpus is sliced into.
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    /// Replica leaves per shard.
    pub fn replication(&self) -> usize {
        self.router.replication()
    }

    /// The shard router (owner map and id watermark).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The manifest epoch of the last save (0 before any).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Borrow leaf `leaf` (tests inspect per-leaf state through this).
    pub fn leaf(&self, leaf: usize) -> &ReisSystem {
        &self.leaves[leaf]
    }

    /// Health state of physical leaf `leaf`.
    pub fn leaf_health(&self, leaf: usize) -> HealthState {
        self.health[leaf].state()
    }

    /// Indices of the leaves currently down, ascending.
    pub fn down_leaves(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, health)| health.is_down())
            .map(|(leaf, _)| leaf)
            .collect()
    }

    /// Mutations currently retained for down leaves to replay on rejoin.
    pub fn aggregator_log_len(&self) -> usize {
        self.agg_wal.len()
    }

    /// CRC fingerprints of shard `shard`'s replicas' logical state, in
    /// replica (failover) order. Live replicas of a shard are kept in
    /// lockstep by construction, so their fingerprints agree; a stale
    /// down replica's may differ until it rejoins.
    ///
    /// # Errors
    ///
    /// [`ReisError::MalformedDatabase`] when `shard` is out of range; same
    /// conditions as [`ReisSystem::state_crc`].
    pub fn shard_state_crcs(&mut self, shard: usize) -> Result<Vec<u32>> {
        if shard >= self.router.num_shards() {
            return Err(ReisError::MalformedDatabase(format!(
                "shard {shard} is out of range for a {}-shard cluster",
                self.router.num_shards()
            )));
        }
        self.router
            .replicas(shard)
            .map(|leaf| self.leaves[leaf].state_crc())
            .collect()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ReisConfig {
        &self.config
    }

    /// Open an asynchronous request pipeline over the deployed corpus (see
    /// [`reis_core::Pipeline`]): the single-device front door, dispatching
    /// through this aggregator. The pipeline borrows the cluster
    /// exclusively; drop it (after `flush`) to use the cluster directly
    /// again.
    pub fn pipeline(&mut self, config: PipelineConfig) -> Pipeline<&mut ClusterSystem> {
        Pipeline::new(self, config)
    }
}

impl Modelled for ClusterSearchOutcome {
    fn modelled_latency(&self) -> Nanos {
        self.latency
    }
}

/// The part of `mutation` shard `shard` applies, its rows borrowed: the
/// entries of an insert batch the shard owns, a delete or an upsert when
/// the shard owns its id (`None` otherwise, and for an insert with no entry
/// on the shard), and a compaction on every shard. The live route and a
/// rejoining leaf's catch-up both split a mutation here.
fn shard_part<'m>(
    router: &ShardRouter,
    mutation: &'m Mutation<'_>,
    shard: usize,
) -> Option<Mutation<'m>> {
    match mutation {
        Mutation::Insert {
            ids,
            vectors,
            documents,
        } => {
            let InsertIds::Chosen(ids) = ids else {
                unreachable!("the aggregator chooses every routed id")
            };
            let rows: Vec<usize> = (0..ids.len())
                .filter(|&row| router.owner(ids[row]) == shard)
                .collect();
            (!rows.is_empty()).then(|| Mutation::Insert {
                ids: InsertIds::Chosen(rows.iter().map(|&row| ids[row]).collect()),
                vectors: rows
                    .iter()
                    .map(|&row| Cow::Borrowed(&*vectors[row]))
                    .collect(),
                documents: rows
                    .iter()
                    .map(|&row| Cow::Borrowed(&*documents[row]))
                    .collect(),
            })
        }
        Mutation::Delete { id } => {
            (router.owner(*id) == shard).then_some(Mutation::Delete { id: *id })
        }
        Mutation::Upsert {
            id,
            vector,
            document,
        } => (router.owner(*id) == shard).then(|| Mutation::Upsert {
            id: *id,
            vector: Cow::Borrowed(vector),
            document: Cow::Borrowed(document),
        }),
        Mutation::Compact => Some(Mutation::Compact),
    }
}

/// The cluster behind the request pipeline. A formed batch fans out once
/// per query and is priced by the aggregator's modelled end-to-end latency;
/// a mutation is priced by its owning shards' first live replicas. The
/// pipeline's shard budget is not forwarded: the aggregator splits its own
/// captured host parallelism between the leaves a query runs on (see
/// [`ClusterSystem::search`]).
impl Backend for &mut ClusterSystem {
    type Search = ClusterSearchOutcome;

    fn validate_search(&self, query: &[f32], k: usize, nprobe: Option<usize>) -> Result<()> {
        (**self).validate_search(query, k, nprobe)
    }

    fn search_batch(
        &mut self,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: Option<usize>,
        _workers: usize,
    ) -> Result<Vec<ClusterSearchOutcome>> {
        (**self).search_batch(queries, k, nprobe)
    }

    fn mutate(&mut self, mutation: Mutation<'_>) -> Result<MutationOutcome> {
        (**self).mutate(mutation)
    }

    fn telemetry(&self) -> &Telemetry {
        (**self).telemetry()
    }
}
