//! `mutate_durable`: a seeded insert / delete / upsert trace with
//! interleaved IVF reads on a WAL-backed system, then `compact`, `save`,
//! more mutations, a crash (drop) and `recover`.
//!
//! Unlike the search workloads this one's work is fixed by its inputs, not
//! by the clock: the trace length follows `--seconds` and takes whatever host
//! time it takes. (Mutations change what later operations cost, so "as many
//! as fit" would give a faster build a different, harder job.) Every block of
//! an untraced run replays the whole trace from the deployed state — between
//! blocks the system is dropped, its WAL removed and the deployment's own
//! snapshot recovered — so the blocks are replicates of each other like any
//! other workload's. (One pass split into seven chunks was measured first:
//! an insert costs O(segment size), so the last chunk costs five times the
//! first, no median over chunks means anything, and the whole-run p95 that
//! stood in for it spread 10 - 37 % over six sets of ten runs. So was a fresh
//! deployment per block: seven 97 MB snapshots per run kept the kernel's
//! writeback busy enough to slow the workload that ran next by half.)
//!
//! A traced run applies the trace once, in chunks, to three deployments of
//! the same database — durable, volatile, and durable with telemetry on — so
//! the WAL cost and the telemetry cost are each a difference between two
//! systems doing the same operations in the same state.

use std::path::{Path, PathBuf};
use std::time::Instant;

use reis::core::{
    DirVfs, DurableStore, MutationOutcome, ReisSystem, SearchOutcome, VectorDatabase,
};
use reis::persist::store::{SNAPSHOT_PREFIX, WAL_PREFIX};
use reis::telemetry::GaugeId;
use reis::workloads::{MutationMix, MutationOp, MutationTrace, SyntheticDataset};

use crate::calib::Calibrator;
use crate::checks::{exact_top_k, mean_recall, signature, validate_reply, Expect, Tally, K};
use crate::harness::{self, measure, Block};
use crate::probes;
use crate::stats;
use crate::trace::TraceRecorder;

use super::search::IVF_RECALL_FLOOR;
use super::{build_database, median_setup, paper, system_config, ModelSums, Report, RunCfg};

/// Writes ≈ 55 % of host time, the interleaved IVF reads the rest.
const MIX: MutationMix = MutationMix {
    insert: 12,
    delete: 3,
    upsert: 4,
    search: 1,
};
/// Seed of the mutation trace. Like the corpus, the trace is part of this
/// workload's dataset and does not follow `--seed`: its inserts are jittered
/// copies of eight random topics, and how many of those land in one IVF
/// cluster — whose segment then makes every further insert slower — differs
/// wildly from seed to seed (6.6 % of mutations above 600 µs at seed 47,
/// 0.1 % at seed 1013; throughput 1,900 – 3,200 ops/s). This seed's latency
/// distribution has no cliff near the reported percentiles.
const TRACE_SEED: u64 = 1013;
/// Chunks of a traced run: even, so forward and reverse rounds pair up.
const TRACED_ROUNDS: usize = 4;
/// Live inserted ids checked for a self-hit at the end.
const SELF_HIT_SAMPLE: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Insert,
    Delete,
    Upsert,
    Search,
}

impl OpKind {
    fn of(op: &MutationOp) -> Self {
        match op {
            MutationOp::Insert { .. } => OpKind::Insert,
            MutationOp::Delete { .. } => OpKind::Delete,
            MutationOp::Upsert { .. } => OpKind::Upsert,
            MutationOp::Search { .. } => OpKind::Search,
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            OpKind::Insert => "mutate_durable.insert",
            OpKind::Delete => "mutate_durable.delete",
            OpKind::Upsert => "mutate_durable.upsert",
            OpKind::Search => "mutate_durable.ivf_search_with_nprobe",
        }
    }
}

/// What one trace operation returned.
enum Applied {
    Mutation(MutationOutcome),
    Search(Box<SearchOutcome>),
}

/// The benchmark's own record of what the corpus must hold: for every
/// stable id, the live entry's vector and document (or `None` once deleted).
struct Shadow<'a> {
    live: Vec<Option<(&'a [f32], &'a [u8])>>,
    inserted: Vec<u32>,
}

impl<'a> Shadow<'a> {
    fn new(dataset: &'a SyntheticDataset) -> Self {
        let live = dataset
            .vectors()
            .iter()
            .zip(dataset.documents())
            .map(|(v, d)| Some((v.as_slice(), d.as_slice())))
            .collect();
        Shadow {
            live,
            inserted: Vec::new(),
        }
    }

    fn set(&mut self, id: u32, entry: Option<(&'a [f32], &'a [u8])>) {
        let slot = id as usize;
        if self.live.len() <= slot {
            self.live.resize(slot + 1, None);
        }
        self.live[slot] = entry;
    }

    fn document(&self, id: usize) -> Option<&'a [u8]> {
        self.live.get(id).copied().flatten().map(|(_, doc)| doc)
    }

    fn live_count(&self) -> usize {
        self.live.iter().flatten().count()
    }
}

/// One deployment of the database with the stable id it assigned to each
/// of the trace's logical ids (initial entries first, inserts in order).
struct Lane {
    system: ReisSystem,
    db: u32,
    stable_of_logical: Vec<u32>,
    /// What the lane returned for each operation of the current chunk.
    replies: Vec<Result<Applied, String>>,
}

impl Lane {
    fn new((system, db): (ReisSystem, u32), entries: usize) -> Self {
        Lane {
            system,
            db,
            stable_of_logical: (0..entries as u32).collect(),
            replies: Vec::new(),
        }
    }

    /// Reads only, so the trace still starts from the deployed state.
    fn warm_up(&mut self, nprobe: usize, sample: &[&Vec<f32>]) -> Result<(), String> {
        for query in sample {
            self.system
                .ivf_search_with_nprobe(self.db, query, K, nprobe)
                .map_err(|e| format!("warm-up search: {e}"))?;
        }
        Ok(())
    }

    /// Apply `op` and remember the id an insert was given.
    fn apply(&mut self, nprobe: usize, op: &MutationOp) -> Result<Applied, String> {
        let applied = apply(
            &mut self.system,
            self.db,
            nprobe,
            op,
            &self.stable_of_logical,
        );
        if let (MutationOp::Insert { .. }, Ok(Applied::Mutation(outcome))) = (op, &applied) {
            self.stable_of_logical.extend(outcome.ids.first());
        }
        applied
    }
}

/// Apply one trace operation to `system`, resolving the trace's logical ids
/// through `stable_of_logical`.
fn apply(
    system: &mut ReisSystem,
    db: u32,
    nprobe: usize,
    op: &MutationOp,
    stable_of_logical: &[u32],
) -> Result<Applied, String> {
    let stable = |target: &usize| {
        stable_of_logical
            .get(*target)
            .copied()
            .ok_or_else(|| format!("trace targets unknown logical id {target}"))
    };
    match op {
        MutationOp::Insert { vector, document } => system
            .insert(db, vector, document.clone())
            .map(Applied::Mutation)
            .map_err(|e| format!("insert: {e}")),
        MutationOp::Delete { target } => system
            .delete(db, stable(target)?)
            .map(Applied::Mutation)
            .map_err(|e| format!("delete: {e}")),
        MutationOp::Upsert {
            target,
            vector,
            document,
        } => system
            .upsert(db, stable(target)?, vector, document)
            .map(Applied::Mutation)
            .map_err(|e| format!("upsert: {e}")),
        MutationOp::Search { query } => system
            .ivf_search_with_nprobe(db, query, K, nprobe)
            .map(|o| Applied::Search(Box::new(o)))
            .map_err(|e| format!("search: {e}")),
    }
}

/// Check what lane 0 returned for `op` and bring the shadow up to date;
/// `stable_of_logical` is lane 0's id map.
fn settle<'a>(
    op: &'a MutationOp,
    applied: &Result<Applied, String>,
    stable_of_logical: &[u32],
    shadow: &mut Shadow<'a>,
) -> Result<(), String> {
    match (op, applied.as_ref().map_err(String::clone)?) {
        (MutationOp::Insert { vector, document }, Applied::Mutation(outcome)) => {
            let &[id] = outcome.ids.as_slice() else {
                return Err(format!("insert assigned {} ids", outcome.ids.len()));
            };
            if shadow.document(id as usize).is_some() {
                return Err(format!("insert reused live id {id}"));
            }
            shadow.inserted.push(id);
            shadow.set(id, Some((vector, document)));
            Ok(())
        }
        (MutationOp::Delete { target }, Applied::Mutation(_)) => {
            let id = stable_of_logical[*target];
            shadow.set(id, None);
            Ok(())
        }
        (
            MutationOp::Upsert {
                target,
                vector,
                document,
            },
            Applied::Mutation(_),
        ) => {
            let id = stable_of_logical[*target];
            shadow.set(id, Some((vector, document)));
            Ok(())
        }
        (MutationOp::Search { .. }, Applied::Search(outcome)) => {
            // A deleted id has no source chunk, so returning one fails here.
            validate_reply(
                &outcome.results,
                &outcome.documents,
                Expect::AtMost(K),
                |id| shadow.document(id),
            )
        }
        _ => Err("operation and reply kinds differ".into()),
    }
}

/// Check that a twin system (same operations, same starting state) assigned
/// the ids the primary did and answered searches identically.
fn settle_twin(
    op: &MutationOp,
    applied: &Result<Applied, String>,
    primary: &Applied,
) -> Result<(), String> {
    match (applied.as_ref().map_err(String::clone)?, primary) {
        (Applied::Mutation(twin), Applied::Mutation(primary)) if twin.ids == primary.ids => Ok(()),
        (Applied::Search(twin), Applied::Search(primary))
            if signature(&twin.results) == signature(&primary.results) =>
        {
            Ok(())
        }
        _ => Err(format!("a twin system diverged on {:?}", OpKind::of(op))),
    }
}

/// The recovery invariants: the WAL replayed exactly the mutations logged
/// since the last save, none of it was quarantined, and the sampled
/// searches answer bit for bit as they did before the crash.
fn check_recovery(
    tally: &mut Tally,
    wal_records_applied: u64,
    logged_since_save: u64,
    quarantined: bool,
    before_crash: &[Vec<(usize, u32)>],
    after_crash: &[Vec<(usize, u32)>],
) {
    tally.invariant(wal_records_applied == logged_since_save, || {
        format!(
            "recovery replayed {wal_records_applied} WAL records, \
             {logged_since_save} mutations were logged since the save"
        )
    });
    tally.invariant(!quarantined, || {
        "recovery quarantined part of an intact WAL".into()
    });
    tally.invariant(
        !before_crash.is_empty() && before_crash == after_crash,
        || "searches answer differently after recovery than before the crash".into(),
    );
}

/// Take the store in `dir` back to its last snapshot: with the WAL gone,
/// recovery yields the state that snapshot holds.
fn rewind(dir: &Path) -> Result<ReisSystem, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(WAL_PREFIX) {
            std::fs::remove_file(entry.path())
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        }
    }
    let (system, report) = ReisSystem::recover(
        system_config(),
        DurableStore::new(Box::new(DirVfs::new(dir))),
    )
    .map_err(|e| format!("recover: {e}"))?;
    if report.wal_records_applied != 0 {
        return Err(format!(
            "{} WAL records survived the rewind",
            report.wal_records_applied
        ));
    }
    Ok(system)
}

fn open_durable(dir: &Path) -> Result<ReisSystem, String> {
    let store = DurableStore::new(Box::new(DirVfs::new(dir)));
    ReisSystem::open(system_config(), store)
        .map(|(system, _)| system)
        .map_err(|e| format!("ReisSystem::open: {e}"))
}

fn deploy(mut system: ReisSystem, database: &VectorDatabase) -> Result<(ReisSystem, u32), String> {
    let db = system
        .deploy(database)
        .map_err(|e| format!("deploy: {e}"))?;
    Ok((system, db))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn newest_snapshot_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(SNAPSHOT_PREFIX))
                .filter_map(|e| e.metadata().ok())
                .filter_map(|m| Some((m.modified().ok()?, m.len())))
                .max()
                .map_or(0, |(_, len)| len)
        })
        .unwrap_or(0)
}

/// Removes the run's durable stores when the run ends, however it ends.
struct WorkDirs(Vec<PathBuf>);

impl Drop for WorkDirs {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

struct Built {
    dataset: SyntheticDataset,
    database: VectorDatabase,
    trace: MutationTrace,
    primary: ReisSystem,
    db: u32,
    database_s: f64,
    deploy_s: f64,
}

/// Run the workload.
pub fn run(cfg: &RunCfg, calibrator: &Calibrator) -> Result<Report, String> {
    let (blocks, seconds) = cfg.phase();
    let blocks = if cfg.trace { TRACED_ROUNDS } else { blocks };
    let trace_ops = ((cfg.scale.mutate_ops_per_second as f64 * seconds) as usize).max(blocks);
    let chunk_len = if cfg.trace {
        trace_ops.div_ceil(blocks)
    } else {
        trace_ops
    };
    let tail_ops = cfg.scale.post_save_mutations;
    let tag = format!("mutate-{}-{}", std::process::id(), cfg.seed);
    let dir = |suffix: &str| cfg.work_dir.join(format!("{tag}-{suffix}"));
    let dirs = WorkDirs(vec![dir("a"), dir("c")]);
    for dir in &dirs.0 {
        let _ = std::fs::remove_dir_all(dir);
    }

    let reps = if cfg.trace { 1 } else { cfg.scale.setup_reps };
    let (built, setup_s) = median_setup(reps, || -> Result<Built, String> {
        let _ = std::fs::remove_dir_all(&dirs.0[0]);
        let dataset = cfg.dataset();
        let (database, database_s) = build_database(&dataset, cfg, true)?;
        let trace = MutationTrace::generate(
            dataset.len(),
            dataset.profile().dim,
            dataset.profile().doc_bytes,
            trace_ops + tail_ops,
            MIX,
            TRACE_SEED,
        );
        let (deployed, deploy_ns) = harness::timed(|| deploy(open_durable(&dirs.0[0])?, &database));
        let (primary, db) = deployed?;
        Ok(Built {
            dataset,
            database,
            trace,
            primary,
            db,
            database_s,
            deploy_s: deploy_ns as f64 / 1e9,
        })
    });
    let Built {
        dataset,
        database,
        trace,
        primary,
        db,
        database_s,
        deploy_s,
    } = built?;
    let queries = dataset.queries();
    // The one thing `--seed` draws here: which queries warm the lanes up and
    // are asked before the crash and after the recovery.
    let sample: Vec<&Vec<f32>> = cfg
        .query_order(queries.len())
        .into_iter()
        .take(cfg.scale.identity_sample)
        .map(|q| &queries[q])
        .collect();
    let nprobe = cfg.scale.nprobe;
    let page_bytes = system_config().ssd.geometry.page_size_bytes;
    let (body_ops, tail) = trace.ops().split_at(trace_ops);
    let mut shadow = Shadow::new(&dataset);
    let mut tally = Tally::new();

    // Lane 0 is the durable system under test. A traced run adds the twins:
    // lane 1 volatile (no WAL), lane 2 durable with telemetry on.
    let mut lanes = vec![Lane::new((primary, db), dataset.len())];
    if cfg.trace {
        lanes.push(Lane::new(
            deploy(ReisSystem::new(system_config()), &database)?,
            dataset.len(),
        ));
        let mut observed = deploy(open_durable(&dirs.0[1])?, &database)?;
        observed.0.enable_telemetry();
        lanes.push(Lane::new(observed, dataset.len()));
    }
    drop(database);
    let systems = lanes.len();
    for lane in &mut lanes {
        lane.warm_up(nprobe, &sample)?;
    }

    // The measured blocks. Untraced: every block is the whole trace from the
    // deployed state. Traced: consecutive chunks of one pass over the
    // trace, each applied to the three lanes as three blocks, so calibration
    // brackets each lane's turn. Turn order matters — with three systems
    // growing their buffers in one heap, whichever applies a chunk first runs
    // it up to 2x faster than the others — so rounds alternate between
    // forward and reverse order, which puts every pair of lanes in each
    // order equally often, and lanes are compared operation by operation.
    //
    // What the first replay returned, which every later one must repeat, and
    // the error that ended the replays early, if one did.
    let mut first_replay: Vec<Result<Applied, String>> = Vec::new();
    let mut rewind_error = None;
    let wal_bytes_before = dir_bytes(&dirs.0[0]);
    let mut mutation_model_ns: Vec<u64> = Vec::new();
    let mut pages_programmed = 0u64;
    let mut searches = ModelSums::default();
    // Per lane and operation: kind, host ns.
    let mut op_ns: [Vec<(OpKind, u64)>; 3] = Default::default();
    let mut recorder = cfg.trace.then(TraceRecorder::new);
    let (mut segment_peak, mut tombstone_peak) = (0u64, 0u64);
    let lane_of = |index: usize| {
        let (round, turn) = (index / systems, index % systems);
        if round % 2 == 0 {
            turn
        } else {
            systems - 1 - turn
        }
    };
    let measured = measure(
        calibrator,
        blocks * systems,
        0.0,
        |index, block: &mut Block| {
            let replay = if cfg.trace { 0 } else { index };
            let chunk = if cfg.trace { index / systems } else { 0 };
            let ops = &body_ops
                [(chunk * chunk_len).min(trace_ops)..((chunk + 1) * chunk_len).min(trace_ops)];
            if replay > 0 {
                // Outside the timed calls. The system goes before its WAL.
                lanes.clear();
                let rewound = rewind(&dirs.0[0])
                    .map(|system| Lane::new((system, db), dataset.len()))
                    .and_then(|mut lane| lane.warm_up(nprobe, &sample).map(|()| lane));
                match rewound {
                    Ok(lane) => lanes.push(lane),
                    Err(e) => rewind_error = Some(e),
                }
                shadow = Shadow::new(&dataset);
            }
            if lanes.is_empty() {
                return;
            }
            let lane_index = lane_of(index);
            let lane = &mut lanes[lane_index];
            lane.replies.clear();
            for op in ops {
                let kind = OpKind::of(op);
                let started = Instant::now();
                let applied = if kind == OpKind::Search {
                    block.secondary_call(1, || lane.apply(nprobe, op))
                } else {
                    block.call(1, || lane.apply(nprobe, op))
                };
                let ns = started.elapsed().as_nanos() as u64;
                lane.replies.push(applied);
                op_ns[lane_index].push((kind, ns));
                if lane_index == 2 {
                    let telemetry = lane.system.telemetry();
                    segment_peak = segment_peak.max(telemetry.gauge(GaugeId::SegmentEntries));
                    tombstone_peak = tombstone_peak.max(telemetry.gauge(GaugeId::Tombstones));
                    if let Some(recorder) = recorder.as_mut() {
                        let system_trace = (kind == OpKind::Search)
                            .then(|| telemetry.last_trace())
                            .flatten();
                        recorder.call(kind.span_name(), started, ns, system_trace.as_ref(), 1);
                    }
                }
            }
            if index % systems + 1 < systems {
                return;
            }
            // Every lane has applied the chunk: settle lane 0 against the shadow
            // and hold the twins, or the first replay, to lane 0's replies.
            let (primary, twins) = lanes.split_first_mut().expect("lane 0 always exists");
            for (position, (op, applied)) in ops.iter().zip(&primary.replies).enumerate() {
                tally.op(settle(op, applied, &primary.stable_of_logical, &mut shadow));
                if replay > 0 {
                    tally.op(match (applied, first_replay.get(position)) {
                        (Ok(now), Some(first)) => settle_twin(op, first, now),
                        _ => Err("a replay did not answer this operation".into()),
                    });
                    continue;
                }
                match applied {
                    Ok(Applied::Mutation(outcome)) => {
                        mutation_model_ns.push(outcome.latency.as_nanos());
                        pages_programmed += outcome.pages_programmed as u64;
                    }
                    Ok(Applied::Search(outcome)) => searches.add(outcome, page_bytes),
                    Err(_) => {}
                }
                for twin in twins.iter() {
                    tally.op(match (applied, twin.replies.get(position)) {
                        (Ok(primary), Some(twin)) => settle_twin(op, twin, primary),
                        _ => Err("lane 0 or a twin did not answer this operation".into()),
                    });
                }
            }
            if !cfg.trace && replay == 0 {
                first_replay = std::mem::take(&mut primary.replies);
            }
        },
    );
    if let Some(e) = rewind_error {
        return Err(format!("rewind between replays: {e}"));
    }
    let by_lane = |lane: usize| measured.select(|index| lane_of(index) == lane);
    let durable = by_lane(0);
    let Lane {
        system: mut primary,
        stable_of_logical: primary_ids,
        ..
    } = lanes.swap_remove(0);
    drop(lanes);
    let mutations = mutation_model_ns.len() as u64;
    let wal_bytes = dir_bytes(&dirs.0[0]).saturating_sub(wal_bytes_before);
    let peak_rss_mb = harness::peak_rss_mb();

    // Reads after the trace: recall over the corpus's own queries against
    // the exact neighbours in the *live* set, and self-hits of inserted ids.
    // (Half the queries: each costs a search under update plus an exact scan
    // of the live set, and this workload is already the longest. The first
    // half in the corpus's own order, so recall does not follow `--seed`.)
    let recall_queries = &queries[..queries.len().div_ceil(2)];
    let mut retrieved = Vec::with_capacity(recall_queries.len());
    for query in recall_queries {
        let outcome = primary.ivf_search_with_nprobe(db, query, K, nprobe);
        tally.op(match &outcome {
            Ok(o) => validate_reply(&o.results, &o.documents, Expect::Exactly(K), |id| {
                shadow.document(id)
            }),
            Err(e) => Err(format!("post-trace search: {e}")),
        });
        retrieved.push(outcome.map(|o| o.result_ids()).unwrap_or_default());
    }
    let recall = {
        let corpus: Vec<(usize, &[f32])> = shadow
            .live
            .iter()
            .enumerate()
            .filter_map(|(id, entry)| entry.map(|(vector, _)| (id, vector)))
            .collect();
        mean_recall(
            &retrieved,
            &exact_top_k(&corpus, recall_queries, K, cfg.nproc),
            K,
        )
    };
    tally.invariant(recall >= IVF_RECALL_FLOOR, || {
        format!("recall@{K} under updates {recall:.4} is below the floor {IVF_RECALL_FLOOR}")
    });
    let live_inserted: Vec<u32> = shadow
        .inserted
        .iter()
        .copied()
        .filter(|&id| shadow.document(id as usize).is_some())
        .collect();
    let stride = (live_inserted.len() / SELF_HIT_SAMPLE).max(1);
    for &id in live_inserted.iter().step_by(stride).take(SELF_HIT_SAMPLE) {
        let Some((vector, _)) = shadow.live[id as usize] else {
            continue;
        };
        let hit = primary.ivf_search_with_nprobe(db, vector, 1, nprobe);
        tally.op(match hit {
            Ok(o) if o.results.first().map(|n| n.id) == Some(id as usize) => Ok(()),
            Ok(_) => Err(format!("inserted id {id} does not find itself")),
            Err(e) => Err(format!("self-hit search: {e}")),
        });
    }

    // compact → save → more mutations → crash → recover.
    let (compacted, compact_ns) = harness::timed(|| primary.compact(db));
    let compacted = compacted.map_err(|e| format!("compact: {e}"))?;
    let (saved, save_ns) = harness::timed(|| primary.save());
    saved.map_err(|e| format!("save: {e}"))?;
    let snapshot_bytes = newest_snapshot_bytes(&dirs.0[0]);
    let live_at_save = shadow.live_count();
    let mut logged_since_save = 0u64;
    let mut tail_ids = primary_ids;
    for op in tail {
        let applied = apply(&mut primary, db, nprobe, op, &tail_ids);
        if let (MutationOp::Insert { .. }, Ok(Applied::Mutation(outcome))) = (op, &applied) {
            tail_ids.extend(outcome.ids.first());
        }
        if OpKind::of(op) != OpKind::Search && applied.is_ok() {
            logged_since_save += 1;
        }
        tally.op(settle(op, &applied, &tail_ids, &mut shadow));
    }
    let signatures = |system: &mut ReisSystem, db: u32| -> Vec<Vec<(usize, u32)>> {
        sample
            .iter()
            .map(|q| {
                system
                    .ivf_search_with_nprobe(db, q, K, nprobe)
                    .map(|o| signature(&o.results))
                    .unwrap_or_default()
            })
            .collect()
    };
    let before_crash = signatures(&mut primary, db);
    drop(primary);
    let (recovered, recover_ns) = harness::timed(|| {
        ReisSystem::recover(
            system_config(),
            DurableStore::new(Box::new(DirVfs::new(&dirs.0[0]))),
        )
    });
    let (mut recovered, recovery) = recovered.map_err(|e| format!("recover: {e}"))?;
    let after_crash = signatures(&mut recovered, db);
    check_recovery(
        &mut tally,
        recovery.wal_records_applied,
        logged_since_save,
        recovery.quarantined.is_some(),
        &before_crash,
        &after_crash,
    );
    for (q, query) in sample.iter().enumerate() {
        let outcome = recovered.ivf_search_with_nprobe(db, query, K, nprobe);
        tally.op(match outcome {
            Ok(o) => validate_reply(&o.results, &o.documents, Expect::Exactly(K), |id| {
                shadow.document(id)
            }),
            Err(e) => Err(format!("post-recovery search {q}: {e}")),
        });
    }

    if !cfg.trace {
        let mut report = Report::new(tally);
        report.push_host_end_to_end(&durable, setup_s, peak_rss_mb);
        let model_seconds = mutation_model_ns.iter().sum::<u64>() as f64 / 1e9;
        report.push_model_end_to_end(mutations as f64 / model_seconds, &mutation_model_ns);
        report.push(
            "model_qps_per_watt",
            searches.requests as f64 / searches.joules,
        );
        report.push("recall_at_10", recall);
        report.push("paper_gap_pct", paper::gap_pct());
        return Ok(report);
    }

    let mut report = Report::new(tally);
    let model_us_per_op = (mutation_model_ns.iter().sum::<u64>() as f64 / 1e3
        + searches.model_seconds() * 1e6)
        / (mutations + searches.requests).max(1) as f64;
    report.push_host_layer(&durable, false, model_us_per_op);
    searches.push_layer_counts(&mut report);
    report.push(
        "nand.pages_programmed_per_op",
        pages_programmed as f64 / mutations.max(1) as f64,
    );
    report.push("core.deploy_s", deploy_s);
    report.push("ann.kmeans_build_s", database_s);
    report.push(
        "core.search_under_update_p50_us",
        stats::percentile(&durable.pooled_secondary_us(), 0.50),
    );
    report.push(
        "core.mutation_model_us",
        mutation_model_ns.iter().sum::<u64>() as f64 / 1e3 / mutations.max(1) as f64,
    );
    for (name, kind) in [
        ("update.insert_us", OpKind::Insert),
        ("update.delete_us", OpKind::Delete),
        ("update.upsert_us", OpKind::Upsert),
    ] {
        let mut us: Vec<f64> = op_ns[0]
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, ns)| ns as f64 / 1e3)
            .collect();
        stats::sort(&mut us);
        report.push(name, stats::percentile(&us, 0.50));
    }
    report.push("update.segment_entries_peak", segment_peak as f64);
    report.push("update.tombstones_peak", tombstone_peak as f64);
    report.push("update.compact_ms", compact_ns as f64 / 1e6);
    report.push(
        "update.compact_pages_rewritten",
        compacted.pages_rewritten as f64,
    );
    // The lanes applied the same operations in the same state, so what the
    // WAL (lane 0 against the volatile lane 1) and telemetry (lane 2 against
    // lane 0) cost is the median of the per-operation differences.
    let paired = |lane: usize, base: usize, relative: bool, mutations_only: bool| {
        let mut extra: Vec<f64> = op_ns[lane]
            .iter()
            .zip(&op_ns[base])
            .filter(|((kind, _), _)| !mutations_only || *kind != OpKind::Search)
            .map(|(&(_, ns), &(_, base_ns))| {
                let (us, base_us) = (ns as f64 / 1e3, base_ns as f64 / 1e3);
                if relative {
                    (us - base_us) / base_us.max(f64::MIN_POSITIVE) * 100.0
                } else {
                    us - base_us
                }
            })
            .collect();
        stats::sort(&mut extra);
        stats::percentile(&extra, 0.50)
    };
    report.push("persist.wal_overhead_us_per_op", paired(0, 1, false, true));
    report.push("telemetry.overhead_pct", paired(2, 0, true, false));
    report.push(
        "persist.wal_bytes_per_op",
        wal_bytes as f64 / mutations.max(1) as f64,
    );
    report.push(
        "persist.snapshot_bytes_per_entry",
        snapshot_bytes as f64 / live_at_save.max(1) as f64,
    );
    report.push("persist.save_ms", save_ns as f64 / 1e6);
    report.push("persist.recover_ms", recover_ns as f64 / 1e6);
    report.push(
        "persist.recover_records_per_s",
        recovery.wal_records_applied as f64 / (recover_ns as f64 / 1e9),
    );
    report.push("kernels.crc32c_gbps", probes::crc32c_gbps());
    if let Some(recorder) = &recorder {
        let totals = recorder.totals();
        for (name, stage) in [
            ("core.broadcast_us", "broadcast"),
            ("core.coarse_scan_us", "coarse_scan"),
            ("core.fine_scan_us", "fine_scan"),
            ("core.rerank_us", "rerank"),
            ("core.doc_fetch_us", "doc_fetch"),
        ] {
            // Spans exist for the searches only; average over them.
            report.push(
                name,
                totals.stage_us_per_call(stage) * totals.calls as f64
                    / searches.requests.max(1) as f64,
            );
        }
    }
    report.spans = recorder;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reis::ann::topk::Neighbor;
    use reis::workloads::DatasetProfile;

    fn search_reply(ids: &[usize], dataset: &SyntheticDataset) -> Result<Applied, String> {
        let results: Vec<Neighbor> = ids
            .iter()
            .enumerate()
            .map(|(rank, &id)| Neighbor::new(id, rank as f32))
            .collect();
        let documents = ids
            .iter()
            .map(|&id| dataset.documents()[id].clone())
            .collect();
        // Only `results` and `documents` matter to `settle`.
        Ok(Applied::Search(Box::new(SearchOutcome {
            results,
            documents,
            latency: Default::default(),
            activity: Default::default(),
            energy: Default::default(),
            flash_stats: Default::default(),
        })))
    }

    #[test]
    fn a_search_that_returns_a_deleted_id_fails_the_check() {
        let dataset =
            SyntheticDataset::generate(DatasetProfile::hotpotqa().scaled(32).with_queries(1), 3);
        let mut shadow = Shadow::new(&dataset);
        let map: Vec<u32> = (0..32).collect();
        let search = MutationOp::Search {
            query: dataset.queries()[0].clone(),
        };
        let ids: Vec<usize> = (0..K).collect();
        assert!(settle(&search, &search_reply(&ids, &dataset), &map, &mut shadow).is_ok());

        let delete = MutationOp::Delete { target: 4 };
        let deleted = Ok(Applied::Mutation(MutationOutcome {
            ids: vec![4],
            latency: Default::default(),
            pages_programmed: 0,
            compaction: None,
        }));
        assert!(settle(&delete, &deleted, &map, &mut shadow).is_ok());
        assert_eq!(shadow.live_count(), 31);
        let stale = settle(&search, &search_reply(&ids, &dataset), &map, &mut shadow);
        assert!(stale.unwrap_err().contains("not live"));
    }

    #[test]
    fn each_recovery_check_can_fail() {
        let signatures = vec![vec![(3usize, 7u32)], vec![(4, 9)]];
        let check = |applied, logged, quarantined, after: &[Vec<(usize, u32)>]| {
            let mut tally = Tally::new();
            check_recovery(&mut tally, applied, logged, quarantined, &signatures, after);
            tally.correct()
        };
        assert!(check(100, 100, false, &signatures));
        assert!(!check(99, 100, false, &signatures), "a lost WAL record");
        assert!(!check(100, 100, true, &signatures), "a quarantined tail");
        let mut changed = signatures.clone();
        changed[1][0].1 += 1;
        assert!(!check(100, 100, false, &changed), "a changed answer");
        assert!(!check(100, 100, false, &[]), "no answers to compare");
    }

    #[test]
    fn inserts_extend_the_shadow_and_twins_must_agree() {
        let dataset =
            SyntheticDataset::generate(DatasetProfile::hotpotqa().scaled(32).with_queries(1), 3);
        let mut shadow = Shadow::new(&dataset);
        let insert = MutationOp::Insert {
            vector: dataset.vectors()[0].clone(),
            document: b"fresh".to_vec(),
        };
        let outcome = |id| MutationOutcome {
            ids: vec![id],
            latency: Default::default(),
            pages_programmed: 1,
            compaction: None,
        };
        let map: Vec<u32> = (0..32).collect();
        let applied = Ok(Applied::Mutation(outcome(40)));
        assert!(settle(&insert, &applied, &map, &mut shadow).is_ok());
        assert_eq!(shadow.document(40), Some(&b"fresh"[..]));
        assert_eq!(shadow.inserted, [40]);
        // The same id again would overwrite a live entry.
        assert!(settle(&insert, &applied, &map, &mut shadow).is_err());

        let primary = Applied::Mutation(outcome(40));
        assert!(settle_twin(&insert, &Ok(Applied::Mutation(outcome(40))), &primary).is_ok());
        assert!(settle_twin(&insert, &Ok(Applied::Mutation(outcome(41))), &primary).is_err());
        assert!(settle_twin(&insert, &Err("refused".into()), &primary).is_err());
    }
}
