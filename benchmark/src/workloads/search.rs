//! The four closed-loop search workloads: `bf_single`, `bf_batch8`,
//! `ivf_single` and `cluster4_bf`. One client thread issues one front-door
//! call at a time, cycling over the corpus's query set.

use std::time::Instant;

use reis::ann::topk::Neighbor;
use reis::cluster::{ClusterSearchOutcome, ClusterSystem};
use reis::core::{EnergyModel, PerfModel, ReisSystem, SearchOutcome, VectorDatabase};
use reis::telemetry::CounterId;
use reis::workloads::SyntheticDataset;
use reis_bench::fullscale::activity_flash_stats;

use crate::calib::Calibrator;
use crate::checks::{exact_top_k, mean_recall, signature, validate_reply, Expect, Tally, K};
use crate::harness::{self, measure, Block, Measurement};
use crate::probes;
use crate::trace::TraceRecorder;

use super::{
    build_device, median_setup, paper, push_search_probes, system_config, Device, ModelSums,
    Report, RunCfg,
};

/// Leaves of the cluster workload.
const LEAVES: usize = 4;
/// Queries per call of the batch workload.
const BATCH: usize = 8;
/// Recall@10 a brute-force workload must reach, or the run fails.
const BF_RECALL_FLOOR: f64 = 0.95;
/// Recall@10 an IVF workload must reach, or the run fails: 0.90 on the
/// pinned corpus at nlist 64, nprobe 8 (0.89 under the mutation trace).
pub const IVF_RECALL_FLOOR: f64 = 0.80;
/// Share of a call's host time its spans may leave uncovered, %.
const UNATTRIBUTED_LIMIT_PCT: f64 = 15.0;

/// Which of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Flat deploy, `ReisSystem::search`, one query per call.
    BfSingle,
    /// Flat deploy, `ReisSystem::search_batch` of 8.
    BfBatch8,
    /// IVF deploy, `ReisSystem::ivf_search_with_nprobe`.
    IvfSingle,
    /// 4-leaf `ClusterSystem`, flat, `ClusterSystem::search`.
    Cluster4Bf,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::BfSingle => "bf_single",
            Kind::BfBatch8 => "bf_batch8",
            Kind::IvfSingle => "ivf_single",
            Kind::Cluster4Bf => "cluster4_bf",
        }
    }

    fn call_name(self) -> &'static str {
        match self {
            Kind::BfSingle => "bf_single.search",
            Kind::BfBatch8 => "bf_batch8.search_batch",
            Kind::IvfSingle => "ivf_single.ivf_search_with_nprobe",
            Kind::Cluster4Bf => "cluster4_bf.search",
        }
    }

    /// Queries per front-door call.
    fn width(self) -> usize {
        if self == Kind::BfBatch8 {
            BATCH
        } else {
            1
        }
    }

    fn recall_floor(self) -> f64 {
        if self == Kind::IvfSingle {
            IVF_RECALL_FLOOR
        } else {
            BF_RECALL_FLOOR
        }
    }
}

/// The system under test.
enum Front {
    Device { system: Box<ReisSystem>, db: u32 },
    Cluster(Box<ClusterSystem>),
}

/// What one front-door call returned.
enum Replies {
    Device(Vec<SearchOutcome>),
    Cluster(Box<ClusterSearchOutcome>),
}

impl Replies {
    /// `(results, documents)` of each request of the call.
    fn each(&self) -> Vec<(&[Neighbor], &[Vec<u8>])> {
        match self {
            Replies::Device(outcomes) => outcomes
                .iter()
                .map(|o| (o.results.as_slice(), o.documents.as_slice()))
                .collect(),
            Replies::Cluster(outcome) => {
                vec![(outcome.results.as_slice(), outcome.documents.as_slice())]
            }
        }
    }
}

struct Built {
    dataset: SyntheticDataset,
    front: Front,
    /// Seconds `VectorDatabase::{flat, ivf}` took (0 for the cluster, whose
    /// deploy builds its own).
    database_s: f64,
    /// Seconds constructing the system and deploying took.
    deploy_s: f64,
}

fn flat_device(dataset: &SyntheticDataset) -> Result<(ReisSystem, u32), String> {
    let database = VectorDatabase::flat(dataset.vectors(), dataset.documents_owned())
        .map_err(|e| format!("VectorDatabase::flat: {e}"))?;
    let mut system = ReisSystem::new(system_config());
    let db = system
        .deploy(&database)
        .map_err(|e| format!("deploy: {e}"))?;
    Ok((system, db))
}

fn build(kind: Kind, cfg: &RunCfg) -> Result<Built, String> {
    if kind == Kind::Cluster4Bf {
        let dataset = cfg.dataset();
        let (front, ns) = harness::timed(|| -> Result<Front, String> {
            let mut cluster = ClusterSystem::new(system_config(), LEAVES)
                .map_err(|e| format!("ClusterSystem::new: {e}"))?;
            cluster
                .deploy_flat(dataset.vectors(), dataset.documents())
                .map_err(|e| format!("deploy_flat: {e}"))?;
            Ok(Front::Cluster(Box::new(cluster)))
        });
        return Ok(Built {
            dataset,
            front: front?,
            database_s: 0.0,
            deploy_s: ns as f64 / 1e9,
        });
    }
    let Device {
        dataset,
        system,
        db,
        database_s,
        deploy_s,
    } = build_device(cfg, kind == Kind::IvfSingle)?;
    Ok(Built {
        dataset,
        front: Front::Device {
            system: Box::new(system),
            db,
        },
        database_s,
        deploy_s,
    })
}

/// Issue call number `call` of the cycle: query `call mod |queries|`, or for
/// the batch workload chunk `call mod |chunks|`.
fn issue(
    kind: Kind,
    cfg: &RunCfg,
    front: &mut Front,
    queries: &[Vec<f32>],
    call: usize,
) -> Result<Replies, String> {
    let width = kind.width();
    let first = (call % (queries.len() / width)) * width;
    let error = |e: reis::core::ReisError| format!("{}: {e}", kind.call_name());
    match (kind, front) {
        (Kind::BfSingle, Front::Device { system, db }) => system
            .search(*db, &queries[first], K)
            .map(|o| Replies::Device(vec![o]))
            .map_err(error),
        (Kind::BfBatch8, Front::Device { system, db }) => system
            .search_batch(*db, &queries[first..first + width], K, cfg.nproc)
            .map(Replies::Device)
            .map_err(error),
        (Kind::IvfSingle, Front::Device { system, db }) => system
            .ivf_search_with_nprobe(*db, &queries[first], K, cfg.scale.nprobe)
            .map(|o| Replies::Device(vec![o]))
            .map_err(error),
        (Kind::Cluster4Bf, Front::Cluster(cluster)) => cluster
            .search(&queries[first], K)
            .map(|o| Replies::Cluster(Box::new(o)))
            .map_err(error),
        _ => Err("workload kind and system do not match".into()),
    }
}

/// Modelled joules of one cluster query. `ClusterSearchOutcome` carries no
/// energy, so the benchmark prices the leaves' summed activity the way
/// `reis_bench::fullscale::estimate_reis` prices an activity, and charges
/// the static power of every leaf for the query's modelled latency.
fn cluster_joules(outcome: &ClusterSearchOutcome, perf: &PerfModel, energy: &EnergyModel) -> f64 {
    let activity = outcome.activity.activity;
    let flash = activity_flash_stats(&activity, perf.config());
    let breakdown = energy.query_energy(
        &flash,
        flash.bytes_to_controller,
        perf.core_busy(&activity, K),
        outcome.latency,
    );
    breakdown.total_j() + breakdown.static_j * (outcome.activity.leaves.max(1) - 1) as f64
}

/// `(id, distance bits)` of every result of one reply.
type Signature = Vec<(usize, u32)>;

/// What the reference pass established: per query of the corpus, the
/// bit-exact signature every later reply must reproduce, and the exact
/// model-clock sums.
struct Reference {
    signatures: Vec<Signature>,
    sums: ModelSums,
    merged_candidates: u64,
}

/// Validate every reply of one call and, given the signatures `expected` of
/// the queries it asked, compare it with the reference.
fn verify(
    replies: &Result<Replies, String>,
    width: usize,
    dataset: &SyntheticDataset,
    expected: Option<&[&Signature]>,
    tally: &mut Tally,
) {
    let replies = match replies {
        Ok(replies) => replies,
        Err(message) => {
            for _ in 0..width {
                tally.op(Err(message.clone()));
            }
            return;
        }
    };
    let documents = dataset.documents();
    for (offset, (results, docs)) in replies.each().into_iter().enumerate() {
        let checked = validate_reply(results, docs, Expect::Exactly(K), |id| {
            documents.get(id).map(Vec::as_slice)
        })
        .and_then(|()| match expected {
            Some(expected) if *expected[offset] != signature(results) => {
                Err("a query answered differently than in the reference pass".to_string())
            }
            _ => Ok(()),
        });
        tally.op(checked);
    }
}

/// What the measured phases of one run share.
#[derive(Clone, Copy)]
struct Session<'a> {
    kind: Kind,
    cfg: &'a RunCfg,
    calibrator: &'a Calibrator,
    dataset: &'a SyntheticDataset,
    /// The queries in the order this run asks them, and for each the
    /// signature the reference pass recorded.
    queries: &'a [Vec<f32>],
    expected: &'a [&'a Signature],
}

impl Session<'_> {
    /// One measured phase: timed calls until each block's slice ends, every
    /// reply verified outside the timed region. With a recorder, each call
    /// also becomes a span whose children are the system's own trace of it.
    fn phase(
        &self,
        front: &mut Front,
        tally: &mut Tally,
        mut recorder: Option<&mut TraceRecorder>,
    ) -> Measurement {
        let Session {
            kind, cfg, queries, ..
        } = *self;
        let (blocks, seconds) = cfg.phase();
        let width = kind.width();
        let mut call = 0usize;
        measure(self.calibrator, blocks, seconds, |_, block: &mut Block| {
            while block.open() {
                let started = Instant::now();
                let replies = block.call(width as u64, || issue(kind, cfg, front, queries, call));
                if let Some(recorder) = recorder.as_deref_mut() {
                    let ns = started.elapsed().as_nanos() as u64;
                    let system_trace = match front {
                        Front::Device { system, .. } => system.telemetry().last_trace(),
                        Front::Cluster(cluster) => cluster.telemetry().last_trace(),
                    };
                    recorder.call(
                        kind.call_name(),
                        started,
                        ns,
                        system_trace.as_ref(),
                        width as u64,
                    );
                }
                let first = (call % (queries.len() / width)) * width;
                verify(
                    &replies,
                    width,
                    self.dataset,
                    Some(&self.expected[first..first + width]),
                    tally,
                );
                call += 1;
            }
        })
    }
}

/// Run one of the four workloads.
pub fn run(kind: Kind, cfg: &RunCfg, calibrator: &Calibrator) -> Result<Report, String> {
    let reps = if cfg.trace { 1 } else { cfg.scale.setup_reps };
    let (built, setup_s) = median_setup(reps, || build(kind, cfg));
    let Built {
        dataset,
        mut front,
        database_s,
        deploy_s,
    } = built?;
    let queries = dataset.queries();
    let width = kind.width();
    if queries.len() < width || !queries.len().is_multiple_of(width) {
        return Err(format!(
            "{} queries do not split into calls of {width}",
            queries.len()
        ));
    }
    let config = system_config();
    let page_bytes = config.ssd.geometry.page_size_bytes;
    let (perf, energy) = (PerfModel::new(config), EnergyModel::default());
    let mut tally = Tally::new();

    // Reference pass: every query once, in the corpus's own order. It warms
    // the system up (its times are discarded), yields the exact model-clock
    // numbers, and fixes the answer every timed repetition of a query must
    // reproduce.
    let mut reference = Reference {
        signatures: Vec::with_capacity(queries.len()),
        sums: ModelSums::default(),
        merged_candidates: 0,
    };
    for call in 0..queries.len() / width {
        let replies = issue(kind, cfg, &mut front, queries, call);
        verify(&replies, width, &dataset, None, &mut tally);
        match replies? {
            Replies::Device(outcomes) => {
                for outcome in &outcomes {
                    reference.signatures.push(signature(&outcome.results));
                    reference.sums.add(outcome, page_bytes);
                }
            }
            Replies::Cluster(outcome) => {
                reference.signatures.push(signature(&outcome.results));
                let sums = &mut reference.sums;
                sums.requests += 1;
                sums.latencies_ns.push(outcome.latency.as_nanos());
                sums.joules += cluster_joules(&outcome, &perf, &energy);
                sums.add_activity(&outcome.activity.activity, page_bytes);
                reference.merged_candidates += outcome.activity.merged_candidates as u64;
            }
        }
    }
    let sums = reference.sums.clone();

    // The timed traffic: the same queries in the order `--seed` draws.
    let order = cfg.query_order(queries.len());
    let asked: Vec<Vec<f32>> = order.iter().map(|&q| queries[q].clone()).collect();
    let expected: Vec<&Signature> = order.iter().map(|&q| &reference.signatures[q]).collect();
    let session = Session {
        kind,
        cfg,
        calibrator,
        dataset: &dataset,
        queries: &asked,
        expected: &expected,
    };
    let untraced = session.phase(&mut front, &mut tally, None);
    let peak_rss_mb = harness::peak_rss_mb();

    // Traced run: the same phase again with telemetry on, each call a span.
    let mut traced = None;
    let mut single_twin = None;
    if cfg.trace {
        if kind == Kind::Cluster4Bf {
            // The single-device twin, measured between the two cluster
            // phases so drift hits both sides alike.
            let (system, db) = flat_device(&dataset)?;
            let mut twin = Front::Device {
                system: Box::new(system),
                db,
            };
            let as_single = Session {
                kind: Kind::BfSingle,
                ..session
            };
            single_twin = Some(as_single.phase(&mut twin, &mut tally, None));
        }
        match &mut front {
            Front::Device { system, .. } => system.enable_telemetry(),
            Front::Cluster(cluster) => cluster.enable_telemetry(),
        }
        let mut recorder = TraceRecorder::new();
        let measured = session.phase(&mut front, &mut tally, Some(&mut recorder));
        traced = Some((measured, recorder));
    }

    // Identity sample: batch and cluster replies must be bit-identical to
    // `ReisSystem::search` on a single device.
    let sample = cfg.scale.identity_sample.min(queries.len());
    let mut hold_to_single = |system: &mut ReisSystem, db: u32| {
        for (q, query) in queries.iter().enumerate().take(sample) {
            tally.op(match system.search(db, query, K) {
                Ok(o) if signature(&o.results) == reference.signatures[q] => Ok(()),
                Ok(_) => Err(format!(
                    "{} reply {q} differs from ReisSystem::search on a single device",
                    kind.name()
                )),
                Err(e) => Err(format!("identity search {q}: {e}")),
            });
        }
    };
    match (kind, &mut front) {
        (Kind::BfBatch8, Front::Device { system, db }) => hold_to_single(system, *db),
        // (A traced run already held the twin to the reference above.)
        (Kind::Cluster4Bf, _) if single_twin.is_none() => {
            let (mut system, db) = flat_device(&dataset)?;
            hold_to_single(&mut system, db);
        }
        _ => {}
    }

    // Recall against exact f32 neighbours; below the floor the run fails.
    let corpus: Vec<(usize, &[f32])> = dataset
        .vectors()
        .iter()
        .enumerate()
        .map(|(id, v)| (id, v.as_slice()))
        .collect();
    let truth = exact_top_k(&corpus, queries, K, cfg.nproc);
    let retrieved: Vec<Vec<usize>> = reference
        .signatures
        .iter()
        .map(|signature| signature.iter().map(|&(id, _)| id).collect())
        .collect();
    let recall = mean_recall(&retrieved, &truth, K);
    tally.invariant(recall >= kind.recall_floor(), || {
        format!(
            "{} recall@{K} {recall:.4} is below the floor {}",
            kind.name(),
            kind.recall_floor()
        )
    });

    let Some((traced, recorder)) = traced else {
        let mut report = Report::new(tally);
        report.push_host_end_to_end(&untraced, setup_s, peak_rss_mb);
        // Closed loop, one request in flight: modelled throughput is
        // requests over summed modelled latency. A batch shares the device,
        // so it takes as long as its slowest member.
        let model_seconds: f64 = sums
            .latencies_ns
            .chunks(width)
            .map(|call| call.iter().copied().max().unwrap_or(0) as f64 / 1e9)
            .sum();
        report.push_model_end_to_end(sums.requests as f64 / model_seconds, &sums.latencies_ns);
        report.push("model_qps_per_watt", sums.requests as f64 / sums.joules);
        report.push("recall_at_10", recall);
        report.push("paper_gap_pct", paper::gap_pct());
        return Ok(report);
    };

    // Per-layer metrics.
    let totals = recorder.totals().clone();
    if kind != Kind::BfBatch8 {
        // (A batch's children are one query's share scaled up, an estimate
        // not worth gating on.)
        tally.invariant(totals.unattributed_pct() <= UNATTRIBUTED_LIMIT_PCT, || {
            format!(
                "{:.1} % of {}'s call time is not covered by spans (limit {UNATTRIBUTED_LIMIT_PCT} %)",
                totals.unattributed_pct(),
                kind.name()
            )
        });
    }
    let retries = match &front {
        Front::Cluster(cluster) => Some(cluster.telemetry().counter(CounterId::LeafRetries)),
        Front::Device { .. } => None,
    };
    let mut report = Report::new(tally);
    report.push_host_layer(&untraced, true, sums.mean_model_us());
    report.push_telemetry_overhead(&untraced, &traced);
    sums.push_layer_counts(&mut report);
    if kind != Kind::Cluster4Bf {
        report.push(
            "nand.pages_programmed_per_op",
            sums.per_op(sums.pages_programmed),
        );
    }
    report.push("core.deploy_s", deploy_s);
    report.push("core.unattributed_pct", totals.unattributed_pct());
    if kind == Kind::IvfSingle {
        report.push("ann.kmeans_build_s", database_s);
    }
    match kind {
        Kind::Cluster4Bf => {
            report.push("cluster.leaf_us", totals.mean_leaf_us());
            report.push(
                "cluster.slowest_leaf_us",
                totals.slowest_leaf_ns as f64 / 1e3 / totals.calls.max(1) as f64,
            );
            report.push("cluster.merge_us", totals.stage_us_per_call("merge"));
            report.push(
                "cluster.doc_fetch_us",
                totals.stage_us_per_call("doc_fetch"),
            );
            report.push(
                "cluster.candidates_merged_per_op",
                reference.merged_candidates as f64 / sums.requests.max(1) as f64,
            );
            report.push("cluster.retries", retries.unwrap_or(0) as f64);
            if let Some(single) = &single_twin {
                let (cluster_qps, single_qps) = (untraced.wall_qps(), single.wall_qps());
                if cluster_qps > 0.0 {
                    report.push(
                        "cluster.overhead_vs_single_pct",
                        (single_qps / cluster_qps - 1.0) * 100.0,
                    );
                }
            }
        }
        _ => {
            for (name, stage) in [
                ("core.broadcast_us", "broadcast"),
                ("core.coarse_scan_us", "coarse_scan"),
                ("core.fine_scan_us", "fine_scan"),
                ("core.rerank_us", "rerank"),
                ("core.doc_fetch_us", "doc_fetch"),
            ] {
                report.push(name, totals.stage_us_per_call(stage));
            }
        }
    }

    // Probes, sized by this workload's own activity.
    push_search_probes(&mut report, &sums, width, &dataset, &queries[0]);
    let slot_bytes = dataset.profile().binary_bytes().next_power_of_two();
    report.push("kernels.crc32c_gbps", probes::crc32c_gbps());
    report.push("nand.page_read_ns", probes::nand_page_read_ns());
    report.push(
        "nand.oob_unpack_ns_per_entry",
        probes::oob_unpack_ns_per_entry(page_bytes / slot_bytes),
    );
    let dispatch_us = match &front {
        Front::Device { system, .. } => probes::scope_dispatch_us(system.scheduler(), cfg.nproc),
        Front::Cluster(_) => {
            probes::scope_dispatch_us(&reis::core::WorkerPool::new(cfg.nproc), cfg.nproc)
        }
    };
    report.push("sched.scope_dispatch_us", dispatch_us);
    report.push(
        "sched.dispatch_us_per_op",
        dispatch_us * sums.per_op(sums.fine_windows).max(1.0),
    );
    report.spans = Some(recorder);
    Ok(report)
}
