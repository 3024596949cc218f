//! The seven workloads and what they share: run configuration, the report
//! a run produces, and the pieces every workload assembles it from.

pub mod mutate;
pub mod paper;
pub mod pipeline;
pub mod search;

use std::path::PathBuf;

use reis::core::{ReisConfig, ReisSystem, SearchOutcome, VectorDatabase};
use reis::workloads::{DatasetProfile, SyntheticDataset};

use crate::calib::Calibrator;
use crate::checks::{Tally, K};
use crate::harness::{self, Measurement};
use crate::probes;
use crate::stats;
use crate::trace::TraceRecorder;

/// Sizes of one run. Everything a full run fixes lives here so a smoke run
/// is the same code on a smaller corpus.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus entries.
    pub entries: usize,
    /// Queries generated with the corpus.
    pub queries: usize,
    /// IVF clusters.
    pub nlist: usize,
    /// IVF clusters probed per query.
    pub nprobe: usize,
    /// Measured blocks of an untraced run.
    pub blocks: usize,
    /// Blocks of each phase (telemetry off, then on) of a traced run.
    pub traced_blocks: usize,
    /// Upper limit on set-up repetitions (see [`median_setup`]).
    pub setup_reps: usize,
    /// Requests of the pipeline workload's arrival trace.
    pub pipeline_requests: usize,
    /// Trace operations `mutate_durable` applies per second of `--seconds`
    /// (its work is fixed by its inputs, not by the clock).
    pub mutate_ops_per_second: usize,
    /// Mutations applied between `save` and the simulated crash.
    pub post_save_mutations: usize,
    /// Replies compared bit for bit against a single-device reference.
    pub identity_sample: usize,
    /// Whether this is the shrunken wiring check (numbers not comparable).
    pub smoke: bool,
}

impl Scale {
    /// The fixed benchmark.
    pub fn full() -> Self {
        Scale {
            entries: 32_768,
            queries: 256,
            nlist: 64,
            nprobe: 8,
            blocks: 7,
            traced_blocks: 3,
            setup_reps: 3,
            pipeline_requests: 1_024,
            mutate_ops_per_second: 500,
            post_save_mutations: 500,
            identity_sample: 32,
            smoke: false,
        }
    }

    /// The wiring check: 4,096 entries, 2 blocks.
    pub fn smoke() -> Self {
        Scale {
            entries: 4_096,
            queries: 64,
            blocks: 2,
            traced_blocks: 1,
            setup_reps: 1,
            pipeline_requests: 128,
            post_save_mutations: 100,
            identity_sample: 8,
            smoke: true,
            ..Scale::full()
        }
    }
}

/// Everything one run is parameterised by.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Host cores.
    pub nproc: usize,
    /// Scratch directory for durable stores, inside the checkout.
    pub work_dir: PathBuf,
}

/// Seed of the corpus. The corpus and its query set are the benchmark's
/// dataset and stay the same whatever `--seed` says; the seed drives the
/// traffic — the order queries are asked in, the arrival trace. (A corpus per
/// seed was tried: IVF recall then ranged 0.74 – 0.97 and modelled QPS +-4 %
/// from seed to seed, so no tight bound could be put on the exact metrics.
/// So was a seeded sample of a larger query pool: still +-3 %.)
const CORPUS_SEED: u64 = 47;

impl RunCfg {
    /// The corpus with its in-distribution queries.
    pub fn dataset(&self) -> SyntheticDataset {
        SyntheticDataset::generate(
            DatasetProfile::hotpotqa()
                .scaled(self.scale.entries)
                .with_queries(self.scale.queries),
            CORPUS_SEED,
        )
    }

    /// The order this run asks the corpus's `queries` queries in: a
    /// permutation of their indices drawn from `--seed`.
    pub fn query_order(&self, queries: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..queries).collect();
        let mut state = self.seed ^ 0x5EED_0F7A_FF1C;
        for i in (1..order.len()).rev() {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            order.swap(i, (z % (i as u64 + 1)) as usize);
        }
        order
    }

    /// Blocks and seconds of one measured phase: an untraced run spends
    /// `--seconds` on its blocks, a traced run splits them between the
    /// telemetry-off and telemetry-on phases.
    pub fn phase(&self) -> (usize, f64) {
        if self.trace {
            (self.scale.traced_blocks, self.seconds / 2.0)
        } else {
            (self.scale.blocks, self.seconds)
        }
    }
}

/// Every system is built from these defaults.
pub fn system_config() -> ReisConfig {
    ReisConfig::ssd1()
}

/// Build the host-side database of a corpus, timed: IVF (k-means over
/// `nlist` clusters) or flat.
///
/// # Errors
///
/// The database builder's error, as text.
pub fn build_database(
    dataset: &SyntheticDataset,
    cfg: &RunCfg,
    ivf: bool,
) -> Result<(VectorDatabase, f64), String> {
    let (database, ns) = harness::timed(|| {
        if ivf {
            VectorDatabase::ivf(
                dataset.vectors(),
                dataset.documents_owned(),
                cfg.scale.nlist,
            )
        } else {
            VectorDatabase::flat(dataset.vectors(), dataset.documents_owned())
        }
    });
    let database = database.map_err(|e| format!("VectorDatabase: {e}"))?;
    Ok((database, ns as f64 / 1e9))
}

/// One volatile single-device deployment of the run's corpus.
pub struct Device {
    /// The corpus and its queries.
    pub dataset: SyntheticDataset,
    /// The system, built from [`system_config`].
    pub system: ReisSystem,
    /// The deployed database's id.
    pub db: u32,
    /// Seconds the host-side database build took.
    pub database_s: f64,
    /// Seconds constructing the system and deploying took.
    pub deploy_s: f64,
}

/// Generate the corpus, build its database and deploy it on a fresh
/// `ReisSystem::new`.
///
/// # Errors
///
/// The builder's or the deployment's error, as text.
pub fn build_device(cfg: &RunCfg, ivf: bool) -> Result<Device, String> {
    let dataset = cfg.dataset();
    let (database, database_s) = build_database(&dataset, cfg, ivf)?;
    let (deployed, deploy_ns) = harness::timed(|| {
        let mut system = ReisSystem::new(system_config());
        system.deploy(&database).map(|db| (system, db))
    });
    let (system, db) = deployed.map_err(|e| format!("deploy: {e}"))?;
    Ok(Device {
        dataset,
        system,
        db,
        database_s,
        deploy_s: deploy_ns as f64 / 1e9,
    })
}

/// What a run hands back to the reporter.
pub struct Report {
    /// `(name, value)` of every metric defined for the workload in this
    /// kind of run, in catalogue names.
    pub metrics: Vec<(&'static str, f64)>,
    /// Block-to-block spread of the host end-to-end metrics, % (what
    /// `compare` uses to call a difference unresolved).
    pub spreads: Vec<(&'static str, f64)>,
    /// Per block: yardstick ms, requests/s, p50 µs, p95 µs.
    pub block_log: Vec<[f64; 4]>,
    /// Latency samples behind the host percentiles.
    pub samples: u64,
    /// Attempted / failed operations and invariants.
    pub tally: Tally,
    /// The benchmark-side spans of a traced run.
    pub spans: Option<TraceRecorder>,
}

impl Report {
    /// An empty report around a tally.
    pub fn new(tally: Tally) -> Self {
        Report {
            metrics: Vec::new(),
            spreads: Vec::new(),
            block_log: Vec::new(),
            samples: 0,
            tally,
            spans: None,
        }
    }

    /// Add one metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The host-clock end-to-end metrics of an untraced run. Blocks are
    /// replicates of each other, so throughput and percentiles are the
    /// median block's and the blocks' spread says how far to trust them.
    pub fn push_host_end_to_end(&mut self, measured: &Measurement, setup_s: f64, peak_rss_mb: f64) {
        self.samples = measured.samples();
        self.push("wall_qps", measured.wall_qps());
        self.push("wall_p50_us", measured.percentile_us(0.50));
        self.push("wall_p95_us", measured.percentile_us(0.95));
        self.spreads.push(("wall_qps", measured.qps_spread_pct()));
        self.spreads
            .push(("wall_p50_us", measured.percentile_spread_pct(0.50)));
        self.spreads
            .push(("wall_p95_us", measured.percentile_spread_pct(0.95)));
        self.push("setup_s", setup_s);
        self.push("peak_rss_mb", peak_rss_mb);
        self.block_log = measured
            .blocks
            .iter()
            .map(|b| {
                [
                    b.calib_ms,
                    b.qps(),
                    stats::percentile(&b.latencies_us, 0.5),
                    stats::percentile(&b.latencies_us, 0.95),
                ]
            })
            .collect();
    }

    /// The model-clock end-to-end metrics: throughput and the latency
    /// percentiles of `latencies_ns` (one modelled latency per request).
    pub fn push_model_end_to_end(&mut self, model_qps: f64, latencies_ns: &[u64]) {
        self.push("model_qps", model_qps);
        self.push(
            "model_p50_us",
            stats::percentile_ns_as_us(latencies_ns, 0.50),
        );
        self.push(
            "model_p99_us",
            stats::percentile_ns_as_us(latencies_ns, 0.99),
        );
    }

    /// The `host.*` layer metrics of a traced run, from its telemetry-off
    /// phase; `model_us_per_op` is the modelled time of the same operation.
    /// With `stationary` blocks (replicates of each other) throughput is the
    /// median block's; otherwise (the chunks of a mutation trace, whose later
    /// ones cost more by design) it is taken over the whole run.
    pub fn push_host_layer(
        &mut self,
        untraced: &Measurement,
        stationary: bool,
        model_us_per_op: f64,
    ) {
        let pooled = untraced.pooled_us();
        self.samples = pooled.len() as u64;
        self.push("host.calib_ms", untraced.calib_ms());
        if stationary {
            self.push("host.raw_wall_qps", untraced.wall_qps());
            self.push("host.block_spread_pct", untraced.qps_spread_pct());
        } else {
            self.push("host.raw_wall_qps", untraced.whole_run_qps());
        }
        self.push("host.wall_p99_us", stats::percentile(&pooled, 0.99));
        self.push("host.cpu_us_per_op", untraced.cpu_us_per_op());
        self.push("host.cores_busy", untraced.cores_busy());
        if model_us_per_op > 0.0 {
            let host_us_per_op = 1e6 / untraced.whole_run_qps().max(f64::MIN_POSITIVE);
            self.push("host.wall_over_model", host_us_per_op / model_us_per_op);
        }
        self.push("host.fail_ratio", self.tally.fail_ratio());
    }

    /// `telemetry.overhead_pct`: the throughput the telemetry-on phase lost
    /// against the telemetry-off phase of the same run.
    pub fn push_telemetry_overhead(&mut self, untraced: &Measurement, traced: &Measurement) {
        let off = untraced.wall_qps();
        if off > 0.0 {
            self.push(
                "telemetry.overhead_pct",
                (off - traced.wall_qps()) / off * 100.0,
            );
        }
    }
}

/// Run `setup` up to `reps` times, stopping early once the set-ups have
/// taken `SETUP_BUDGET_S` in total, and return the last product with the
/// median set-up time. A repetition's product is dropped before the next
/// one starts so set-up memory is not counted twice.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    /// Enough for three set-ups of the flat workloads; the IVF ones, whose
    /// k-means takes seconds and is correspondingly steady, set up once.
    const SETUP_BUDGET_S: f64 = 4.0;
    let mut times = Vec::new();
    let mut spent = 0.0;
    loop {
        let (product, ns) = harness::timed(&mut setup);
        let seconds = ns as f64 / 1e9;
        times.push(seconds);
        spent += seconds;
        if times.len() >= reps.max(1) || spent >= SETUP_BUDGET_S {
            return (product, stats::median(&times));
        }
        drop(product);
    }
}

/// Sums over the reference pass of a search workload: exact, because the
/// pass is the same calls on the same inputs in every run of a seed.
#[derive(Debug, Default, Clone)]
pub struct ModelSums {
    /// Requests summed.
    pub requests: u64,
    /// Modelled latency of each request, ns.
    pub latencies_ns: Vec<u64>,
    /// Modelled joules over all requests.
    pub joules: f64,
    /// Per-stage modelled ns: broadcast, coarse, fine, select, rerank,
    /// document fetch, host transfer.
    pub stage_ns: [u64; 7],
    /// Pages sensed / programmed.
    pub pages_sensed: u64,
    /// Pages programmed.
    pub pages_programmed: u64,
    /// Embedding slots the scans covered.
    pub slots_scanned: u64,
    /// Entries that passed the filter and moved to the controller.
    pub entries_transferred: u64,
    /// Rerank candidates.
    pub rerank_candidates: u64,
    /// Adaptive-window barriers.
    pub fine_windows: u64,
    /// Pages the scans covered (coarse + fine), per request summed.
    pub pages_scanned: u64,
}

impl ModelSums {
    /// Fold one search outcome in.
    pub fn add(&mut self, outcome: &SearchOutcome, page_size_bytes: usize) {
        let activity = &outcome.activity;
        let latency = &outcome.latency;
        self.requests += 1;
        self.latencies_ns.push(outcome.total_latency().as_nanos());
        self.joules += outcome.energy.total_j();
        for (slot, stage) in self.stage_ns.iter_mut().zip([
            latency.input_broadcast,
            latency.coarse_scan,
            latency.fine_scan,
            latency.select,
            latency.rerank,
            latency.document_fetch,
            latency.host_transfer,
        ]) {
            *slot += stage.as_nanos();
        }
        self.pages_sensed += outcome.flash_stats.page_reads;
        self.pages_programmed += outcome.flash_stats.page_programs;
        self.add_activity(activity, page_size_bytes);
    }

    /// Fold the scan counters of one request in.
    pub fn add_activity(&mut self, activity: &reis::core::QueryActivity, page_size_bytes: usize) {
        let pages = (activity.coarse_pages + activity.fine_pages) as u64;
        let slots_per_page = (page_size_bytes / activity.embedding_slot_bytes.max(1)) as u64;
        self.pages_scanned += pages;
        self.slots_scanned += pages * slots_per_page;
        self.entries_transferred += (activity.coarse_entries + activity.fine_entries) as u64;
        self.rerank_candidates += activity.rerank_candidates as u64;
        self.fine_windows += activity.fine_windows as u64;
    }

    /// Sum of the modelled latencies, seconds.
    pub fn model_seconds(&self) -> f64 {
        self.latencies_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Mean modelled latency, µs.
    pub fn mean_model_us(&self) -> f64 {
        self.model_seconds() * 1e6 / self.requests.max(1) as f64
    }

    /// Mean of a counter per request.
    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.requests.max(1) as f64
    }

    /// The exact layer metrics every search-serving workload shares, but for
    /// `nand.pages_programmed_per_op` (searches program nothing; the caller
    /// knows whether its operations do). A cluster reply carries neither
    /// flash counters nor a stage breakdown; those groups are left out
    /// rather than reported as zero.
    pub fn push_layer_counts(&self, report: &mut Report) {
        if self.pages_sensed > 0 {
            report.push("nand.pages_sensed_per_op", self.per_op(self.pages_sensed));
        }
        report.push(
            "ssd.entries_scanned_per_op",
            self.per_op(self.slots_scanned),
        );
        report.push(
            "ssd.entries_transferred_per_op",
            self.per_op(self.entries_transferred),
        );
        if self.slots_scanned > 0 {
            report.push(
                "ssd.filter_pass_ratio",
                self.entries_transferred as f64 / self.slots_scanned as f64,
            );
        }
        report.push(
            "ann.rerank_candidates_per_op",
            self.per_op(self.rerank_candidates),
        );
        report.push("core.fine_windows_per_op", self.per_op(self.fine_windows));
        let stages = if self.stage_ns.iter().any(|&ns| ns > 0) {
            &self.stage_ns[..]
        } else {
            &[]
        };
        for (name, &ns) in [
            "core.model.broadcast_us",
            "core.model.coarse_scan_us",
            "core.model.fine_scan_us",
            "core.model.select_us",
            "core.model.rerank_us",
            "core.model.doc_fetch_us",
            "core.model.host_transfer_us",
        ]
        .into_iter()
        .zip(stages)
        {
            report.push(name, self.per_op(ns) / 1e3);
        }
        if self.joules > 0.0 {
            report.push(
                "core.energy_uj_per_op",
                self.joules * 1e6 / self.requests.max(1) as f64,
            );
        }
    }
}

/// The probes every search-serving workload runs in its traced run: the
/// scan kernel at the workload's batch `width`, query quantisation, and
/// select / rerank at the workload's own mean candidate counts.
pub fn push_search_probes(
    report: &mut Report,
    sums: &ModelSums,
    width: usize,
    dataset: &SyntheticDataset,
    query: &[f32],
) {
    let config = system_config();
    let page_bytes = config.ssd.geometry.page_size_bytes;
    let slot_bytes = dataset.profile().binary_bytes().next_power_of_two();
    let scan_ns =
        probes::kernel_scan_ns_per_page(slot_bytes, width, config.filter_threshold_fraction);
    report.push("kernels.scan_ns_per_page", scan_ns);
    // A fused batch scans the union of its queries' pages once, so a call
    // covers what one of its requests covers.
    report.push(
        "kernels.scan_us_per_op",
        scan_ns * sums.per_op(sums.pages_scanned) / 1e3,
    );
    report.push("kernels.scan_gbps", page_bytes as f64 / scan_ns);
    report.push("ann.quantize_us", probes::quantize_us(query));
    let transferred = sums.per_op(sums.entries_transferred).round() as usize;
    let candidates = sums.per_op(sums.rerank_candidates).round() as usize;
    report.push(
        "ann.select_us_per_op",
        probes::select_us(transferred.max(candidates + 1), candidates.max(1)),
    );
    report.push(
        "ann.rerank_us_per_op",
        probes::rerank_us(candidates.max(K), dataset.profile().dim, K),
    );
}

/// Run one workload by name.
///
/// # Errors
///
/// An unknown name, or a set-up step the system refused.
pub fn run(name: &str, cfg: &RunCfg) -> Result<Report, String> {
    let calibrator = Calibrator::new();
    match name {
        "bf_single" => search::run(search::Kind::BfSingle, cfg, &calibrator),
        "bf_batch8" => search::run(search::Kind::BfBatch8, cfg, &calibrator),
        "ivf_single" => search::run(search::Kind::IvfSingle, cfg, &calibrator),
        "cluster4_bf" => search::run(search::Kind::Cluster4Bf, cfg, &calibrator),
        "pipeline_overload" => pipeline::run(cfg, &calibrator),
        "mutate_durable" => mutate::run(cfg, &calibrator),
        "paper_fullscale" => paper::run(cfg, &calibrator),
        other => Err(format!("unknown workload {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_setup_repeats_and_keeps_the_last_product() {
        let mut built = 0;
        let (product, seconds) = median_setup(3, || {
            built += 1;
            built
        });
        assert_eq!((product, built), (3, 3));
        assert!(seconds >= 0.0);
        let (product, _) = median_setup(0, || 7);
        assert_eq!(product, 7, "at least one set-up always runs");
    }
}
