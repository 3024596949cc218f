//! Batched execution: measured throughput and physical page senses of a
//! page-major batch versus the same queries issued one by one.
//!
//! `ReisSystem::search_batch` runs a batch as one request of the scan core:
//! the batch's probed pages are sensed once each and scored against every
//! in-flight query in a single pass over the page words. This benchmark
//! sweeps the batch size and reports:
//!
//! 1. **Wall-clock QPS** of the batch and of the one-by-one loop (best of a
//!    few rounds).
//! 2. **Pages sensed per query** — the device-level `page_reads` delta
//!    divided by the number of queries. This is the amortization headline:
//!    a batch senses the union once, single queries sense per query.
//! 3. **Results identity** — every batched outcome is asserted bit-identical
//!    (results, documents, activity, modelled latency) to running the same
//!    query alone through `ReisSystem::search`.
//! 4. The **modelled** single-sense/multi-score scan latency
//!    (`PerfModel::fused_scan`) against `B` independent modelled scans.
//!
//! (The committed `BENCH_pr4.json` compared the batch against per-worker
//! device replicas instead; that executor lost at every batch size there
//! and was deleted.)
//!
//! Results are written to `BENCH_fused.json` by default; pass `--output
//! PATH` (or set `REIS_BENCH_OUT`) to write elsewhere. Pass `--smoke` (or
//! set `REIS_BENCH_SMOKE=1`) for the fast CI configuration; the emitted
//! JSON records which mode produced it.

use std::time::Instant;

use reis_bench::report;
use reis_core::{PerfModel, ReisConfig, ReisSystem, SearchOutcome, VectorDatabase};
use reis_workloads::{DatasetProfile, SyntheticDataset};

const K: usize = 10;
const NPROBE: usize = 8;
const BATCH_SIZES: [usize; 4] = [1, 2, 4, 8];

struct Scale {
    mode: &'static str,
    bf_entries: usize,
    ivf_entries: usize,
    nlist: usize,
    min_measure_secs: f64,
}

impl Scale {
    fn pick() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke")
            || std::env::var("REIS_BENCH_SMOKE").is_ok_and(|v| v == "1");
        if smoke {
            Scale {
                mode: "smoke",
                bf_entries: 2_048,
                ivf_entries: 768,
                nlist: 16,
                min_measure_secs: 0.05,
            }
        } else {
            // 131072 entries = 1024 embedding pages: the brute-force scan
            // dominates the (batch-invariant) rerank/document senses, so
            // the batch-8 amortization is visible in the device totals.
            Scale {
                mode: "full",
                bf_entries: 131_072,
                ivf_entries: 10_240,
                nlist: 64,
                min_measure_secs: 0.3,
            }
        }
    }
}

struct BatchPoint {
    batch: usize,
    fused_qps: f64,
    single_qps: f64,
    fused_senses_per_query: f64,
    single_senses_per_query: f64,
}

impl BatchPoint {
    fn sense_reduction(&self) -> f64 {
        if self.fused_senses_per_query <= 0.0 {
            0.0
        } else {
            self.single_senses_per_query / self.fused_senses_per_query
        }
    }
}

/// How the queries are put to the system.
#[derive(Clone, Copy)]
enum Issue {
    /// One `search_batch` call.
    Batch,
    /// One `search` call per query.
    OneByOne,
}

fn run(
    system: &mut ReisSystem,
    db_id: u32,
    queries: &[Vec<f32>],
    nprobe: Option<usize>,
    issue: Issue,
) -> Vec<SearchOutcome> {
    match (issue, nprobe) {
        (Issue::Batch, Some(np)) => system
            .ivf_search_batch_with_nprobe(db_id, queries, K, np, queries.len())
            .expect("batch search"),
        (Issue::Batch, None) => system
            .search_batch(db_id, queries, K, queries.len())
            .expect("batch search"),
        (Issue::OneByOne, _) => queries
            .iter()
            .map(|q| match nprobe {
                Some(np) => system.ivf_search_with_nprobe(db_id, q, K, np),
                None => system.search(db_id, q, K),
            })
            .collect::<Result<_, _>>()
            .expect("search"),
    }
}

/// Wall-clock QPS of the queries: repeat until at least `min_secs` have
/// been measured and report the best single-round rate.
fn measure_qps(
    system: &mut ReisSystem,
    db_id: u32,
    queries: &[Vec<f32>],
    nprobe: Option<usize>,
    issue: Issue,
    min_secs: f64,
) -> f64 {
    let mut best = 0.0f64;
    let mut elapsed_total = 0.0;
    while elapsed_total < min_secs {
        let start = Instant::now();
        let outcomes = run(system, db_id, queries, nprobe, issue);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(outcomes.len(), queries.len());
        elapsed_total += secs;
        best = best.max(queries.len() as f64 / secs);
    }
    best
}

/// Device-level page senses of exactly one round of the queries, per query.
fn measure_senses(
    system: &mut ReisSystem,
    db_id: u32,
    queries: &[Vec<f32>],
    nprobe: Option<usize>,
    issue: Issue,
) -> f64 {
    let before = system.controller().device().stats().page_reads;
    run(system, db_id, queries, nprobe, issue);
    let delta = system.controller().device().stats().page_reads - before;
    delta as f64 / queries.len() as f64
}

/// One query's reference signature: result ids, distances and documents.
fn signature(outcome: &SearchOutcome) -> (Vec<(usize, f32)>, Vec<Vec<u8>>) {
    (
        outcome.results.iter().map(|n| (n.id, n.distance)).collect(),
        outcome.documents.clone(),
    )
}

fn sweep(
    system: &mut ReisSystem,
    db_id: u32,
    queries: &[Vec<f32>],
    nprobe: Option<usize>,
    min_secs: f64,
    label: &str,
) -> Vec<BatchPoint> {
    // One-by-one references for the identity assertion.
    let reference: Vec<_> = run(system, db_id, queries, nprobe, Issue::OneByOne)
        .iter()
        .map(|outcome| (signature(outcome), outcome.latency, outcome.activity))
        .collect();

    println!("\n{label}:");
    BATCH_SIZES
        .iter()
        .map(|&batch| {
            let chunk = &queries[..batch.min(queries.len())];
            // Identity: every batched outcome equals its one-by-one reference.
            let outcomes = run(system, db_id, chunk, nprobe, Issue::Batch);
            for (i, outcome) in outcomes.iter().enumerate() {
                let (expected_sig, expected_latency, expected_activity) = &reference[i];
                assert_eq!(&signature(outcome), expected_sig, "results, query {i}");
                assert_eq!(&outcome.latency, expected_latency, "latency, query {i}");
                assert_eq!(&outcome.activity, expected_activity, "activity, query {i}");
            }
            let fused_senses = measure_senses(system, db_id, chunk, nprobe, Issue::Batch);
            let single_senses = measure_senses(system, db_id, chunk, nprobe, Issue::OneByOne);
            let fused_qps = measure_qps(system, db_id, chunk, nprobe, Issue::Batch, min_secs);
            let single_qps = measure_qps(system, db_id, chunk, nprobe, Issue::OneByOne, min_secs);
            let point = BatchPoint {
                batch,
                fused_qps,
                single_qps,
                fused_senses_per_query: fused_senses,
                single_senses_per_query: single_senses,
            };
            println!(
                "    batch {batch:>2}  batched {fused_qps:>9.1} QPS / {fused_senses:>8.1} senses-per-query   \
                 one-by-one {single_qps:>9.1} QPS / {single_senses:>8.1} senses-per-query   \
                 sense reduction {:.2}x",
                point.sense_reduction()
            );
            point
        })
        .collect()
}

fn points_json(points: &[BatchPoint]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "      {{ \"batch\": {}, \"fused_qps\": {:.1}, \"one_by_one_qps\": {:.1}, \
                 \"fused_senses_per_query\": {:.1}, \"one_by_one_senses_per_query\": {:.1}, \
                 \"sense_reduction\": {:.2} }}",
                p.batch,
                p.fused_qps,
                p.single_qps,
                p.fused_senses_per_query,
                p.single_senses_per_query,
                p.sense_reduction()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let scale = Scale::pick();
    report::header(
        "Fused batch",
        "Page-major batch execution vs the same queries one by one",
    );
    println!(
        "mode {} · brute force {} entries · IVF {} entries, nlist {}",
        scale.mode, scale.bf_entries, scale.ivf_entries, scale.nlist
    );

    // ---- Brute force: a flat database, every query scans the whole
    // embedding region — the strongest case for sense amortization.
    println!("\nBuilding {}-entry flat dataset…", scale.bf_entries);
    let bf_dataset = SyntheticDataset::generate(
        DatasetProfile::hotpotqa()
            .scaled(scale.bf_entries)
            .with_queries(BATCH_SIZES[BATCH_SIZES.len() - 1]),
        59,
    );
    let bf_database = VectorDatabase::flat(bf_dataset.vectors(), bf_dataset.documents_owned())
        .expect("flat database");
    let mut bf_fused = ReisSystem::new(ReisConfig::ssd1());
    let bf_fused_id = bf_fused.deploy(&bf_database).expect("deploy");
    let bf_queries: Vec<Vec<f32>> = bf_dataset.queries().to_vec();
    let bf_points = sweep(
        &mut bf_fused,
        bf_fused_id,
        &bf_queries,
        None,
        scale.min_measure_secs,
        "Brute-force batch",
    );

    // ---- IVF: queries probe different cluster subsets; fusion amortizes
    // the centroid pages and every shared probed page.
    println!(
        "\nBuilding {}-entry IVF dataset (nlist {})…",
        scale.ivf_entries, scale.nlist
    );
    let ivf_dataset = SyntheticDataset::generate(
        DatasetProfile::hotpotqa()
            .scaled(scale.ivf_entries)
            .with_queries(BATCH_SIZES[BATCH_SIZES.len() - 1]),
        61,
    );
    let ivf_database = VectorDatabase::ivf(
        ivf_dataset.vectors(),
        ivf_dataset.documents_owned(),
        scale.nlist,
    )
    .expect("ivf database");
    let mut ivf_fused = ReisSystem::new(ReisConfig::ssd1());
    let ivf_fused_id = ivf_fused.deploy(&ivf_database).expect("deploy");
    let ivf_queries: Vec<Vec<f32>> = ivf_dataset.queries().to_vec();
    let ivf_points = sweep(
        &mut ivf_fused,
        ivf_fused_id,
        &ivf_queries,
        Some(NPROBE),
        scale.min_measure_secs,
        "IVF batch (nprobe 8)",
    );

    // ---- The modelled view of the same asymmetry: one fused pass over the
    // brute-force region scoring B queries versus B independent scans.
    let model = PerfModel::new(ReisConfig::ssd1());
    let layout = bf_fused.database(bf_fused_id).expect("db").layout;
    let pages = layout.embedding_pages;
    let entries_per_scan = layout.entries / 50; // a representative pass rate
    let batch8 = BATCH_SIZES[BATCH_SIZES.len() - 1];
    let modelled_fused_us = model
        .fused_scan(
            pages,
            batch8,
            entries_per_scan * batch8,
            layout.embedding_slot_bytes,
        )
        .as_secs_f64()
        * 1e6;
    let modelled_independent_us = model
        .scan(pages, entries_per_scan, layout.embedding_slot_bytes)
        .as_secs_f64()
        * 1e6
        * batch8 as f64;
    println!(
        "\nModelled batch-{batch8} brute-force scan: fused {modelled_fused_us:.1} us vs {modelled_independent_us:.1} us independent"
    );

    let bf_at_8 = bf_points.last().expect("batch-8 point");
    println!(
        "\nBrute-force batch 8: {:.2}x fewer senses per query, QPS {:.1} (batched) vs {:.1} (one by one)",
        bf_at_8.sense_reduction(),
        bf_at_8.fused_qps,
        bf_at_8.single_qps
    );
    if scale.mode == "full" {
        assert!(
            bf_at_8.sense_reduction() >= 4.0,
            "brute-force batch 8 must amortize senses by at least 4x, got {:.2}x",
            bf_at_8.sense_reduction()
        );
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"available_cores\": {cores},\n  \"mode\": \"{mode}\",\n  \
         \"results_identical_to_sequential\": true,\n  \
         \"brute_force\": {{\n    \"entries\": {bf_entries}, \"dim\": 1024,\n    \"points\": [\n{bf}\n    ]\n  }},\n  \
         \"ivf_nprobe{NPROBE}\": {{\n    \"entries\": {ivf_entries}, \"nlist\": {nlist},\n    \"points\": [\n{ivf}\n    ]\n  }},\n  \
         \"modelled_bf_scan_batch8_us\": {{ \"fused\": {modelled_fused_us:.1}, \"independent\": {modelled_independent_us:.1} }},\n  \
         \"bf_batch8_sense_reduction\": {:.2}\n}}\n",
        bf_at_8.sense_reduction(),
        mode = scale.mode,
        bf_entries = scale.bf_entries,
        ivf_entries = scale.ivf_entries,
        nlist = scale.nlist,
        bf = points_json(&bf_points),
        ivf = points_json(&ivf_points),
    );
    let path = report::output_path("BENCH_fused.json");
    std::fs::write(&path, json).expect("write benchmark json");
    println!("\nwrote {path}");
}
