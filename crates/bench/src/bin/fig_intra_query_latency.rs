//! Intra-query scan sharding: measured (wall-clock) single-query latency of
//! the functional simulator versus the shard count.
//!
//! Batching raises throughput *across* queries; this benchmark shows the
//! complementary REIS claim — that flash-internal parallelism shortens the
//! latency of *one* query — by
//! sweeping `ScanParallelism` over one deployment and timing individual
//! `search` / `ivf_search` calls. It also re-verifies, on every shard
//! count, that the sharded results are identical to the sequential scan.
//!
//! Results are written to `BENCH_intra_query.json` by default (the
//! committed `BENCH_pr2.json` is PR 2's recorded run; refreshing it takes
//! an explicit `--output BENCH_pr2.json`); pass `--output PATH` (or set
//! `REIS_BENCH_OUT`) to write elsewhere. Like all wall-clock benchmarks in
//! this repo, the scaling column is only meaningful on multi-core hosts —
//! the emitted JSON records `available_cores` so readers can tell (see
//! `docs/BENCHMARKS.md`).
//!
//! Adaptive distance filtering stays enabled (brute-force scans adapt by
//! default): since the windowed threshold schedule is partition-invariant,
//! the brute-force sweep genuinely shards while transferring the same
//! entries at every shard count — the per-point identity check covers the
//! adaptive path too. The window is raised to 64 pages because a window is
//! the unit of parallel work between two barriers: under the default
//! 16-page per-shard minimum the default 4-page window (tuned for transfer
//! cuts, not parallelism) would run every window sequentially and make the
//! BF sweep a no-op. (`fig_adaptive_window` sweeps the window size itself
//! and shows that trade.)

use std::time::Instant;

use reis_bench::report;
use reis_core::{ReisConfig, ReisSystem, ScanParallelism, VectorDatabase};
use reis_workloads::{DatasetProfile, SyntheticDataset};

const ENTRIES: usize = 32_768;
const NLIST: usize = 64;
const NPROBE: usize = 16;
const K: usize = 10;
const QUERIES: usize = 4;
const REPEATS: usize = 5;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct LatencyPoint {
    shards: usize,
    mean_us: f64,
    identical: bool,
}

/// Reference signature of one query's results: ids and distances in rank
/// order, used to check shard-count invariance.
fn signature(
    system: &mut ReisSystem,
    db_id: u32,
    query: &[f32],
    nprobe: Option<usize>,
) -> Vec<(usize, f32)> {
    let outcome = match nprobe {
        Some(np) => system
            .ivf_search_with_nprobe(db_id, query, K, np)
            .expect("ivf search"),
        None => system.search(db_id, query, K).expect("search"),
    };
    outcome.results.iter().map(|n| (n.id, n.distance)).collect()
}

/// Best-of-`REPEATS` wall-clock latency of each query, averaged over the
/// query set, in microseconds.
fn measure(
    system: &mut ReisSystem,
    db_id: u32,
    queries: &[Vec<f32>],
    nprobe: Option<usize>,
) -> f64 {
    let mut total_us = 0.0;
    for query in queries {
        let mut best = f64::INFINITY;
        for _ in 0..REPEATS {
            let start = Instant::now();
            match nprobe {
                Some(np) => {
                    system
                        .ivf_search_with_nprobe(db_id, query, K, np)
                        .expect("ivf search");
                }
                None => {
                    system.search(db_id, query, K).expect("search");
                }
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        total_us += best;
    }
    total_us / queries.len() as f64
}

fn sweep(
    system: &mut ReisSystem,
    db_id: u32,
    queries: &[Vec<f32>],
    nprobe: Option<usize>,
    label: &str,
) -> Vec<LatencyPoint> {
    // Sequential reference signatures for the invariance check. Pinned:
    // the plain `sequential()` default would be auto-upgraded to
    // `available_parallelism` shards by single-query search.
    system.set_scan_parallelism(ScanParallelism::sequential());
    let reference: Vec<_> = queries
        .iter()
        .map(|q| signature(system, db_id, q, nprobe))
        .collect();

    println!("\n{label}:");
    SHARD_COUNTS
        .iter()
        .map(|&shards| {
            system.set_scan_parallelism(if shards == 1 {
                ScanParallelism::sequential()
            } else {
                ScanParallelism::sharded(shards)
            });
            let identical = queries
                .iter()
                .zip(&reference)
                .all(|(q, r)| signature(system, db_id, q, nprobe) == *r);
            let mean_us = measure(system, db_id, queries, nprobe);
            println!(
                "    {shards:>2} shard(s)  {mean_us:>10.1} us/query   identical_to_sequential: {identical}"
            );
            LatencyPoint {
                shards,
                mean_us,
                identical,
            }
        })
        .collect()
}

fn points_json(points: &[LatencyPoint]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "      {{ \"shards\": {}, \"mean_us\": {:.1}, \"identical_to_sequential\": {} }}",
                p.shards, p.mean_us, p.identical
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn speedup(points: &[LatencyPoint]) -> f64 {
    let sequential = points.first().map(|p| p.mean_us).unwrap_or(0.0);
    let best = points
        .iter()
        .map(|p| p.mean_us)
        .fold(f64::INFINITY, f64::min);
    if best > 0.0 {
        sequential / best
    } else {
        0.0
    }
}

fn main() {
    report::header(
        "Intra-query latency",
        "Measured single-query latency vs. scan shard count",
    );

    println!("Building {ENTRIES}-entry synthetic dataset (IVF, nlist {NLIST})…");
    let dataset = SyntheticDataset::generate(
        DatasetProfile::hotpotqa()
            .scaled(ENTRIES)
            .with_queries(QUERIES),
        43,
    );
    let database = VectorDatabase::ivf(dataset.vectors(), dataset.documents_owned(), NLIST)
        .expect("database construction");
    let mut system = ReisSystem::new(ReisConfig::ssd1());
    // 64-page windows clear the default per-shard page minimum (16), so
    // each adaptive window splits into up to 4 channel/die shards and the
    // BF sweep exercises sharded-adaptive execution (see module docs).
    system.set_adaptive_window(64);
    let db_id = system.deploy(&database).expect("deployment");
    let queries: Vec<Vec<f32>> = dataset.queries().to_vec();

    let bf = sweep(
        &mut system,
        db_id,
        &queries,
        None,
        "Brute-force single-query latency",
    );
    let ivf = sweep(
        &mut system,
        db_id,
        &queries,
        Some(NPROBE),
        "IVF single-query latency (nprobe 16)",
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nBest speedup over sequential on {cores} core(s): brute force {:.2}x, IVF {:.2}x",
        speedup(&bf),
        speedup(&ivf)
    );
    if cores == 1 {
        println!(
            "note: only one CPU is available, so shard workers can only add overhead; \
             the latency column is meaningful on multi-core hosts"
        );
    }

    let all_identical = bf.iter().chain(&ivf).all(|p| p.identical);
    assert!(
        all_identical,
        "sharded results diverged from the sequential scan"
    );

    let json = format!(
        "{{\n  \"available_cores\": {cores},\n  \
         \"dataset\": {{ \"entries\": {ENTRIES}, \"dim\": 1024, \"nlist\": {NLIST} }},\n  \
         \"queries\": {QUERIES},\n  \"repeats_per_point\": {REPEATS},\n  \
         \"single_query_latency_us\": {{\n    \"brute_force\": [\n{}\n    ],\n    \
         \"ivf_nprobe{NPROBE}\": [\n{}\n    ]\n  }},\n  \
         \"speedup_at_best_shard_count\": {{ \"brute_force\": {:.2}, \"ivf_nprobe{NPROBE}\": {:.2} }}\n}}\n",
        points_json(&bf),
        points_json(&ivf),
        speedup(&bf),
        speedup(&ivf),
    );
    let path = report::output_path("BENCH_intra_query.json");
    std::fs::write(&path, json).expect("write benchmark json");
    println!("\nwrote {path}");
}
