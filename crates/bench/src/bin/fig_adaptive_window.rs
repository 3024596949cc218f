//! Windowed adaptive filtering: transferred entries and measured latency
//! versus the threshold-window size, under sequential and sharded scans.
//!
//! PR 4 made adaptive brute-force filtering the default but pinned adapting
//! scans sequential; the windowed schedule removed that restriction. This
//! benchmark demonstrates both halves of the trade:
//!
//! * **Window size → transfers.** Smaller windows tighten the in-plane
//!   threshold sooner, so fewer Temporal-Top-List entries cross the flash
//!   channels (window 1 is the historical per-page schedule; a window
//!   larger than the scan is the static threshold).
//! * **Partition invariance.** At every window size the transferred-entry
//!   counts, results and modelled latency of the sequential and the sharded
//!   scan are asserted identical in-binary — the sharded column differs
//!   only in wall-clock, which is the whole point of deleting the
//!   "adapting scans run sequentially" rule. The sharded leg uses a 1-page
//!   per-shard minimum so every window ≥ 2 pages really is partitioned;
//!   its wall column therefore also shows the cost side of small windows
//!   (one worker-spawn set per window) against the amortization of large
//!   ones.
//!
//! Results are written to `BENCH_pr5.json` by default (this is the
//! benchmark's own committed artifact); pass `--output PATH` (or set
//! `REIS_BENCH_OUT`) to write elsewhere, and `--smoke` (or
//! `REIS_BENCH_SMOKE=1`) for the fast CI variant. Wall-clock columns are
//! meaningful on multi-core hosts; the JSON records `available_cores` (see
//! `docs/BENCHMARKS.md`).

use std::time::Instant;

use reis_bench::report;
use reis_core::{ReisConfig, ReisSystem, ScanParallelism, VectorDatabase};
use reis_workloads::{DatasetProfile, SyntheticDataset};

const K: usize = 10;
const SHARDS: usize = 8;

struct RunShape {
    mode: &'static str,
    entries: usize,
    queries: usize,
    repeats: usize,
    windows: &'static [usize],
}

fn shape() -> RunShape {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("REIS_BENCH_SMOKE").is_ok_and(|v| v == "1");
    if smoke {
        RunShape {
            mode: "smoke",
            entries: 4_096,
            queries: 2,
            repeats: 2,
            windows: &[1, 4, 16],
        }
    } else {
        RunShape {
            mode: "full",
            entries: 32_768,
            queries: 4,
            repeats: 5,
            windows: &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
        }
    }
}

struct WindowPoint {
    window: usize,
    fine_entries: usize,
    fine_windows: usize,
    modelled_us: f64,
    sequential_us: f64,
    sharded_us: f64,
}

/// Best-of-`repeats` wall latency of each query, averaged, in microseconds.
fn measure(system: &mut ReisSystem, db_id: u32, queries: &[Vec<f32>], repeats: usize) -> f64 {
    let mut total_us = 0.0;
    for query in queries {
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let start = Instant::now();
            system.search(db_id, query, K).expect("search");
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        total_us += best;
    }
    total_us / queries.len() as f64
}

/// Result signatures of every query, plus the summed transferred entries,
/// summed barrier count and mean modelled latency of one sweep point.
type SweepSignature = (Vec<Vec<(usize, f32)>>, usize, usize, f64);

/// Per-query signature plus summed activity of one sweep point.
fn signatures(system: &mut ReisSystem, db_id: u32, queries: &[Vec<f32>]) -> SweepSignature {
    let mut sigs = Vec::new();
    let mut entries = 0usize;
    let mut windows = 0usize;
    let mut modelled_us = 0.0;
    for query in queries {
        let outcome = system.search(db_id, query, K).expect("search");
        sigs.push(outcome.results.iter().map(|n| (n.id, n.distance)).collect());
        entries += outcome.activity.fine_entries;
        windows += outcome.activity.fine_windows;
        modelled_us += outcome.total_latency().as_secs_f64() * 1e6;
    }
    (sigs, entries, windows, modelled_us / queries.len() as f64)
}

fn main() {
    let shape = shape();
    report::header(
        "Adaptive window sweep",
        "Transferred entries and single-query latency vs. threshold-window size",
    );

    println!(
        "Building {}-entry synthetic dataset ({} mode)…",
        shape.entries, shape.mode
    );
    let dataset = SyntheticDataset::generate(
        DatasetProfile::hotpotqa()
            .scaled(shape.entries)
            .with_queries(shape.queries),
        47,
    );
    let database = VectorDatabase::flat(dataset.vectors(), dataset.documents_owned())
        .expect("database construction");
    let queries: Vec<Vec<f32>> = dataset.queries().to_vec();

    // Two deployments of the same database: a pinned-sequential system and
    // a sharded one. The window (like the parallelism) is a host-side knob
    // swept at runtime over one deployment.
    let mut seq =
        ReisSystem::new(ReisConfig::ssd1().with_scan_parallelism(ScanParallelism::sequential()));
    let seq_id = seq.deploy(&database).expect("deployment");
    // The sharded leg drops the per-shard page minimum to 1 so sharding
    // genuinely engages at every window size (a window is the unit of
    // parallel work, and a shard never gets more pages than the window
    // holds): small windows then honestly pay one worker-spawn set per
    // window, large windows amortize it — that cost curve is half of what
    // this sweep exists to show.
    let mut sharded = ReisSystem::new(
        ReisConfig::ssd1()
            .with_scan_parallelism(ScanParallelism::sharded(SHARDS).with_min_pages_per_shard(1)),
    );
    let sharded_id = sharded.deploy(&database).expect("deployment");

    // Static baseline: a window larger than any scan never reaches a
    // barrier, which is exactly the static threshold.
    seq.set_adaptive_window(usize::MAX);
    let (static_sigs, static_entries, _, static_modelled) = signatures(&mut seq, seq_id, &queries);
    let static_us = measure(&mut seq, seq_id, &queries, shape.repeats);
    println!(
        "\nStatic threshold (baseline): {static_entries} transferred entries, \
         {static_us:.1} us/query wall, {static_modelled:.1} us modelled"
    );

    println!("\nWindow sweep (adaptive brute force, k {K}):");
    println!(
        "  {:>7}  {:>10}  {:>9}  {:>12}  {:>12}  {:>12}",
        "window", "entries", "barriers", "modelled_us", "seq_us", "sharded_us"
    );
    let mut points: Vec<WindowPoint> = Vec::new();
    for &window in shape.windows {
        // Sequential leg: pinned single-threaded scans.
        seq.set_adaptive_window(window);
        let (seq_sigs, seq_entries, seq_windows, modelled_us) =
            signatures(&mut seq, seq_id, &queries);
        let sequential_us = measure(&mut seq, seq_id, &queries, shape.repeats);

        // Sharded leg: up to SHARDS channel/die workers per window (capped
        // by the window's own page count).
        sharded.set_adaptive_window(window);
        let (sharded_sigs, sharded_entries, sharded_windows, sharded_modelled) =
            signatures(&mut sharded, sharded_id, &queries);
        let sharded_us = measure(&mut sharded, sharded_id, &queries, shape.repeats);

        // Partition invariance, asserted on every sweep point: identical
        // results and identical transferred-entry accounting.
        assert_eq!(
            seq_sigs, sharded_sigs,
            "sharded adaptive results diverged at window {window}"
        );
        assert_eq!(
            (seq_entries, seq_windows),
            (sharded_entries, sharded_windows),
            "sharded adaptive accounting diverged at window {window}"
        );
        assert_eq!(
            seq_sigs, static_sigs,
            "adaptive top-k diverged from static at window {window}"
        );
        assert!(
            (modelled_us - sharded_modelled).abs() < 1e-9,
            "modelled latency diverged at window {window}"
        );

        println!(
            "  {window:>7}  {seq_entries:>10}  {seq_windows:>9}  {modelled_us:>12.1}  \
             {sequential_us:>12.1}  {sharded_us:>12.1}"
        );
        points.push(WindowPoint {
            window,
            fine_entries: seq_entries,
            fine_windows: seq_windows,
            modelled_us,
            sequential_us,
            sharded_us,
        });
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let best = points
        .iter()
        .min_by(|a, b| a.sharded_us.total_cmp(&b.sharded_us))
        .expect("non-empty sweep");
    println!(
        "\nAll window sizes transferred identical entries under sequential and sharded \
         scans (partition invariance)."
    );
    println!(
        "Best sharded-adaptive point: window {} at {:.1} us/query ({} entries vs static {}) \
         on {cores} core(s).",
        best.window, best.sharded_us, best.fine_entries, static_entries
    );
    if cores == 1 {
        println!(
            "note: only one CPU is available, so shard workers gain only the borrowed-read \
             path; the wall-clock columns are meaningful on multi-core hosts"
        );
    }

    let points_json = points
        .iter()
        .map(|p| {
            format!(
                "    {{ \"window\": {}, \"fine_entries\": {}, \"barriers\": {}, \
                 \"modelled_us\": {:.1}, \"sequential_us\": {:.1}, \"sharded_us\": {:.1} }}",
                p.window,
                p.fine_entries,
                p.fine_windows,
                p.modelled_us,
                p.sequential_us,
                p.sharded_us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"available_cores\": {cores},\n  \"mode\": \"{}\",\n  \
         \"dataset\": {{ \"entries\": {}, \"dim\": {} }},\n  \
         \"queries\": {},\n  \"repeats_per_point\": {},\n  \"k\": {K},\n  \
         \"partition_invariant\": true,\n  \
         \"static_baseline\": {{ \"fine_entries\": {static_entries}, \
         \"modelled_us\": {static_modelled:.1}, \"sequential_us\": {static_us:.1} }},\n  \
         \"window_sweep\": [\n{points_json}\n  ]\n}}\n",
        shape.mode,
        shape.entries,
        dataset.profile().dim,
        shape.queries,
        shape.repeats,
    );
    let path = report::output_path("BENCH_pr5.json");
    std::fs::write(&path, json).expect("write benchmark artifact");
    println!("\nWrote {path}");
}
