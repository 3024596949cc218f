//! The async request pipeline under load, measured.
//!
//! A seeded Poisson arrival trace drives the `Pipeline` at several offered
//! loads, with batch formation off (`max_batch 1`) and on (`max_batch 8`).
//! The pipeline runs on *virtual time* — completions are priced by the
//! modelled device latency — so its QPS-vs-p99 columns are deterministic,
//! machine-independent, and meaningful even on a one-core host.
//! `batch_formation_wins` records that at the top offered load the batching
//! pipeline sustains higher throughput at no worse p99.
//!
//! (The committed `BENCH_pr10.json` also holds a pooled-vs-spawn-per-window
//! wall-clock sweep; the spawn executor it compared against was deleted
//! once that sweep had shown the persistent pool faster at every window.)
//!
//! Results go to `BENCH_pr10.json`'s family (`BENCH_scheduler.json` by
//! default); pass `--output PATH` / `REIS_BENCH_OUT` to write elsewhere,
//! `--smoke` / `REIS_BENCH_SMOKE=1` for the fast CI variant.

use reis_bench::report;
use reis_core::{PipelineConfig, PipelineRequest, ReisConfig, ReisSystem, VectorDatabase};
use reis_workloads::{ArrivalTrace, DatasetProfile, SyntheticDataset};

const K: usize = 10;

struct RunShape {
    mode: &'static str,
    entries: usize,
    queries: usize,
    pipeline_requests: usize,
}

fn shape() -> RunShape {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("REIS_BENCH_SMOKE").is_ok_and(|v| v == "1");
    if smoke {
        RunShape {
            mode: "smoke",
            entries: 4_096,
            queries: 2,
            pipeline_requests: 48,
        }
    } else {
        RunShape {
            mode: "full",
            entries: 32_768,
            queries: 4,
            pipeline_requests: 256,
        }
    }
}

struct PipelinePoint {
    offered_qps: f64,
    max_batch: usize,
    requests: usize,
    completed: usize,
    shed: u64,
    p50_us: f64,
    p99_us: f64,
    throughput_qps: f64,
}

/// Virtual-time percentile of a sorted sojourn list, in microseconds.
fn percentile_us(sorted_ns: &[u64], fraction: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() as f64 * fraction).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[rank] as f64 / 1e3
}

/// Run one pipeline sweep point: a seeded arrival trace at `offered_qps`
/// through a pipeline with the given formation bound. Everything reported
/// is virtual-time, hence deterministic.
fn pipeline_point(
    system: &mut ReisSystem,
    db_id: u32,
    queries: &[Vec<f32>],
    offered_qps: f64,
    max_batch: usize,
    requests: usize,
) -> PipelinePoint {
    // Horizon sized to cover `requests` arrivals (doubled deterministically
    // if the draw runs short, which 2x the expected span makes rare).
    let mut duration_us = ((requests as f64 / offered_qps) * 2e6).ceil() as u64 + 1_000;
    let mut trace = ArrivalTrace::poisson(offered_qps, duration_us, queries.len(), 0x5EED);
    while trace.len() < requests {
        duration_us *= 2;
        trace = ArrivalTrace::poisson(offered_qps, duration_us, queries.len(), 0x5EED);
    }
    let config = PipelineConfig::default()
        .with_max_batch(max_batch)
        .with_max_wait_us(200);
    let mut pipeline = system.pipeline(db_id, config);
    let mut accepted = 0usize;
    for event in trace.events().iter().take(requests) {
        let submitted = pipeline.submit(
            event.at_ns,
            PipelineRequest::Search {
                query: queries[event.query_index].clone(),
                k: K,
            },
        );
        if submitted.is_ok() {
            accepted += 1;
        }
    }
    pipeline.flush();
    let shed = pipeline.shed();
    let completions = pipeline.drain_completions();
    assert_eq!(
        completions.len(),
        accepted,
        "every accepted request completes"
    );

    let mut sojourns_ns: Vec<u64> = completions
        .iter()
        .map(|c| c.completed_ns - c.submitted_ns)
        .collect();
    sojourns_ns.sort_unstable();
    let first_in = completions
        .iter()
        .map(|c| c.submitted_ns)
        .min()
        .unwrap_or(0);
    let last_out = completions
        .iter()
        .map(|c| c.completed_ns)
        .max()
        .unwrap_or(0);
    let makespan_s = (last_out.saturating_sub(first_in)) as f64 / 1e9;
    PipelinePoint {
        offered_qps,
        max_batch,
        requests,
        completed: completions.len(),
        shed,
        p50_us: percentile_us(&sojourns_ns, 0.50),
        p99_us: percentile_us(&sojourns_ns, 0.99),
        throughput_qps: if makespan_s > 0.0 {
            completions.len() as f64 / makespan_s
        } else {
            0.0
        },
    }
}

fn main() {
    let shape = shape();
    report::header(
        "Scheduler: request pipeline",
        "Batch formation under load, on virtual time",
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

    let mut system = ReisSystem::new(ReisConfig::ssd1());
    let db_id = system.deploy(&database).expect("deployment");

    // The request pipeline under a seeded open-loop arrival process.
    // Offered loads are set relative to the modelled single-query service
    // rate, so the sweep spans under-load to saturation at any dataset size.
    let service_ns = {
        let outcome = system.search(db_id, &queries[0], K).expect("probe");
        outcome.total_latency().as_nanos().max(1)
    };
    let service_qps = 1e9 / service_ns as f64;
    println!(
        "\nPipeline batch formation (modelled service rate {service_qps:.0} QPS, virtual time):"
    );
    println!(
        "  {:>12}  {:>9}  {:>9}  {:>6}  {:>10}  {:>10}  {:>14}",
        "offered_qps", "max_batch", "completed", "shed", "p50_us", "p99_us", "throughput_qps"
    );
    let mut pipeline_points: Vec<PipelinePoint> = Vec::new();
    for load_factor in [0.5, 2.0, 6.0] {
        for max_batch in [1usize, 8] {
            let point = pipeline_point(
                &mut system,
                db_id,
                &queries,
                service_qps * load_factor,
                max_batch,
                shape.pipeline_requests,
            );
            println!(
                "  {:>12.0}  {:>9}  {:>9}  {:>6}  {:>10.1}  {:>10.1}  {:>14.0}",
                point.offered_qps,
                point.max_batch,
                point.completed,
                point.shed,
                point.p50_us,
                point.p99_us,
                point.throughput_qps
            );
            pipeline_points.push(point);
        }
    }

    // At the top offered load, batch formation must sustain higher
    // throughput at no worse tail latency than dispatch-on-arrival.
    let top = &pipeline_points[pipeline_points.len() - 2..];
    let (unbatched, batched) = (&top[0], &top[1]);
    let batch_formation_wins =
        batched.throughput_qps > unbatched.throughput_qps && batched.p99_us <= unbatched.p99_us;
    assert!(
        batch_formation_wins,
        "batch formation must win at the top offered load: \
         batched {:.0} QPS / p99 {:.1} us vs unbatched {:.0} QPS / p99 {:.1} us",
        batched.throughput_qps, batched.p99_us, unbatched.throughput_qps, unbatched.p99_us
    );
    println!(
        "\nBatch formation at {:.1}x the service rate: {:.0} QPS at p99 {:.1} us \
         (vs {:.0} QPS at p99 {:.1} us without formation).",
        6.0, batched.throughput_qps, batched.p99_us, unbatched.throughput_qps, unbatched.p99_us
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pipeline_json = pipeline_points
        .iter()
        .map(|p| {
            format!(
                "    {{ \"offered_qps\": {:.1}, \"max_batch\": {}, \"requests\": {}, \
                 \"completed\": {}, \"shed\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"throughput_qps\": {:.1} }}",
                p.offered_qps,
                p.max_batch,
                p.requests,
                p.completed,
                p.shed,
                p.p50_us,
                p.p99_us,
                p.throughput_qps
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"available_cores\": {cores},\n  \"mode\": \"{}\",\n  \
         \"dataset\": {{ \"entries\": {}, \"dim\": {} }},\n  \
         \"queries\": {},\n  \"k\": {K},\n  \
         \"modelled_service_qps\": {service_qps:.1},\n  \
         \"batch_formation_wins\": {batch_formation_wins},\n  \
         \"pipeline_sweep\": [\n{pipeline_json}\n  ]\n}}\n",
        shape.mode,
        shape.entries,
        dataset.profile().dim,
        shape.queries,
    );
    let path = report::output_path("BENCH_scheduler.json");
    std::fs::write(&path, json).expect("write benchmark artifact");
    println!("\nWrote {path}");
}
