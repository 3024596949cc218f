//! Observability: watch a mixed search + mutation workload through the
//! telemetry subsystem — counters, modelled-latency histograms, per-query
//! trace spans, a one-query "explain" page trace, and the Prometheus
//! scrape — all without perturbing a single result.
//!
//! ```bash
//! cargo run --example observability
//! ```

use reis::core::{CounterId, HistogramId, ReisConfig, ReisSystem, ScanParallelism, VectorDatabase};

fn vector_for(id: u32) -> Vec<f32> {
    (0..48)
        .map(|d| (((id as u64 * 37 + d as u64 * 11) % 17) as f32 - 8.0) / 4.0)
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Explain traces are exact when the fine scan runs sequentially, so
    // pin the scan to one unit; everything else is the stock tiny config.
    // (`REIS_TELEMETRY=1` in the environment would enable telemetry at
    // construction; `enable_telemetry` does the same from code.)
    let config = ReisConfig::tiny().with_scan_parallelism(ScanParallelism::sequential());
    let mut reis = ReisSystem::new(config);
    reis.enable_telemetry();

    let vectors: Vec<Vec<f32>> = (0..96).map(vector_for).collect();
    let documents: Vec<Vec<u8>> = (0..96)
        .map(|i| format!("chunk {i:03}").into_bytes())
        .collect();
    let db = reis.deploy(&VectorDatabase::flat(&vectors, documents)?)?;

    // --- A mixed workload: searches interleaved with mutations. ---------
    for round in 0..4u32 {
        for q in 0..4u32 {
            reis.search(db, &vector_for(1_000 + round * 4 + q), 5)?;
        }
        let fresh = vector_for(10_000 + round);
        let id = reis
            .insert(db, &fresh, format!("fresh {round}").into_bytes())?
            .ids[0];
        reis.upsert(db, id, &vector_for(20_000 + round), b"fresh, revised")?;
        reis.delete(db, round)?;
    }
    reis.compact(db)?;
    let batch: Vec<Vec<f32>> = (0..4u32).map(|q| vector_for(30_000 + q)).collect();
    reis.search_batch(db, &batch, 5, batch.len())?;

    let telemetry = reis.telemetry();
    println!("== workload counters ==");
    for (label, id) in [
        ("queries", CounterId::Queries),
        ("fused batches", CounterId::FusedBatches),
        ("flash senses", CounterId::FlashSenses),
        ("transferred entries", CounterId::FineEntries),
        ("inserts", CounterId::Inserts),
        ("upserts", CounterId::Upserts),
        ("deletes", CounterId::Deletes),
        ("compactions", CounterId::Compactions),
    ] {
        println!("  {label:<20} {}", telemetry.counter(id));
    }
    let modelled = telemetry.histogram(HistogramId::QueryModelledNs);
    println!(
        "  modelled query us    p50 {:.1} · p99 {:.1} (n={})",
        modelled.quantile(0.50) / 1e3,
        modelled.quantile(0.99) / 1e3,
        modelled.count
    );

    // --- The last query's trace: stage-by-stage span breakdown. ---------
    let trace = telemetry.last_trace().expect("queries were traced");
    println!(
        "\n== trace of query #{} ({}) ==",
        trace.sequence, trace.kind
    );
    for span in &trace.spans {
        println!(
            "  {:<14} modelled {:>9} ns   wall {:>7} ns",
            span.stage, span.modelled_ns, span.wall_ns
        );
    }

    // --- Explain mode: capture one query's page-by-page scan. -----------
    // Arming is one-shot: the next query records every scanned page
    // (page, adaptive window, slots examined, entries passed) into a
    // bounded ring, then disarms itself.
    reis.telemetry().arm_explain();
    let outcome = reis.search(db, &vector_for(42_424), 5)?;
    let explain = reis.telemetry().last_explain().expect("explain captured");
    println!(
        "\n== explain of query #{} ({} pages, {} entries passed) ==",
        explain.sequence,
        explain.events.len(),
        explain.total_passed()
    );
    for event in explain.events.iter().take(8) {
        println!(
            "  page {:>3}  window {:>2}  slots {:>3}  passed {:>3}",
            event.page, event.window, event.slots, event.passed
        );
    }
    if explain.events.len() > 8 {
        println!("  … {} more pages", explain.events.len() - 8);
    }
    assert_eq!(
        explain.total_passed() as usize,
        outcome.activity.fine_entries,
        "the explain trace accounts for every transferred entry"
    );

    // --- The Prometheus scrape (non-zero series only, for brevity). -----
    println!("\n== prometheus scrape (non-zero series) ==");
    for line in reis.telemetry().prometheus().lines() {
        if !line.starts_with('#') && !line.ends_with(" 0") {
            println!("  {line}");
        }
    }
    Ok(())
}
