//! `pipeline_overload`: the IVF deployment behind `ReisSystem::pipeline`,
//! driven **open loop** by a seeded Poisson arrival trace at six times the
//! unloaded modelled service rate.
//!
//! Time inside the pipeline is virtual, so the model-clock numbers (sojourn
//! including queue wait, throughput, shed) are exact and the generator is
//! never late. Like every exact metric they are read on pinned inputs: one
//! untimed replay of the reference trace ([`REFERENCE_TRACE_SEED`]). The
//! host-clock numbers are what it costs the simulator to push the trace
//! `--seed` draws — arrival times and which query each arrival carries —
//! through the lanes and the fused IVF batches: a request's host latency
//! runs from its `submit` call to the return of the call that completed its
//! batch.

use std::time::Instant;

use reis::core::{
    PipelineCompletion, PipelineConfig, PipelineReply, PipelineRequest, ReisSystem, SearchOutcome,
};
use reis::telemetry::Telemetry;
use reis::workloads::ArrivalTrace;

use crate::calib::Calibrator;
use crate::checks::{exact_top_k, mean_recall, signature, validate_reply, Expect, Tally, K};
use crate::harness::{self, measure, Block};
use crate::stats;
use crate::trace::TraceRecorder;

use super::search::IVF_RECALL_FLOOR;
use super::{
    build_device, median_setup, paper, push_search_probes, system_config, Device, ModelSums,
    Report, RunCfg,
};

/// Offered load of the workload, as a multiple of the unloaded modelled
/// service rate.
const OVERLOAD: f64 = 6.0;
/// Offered loads of the rate ladder (traced run).
const LADDER: [f64; 6] = [0.5, 1.0, 1.5, 2.0, 3.0, 6.0];
/// Seed of the arrival trace the exact metrics (and the rate ladder) are
/// read on. From seed to seed the virtual throughput of 1,024 arrivals
/// differs by up to 6 %, which no tight bound on `model_qps` could absorb.
const REFERENCE_TRACE_SEED: u64 = 47;
/// A ladder rate meets the limit when its virtual p99 sojourn stays within
/// this multiple of the unloaded modelled latency, with nothing shed.
const P99_LIMIT_FACTOR: f64 = 10.0;

fn pipeline_config(nproc: usize) -> PipelineConfig {
    PipelineConfig::default()
        .with_max_batch(8)
        .with_max_wait_us(200)
        .with_queue_depth(64)
        .with_workers(nproc)
}

/// The first `requests` arrivals of a Poisson process at `rate` per second.
fn arrivals(rate: f64, requests: usize, queries: usize, seed: u64) -> ArrivalTrace {
    let mut horizon_us = (requests as f64 / rate * 2e6).ceil() as u64 + 1_000;
    loop {
        let trace = ArrivalTrace::poisson(rate, horizon_us, queries, seed);
        if trace.len() >= requests {
            return trace;
        }
        horizon_us *= 2;
    }
}

/// Everything one replay of the trace produced.
struct Replay {
    completions: Vec<PipelineCompletion>,
    accepted: usize,
    shed: u64,
    /// Host ns from each completed request's `submit` to its completion.
    host_sojourn_ns: Vec<u64>,
    /// Host ns of every `submit` + `drain_completions` pair, summed.
    busy_ns: u64,
    /// Host ns of the `submit` calls alone, summed.
    submit_ns: u64,
    /// Query index each accepted request carried, by request id.
    query_of: Vec<usize>,
}

/// Push the first `requests` arrivals through a fresh pipeline. With a
/// recorder, every `submit` becomes a span; one that dispatched a batch gets
/// the system's trace of the batch's last query as children.
fn replay(
    system: &mut ReisSystem,
    db: u32,
    cfg: &RunCfg,
    trace: &ArrivalTrace,
    requests: usize,
    queries: &[Vec<f32>],
    mut recorder: Option<(&mut TraceRecorder, &Telemetry)>,
) -> Replay {
    let mut pipeline = system.pipeline(db, pipeline_config(cfg.nproc));
    let mut out = Replay {
        completions: Vec::with_capacity(requests),
        accepted: 0,
        shed: 0,
        host_sojourn_ns: Vec::with_capacity(requests),
        busy_ns: 0,
        submit_ns: 0,
        query_of: Vec::with_capacity(requests),
    };
    let mut submitted_at: Vec<Instant> = Vec::with_capacity(requests);
    for event in trace.events().iter().take(requests) {
        let request = PipelineRequest::IvfSearch {
            query: queries[event.query_index].clone(),
            k: K,
            nprobe: cfg.scale.nprobe,
        };
        let started = Instant::now();
        let submitted = pipeline.submit(event.at_ns, request);
        let after_submit = Instant::now();
        let drained = pipeline.drain_completions();
        let done = Instant::now();
        out.submit_ns += (after_submit - started).as_nanos() as u64;
        out.busy_ns += (done - started).as_nanos() as u64;
        match submitted {
            Ok(id) => {
                debug_assert_eq!(id as usize, submitted_at.len());
                submitted_at.push(started);
                out.query_of.push(event.query_index);
                out.accepted += 1;
            }
            Err(_) => out.shed += 1,
        }
        if let Some((recorder, telemetry)) = recorder.as_mut() {
            let batch = drained.last().map_or(0, |c| c.batch_size as u64);
            let system_trace = (batch > 0).then(|| telemetry.last_trace()).flatten();
            recorder.call(
                "pipeline_overload.submit",
                started,
                (done - started).as_nanos() as u64,
                system_trace.as_ref(),
                batch.max(1),
            );
        }
        for completion in drained {
            let since = done - submitted_at[completion.request_id as usize];
            out.host_sojourn_ns.push(since.as_nanos() as u64);
            out.completions.push(completion);
        }
    }
    let started = Instant::now();
    pipeline.flush();
    let drained = pipeline.drain_completions();
    let done = Instant::now();
    out.busy_ns += (done - started).as_nanos() as u64;
    for completion in drained {
        let since = done - submitted_at[completion.request_id as usize];
        out.host_sojourn_ns.push(since.as_nanos() as u64);
        out.completions.push(completion);
    }
    debug_assert_eq!(out.shed, pipeline.shed());
    out.shed = pipeline.shed();
    out
}

/// The search outcome of a completion, if it completed with one.
fn search_outcome(completion: &PipelineCompletion) -> Option<&SearchOutcome> {
    match &completion.reply {
        Ok(PipelineReply::Search(outcome)) => Some(outcome),
        _ => None,
    }
}

/// Check one replay: nothing shed, every accepted request completed, every
/// reply valid and bit-identical to `ivf_search_with_nprobe` on the bare
/// device (`single_signatures`, by query index), and — against the first
/// replay's virtual completion times (`reference`, by request id) — the
/// virtual schedule repeats exactly.
fn verify_replay(
    replay: &Replay,
    reference: Option<&[u64]>,
    single_signatures: &[Vec<(usize, u32)>],
    documents: &[Vec<u8>],
    tally: &mut Tally,
) {
    for _ in 0..replay.shed {
        tally.op(Err("request shed".into()));
    }
    tally.invariant(replay.completions.len() == replay.accepted, || {
        format!(
            "{} requests accepted but {} completed",
            replay.accepted,
            replay.completions.len()
        )
    });
    for completion in &replay.completions {
        let id = completion.request_id as usize;
        let checked = match search_outcome(completion) {
            None => Err(format!("request {id} completed without a search reply")),
            Some(outcome) => validate_reply(
                &outcome.results,
                &outcome.documents,
                Expect::Exactly(K),
                |doc| documents.get(doc).map(Vec::as_slice),
            )
            .and_then(|()| {
                let single = replay
                    .query_of
                    .get(id)
                    .and_then(|&q| single_signatures.get(q));
                if single != Some(&signature(&outcome.results)) {
                    Err(format!(
                        "request {id} differs from ivf_search_with_nprobe on a single device"
                    ))
                } else if reference.is_some_and(|r| r.get(id) != Some(&completion.completed_ns)) {
                    Err(format!(
                        "request {id} completed at a different virtual time"
                    ))
                } else {
                    Ok(())
                }
            }),
        };
        tally.op(checked);
    }
}

/// Virtual-time summary of one replay.
struct VirtualStats {
    sojourns_ns: Vec<u64>,
    queue_waits_ns: Vec<u64>,
    throughput_qps: f64,
    mean_batch: f64,
}

fn virtual_stats(completions: &[PipelineCompletion]) -> VirtualStats {
    let sojourns_ns: Vec<u64> = completions
        .iter()
        .map(|c| c.completed_ns - c.submitted_ns)
        .collect();
    let queue_waits_ns = completions
        .iter()
        .map(|c| c.dispatched_ns - c.submitted_ns)
        .collect();
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
    let makespan_s = last_out.saturating_sub(first_in) as f64 / 1e9;
    let batches: f64 = completions
        .iter()
        .map(|c| 1.0 / c.batch_size.max(1) as f64)
        .sum();
    VirtualStats {
        sojourns_ns,
        queue_waits_ns,
        throughput_qps: if makespan_s > 0.0 {
            completions.len() as f64 / makespan_s
        } else {
            0.0
        },
        mean_batch: completions.len() as f64 / batches.max(f64::MIN_POSITIVE),
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg, calibrator: &Calibrator) -> Result<Report, String> {
    let reps = if cfg.trace { 1 } else { cfg.scale.setup_reps };
    let (built, setup_s) = median_setup(reps, || build_device(cfg, true));
    let Device {
        dataset,
        mut system,
        db,
        database_s,
        deploy_s,
    } = built?;
    let queries = dataset.queries();
    let documents = dataset.documents();
    let page_bytes = system_config().ssd.geometry.page_size_bytes;
    let requests = cfg.scale.pipeline_requests;
    let mut tally = Tally::new();

    // Unloaded pass: every query once on the bare device. Its modelled
    // latency defines the service rate the offered load is a multiple of,
    // and its answers are the single-device reference every pipeline reply
    // must equal bit for bit.
    let mut single_signatures = Vec::with_capacity(queries.len());
    let mut unloaded = ModelSums::default();
    for query in queries {
        let outcome = system
            .ivf_search_with_nprobe(db, query, K, cfg.scale.nprobe)
            .map_err(|e| format!("unloaded ivf_search_with_nprobe: {e}"))?;
        single_signatures.push(signature(&outcome.results));
        unloaded.add(&outcome, page_bytes);
    }
    let service_qps = unloaded.requests as f64 / unloaded.model_seconds();
    let offered = |seed: u64| arrivals(service_qps * OVERLOAD, requests, queries.len(), seed);
    // Reference replay: untimed warm-up, source of the exact numbers.
    let reference_trace = offered(REFERENCE_TRACE_SEED);
    let reference = replay(
        &mut system,
        db,
        cfg,
        &reference_trace,
        requests,
        queries,
        None,
    );
    verify_replay(&reference, None, &single_signatures, documents, &mut tally);
    let virtual_reference = virtual_stats(&reference.completions);
    let mut loaded = ModelSums::default();
    let mut retrieved = Vec::with_capacity(reference.completions.len());
    let mut wanted_queries = Vec::with_capacity(reference.completions.len());
    for completion in &reference.completions {
        if let Some(outcome) = search_outcome(completion) {
            loaded.add(outcome, page_bytes);
            retrieved.push(outcome.result_ids());
            wanted_queries.push(reference.query_of[completion.request_id as usize]);
        }
    }

    // Measured phases: whole replays of this run's trace until each block's
    // slice ends (at least one per block). The first replay fixes the
    // virtual schedule every later one must repeat.
    let trace = offered(cfg.seed);
    let mut completed_ns: Option<Vec<u64>> = None;
    let (blocks, seconds) = cfg.phase();
    let mut submit_ns = 0u64;
    let mut submits = 0u64;
    let mut run_phase =
        |system: &mut ReisSystem,
         tally: &mut Tally,
         mut recorder: Option<(&mut TraceRecorder, &Telemetry)>| {
            measure(calibrator, blocks, seconds, |_, block: &mut Block| loop {
                let recorder = recorder.as_mut().map(|(r, t)| (&mut **r, &**t));
                let replayed = replay(system, db, cfg, &trace, requests, queries, recorder);
                block.add_busy(replayed.busy_ns);
                for &ns in &replayed.host_sojourn_ns {
                    block.completed(ns);
                }
                submit_ns += replayed.submit_ns;
                submits += requests as u64;
                verify_replay(
                    &replayed,
                    completed_ns.as_deref(),
                    &single_signatures,
                    documents,
                    tally,
                );
                completed_ns.get_or_insert_with(|| {
                    let mut at = vec![0u64; requests];
                    for completion in &replayed.completions {
                        at[completion.request_id as usize] = completion.completed_ns;
                    }
                    at
                });
                if !block.open() {
                    break;
                }
            })
        };
    let untraced = run_phase(&mut system, &mut tally, None);
    let peak_rss_mb = harness::peak_rss_mb();

    if !cfg.trace {
        // Recall of the replies the overloaded pipeline produced.
        let corpus: Vec<(usize, &[f32])> = dataset
            .vectors()
            .iter()
            .enumerate()
            .map(|(id, v)| (id, v.as_slice()))
            .collect();
        let truth = exact_top_k(&corpus, queries, K, cfg.nproc);
        let wanted: Vec<Vec<usize>> = wanted_queries.iter().map(|&q| truth[q].clone()).collect();
        let recall = mean_recall(&retrieved, &wanted, K);
        tally.invariant(recall >= IVF_RECALL_FLOOR, || {
            format!("pipeline recall@{K} {recall:.4} is below the floor {IVF_RECALL_FLOOR}")
        });

        let mut report = Report::new(tally);
        report.push_host_end_to_end(&untraced, setup_s, peak_rss_mb);
        report.push_model_end_to_end(
            virtual_reference.throughput_qps,
            &virtual_reference.sojourns_ns,
        );
        report.push("model_qps_per_watt", loaded.requests as f64 / loaded.joules);
        report.push("recall_at_10", recall);
        report.push("paper_gap_pct", paper::gap_pct());
        return Ok(report);
    }

    // Traced phase: telemetry on, every submit a span.
    system.enable_telemetry();
    let telemetry = system.telemetry().clone();
    let mut recorder = TraceRecorder::new();
    let traced = run_phase(&mut system, &mut tally, Some((&mut recorder, &telemetry)));

    // Rate ladder: virtual p99 at fixed offered loads, and the highest load
    // that meets the latency limit without shedding.
    let limit_us = P99_LIMIT_FACTOR * unloaded.mean_model_us();
    let mut ladder_p99_us = Vec::with_capacity(LADDER.len());
    let mut max_rate_under_limit = 0.0f64;
    for factor in LADDER {
        let rate = service_qps * factor;
        let ladder_trace = arrivals(rate, requests, queries.len(), REFERENCE_TRACE_SEED);
        let rung = replay(&mut system, db, cfg, &ladder_trace, requests, queries, None);
        let p99_us =
            stats::percentile_ns_as_us(&virtual_stats(&rung.completions).sojourns_ns, 0.99);
        if rung.shed == 0 && p99_us <= limit_us {
            max_rate_under_limit = max_rate_under_limit.max(rate);
        }
        ladder_p99_us.push(p99_us);
    }

    let totals = recorder.totals().clone();
    let mut report = Report::new(tally);
    report.push_host_layer(&untraced, true, unloaded.mean_model_us());
    report.push_telemetry_overhead(&untraced, &traced);
    loaded.push_layer_counts(&mut report);
    report.push(
        "nand.pages_programmed_per_op",
        loaded.per_op(loaded.pages_programmed),
    );
    report.push("core.deploy_s", deploy_s);
    report.push("ann.kmeans_build_s", database_s);
    report.push("core.fine_scan_us", totals.stage_us_per_call("fine_scan"));
    report.push("core.rerank_us", totals.stage_us_per_call("rerank"));
    report.push("pipeline.mean_batch", virtual_reference.mean_batch);
    report.push(
        "pipeline.queue_wait_p50_us",
        stats::percentile_ns_as_us(&virtual_reference.queue_waits_ns, 0.50),
    );
    report.push(
        "pipeline.queue_wait_p99_us",
        stats::percentile_ns_as_us(&virtual_reference.queue_waits_ns, 0.99),
    );
    report.push("pipeline.shed", reference.shed as f64);
    report.push(
        "pipeline.submit_us",
        submit_ns as f64 / 1e3 / submits.max(1) as f64,
    );
    report.push("pipeline.p99_us_at_half", ladder_p99_us[0]);
    report.push("pipeline.p99_us_at_1x", ladder_p99_us[1]);
    report.push("pipeline.p99_us_at_2x", ladder_p99_us[3]);
    report.push("pipeline.max_rate_under_limit_qps", max_rate_under_limit);

    let width = virtual_reference.mean_batch.round().max(1.0) as usize;
    push_search_probes(&mut report, &loaded, width, &dataset, &queries[0]);
    report.spans = Some(recorder);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(id: u64, ids: std::ops::Range<usize>, completed_ns: u64) -> PipelineCompletion {
        let results = ids
            .clone()
            .enumerate()
            .map(|(rank, id)| reis::ann::topk::Neighbor::new(id, rank as f32))
            .collect();
        let documents = ids.map(|id| vec![id as u8]).collect();
        PipelineCompletion {
            request_id: id,
            submitted_ns: 10,
            dispatched_ns: 20,
            completed_ns,
            batch_size: 2,
            reply: Ok(PipelineReply::Search(Box::new(SearchOutcome {
                results,
                documents,
                latency: Default::default(),
                activity: Default::default(),
                energy: Default::default(),
                flash_stats: Default::default(),
            }))),
        }
    }

    fn replay_of(completions: Vec<PipelineCompletion>, accepted: usize, shed: u64) -> Replay {
        Replay {
            query_of: vec![0; accepted],
            completions,
            accepted,
            shed,
            host_sojourn_ns: Vec::new(),
            busy_ns: 0,
            submit_ns: 0,
        }
    }

    #[test]
    fn each_pipeline_check_can_fail() {
        let documents: Vec<Vec<u8>> = (0..32u8).map(|id| vec![id]).collect();
        let good = || vec![completion(0, 0..K, 500), completion(1, 0..K, 900)];
        let single = vec![signature(match &good()[0].reply {
            Ok(PipelineReply::Search(o)) => &o.results,
            _ => unreachable!(),
        })];
        let check = |replay: &Replay, reference: Option<&[u64]>| {
            let mut tally = Tally::new();
            verify_replay(replay, reference, &single, &documents, &mut tally);
            tally
        };
        assert!(check(&replay_of(good(), 2, 0), Some(&[500, 900])).correct());

        // A shed request counts as a failed operation.
        let shed = check(&replay_of(good(), 2, 1), None);
        assert_eq!((shed.failed, shed.attempted), (1, 3));
        // An accepted request that never completed breaks the invariant.
        assert!(!check(&replay_of(good(), 3, 0), None).invariants_hold);
        // A reply that differs from the single-device answer fails.
        let other = vec![completion(0, 0..K, 500), completion(1, 5..5 + K, 900)];
        assert_eq!(check(&replay_of(other, 2, 0), None).failed, 1);
        // A repeat that completes at another virtual time fails.
        assert_eq!(check(&replay_of(good(), 2, 0), Some(&[500, 901])).failed, 1);
        // A completion that carries an error fails.
        let mut errored = good();
        errored[1].reply = Err(reis::core::ReisError::DatabaseNotDeployed(1));
        assert_eq!(check(&replay_of(errored, 2, 0), None).failed, 1);
    }

    #[test]
    fn virtual_stats_summarise_a_replay() {
        let stats = virtual_stats(&[completion(0, 0..K, 1_010), completion(1, 0..K, 2_010)]);
        assert_eq!(stats.sojourns_ns, [1_000, 2_000]);
        assert_eq!(stats.queue_waits_ns, [10, 10]);
        assert!((stats.mean_batch - 2.0).abs() < 1e-12);
        assert!((stats.throughput_qps - 2.0 / 2e-6).abs() < 1e-3);
        assert_eq!(stats::percentile_ns_as_us(&stats.sojourns_ns, 0.99), 2.0);
    }

    #[test]
    fn arrivals_cover_the_requested_count_and_repeat() {
        let a = arrivals(4_000.0, 300, 64, 9);
        let b = arrivals(4_000.0, 300, 64, 9);
        assert!(a.len() >= 300);
        assert_eq!(a.events()[..300], b.events()[..300]);
        assert_ne!(
            a.events()[..300],
            arrivals(4_000.0, 300, 64, 10).events()[..300]
        );
    }
}
