//! Scheduler identity: the persistent worker pool changes *when threads
//! exist*, never *what a query returns*.
//!
//! Every scan shard runs as a task on one long-lived work-stealing pool
//! (`reis-sched`), and the asynchronous request [`Pipeline`] sits in front
//! of the batched searches. Both are pure scheduling, so this suite proves
//! the strongest claim available: results, documents, modelled
//! latency/activity and transferred-entry accounting are bit-identical
//! across `ScanParallelism` × batch size × pool sizes, and a
//! pipeline-formed batch answers exactly like a direct `search_batch` call.
//! The pipeline is one generic front door, so the same mixed trace is also
//! driven through the pipelines of a 1-leaf and a 3-leaf cluster: formation
//! depends only on arrivals, and a cluster answers like its union.
//!
//! # The scheduler CI gate
//!
//! When `REIS_TEST_SUMMARY_DIR` is set, the property tests write one
//! summary file per test, one line per generated case. CI runs this suite
//! four times crossing `REIS_TEST_PARALLELISM={1,4}` (the forced auto-shard
//! budget) with `REIS_SCHED_WORKERS={1,4}` (the pool size) and diffs every
//! leg against the first: any accounting that depends on how many workers
//! the pool has — or on how the shards were cut — fails the gate.
//! The pipeline property makes the diff sensitive to formation order
//! because its summary records virtual completion times, which would shift
//! if pool size leaked into batch formation.

use proptest::prelude::*;

use reis_cluster::ClusterSystem;
use reis_core::{
    AdaptiveFiltering, Backend, CompactionPolicy, LanePriority, Modelled, Pipeline,
    PipelineCompletion, PipelineConfig, PipelineReply, PipelineRequest, ReisConfig, ReisError,
    ReisSystem, ScanParallelism, SearchOutcome, VectorDatabase,
};
use reis_workloads::{ArrivalEvent, ArrivalTrace};

mod support;
use support::record_summary;

fn vectors(n: usize, dim: usize, salt: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| (((i * 23 + d * 11 + salt * 5) % 29) as f32 - 14.0) / 6.0)
                .collect()
        })
        .collect()
}

fn documents(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("doc {i}").into_bytes()).collect()
}

/// Full-outcome equality modulo the raw error-injection counter (the same
/// exemption the adaptive/fused suites document: the device RNG's position
/// depends on TLC read history, not on who executed the shard).
fn assert_outcome_eq(a: &SearchOutcome, b: &SearchOutcome, ctx: &str) {
    assert_eq!(a.results, b.results, "results: {ctx}");
    assert_eq!(a.documents, b.documents, "documents: {ctx}");
    assert_eq!(a.latency, b.latency, "latency: {ctx}");
    assert_eq!(a.activity, b.activity, "activity: {ctx}");
    assert_eq!(a.energy, b.energy, "energy: {ctx}");
    let mut fa = a.flash_stats;
    let mut fb = b.flash_stats;
    fa.injected_bit_errors = 0;
    fb.injected_bit_errors = 0;
    assert_eq!(fa, fb, "flash stats: {ctx}");
}

/// The forced auto-shard budget of the gate (`REIS_TEST_PARALLELISM`), or
/// `fallback` when unset — the same lever the adaptive gate uses to make
/// different legs partition every scan differently.
fn forced_budget(fallback: usize) -> usize {
    std::env::var("REIS_TEST_PARALLELISM")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(fallback)
}

#[test]
fn worker_panic_is_isolated_and_the_system_stays_correct() {
    // A panicking pool task must surface as an error — not poison the pool
    // or abort the process — and the system must answer the next query
    // exactly like a fresh one.
    let all = vectors(96, 64, 6);
    let db = VectorDatabase::flat(&all, documents(96)).unwrap();
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let id = system.deploy(&db).unwrap();

    let panic = system
        .scheduler()
        .scope(|scope| {
            scope.spawn(|_ctx| panic!("deliberate task failure"));
        })
        .expect_err("the panic must surface");
    assert!(
        panic.message.contains("deliberate task failure"),
        "panic payload lost: {}",
        panic.message
    );

    // The pool survives: queries on the same system still match a system
    // whose pool never saw a panic.
    let mut fresh = ReisSystem::new(ReisConfig::tiny());
    let fresh_id = fresh.deploy(&db).unwrap();
    for q in 0..3 {
        let a = system.search(id, &all[q * 29], 5).unwrap();
        let b = fresh.search(fresh_id, &all[q * 29], 5).unwrap();
        assert_outcome_eq(&a, &b, &format!("after panic, query {q}"));
    }
}

#[test]
fn pipeline_backpressure_sheds_then_recovers() {
    // Past `queue_depth` queued searches, submit sheds with
    // `ReisError::Overloaded` and queues nothing; once the lane drains, the
    // pipeline accepts again and every accepted request completes.
    let all = vectors(96, 64, 8);
    let db = VectorDatabase::flat(&all, documents(96)).unwrap();
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let id = system.deploy(&db).unwrap();

    let config = PipelineConfig::default()
        .with_max_batch(16)
        .with_max_wait_us(100)
        .with_queue_depth(4);
    let mut pipeline = system.pipeline(id, config);
    let mut accepted = 0usize;
    for i in 0..6 {
        let submitted = pipeline.submit(
            10,
            PipelineRequest::Search {
                query: all[i * 7].clone(),
                k: 3,
            },
        );
        if i < 4 {
            submitted.expect("under the bound");
            accepted += 1;
        } else {
            match submitted {
                Err(ReisError::Overloaded { depth }) => assert_eq!(depth, 4),
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
    }
    assert_eq!(pipeline.shed(), 2);
    assert_eq!(pipeline.queued(), 4);

    // Advancing past the formation deadline drains the lane...
    pipeline.run_until(1_000_000);
    assert_eq!(pipeline.queued(), 0);
    // ...after which the same submission succeeds.
    pipeline
        .submit(
            1_000_010,
            PipelineRequest::Search {
                query: all[3].clone(),
                k: 3,
            },
        )
        .expect("drained lane accepts again");
    accepted += 1;
    pipeline.flush();
    let completions = pipeline.drain_completions();
    assert_eq!(completions.len(), accepted);
    for completion in &completions {
        let reply = completion.reply.as_ref().expect("healthy system");
        assert!(matches!(reply, PipelineReply::Search(_)));
        assert!(completion.completed_ns >= completion.dispatched_ns);
        assert!(completion.dispatched_ns >= completion.submitted_ns);
    }
    assert_eq!(pipeline.shed(), 2, "recovery must not re-count old sheds");
}

#[test]
fn pipeline_refuses_a_malformed_search_without_poisoning_its_batch() {
    // Eight searches arrive inside one formation window; the fifth has the
    // wrong dimensionality. It is refused to its own submitter at once, and
    // the seven well-formed requests it would have been batched with
    // complete exactly as direct searches do.
    let all = vectors(96, 64, 12);
    let db = VectorDatabase::flat(&all, documents(96)).unwrap();
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let id = system.deploy(&db).unwrap();
    let mut direct = ReisSystem::new(ReisConfig::tiny());
    let direct_id = direct.deploy(&db).unwrap();

    let mut pipeline = system.pipeline(id, PipelineConfig::default().with_max_batch(8));
    let mut accepted: Vec<(u64, usize)> = Vec::new();
    for i in 0..8usize {
        let query = if i == 4 {
            all[i * 9][..40].to_vec()
        } else {
            all[i * 9].clone()
        };
        let submitted = pipeline.submit(10 + i as u64, PipelineRequest::Search { query, k: 4 });
        if i == 4 {
            assert!(
                matches!(
                    submitted,
                    Err(ReisError::QueryDimensionMismatch {
                        expected: 64,
                        actual: 40
                    })
                ),
                "the malformed request must be refused at submission: {submitted:?}"
            );
        } else {
            accepted.push((submitted.expect("well-formed request"), i));
        }
    }
    assert_eq!(pipeline.shed(), 0, "a refused request is not a shed one");
    assert_eq!(pipeline.queued(), 7);
    pipeline.flush();
    let completions = pipeline.drain_completions();
    assert_eq!(completions.len(), 7);
    for (completion, (request_id, i)) in completions.iter().zip(&accepted) {
        assert_eq!(completion.request_id, *request_id);
        assert_eq!(completion.batch_size, 7, "the seven rode in one batch");
        let Ok(PipelineReply::Search(got)) = &completion.reply else {
            panic!("request {i} was poisoned: {:?}", completion.reply);
        };
        let want = direct.search(direct_id, &all[i * 9], 4).unwrap();
        assert_outcome_eq(got, &want, &format!("pipeline vs direct, request {i}"));
    }
}

#[test]
fn pipeline_mutations_first_gives_read_your_writes() {
    // Under MutationsFirst, a search batch never dispatches while an
    // earlier-arriving insert is queued: the search must see the insert.
    let all = vectors(64, 64, 10);
    let db = VectorDatabase::flat(&all, documents(64)).unwrap();
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let id = system.deploy(&db).unwrap();

    // A probe vector far from the corpus, then a search for exactly it.
    let probe: Vec<f32> = (0..64)
        .map(|d| if d % 2 == 0 { 9.0 } else { -9.0 })
        .collect();
    let mut pipeline = system.pipeline(
        id,
        PipelineConfig::default().with_priority(LanePriority::MutationsFirst),
    );
    pipeline
        .submit(
            5,
            PipelineRequest::Insert {
                vector: probe.clone(),
                document: b"the new arrival".to_vec(),
            },
        )
        .unwrap();
    pipeline
        .submit(
            6,
            PipelineRequest::Search {
                query: probe.clone(),
                k: 1,
            },
        )
        .unwrap();
    pipeline.flush();
    let completions = pipeline.drain_completions();
    assert_eq!(completions.len(), 2);
    let Ok(PipelineReply::Search(outcome)) = &completions[1].reply else {
        panic!("second completion must be the search");
    };
    assert_eq!(
        outcome.documents[0], b"the new arrival",
        "the search dispatched before the mutation it arrived after"
    );
}

/// The first `count` arrivals of a seeded Poisson trace at `offered_qps`
/// over `queries` query slots (the horizon is doubled, deterministically,
/// on the rare short draw).
fn poisson_arrivals(
    offered_qps: u64,
    count: usize,
    queries: usize,
    seed: u64,
) -> Vec<ArrivalEvent> {
    let mut duration_us = ((count as f64 / offered_qps as f64) * 2e6).ceil() as u64 + 1_000;
    let mut trace = ArrivalTrace::poisson(offered_qps as f64, duration_us, queries, seed);
    while trace.len() < count {
        duration_us *= 2;
        trace = ArrivalTrace::poisson(offered_qps as f64, duration_us, queries, seed);
    }
    trace.events().iter().take(count).copied().collect()
}

/// A vector of hashed, well-spread components: two distinct `id`s never
/// share an INT8 rerank distance to a query in practice, so the only
/// order two backends could disagree on — a tie-break — does not arise.
fn spread_vector(id: u64, dim: usize) -> Vec<f32> {
    (0..dim as u64)
        .map(|d| {
            let mut z = (id << 16 | d).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 40) as f32 / (1u64 << 23) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Submit `requests` to a pipeline over any backend, flush it, and check
/// what must hold whatever executes the work: nothing is shed, and the
/// modelled device is occupied by every successful request — each one
/// starts at its dispatch or when the work dispatched before it finishes,
/// whichever is later, and an insert takes modelled time like any other
/// mutation.
fn drive<B: Backend>(
    mut pipeline: Pipeline<B>,
    requests: &[(u64, PipelineRequest)],
) -> Vec<PipelineCompletion<B::Search>> {
    for (at_ns, request) in requests {
        pipeline
            .submit(*at_ns, request.clone())
            .expect("default queue depth exceeds the request count");
    }
    pipeline.flush();
    assert_eq!(pipeline.shed(), 0);
    let completions = pipeline.drain_completions();
    assert_eq!(completions.len(), requests.len());

    let mut busy_until = 0u64;
    let mut next = 0usize;
    while next < completions.len() {
        // A search batch completes contiguously; a mutation is a batch of one.
        let batch = &completions[next..next + completions[next].batch_size];
        let mut batch_end = busy_until;
        for completion in batch {
            let latency_ns = match &completion.reply {
                Ok(PipelineReply::Search(outcome)) => outcome.modelled_latency().as_nanos(),
                Ok(PipelineReply::Mutation(outcome)) => outcome.latency.as_nanos(),
                Err(_) => 0,
            };
            let request = &requests[completion.request_id as usize].1;
            if completion.reply.is_ok() && matches!(request, PipelineRequest::Insert { .. }) {
                assert!(latency_ns > 0, "an insert must occupy the modelled device");
            }
            assert_eq!(
                completion.completed_ns - latency_ns,
                completion.dispatched_ns.max(busy_until),
                "request {} started before the device was free",
                completion.request_id
            );
            if completion.reply.is_ok() {
                batch_end = batch_end.max(completion.completed_ns);
            }
        }
        busy_until = batch_end;
        next += batch.len();
    }
    completions
}

/// Open-loop Poisson arrivals at six times the modelled service rate, the
/// same 48 requests with batch formation off (`max_batch` 1) and on (8):
/// a formed batch occupies the modelled device once, so in virtual time
/// formation finishes the trace sooner at no worse a p99 sojourn.
#[test]
fn batch_formation_beats_dispatch_on_arrival_under_overload() {
    let all = vectors(96, 64, 14);
    let db = VectorDatabase::flat(&all, documents(96)).unwrap();
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let id = system.deploy(&db).unwrap();
    let service_ns = system
        .search(id, &all[0], 5)
        .unwrap()
        .total_latency()
        .as_nanos();
    let requests: Vec<(u64, PipelineRequest)> =
        poisson_arrivals(6_000_000_000 / service_ns, 48, 4, 0x5EED)
            .iter()
            .map(|event| {
                let query = all[event.query_index * 17].clone();
                (event.at_ns, PipelineRequest::Search { query, k: 5 })
            })
            .collect();

    // (virtual makespan, p99 sojourn) of the whole trace, in nanoseconds.
    let mut run = |max_batch: usize| {
        let config = PipelineConfig::default().with_max_batch(max_batch);
        let completions = drive(system.pipeline(id, config), &requests);
        let mut sojourns: Vec<u64> = completions
            .iter()
            .map(|c| c.completed_ns - c.submitted_ns)
            .collect();
        sojourns.sort_unstable();
        let last_out = completions.iter().map(|c| c.completed_ns).max().unwrap();
        let p99 = sojourns[(sojourns.len() * 99).div_ceil(100) - 1];
        (last_out - requests[0].0, p99)
    };
    let (unbatched_makespan, unbatched_p99) = run(1);
    let (batched_makespan, batched_p99) = run(8);
    assert!(
        batched_makespan < unbatched_makespan,
        "formation must sustain the higher throughput: {batched_makespan} ns \
         against {unbatched_makespan} ns for the same 48 requests"
    );
    assert!(
        batched_p99 <= unbatched_p99,
        "p99 sojourn {batched_p99} ns batched against {unbatched_p99} ns"
    );
}

/// What must agree across backends: who dispatched when, in what batch,
/// and — for searches — which ids came back.
type Formed = (u64, u64, u64, usize, Option<Vec<usize>>);

fn formed<S>(
    completions: &[PipelineCompletion<S>],
    result_ids: impl Fn(&S) -> Vec<usize>,
) -> Vec<Formed> {
    completions
        .iter()
        .map(|c| {
            let ids = match &c.reply {
                Ok(PipelineReply::Search(outcome)) => Some(result_ids(outcome)),
                _ => None,
            };
            (
                c.request_id,
                c.submitted_ns,
                c.dispatched_ns,
                c.batch_size,
                ids,
            )
        })
        .collect()
}

/// Build the parallelism legs the identity property compares. Every leg
/// must agree with every other — and with itself across the gate's
/// `REIS_SCHED_WORKERS` pool sizes.
fn scheduler_mode_configs(base: ReisConfig, shards: usize) -> Vec<(String, ReisConfig)> {
    vec![
        (
            "sequential".into(),
            base.with_scan_parallelism(ScanParallelism::sequential()),
        ),
        (
            "sharded".into(),
            base.with_scan_parallelism(
                ScanParallelism::sharded(forced_budget(shards)).with_min_pages_per_shard(1),
            ),
        ),
    ]
}

proptest! {
    /// Searches and batch searches are bit-identical across
    /// `ScanParallelism` settings over random database shapes and mutation
    /// traces (the name predates the deletion of the spawn-per-window
    /// executor and the replica batch path it also crossed; the scheduler
    /// gate's diff step keys on it). The
    /// transferred-entry and sense accounting lands in the scheduler-gate
    /// summary, so CI additionally diffs it across forced shard budgets
    /// *and* pool sizes.
    #[test]
    fn executor_identity_across_pool_spawn_and_fusion(
        entries in 24usize..72,
        dim_words in 1usize..3,
        window in 1usize..7,
        shards in 2usize..5,
        mutations in 0usize..6,
        seed in 0usize..1_000,
    ) {
        let dim = dim_words * 32;
        let base = ReisConfig::tiny()
            .with_adaptive_scope(AdaptiveFiltering::All)
            .with_adaptive_window(window)
            .with_compaction(CompactionPolicy::manual());
        let all = vectors(entries, dim, seed);
        let nlist = (entries / 6).clamp(1, 4);
        let db = VectorDatabase::ivf(&all, documents(entries), nlist).expect("database");
        let queries: Vec<Vec<f32>> =
            (0..3).map(|q| all[(seed + q * 17) % entries].clone()).collect();
        let nprobe = nlist.min(2);

        // Replayed verbatim on every fresh system so all legs search the
        // identical index state.
        let mutate = |system: &mut ReisSystem, id: u32| {
            for m in 0..mutations {
                let x = (seed * 29 + m * 11) % 10;
                let vector: Vec<f32> = (0..dim)
                    .map(|d| (((m * 17 + d * 3 + seed) % 23) as f32 - 11.0) / 5.0)
                    .collect();
                if x < 5 {
                    system
                        .insert(id, &vector, format!("ins {m}").into_bytes())
                        .expect("insert");
                } else if x < 7 {
                    let _ = system.delete(id, ((seed + m * 3) % entries) as u32);
                } else {
                    let _ = system.upsert(
                        id,
                        ((seed + m * 5) % entries) as u32,
                        &vector,
                        format!("ups {m}").as_bytes(),
                    );
                }
            }
        };

        let mut per_leg: Vec<(String, Vec<SearchOutcome>)> = Vec::new();
        for (name, config) in scheduler_mode_configs(base, shards) {
            let mut system = ReisSystem::new(config);
            let id = system.deploy(&db).expect("deploy");
            mutate(&mut system, id);
            let mut outcomes: Vec<SearchOutcome> = Vec::new();
            for q in &queries {
                outcomes.push(system.search(id, q, 1).expect("bf search"));
            }
            for q in &queries {
                outcomes.push(
                    system
                        .ivf_search_with_nprobe(id, q, 1, nprobe)
                        .expect("ivf search"),
                );
            }
            per_leg.push((name, outcomes));
        }
        let (ref_name, reference) = &per_leg[0];
        for (name, got) in &per_leg[1..] {
            for (i, (a, b)) in reference.iter().zip(got).enumerate() {
                assert_outcome_eq(a, b, &format!("{ref_name} vs {name}, query {i}"));
            }
        }

        // A batch must be per-query bit-identical to the one-by-one
        // reference.
        let mut system = ReisSystem::new(base);
        let id = system.deploy(&db).expect("batch deploy");
        mutate(&mut system, id);
        let before = *system.controller().device().stats();
        let bf = system
            .search_batch(id, &queries, 1, shards)
            .expect("bf batch");
        let fused_senses = system
            .controller()
            .device()
            .stats()
            .delta_since(&before)
            .page_reads;
        let ivf = system
            .ivf_search_batch_with_nprobe(id, &queries, 1, nprobe, shards)
            .expect("ivf batch");
        for (i, (b, s)) in bf.iter().chain(&ivf).zip(reference).enumerate() {
            assert_outcome_eq(b, s, &format!("batch vs one by one, query {i}"));
        }

        // Gate summary: identical regardless of shard budget or pool size — that is precisely the scheduler-invariance claim.
        let entries_line: Vec<String> = reference
            .iter()
            .map(|o| format!("{}/{}", o.activity.fine_entries, o.activity.fine_windows))
            .collect();
        record_summary(
            "executor_identity_across_pool_spawn_and_fusion",
            &format!(
                "case window={window} shards={shards} entries={} mutations={mutations} \
                 per_query={} fused_senses={fused_senses}",
                entries,
                entries_line.join(","),
            ),
        );
    }

    /// A pipeline-formed batch answers exactly like a direct
    /// `search_batch` call, and the whole pipeline — completion ids,
    /// virtual times, batch sizes, shed counts — is deterministic for a
    /// seeded arrival trace. The summary records the completion schedule,
    /// so the gate diff would catch pool size leaking into formation.
    #[test]
    fn pipeline_matches_direct_batch_and_is_deterministic(
        entries in 24usize..64,
        dim_words in 1usize..3,
        num_requests in 4usize..24,
        max_batch in 1usize..9,
        max_wait_us in 10u64..400,
        offered_qps in 20_000u64..400_000,
        seed in 0u64..1_000,
    ) {
        let dim = dim_words * 32;
        let all = vectors(entries, dim, seed as usize);
        let db = VectorDatabase::flat(&all, documents(entries)).expect("database");
        let arrivals = poisson_arrivals(offered_qps, num_requests, entries, seed);
        let config = PipelineConfig::default()
            .with_max_batch(max_batch)
            .with_max_wait_us(max_wait_us);

        let run = || {
            let mut system = ReisSystem::new(ReisConfig::tiny());
            let id = system.deploy(&db).expect("deploy");
            let mut pipeline = system.pipeline(id, config);
            for event in &arrivals {
                pipeline
                    .submit(
                        event.at_ns,
                        PipelineRequest::Search {
                            query: all[event.query_index].clone(),
                            k: 3,
                        },
                    )
                    .expect("default queue depth exceeds the request count");
            }
            pipeline.flush();
            let shed = pipeline.shed();
            (pipeline.drain_completions(), shed)
        };
        let (completions, shed) = run();
        let (replay, replay_shed) = run();
        prop_assert_eq!(&completions, &replay, "pipeline must be trace-deterministic");
        prop_assert_eq!(shed, replay_shed);
        prop_assert_eq!(completions.len(), arrivals.len());

        // Per-request answers equal a direct batch call on a fresh system,
        // in completion order (fused batches are per-query bit-identical
        // to sequential execution, so formation boundaries cannot matter).
        let mut direct_system = ReisSystem::new(ReisConfig::tiny());
        let direct_id = direct_system.deploy(&db).expect("direct deploy");
        let ordered: Vec<Vec<f32>> = completions
            .iter()
            .map(|c| all[arrivals[c.request_id as usize].query_index].clone())
            .collect();
        let direct = direct_system
            .search_batch(direct_id, &ordered, 3, 4)
            .expect("direct batch");
        for (i, (completion, want)) in completions.iter().zip(&direct).enumerate() {
            let Ok(PipelineReply::Search(got)) = &completion.reply else {
                panic!("search completion {i} errored: {:?}", completion.reply);
            };
            assert_outcome_eq(got, want, &format!("pipeline vs direct, request {i}"));
        }

        // Gate summary: the full virtual completion schedule.
        let schedule: Vec<String> = completions
            .iter()
            .map(|c| {
                format!(
                    "{}@{}:{}:{}x{}",
                    c.request_id, c.submitted_ns, c.dispatched_ns, c.completed_ns, c.batch_size
                )
            })
            .collect();
        record_summary(
            "pipeline_matches_direct_batch_and_is_deterministic",
            &format!(
                "case requests={} max_batch={max_batch} wait_us={max_wait_us} shed={shed} \
                 schedule={}",
                arrivals.len(),
                schedule.join(","),
            ),
        );
    }

    /// One front door: the same seeded Poisson trace of mixed requests —
    /// brute-force and IVF searches, inserts, deletes, upserts — forms the
    /// same batches at the same virtual times through the device pipeline,
    /// the pipeline of a 1-leaf cluster and the pipeline of a 3-leaf
    /// cluster over the same corpus, and every search returns the same ids
    /// (formation depends only on arrivals; a cluster answers like its
    /// union). `drive` additionally holds each backend to the busy-device
    /// model, cluster inserts included. The summary records the 3-leaf
    /// cluster's full virtual schedule, so the gate diffs the generic
    /// pipeline over a cluster across shard budgets and pool sizes.
    #[test]
    fn one_pipeline_forms_one_schedule_over_device_and_clusters(
        entries in 24usize..40,
        num_requests in 6usize..24,
        max_batch in 1usize..9,
        max_wait_us in 10u64..400,
        offered_qps in 20_000u64..400_000,
        seed in 0u64..1_000,
    ) {
        const DIM: usize = 64;
        const NLIST: usize = 3;
        // `rerank_factor x K` covers the whole (grown) corpus, so the
        // candidate cut — whose tie-break order inserts do change between
        // a device and a cluster — never bites.
        const K: usize = 7;
        let all: Vec<Vec<f32>> = (0..entries as u64)
            .map(|id| spread_vector(seed << 20 | id, DIM))
            .collect();
        let docs = documents(entries);
        let requests: Vec<(u64, PipelineRequest)> =
            poisson_arrivals(offered_qps, num_requests, entries, seed)
                .iter()
                .enumerate()
                .map(|(i, event)| {
                    let target = event.query_index;
                    let fresh = || spread_vector(seed << 20 | 1 << 19 | i as u64, DIM);
                    let request = match (target + i) % 8 {
                        0 => PipelineRequest::Insert {
                            vector: fresh(),
                            document: format!("ins {i}").into_bytes(),
                        },
                        1 => PipelineRequest::Delete { id: target as u32 },
                        2 => PipelineRequest::Upsert {
                            id: target as u32,
                            vector: fresh(),
                            document: format!("ups {i}").into_bytes(),
                        },
                        3 | 4 => PipelineRequest::IvfSearch {
                            query: all[target].clone(),
                            k: K,
                            nprobe: 2,
                        },
                        _ => PipelineRequest::Search {
                            query: all[target].clone(),
                            k: K,
                        },
                    };
                    (event.at_ns, request)
                })
                .collect();
        let config = ReisConfig::tiny().with_compaction(CompactionPolicy::manual());
        let pipeline_config = PipelineConfig::default()
            .with_max_batch(max_batch)
            .with_max_wait_us(max_wait_us);

        let mut device = ReisSystem::new(config);
        let db = device
            .deploy(&VectorDatabase::ivf(&all, docs.clone(), NLIST).expect("database"))
            .expect("deploy");
        let on_device = formed(
            &drive(device.pipeline(db, pipeline_config), &requests),
            SearchOutcome::result_ids,
        );

        for leaves in [1usize, 3] {
            let mut cluster = ClusterSystem::new(config, leaves).expect("cluster");
            cluster.deploy_ivf(&all, &docs, NLIST).expect("cluster deploy");
            let completions = drive(cluster.pipeline(pipeline_config), &requests);
            let on_cluster = formed(&completions, |outcome| {
                outcome.results.iter().map(|n| n.id).collect()
            });
            prop_assert_eq!(&on_cluster, &on_device, "{} leaves vs the device", leaves);
            if leaves == 3 {
                let schedule: Vec<String> = completions
                    .iter()
                    .zip(&on_cluster)
                    .map(|(c, (.., ids))| {
                        format!(
                            "{}@{}:{}:{}x{}={:?}",
                            c.request_id,
                            c.submitted_ns,
                            c.dispatched_ns,
                            c.completed_ns,
                            c.batch_size,
                            ids
                        )
                    })
                    .collect();
                record_summary(
                    "one_pipeline_forms_one_schedule_over_device_and_clusters",
                    &format!(
                        "case requests={} max_batch={max_batch} wait_us={max_wait_us} schedule={}",
                        requests.len(),
                        schedule.join(","),
                    ),
                );
            }
        }
    }
}
