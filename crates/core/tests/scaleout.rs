//! Multi-device scale-out bit-identity.
//!
//! A cluster of N leaf devices serving one sharded corpus must be
//! *indistinguishable* from a single device serving the union: identical
//! result ids, identical rerank distances, identical documents, and an
//! identical transferred-entry count (the sum over leaves equals the
//! single device's, because leaf scans pin the static distance threshold,
//! which is partition-invariant). This suite proves that for leaf counts
//! {1, 2, 3, 5, 8}, for fresh flat and IVF deployments, under sequential,
//! sharded and auto-defaulted scan parallelism, across random mutation traces (pre- and post-compaction),
//! through hedged straggler schedules, and across per-leaf crash points
//! with recovery from each leaf's durable prefix.
//!
//! # The CI determinism gate
//!
//! When `REIS_TEST_SUMMARY_DIR` is set, the identity tests write one line
//! per checked case (result ids, distances, transferred-entry sums). CI
//! runs the suite under `REIS_TEST_PARALLELISM=1` and `=4` — which changes
//! how every leaf's fine scan is partitioned via the auto-shard upgrade —
//! and diffs the summaries: only true partition invariance of the
//! scale-out merge makes them byte-identical.

use proptest::prelude::*;

use reis_cluster::{ClusterSystem, HedgePolicy, LatencyModel};
use reis_core::{
    CompactionPolicy, DurableStore, FaultVfs, HistogramId, MemVfs, ReisConfig, ReisSystem,
    ScanParallelism, SearchOutcome, VectorDatabase,
};
use reis_nand::{Geometry, Nanos};
use reis_workloads::LeafCrashSchedule;

mod support;
use support::{record_summary, Mirror};

const DIM: usize = 32;
const LEAF_COUNTS: [usize; 5] = [1, 2, 3, 5, 8];

fn vector_for(id: u32, salt: u64) -> Vec<f32> {
    (0..DIM)
        .map(|d| {
            let x = (id as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(d as u64 * 0x85EB_CA6B)
                .wrapping_add(salt.wrapping_mul(0xC2B2_AE35));
            ((x >> 7) % 23) as f32 - 11.0
        })
        .collect()
}

fn doc_for(id: u32, version: u32) -> Vec<u8> {
    format!("doc {id} v{version}").into_bytes()
}

fn corpus(entries: usize) -> (Vec<Vec<f32>>, Vec<Vec<u8>>) {
    let vectors = (0..entries as u32).map(|id| vector_for(id, 0)).collect();
    let documents = (0..entries as u32).map(|id| doc_for(id, 0)).collect();
    (vectors, documents)
}

/// Cluster outcome == single-device outcome: ids, distances, documents,
/// the transferred-entry sum and the candidate-cut width.
fn assert_cluster_matches(
    cluster: &reis_cluster::ClusterSearchOutcome,
    single: &SearchOutcome,
    ctx: &str,
) {
    let cluster_ids: Vec<usize> = cluster.results.iter().map(|n| n.id).collect();
    let single_ids: Vec<usize> = single.results.iter().map(|n| n.id).collect();
    assert_eq!(cluster_ids, single_ids, "result ids: {ctx}");
    let cluster_d: Vec<f32> = cluster.results.iter().map(|n| n.distance).collect();
    let single_d: Vec<f32> = single.results.iter().map(|n| n.distance).collect();
    assert_eq!(cluster_d, single_d, "result distances: {ctx}");
    assert_eq!(cluster.documents, single.documents, "documents: {ctx}");
    assert_eq!(
        cluster.activity.activity.fine_entries, single.activity.fine_entries,
        "transferred fine entries: {ctx}"
    );
    assert_eq!(
        cluster.activity.cut_candidates, single.activity.rerank_candidates,
        "global candidate cut width: {ctx}"
    );
}

/// The scan-parallelism modes identity is checked under. The auto default
/// is the CI gate's sensitive leg: `REIS_TEST_PARALLELISM` changes its
/// actual shard count, and the summaries must not move.
fn modes() -> [(&'static str, ReisConfig); 3] {
    let base = ReisConfig::tiny();
    [
        ("auto", base),
        (
            "sequential",
            base.with_scan_parallelism(ScanParallelism::sequential()),
        ),
        (
            "sharded3",
            base.with_scan_parallelism(ScanParallelism::sharded(3).with_min_pages_per_shard(1)),
        ),
    ]
}

/// Fresh flat deployments: every leaf count, every parallelism mode, single
/// and batched queries.
#[test]
fn fresh_flat_cluster_matches_single_device() {
    let (vectors, documents) = corpus(48);
    let queries: Vec<Vec<f32>> = (0..4u32).map(|q| vector_for(900 + q, 17)).collect();

    for (mode, config) in modes() {
        let mut single = ReisSystem::new(config.with_adaptive_filtering(false));
        let db = single
            .deploy(&VectorDatabase::flat(&vectors, documents.clone()).unwrap())
            .unwrap();

        for leaves in LEAF_COUNTS {
            let mut cluster = ClusterSystem::new(config, leaves).unwrap();
            cluster.deploy_flat(&vectors, &documents).unwrap();

            for (q, query) in queries.iter().enumerate() {
                let a = cluster.search(query, 6).unwrap();
                let b = single.search(db, query, 6).unwrap();
                let ctx = format!("{mode}/{leaves} leaves/query {q}");
                assert_cluster_matches(&a, &b, &ctx);
                record_summary(
                    "scaleout_fresh_flat",
                    &format!(
                        "{mode} leaves={leaves} q={q} ids={:?} fine={} cut={}",
                        a.results.iter().map(|n| n.id).collect::<Vec<_>>(),
                        a.activity.activity.fine_entries,
                        a.activity.cut_candidates
                    ),
                );
            }

            // Batched fan-out must equal one-at-a-time fan-out.
            let batch = cluster.search_batch(&queries, 6, None).unwrap();
            for (q, (b_out, query)) in batch.iter().zip(&queries).enumerate() {
                let s_out = single.search(db, query, 6).unwrap();
                assert_cluster_matches(
                    b_out,
                    &s_out,
                    &format!("{mode}/{leaves} leaves/batch query {q}"),
                );
            }

            // k exceeding the corpus returns the full ranking.
            let all = cluster.search(&queries[0], 60).unwrap();
            let all_single = single.search(db, &queries[0], 60).unwrap();
            assert_cluster_matches(&all, &all_single, &format!("{mode}/{leaves} leaves/k=60"));
        }
    }
}

/// Fresh IVF deployments: the full centroid set is replicated to every
/// leaf, so each leaf probes the same clusters and the union of probed
/// members equals the single device's.
#[test]
fn fresh_ivf_cluster_matches_single_device() {
    let (vectors, documents) = corpus(60);
    let queries: Vec<Vec<f32>> = (0..3u32).map(|q| vector_for(700 + q, 29)).collect();
    let nlist = 5;

    for (mode, config) in modes() {
        let mut single = ReisSystem::new(config.with_adaptive_filtering(false));
        let db = single
            .deploy(&VectorDatabase::ivf(&vectors, documents.clone(), nlist).unwrap())
            .unwrap();

        for leaves in [1usize, 2, 3, 5] {
            let mut cluster = ClusterSystem::new(config, leaves).unwrap();
            cluster.deploy_ivf(&vectors, &documents, nlist).unwrap();

            for (q, query) in queries.iter().enumerate() {
                for nprobe in [1usize, 3, nlist] {
                    let a = cluster.ivf_search_with_nprobe(query, 6, nprobe).unwrap();
                    let b = single.ivf_search_with_nprobe(db, query, 6, nprobe).unwrap();
                    let ctx = format!("{mode}/{leaves} leaves/query {q}/nprobe {nprobe}");
                    assert_cluster_matches(&a, &b, &ctx);
                    record_summary(
                        "scaleout_fresh_ivf",
                        &format!(
                            "{mode} leaves={leaves} q={q} nprobe={nprobe} ids={:?} fine={}",
                            a.results.iter().map(|n| n.id).collect::<Vec<_>>(),
                            a.activity.activity.fine_entries
                        ),
                    );
                }
                // Brute force over an IVF deployment scans everything on
                // both sides.
                let a = cluster.search(query, 6).unwrap();
                let b = single.search(db, query, 6).unwrap();
                assert_cluster_matches(&a, &b, &format!("{mode}/{leaves} leaves/brute q{q}"));
            }
        }
    }
}

/// Per-leaf mirrors seeded with the deploy-time shard slices (for a flat
/// corpus the slices are contiguous ranges of entry order).
fn seeded_mirrors(
    cluster: &ClusterSystem,
    vectors: &[Vec<f32>],
    documents: &[Vec<u8>],
) -> Vec<Mirror> {
    let mut mirrors: Vec<Mirror> = (0..cluster.num_leaves()).map(|_| Mirror::empty()).collect();
    for id in 0..vectors.len() as u32 {
        let leaf = cluster.router().owner(id);
        mirrors[leaf].seed(
            id,
            vectors[id as usize].clone(),
            documents[id as usize].clone(),
        );
    }
    mirrors
}

/// The union reference: each leaf's mirror order concatenated leaf-major —
/// exactly the order the lifted `(distance, leaf, storage index)` merge
/// key induces — rebuilt as a fresh flat deployment under the union
/// quantizers.
fn union_rebuild(
    mirrors: &[Mirror],
    template: &VectorDatabase,
) -> Option<(Vec<u32>, VectorDatabase)> {
    let order: Vec<u32> = mirrors
        .iter()
        .flat_map(|m| m.order.iter().copied())
        .collect();
    if order.is_empty() {
        return None;
    }
    let versions: std::collections::HashMap<u32, &(Vec<f32>, Vec<u8>)> = mirrors
        .iter()
        .flat_map(|m| m.versions.iter().map(|(&id, v)| (id, v)))
        .collect();
    let vectors: Vec<Vec<f32>> = order.iter().map(|id| versions[id].0.clone()).collect();
    let documents: Vec<Vec<u8>> = order.iter().map(|id| versions[id].1.clone()).collect();
    let db = VectorDatabase::flat_with_quantizers(
        &vectors,
        documents,
        template.binary_quantizer().clone(),
        template.int8_quantizer().clone(),
    )
    .expect("reference rebuild");
    Some((order, db))
}

/// Cluster results == reference results (reference ids are dense positions
/// into `order`).
fn assert_matches_rebuild(
    cluster: &reis_cluster::ClusterSearchOutcome,
    reference: &SearchOutcome,
    order: &[u32],
    ctx: &str,
) {
    let cluster_ids: Vec<u32> = cluster.results.iter().map(|n| n.id as u32).collect();
    let mapped: Vec<u32> = reference.results.iter().map(|n| order[n.id]).collect();
    assert_eq!(cluster_ids, mapped, "result ids: {ctx}");
    let cluster_d: Vec<f32> = cluster.results.iter().map(|n| n.distance).collect();
    let reference_d: Vec<f32> = reference.results.iter().map(|n| n.distance).collect();
    assert_eq!(cluster_d, reference_d, "result distances: {ctx}");
    assert_eq!(cluster.documents, reference.documents, "documents: {ctx}");
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert,
    Delete,
    Upsert,
    Compact,
}

fn decode_op(code: u8) -> Op {
    match code % 8 {
        0..=2 => Op::Insert,
        3 | 4 => Op::Delete,
        5 | 6 => Op::Upsert,
        _ => Op::Compact,
    }
}

/// Random mutation traces: the cluster (mutations routed to owning
/// leaves) must answer like a union rebuild of the per-leaf survivors,
/// and its transferred-entry sum must equal a single device driven
/// through the *same* trace — pre- and post-compaction.
///
/// `summary` names the calling property's summary file: the two callers
/// run on parallel test threads, so each records into a file of its own.
fn run_mutated(
    summary: &str,
    ops: &[(u8, u64)],
    entries: usize,
    leaves: usize,
    parallelism: ScanParallelism,
) {
    let (vectors, documents) = corpus(entries);
    let template = VectorDatabase::flat(&vectors, documents.clone()).expect("template");
    let config = ReisConfig::tiny()
        .with_scan_parallelism(parallelism)
        .with_compaction(CompactionPolicy::manual());

    let mut cluster = ClusterSystem::new(config, leaves).unwrap();
    cluster.deploy_flat(&vectors, &documents).unwrap();
    let mut mirrors = seeded_mirrors(&cluster, &vectors, &documents);

    // The twin: one device, same trace. Its global ids coincide with the
    // cluster's (both assign sequentially from the corpus size), which is
    // itself part of the property.
    let mut twin = ReisSystem::new(config.with_adaptive_filtering(false));
    let twin_db = twin.deploy(&template).unwrap();

    let live_ids = |mirrors: &[Mirror]| -> Vec<u32> {
        let mut ids: Vec<u32> = mirrors
            .iter()
            .flat_map(|m| m.order.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    };

    let mut version = 1u32;
    for &(code, payload) in ops {
        match decode_op(code) {
            Op::Insert => {
                let vector = vector_for(1000 + payload as u32, payload);
                let doc = doc_for(1000 + payload as u32, version);
                let id = cluster
                    .insert(&vector, doc.clone())
                    .expect("cluster insert")
                    .ids[0];
                let twin_id = twin
                    .insert(twin_db, &vector, doc.clone())
                    .expect("twin insert")
                    .ids[0];
                assert_eq!(
                    id, twin_id,
                    "global id assignment must match a single device"
                );
                mirrors[cluster.router().owner(id)].append(id, vector, doc);
            }
            Op::Delete => {
                let ids = live_ids(&mirrors);
                if ids.is_empty() {
                    continue;
                }
                let id = ids[payload as usize % ids.len()];
                cluster.delete(id).expect("cluster delete");
                twin.delete(twin_db, id).expect("twin delete");
                mirrors[cluster.router().owner(id)].remove(id);
            }
            Op::Upsert => {
                let ids = live_ids(&mirrors);
                if ids.is_empty() {
                    continue;
                }
                let id = ids[payload as usize % ids.len()];
                let vector = vector_for(id, payload.wrapping_add(7));
                let doc = doc_for(id, version);
                cluster.upsert(id, &vector, &doc).expect("cluster upsert");
                twin.upsert(twin_db, id, &vector, &doc)
                    .expect("twin upsert");
                mirrors[cluster.router().owner(id)].append(id, vector, doc);
            }
            Op::Compact => {
                cluster.compact().expect("cluster compact");
                twin.compact(twin_db).expect("twin compact");
            }
        }
        version += 1;
    }

    let check = |cluster: &mut ClusterSystem, twin: &mut ReisSystem, stage: &str| {
        match union_rebuild(&mirrors, &template) {
            None => {
                let out = cluster.search(&vector_for(1, 3), 5).expect("empty search");
                assert!(out.results.is_empty(), "empty corpus yields no results");
            }
            Some((order, reference_db)) => {
                let mut reference = ReisSystem::new(config.with_adaptive_filtering(false));
                let ref_db = reference.deploy(&reference_db).expect("reference deploy");
                for q in 0..3u32 {
                    let query = vector_for(2000 + q, 23);
                    let a = cluster.search(&query, 5).expect("cluster search");
                    let b = reference
                        .search(ref_db, &query, 5)
                        .expect("reference search");
                    let ctx = format!("{stage}, {leaves} leaves, query {q}");
                    assert_matches_rebuild(&a, &b, &order, &ctx);
                    // Transferred-entry identity vs the mutated twin: the
                    // count is a pointwise property of the corpus and the
                    // static threshold, whatever the partitioning.
                    let t = twin.search(twin_db, &query, 5).expect("twin search");
                    assert_eq!(
                        a.activity.activity.fine_entries, t.activity.fine_entries,
                        "transferred fine entries: {ctx}"
                    );
                    record_summary(
                        summary,
                        &format!(
                            "{stage} leaves={leaves} q={q} ids={:?} fine={}",
                            a.results.iter().map(|n| n.id).collect::<Vec<_>>(),
                            a.activity.activity.fine_entries
                        ),
                    );
                }
            }
        }
    };

    check(&mut cluster, &mut twin, "pre-compaction");
    cluster.compact().expect("final cluster compact");
    twin.compact(twin_db).expect("final twin compact");
    check(&mut cluster, &mut twin, "post-compaction");
}

proptest! {
    /// Random interleavings of routed insert/delete/upsert/compact keep
    /// every cluster search bit-identical to a union rebuild, and the
    /// transferred-entry sum equal to a same-trace single device, for every
    /// leaf count — under the sequential scan.
    #[test]
    fn mutated_cluster_matches_union_rebuild_sequential(
        ops in proptest::collection::vec((0u8..8, 0u64..1_000), 1..24),
        entries in 10usize..26,
        leaf_pick in 0usize..LEAF_COUNTS.len(),
    ) {
        run_mutated(
            "scaleout_mutated_sequential",
            &ops,
            entries,
            LEAF_COUNTS[leaf_pick],
            ScanParallelism::sequential(),
        );
    }

    /// The same invariant under intra-query sharded leaf scans.
    #[test]
    fn mutated_cluster_matches_union_rebuild_sharded(
        ops in proptest::collection::vec((0u8..8, 0u64..1_000), 1..18),
        entries in 10usize..22,
        leaf_pick in 0usize..LEAF_COUNTS.len(),
        shards in 2usize..5,
    ) {
        run_mutated(
            "scaleout_mutated_sharded",
            &ops,
            entries,
            LEAF_COUNTS[leaf_pick],
            ScanParallelism::sharded(shards).with_min_pages_per_shard(1),
        );
    }
}

/// Hedging determinism: schedules where the hedge wins, loses and exactly
/// ties its primary produce bit-identical results, documents and
/// `ClusterActivity` — only the modelled completion time may move.
#[test]
fn hedged_schedules_never_change_results() {
    let (vectors, documents) = corpus(36);
    let queries: Vec<Vec<f32>> = (0..3u32).map(|q| vector_for(500 + q, 13)).collect();
    let deadline = Nanos::from_micros(50);

    // Search the seeded draw space for schedules with a known race
    // outcome on (leaf 0, query 0): the duplicate dispatched at the
    // deadline either beats the primary's skew or does not.
    let wins = |seed: u64| {
        let model = LatencyModel::new(seed, 0, 500_000);
        let primary = model.delay(0, 0, 0);
        primary > deadline && deadline + model.delay(0, 0, 1) < primary
    };
    let loses = |seed: u64| {
        let model = LatencyModel::new(seed, 0, 500_000);
        let primary = model.delay(0, 0, 0);
        primary > deadline && deadline + model.delay(0, 0, 1) > primary
    };
    let win_seed = (0..10_000u64)
        .find(|&s| wins(s))
        .expect("a hedge-wins seed exists");
    let lose_seed = (0..10_000u64)
        .find(|&s| loses(s))
        .expect("a hedge-loses seed exists");

    let run = |model: LatencyModel, hedge: Option<HedgePolicy>| {
        let mut cluster = ClusterSystem::new(ReisConfig::tiny(), 3)
            .unwrap()
            .with_latency_model(model)
            .with_hedging(hedge);
        cluster.deploy_flat(&vectors, &documents).unwrap();
        queries
            .iter()
            .map(|q| cluster.search(q, 5).unwrap())
            .collect::<Vec<_>>()
    };

    let baseline = run(LatencyModel::uniform(), None);
    let hedge_wins = run(
        LatencyModel::new(win_seed, 0, 500_000),
        Some(HedgePolicy::new(deadline)),
    );
    let hedge_loses = run(
        LatencyModel::new(lose_seed, 0, 500_000),
        Some(HedgePolicy::new(deadline)),
    );
    // Deterministic exact tie: zero jitter and a zero deadline make the
    // duplicate land at exactly the primary's completion.
    let hedge_ties = run(
        LatencyModel::new(0, 10_000, 0),
        Some(HedgePolicy::new(Nanos::ZERO)),
    );

    for (name, outcomes) in [
        ("hedge-wins", &hedge_wins),
        ("hedge-loses", &hedge_loses),
        ("hedge-ties", &hedge_ties),
    ] {
        assert!(
            outcomes.iter().any(|o| o.hedges_launched > 0),
            "{name}: the schedule must actually hedge"
        );
        for (q, (a, b)) in outcomes.iter().zip(&baseline).enumerate() {
            assert_eq!(a.results, b.results, "{name}: results, query {q}");
            assert_eq!(a.documents, b.documents, "{name}: documents, query {q}");
            assert_eq!(a.activity, b.activity, "{name}: activity, query {q}");
        }
    }

    // Under the same skew, hedging can only shorten the modelled fan-out.
    let skewed_unhedged = run(LatencyModel::new(win_seed, 0, 500_000), None);
    for (hedged, bare) in hedge_wins.iter().zip(&skewed_unhedged) {
        assert!(hedged.fanout_latency <= bare.fanout_latency);
        assert_eq!(hedged.results, bare.results);
    }

    // The tie completes exactly when its unhedged primary would.
    let tie_unhedged = run(LatencyModel::new(0, 10_000, 0), None);
    for (tied, bare) in hedge_ties.iter().zip(&tie_unhedged) {
        assert_eq!(tied.fanout_latency, bare.fanout_latency);
    }
}

/// The leaves scan their shards side by side, so the modelled fan-out
/// shrinks with the shard and modelled QPS grows with the leaf count:
/// better than half of linear at eight leaves.
#[test]
fn modelled_qps_grows_with_the_leaf_count() {
    // A narrow package (8 planes of 4 KiB pages) under SSD1 timing: the
    // one-leaf scan spans many plane rounds, so sharding has rounds to
    // remove. On the 256-plane SSD1 geometry any corpus a test can build
    // fits one round and every leaf count costs the same.
    let mut config = ReisConfig::ssd1();
    config.ssd.geometry = Geometry {
        blocks_per_plane: 128,
        pages_per_block: 64,
        ..Geometry::tiny()
    };
    // splitmix64-mixed components: `vector_for`'s multiplicative sequence
    // puts a query's nearest neighbours next to each other in id space, on
    // one leaf, which then reranks for the whole cluster.
    let spread = |id: u32| -> Vec<f32> {
        (0..DIM as u64)
            .map(|d| {
                let mut x = (u64::from(id) << 32 | d).wrapping_add(0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((x ^ (x >> 31)) % 201) as f32 - 100.0
            })
            .collect()
    };
    let vectors: Vec<Vec<f32>> = (0..8_192).map(spread).collect();
    let documents: Vec<Vec<u8>> = (0..8_192).map(|id| doc_for(id, 0)).collect();
    let queries: Vec<Vec<f32>> = (0..4).map(|q| spread(1_000_000 + q)).collect();
    let modelled_qps = |leaves: usize| {
        let mut cluster = ClusterSystem::new(config, leaves).unwrap();
        cluster.deploy_flat(&vectors, &documents).unwrap();
        let mut total = Nanos::ZERO;
        for query in &queries {
            total += cluster.search(query, 10).unwrap().latency;
        }
        queries.len() as f64 / total.as_secs_f64()
    };
    let (one, eight) = (modelled_qps(1), modelled_qps(8));
    assert!(
        eight > 4.0 * one,
        "8 leaves: {eight:.0} modelled QPS against {one:.0} on one leaf"
    );
}

/// Under a heavy-tailed seeded skew, duplicating straggling leaf requests
/// pays: a tight hedging deadline cuts the mean modelled fan-out and does
/// not worsen the tail of the per-leaf completion times the aggregator
/// records.
#[test]
fn a_tight_hedge_deadline_cuts_mean_fanout_and_the_completion_tail() {
    let (vectors, documents) = corpus(96);
    let queries: Vec<Vec<f32>> = (0..16u32).map(|q| vector_for(300 + q, 41)).collect();
    // 100 us of base skew plus up to 3 ms of per-(leaf, query) jitter: a
    // hedge beats its primary when the primary's draw exceeds the deadline
    // plus the hedge's own, so the jitter must dwarf the deadline.
    let run = |deadline: Option<Nanos>| {
        let mut cluster = ClusterSystem::new(ReisConfig::tiny(), 4)
            .unwrap()
            .with_latency_model(LatencyModel::new(0x5CA1_E0D7, 100_000, 3_000_000))
            .with_hedging(deadline.map(HedgePolicy::new));
        cluster.deploy_flat(&vectors, &documents).unwrap();
        cluster.enable_telemetry();
        let mut fanout = Nanos::ZERO;
        let mut hedges = 0;
        for query in &queries {
            let outcome = cluster.search(query, 5).unwrap();
            fanout += outcome.fanout_latency;
            hedges += outcome.hedges_launched;
        }
        let completion = cluster.telemetry().histogram(HistogramId::LeafCompletionNs);
        assert_eq!(completion.count, (queries.len() * 4) as u64);
        (fanout, completion.quantile(0.99), hedges)
    };
    let (unhedged, unhedged_p99, _) = run(None);
    let (hedged, hedged_p99, hedges) = run(Some(Nanos::from_micros(400)));
    assert!(hedges > 0, "the schedule must actually hedge");
    assert!(
        hedged < unhedged,
        "summed fan-out {hedged:?} hedged against {unhedged:?} unhedged"
    );
    assert!(
        hedged_p99 <= unhedged_p99,
        "completion p99 {hedged_p99} ns hedged against {unhedged_p99} ns unhedged"
    );
}

/// Duplicate vectors straddling shard boundaries: the lifted tie-break
/// must reproduce the single device's storage-order tie resolution even
/// when equal distances collide across leaves.
#[test]
fn cross_leaf_distance_collisions_break_ties_like_a_single_device() {
    // Four copies of the same vector interleaved through the corpus, so
    // every shard boundary splits at least one duplicate pair.
    let mut vectors = Vec::new();
    let mut documents = Vec::new();
    for id in 0..24u32 {
        let v = if id % 6 == 1 {
            vector_for(77, 0)
        } else {
            vector_for(id, 0)
        };
        vectors.push(v);
        documents.push(doc_for(id, 0));
    }
    let config = ReisConfig::tiny();
    let mut single = ReisSystem::new(config.with_adaptive_filtering(false));
    let db = single
        .deploy(&VectorDatabase::flat(&vectors, documents.clone()).unwrap())
        .unwrap();
    let probe = vector_for(77, 0);
    for leaves in LEAF_COUNTS {
        let mut cluster = ClusterSystem::new(config, leaves).unwrap();
        cluster.deploy_flat(&vectors, &documents).unwrap();
        let a = cluster.search(&probe, 8).unwrap();
        let b = single.search(db, &probe, 8).unwrap();
        assert_cluster_matches(&a, &b, &format!("{leaves} leaves, duplicate collision"));
    }
}

/// Per-leaf stores for a durable cluster: each leaf writes through its own
/// fault-injectable VFS; the manifest lives in its own plain VFS.
fn durable_parts(
    leaves: usize,
) -> (
    Vec<MemVfs>,
    Vec<reis_core::FaultHandle>,
    Vec<DurableStore>,
    MemVfs,
) {
    let mut mems = Vec::new();
    let mut handles = Vec::new();
    let mut stores = Vec::new();
    for _ in 0..leaves {
        let mem = MemVfs::new();
        let (fault, handle) = FaultVfs::new(mem.clone());
        mems.push(mem);
        handles.push(handle);
        stores.push(DurableStore::new(Box::new(fault)));
    }
    (mems, handles, stores, MemVfs::new())
}

/// Scripted mutation sequence of the durability tests: deterministic,
/// touches every leaf, includes a compaction.
fn crash_script(entries: usize) -> Vec<(u8, u64)> {
    (0..12u64)
        .map(|i| {
            let code = [0u8, 3, 5, 0, 0, 3, 7, 0, 5, 3, 0, 5][i as usize % 12];
            (code, (i * 5 + 3) % entries as u64)
        })
        .collect()
}

/// Apply the scripted op to a durable cluster and its mirrors, returning
/// the per-leaf WAL watermarks after the op.
fn apply_scripted(
    cluster: &mut ClusterSystem,
    mirrors: &mut [Mirror],
    code: u8,
    payload: u64,
    version: u32,
) {
    let live: Vec<u32> = {
        let mut ids: Vec<u32> = mirrors
            .iter()
            .flat_map(|m| m.order.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    };
    match decode_op(code) {
        Op::Insert => {
            let vector = vector_for(3000 + payload as u32, payload);
            let doc = doc_for(3000 + payload as u32, version);
            let id = cluster.insert(&vector, doc.clone()).expect("insert").ids[0];
            mirrors[cluster.router().owner(id)].append(id, vector, doc);
        }
        Op::Delete => {
            if live.is_empty() {
                return;
            }
            let id = live[payload as usize % live.len()];
            cluster.delete(id).expect("delete");
            mirrors[cluster.router().owner(id)].remove(id);
        }
        Op::Upsert => {
            if live.is_empty() {
                return;
            }
            let id = live[payload as usize % live.len()];
            let vector = vector_for(id, payload.wrapping_add(11));
            let doc = doc_for(id, version);
            cluster.upsert(id, &vector, &doc).expect("upsert");
            mirrors[cluster.router().owner(id)].append(id, vector, doc);
        }
        Op::Compact => {
            cluster.compact().expect("compact");
        }
    }
}

/// Kill one leaf's WAL at seeded and boundary crash points; the recovered
/// cluster must equal the union of the victim's durable prefix and every
/// other leaf's full history.
#[test]
fn cluster_recovers_each_leaf_from_its_durable_prefix() {
    let entries = 18;
    let leaves = 3;
    let (vectors, documents) = corpus(entries);
    let config = ReisConfig::tiny().with_compaction(CompactionPolicy::manual());
    let template = VectorDatabase::flat(&vectors, documents.clone()).unwrap();
    let script = crash_script(entries);

    // Pilot: run the script once, recording each leaf's WAL watermark
    // after every op (relative to its post-deploy base).
    let (_mems, handles, stores, manifest) = durable_parts(leaves);
    let (mut pilot, report) =
        ClusterSystem::open(config, stores, Box::new(manifest.clone())).unwrap();
    assert!(report.is_none(), "fresh stores have nothing to recover");
    pilot.deploy_flat(&vectors, &documents).unwrap();
    let bases: Vec<u64> = handles.iter().map(|h| h.bytes_written()).collect();
    let mut mirrors = seeded_mirrors(&pilot, &vectors, &documents);
    let mut marks: Vec<Vec<u64>> = Vec::new();
    for (i, &(code, payload)) in script.iter().enumerate() {
        apply_scripted(&mut pilot, &mut mirrors, code, payload, i as u32 + 1);
        marks.push(
            handles
                .iter()
                .zip(&bases)
                .map(|(h, &b)| h.bytes_written() - b)
                .collect(),
        );
    }
    let totals: Vec<u64> = marks.last().unwrap().clone();
    assert!(
        totals.iter().all(|&t| t > 0),
        "every leaf must log mutations"
    );

    // Per-leaf crash points: the edges, seeded interior bytes, and every
    // per-op watermark of the victim leaf (±1 byte).
    let mut schedule = LeafCrashSchedule::covering(&totals, 2, 0xC1A5_7E01);
    for leaf in 0..leaves {
        let leaf_marks: Vec<u64> = marks.iter().map(|m| m[leaf]).collect();
        schedule = schedule.with_boundaries(leaf, &leaf_marks);
    }

    for (victim, point) in schedule.pairs() {
        // A doomed run: the victim's VFS dies after `point` post-deploy
        // bytes; the cluster keeps operating (a dying VFS still answers).
        let (mems, handles, stores, manifest) = durable_parts(leaves);
        let (mut doomed, _) =
            ClusterSystem::open(config, stores, Box::new(manifest.clone())).unwrap();
        doomed.deploy_flat(&vectors, &documents).unwrap();
        handles[victim].arm_kill_after(point);
        let mut doomed_mirrors = seeded_mirrors(&doomed, &vectors, &documents);
        for (i, &(code, payload)) in script.iter().enumerate() {
            apply_scripted(
                &mut doomed,
                &mut doomed_mirrors,
                code,
                payload,
                i as u32 + 1,
            );
        }
        drop(doomed); // the crash

        let stores: Vec<DurableStore> = mems
            .iter()
            .map(|mem| DurableStore::new(Box::new(mem.clone())))
            .collect();
        let (mut recovered, report) =
            ClusterSystem::open(config, stores, Box::new(manifest.clone()))
                .expect("cluster recovery must succeed from any per-leaf crash point");
        let report = report.expect("a manifest exists, so recovery ran");
        assert_eq!(report.leaves.len(), leaves);

        // Expected state: the victim's durable prefix, everyone else full.
        let expected = replay_durable_prefix(
            &script,
            &marks,
            recovered.router(),
            &vectors,
            &documents,
            victim,
            point,
        );

        match union_rebuild(&expected, &template) {
            None => unreachable!("the script never empties the corpus"),
            Some((order, reference_db)) => {
                let mut reference = ReisSystem::new(config.with_adaptive_filtering(false));
                let ref_db = reference.deploy(&reference_db).unwrap();
                for q in 0..2u32 {
                    let query = vector_for(8000 + q, 19);
                    let a = recovered.search(&query, 5).expect("recovered search");
                    let b = reference
                        .search(ref_db, &query, 5)
                        .expect("reference search");
                    assert_matches_rebuild(
                        &a,
                        &b,
                        &order,
                        &format!("victim {victim}, crash byte {point}, query {q}"),
                    );
                }
            }
        }

        // The recovered cluster is live: it accepts a routed insert and
        // serves it.
        let fresh = vector_for(9_999, 3);
        let id = recovered
            .insert(&fresh, b"post-crash".to_vec())
            .expect("post-recovery insert")
            .ids[0];
        let hit = recovered.search(&fresh, 1).expect("post-recovery search");
        assert_eq!(hit.results[0].id as u32, id);
        assert_eq!(hit.documents[0], b"post-crash");
    }
}

/// Replay the scripted history honoring one leaf's durable prefix: an op
/// applies to the expected state iff it routed to a non-victim leaf, or
/// its WAL frame on the victim landed at or before the crash point
/// (victim marks are monotone, so everything after the first lost frame
/// is lost too — including the replay targets' consistency: the doomed
/// cluster chose targets from its *in-memory* state, which never saw the
/// kill, so target selection replays against the full history).
fn replay_durable_prefix(
    script: &[(u8, u64)],
    marks: &[Vec<u64>],
    router: &reis_cluster::ShardRouter,
    vectors: &[Vec<f32>],
    documents: &[Vec<u8>],
    victim: usize,
    point: u64,
) -> Vec<Mirror> {
    let entries = vectors.len();
    let leaves = marks[0].len();
    let mut full: Vec<Mirror> = (0..leaves).map(|_| Mirror::empty()).collect();
    let mut expected: Vec<Mirror> = (0..leaves).map(|_| Mirror::empty()).collect();
    for id in 0..entries as u32 {
        let leaf = router.owner(id);
        full[leaf].seed(
            id,
            vectors[id as usize].clone(),
            documents[id as usize].clone(),
        );
        expected[leaf].seed(
            id,
            vectors[id as usize].clone(),
            documents[id as usize].clone(),
        );
    }
    let mut next_id = entries as u32;
    for (i, &(code, payload)) in script.iter().enumerate() {
        let version = i as u32 + 1;
        let durable = |leaf: usize| leaf != victim || marks[i][victim] <= point;
        let live: Vec<u32> = {
            let mut ids: Vec<u32> = full.iter().flat_map(|m| m.order.iter().copied()).collect();
            ids.sort_unstable();
            ids
        };
        match decode_op(code) {
            Op::Insert => {
                let id = next_id;
                next_id += 1;
                let vector = vector_for(3000 + payload as u32, payload);
                let doc = doc_for(3000 + payload as u32, version);
                let leaf = router.owner(id);
                full[leaf].append(id, vector.clone(), doc.clone());
                if durable(leaf) {
                    expected[leaf].append(id, vector, doc);
                }
            }
            Op::Delete => {
                if live.is_empty() {
                    continue;
                }
                let id = live[payload as usize % live.len()];
                let leaf = router.owner(id);
                full[leaf].remove(id);
                if durable(leaf) {
                    expected[leaf].remove(id);
                }
            }
            Op::Upsert => {
                if live.is_empty() {
                    continue;
                }
                let id = live[payload as usize % live.len()];
                let vector = vector_for(id, payload.wrapping_add(11));
                let doc = doc_for(id, version);
                let leaf = router.owner(id);
                full[leaf].append(id, vector.clone(), doc.clone());
                if durable(leaf) {
                    expected[leaf].append(id, vector, doc);
                }
            }
            Op::Compact => {} // logical content and scan order unchanged
        }
    }
    expected
}

/// Save/reopen round trip: a checkpointed cluster reopens bit-identical —
/// same searches, same activity, bumped epoch — and stays mutable.
#[test]
fn durable_cluster_round_trips_through_save_and_open() {
    let entries = 20;
    let leaves = 3;
    let (vectors, documents) = corpus(entries);
    let config = ReisConfig::tiny().with_compaction(CompactionPolicy::manual());
    let queries: Vec<Vec<f32>> = (0..3u32).map(|q| vector_for(600 + q, 31)).collect();

    let (mems, _handles, stores, manifest) = durable_parts(leaves);
    let (mut cluster, report) =
        ClusterSystem::open(config, stores, Box::new(manifest.clone())).unwrap();
    assert!(report.is_none(), "fresh stores have nothing to recover");
    cluster.deploy_flat(&vectors, &documents).unwrap();
    assert_eq!(cluster.epoch(), 0, "deploy writes the epoch-0 manifest");

    let inserted = cluster
        .insert(&vector_for(4_000, 1), doc_for(4_000, 1))
        .unwrap()
        .ids[0];
    cluster.delete(3).unwrap();
    cluster
        .upsert(7, &vector_for(7, 99), &doc_for(7, 2))
        .unwrap();
    let epoch = cluster.save().expect("durable cluster saves");
    assert_eq!(epoch, 1);

    let before: Vec<_> = queries
        .iter()
        .map(|q| cluster.search(q, 5).unwrap())
        .collect();
    drop(cluster);

    let stores: Vec<DurableStore> = mems
        .iter()
        .map(|mem| DurableStore::new(Box::new(mem.clone())))
        .collect();
    let (mut reopened, report) =
        ClusterSystem::open(config, stores, Box::new(manifest.clone())).unwrap();
    let report = report.expect("manifest present, recovery runs");
    assert_eq!(report.epoch, 1);
    assert_eq!(report.leaves.len(), leaves);
    assert_eq!(reopened.epoch(), 1);
    assert_eq!(reopened.num_leaves(), leaves);

    for (q, (query, expected)) in queries.iter().zip(&before).enumerate() {
        let after = reopened.search(query, 5).unwrap();
        assert_eq!(after.results, expected.results, "results, query {q}");
        assert_eq!(after.documents, expected.documents, "documents, query {q}");
        // Snapshot recovery re-packs append segments into a dense base, so
        // *page* counts legitimately shrink; the entry-level accounting is
        // corpus-determined and must survive the round trip exactly.
        assert_eq!(
            after.activity.activity.fine_entries, expected.activity.activity.fine_entries,
            "transferred entries, query {q}"
        );
        assert_eq!(
            after.activity.cut_candidates, expected.activity.cut_candidates,
            "cut width, query {q}"
        );
        assert_eq!(
            after.activity.leaves, expected.activity.leaves,
            "leaves, query {q}"
        );
    }

    // Still mutable: the id namespace continues past the recovered
    // watermark instead of re-minting the pre-save insert's id.
    let fresh = vector_for(4_001, 2);
    let id = reopened
        .insert(&fresh, b"after reopen".to_vec())
        .unwrap()
        .ids[0];
    assert!(id > inserted, "id watermark survives recovery");
    let hit = reopened.search(&fresh, 1).unwrap();
    assert_eq!(hit.results[0].id as u32, id);
    assert_eq!(hit.documents[0], b"after reopen");

    assert_eq!(reopened.save().unwrap(), 2, "epochs keep counting");
}
