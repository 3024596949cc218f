//! Correctness of page-major batches: every query of a batch must produce
//! the bit-identical outcome — results, documents,
//! activity counters, modelled latency and energy — of running that query
//! alone through `ReisSystem::search` / `ivf_search`, across edge cases
//! (batch of one, duplicate queries, candidate counts past the corpus
//! size), mutated and compacted indexes, every `ScanParallelism` setting,
//! and random flash geometries.

use proptest::prelude::*;

use reis_core::{
    CompactionPolicy, ReisConfig, ReisSystem, ScanParallelism, SearchOutcome, VectorDatabase,
};
use reis_nand::Geometry;
use reis_ssd::{HybridPolicy, SsdConfig};

fn vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| (((i * 17 + d * 11) % 29) as f32 - 14.0) / 6.0)
                .collect()
        })
        .collect()
}

fn documents(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("doc {i}").into_bytes()).collect()
}

/// Full-outcome equality modulo the raw error-injection counter, which
/// tracks the device RNG's position in its stream (TLC rerank reads of a
/// batch draw from different points than a standalone query would). Every
/// modelled quantity — including energy, which is derived from the other
/// counters — must agree exactly.
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

/// Run the batch both fused and per-query-sequentially on `system` and
/// compare every outcome (brute force when `nprobe` is `None`).
fn check_batch(
    system: &mut ReisSystem,
    db_id: u32,
    queries: &[Vec<f32>],
    k: usize,
    nprobe: Option<usize>,
    workers: usize,
    ctx: &str,
) {
    let sequential: Vec<SearchOutcome> = queries
        .iter()
        .map(|q| match nprobe {
            Some(np) => system.ivf_search_with_nprobe(db_id, q, k, np).unwrap(),
            None => system.search(db_id, q, k).unwrap(),
        })
        .collect();
    let batch = match nprobe {
        Some(np) => system
            .ivf_search_batch_with_nprobe(db_id, queries, k, np, workers)
            .unwrap(),
        None => system.search_batch(db_id, queries, k, workers).unwrap(),
    };
    assert_eq!(batch.len(), sequential.len(), "{ctx}");
    for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
        assert_outcome_eq(b, s, &format!("{ctx}, query {i}"));
    }
}

#[test]
fn fused_batch_matches_sequential_for_brute_force_and_ivf() {
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let all = vectors(160, 64);
    let db = VectorDatabase::ivf(&all, documents(160), 8).unwrap();
    let id = system.deploy(&db).unwrap();
    let queries: Vec<Vec<f32>> = (0..7).map(|q| all[q * 19].clone()).collect();
    check_batch(&mut system, id, &queries, 10, None, 4, "brute force");
    check_batch(&mut system, id, &queries, 10, Some(4), 4, "ivf nprobe 4");
}

#[test]
fn fused_batch_of_one_matches_single_search() {
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let all = vectors(96, 64);
    let db = VectorDatabase::flat(&all, documents(96)).unwrap();
    let id = system.deploy(&db).unwrap();
    let queries = vec![all[33].clone()];
    check_batch(&mut system, id, &queries, 5, None, 1, "batch of one");
    check_batch(
        &mut system,
        id,
        &queries,
        5,
        None,
        8,
        "batch of one, 8 workers",
    );
}

#[test]
fn fused_batch_with_duplicate_queries() {
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let all = vectors(120, 64);
    let db = VectorDatabase::ivf(&all, documents(120), 6).unwrap();
    let id = system.deploy(&db).unwrap();
    // The same embedding three times plus two distinct ones.
    let queries = vec![
        all[7].clone(),
        all[50].clone(),
        all[7].clone(),
        all[7].clone(),
        all[91].clone(),
    ];
    check_batch(
        &mut system,
        id,
        &queries,
        5,
        None,
        2,
        "duplicates, brute force",
    );
    check_batch(&mut system, id, &queries, 5, Some(3), 2, "duplicates, ivf");
    // Duplicates must also agree with each other exactly.
    let batch = system.search_batch(id, &queries, 5, 2).unwrap();
    assert_outcome_eq(&batch[0], &batch[2], "duplicate 0 vs 2");
    assert_outcome_eq(&batch[0], &batch[3], "duplicate 0 vs 3");
}

#[test]
fn fused_batch_with_candidate_count_beyond_the_corpus() {
    // rerank_factor (10) × k (10) = 100 candidates requested from a
    // 24-entry corpus: the Temporal Top List never fills its quickselect
    // capacity, and every live entry becomes a candidate.
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let all = vectors(24, 64);
    let db = VectorDatabase::flat(&all, documents(24)).unwrap();
    let id = system.deploy(&db).unwrap();
    let queries: Vec<Vec<f32>> = (0..5).map(|q| all[q * 4].clone()).collect();
    check_batch(&mut system, id, &queries, 10, None, 2, "k beyond corpus");
    let outcome = &system.search_batch(id, &queries, 10, 2).unwrap()[0];
    assert!(!outcome.results.is_empty());
    // Every filter-passing entry became a candidate — far fewer than the
    // 100 requested, and bounded by the corpus size.
    assert!(outcome.activity.rerank_candidates <= 24);
    assert_eq!(
        outcome.results.len(),
        10usize.min(outcome.activity.rerank_candidates)
    );
}

#[test]
fn fused_batch_over_mutated_and_compacted_index() {
    let config = ReisConfig::tiny().with_compaction(CompactionPolicy::manual());
    let mut system = ReisSystem::new(config);
    let all = vectors(96, 64);
    let db = VectorDatabase::ivf(&all, documents(96), 4).unwrap();
    let id = system.deploy(&db).unwrap();

    // Dirty the index: segment appends, tombstones, a revival.
    let fresh = vectors(8, 64);
    let ids = system
        .insert_batch(
            id,
            &fresh,
            (0..8).map(|i| format!("fresh {i}").into_bytes()).collect(),
        )
        .unwrap()
        .ids;
    system.delete(id, 11).unwrap();
    system.delete(id, ids[2]).unwrap();
    system.upsert(id, ids[3], &fresh[5], b"rewritten").unwrap();

    let queries: Vec<Vec<f32>> = (0..4)
        .map(|q| all[q * 23].clone())
        .chain(fresh.iter().take(2).cloned())
        .collect();
    check_batch(&mut system, id, &queries, 5, None, 2, "dirty, brute force");
    check_batch(&mut system, id, &queries, 5, Some(3), 2, "dirty, ivf");
    // Adaptive everywhere exercises the grouped segment pass under IVF.
    let mut adaptive = ReisSystem::new(
        ReisConfig::tiny()
            .with_compaction(CompactionPolicy::manual())
            .with_adaptive_filtering(true),
    );
    let adaptive_id = adaptive.deploy(&db).unwrap();
    adaptive
        .insert_batch(
            adaptive_id,
            &fresh,
            (0..8).map(|i| format!("fresh {i}").into_bytes()).collect(),
        )
        .unwrap();
    adaptive.delete(adaptive_id, 11).unwrap();
    check_batch(
        &mut adaptive,
        adaptive_id,
        &queries,
        5,
        Some(3),
        2,
        "dirty, ivf, adaptive-all",
    );

    // A freshly compacted index fuses over its new dense generation.
    system.compact(id).unwrap();
    check_batch(
        &mut system,
        id,
        &queries,
        5,
        None,
        2,
        "compacted, brute force",
    );
    check_batch(&mut system, id, &queries, 5, Some(3), 2, "compacted, ivf");
}

#[test]
fn fused_batch_composes_with_intra_query_sharding() {
    // Static thresholds (adaptation off) let the fused union scan shard
    // across channel/die workers; results stay bit-identical.
    let config = ReisConfig::tiny()
        .with_adaptive_filtering(false)
        .with_scan_parallelism(ScanParallelism::sharded(4).with_min_pages_per_shard(1));
    let mut system = ReisSystem::new(config);
    let all = vectors(160, 64);
    let db = VectorDatabase::ivf(&all, documents(160), 8).unwrap();
    let id = system.deploy(&db).unwrap();
    let queries: Vec<Vec<f32>> = (0..6).map(|q| all[q * 13].clone()).collect();
    check_batch(&mut system, id, &queries, 10, None, 4, "sharded fused, bf");
    check_batch(
        &mut system,
        id,
        &queries,
        10,
        Some(4),
        4,
        "sharded fused, ivf",
    );
}

#[test]
fn brute_force_batch_of_eight_senses_a_quarter_of_one_by_one() {
    // A batch shares the embedding pages and nothing else: every query
    // still reads its own rerank and document pages (at k = 1, at most 10
    // INT8 pages and one document). 72 embedding pages — 28 entries each,
    // the OOB bound — make the shared part dominate, as the full-size
    // corpus does on the real geometry. (One document per 4 KiB page is what
    // the block count is for.)
    let mut config = ReisConfig::tiny();
    config.ssd.geometry.blocks_per_plane = 64;
    let mut system = ReisSystem::new(config);
    let all = vectors(72 * 28, 64);
    let db = VectorDatabase::flat(&all, documents(all.len())).unwrap();
    let id = system.deploy(&db).unwrap();
    assert_eq!(system.database(id).unwrap().layout.embedding_pages, 72);
    let queries: Vec<Vec<f32>> = (0..8).map(|q| all[q * 251 + 5].clone()).collect();

    let before = *system.controller().device().stats();
    for query in &queries {
        system.search(id, query, 1).unwrap();
    }
    let one_by_one = system.controller().device().stats().delta_since(&before);
    let before = *system.controller().device().stats();
    system.search_batch(id, &queries, 1, 1).unwrap();
    let batch = system.controller().device().stats().delta_since(&before);
    assert!(
        batch.page_reads * 4 <= one_by_one.page_reads,
        "a batch of 8 sensed {} pages, one by one {}",
        batch.page_reads,
        one_by_one.page_reads
    );
}

/// Eight well-separated clusters, so a few flipped bits in a sensed page
/// cannot move an entry past its own cluster mates.
fn clustered_vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            let cluster = i % 8;
            (0..dim)
                .map(|d| {
                    let center = (((cluster * 37 + d * 11) % 19) as f32 - 9.0) / 2.0;
                    let jitter = (((i * 13 + d * 7) % 11) as f32 - 5.0) / 25.0;
                    center + jitter
                })
                .collect()
        })
        .collect()
}

#[test]
fn error_injecting_embedding_reads_take_the_latch_reader() {
    // With every region in TLC the embedding pages no longer read
    // error-free, so the scan must sense them through the plane latches —
    // the core's second page reader — for the injected errors to reach the
    // scored bytes. Single searches and batches both run on it, on the
    // system's own device.
    let tlc = |parallelism| ReisConfig {
        ssd: SsdConfig {
            hybrid: HybridPolicy::all_tlc(),
            ..SsdConfig::tiny()
        },
        ..ReisConfig::tiny().with_scan_parallelism(parallelism)
    };
    let all = clustered_vectors(160, 64);
    let db = VectorDatabase::ivf(&all, documents(160), 8).unwrap();
    let queries: Vec<Vec<f32>> = (0..5).map(|q| all[q * 21 + 3].clone()).collect();

    let run = |parallelism| {
        let mut system = ReisSystem::new(tlc(parallelism));
        let id = system.deploy(&db).unwrap();
        let ecc_before = system.controller().ecc().pages_decoded();
        let before = *system.controller().device().stats();
        let mut outcomes = Vec::new();
        for (q, query) in queries.iter().enumerate() {
            let single = system.search(id, query, 5).expect("single search");
            assert_eq!(single.results[0].id, q * 21 + 3, "self-hit, query {q}");
            assert_eq!(
                single.documents[0],
                format!("doc {}", q * 21 + 3).as_bytes()
            );
            outcomes.push(single);
        }
        let single_delta = system.controller().device().stats().delta_since(&before);
        assert!(single_delta.page_reads > 0);
        assert!(
            single_delta.injected_bit_errors > 0,
            "the scan must sense through the error-injecting read path"
        );
        assert!(system.controller().ecc().pages_decoded() > ecc_before);

        let before = *system.controller().device().stats();
        for batch in [
            system.search_batch(id, &queries, 5, 4).expect("bf batch"),
            system
                .ivf_search_batch_with_nprobe(id, &queries, 5, 4, 4)
                .expect("ivf batch"),
        ] {
            for (q, outcome) in batch.iter().enumerate() {
                assert_eq!(
                    outcome.results[0].id,
                    q * 21 + 3,
                    "batch self-hit, query {q}"
                );
            }
            outcomes.extend(batch);
        }
        // The batch ran on this device (no replica to merge back from):
        // its senses moved the device's own counters and error stream, each
        // shared page sensed once for the whole batch.
        let batch_delta = system.controller().device().stats().delta_since(&before);
        let per_query: u64 = outcomes[queries.len()..]
            .iter()
            .map(|o| o.flash_stats.page_reads)
            .sum();
        assert!(batch_delta.page_reads > 0 && batch_delta.page_reads < per_query);
        assert!(batch_delta.injected_bit_errors > 0);
        (outcomes, *system.controller().device().stats())
    };

    // The latch reader mutates the device, so it runs on one shard whatever
    // the configuration asks for: a sharded configuration queues no pool
    // task and replays the sequential run exactly — down to the position of
    // the device's error-injection stream, which any stored-page (shardable)
    // read of an embedding page would have skipped.
    let (sequential, sequential_stats) = run(ScanParallelism::sequential());
    let (sharded, sharded_stats) = run(ScanParallelism::sharded(4).with_min_pages_per_shard(1));
    assert_eq!(sequential, sharded);
    assert_eq!(sequential_stats, sharded_stats);
}

proptest! {
    /// A batch is bit-identical to per-query sequential
    /// search across random flash geometries, database shapes, mutation
    /// traces and scan-parallelism settings, for both brute-force and IVF
    /// batches.
    #[test]
    fn fused_batch_matches_sequential_across_geometries_and_mutations(
        channels in 1usize..4,
        dies in 1usize..3,
        planes in 1usize..3,
        entries in 16usize..40,
        dim_words in 1usize..3,
        shards in 1usize..4,
        mutations in 0usize..10,
        seed in 0usize..1_000,
    ) {
        let dim = dim_words * 32;
        let geometry = Geometry {
            channels,
            dies_per_channel: dies,
            planes_per_die: planes,
            blocks_per_plane: 8,
            pages_per_block: 8,
            page_size_bytes: 4096,
            oob_size_bytes: 256,
        };
        let ssd = SsdConfig { geometry, ..SsdConfig::tiny() };
        let parallelism = if shards == 1 {
            ScanParallelism::sequential()
        } else {
            ScanParallelism::sharded(shards).with_min_pages_per_shard(1)
        };
        let config = ReisConfig { ssd, ..ReisConfig::tiny() }
            .with_compaction(CompactionPolicy::manual())
            .with_scan_parallelism(parallelism);

        let all = vectors(entries, dim);
        let nlist = 4usize.min(entries / 4).max(1);
        let db = VectorDatabase::ivf(&all, documents(entries), nlist).expect("database");
        let mut system = ReisSystem::new(config);
        let id = system.deploy(&db).expect("deploy");

        // A deterministic little mutation trace: inserts, deletes, upserts.
        let mut live_extra = Vec::new();
        for m in 0..mutations {
            let x = (seed * 31 + m * 7) % 10;
            let vector: Vec<f32> = (0..dim)
                .map(|d| (((m * 13 + d * 5 + seed) % 19) as f32 - 9.0) / 4.0)
                .collect();
            if x < 5 {
                let outcome = system
                    .insert(id, &vector, format!("ins {m}").into_bytes())
                    .expect("insert");
                live_extra.push(outcome.ids[0]);
            } else if x < 7 {
                let target = ((seed + m * 3) % entries) as u32;
                // Deleting an already-deleted id is an error; ignore those.
                let _ = system.delete(id, target);
            } else {
                let target = ((seed + m * 5) % entries) as u32;
                let _ = system.upsert(id, target, &vector, format!("ups {m}").as_bytes());
            }
        }

        let queries: Vec<Vec<f32>> = (0..4).map(|q| all[(seed + q * 11) % entries].clone()).collect();
        let sequential: Vec<SearchOutcome> = queries
            .iter()
            .map(|q| system.search(id, q, 5).expect("sequential"))
            .collect();
        let batch = system.search_batch(id, &queries, 5, shards).expect("fused batch");
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            prop_assert_eq!(&b.results, &s.results, "results, query {}", i);
            prop_assert_eq!(&b.documents, &s.documents, "documents, query {}", i);
            prop_assert_eq!(&b.latency, &s.latency, "latency, query {}", i);
            prop_assert_eq!(&b.activity, &s.activity, "activity, query {}", i);
        }
        let nprobe = nlist.min(2);
        let ivf_sequential: Vec<SearchOutcome> = queries
            .iter()
            .map(|q| system.ivf_search_with_nprobe(id, q, 5, nprobe).expect("sequential ivf"))
            .collect();
        let ivf_batch = system
            .ivf_search_batch_with_nprobe(id, &queries, 5, nprobe, shards)
            .expect("fused ivf batch");
        for (i, (b, s)) in ivf_batch.iter().zip(&ivf_sequential).enumerate() {
            prop_assert_eq!(&b.results, &s.results, "ivf results, query {}", i);
            prop_assert_eq!(&b.documents, &s.documents, "ivf documents, query {}", i);
            prop_assert_eq!(&b.latency, &s.latency, "ivf latency, query {}", i);
            prop_assert_eq!(&b.activity, &s.activity, "ivf activity, query {}", i);
        }
    }
}
