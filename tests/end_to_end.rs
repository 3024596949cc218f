//! Cross-crate integration tests: the full path from synthetic corpus through
//! indexing, deployment, in-storage search, online mutation, durability,
//! batched execution, multi-device scale-out, baselines and the RAG
//! pipeline model — everything through the public `reis` facade.

use reis::ann::flat::FlatIndex;
use reis::ann::metrics::recall_at_k;
use reis::ann::Metric;
use reis::baseline::{
    CpuPrecision, CpuSystem, IceModel, IceVariant, NdSearchAlgorithm, NdSearchModel,
};
use reis::cluster::ClusterSystem;
use reis::core::{DurableStore, MemVfs, Optimizations, ReisConfig, ReisSystem, VectorDatabase};
use reis::rag::{RagPipeline, RagStage};
use reis::workloads::{DatasetProfile, GroundTruth, SyntheticDataset};

fn scaled_dataset(entries: usize, queries: usize, seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(
        DatasetProfile::hotpotqa()
            .scaled(entries)
            .with_queries(queries),
        seed,
    )
}

#[test]
fn in_storage_retrieval_matches_host_side_ground_truth() {
    let dataset = scaled_dataset(384, 6, 5);
    let database = VectorDatabase::ivf(dataset.vectors(), dataset.documents_owned(), 12)
        .expect("database construction");
    let mut reis = ReisSystem::new(ReisConfig::ssd1());
    let db_id = reis.deploy(&database).expect("deployment");
    let truth = GroundTruth::compute(&dataset, 10).expect("ground truth");

    let mut recall = 0.0;
    for (qi, query) in dataset.queries().iter().enumerate() {
        let outcome = reis
            .ivf_search_with_nprobe(db_id, query, 10, 12)
            .expect("in-storage search");
        recall += recall_at_k(&outcome.result_ids(), truth.neighbors(qi), 10);
        // Every returned document must be the chunk of the returned entry.
        for (neighbor, doc) in outcome.results.iter().zip(outcome.documents.iter()) {
            assert_eq!(doc, &dataset.documents()[neighbor.id]);
        }
    }
    recall /= dataset.queries().len() as f64;
    assert!(recall > 0.8, "in-storage recall@10 = {recall}");
}

#[test]
fn in_storage_search_agrees_with_cpu_bq_ivf_algorithm() {
    // REIS executes the same BQ IVF + INT8 rerank algorithm as the CPU
    // implementation in reis-ann; probing every cluster they must agree on
    // the top hit for queries that have an exact match in the corpus.
    let dataset = scaled_dataset(256, 4, 9);
    let database = VectorDatabase::ivf(dataset.vectors(), dataset.documents_owned(), 8)
        .expect("database construction");
    let mut reis = ReisSystem::new(ReisConfig::ssd1());
    let db_id = reis.deploy(&database).expect("deployment");
    let flat = FlatIndex::new(dataset.vectors().to_vec(), Metric::SquaredL2).expect("flat");
    for base in [3usize, 77, 150] {
        let query = dataset.vectors()[base].clone();
        let outcome = reis
            .ivf_search_with_nprobe(db_id, &query, 5, 8)
            .expect("search");
        assert_eq!(
            outcome.results[0].id, base,
            "self-query must return itself first"
        );
        let exact = flat.search(&query, 1).expect("exact");
        assert_eq!(exact[0].id, base);
    }
}

#[test]
fn optimizations_change_performance_but_not_results() {
    let dataset = scaled_dataset(256, 3, 21);
    let database = VectorDatabase::ivf(dataset.vectors(), dataset.documents_owned(), 8)
        .expect("database construction");
    let mut full = ReisSystem::new(ReisConfig::ssd1());
    let mut none = ReisSystem::new(ReisConfig::ssd1().with_optimizations(Optimizations::none()));
    let id_full = full.deploy(&database).expect("deploy");
    let id_none = none.deploy(&database).expect("deploy");
    for query in dataset.queries() {
        let a = full
            .ivf_search_with_nprobe(id_full, query, 5, 8)
            .expect("search");
        let b = none
            .ivf_search_with_nprobe(id_none, query, 5, 8)
            .expect("search");
        assert_eq!(
            a.result_ids(),
            b.result_ids(),
            "optimizations must not change results"
        );
        assert!(
            a.total_latency() <= b.total_latency(),
            "optimizations must not slow REIS down"
        );
        assert!(a.activity.fine_entries <= b.activity.fine_entries);
    }
}

#[test]
fn full_scale_speedups_follow_the_paper_ordering() {
    // Whole-pipeline sanity of the headline claims' *shape*: REIS beats
    // CPU-Real, SSD2 beats SSD1, and prior ISP accelerators sit in between
    // or below.
    use reis_bench::fullscale::{estimate_reis, SearchMode};
    let profile = DatasetProfile::wiki_en();
    let cpu = CpuSystem::default();
    let cpu_real = cpu.cpu_real(&profile, 1_000, None, CpuPrecision::Float32);
    let reis1 = estimate_reis(
        &profile,
        &ReisConfig::ssd1(),
        SearchMode::BruteForce,
        0.05,
        10,
    );
    let reis2 = estimate_reis(
        &profile,
        &ReisConfig::ssd2(),
        SearchMode::BruteForce,
        0.05,
        10,
    );
    assert!(reis1.qps > cpu_real.qps(), "REIS must beat CPU-Real on QPS");
    assert!(reis2.qps > reis1.qps, "SSD2 must beat SSD1");
    assert!(
        reis1.qps_per_watt > cpu_real.qps_per_watt(),
        "REIS must beat CPU-Real on energy efficiency"
    );

    let ice = IceModel::new(ReisConfig::ssd1(), IceVariant::Published);
    assert!(
        reis1.qps > ice.qps(&profile, profile.full_entries, 10),
        "REIS must beat ICE for brute-force search"
    );
    let sift = DatasetProfile::sift_1b();
    let nd = NdSearchModel::new(ReisConfig::ssd2(), NdSearchAlgorithm::Hnsw);
    let reis_sift = estimate_reis(
        &sift,
        &ReisConfig::ssd2(),
        SearchMode::Ivf {
            nprobe_fraction: 0.01,
        },
        0.02,
        10,
    );
    assert!(
        reis_sift.qps > nd.qps(&sift),
        "REIS must beat NDSearch at billion scale"
    );
}

#[test]
fn rag_pipeline_bottleneck_shifts_from_retrieval_to_generation() {
    let profile = DatasetProfile::wiki_en();
    let pipeline = RagPipeline::default();
    let cpu = CpuSystem::default();
    let cpu_breakdown = pipeline.cpu_breakdown(&cpu, &profile, CpuPrecision::BinaryWithRerank);
    let reis_breakdown = pipeline.reis_breakdown(0.01);
    assert!(cpu_breakdown.retrieval_fraction() > reis_breakdown.retrieval_fraction() * 10.0);
    assert!(reis_breakdown.fraction(RagStage::Generation) > 0.8);
    assert!(reis_breakdown.total() < cpu_breakdown.total());
}

#[test]
fn mutation_and_durability_round_trip_through_the_facade() {
    // Online mutation on a durably opened system, checkpointed, reopened:
    // the recovered corpus answers like the pre-crash one and stays live.
    let dataset = scaled_dataset(96, 2, 33);
    let database = VectorDatabase::flat(dataset.vectors(), dataset.documents_owned())
        .expect("database construction");
    let mem = MemVfs::new();
    let (mut reis, report) =
        ReisSystem::open(ReisConfig::tiny(), DurableStore::new(Box::new(mem.clone())))
            .expect("open fresh store");
    assert!(report.is_none(), "nothing to recover from a fresh store");
    let db_id = reis.deploy(&database).expect("deployment");

    let fresh: Vec<f32> = dataset.vectors()[0].iter().map(|x| x + 0.25).collect();
    let inserted = reis
        .insert(db_id, &fresh, b"freshly inserted".to_vec())
        .expect("insert")
        .ids[0];
    reis.delete(db_id, 7).expect("delete");
    reis.upsert(db_id, 11, &dataset.vectors()[12].clone(), b"upserted doc")
        .expect("upsert");
    reis.save().expect("checkpoint");

    let queries: Vec<Vec<f32>> = vec![fresh.clone(), dataset.queries()[0].clone()];
    let before: Vec<_> = queries
        .iter()
        .map(|q| reis.search(db_id, q, 5).expect("pre-crash search"))
        .collect();
    drop(reis);

    let (mut recovered, report) =
        ReisSystem::recover(ReisConfig::tiny(), DurableStore::new(Box::new(mem)))
            .expect("recovery");
    assert_eq!(report.snapshot_seq, 2, "deploy + explicit save");
    for (query, expected) in queries.iter().zip(&before) {
        let after = recovered
            .search(db_id, query, 5)
            .expect("post-crash search");
        assert_eq!(after.result_ids(), expected.result_ids());
        assert_eq!(after.documents, expected.documents);
    }
    let hit = recovered.search(db_id, &fresh, 1).expect("fresh lookup");
    assert_eq!(hit.results[0].id, inserted as usize);
    assert_eq!(hit.documents[0], b"freshly inserted");

    // The recovered system keeps mutating: ids continue past the watermark.
    let next = recovered
        .insert(db_id, &fresh, b"post recovery".to_vec())
        .expect("post-recovery insert")
        .ids[0];
    assert!(next > inserted);
}

#[test]
fn batch_fusion_modes_agree_end_to_end() {
    // A page-major batch and the same queries issued one by one are two
    // schedules of the same computation: identical results, documents and
    // per-query modelled latency.
    let dataset = scaled_dataset(256, 6, 27);
    let database = VectorDatabase::ivf(dataset.vectors(), dataset.documents_owned(), 8)
        .expect("database construction");
    let queries: Vec<Vec<f32>> = dataset.queries().to_vec();

    let mut reis = ReisSystem::new(ReisConfig::ssd1());
    let db_id = reis.deploy(&database).expect("deployment");
    let batched = reis
        .ivf_search_batch_with_nprobe(db_id, &queries, 10, 4, 4)
        .expect("batch search");
    let one_by_one: Vec<_> = queries
        .iter()
        .map(|q| {
            reis.ivf_search_with_nprobe(db_id, q, 10, 4)
                .expect("single search")
        })
        .collect();
    for (q, (a, b)) in batched.iter().zip(one_by_one.iter()).enumerate() {
        assert_eq!(a.result_ids(), b.result_ids(), "query {q}");
        assert_eq!(a.documents, b.documents, "query {q}");
        assert_eq!(a.total_latency(), b.total_latency(), "query {q}");
    }
}

#[test]
fn cluster_facade_matches_a_single_device_end_to_end() {
    // The scale-out aggregator behind `reis::cluster` serves a sharded
    // synthetic corpus bit-identically to one device holding the union —
    // including after routed mutations.
    let dataset = scaled_dataset(120, 4, 41);
    let vectors = dataset.vectors().to_vec();
    let documents = dataset.documents_owned();
    let config = ReisConfig::tiny();

    let mut single = ReisSystem::new(config.with_adaptive_filtering(false));
    let db_id = single
        .deploy(&VectorDatabase::flat(&vectors, documents.clone()).expect("database"))
        .expect("deployment");
    let mut cluster = ClusterSystem::new(config, 4).expect("cluster");
    cluster
        .deploy_flat(&vectors, &documents)
        .expect("sharded deployment");

    for query in dataset.queries() {
        let a = cluster.search(query, 8).expect("cluster search");
        let b = single.search(db_id, query, 8).expect("single search");
        let ids: Vec<usize> = a.results.iter().map(|n| n.id).collect();
        assert_eq!(ids, b.result_ids());
        assert_eq!(a.documents, b.documents);
        assert_eq!(a.activity.activity.fine_entries, b.activity.fine_entries);
    }

    // A routed mutation stays bit-identical: both sides insert the same
    // entry (the cluster mints the same global id a single device would).
    let fresh: Vec<f32> = dataset.queries()[0].clone();
    let cluster_id = cluster
        .insert(&fresh, b"routed insert".to_vec())
        .expect("cluster insert")
        .ids[0];
    let single_id = single
        .insert(db_id, &fresh, b"routed insert".to_vec())
        .expect("single insert")
        .ids[0];
    assert_eq!(cluster_id, single_id);
    let a = cluster.search(&fresh, 1).expect("cluster search");
    let b = single.search(db_id, &fresh, 1).expect("single search");
    assert_eq!(a.results[0].id, b.results[0].id);
    assert_eq!(a.documents, b.documents);
}

#[test]
fn batched_search_agrees_with_sequential_search_end_to_end() {
    // The batched front door must be a pure throughput feature: same results,
    // same documents, same modelled latency as issuing the queries one at a
    // time, for any worker count.
    let dataset = scaled_dataset(256, 6, 21);
    let database = VectorDatabase::ivf(dataset.vectors(), dataset.documents_owned(), 8)
        .expect("database construction");
    let mut reis = ReisSystem::new(ReisConfig::ssd1());
    let db_id = reis.deploy(&database).expect("deployment");

    let queries: Vec<Vec<f32>> = dataset.queries().to_vec();
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| {
            reis.ivf_search_with_nprobe(db_id, q, 10, 4)
                .expect("sequential search")
        })
        .collect();
    for workers in [1usize, 2, 4] {
        let batch = reis
            .ivf_search_batch_with_nprobe(db_id, &queries, 10, 4, workers)
            .expect("batch search");
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.result_ids(), s.result_ids(), "workers {workers}");
            assert_eq!(b.documents, s.documents, "workers {workers}");
            assert_eq!(b.total_latency(), s.total_latency(), "workers {workers}");
        }
    }
}
