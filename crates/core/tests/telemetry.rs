//! Telemetry accounting invariants and non-perturbation.
//!
//! Telemetry must be a pure observer: enabling it may never change a
//! result, a transferred-entry count or any logical accounting. On top of
//! that, its counters must *agree* with the engine's own accounting:
//!
//! * the per-window entry log sums to the scan's transferred-entry count
//!   (`WindowEntries` == `FineEntries`), under sequential, sharded and
//!   fused execution, static and windowed-adaptive thresholds, pre- and
//!   post-compaction;
//! * the `FlashSenses` counter equals the sum of the per-query
//!   [`FlashStats`] sense counts the outcomes report;
//! * each leaf's own `Queries` counter sums (over leaves) to the
//!   aggregator's `LeafRequests` fan-out count.

use proptest::prelude::*;

use reis_cluster::ClusterSystem;
use reis_core::{CounterId, HistogramId, ReisConfig, ReisSystem, ScanParallelism, VectorDatabase};

const DIM: usize = 32;

fn corpus(entries: usize, salt: usize) -> (Vec<Vec<f32>>, Vec<Vec<u8>>) {
    let vectors: Vec<Vec<f32>> = (0..entries)
        .map(|i| {
            (0..DIM)
                .map(|d| (((i * 13 + d * 7 + salt * 3) % 29) as f32 - 14.0) / 5.0)
                .collect()
        })
        .collect();
    let documents: Vec<Vec<u8>> = (0..entries)
        .map(|i| format!("doc {i}").into_bytes())
        .collect();
    (vectors, documents)
}

proptest! {
    /// Σ per-window entry counts == the scan's transferred entries, for
    /// sequential and sharded scans, static and windowed thresholds,
    /// before and after a compaction.
    #[test]
    fn window_entry_log_sums_to_transferred_entries(
        entries in 24usize..100,
        salt in 0usize..1_000,
        shards in 1usize..4,
        adaptive_flag in 0usize..2,
    ) {
        let (vectors, documents) = corpus(entries, salt);
        let db = VectorDatabase::flat(&vectors, documents).expect("valid database");
        let parallelism = if shards == 1 {
            ScanParallelism::sequential()
        } else {
            ScanParallelism::sharded(shards).with_min_pages_per_shard(1)
        };
        let config = ReisConfig::tiny()
            .with_scan_parallelism(parallelism)
            .with_adaptive_filtering(adaptive_flag == 1);
        let mut system = ReisSystem::new(config);
        system.enable_telemetry();
        let db_id = system.deploy(&db).expect("deploy");

        let mut mutated = false;
        for round in 0..2 {
            let before_windows = system.telemetry().counter(CounterId::WindowEntries);
            let before_entries = system.telemetry().counter(CounterId::FineEntries);
            let outcome = system
                .search(db_id, &vectors[salt % entries], 5)
                .expect("search");
            let t = system.telemetry();
            prop_assert_eq!(
                t.counter(CounterId::WindowEntries) - before_windows,
                outcome.activity.fine_entries as u64,
                "window log sum != transferred entries (round {})", round
            );
            prop_assert_eq!(
                t.counter(CounterId::FineEntries) - before_entries,
                outcome.activity.fine_entries as u64
            );
            if !mutated {
                // Mutate and compact, then re-check on the rewritten corpus.
                let fresh: Vec<f32> = (0..DIM).map(|d| (d % 5) as f32).collect();
                system.insert(db_id, &fresh, b"fresh".to_vec()).expect("insert");
                system.delete(db_id, (salt % entries) as u32).expect("delete");
                system.compact(db_id).expect("compact");
                mutated = true;
            }
        }
    }

    /// The `FlashSenses` counter equals the summed per-query sense counts,
    /// and `FineWindows` the summed window counts, across sequential,
    /// replica and fused batch execution.
    #[test]
    fn sense_counter_matches_flash_stats(
        entries in 24usize..80,
        salt in 0usize..1_000,
        workers in 1usize..4,
    ) {
        let (vectors, documents) = corpus(entries, salt);
        let db = VectorDatabase::flat(&vectors, documents).expect("valid database");
        let mut system = ReisSystem::new(ReisConfig::tiny());
        system.enable_telemetry();
        let db_id = system.deploy(&db).expect("deploy");

        let queries: Vec<Vec<f32>> = (0..4).map(|q| vectors[(salt + q * 7) % entries].clone()).collect();
        let outcomes = system.search_batch(db_id, &queries, 5, workers).expect("batch");

        let t = system.telemetry();
        let senses: u64 = outcomes.iter().map(|o| o.flash_stats.page_reads).sum();
        let windows: u64 = outcomes.iter().map(|o| o.activity.fine_windows as u64).sum();
        let fine_entries: u64 = outcomes.iter().map(|o| o.activity.fine_entries as u64).sum();
        prop_assert_eq!(t.counter(CounterId::FlashSenses), senses);
        prop_assert_eq!(t.counter(CounterId::FineWindows), windows);
        prop_assert_eq!(t.counter(CounterId::FineEntries), fine_entries);
        prop_assert_eq!(t.counter(CounterId::WindowEntries), fine_entries);
        prop_assert_eq!(t.counter(CounterId::Queries), outcomes.len() as u64);
        prop_assert_eq!(t.counter(CounterId::Batches), 1);
        prop_assert_eq!(t.counter(CounterId::FusedBatches), 1);
    }

    /// Σ over leaves of each leaf's own `Queries` counter equals the
    /// aggregator's `LeafRequests` count, pre- and post-compaction.
    #[test]
    fn leaf_query_counters_sum_to_aggregator_fanout(
        num_leaves in 1usize..5,
        entries in 24usize..60,
        salt in 0usize..1_000,
    ) {
        let (vectors, documents) = corpus(entries, salt);
        let mut cluster = ClusterSystem::new(ReisConfig::tiny(), num_leaves).expect("cluster");
        cluster.enable_telemetry();
        cluster.deploy_flat(&vectors, &documents).expect("deploy");

        for q in 0..3 {
            cluster.search(&vectors[(salt + q * 11) % entries], 5).expect("search");
        }
        cluster.compact().expect("compact");
        cluster.search(&vectors[salt % entries], 5).expect("search");

        let leaf_queries: u64 = (0..num_leaves)
            .map(|leaf| cluster.leaf(leaf).telemetry().counter(CounterId::Queries))
            .sum();
        let t = cluster.telemetry();
        prop_assert_eq!(t.counter(CounterId::ClusterQueries), 4);
        prop_assert_eq!(t.counter(CounterId::LeafRequests), 4 * num_leaves as u64);
        prop_assert_eq!(leaf_queries, t.counter(CounterId::LeafRequests));
    }

    /// Bit-identity: every field of every outcome — results, documents,
    /// activity, modelled latency, flash statistics — is identical with
    /// telemetry enabled and disabled, across shard budgets and a mutation.
    #[test]
    fn outcomes_identical_with_telemetry_on_and_off(
        entries in 24usize..80,
        salt in 0usize..1_000,
        workers in 1usize..4,
    ) {
        let (vectors, documents) = corpus(entries, salt);
        let db = VectorDatabase::flat(&vectors, documents).expect("valid database");
        let config = ReisConfig::tiny();

        let mut plain = ReisSystem::new(config);
        let mut observed = ReisSystem::new(config);
        observed.enable_telemetry();

        let plain_id = plain.deploy(&db).expect("deploy");
        let observed_id = observed.deploy(&db).expect("deploy");
        let queries: Vec<Vec<f32>> = (0..3).map(|q| vectors[(salt + q * 5) % entries].clone()).collect();

        let a = plain.search_batch(plain_id, &queries, 5, workers).expect("batch");
        let b = observed.search_batch(observed_id, &queries, 5, workers).expect("batch");
        prop_assert_eq!(&a, &b, "telemetry perturbed a batched search");

        let fresh: Vec<f32> = (0..DIM).map(|d| (d % 7) as f32).collect();
        let ma = plain.insert(plain_id, &fresh, b"x".to_vec()).expect("insert");
        let mb = observed.insert(observed_id, &fresh, b"x".to_vec()).expect("insert");
        prop_assert_eq!(&ma, &mb, "telemetry perturbed a mutation");

        let a = plain.search(plain_id, &fresh, 3).expect("search");
        let b = observed.search(observed_id, &fresh, 3).expect("search");
        prop_assert_eq!(&a, &b, "telemetry perturbed a post-mutation search");
    }
}

/// The on-demand explain trace covers exactly the fine-scan pages of the
/// next query and its per-page passed counts sum to the transferred-entry
/// count; capturing it disarms the trigger.
#[test]
fn explain_trace_accounts_for_every_scanned_page() {
    let (vectors, documents) = corpus(64, 7);
    let db = VectorDatabase::flat(&vectors, documents).unwrap();
    let config = ReisConfig::tiny()
        .with_scan_parallelism(ScanParallelism::sequential())
        .with_adaptive_filtering(true);
    let mut system = ReisSystem::new(config);
    system.enable_telemetry();
    let db_id = system.deploy(&db).unwrap();

    system.telemetry().arm_explain();
    let outcome = system.search(db_id, &vectors[11], 5).unwrap();

    let explain = system
        .telemetry()
        .last_explain()
        .expect("explain trace captured");
    assert_eq!(explain.events.len(), outcome.activity.fine_pages);
    assert_eq!(explain.total_passed(), outcome.activity.fine_entries as u64);
    // Window annotations are monotone and match the scan's window count.
    let max_window = explain.events.iter().map(|e| e.window).max().unwrap_or(0);
    assert!((max_window as usize) < outcome.activity.fine_windows.max(1));
    assert!(!system.telemetry().explain_armed(), "capture disarms");

    // The next query does not record a new explain trace.
    let before = explain.sequence;
    system.search(db_id, &vectors[12], 5).unwrap();
    assert_eq!(system.telemetry().last_explain().unwrap().sequence, before);
}

/// Query traces land in the ring with both clocks populated and modelled
/// spans matching the outcome's latency breakdown.
#[test]
fn query_trace_spans_match_latency_breakdown() {
    let (vectors, documents) = corpus(48, 3);
    let db = VectorDatabase::flat(&vectors, documents).unwrap();
    let mut system = ReisSystem::new(ReisConfig::tiny());
    system.enable_telemetry();
    let db_id = system.deploy(&db).unwrap();
    let outcome = system.search(db_id, &vectors[5], 4).unwrap();

    let trace = system.telemetry().last_trace().expect("trace recorded");
    assert_eq!(trace.kind, "search");
    assert_eq!(
        trace.modelled_ns(),
        outcome.latency.total().as_nanos(),
        "trace spans must sum to the modelled query latency"
    );
    let stages: Vec<&str> = trace.spans.iter().map(|s| s.stage).collect();
    assert_eq!(
        stages,
        vec![
            "broadcast",
            "coarse_scan",
            "fine_scan",
            "select",
            "rerank",
            "doc_fetch",
            "host_transfer"
        ]
    );
    // Histograms observed the same totals.
    let t = system.telemetry();
    assert_eq!(t.histogram(HistogramId::QueryModelledNs).count, 1);
    assert_eq!(
        t.histogram(HistogramId::QueryModelledNs).sum,
        outcome.latency.total().as_nanos()
    );
}

/// Search-versus-mutation interference on the modelled clock: append
/// segments and tombstones give a probe more pages to scan and nothing
/// less, so the `reis_query_modelled_ns` histogram of a probe round over
/// the dirtied index reads no lower — in its median and in its exact sum —
/// than the same round on the quiescent deployment.
#[test]
fn dirty_index_probes_are_modelled_no_cheaper_than_quiescent_ones() {
    use reis_core::CompactionPolicy;

    let (vectors, documents) = corpus(96, 17);
    let db = VectorDatabase::ivf(&vectors, documents, 6).unwrap();
    let mut system =
        ReisSystem::new(ReisConfig::tiny().with_compaction(CompactionPolicy::manual()));
    system.enable_telemetry();
    let db_id = system.deploy(&db).unwrap();

    let probe_round = |system: &mut ReisSystem| {
        let before = system.telemetry().histogram(HistogramId::QueryModelledNs);
        for q in 0..8 {
            system
                .ivf_search_with_nprobe(db_id, &vectors[q * 11], 5, 3)
                .unwrap();
        }
        system
            .telemetry()
            .histogram(HistogramId::QueryModelledNs)
            .delta(&before)
    };
    let quiescent = probe_round(&mut system);

    // Two inserts to one delete to one upsert, as the mixed traces run.
    for m in 0..24usize {
        let fresh: Vec<f32> = (0..DIM)
            .map(|d| (((m * 7 + d * 3) % 23) as f32 - 11.0) / 4.0)
            .collect();
        let target = (m * 3) as u32;
        match m % 4 {
            0 | 1 => system.insert(db_id, &fresh, b"fresh".to_vec()),
            2 => system.delete(db_id, target),
            _ => system.upsert(db_id, target + 1, &fresh, b"moved"),
        }
        .unwrap();
    }
    let mutations = system
        .telemetry()
        .histogram(HistogramId::MutationModelledNs);
    assert_eq!(mutations.count, 24, "every mutation was observed");

    let dirty = probe_round(&mut system);
    assert_eq!((quiescent.count, dirty.count), (8, 8));
    assert!(
        dirty.quantile(0.5) >= quiescent.quantile(0.5),
        "modelled p50 {} ns dirty against {} ns quiescent",
        dirty.quantile(0.5),
        quiescent.quantile(0.5)
    );
    assert!(
        dirty.sum > quiescent.sum,
        "modelled total {} ns dirty against {} ns quiescent",
        dirty.sum,
        quiescent.sum
    );
}

/// Durability wiring: WAL appends, snapshot writes and recovery land in
/// the registry when telemetry is enabled via the environment.
#[test]
fn durability_counters_cover_wal_snapshot_and_recovery() {
    use reis_core::{DurableStore, MemVfs};

    let (vectors, documents) = corpus(32, 5);
    let db = VectorDatabase::flat(&vectors, documents).unwrap();
    let vfs = MemVfs::new();

    // The durable store's handle is attached at open time, so telemetry
    // must be on *before* the system is built (the env path a server uses).
    let prior = std::env::var(reis_core::TELEMETRY_ENV).ok();
    std::env::set_var(reis_core::TELEMETRY_ENV, "1");
    let store = DurableStore::new(Box::new(vfs.clone()));
    let (mut system, _) = ReisSystem::open(ReisConfig::tiny(), store).unwrap();
    assert!(system.telemetry().is_enabled(), "env enables telemetry");
    let db_id = system.deploy(&db).unwrap();
    let fresh: Vec<f32> = (0..DIM).map(|d| (d % 3) as f32).collect();
    system.insert(db_id, &fresh, b"fresh".to_vec()).unwrap();
    system.delete(db_id, 1).unwrap();
    system.save().unwrap();

    let t = system.telemetry();
    assert_eq!(t.counter(CounterId::Inserts), 1);
    assert_eq!(t.counter(CounterId::Deletes), 1);
    assert_eq!(
        t.counter(CounterId::WalAppends),
        2,
        "insert + delete logged"
    );
    assert!(t.counter(CounterId::WalAppendBytes) > 0);
    assert!(
        t.counter(CounterId::SnapshotWrites) >= 2,
        "deploy checkpoint + save"
    );
    assert!(t.counter(CounterId::SnapshotBytes) > 0);
    // Two timed saves: the deploy's immediate checkpoint and the explicit one.
    assert_eq!(t.histogram(HistogramId::SnapshotWallNs).count, 2);
    assert_eq!(t.histogram(HistogramId::MutationWallNs).count, 2);
    drop(system);

    let store = DurableStore::new(Box::new(vfs));
    let (recovered, report) = ReisSystem::recover(ReisConfig::tiny(), store).unwrap();
    let t = recovered.telemetry();
    assert_eq!(t.counter(CounterId::Recoveries), 1);
    assert_eq!(
        t.counter(CounterId::WalRecordsReplayed),
        report.wal_records_applied
    );
    assert_eq!(t.counter(CounterId::WalQuarantines), 0);
    assert_eq!(t.histogram(HistogramId::RecoveryWallNs).count, 1);
    match prior {
        Some(value) => std::env::set_var(reis_core::TELEMETRY_ENV, value),
        None => std::env::remove_var(reis_core::TELEMETRY_ENV),
    }
}

/// Fault counters match a hand-computed schedule exactly: a permanent
/// kill of one unreplicated leaf at its third call, one retry allowed.
#[test]
fn fault_counters_match_the_injected_schedule_exactly() {
    use reis_cluster::{FaultPlan, RetryPolicy};
    use reis_nand::Nanos;

    let (vectors, documents) = corpus(36, 9);
    let mut cluster = ClusterSystem::new(ReisConfig::tiny(), 3)
        .expect("cluster")
        .with_fault_plan(Some(FaultPlan::healthy().with_kill(1, 2)))
        .with_retry_policy(RetryPolicy::new(
            1,
            Nanos::from_micros(10),
            Nanos::from_micros(500),
        ));
    cluster.enable_telemetry();
    cluster.deploy_flat(&vectors, &documents).expect("deploy");

    let mut degraded = 0u64;
    for q in 0..4 {
        let outcome = cluster.search(&vectors[q * 7], 5).expect("search");
        degraded += u64::from(!outcome.is_full_coverage());
    }

    // Schedule: queries 0 and 1 run clean (3 leaf requests each). Query 2
    // reaches the killed leaf's third call: one retry, then exhaustion
    // marks it down (2 executed requests, 1 failover). Query 3 skips the
    // down leaf outright (2 requests, 1 failover skip).
    let t = cluster.telemetry();
    assert_eq!(t.counter(CounterId::ClusterQueries), 4);
    assert_eq!(t.counter(CounterId::LeafRequests), 3 + 3 + 2 + 2);
    assert_eq!(t.counter(CounterId::LeafRetries), 1);
    assert_eq!(t.counter(CounterId::LeafFailovers), 2);
    assert_eq!(t.counter(CounterId::DegradedQueries), 2);
    assert_eq!(degraded, 2, "the outcomes agree with the counter");
    // The fan-out invariant still holds over what actually executed.
    let leaf_queries: u64 = (0..3)
        .map(|leaf| cluster.leaf(leaf).telemetry().counter(CounterId::Queries))
        .sum();
    assert_eq!(leaf_queries, t.counter(CounterId::LeafRequests));
}

/// A cluster deployment publishes every leaf's deployment gauge as it
/// lands, like a device deployment does — not at the leaf's first mutation.
#[test]
fn cluster_deploy_publishes_every_leaf_deployment_gauge() {
    use reis_core::GaugeId;

    let (vectors, documents) = corpus(36, 11);
    let mut cluster = ClusterSystem::new(ReisConfig::tiny(), 3).expect("cluster");
    cluster.enable_telemetry();
    cluster.deploy_flat(&vectors, &documents).expect("deploy");
    for leaf in 0..3 {
        assert_eq!(
            cluster
                .leaf(leaf)
                .telemetry()
                .gauge(GaugeId::DatabasesDeployed),
            1,
            "leaf {leaf}"
        );
    }
}

/// A cluster insert is visible on the leaves that stored it: each live
/// replica of each owning shard counts exactly the entries routed to it
/// (one mutation observation per routed call), and every other leaf —
/// a down replica, a shard that owns none of the batch — counts nothing.
#[test]
fn cluster_inserts_are_counted_on_every_live_replica_of_the_owning_shards() {
    use reis_cluster::{FaultPlan, RetryPolicy};
    use reis_nand::Nanos;

    let (vectors, documents) = corpus(36, 13);
    // 3 shards x 2 replicas; leaf 0 (shard 0's primary) dies at its first
    // call, so shard 0 is served — and mutated — by leaf 1 alone.
    let mut cluster = ClusterSystem::new_replicated(ReisConfig::tiny(), 3, 2)
        .expect("cluster")
        .with_fault_plan(Some(FaultPlan::healthy().with_kill(0, 0)))
        .with_retry_policy(RetryPolicy::new(
            0,
            Nanos::from_micros(10),
            Nanos::from_micros(500),
        ));
    cluster.enable_telemetry();
    cluster.deploy_flat(&vectors, &documents).expect("deploy");
    cluster.search(&vectors[5], 3).expect("search");
    assert_eq!(cluster.down_leaves(), vec![0]);

    let inserts = |cluster: &ClusterSystem| -> Vec<(u64, u64)> {
        (0..cluster.num_leaves())
            .map(|leaf| {
                let t = cluster.leaf(leaf).telemetry();
                (
                    t.counter(CounterId::Inserts),
                    t.histogram(HistogramId::MutationModelledNs).count,
                )
            })
            .collect()
    };
    // A batch that reaches every shard, then one entry that reaches one.
    for batch in [4usize, 1] {
        let before = inserts(&cluster);
        let fresh: Vec<Vec<f32>> = (0..batch).map(|i| vectors[i * 5 + batch].clone()).collect();
        let docs: Vec<Vec<u8>> = (0..batch)
            .map(|i| format!("new {i}").into_bytes())
            .collect();
        let outcome = cluster.insert_batch(&fresh, docs).expect("insert");
        assert_eq!(outcome.ids.len(), batch);
        let mut routed = vec![0u64; cluster.num_shards()];
        for &id in &outcome.ids {
            routed[cluster.router().owner(id)] += 1;
        }
        for (leaf, (&(count, calls), (count_before, calls_before))) in
            inserts(&cluster).iter().zip(before).enumerate()
        {
            let expected = if leaf == 0 {
                0
            } else {
                routed[cluster.router().shard_of_leaf(leaf)]
            };
            assert_eq!(
                count - count_before,
                expected,
                "leaf {leaf}, batch of {batch}: Inserts"
            );
            assert_eq!(
                calls - calls_before,
                u64::from(expected > 0),
                "leaf {leaf}, batch of {batch}: mutation observations"
            );
        }
    }
}

/// Scrub counters record exactly what each scrub pass reports: one bump
/// per corrupt snapshot and per quarantinable WAL tail, per pass.
#[test]
fn scrub_counters_record_corruption_exactly() {
    use reis_core::{DurableStore, MemVfs, ReisSystem, Telemetry, Vfs};

    // Produce real epoch artifacts with a throwaway durable system.
    let (vectors, documents) = corpus(32, 11);
    let db = VectorDatabase::flat(&vectors, documents).unwrap();
    let vfs = MemVfs::new();
    {
        let store = DurableStore::new(Box::new(vfs.clone()));
        let (mut system, _) = ReisSystem::open(ReisConfig::tiny(), store).unwrap();
        let db_id = system.deploy(&db).unwrap();
        let fresh: Vec<f32> = (0..DIM).map(|d| (d % 3) as f32).collect();
        system.insert(db_id, &fresh, b"fresh".to_vec()).unwrap();
        system.save().unwrap();
    }

    let telemetry = Telemetry::enabled();
    let mut store = DurableStore::new(Box::new(vfs.clone()));
    store.set_telemetry(telemetry.clone());

    // A clean pass checks everything and counts nothing.
    let report = store.scrub().unwrap();
    assert!(report.is_clean());
    assert!(report.snapshots_checked > 0);
    assert!(report.wals_checked > 0);
    assert_eq!(telemetry.counter(CounterId::ScrubCorruptSnapshots), 0);
    assert_eq!(telemetry.counter(CounterId::ScrubQuarantinedWals), 0);

    // Flip one byte in the newest snapshot: one corrupt snapshot per pass.
    let newest = store.snapshot_seqs_desc().unwrap()[0];
    let snapshot = DurableStore::snapshot_name(newest);
    let mut bytes = vfs.read_file(&snapshot).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    vfs.write_file(&snapshot, &bytes).unwrap();
    let report = store.scrub().unwrap();
    assert_eq!(report.corrupt_snapshots, vec![newest]);
    assert_eq!(telemetry.counter(CounterId::ScrubCorruptSnapshots), 1);
    assert_eq!(telemetry.counter(CounterId::ScrubQuarantinedWals), 0);

    // Append garbage to the oldest retained WAL: a quarantinable tail.
    // The second pass re-counts the still-corrupt snapshot.
    let wal_seq = store.wal_seqs_asc().unwrap()[0];
    let wal = DurableStore::wal_name(wal_seq);
    let mut bytes = vfs.read_file(&wal).unwrap();
    bytes.extend_from_slice(&[0xFF; 7]);
    vfs.write_file(&wal, &bytes).unwrap();
    let report = store.scrub().unwrap();
    assert_eq!(report.corrupt_snapshots, vec![newest]);
    assert_eq!(report.quarantined_wals, vec![wal_seq]);
    assert_eq!(report.corrupt_artifacts(), 2);
    assert_eq!(
        telemetry.counter(CounterId::ScrubCorruptSnapshots),
        2,
        "counted per pass"
    );
    assert_eq!(telemetry.counter(CounterId::ScrubQuarantinedWals), 1);
}
