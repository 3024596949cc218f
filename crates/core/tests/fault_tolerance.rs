//! Fault-tolerant cluster serving.
//!
//! A replicated cluster under injected leaf faults must be *bit-exact or
//! explicitly degraded* — never silently wrong:
//!
//! * as long as every shard keeps at least one live replica, every search
//!   answer (ids, distances, documents, activity accounting) is
//!   bit-identical to the same cluster with no faults injected;
//! * when every replica of a shard is down, the outcome reports the lost
//!   shards truthfully via `shard_coverage` and the answer is
//!   bit-identical to a single-device build of exactly the covered
//!   shards' survivors;
//! * replicas of a shard stay in bit-identical lockstep (snapshot-CRC
//!   equality) through arbitrary mutation traces, and a down leaf that
//!   rejoins — from retained memory or from its durable store — catches
//!   up to the exact same fingerprint;
//! * the same seeded fault schedule replays the same outcomes, latencies
//!   included, and a zero-rate plan is indistinguishable from no plan.
//!
//! # The CI chaos gate
//!
//! When `REIS_TEST_SUMMARY_DIR` is set, the identity checks write one
//! line per case (coverage bitmap, result ids, transferred-entry sums).
//! CI runs the suite under `REIS_TEST_PARALLELISM` ∈ {1, 4} crossed with
//! `REIS_SCHED_WORKERS` ∈ {1, 4} and diffs the summaries: fault handling
//! must not perturb the partition-invariant accounting, and fault
//! schedules must depend neither on scan parallelism nor on the size of
//! the pool the aggregator fans leaf calls out on.

use proptest::prelude::*;

use reis_cluster::{ClusterSearchOutcome, ClusterSystem, FaultPlan, HealthState, RetryPolicy};
use reis_core::{
    CompactionPolicy, DurableStore, MemVfs, ReisConfig, ReisError, ReisSystem, SearchOutcome,
    VectorDatabase, Vfs,
};
use reis_nand::Nanos;
use reis_workloads::FaultScenario;

mod support;
use support::{record_summary, Mirror};

const DIM: usize = 32;

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

/// The deterministic retry policy the suite runs under: one retry, short
/// backoff, a sub-millisecond timeout deadline.
fn retry() -> RetryPolicy {
    RetryPolicy::new(1, Nanos::from_micros(40), Nanos::from_micros(900))
}

fn plan_for(scenario: &FaultScenario) -> FaultPlan {
    let mut plan = FaultPlan::new(scenario.seed, scenario.fail_ppm, scenario.timeout_ppm);
    for &(leaf, nth_call) in &scenario.kills {
        plan = plan.with_kill(leaf, nth_call);
    }
    plan
}

/// Per-shard mirrors seeded with the deploy-time slices (for a flat corpus
/// the slices are contiguous ranges of entry order). Replicas of a shard
/// are bit-identical, so one mirror describes the whole group.
fn shard_mirrors(
    cluster: &ClusterSystem,
    vectors: &[Vec<f32>],
    documents: &[Vec<u8>],
) -> Vec<Mirror> {
    let mut mirrors: Vec<Mirror> = (0..cluster.num_shards()).map(|_| Mirror::empty()).collect();
    for id in 0..vectors.len() as u32 {
        let shard = cluster.router().owner(id);
        mirrors[shard].seed(
            id,
            vectors[id as usize].clone(),
            documents[id as usize].clone(),
        );
    }
    mirrors
}

/// The degraded reference: the covered shards' mirror orders concatenated
/// shard-major — the order the lifted `(distance, shard, storage index)`
/// merge key induces over the surviving shards — rebuilt as a fresh flat
/// deployment under the union quantizers.
fn covered_union(
    mirrors: &[Mirror],
    covered: &[bool],
    template: &VectorDatabase,
) -> Option<(Vec<u32>, VectorDatabase)> {
    let order: Vec<u32> = mirrors
        .iter()
        .zip(covered)
        .filter(|(_, &keep)| keep)
        .flat_map(|(m, _)| m.order.iter().copied())
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
    .expect("degraded reference rebuild");
    Some((order, db))
}

/// Cluster results == reference results (reference ids are dense positions
/// into `order`), including the entry-level accounting.
fn assert_matches_rebuild(
    cluster: &ClusterSearchOutcome,
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
    assert_eq!(
        cluster.activity.activity.fine_entries, reference.activity.fine_entries,
        "transferred fine entries: {ctx}"
    );
    assert_eq!(
        cluster.activity.cut_candidates, reference.activity.rerank_candidates,
        "global candidate cut width: {ctx}"
    );
}

/// The core guarantee, checked for one query: full coverage means the
/// answer is bit-identical to the no-fault twin; partial coverage means
/// the lost shards are reported truthfully (every replica down) and the
/// answer is bit-identical to a single-device build of exactly the
/// covered shards' survivors. Returns whether coverage was full. Every
/// case asks for the top 5; the reference runs the faulted cluster's
/// configuration.
fn check_faulted_query(
    faulted: &mut ClusterSystem,
    twin: &mut ClusterSystem,
    mirrors: &[Mirror],
    template: &VectorDatabase,
    query: &[f32],
    summary_test: &str,
    ctx: &str,
) -> bool {
    let k = 5;
    let config = *faulted.config();
    let a = faulted.search(query, k).expect("faulted search");
    let b = twin.search(query, k).expect("twin search");
    assert!(b.is_full_coverage(), "the no-fault twin never degrades");
    let covered: Vec<bool> = (0..faulted.num_shards())
        .map(|shard| a.shard_coverage.covered(shard))
        .collect();
    if a.is_full_coverage() {
        assert_eq!(a.results, b.results, "results: {ctx}");
        assert_eq!(a.documents, b.documents, "documents: {ctx}");
        assert_eq!(a.activity, b.activity, "activity: {ctx}");
    } else {
        // Truthfulness: a shard is reported lost iff its whole replica
        // group is down, and a covered shard kept a live replica.
        for (shard, &is_covered) in covered.iter().enumerate() {
            let all_down = faulted
                .router()
                .replicas(shard)
                .all(|leaf| faulted.leaf_health(leaf) == HealthState::Down);
            if is_covered {
                assert!(
                    !all_down,
                    "covered shard {shard} has no live replica: {ctx}"
                );
            } else {
                assert!(all_down, "shard {shard} reported lost while alive: {ctx}");
            }
        }
        match covered_union(mirrors, &covered, template) {
            None => {
                assert!(
                    a.results.is_empty(),
                    "zero coverage yields no results: {ctx}"
                );
                assert!(
                    a.documents.is_empty(),
                    "zero coverage yields no documents: {ctx}"
                );
            }
            Some((order, reference_db)) => {
                let mut reference = ReisSystem::new(config.with_adaptive_filtering(false));
                let ref_db = reference.deploy(&reference_db).expect("reference deploy");
                let r = reference
                    .search(ref_db, query, k)
                    .expect("reference search");
                assert_matches_rebuild(&a, &r, &order, ctx);
            }
        }
    }
    let bits: String = covered.iter().map(|&c| if c { '1' } else { '0' }).collect();
    record_summary(
        summary_test,
        &format!(
            "{ctx} cov={bits} ids={:?} fine={} cut={}",
            a.results.iter().map(|n| n.id).collect::<Vec<_>>(),
            a.activity.activity.fine_entries,
            a.activity.cut_candidates
        ),
    );
    a.is_full_coverage()
}

/// Fresh-corpus fault schedules: seeded transient rates plus random
/// permanent kills, over every shard/replication shape.
fn run_seeded(
    seed: u64,
    fail_ppm: u32,
    timeout_ppm: u32,
    kills: &[(usize, u64)],
    entries: usize,
    num_shards: usize,
    replication: usize,
) {
    let (vectors, documents) = corpus(entries);
    let template = VectorDatabase::flat(&vectors, documents.clone()).expect("template");
    let config = ReisConfig::tiny();
    let num_leaves = num_shards * replication;
    let mut plan = FaultPlan::new(seed, fail_ppm, timeout_ppm);
    for &(leaf, nth_call) in kills {
        plan = plan.with_kill(leaf % num_leaves, nth_call);
    }
    let mut faulted = ClusterSystem::new_replicated(config, num_shards, replication)
        .unwrap()
        .with_fault_plan(Some(plan))
        .with_retry_policy(retry());
    let mut twin = ClusterSystem::new_replicated(config, num_shards, replication).unwrap();
    faulted.deploy_flat(&vectors, &documents).unwrap();
    twin.deploy_flat(&vectors, &documents).unwrap();
    let mirrors = shard_mirrors(&faulted, &vectors, &documents);

    for q in 0..6u32 {
        let query = vector_for(4_000 + q, 41);
        let ctx = format!(
            "seed={seed} fail={fail_ppm} timeout={timeout_ppm} \
             s={num_shards} r={replication} e={entries} q={q}"
        );
        check_faulted_query(
            &mut faulted,
            &mut twin,
            &mirrors,
            &template,
            &query,
            "fault_identity",
            &ctx,
        );
    }
}

proptest! {
    /// For every seeded fault schedule: if each shard keeps a live replica
    /// the answer is bit-identical to the no-fault run; otherwise it is
    /// bit-identical to a deployment of exactly the covered shards, with
    /// coverage reported truthfully.
    #[test]
    fn seeded_fault_schedules_answer_identically_or_degrade_truthfully(
        seed in any::<u64>(),
        fail_ppm in 0u32..250_000,
        timeout_ppm in 0u32..150_000,
        kills in proptest::collection::vec((0usize..9, 0u64..24), 0..3),
        entries in 12usize..26,
        shard_pick in 1usize..4,
        repl_pick in 1usize..4,
    ) {
        run_seeded(seed, fail_ppm, timeout_ppm, &kills, entries, shard_pick, repl_pick);
    }
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

fn live_ids(mirrors: &[Mirror]) -> Vec<u32> {
    let mut ids: Vec<u32> = mirrors
        .iter()
        .flat_map(|m| m.order.iter().copied())
        .collect();
    ids.sort_unstable();
    ids
}

/// Whether every replica of the shard that refused a mutation is down —
/// the only legitimate reason for [`ReisError::Unavailable`].
fn assert_group_down(cluster: &ClusterSystem, leaf: usize, ctx: &str) {
    let shard = cluster.router().shard_of_leaf(leaf);
    for replica in cluster.router().replicas(shard) {
        assert_eq!(
            cluster.leaf_health(replica),
            HealthState::Down,
            "shard {shard} refused a mutation with a live replica: {ctx}"
        );
    }
}

/// Mutation traces under transient faults at replication 2: mutations land
/// on every live replica, searches fail over, down leaves periodically
/// rejoin by replaying the aggregator log, and at the end — after all
/// leaves rejoin — every replica group's snapshot CRCs agree with each
/// other *and* with a never-faulted twin driven through the same trace.
fn run_faulted_trace(
    ops: &[(u8, u64)],
    entries: usize,
    num_shards: usize,
    seed: u64,
    fail_ppm: u32,
    timeout_ppm: u32,
) {
    let replication = 2;
    let (vectors, documents) = corpus(entries);
    let template = VectorDatabase::flat(&vectors, documents.clone()).expect("template");
    let config = ReisConfig::tiny().with_compaction(CompactionPolicy::manual());

    let mut faulted = ClusterSystem::new_replicated(config, num_shards, replication)
        .unwrap()
        .with_fault_plan(Some(FaultPlan::new(seed, fail_ppm, timeout_ppm)))
        .with_retry_policy(retry());
    let mut twin = ClusterSystem::new_replicated(config, num_shards, replication).unwrap();
    faulted.deploy_flat(&vectors, &documents).unwrap();
    twin.deploy_flat(&vectors, &documents).unwrap();
    let mut mirrors = shard_mirrors(&faulted, &vectors, &documents);

    let mut version = 1u32;
    for (i, &(code, payload)) in ops.iter().enumerate() {
        match decode_op(code) {
            Op::Insert => {
                let vector = vector_for(1000 + payload as u32, payload);
                let doc = doc_for(1000 + payload as u32, version);
                match faulted.insert(&vector, doc.clone()) {
                    Ok(outcome) => {
                        let id = outcome.ids[0];
                        let twin_id =
                            twin.insert(&vector, doc.clone()).expect("twin insert").ids[0];
                        assert_eq!(id, twin_id, "lockstep global id assignment");
                        mirrors[faulted.router().owner(id)].append(id, vector, doc);
                    }
                    Err(ReisError::Unavailable { leaf, .. }) => {
                        assert_group_down(&faulted, leaf, "insert");
                    }
                    Err(other) => panic!("unexpected insert error: {other}"),
                }
            }
            Op::Delete => {
                let ids = live_ids(&mirrors);
                if ids.is_empty() {
                    continue;
                }
                let id = ids[payload as usize % ids.len()];
                match faulted.delete(id) {
                    Ok(_) => {
                        twin.delete(id).expect("twin delete");
                        mirrors[faulted.router().owner(id)].remove(id);
                    }
                    Err(ReisError::Unavailable { leaf, .. }) => {
                        assert_group_down(&faulted, leaf, "delete");
                    }
                    Err(other) => panic!("unexpected delete error: {other}"),
                }
            }
            Op::Upsert => {
                let ids = live_ids(&mirrors);
                if ids.is_empty() {
                    continue;
                }
                let id = ids[payload as usize % ids.len()];
                let vector = vector_for(id, payload.wrapping_add(7));
                let doc = doc_for(id, version);
                match faulted.upsert(id, &vector, &doc) {
                    Ok(_) => {
                        twin.upsert(id, &vector, &doc).expect("twin upsert");
                        mirrors[faulted.router().owner(id)].append(id, vector, doc);
                    }
                    Err(ReisError::Unavailable { leaf, .. }) => {
                        assert_group_down(&faulted, leaf, "upsert");
                    }
                    Err(other) => panic!("unexpected upsert error: {other}"),
                }
            }
            Op::Compact => {
                faulted.compact().expect("faulted compact");
                twin.compact().expect("twin compact");
            }
        }
        version += 1;

        // A search every few ops gives the fault plan a chance to take
        // leaves down mid-trace; the identity check runs either way.
        if i % 3 == 2 {
            let query = vector_for(5_000 + i as u32, 43);
            let ctx = format!("seed={seed} fail={fail_ppm} s={num_shards} e={entries} op={i}");
            check_faulted_query(
                &mut faulted,
                &mut twin,
                &mirrors,
                &template,
                &query,
                "fault_mutated",
                &ctx,
            );
        }
        // Periodic rejoin: replay the aggregator log into the stale
        // replicas, which must re-enter lockstep immediately.
        if i % 7 == 6 {
            for leaf in faulted.down_leaves() {
                faulted.rejoin_leaf(leaf).expect("rejoin");
            }
        }
    }

    // Final rejoin, faults off: the cluster must now be indistinguishable
    // from the never-faulted twin — replica CRC lockstep, cross-system CRC
    // equality, full coverage, bit-identical answers.
    for leaf in faulted.down_leaves() {
        faulted.rejoin_leaf(leaf).expect("final rejoin");
    }
    let mut faulted = faulted.with_fault_plan(None);
    assert_eq!(faulted.aggregator_log_len(), 0, "log drops once all rejoin");
    for shard in 0..num_shards {
        let crcs = faulted.shard_state_crcs(shard).expect("faulted crcs");
        assert!(
            crcs.windows(2).all(|w| w[0] == w[1]),
            "replica group {shard} out of lockstep: {crcs:?}"
        );
        let twin_crcs = twin.shard_state_crcs(shard).expect("twin crcs");
        assert_eq!(crcs, twin_crcs, "shard {shard} diverged from the twin");
    }
    for q in 0..3u32 {
        let query = vector_for(6_000 + q, 47);
        let ctx = format!("seed={seed} fail={fail_ppm} s={num_shards} e={entries} final q={q}");
        let full = check_faulted_query(
            &mut faulted,
            &mut twin,
            &mirrors,
            &template,
            &query,
            "fault_mutated",
            &ctx,
        );
        assert!(full, "all replicas rejoined, coverage must be full: {ctx}");
    }
}

proptest! {
    /// Random interleavings of mutations, faulted searches and rejoins
    /// keep replica groups in CRC lockstep and the cluster bit-identical
    /// to a never-faulted twin once every leaf has caught up.
    #[test]
    fn faulted_mutation_traces_keep_replicas_in_lockstep(
        ops in proptest::collection::vec((0u8..8, 0u64..1_000), 1..22),
        entries in 10usize..24,
        num_shards in 1usize..4,
        seed in any::<u64>(),
        fail_ppm in 0u32..220_000,
        timeout_ppm in 0u32..120_000,
    ) {
        run_faulted_trace(&ops, entries, num_shards, seed, fail_ppm, timeout_ppm);
    }
}

/// The structured scenario family from `reis-workloads` — healthy
/// baseline, transient churn, single kills, one whole-group kill — across
/// shard/replication shapes. The whole-group kill must actually force a
/// truthfully degraded answer.
#[test]
fn covering_scenarios_hold_the_guarantee_across_shapes() {
    let entries = 24;
    let (vectors, documents) = corpus(entries);
    let template = VectorDatabase::flat(&vectors, documents.clone()).unwrap();
    let config = ReisConfig::tiny();

    for (num_shards, replication) in [(2usize, 1usize), (3, 1), (2, 2), (3, 2), (2, 3)] {
        let num_leaves = num_shards * replication;
        let scenarios = FaultScenario::covering(num_leaves, replication, 0xC0FF_EE00);
        for (s, scenario) in scenarios.iter().enumerate() {
            let mut faulted = ClusterSystem::new_replicated(config, num_shards, replication)
                .unwrap()
                .with_fault_plan(Some(plan_for(scenario)))
                .with_retry_policy(retry());
            let mut twin = ClusterSystem::new_replicated(config, num_shards, replication).unwrap();
            faulted.deploy_flat(&vectors, &documents).unwrap();
            twin.deploy_flat(&vectors, &documents).unwrap();
            let mirrors = shard_mirrors(&faulted, &vectors, &documents);

            // Kill scenarios need enough queries for every seeded
            // `nth_call < 32` to be reached and retried through — and a
            // replica only starts consuming calls once the replicas ahead
            // of it in failover order are down, so the budgets add up.
            let queries = if scenario.kills.is_empty() {
                6
            } else {
                6 + scenario
                    .kills
                    .iter()
                    .map(|&(_, nth_call)| nth_call as u32 + 2)
                    .sum::<u32>()
            };
            let mut degraded_seen = false;
            for q in 0..queries {
                let query = vector_for(7_000 + q, 53);
                let ctx = format!("s={num_shards} r={replication} scenario={s} q={q}");
                let full = check_faulted_query(
                    &mut faulted,
                    &mut twin,
                    &mirrors,
                    &template,
                    &query,
                    "fault_covering",
                    &ctx,
                );
                degraded_seen |= !full;
            }
            if scenario.kills_whole_group(replication) {
                assert!(
                    degraded_seen,
                    "whole-group kill must degrade: s={num_shards} r={replication} scenario={s}"
                );
            }
            if s == 0 {
                assert!(
                    !degraded_seen,
                    "the healthy baseline must never degrade: s={num_shards} r={replication}"
                );
            }
        }
    }
}

/// Replication buys availability: under the same seeded transient fault
/// rates and one permanent kill of leaf 0 a quarter of the way in, three
/// replicas answer at full coverage at least as often as one at every rate —
/// and at rate 0, where the kill is the only fault, R = 1 loses the shard
/// while R = 3 fails over and never degrades.
#[test]
fn replication_never_costs_availability_and_absorbs_a_kill() {
    let (vectors, documents) = corpus(36);
    let queries: Vec<Vec<f32>> = (0..16u32).map(|q| vector_for(8_200 + q, 71)).collect();
    let fail_rates_ppm = [0u32, 10_000, 50_000, 100_000, 200_000];
    let covered = |replication: usize, rate_idx: usize| {
        let fail_ppm = fail_rates_ppm[rate_idx];
        let seed = 0xFA17_0B5E ^ ((replication as u64) << 32) ^ rate_idx as u64;
        let plan = FaultPlan::new(seed, fail_ppm, fail_ppm / 2).with_kill(0, 4);
        let mut cluster = ClusterSystem::new_replicated(ReisConfig::tiny(), 3, replication)
            .unwrap()
            .with_fault_plan(Some(plan))
            .with_retry_policy(retry());
        cluster.deploy_flat(&vectors, &documents).unwrap();
        queries
            .iter()
            .filter(|query| cluster.search(query, 5).unwrap().is_full_coverage())
            .count()
    };
    let coverage: Vec<(usize, usize)> = (0..fail_rates_ppm.len())
        .map(|rate_idx| (covered(1, rate_idx), covered(3, rate_idx)))
        .collect();
    for (fail_ppm, (r1, r3)) in fail_rates_ppm.iter().zip(&coverage) {
        assert!(
            r3 >= r1,
            "{fail_ppm} ppm: {r3} of 16 covered at R = 3 against {r1} at R = 1"
        );
    }
    assert_eq!(
        coverage[0],
        (4, queries.len()),
        "R = 1 answers in full until the kill, R = 3 absorbs it"
    );
}

/// Deterministic failover walk at replication 2: a killed primary fails
/// over without touching the answer, mutations keep only the live
/// replicas moving (the down one goes stale, CRC-visibly), and rejoin
/// replays the aggregator log back into exact lockstep.
#[test]
fn failover_mutation_and_rejoin_restore_replica_lockstep() {
    let entries = 18;
    let (num_shards, replication) = (3, 2);
    let (vectors, documents) = corpus(entries);
    let config = ReisConfig::tiny().with_compaction(CompactionPolicy::manual());

    // Kill leaf 2 — shard 1's primary — at its second call.
    let mut faulted = ClusterSystem::new_replicated(config, num_shards, replication)
        .unwrap()
        .with_fault_plan(Some(FaultPlan::healthy().with_kill(2, 1)))
        .with_retry_policy(RetryPolicy::new(
            0,
            Nanos::from_micros(40),
            Nanos::from_micros(900),
        ));
    let mut twin = ClusterSystem::new_replicated(config, num_shards, replication).unwrap();
    faulted.deploy_flat(&vectors, &documents).unwrap();
    twin.deploy_flat(&vectors, &documents).unwrap();
    let template = VectorDatabase::flat(&vectors, documents.clone()).unwrap();
    let mirrors = shard_mirrors(&faulted, &vectors, &documents);

    let check = |faulted: &mut ClusterSystem, twin: &mut ClusterSystem, q: u32, ctx: &str| {
        let query = vector_for(8_000 + q, 59);
        let full = check_faulted_query(
            faulted,
            twin,
            &mirrors,
            &template,
            &query,
            "fault_failover",
            ctx,
        );
        assert!(full, "failover keeps coverage full: {ctx}");
    };

    check(&mut faulted, &mut twin, 0, "pre-kill q0");
    assert_eq!(faulted.leaf_health(2), HealthState::Healthy);
    check(&mut faulted, &mut twin, 1, "kill fires q1");
    assert_eq!(
        faulted.leaf_health(2),
        HealthState::Down,
        "primary went down"
    );
    assert_eq!(faulted.down_leaves(), vec![2]);

    // Mutations while leaf 2 is down: applied to the live replicas of
    // each owning shard, retained in the aggregator log for the rejoin.
    let a = faulted
        .insert(&vector_for(900, 1), doc_for(900, 1))
        .unwrap();
    let b = twin.insert(&vector_for(900, 1), doc_for(900, 1)).unwrap();
    assert_eq!(a, b);
    faulted.delete(7).unwrap();
    twin.delete(7).unwrap();
    faulted
        .upsert(13, &vector_for(13, 77), &doc_for(13, 2))
        .unwrap();
    twin.upsert(13, &vector_for(13, 77), &doc_for(13, 2))
        .unwrap();
    faulted.compact().unwrap();
    twin.compact().unwrap();
    assert_eq!(
        faulted.aggregator_log_len(),
        4,
        "insert+delete+upsert+compact retained"
    );

    // The down replica is visibly stale; its healthy peer is not.
    let crcs = faulted.shard_state_crcs(1).unwrap();
    assert_ne!(crcs[0], crcs[1], "stale replica must differ until rejoin");
    for shard in [0usize, 2] {
        let crcs = faulted.shard_state_crcs(shard).unwrap();
        assert_eq!(
            crcs[0], crcs[1],
            "untouched group {shard} stays in lockstep"
        );
    }

    // Rejoin: replay the log, lift the kill, re-enter lockstep.
    faulted.rejoin_leaf(2).unwrap();
    assert_eq!(faulted.leaf_health(2), HealthState::Recovered);
    assert_eq!(faulted.aggregator_log_len(), 0);
    for shard in 0..num_shards {
        let crcs = faulted.shard_state_crcs(shard).unwrap();
        assert_eq!(crcs[0], crcs[1], "group {shard} in lockstep after rejoin");
        assert_eq!(
            crcs,
            twin.shard_state_crcs(shard).unwrap(),
            "matches the twin"
        );
    }
    check(&mut faulted, &mut twin, 2, "post-rejoin q2");
    assert_eq!(
        faulted.leaf_health(2),
        HealthState::Healthy,
        "a successful call promotes the recovered leaf"
    );

    // Rejoining a live leaf is an error, not a silent no-op.
    assert!(faulted.rejoin_leaf(2).is_err());
}

/// A shard whose only replica is dead refuses mutations with
/// [`ReisError::Unavailable`] — without minting ids — while searches keep
/// serving the covered shards and the dead shard rejoins cleanly.
#[test]
fn dead_shard_refuses_mutations_without_burning_ids() {
    let entries = 18;
    let (vectors, documents) = corpus(entries);
    let config = ReisConfig::tiny();
    let template = VectorDatabase::flat(&vectors, documents.clone()).unwrap();

    let mut faulted = ClusterSystem::new(config, 3)
        .unwrap()
        .with_fault_plan(Some(FaultPlan::healthy().with_kill(1, 0)))
        .with_retry_policy(RetryPolicy::new(
            0,
            Nanos::from_micros(40),
            Nanos::from_micros(900),
        ));
    let mut twin = ClusterSystem::new(config, 3).unwrap();
    faulted.deploy_flat(&vectors, &documents).unwrap();
    twin.deploy_flat(&vectors, &documents).unwrap();
    let mut mirrors = shard_mirrors(&faulted, &vectors, &documents);

    // First query takes the killed leaf down; the answer degrades to the
    // two covered shards.
    let full = check_faulted_query(
        &mut faulted,
        &mut twin,
        &mirrors,
        &template,
        &vector_for(9_000, 61),
        "fault_dead_shard",
        "kill q0",
    );
    assert!(!full, "an R = 1 kill must degrade its shard");
    assert_eq!(faulted.down_leaves(), vec![1]);

    // Mutations addressed to the dead shard are refused with the leaf
    // named; ids 6..12 are shard 1's deploy-time slice.
    match faulted.delete(10) {
        Err(ReisError::Unavailable { leaf, .. }) => assert_eq!(leaf, 1),
        other => panic!("delete of a dead shard must be unavailable, got {other:?}"),
    }
    match faulted.upsert(6, &vector_for(6, 5), &doc_for(6, 9)) {
        Err(ReisError::Unavailable { leaf, .. }) => assert_eq!(leaf, 1),
        other => panic!("upsert of a dead shard must be unavailable, got {other:?}"),
    }

    // A batch whose round-robin ids would touch the dead shard is refused
    // *before* any id is minted: the watermark does not move.
    assert_eq!(faulted.router().next_global(), entries as u32);
    let batch_vectors: Vec<Vec<f32>> = (0..3).map(|i| vector_for(950 + i, 3)).collect();
    let batch_docs: Vec<Vec<u8>> = (0..3).map(|i| doc_for(950 + i, 1)).collect();
    assert!(matches!(
        faulted.insert_batch(&batch_vectors, batch_docs),
        Err(ReisError::Unavailable { leaf: 1, .. })
    ));
    assert_eq!(
        faulted.router().next_global(),
        entries as u32,
        "a refused batch mints no ids"
    );

    // Mutations to live shards proceed and stay in lockstep with the twin
    // (id 18 routes round-robin to shard 0).
    faulted.delete(0).unwrap();
    twin.delete(0).unwrap();
    mirrors[0].remove(0);
    let id = faulted
        .insert(&vector_for(960, 2), doc_for(960, 1))
        .unwrap()
        .ids[0];
    assert_eq!(
        id,
        twin.insert(&vector_for(960, 2), doc_for(960, 1))
            .unwrap()
            .ids[0]
    );
    assert_eq!(faulted.router().owner(id), 0);
    mirrors[0].append(id, vector_for(960, 2), doc_for(960, 1));

    // The degraded identity still holds after the mutations.
    let full = check_faulted_query(
        &mut faulted,
        &mut twin,
        &mirrors,
        &template,
        &vector_for(9_001, 61),
        "fault_dead_shard",
        "mutated q1",
    );
    assert!(!full);

    // Rejoin restores full coverage and bit-identity (the dead shard
    // missed nothing of its own; the log replays only its records).
    faulted.rejoin_leaf(1).unwrap();
    let full = check_faulted_query(
        &mut faulted,
        &mut twin,
        &mirrors,
        &template,
        &vector_for(9_002, 61),
        "fault_dead_shard",
        "rejoined q2",
    );
    assert!(full, "rejoin restores full coverage");
    let id = faulted
        .insert(&vector_for(970, 4), doc_for(970, 1))
        .unwrap()
        .ids[0];
    assert_eq!(
        faulted.router().owner(id),
        1,
        "the revived shard accepts inserts"
    );
}

/// Leaf and shard arguments past the end of the cluster are typed errors,
/// not panics: the per-shard CRC probe, both rejoin paths.
#[test]
fn out_of_range_leaf_and_shard_arguments_are_typed_errors() {
    let (vectors, documents) = corpus(12);
    let mut cluster = ClusterSystem::new_replicated(ReisConfig::tiny(), 2, 2).unwrap();
    cluster.deploy_flat(&vectors, &documents).unwrap();
    let out_of_range = |result: Result<(), ReisError>, what: &str| match result {
        Err(ReisError::MalformedDatabase(message)) => {
            assert!(message.contains("out of range"), "{what}: {message}")
        }
        other => panic!("{what}: expected an out-of-range error, got {other:?}"),
    };
    assert_eq!(cluster.shard_state_crcs(1).unwrap().len(), 2);
    out_of_range(
        cluster.shard_state_crcs(cluster.num_shards()).map(drop),
        "shard_state_crcs",
    );
    let leaves = cluster.num_leaves();
    out_of_range(cluster.rejoin_leaf(leaves), "rejoin_leaf");
    let store = DurableStore::new(Box::new(MemVfs::new()));
    out_of_range(cluster.reload_leaf(leaves, store).map(drop), "reload_leaf");
}

/// Per-leaf stores for a durable cluster plus the manifest VFS.
fn durable_parts(leaves: usize) -> (Vec<MemVfs>, Vec<DurableStore>, MemVfs) {
    let mems: Vec<MemVfs> = (0..leaves).map(|_| MemVfs::new()).collect();
    let stores = mems
        .iter()
        .map(|mem| DurableStore::new(Box::new(mem.clone())))
        .collect();
    let manifest = MemVfs::new();
    (mems, stores, manifest)
}

/// A down leaf rejoins from its *durable* epoch: single-device recovery
/// from its own store, then aggregator-log catch-up, back into CRC
/// lockstep — and the whole cluster round-trips through save/reopen with
/// the replication factor in the manifest and clean quarantine counts.
#[test]
fn downed_leaf_reloads_from_its_durable_store_and_catches_up() {
    let entries = 20;
    let (num_shards, replication) = (2, 2);
    let (vectors, documents) = corpus(entries);
    let config = ReisConfig::tiny().with_compaction(CompactionPolicy::manual());

    let (mems, stores, manifest) = durable_parts(num_shards * replication);
    let (cluster, report) =
        ClusterSystem::open_replicated(config, stores, Box::new(manifest.clone()), replication)
            .unwrap();
    assert!(report.is_none(), "fresh stores have nothing to recover");
    let mut cluster = cluster
        .with_fault_plan(Some(FaultPlan::healthy().with_kill(0, 0)))
        .with_retry_policy(RetryPolicy::new(
            0,
            Nanos::from_micros(40),
            Nanos::from_micros(900),
        ));
    cluster.deploy_flat(&vectors, &documents).unwrap();
    assert_eq!(cluster.save().unwrap(), 1);

    let mut twin = ClusterSystem::new_replicated(config, num_shards, replication).unwrap();
    twin.deploy_flat(&vectors, &documents).unwrap();

    // The kill fires on the first fan-out; shard 0 fails over to leaf 1.
    let a = cluster.search(&vector_for(400, 7), 5).unwrap();
    let b = twin.search(&vector_for(400, 7), 5).unwrap();
    assert!(a.is_full_coverage(), "replication hides the kill");
    assert_eq!(a.results, b.results);
    assert_eq!(cluster.down_leaves(), vec![0]);

    // Mutations while leaf 0 is down — its durable store stays at the
    // saved epoch; everyone live logs WAL frames as usual.
    let id = cluster
        .insert(&vector_for(980, 6), doc_for(980, 1))
        .unwrap()
        .ids[0];
    assert_eq!(
        id,
        twin.insert(&vector_for(980, 6), doc_for(980, 1))
            .unwrap()
            .ids[0]
    );
    assert_eq!(
        cluster.router().owner(id),
        0,
        "the insert lands on the degraded group"
    );
    cluster.delete(1).unwrap();
    twin.delete(1).unwrap();
    cluster
        .upsert(12, &vector_for(12, 88), &doc_for(12, 2))
        .unwrap();
    twin.upsert(12, &vector_for(12, 88), &doc_for(12, 2))
        .unwrap();
    cluster.compact().unwrap();
    twin.compact().unwrap();
    assert_eq!(cluster.aggregator_log_len(), 4);

    // Save skips the down leaf (its store must stay a consistent prefix).
    assert_eq!(cluster.save().unwrap(), 2);

    // Reload leaf 0 from its durable store: recovery reconstructs its
    // pre-down state, catch-up replays the missed shard-0 mutations.
    let report = cluster
        .reload_leaf(0, DurableStore::new(Box::new(mems[0].clone())))
        .unwrap();
    assert_eq!(
        report.quarantine_count(),
        0,
        "a clean store quarantines nothing"
    );
    assert_eq!(cluster.leaf_health(0), HealthState::Recovered);
    assert_eq!(cluster.aggregator_log_len(), 0);
    for shard in 0..num_shards {
        let crcs = cluster.shard_state_crcs(shard).unwrap();
        assert_eq!(crcs[0], crcs[1], "group {shard} in lockstep after reload");
        assert_eq!(crcs, twin.shard_state_crcs(shard).unwrap());
    }
    for q in 0..3u32 {
        let query = vector_for(420 + q, 7);
        let a = cluster.search(&query, 5).unwrap();
        let b = twin.search(&query, 5).unwrap();
        assert!(a.is_full_coverage());
        assert_eq!(
            a.results, b.results,
            "reloaded cluster answers like the twin"
        );
        assert_eq!(a.documents, b.documents);
        assert_eq!(a.activity, b.activity);
    }

    // A post-save scrub over every (now live) leaf passes clean.
    cluster.set_scrub_on_save(true);
    assert_eq!(cluster.save().unwrap(), 3);

    // Full cluster reopen: the manifest carries the replication factor,
    // recovery reports one clean leaf report per store.
    drop(cluster);
    let stores: Vec<DurableStore> = mems
        .iter()
        .map(|mem| DurableStore::new(Box::new(mem.clone())))
        .collect();
    let (mut reopened, report) =
        ClusterSystem::open(config, stores, Box::new(manifest.clone())).unwrap();
    let report = report.expect("manifest present, recovery runs");
    assert_eq!(report.epoch, 3);
    assert_eq!(
        report.quarantine_counts(),
        vec![0; num_shards * replication]
    );
    assert_eq!(reopened.replication(), replication);
    assert_eq!(reopened.num_shards(), num_shards);
    for q in 0..2u32 {
        let query = vector_for(420 + q, 7);
        let a = reopened.search(&query, 5).unwrap();
        let b = twin.search(&query, 5).unwrap();
        assert_eq!(
            a.results, b.results,
            "reopened cluster answers like the twin"
        );
        assert_eq!(a.documents, b.documents);
    }

    // Opening with a contradicting factor is rejected by the manifest.
    drop(reopened);
    let stores: Vec<DurableStore> = mems
        .iter()
        .map(|mem| DurableStore::new(Box::new(mem.clone())))
        .collect();
    assert!(
        ClusterSystem::open_replicated(config, stores, Box::new(manifest.clone()), 1).is_err(),
        "manifest records replication 2; requesting 1 must fail"
    );
}

/// `ClusterSystem::scrub` finds a flipped byte in any leaf's durable
/// epochs, and `set_scrub_on_save` turns that detection into a failed
/// save.
#[test]
fn scrub_finds_leaf_corruption_and_gates_save() {
    let entries = 16;
    let (vectors, documents) = corpus(entries);
    let config = ReisConfig::tiny();

    let (mems, stores, manifest) = durable_parts(2);
    let (mut cluster, _) = ClusterSystem::open(config, stores, Box::new(manifest.clone())).unwrap();
    cluster.deploy_flat(&vectors, &documents).unwrap();
    cluster
        .insert(&vector_for(990, 2), doc_for(990, 1))
        .unwrap();
    cluster.save().unwrap();

    let reports = cluster.scrub().unwrap();
    assert_eq!(reports.len(), 2);
    assert!(
        reports.iter().all(|r| r.is_clean()),
        "freshly saved stores are clean"
    );
    assert!(reports.iter().all(|r| r.snapshots_checked > 0));

    // Flip one byte in leaf 1's newest snapshot.
    let inspect = DurableStore::new(Box::new(mems[1].clone()));
    let newest = inspect.snapshot_seqs_desc().unwrap()[0];
    let name = DurableStore::snapshot_name(newest);
    let mut bytes = mems[1].read_file(&name).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    mems[1].write_file(&name, &bytes).unwrap();

    let reports = cluster.scrub().unwrap();
    assert!(reports[0].is_clean(), "leaf 0 is untouched");
    assert_eq!(reports[1].corrupt_snapshots, vec![newest]);
    assert_eq!(reports[1].corrupt_artifacts(), 1);

    // With the post-save scrub armed, the corruption fails the save; the
    // error names the leaf.
    cluster.set_scrub_on_save(true);
    let err = cluster.save().unwrap_err();
    assert!(
        err.to_string().contains("leaf 1"),
        "scrub failure must name the corrupt leaf: {err}"
    );

    // Without it, saving still succeeds — scrubbing is an opt-in gate —
    // and the next save's pruning retires the corrupt epoch.
    cluster.set_scrub_on_save(false);
    cluster.save().unwrap();
    cluster.set_scrub_on_save(true);
    cluster.save().unwrap();
}

/// Fault schedules are replayable: the same seeded plan yields the same
/// outcomes — modelled latencies, penalties and backoffs included — and a
/// zero-rate plan is indistinguishable from running with no plan at all
/// (the retry machinery is free on the healthy path).
#[test]
fn fault_schedules_replay_bit_identically() {
    let entries = 24;
    let (vectors, documents) = corpus(entries);
    let config = ReisConfig::tiny();
    let queries: Vec<Vec<f32>> = (0..8u32).map(|q| vector_for(9_500 + q, 67)).collect();

    let run = |plan: Option<FaultPlan>| {
        let mut cluster = ClusterSystem::new_replicated(config, 3, 2)
            .unwrap()
            .with_fault_plan(plan)
            .with_retry_policy(retry());
        cluster.deploy_flat(&vectors, &documents).unwrap();
        queries
            .iter()
            .map(|q| cluster.search(q, 5).unwrap())
            .collect::<Vec<_>>()
    };

    let plan = FaultPlan::new(0xFA11, 150_000, 80_000).with_kill(4, 3);
    let first = run(Some(plan.clone()));
    let second = run(Some(plan));
    assert_eq!(first, second, "the same plan must replay the same outcomes");
    assert!(
        first.iter().any(|o| o.fanout_latency > Nanos::ZERO),
        "the schedule actually ran fan-outs"
    );

    let healthy = run(Some(FaultPlan::healthy()));
    let bare = run(None);
    assert_eq!(
        healthy, bare,
        "a zero-rate plan must be bit-identical to no plan, latencies included"
    );
}
