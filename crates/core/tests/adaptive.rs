//! Partition invariance of the windowed adaptive distance filter.
//!
//! The adaptive threshold schedule tightens only at fixed page-count window
//! barriers of a scan's deterministic page list, so an adapting scan must
//! produce bit-identical results, documents, modelled latency/activity *and
//! transferred-entry counts* across `ScanParallelism::{sequential, sharded}`
//! and batch sizes, on every machine, including over
//! mutated and compacted indexes. This suite proves that with targeted
//! window-barrier edge cases plus a randomized cross-mode identity
//! property.
//!
//! # The CI determinism gate
//!
//! When `REIS_TEST_SUMMARY_DIR` is set, the property tests additionally
//! write one summary file per test — one line per generated case, carrying
//! the transferred-entry counts, barrier counts and the *physical* sense
//! count of the fused batch. CI runs this suite twice with
//! `REIS_TEST_PARALLELISM=1` and `=4` (which pins the auto-shard budget the
//! way different host core counts would) under a high `PROPTEST_CASES`
//! count and diffs the two directories: any machine-variant accounting
//! fails the gate. The identity property makes the diff *sensitive* by
//! running one leg whose shard count is the forced budget itself (with a
//! 1-page shard minimum, so the budget genuinely changes how every pass
//! is partitioned): the two gate runs execute different partitionings, and
//! only true partition invariance makes their summaries byte-identical.

use std::sync::Mutex;

use proptest::prelude::*;

use reis_core::{
    AdaptiveFiltering, CompactionPolicy, CounterId, ExplainEvent, HistogramId, HistogramSnapshot,
    ReisConfig, ReisSystem, ScanParallelism, SearchOutcome, VectorDatabase,
};

mod support;
use support::record_summary;

fn vectors(n: usize, dim: usize, salt: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| (((i * 19 + d * 7 + salt * 3) % 31) as f32 - 15.0) / 6.0)
                .collect()
        })
        .collect()
}

fn documents(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("doc {i}").into_bytes()).collect()
}

/// Full-outcome equality modulo the raw error-injection counter (the
/// device RNG's position depends on the history of TLC reads, not on how
/// the compared scan was partitioned — the same exemption the fused and
/// batch suites document).
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

/// The parallelism modes an adaptive scan must agree across. The per-shard
/// page minimum is 1 so sharding genuinely engages on every pass of the
/// small test scans (the default 16-page minimum would keep them
/// sequential — a deliberate spawn-amortization guard, not a correctness
/// one).
fn mode_configs(base: ReisConfig, shards: usize) -> [(&'static str, ReisConfig); 2] {
    [
        (
            "sequential",
            base.with_scan_parallelism(ScanParallelism::sequential()),
        ),
        (
            "sharded",
            base.with_scan_parallelism(
                ScanParallelism::sharded(shards.max(2)).with_min_pages_per_shard(1),
            ),
        ),
    ]
}

/// The forced auto-shard budget of the determinism gate
/// (`REIS_TEST_PARALLELISM`), or `fallback` when unset. The identity
/// property runs one leg at exactly this budget with a 1-page shard
/// minimum, so the two gate runs (budget 1 vs 4) execute *genuinely
/// different partitionings* of the same windowed schedule — if windowed
/// partition invariance broke, their transferred-entry summaries would
/// diverge and the gate's diff would fail.
fn forced_budget(fallback: usize) -> usize {
    std::env::var("REIS_TEST_PARALLELISM")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(fallback)
}

#[test]
fn window_larger_than_the_scan_never_tightens() {
    // A window that the whole page list fits into has no barrier, so the
    // adaptive scan is the static scan: same entries, zero windows.
    let all = vectors(150, 64, 0);
    let db = VectorDatabase::flat(&all, documents(150)).unwrap();
    let mut huge = ReisSystem::new(
        ReisConfig::tiny()
            .with_adaptive_filtering(true)
            .with_adaptive_window(100_000),
    );
    let huge_id = huge.deploy(&db).unwrap();
    let mut static_system = ReisSystem::new(ReisConfig::tiny().with_adaptive_filtering(false));
    let static_id = static_system.deploy(&db).unwrap();
    let query = &all[42];
    let a = huge.search(huge_id, query, 5).unwrap();
    let b = static_system.search(static_id, query, 5).unwrap();
    assert_eq!(a.results, b.results);
    assert_eq!(a.activity.fine_entries, b.activity.fine_entries);
    assert_eq!(a.activity.fine_windows, 0);
    assert_eq!(b.activity.fine_windows, 0);
}

#[test]
fn window_of_one_reproduces_the_per_page_schedule() {
    // Window 1 is the historical tighten-after-every-page schedule: one
    // barrier per fine page, the tightest (fewest-transfer) schedule of
    // all, still returning the exact top-k.
    let all = vectors(150, 64, 1);
    let db = VectorDatabase::flat(&all, documents(150)).unwrap();
    let mut w1 = ReisSystem::new(
        ReisConfig::tiny()
            .with_adaptive_filtering(true)
            .with_adaptive_window(1),
    );
    let w1_id = w1.deploy(&db).unwrap();
    let mut w4 = ReisSystem::new(
        ReisConfig::tiny()
            .with_adaptive_filtering(true)
            .with_adaptive_window(4),
    );
    let w4_id = w4.deploy(&db).unwrap();
    let mut static_system = ReisSystem::new(ReisConfig::tiny().with_adaptive_filtering(false));
    let static_id = static_system.deploy(&db).unwrap();

    // k = 1 keeps the candidate set small (rerank_factor x 1), so the
    // Temporal Top List fills fast enough for barriers to actually bite on
    // this small corpus.
    let query = &all[17];
    let a = w1.search(w1_id, query, 1).unwrap();
    let b = w4.search(w4_id, query, 1).unwrap();
    let c = static_system.search(static_id, query, 1).unwrap();
    assert_eq!(a.results, c.results);
    assert_eq!(b.results, c.results);
    // One barrier per fine page under window 1.
    assert_eq!(a.activity.fine_windows, a.activity.fine_pages);
    // Denser barriers can only tighten sooner: the admitted-entry counts
    // are monotone in the window size (static == no barriers at all).
    assert!(a.activity.fine_entries <= b.activity.fine_entries);
    assert!(b.activity.fine_entries <= c.activity.fine_entries);
    assert!(
        a.activity.fine_entries < c.activity.fine_entries,
        "window 1 must actually cut transfers on a multi-page scan"
    );
}

#[test]
fn segment_run_shorter_than_a_window_straddles_the_barrier() {
    // Inserts land in segment runs of a single page — shorter than the
    // 4-page window — so windows straddle the base/segment boundary and
    // run boundaries. All modes must still agree bit-identically.
    let base = ReisConfig::tiny()
        .with_adaptive_scope(AdaptiveFiltering::All)
        .with_adaptive_window(4)
        .with_compaction(CompactionPolicy::manual());
    let all = vectors(96, 64, 2);
    let db = VectorDatabase::ivf(&all, documents(96), 4).unwrap();
    let fresh = vectors(6, 64, 7);

    let mut outcomes: Vec<(String, Vec<SearchOutcome>)> = Vec::new();
    for (name, config) in mode_configs(base, 4) {
        let mut system = ReisSystem::new(config);
        let id = system.deploy(&db).unwrap();
        for (i, v) in fresh.iter().enumerate() {
            system
                .insert(id, v, format!("fresh {i}").into_bytes())
                .unwrap();
        }
        system.delete(id, 11).unwrap();
        let mut per_query: Vec<SearchOutcome> = Vec::new();
        for q in 0..3 {
            per_query.push(system.search(id, &all[q * 31], 5).unwrap());
        }
        for q in 0..3 {
            per_query.push(
                system
                    .ivf_search_with_nprobe(id, &all[q * 31], 5, 2)
                    .unwrap(),
            );
        }
        outcomes.push((name.to_string(), per_query));
    }
    let (ref_name, reference) = &outcomes[0];
    for (name, got) in &outcomes[1..] {
        for (i, (a, b)) in reference.iter().zip(got).enumerate() {
            assert_outcome_eq(a, b, &format!("{ref_name} vs {name}, query {i}"));
        }
    }
    // The run really is shorter than the window: segment pages exist and
    // at least one window barrier fired beyond the base region.
    assert!(reference[0].activity.fine_windows > 0);
}

#[test]
fn post_compaction_generation_swap_mid_window() {
    // Compaction rewrites the survivors into a new region generation whose
    // page count rarely divides the window, so the windowed schedule runs
    // against a swapped base region with a trailing partial window. Modes
    // must agree before and after the swap, and the compacted index must
    // return the same documents the dirty index did.
    let base = ReisConfig::tiny()
        .with_adaptive_scope(AdaptiveFiltering::All)
        .with_adaptive_window(3)
        .with_compaction(CompactionPolicy::manual());
    let all = vectors(96, 64, 3);
    let db = VectorDatabase::ivf(&all, documents(96), 4).unwrap();
    let fresh = vectors(5, 64, 9);

    let mut dirty: Vec<Vec<SearchOutcome>> = Vec::new();
    let mut compacted: Vec<Vec<SearchOutcome>> = Vec::new();
    for (_, config) in mode_configs(base, 3) {
        let mut system = ReisSystem::new(config);
        let id = system.deploy(&db).unwrap();
        for (i, v) in fresh.iter().enumerate() {
            system
                .insert(id, v, format!("late {i}").into_bytes())
                .unwrap();
        }
        system.delete(id, 23).unwrap();
        system.upsert(id, 40, &fresh[2], b"rewritten").unwrap();
        let queries: Vec<&Vec<f32>> = (0..3).map(|q| &all[q * 29]).collect();
        dirty.push(
            queries
                .iter()
                .map(|q| system.search(id, q, 5).unwrap())
                .collect(),
        );
        system.compact(id).unwrap();
        compacted.push(
            queries
                .iter()
                .map(|q| system.search(id, q, 5).unwrap())
                .collect(),
        );
    }
    for (i, (a, b)) in dirty[0].iter().zip(&dirty[1]).enumerate() {
        assert_outcome_eq(a, b, &format!("dirty, query {i}"));
    }
    for (i, (a, b)) in compacted[0].iter().zip(&compacted[1]).enumerate() {
        assert_outcome_eq(a, b, &format!("compacted, query {i}"));
    }
    // Compaction must not change what a query returns, only what it costs.
    for (i, (a, b)) in dirty[0].iter().zip(&compacted[0]).enumerate() {
        assert_eq!(a.results, b.results, "dirty vs compacted, query {i}");
        assert_eq!(a.documents, b.documents, "dirty vs compacted, query {i}");
    }
}

#[test]
fn fused_adaptive_batch_matches_sequential_and_amortizes_senses() {
    // A batch runs the same windowed schedule per query, so a
    // default-config (adaptive brute-force) batch is bit-identical per
    // query to sequential search while sensing shared pages once.
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let all = vectors(150, 64, 4);
    let db = VectorDatabase::flat(&all, documents(150)).unwrap();
    let id = system.deploy(&db).unwrap();
    let queries: Vec<Vec<f32>> = (0..5).map(|q| all[q * 17].clone()).collect();
    let sequential: Vec<SearchOutcome> = queries
        .iter()
        .map(|q| system.search(id, q, 5).unwrap())
        .collect();
    assert!(
        sequential[0].activity.fine_windows > 0,
        "the default config must actually run the windowed schedule here"
    );
    let before = *system.controller().device().stats();
    let batch = system.search_batch(id, &queries, 5, 4).unwrap();
    let delta = system.controller().device().stats().delta_since(&before);
    for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
        assert_outcome_eq(b, s, &format!("fused adaptive vs sequential, query {i}"));
    }
    let per_query: u64 = batch.iter().map(|o| o.flash_stats.page_reads).sum();
    assert!(
        delta.page_reads < per_query,
        "fused adaptive batch sensed {} pages, per-query accounting says {}",
        delta.page_reads,
        per_query
    );
}

/// The shard counts and pool sizes a windowed scan's replay must not see.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const POOL_SIZES: [usize; 2] = [1, 4];

/// A system of `config` on a worker pool of `workers` threads. The pool is
/// sized from `REIS_SCHED_WORKERS` once, at construction, so the variable
/// is set around `ReisSystem::new` alone; the lock keeps two such
/// constructions from interleaving. A system the suite's other tests build
/// meanwhile may pick the size up too, which changes when its threads run
/// and nothing else.
fn system_on_pool(config: ReisConfig, workers: usize) -> ReisSystem {
    const POOL_SIZE: &str = "REIS_SCHED_WORKERS";
    static ENV: Mutex<()> = Mutex::new(());
    let _held = ENV.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let prior = std::env::var(POOL_SIZE).ok();
    std::env::set_var(POOL_SIZE, workers.to_string());
    let system = ReisSystem::new(config);
    match prior {
        Some(value) => std::env::set_var(POOL_SIZE, value),
        None => std::env::remove_var(POOL_SIZE),
    }
    assert!(
        format!("{:?}", system.scheduler()).contains(&format!("workers: {workers}")),
        "pool of {workers}"
    );
    system
}

/// What one run of a windowed search trace leaves behind: the outcomes,
/// the explain events of every single query, and after every call the
/// window telemetry (the entries counter and the per-window histogram).
#[derive(Default)]
struct Observed {
    outcomes: Vec<SearchOutcome>,
    explains: Vec<Vec<ExplainEvent>>,
    windows: Vec<(u64, HistogramSnapshot)>,
}

impl Observed {
    /// One query — brute force, or IVF at `nprobe` — with an explain trace
    /// armed.
    fn search(&mut self, system: &mut ReisSystem, id: u32, query: &[f32], nprobe: Option<usize>) {
        system.telemetry().arm_explain();
        let outcome = match nprobe {
            Some(nprobe) => system.ivf_search_with_nprobe(id, query, 1, nprobe),
            None => system.search(id, query, 1),
        }
        .expect("search");
        let explain = system.telemetry().last_explain().expect("armed explain");
        self.explains.push(explain.events);
        self.outcomes.push(outcome);
        self.record_windows(system);
    }

    /// Every query's outcome of one batch.
    fn batch(&mut self, system: &mut ReisSystem, outcomes: Vec<SearchOutcome>) {
        self.outcomes.extend(outcomes);
        self.record_windows(system);
    }

    fn record_windows(&mut self, system: &ReisSystem) {
        let telemetry = system.telemetry();
        self.windows.push((
            telemetry.counter(CounterId::WindowEntries),
            telemetry.histogram(HistogramId::WindowEntriesPerWindow),
        ));
    }
}

/// Run `trace` on a fresh telemetry-enabled system for every shard count
/// (1-page shard minimum, so every pass splits) at every pool size, and
/// assert that every run observes exactly what the first did. Returns the
/// first run's observation.
fn assert_partition_invariant(
    config: ReisConfig,
    mut trace: impl FnMut(&mut ReisSystem, &mut Observed),
) -> Observed {
    let mut runs: Vec<(String, Observed)> = Vec::new();
    for workers in POOL_SIZES {
        for shards in SHARD_COUNTS {
            let parallelism = ScanParallelism::sharded(shards).with_min_pages_per_shard(1);
            let mut system = system_on_pool(config.with_scan_parallelism(parallelism), workers);
            system.enable_telemetry();
            let mut observed = Observed::default();
            trace(&mut system, &mut observed);
            runs.push((format!("{shards} shards, pool {workers}"), observed));
        }
    }
    let (reference, expected) = runs.remove(0);
    for (name, got) in &runs {
        let ctx = format!("{reference} vs {name}");
        assert_eq!(expected.outcomes.len(), got.outcomes.len(), "{ctx}");
        for (i, (a, b)) in expected.outcomes.iter().zip(&got.outcomes).enumerate() {
            assert_outcome_eq(a, b, &format!("{ctx}, query {i}"));
        }
        assert_eq!(expected.explains, got.explains, "explain events: {ctx}");
        assert_eq!(expected.windows, got.windows, "window telemetry: {ctx}");
    }
    expected
}

#[test]
fn replayed_single_query_is_partition_invariant() {
    let all = vectors(180, 64, 5);
    let db = VectorDatabase::flat(&all, documents(180)).unwrap();
    let config = ReisConfig::tiny().with_adaptive_window(2);
    let observed = assert_partition_invariant(config, |system, observed| {
        let id = system.deploy(&db).unwrap();
        for q in [7, 90, 179] {
            observed.search(system, id, &all[q], None);
        }
    });
    let activity = &observed.outcomes[0].activity;
    assert!(activity.fine_pages >= 6, "{} pages", activity.fine_pages);
    assert_eq!(activity.fine_windows, activity.fine_pages / 2);
    assert!(observed.windows.last().unwrap().1.count > 0);
}

#[test]
fn replayed_batch_with_differing_selections_is_partition_invariant() {
    // Adapting IVF queries probe different clusters, so one base walk
    // serves queries whose page lists differ; the tombstones drop
    // recorded hits at admission.
    let config = ReisConfig::tiny()
        .with_adaptive_scope(AdaptiveFiltering::All)
        .with_adaptive_window(2)
        .with_compaction(CompactionPolicy::manual());
    let all = vectors(180, 64, 6);
    let db = VectorDatabase::ivf(&all, documents(180), 4).unwrap();
    let queries: Vec<Vec<f32>> = [3, 101, 162].iter().map(|&q| all[q].clone()).collect();
    let observed = assert_partition_invariant(config, |system, observed| {
        let id = system.deploy(&db).unwrap();
        for dead in [3, 40, 101, 130, 170] {
            system.delete(id, dead).unwrap();
        }
        let outcomes = system
            .ivf_search_batch_with_nprobe(id, &queries, 1, 2, 4)
            .unwrap();
        observed.batch(system, outcomes);
        for query in &queries {
            observed.search(system, id, query, Some(2));
        }
    });
    assert!(observed
        .outcomes
        .iter()
        .all(|o| o.activity.fine_windows > 0));
    // The single runs of the batch's queries name the pages each scanned.
    let pages: Vec<Vec<u32>> = observed
        .explains
        .iter()
        .map(|events| events.iter().map(|e| e.page).collect())
        .collect();
    assert!(
        pages.iter().any(|p| *p != pages[0]),
        "the selections differ: {pages:?}"
    );
}

#[test]
fn replayed_windows_carry_from_the_base_pass_into_the_segments() {
    let config = ReisConfig::tiny()
        .with_adaptive_window(3)
        .with_compaction(CompactionPolicy::manual());
    let all = vectors(180, 64, 8);
    let db = VectorDatabase::flat(&all, documents(180)).unwrap();
    let fresh = vectors(8, 64, 11);
    let mut base_pages = 0;
    let observed = assert_partition_invariant(config, |system, observed| {
        let id = system.deploy(&db).unwrap();
        base_pages = system.database(id).unwrap().layout.embedding_pages;
        for (i, v) in fresh.iter().enumerate() {
            system
                .insert(id, v, format!("fresh {i}").into_bytes())
                .unwrap();
        }
        system.delete(id, 12).unwrap();
        system.upsert(id, 77, &fresh[1], b"rewritten").unwrap();
        for q in [12, 77, 150] {
            observed.search(system, id, &all[q], None);
        }
        observed.search(system, id, &fresh[5], None);
    });
    assert_ne!(base_pages % 3, 0, "a window straddles the two passes");
    for outcome in &observed.outcomes {
        let activity = &outcome.activity;
        assert!(activity.fine_pages > base_pages, "segment pages scanned");
        assert_eq!(activity.fine_windows, activity.fine_pages / 3);
    }
}

proptest! {
    /// Adaptive scans are bit-identical across {sequential, sharded,
    /// batched} over random database shapes, window sizes and mutation
    /// traces — and the transferred-entry / sense counts land in the
    /// determinism-gate summary so CI can diff them across forced
    /// parallelism budgets.
    #[test]
    fn windowed_adaptive_identity_across_modes(
        entries in 24usize..72,
        dim_words in 1usize..3,
        window in 1usize..9,
        shards in 2usize..5,
        mutations in 0usize..8,
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
            (0..3).map(|q| all[(seed + q * 13) % entries].clone()).collect();
        let nprobe = nlist.min(2);

        // Replay the same deterministic mutation trace on every fresh
        // system so all modes search the identical index state.
        let mutate = |system: &mut ReisSystem, id: u32| {
            for m in 0..mutations {
                let x = (seed * 31 + m * 7) % 10;
                let vector: Vec<f32> = (0..dim)
                    .map(|d| (((m * 13 + d * 5 + seed) % 19) as f32 - 9.0) / 4.0)
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

        // The gate-sensitive leg: shard count pinned to the forced budget.
        // `sharded(1)` is `sequential`, so a budget-1 gate run and a
        // budget-4 run partition every pass differently — their summary
        // equality is exactly the machine-invariance claim.
        let budget_mode = (
            "budget-sharded",
            base.with_scan_parallelism(
                ScanParallelism::sharded(forced_budget(shards)).with_min_pages_per_shard(1),
            ),
        );
        let mut per_mode: Vec<(String, Vec<SearchOutcome>)> = Vec::new();
        for (name, config) in mode_configs(base, shards).into_iter().chain([budget_mode]) {
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
            per_mode.push((name.to_string(), outcomes));
        }
        let (_, reference) = &per_mode[0];
        for (name, got) in &per_mode[1..] {
            for (i, (a, b)) in reference.iter().zip(got).enumerate() {
                assert_outcome_eq(a, b, &format!("sequential vs {name}, query {i}"));
            }
        }

        // Batches on a third fresh system (with the default auto shard
        // budget — exactly what REIS_TEST_PARALLELISM pins in the
        // determinism gate).
        let mut fused = ReisSystem::new(base);
        let fused_id = fused.deploy(&db).expect("fused deploy");
        mutate(&mut fused, fused_id);
        assert_eq!(*fused.config(), base);
        let before = *fused.controller().device().stats();
        let bf_batch = fused
            .search_batch(fused_id, &queries, 1, shards)
            .expect("fused bf batch");
        let bf_senses = fused
            .controller()
            .device()
            .stats()
            .delta_since(&before)
            .page_reads;
        let before = *fused.controller().device().stats();
        let ivf_batch = fused
            .ivf_search_batch_with_nprobe(fused_id, &queries, 1, nprobe, shards)
            .expect("fused ivf batch");
        let ivf_senses = fused
            .controller()
            .device()
            .stats()
            .delta_since(&before)
            .page_reads;
        for (i, (b, s)) in bf_batch.iter().chain(&ivf_batch).zip(reference).enumerate() {
            assert_outcome_eq(b, s, &format!("fused batch vs sequential, query {i}"));
        }

        // Machine-invariance summary: every number here must be identical
        // no matter the host's core count or the forced shard budget.
        let entries_line: Vec<String> = reference
            .iter()
            .map(|o| format!("{}/{}", o.activity.fine_entries, o.activity.fine_windows))
            .collect();
        record_summary(
            "windowed_adaptive_identity_across_modes",
            &format!(
                "case window={window} shards={shards} entries={} mutations={mutations} \
                 per_query={} bf_senses={bf_senses} ivf_senses={ivf_senses}",
                entries,
                entries_line.join(","),
            ),
        );
    }

    /// The windowed adaptive filter still never loses the top-k and never
    /// transfers more than the static threshold, for any window size.
    #[test]
    fn windowed_adaptive_matches_static_topk(
        entries in 24usize..120,
        dim_words in 1usize..4,
        window in 1usize..17,
        query_seed in 0usize..1_000,
    ) {
        let dim = dim_words * 32;
        let all = vectors(entries, dim, query_seed);
        let db = VectorDatabase::flat(&all, documents(entries)).expect("database");
        let query = &all[query_seed % entries];

        let mut static_system =
            ReisSystem::new(ReisConfig::tiny().with_adaptive_filtering(false));
        let static_id = static_system.deploy(&db).expect("static deploy");
        let mut adaptive_system = ReisSystem::new(
            ReisConfig::tiny()
                .with_adaptive_filtering(true)
                .with_adaptive_window(window),
        );
        let adaptive_id = adaptive_system.deploy(&db).expect("adaptive deploy");

        let a = static_system.search(static_id, query, 1).expect("static");
        let b = adaptive_system.search(adaptive_id, query, 1).expect("adaptive");
        prop_assert_eq!(&a.results, &b.results, "top-k must be identical");
        prop_assert_eq!(&a.documents, &b.documents);
        prop_assert!(b.activity.fine_entries <= a.activity.fine_entries);
        prop_assert_eq!(b.activity.fine_windows, b.activity.fine_pages / window);
        record_summary(
            "windowed_adaptive_matches_static_topk",
            &format!(
                "case window={window} entries={} adaptive={}/{} static={}",
                entries, b.activity.fine_entries, b.activity.fine_windows, a.activity.fine_entries,
            ),
        );
    }
}
