//! Golden scan fixture: the answers of the sequential single-query scan
//! driver this repository started with, frozen as data.
//!
//! `fixtures/scan-golden-v1.txt` was generated through `ReisSystem::search`
//! / `ivf_search_with_nprobe` on that driver, pinned to one shard, right
//! before it was replaced by the scan core (`reis_core::scan`). Every way
//! into the core must still reproduce the file byte for byte: a single
//! search, a batch of one, a batch of three holding a duplicate query, at a
//! shard budget of 1 and of 4 — and `leaf_query` must report the same
//! activity counts on the statically filtered scenarios (leaves pin
//! adaptive filtering off).
//!
//! The scenario set crosses, on tiny geometry: flat and IVF deployments;
//! `AdaptiveFiltering::{Off, BruteForce, All}`; adaptive windows {1, 4,
//! longer than any scan}; and three index states — clean, after a seeded
//! insert/delete/upsert trace, and after compacting that trace.
//!
//! `fixtures/segment-fill-v1.txt` holds the same kind of answers, plus the
//! per-page explain events, over append-segment pages filled with every
//! slot count from one to a full page. It was generated right before pages
//! started to remember how many bytes were programmed into them — when a
//! scan still scored the zero padding of such a page — and pins that a scan
//! of the programmed bytes alone admits, counts and reports the same.
//!
//! A diff means the scan no longer computes what it used to. Regenerate
//! (`REIS_REGEN_FIXTURES=1 cargo test -p reis-core --test scan_golden`) only
//! for an intended change of the modelled behaviour, and say so in the PR.

use std::fmt::Write as _;
use std::path::PathBuf;

use reis_core::{
    AdaptiveFiltering, CompactionPolicy, ReisConfig, ReisSystem, ScanParallelism, SearchOutcome,
    VectorDatabase,
};

const DIM: usize = 64;
const NLIST: usize = 8;
const NPROBE: usize = 3;

fn fixture_path() -> PathBuf {
    fixture("scan-golden-v1.txt")
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Eight loose clusters with per-entry jitter, so IVF probing, distance
/// filtering and adaptive tightening all have something to cut.
fn vector_for(id: usize, salt: usize) -> Vec<f32> {
    let cluster = (id + salt) % NLIST;
    (0..DIM)
        .map(|d| {
            let center = (((cluster * 37 + d * 11) % 19) as f32 - 9.0) / 2.0;
            let jitter = (((id * 13 + d * 7 + salt * 5) % 23) as f32 - 11.0) / 9.0;
            center + jitter
        })
        .collect()
}

fn doc_for(id: usize, version: usize) -> Vec<u8> {
    format!("scan golden doc {id:04} v{version}").into_bytes()
}

#[derive(Clone, Copy, PartialEq)]
enum Corpus {
    Flat,
    Ivf,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Clean,
    Mutated,
    Compacted,
}

struct Scenario {
    name: String,
    corpus: Corpus,
    adaptive: AdaptiveFiltering,
    window: usize,
    state: State,
}

fn scenarios() -> Vec<Scenario> {
    let mut all = Vec::new();
    for (corpus, corpus_name) in [(Corpus::Flat, "flat"), (Corpus::Ivf, "ivf")] {
        for (adaptive, adaptive_name, windows) in [
            (AdaptiveFiltering::Off, "off", &[4usize][..]),
            (AdaptiveFiltering::BruteForce, "bf", &[1, 4, 100_000][..]),
            (AdaptiveFiltering::All, "all", &[1, 4, 100_000][..]),
        ] {
            for &window in windows {
                for (state, state_name) in [
                    (State::Clean, "clean"),
                    (State::Mutated, "mutated"),
                    (State::Compacted, "compacted"),
                ] {
                    all.push(Scenario {
                        name: format!("{corpus_name}/{adaptive_name}/w{window}/{state_name}"),
                        corpus,
                        adaptive,
                        window,
                        state,
                    });
                }
            }
        }
    }
    all
}

impl Scenario {
    fn entries(&self) -> usize {
        match self.corpus {
            Corpus::Flat => 90,
            Corpus::Ivf => 96,
        }
    }

    fn config(&self, parallelism: ScanParallelism) -> ReisConfig {
        ReisConfig::tiny()
            .with_adaptive_scope(self.adaptive)
            .with_adaptive_window(self.window)
            .with_compaction(CompactionPolicy::manual())
            .with_scan_parallelism(parallelism)
    }

    /// A fresh system holding this scenario's index state.
    fn build(&self, parallelism: ScanParallelism) -> (ReisSystem, u32) {
        let n = self.entries();
        let vectors: Vec<Vec<f32>> = (0..n).map(|id| vector_for(id, 0)).collect();
        let documents: Vec<Vec<u8>> = (0..n).map(|id| doc_for(id, 0)).collect();
        let database = match self.corpus {
            Corpus::Flat => VectorDatabase::flat(&vectors, documents),
            Corpus::Ivf => VectorDatabase::ivf(&vectors, documents, NLIST),
        }
        .expect("scenario database");
        let mut system = ReisSystem::new(self.config(parallelism));
        let db = system.deploy(&database).expect("deploy");
        if self.state != State::Clean {
            // The seeded trace: a splitmix-style stream picks the operation
            // and its target, the same on every run.
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
            for step in 0..18usize {
                x = x
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                let pick = (x >> 33) as usize;
                let target = pick % n;
                match pick % 5 {
                    0 | 1 => {
                        system
                            .insert(db, &vector_for(1_000 + step, 3), doc_for(1_000 + step, 1))
                            .expect("insert");
                    }
                    2 => {
                        // Deleting an already deleted id is part of the trace.
                        let _ = system.delete(db, target as u32);
                    }
                    _ => {
                        let _ = system.upsert(
                            db,
                            target as u32,
                            &vector_for(target, 2),
                            &doc_for(target, 2),
                        );
                    }
                }
            }
        }
        if self.state == State::Compacted {
            system.compact(db).expect("compact");
        }
        (system, db)
    }

    /// The scenario's requests: `(query, k, nprobe)`. Every deployment is
    /// searched brute-force; the IVF one also through `IVF_Search`.
    fn requests(&self) -> Vec<(Vec<f32>, usize, Option<usize>)> {
        let n = self.entries();
        let mut requests = Vec::new();
        for (i, id) in [5usize, 61, 118].into_iter().enumerate() {
            let k = if i % 2 == 0 { 1 } else { 5 };
            // One query is an indexed vector, the others sit between entries.
            let query = if i == 0 {
                vector_for(id % n, 0)
            } else {
                vector_for(id, 4)
            };
            requests.push((query.clone(), k, None));
            if self.corpus == Corpus::Ivf {
                requests.push((query, k, Some(NPROBE)));
            }
        }
        requests
    }
}

/// The fixture line of one answered request.
fn render(
    scenario: &str,
    index: usize,
    k: usize,
    nprobe: Option<usize>,
    o: &SearchOutcome,
) -> String {
    let mut line = String::new();
    let call = match nprobe {
        Some(nprobe) => format!("ivf{nprobe}"),
        None => "bf".to_string(),
    };
    write!(line, "{scenario} q{index} k{k} {call} ids=").unwrap();
    let ids: Vec<String> = o.results.iter().map(|n| n.id.to_string()).collect();
    let raw: Vec<String> = o
        .results
        .iter()
        .map(|n| (n.distance as i64).to_string())
        .collect();
    write!(
        line,
        "[{}] raw=[{}] coarse_entries={} fine_pages={} fine_entries={} fine_windows={} \
         rerank_candidates={} page_reads={} total_ns={} energy_bits={:#018x}",
        ids.join(","),
        raw.join(","),
        o.activity.coarse_entries,
        o.activity.fine_pages,
        o.activity.fine_entries,
        o.activity.fine_windows,
        o.activity.rerank_candidates,
        o.flash_stats.page_reads,
        o.total_latency().as_nanos(),
        o.energy.total_j().to_bits(),
    )
    .unwrap();
    line
}

/// How a leg of the suite puts a scenario's requests to the system.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Door {
    /// `search` / `ivf_search_with_nprobe`, one call per request.
    Single,
    /// The batch methods with a batch of one.
    BatchOfOne,
    /// The batch methods with the request, the scenario's next request of the
    /// same kind, and the request again: the first answer is recorded, the
    /// duplicate must equal it.
    BatchOfThree,
}

/// The shard budgets every door is tried at: one shard, and four shards
/// with a 1-page shard minimum so that even the tiny scans really split.
fn budgets() -> [ScanParallelism; 2] {
    [
        ScanParallelism::sequential(),
        ScanParallelism::sharded(4).with_min_pages_per_shard(1),
    ]
}

fn batch(
    system: &mut ReisSystem,
    db: u32,
    queries: &[Vec<f32>],
    k: usize,
    nprobe: Option<usize>,
) -> Vec<SearchOutcome> {
    match nprobe {
        Some(nprobe) => system.ivf_search_batch_with_nprobe(db, queries, k, nprobe, 4),
        None => system.search_batch(db, queries, k, 4),
    }
    .expect("batch search")
}

/// Answer every scenario through `door` and render the fixture document.
fn document(door: Door, parallelism: ScanParallelism) -> String {
    let mut document = String::new();
    for scenario in scenarios() {
        let (mut system, db) = scenario.build(parallelism);
        let requests = scenario.requests();
        for (index, (query, k, nprobe)) in requests.iter().enumerate() {
            let (k, nprobe) = (*k, *nprobe);
            let outcome = match door {
                Door::Single => match nprobe {
                    Some(nprobe) => system.ivf_search_with_nprobe(db, query, k, nprobe),
                    None => system.search(db, query, k),
                }
                .expect("search"),
                Door::BatchOfOne => {
                    batch(&mut system, db, std::slice::from_ref(query), k, nprobe).remove(0)
                }
                Door::BatchOfThree => {
                    // A different query of the same kind rides along (same
                    // `nprobe`; `k` is the batch's, so only its presence
                    // matters), and the request itself twice.
                    let other = requests
                        .iter()
                        .find(|(q, _, np)| *np == nprobe && q != query)
                        .map(|(q, ..)| q.clone())
                        .expect("another query of the same kind");
                    let mut answers = batch(
                        &mut system,
                        db,
                        &[query.clone(), other, query.clone()],
                        k,
                        nprobe,
                    );
                    let duplicate = answers.pop().expect("three answers");
                    let first = answers.remove(0);
                    assert_eq!(
                        render(&scenario.name, index, k, nprobe, &first),
                        render(&scenario.name, index, k, nprobe, &duplicate),
                        "a duplicate query must be answered like its twin"
                    );
                    first
                }
            };
            document.push_str(&render(&scenario.name, index, k, nprobe, &outcome));
            document.push('\n');
        }
    }
    document
}

fn committed_fixture() -> String {
    let path = fixture_path();
    std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} — regenerate with REIS_REGEN_FIXTURES=1",
            path.display()
        )
    })
}

#[test]
fn single_search_reproduces_the_golden_scan_fixture() {
    let [one_shard, four_shards] = budgets();
    let document = document(Door::Single, one_shard);
    if std::env::var("REIS_REGEN_FIXTURES").is_ok_and(|v| v == "1") {
        let path = fixture_path();
        std::fs::create_dir_all(path.parent().expect("fixtures dir")).expect("mkdir");
        std::fs::write(&path, &document).expect("write fixture");
        return;
    }
    let committed = committed_fixture();
    assert_eq!(
        committed, document,
        "scan answers drifted from the golden fixture"
    );
    assert_eq!(
        committed,
        self::document(Door::Single, four_shards),
        "four shards"
    );
}

#[test]
fn batches_reproduce_the_golden_scan_fixture() {
    let committed = committed_fixture();
    for door in [Door::BatchOfOne, Door::BatchOfThree] {
        for parallelism in budgets() {
            assert_eq!(
                committed,
                document(door, parallelism),
                "{door:?} at {parallelism:?}"
            );
        }
    }
}

/// Leaves pin adaptive filtering off, so on the statically filtered
/// scenarios a leaf query is the golden search minus the top-k cut and the
/// document fetch: its activity counts must be the fixture's.
#[test]
fn leaf_queries_count_the_golden_activity() {
    let committed = committed_fixture();
    for parallelism in budgets() {
        let mut lines = committed.lines();
        for scenario in scenarios() {
            let (mut system, db) = scenario.build(parallelism);
            for (index, (query, k, nprobe)) in scenario.requests().into_iter().enumerate() {
                let golden = lines.next().expect("one fixture line per request");
                if scenario.adaptive != AdaptiveFiltering::Off {
                    continue;
                }
                let leaf = system
                    .leaf_query(db, &query, k, nprobe, 4)
                    .expect("leaf query");
                let a = leaf.activity;
                let counts = format!(
                    "coarse_entries={} fine_pages={} fine_entries={} fine_windows={} \
                     rerank_candidates={} ",
                    a.coarse_entries,
                    a.fine_pages,
                    a.fine_entries,
                    a.fine_windows,
                    a.rerank_candidates,
                );
                assert!(
                    golden.starts_with(&format!("{} q{index} ", scenario.name))
                        && golden.contains(&counts),
                    "{parallelism:?}: leaf counted `{counts}`, fixture says `{golden}`"
                );
                assert_eq!(leaf.candidates.len(), a.rerank_candidates);
            }
        }
    }
}

/// One system per fill level: a clean deployment plus one insert batch of
/// `fill` entries, which lands in one embedding page per touched cluster —
/// `fill` slots of one page on the flat corpus, every smaller fill on the
/// IVF one. Searched with an explain trace armed, so the per-page slot and
/// pass counts are part of the answer.
fn segment_fill_document(parallelism: ScanParallelism) -> String {
    let mut document = String::new();
    for (corpus, corpus_name) in [(Corpus::Flat, "flat"), (Corpus::Ivf, "ivf")] {
        let scenario = Scenario {
            name: String::new(),
            corpus,
            adaptive: AdaptiveFiltering::Off,
            window: 4,
            state: State::Clean,
        };
        let (probe, db) = scenario.build(parallelism);
        let slots_per_page = probe
            .database(db)
            .expect("deployed")
            .layout
            .embeddings_per_page;
        for fill in 1..=slots_per_page {
            let (mut system, db) = scenario.build(parallelism);
            let vectors: Vec<Vec<f32>> = (0..fill).map(|i| vector_for(2_000 + i, 6)).collect();
            let documents: Vec<Vec<u8>> = (0..fill).map(|i| doc_for(2_000 + i, 1)).collect();
            system.insert_batch(db, &vectors, documents).expect("fill");
            system.enable_telemetry();
            let name = format!("{corpus_name}/fill{fill}");
            // The last inserted entry itself, and a point between entries.
            let queries = [vector_for(2_000 + fill - 1, 6), vector_for(61, 4)];
            for (index, query) in queries.iter().enumerate() {
                let nprobe = (corpus == Corpus::Ivf).then_some(NPROBE);
                system.telemetry().arm_explain();
                let outcome = match nprobe {
                    Some(nprobe) => system.ivf_search_with_nprobe(db, query, 5, nprobe),
                    None => system.search(db, query, 5),
                }
                .expect("search");
                document.push_str(&render(&name, index, 5, nprobe, &outcome));
                let explain = system.telemetry().last_explain().expect("armed explain");
                let mut events: Vec<_> = explain
                    .events
                    .iter()
                    .map(|e| (e.page, e.window, e.slots, e.passed))
                    .collect();
                // Shards append their pages shard by shard.
                events.sort_unstable();
                writeln!(document, " explain={events:?}").unwrap();
            }
        }
    }
    document
}

#[test]
fn partly_filled_segment_pages_scan_as_they_did_padded() {
    let [one_shard, four_shards] = budgets();
    let document = segment_fill_document(one_shard);
    let path = fixture("segment-fill-v1.txt");
    if std::env::var("REIS_REGEN_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &document).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("segment-fill fixture");
    assert_eq!(committed, document, "one shard");
    assert_eq!(committed, segment_fill_document(four_shards), "four shards");
}
