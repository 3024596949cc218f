//! Output checks. Every reply the benchmark receives is validated; a reply
//! that fails counts as a failed operation, and the workload-level checks
//! (recall floors, recovery identity, …) fail the whole run.

use reis::ann::topk::Neighbor;

/// Results asked of every search.
pub const K: usize = 10;

/// Running tally of attempted and failed operations, with the first few
/// failure messages kept for the report.
#[derive(Debug)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were shed, or failed an output check.
    pub failed: u64,
    /// Whether every workload-level invariant held.
    pub invariants_hold: bool,
    /// The first failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// A tally with nothing attempted and no invariant broken.
    pub fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            invariants_hold: true,
            messages: Vec::new(),
        }
    }

    fn note(&mut self, message: String) {
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Count one attempted operation and its outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            self.note(message);
        }
    }

    /// Record a workload-level invariant; a broken one fails the run.
    pub fn invariant(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.invariants_hold = false;
            let message = what();
            self.note(format!("invariant broken: {message}"));
        }
    }

    /// Whether the run's outputs were correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invariants_hold
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// How many results a reply must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Exactly this many: queries drawn from the corpus's own distribution
    /// always find `k` entries inside the distance filter.
    Exactly(usize),
    /// Between one and this many: a query from elsewhere (the searches a
    /// mutation trace interleaves) may find fewer inside the filter.
    AtMost(usize),
}

/// Check one reply: as many results as expected, one document each,
/// ascending by distance, no id twice, and every document byte-equal to the
/// chunk `source` holds for the returned id (`None` from `source` means the
/// id must not be returned).
pub fn validate_reply<'a>(
    results: &[Neighbor],
    documents: &[Vec<u8>],
    expect: Expect,
    source: impl Fn(usize) -> Option<&'a [u8]>,
) -> Result<(), String> {
    let count_ok = match expect {
        Expect::Exactly(k) => results.len() == k,
        Expect::AtMost(k) => (1..=k).contains(&results.len()),
    };
    if !count_ok || documents.len() != results.len() {
        return Err(format!(
            "expected {expect:?} results with one document each, got {} and {}",
            results.len(),
            documents.len()
        ));
    }
    if results.windows(2).any(|w| w[0].distance > w[1].distance) {
        return Err("results are not in ascending distance order".into());
    }
    for (rank, (hit, document)) in results.iter().zip(documents).enumerate() {
        if results[..rank].iter().any(|earlier| earlier.id == hit.id) {
            return Err(format!("id {} returned twice", hit.id));
        }
        match source(hit.id) {
            None => return Err(format!("id {} is not live but was returned", hit.id)),
            Some(chunk) if chunk != document.as_slice() => {
                return Err(format!(
                    "document of id {} differs from its source chunk",
                    hit.id
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// `(id, distance bits)` of every result: two replies are bit-identical
/// exactly when their signatures are equal.
pub fn signature(results: &[Neighbor]) -> Vec<(usize, u32)> {
    results
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

/// Mean recall@k of `retrieved` against `truth` (same order, same length).
pub fn mean_recall(retrieved: &[Vec<usize>], truth: &[Vec<usize>], k: usize) -> f64 {
    if retrieved.is_empty() || retrieved.len() != truth.len() {
        return 0.0;
    }
    let total: f64 = retrieved
        .iter()
        .zip(truth)
        .map(|(got, want)| {
            let want = &want[..want.len().min(k)];
            let hits = got.iter().take(k).filter(|id| want.contains(id)).count();
            hits as f64 / want.len().max(1) as f64
        })
        .sum();
    total / retrieved.len() as f64
}

fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    // Eight independent accumulators: a fixed summation order (results do
    // not depend on the thread count) the compiler can still vectorise.
    let mut lanes = [0.0f32; 8];
    let (a_chunks, b_chunks) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail: f32 = a_chunks
        .remainder()
        .iter()
        .zip(b_chunks.remainder())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    for (x, y) in a_chunks.zip(b_chunks) {
        for lane in 0..8 {
            let d = x[lane] - y[lane];
            lanes[lane] += d * d;
        }
    }
    lanes.iter().sum::<f32>() + tail
}

/// Exact f32 squared-L2 top-`k` ids of every query over `corpus`
/// (`(id, vector)` pairs), ties broken by id. Equivalent to
/// `reis_workloads::GroundTruth` but tiled over queries and split over
/// `threads` threads, because the benchmark pays for it on every run.
pub fn exact_top_k(
    corpus: &[(usize, &[f32])],
    queries: &[Vec<f32>],
    k: usize,
    threads: usize,
) -> Vec<Vec<usize>> {
    const TILE: usize = 8;
    let per_thread = queries.len().div_ceil(threads.max(1)).max(1);
    let mut truth: Vec<Vec<usize>> = vec![Vec::new(); queries.len()];
    std::thread::scope(|scope| {
        for (slots, chunk) in truth.chunks_mut(per_thread).zip(queries.chunks(per_thread)) {
            scope.spawn(move || {
                for (tile_slots, tile) in slots.chunks_mut(TILE).zip(chunk.chunks(TILE)) {
                    // Per query: the best k so far as ascending (distance, id).
                    let mut best: Vec<Vec<(f32, usize)>> =
                        vec![Vec::with_capacity(k + 1); tile.len()];
                    for &(id, vector) in corpus {
                        for (query, best) in tile.iter().zip(best.iter_mut()) {
                            let candidate = (squared_l2(query, vector), id);
                            if best.len() == k && candidate >= best[k - 1] {
                                continue;
                            }
                            let at = best.partition_point(|kept| *kept < candidate);
                            best.insert(at, candidate);
                            best.truncate(k);
                        }
                    }
                    for (slot, best) in tile_slots.iter_mut().zip(best) {
                        *slot = best.into_iter().map(|(_, id)| id).collect();
                    }
                }
            });
        }
    });
    truth
}

#[cfg(test)]
mod tests {
    use super::*;
    use reis::workloads::{DatasetProfile, GroundTruth, SyntheticDataset};

    fn reply(ids: &[usize]) -> (Vec<Neighbor>, Vec<Vec<u8>>) {
        let results = ids
            .iter()
            .enumerate()
            .map(|(rank, &id)| Neighbor::new(id, rank as f32))
            .collect();
        let documents = ids
            .iter()
            .map(|id| format!("doc {id}").into_bytes())
            .collect();
        (results, documents)
    }

    fn check(results: &[Neighbor], documents: &[Vec<u8>], docs: &[Vec<u8>]) -> Result<(), String> {
        validate_reply(results, documents, Expect::Exactly(3), |id| {
            docs.get(id).map(Vec::as_slice)
        })
    }

    #[test]
    fn each_reply_check_can_fail() {
        let docs: Vec<Vec<u8>> = (0..8).map(|id| format!("doc {id}").into_bytes()).collect();
        let (results, documents) = reply(&[4, 1, 6]);
        assert!(check(&results, &documents, &docs).is_ok());

        // Too few results — unless the caller allows fewer, but never none
        // and never more.
        assert!(check(&results[..2], &documents[..2], &docs).is_err());
        let lenient = |n: usize, at_most: usize| {
            validate_reply(
                &results[..n],
                &documents[..n],
                Expect::AtMost(at_most),
                |id| docs.get(id).map(Vec::as_slice),
            )
        };
        assert!(lenient(2, 3).is_ok());
        assert!(lenient(0, 3).is_err());
        assert!(lenient(3, 2).is_err());
        // A document missing.
        assert!(check(&results, &documents[..2], &docs).is_err());
        // Out of order.
        let mut unordered = results.clone();
        unordered.swap(0, 2);
        let mut unordered_docs = documents.clone();
        unordered_docs.swap(0, 2);
        assert!(check(&unordered, &unordered_docs, &docs).is_err());
        // A corrupted document byte.
        let mut corrupted = documents.clone();
        corrupted[1][0] ^= 1;
        assert!(check(&results, &corrupted, &docs).is_err());
        // A duplicate id.
        let (dup_results, dup_docs) = reply(&[4, 4, 6]);
        assert!(check(&dup_results, &dup_docs, &docs).is_err());
        // An id that is not live.
        let (dead_results, dead_docs) = reply(&[4, 1, 99]);
        assert!(check(&dead_results, &dead_docs, &docs).is_err());
    }

    #[test]
    fn tally_counts_failures_and_invariants() {
        let mut tally = Tally::new();
        tally.op(Ok(()));
        tally.op(Err("bad".into()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!((tally.fail_ratio() - 0.5).abs() < 1e-12);
        assert!(!tally.correct());

        let mut tally = Tally::new();
        tally.op(Ok(()));
        assert!(tally.correct());
        tally.invariant(false, || "recall below floor".into());
        assert!(!tally.correct(), "a broken invariant fails the run");
        assert_eq!(tally.failed, 0);
    }

    #[test]
    fn signatures_detect_any_bit_of_difference() {
        let a = [Neighbor::new(3, 1.5), Neighbor::new(9, 2.0)];
        let mut b = a;
        assert_eq!(signature(&a), signature(&b));
        b[1].distance = f32::from_bits(2.0f32.to_bits() + 1);
        assert_ne!(signature(&a), signature(&b));
    }

    #[test]
    fn recall_counts_overlap() {
        let truth = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]];
        let got = vec![vec![1, 2, 9, 10], vec![5, 6, 7, 8]];
        assert!((mean_recall(&got, &truth, 4) - 0.75).abs() < 1e-12);
        assert_eq!(mean_recall(&[], &[], 4), 0.0);
    }

    #[test]
    fn exact_top_k_agrees_with_the_workspace_ground_truth() {
        let dataset =
            SyntheticDataset::generate(DatasetProfile::hotpotqa().scaled(600).with_queries(11), 5);
        let reference = GroundTruth::compute(&dataset, K).expect("ground truth");
        let corpus: Vec<(usize, &[f32])> = dataset
            .vectors()
            .iter()
            .enumerate()
            .map(|(id, v)| (id, v.as_slice()))
            .collect();
        for threads in [1, 3] {
            let ours = exact_top_k(&corpus, dataset.queries(), K, threads);
            let reference_lists: Vec<Vec<usize>> = (0..reference.len())
                .map(|q| reference.neighbors(q).to_vec())
                .collect();
            // Summation order differs, so allow a swapped near-tie.
            assert!(mean_recall(&ours, &reference_lists, K) >= 0.99);
            assert!(ours.iter().all(|list| list.len() == K));
        }
    }
}
