//! Lloyd's k-means with k-means++ seeding.
//!
//! Used to train IVF cluster centroids and product-quantization codebooks.
//! The implementation is deterministic for a given seed *whatever the
//! thread count*, so that index construction — and therefore every
//! benchmark result — is reproducible on any host:
//!
//! * every pass over the training vectors runs on up to
//!   [`std::thread::available_parallelism`] threads (read once per
//!   [`train`]; one thread below 2,048 rows), which claim fixed
//!   blocks of rows and write each row's distance or nearest centroid into
//!   that row's own slot;
//! * everything whose order matters stays on the calling thread, in row
//!   order: the inertia sum, the k-means++ total and its sampling walk, and
//!   the RNG draws that re-seed empty clusters;
//! * the per-cluster `f64` sums of the centroid update are split by
//!   dimension range, never by rows, so every accumulator adds the same
//!   values in the same order as one thread would.
//!
//! Every distance is [`squared_l2`](crate::distance::squared_l2), computed
//! by the `reis-kernels` f32 family, whose bodies fold 8–16 rows at once
//! and return the same bits on every CPU:
//!
//! * an assignment pass packs the centroids once
//!   ([`reis_kernels::PackedRows`]) and scores each training vector against
//!   all of them; the nearest is the first centroid below every earlier
//!   one, so ties go to the lower index and a NaN distance never wins;
//! * k-means++ scores blocks of training vectors against the newest
//!   centroid ([`reis_kernels::squared_l2_f32_rows`]), in place — the
//!   training set is never copied.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reis_kernels::{nearest_f32, squared_l2_f32_rows, PackedRows};
use serde::{Deserialize, Serialize};

use crate::error::{AnnError, Result};
use crate::parallel::{self, ROW_BLOCK};

/// Configuration of a k-means training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters to produce.
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iterations: usize,
    /// Random seed for centroid initialisation.
    pub seed: u64,
    /// Stop early when the relative improvement of the objective falls below
    /// this threshold.
    pub tolerance: f64,
}

impl KMeansConfig {
    /// A configuration with sensible defaults for `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iterations: 20,
            seed: 0x5EED,
            tolerance: 1e-4,
        }
    }

    /// Builder-style override of the iteration budget.
    pub fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = iterations;
        self
    }

    /// Builder-style override of the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a k-means training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansModel {
    /// Cluster centroids, `k` rows of `dim` values each.
    pub centroids: Vec<Vec<f32>>,
    /// Cluster assignment of each training vector.
    pub assignments: Vec<usize>,
    /// Final value of the k-means objective (sum of squared distances).
    pub inertia: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeansModel {
    /// Index of the centroid nearest to `vector`.
    ///
    /// # Panics
    ///
    /// Panics if the model is empty or the dimensionality differs.
    pub fn nearest_centroid(&self, vector: &[f32]) -> usize {
        nearest_f32(vector, &self.centroids).0
    }
}

/// Assign every vector of `data` to its nearest centroid; the objective
/// (the sum of the nearest distances, in row order) is returned.
fn assign(
    data: &[Vec<f32>],
    centroids: &[Vec<f32>],
    assignments: &mut [usize],
    threads: usize,
) -> f64 {
    let packed = PackedRows::new(centroids);
    let nearest = parallel::map(threads, data.len(), ROW_BLOCK, |row| {
        packed.nearest(&data[row])
    });
    let mut inertia = 0.0f64;
    for (assignment, (c, d)) in assignments.iter_mut().zip(nearest) {
        *assignment = c;
        inertia += d as f64;
    }
    inertia
}

/// The sum of the vectors assigned to each of `k` clusters, one block per
/// dimension range of [`parallel::map_dims`], in dimension order: block
/// `b` holds cluster `c`'s sums over its `w` dimensions at `c * w..`.
fn cluster_sums(
    data: &[Vec<f32>],
    assignments: &[usize],
    k: usize,
    threads: usize,
) -> Vec<Vec<f64>> {
    parallel::map_dims(threads, data[0].len(), |dims| {
        let width = dims.len();
        let mut sums = vec![0.0f64; k * width];
        for (v, &a) in data.iter().zip(assignments) {
            for (s, &x) in sums[a * width..][..width].iter_mut().zip(&v[dims.clone()]) {
                *s += x as f64;
            }
        }
        sums
    })
}

/// Train k-means on `data` (a slice of equal-length vectors).
///
/// The passes over the rows run on up to
/// [`std::thread::available_parallelism`] threads (one below 2,048 rows);
/// the model is the same bits at every thread count.
///
/// # Errors
///
/// * [`AnnError::EmptyDataset`] if `data` is empty.
/// * [`AnnError::InvalidParameter`] if `k` is zero or exceeds the number of
///   training vectors.
/// * [`AnnError::DimensionMismatch`] if the vectors have inconsistent
///   dimensionality.
/// * [`AnnError::NonFinite`] for the first vector holding a NaN or an
///   infinite component.
pub fn train(data: &[Vec<f32>], config: &KMeansConfig) -> Result<KMeansModel> {
    if data.is_empty() {
        return Err(AnnError::EmptyDataset);
    }
    if config.k == 0 || config.k > data.len() {
        return Err(AnnError::InvalidParameter {
            name: "k",
            message: format!("k = {} must be in 1..={}", config.k, data.len()),
        });
    }
    let dim = data[0].len();
    for v in data {
        if v.len() != dim {
            return Err(AnnError::DimensionMismatch {
                expected: dim,
                actual: v.len(),
            });
        }
    }

    let threads = parallel::threads_for(data.len());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centroids = kmeans_plus_plus_init(data, config.k, &mut rng, threads)?;
    let mut assignments = vec![0usize; data.len()];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0usize;

    for iter in 0..config.max_iterations.max(1) {
        iterations = iter + 1;
        let new_inertia = assign(data, &centroids, &mut assignments, threads);
        // Update step.
        let sums = cluster_sums(data, &assignments, config.k, threads);
        let mut counts = vec![0usize; config.k];
        for &a in &assignments {
            counts[a] += 1;
        }
        for (c, (centroid, &count)) in centroids.iter_mut().zip(&counts).enumerate() {
            if count > 0 {
                let totals = sums.iter().flat_map(|block| {
                    let width = block.len() / config.k;
                    &block[c * width..][..width]
                });
                for (dst, &s) in centroid.iter_mut().zip(totals) {
                    *dst = (s / count as f64) as f32;
                }
            } else {
                // Re-seed an empty cluster with a random training vector so no
                // centroid is wasted.
                *centroid = data[rng.gen_range(0..data.len())].clone();
            }
        }
        let improvement = (inertia - new_inertia) / inertia.max(f64::MIN_POSITIVE);
        inertia = new_inertia;
        if improvement.abs() < config.tolerance && iter > 0 {
            break;
        }
    }

    // Final assignment against the last centroid update.
    let final_inertia = assign(data, &centroids, &mut assignments, threads);

    Ok(KMeansModel {
        centroids,
        assignments,
        inertia: final_inertia,
        iterations,
    })
}

/// The sum of `distances`, in row order: what k-means++ samples under.
fn total_distance(distances: &[f32]) -> f64 {
    distances.iter().map(|&d| d as f64).sum()
}

fn kmeans_plus_plus_init(
    data: &[Vec<f32>],
    k: usize,
    rng: &mut StdRng,
    threads: usize,
) -> Result<Vec<Vec<f32>>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(data[rng.gen_range(0..data.len())].clone());
    let mut distances = vec![0.0f32; data.len()];
    parallel::for_each_block(threads, &mut distances, ROW_BLOCK, |first, ds| {
        squared_l2_f32_rows(&centroids[0], &data[first..first + ds.len()], ds);
    });
    let mut total = total_distance(&distances);
    // A NaN or infinite component makes its row's distance to the first
    // centroid, and so the total, NaN or infinite (and every distance, if
    // the first centroid holds it). Finite rows can still overflow to an
    // infinite total, so the rows themselves decide.
    if !total.is_finite() {
        if let Some(error) = AnnError::first_non_finite(data) {
            return Err(error);
        }
    }
    while centroids.len() < k {
        let chosen = if total <= f64::EPSILON {
            rng.gen_range(0..data.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut idx = 0usize;
            for (i, &d) in distances.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    idx = i;
                    break;
                }
                idx = i;
            }
            idx
        };
        centroids.push(data[chosen].clone());
        let newest = centroids.last().expect("just pushed");
        parallel::for_each_block(threads, &mut distances, ROW_BLOCK, |first, ds| {
            let mut scored = [0.0f32; ROW_BLOCK];
            let scored = &mut scored[..ds.len()];
            squared_l2_f32_rows(newest, &data[first..first + ds.len()], scored);
            for (d, &nd) in ds.iter_mut().zip(scored.iter()) {
                if nd < *d {
                    *d = nd;
                }
            }
        });
        total = total_distance(&distances);
    }
    Ok(centroids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;
    use crate::parallel::tests::{order_sensitive, with_threads};

    /// Three well-separated 2-d blobs.
    fn blob_data() -> Vec<Vec<f32>> {
        let mut data = Vec::new();
        for i in 0..30 {
            let jitter = (i % 5) as f32 * 0.01;
            data.push(vec![0.0 + jitter, 0.0 - jitter]);
            data.push(vec![10.0 + jitter, 10.0 - jitter]);
            data.push(vec![-10.0 - jitter, 10.0 + jitter]);
        }
        data
    }

    #[test]
    fn finds_well_separated_clusters() {
        let data = blob_data();
        let model = train(&data, &KMeansConfig::new(3)).unwrap();
        assert_eq!(model.centroids.len(), 3);
        assert!(model.centroids.iter().all(|c| c.len() == 2));
        // Every triple of consecutive points belongs to three distinct clusters.
        for chunk in model.assignments.chunks(3) {
            let mut c = chunk.to_vec();
            c.sort_unstable();
            c.dedup();
            assert_eq!(
                c.len(),
                3,
                "points from different blobs must not share a cluster"
            );
        }
        // Inertia of a perfect clustering of tight blobs is tiny.
        assert!(model.inertia < 1.0, "inertia {} too large", model.inertia);
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let data = blob_data();
        let a = train(&data, &KMeansConfig::new(3).with_seed(7)).unwrap();
        let b = train(&data, &KMeansConfig::new(3).with_seed(7)).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn nearest_centroid_agrees_with_assignments() {
        let data = blob_data();
        let model = train(&data, &KMeansConfig::new(3)).unwrap();
        for (v, &a) in data.iter().zip(model.assignments.iter()) {
            assert_eq!(model.nearest_centroid(v), a);
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(matches!(
            train(&[], &KMeansConfig::new(1)),
            Err(AnnError::EmptyDataset)
        ));
        let data = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert!(matches!(
            train(&data, &KMeansConfig::new(0)),
            Err(AnnError::InvalidParameter { name: "k", .. })
        ));
        assert!(matches!(
            train(&data, &KMeansConfig::new(3)),
            Err(AnnError::InvalidParameter { name: "k", .. })
        ));
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            train(&ragged, &KMeansConfig::new(1)),
            Err(AnnError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn single_cluster_centroid_is_the_mean() {
        let data = vec![vec![0.0, 0.0], vec![2.0, 4.0], vec![4.0, 8.0]];
        let model = train(&data, &KMeansConfig::new(1)).unwrap();
        assert!((model.centroids[0][0] - 2.0).abs() < 1e-5);
        assert!((model.centroids[0][1] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 1.0]];
        let model = train(&data, &KMeansConfig::new(3)).unwrap();
        assert!(model.inertia < 1e-9);
    }

    /// Everything a model is, as bits.
    fn bits(model: &KMeansModel) -> (Vec<Vec<u32>>, &[usize], u64, usize) {
        let centroids = model
            .centroids
            .iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect();
        (
            centroids,
            &model.assignments,
            model.inertia.to_bits(),
            model.iterations,
        )
    }

    fn assert_thread_count_invariant(data: &[Vec<f32>], config: &KMeansConfig) -> KMeansModel {
        let one = with_threads(1, || train(data, config)).unwrap();
        for threads in [2, 3, 8] {
            let many = with_threads(threads, || train(data, config)).unwrap();
            assert_eq!(bits(&many), bits(&one), "{threads} threads");
        }
        one
    }

    #[test]
    fn every_thread_count_trains_the_same_bits() {
        // 1,000 rows (three full blocks of rows and a partial fourth) of
        // 600 dimensions (two ranges of dimensions, the second partial).
        let data = golden::dataset(1_000, 600, 9, false, 41);
        assert_thread_count_invariant(&data, &KMeansConfig::new(13).with_seed(3));
        // One cluster holds every row, so its sums are the ones that round
        // differently in any other order.
        let data = order_sensitive(data);
        assert_thread_count_invariant(&data, &KMeansConfig::new(1).with_seed(3));

        // Duplicated rows on a half-integer grid: tied distances, which
        // the lower centroid index must win on every thread.
        let half = golden::dataset(300, 12, 5, true, 42);
        let data: Vec<Vec<f32>> = half.iter().chain(&half).cloned().collect();
        assert_thread_count_invariant(&data, &KMeansConfig::new(7).with_seed(9));

        // Three distinct rows and k = 6: k-means++ must repeat rows as
        // centroids, the lower-index copy takes every member, and each
        // Lloyd update re-seeds the empty clusters from the RNG.
        let distinct = [
            vec![0.0, 1.0, 2.0],
            vec![5.0, -1.0, 0.5],
            vec![-3.0, 4.0, 1.0],
        ];
        let data: Vec<Vec<f32>> = (0..700).map(|i| distinct[i % 3].clone()).collect();
        let model = assert_thread_count_invariant(&data, &KMeansConfig::new(6).with_seed(5));
        let mut used = model.assignments.clone();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() < 6, "some cluster must stay empty");
    }

    #[test]
    fn golden_1024d_model_holds_at_one_and_two_threads() {
        // The fixture's first model: 2,048 x 1,024-d, k 64.
        let fixture = include_str!("../tests/fixtures/kmeans-golden-v1.txt");
        let data = golden::dataset(2_048, 1_024, 80, false, 11);
        let probes = golden::dataset(96, 1_024, 80, false, 12);
        let config = KMeansConfig::new(64).with_seed(7).with_max_iterations(6);
        for threads in [1, 2] {
            let model = with_threads(threads, || train(&data, &config)).unwrap();
            let line = golden::model_line(
                "2048x1024-k64",
                &model.centroids,
                &model.assignments,
                model.inertia,
                model.iterations,
                probes.iter().map(|p| model.nearest_centroid(p)),
            );
            assert_eq!(
                line.trim_end(),
                fixture.lines().next().unwrap(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn rejects_non_finite_components() {
        let data = golden::dataset(40, 6, 3, false, 43);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // The first row, a middle one and the last; a second bad row
            // after the first must not be the one reported.
            for row in [0, 17, 39] {
                let mut data = data.clone();
                data[row][4] = bad;
                if let Some(later) = data.get_mut(row + 5) {
                    later[1] = bad;
                }
                for k in [1, 3] {
                    assert_eq!(
                        train(&data, &KMeansConfig::new(k)),
                        Err(AnnError::NonFinite { row, component: 4 }),
                        "{bad} in row {row}, k {k}"
                    );
                }
            }
        }
    }
}
