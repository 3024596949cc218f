//! Lloyd's k-means with k-means++ seeding.
//!
//! Used to train IVF cluster centroids and product-quantization codebooks.
//! The implementation is deterministic for a given seed so that index
//! construction — and therefore every benchmark result — is reproducible.
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
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Dimensionality of the centroids.
    pub fn dim(&self) -> usize {
        self.centroids.first().map(Vec::len).unwrap_or(0)
    }

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
/// (the sum of the nearest distances) is returned.
fn assign(data: &[Vec<f32>], centroids: &[Vec<f32>], assignments: &mut [usize]) -> f64 {
    let packed = PackedRows::new(centroids);
    let mut inertia = 0.0f64;
    for (v, assignment) in data.iter().zip(assignments.iter_mut()) {
        let (c, d) = packed.nearest(v);
        *assignment = c;
        inertia += d as f64;
    }
    inertia
}

/// Train k-means on `data` (a slice of equal-length vectors).
///
/// # Errors
///
/// * [`AnnError::EmptyDataset`] if `data` is empty.
/// * [`AnnError::InvalidParameter`] if `k` is zero or exceeds the number of
///   training vectors.
/// * [`AnnError::DimensionMismatch`] if the vectors have inconsistent
///   dimensionality.
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

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centroids = kmeans_plus_plus_init(data, config.k, &mut rng);
    let mut assignments = vec![0usize; data.len()];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0usize;

    for iter in 0..config.max_iterations.max(1) {
        iterations = iter + 1;
        let new_inertia = assign(data, &centroids, &mut assignments);
        // Update step.
        let mut sums = vec![vec![0.0f64; dim]; config.k];
        let mut counts = vec![0usize; config.k];
        for (v, &a) in data.iter().zip(assignments.iter()) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(v.iter()) {
                *s += x as f64;
            }
        }
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(counts.iter())) {
            if count > 0 {
                for (dst, &s) in c.iter_mut().zip(sum.iter()) {
                    *dst = (s / count as f64) as f32;
                }
            } else {
                // Re-seed an empty cluster with a random training vector so no
                // centroid is wasted.
                *c = data[rng.gen_range(0..data.len())].clone();
            }
        }
        let improvement = (inertia - new_inertia) / inertia.max(f64::MIN_POSITIVE);
        inertia = new_inertia;
        if improvement.abs() < config.tolerance && iter > 0 {
            break;
        }
    }

    // Final assignment against the last centroid update.
    let final_inertia = assign(data, &centroids, &mut assignments);

    Ok(KMeansModel {
        centroids,
        assignments,
        inertia: final_inertia,
        iterations,
    })
}

/// Training vectors k-means++ scores per kernel call: their distances stay
/// in a stack buffer.
const INIT_BLOCK: usize = 256;

fn kmeans_plus_plus_init(data: &[Vec<f32>], k: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(data[rng.gen_range(0..data.len())].clone());
    let mut distances = vec![0.0f32; data.len()];
    for (block, out) in data
        .chunks(INIT_BLOCK)
        .zip(distances.chunks_mut(INIT_BLOCK))
    {
        squared_l2_f32_rows(&centroids[0], block, out);
    }
    let mut scratch = [0.0f32; INIT_BLOCK];
    while centroids.len() < k {
        let total: f64 = distances.iter().map(|&d| d as f64).sum();
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
        for (block, ds) in data
            .chunks(INIT_BLOCK)
            .zip(distances.chunks_mut(INIT_BLOCK))
        {
            let scored = &mut scratch[..block.len()];
            squared_l2_f32_rows(newest, block, scored);
            for (d, &nd) in ds.iter_mut().zip(scored.iter()) {
                if nd < *d {
                    *d = nd;
                }
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(model.k(), 3);
        assert_eq!(model.dim(), 2);
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
}
