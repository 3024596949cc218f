//! Distance metrics between full-precision embeddings.

use serde::{Deserialize, Serialize};

/// Distance / similarity metric used by an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Metric {
    /// Squared Euclidean distance (lower is closer).
    #[default]
    SquaredL2,
    /// Negative inner product (lower is closer), matching FAISS's
    /// `METRIC_INNER_PRODUCT` convention when used as a distance.
    InnerProduct,
    /// Cosine distance, `1 - cos(a, b)` (lower is closer).
    Cosine,
}

impl Metric {
    /// Compute the distance between two vectors under this metric.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::SquaredL2 => squared_l2(a, b),
            Metric::InnerProduct => -inner_product(a, b),
            Metric::Cosine => cosine_distance(a, b),
        }
    }
}

/// Squared Euclidean distance between two vectors:
/// [`reis_kernels::squared_l2_f32`], the workspace's one definition of it.
///
/// The result is exact to the bit and the same on every CPU: lane `l` of a
/// four-lane fold sums `(a[i] - b[i])²` over the dimensions `i ≡ l (mod 4)`
/// in order, a tail sums the last `len % 4` squares in order, and the result
/// is `(s0 + s1) + (s2 + s3) + tail`, with no fused multiply-add. It is
/// symmetric (`squared_l2(a, b) == squared_l2(b, a)` bit for bit), but not
/// the sequential fold `Σ (a[i] - b[i])²`, from which it differs by
/// rounding.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[inline]
pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    reis_kernels::squared_l2_f32(a, b)
}

/// Inner product of two vectors.
///
/// The same four-lane fold as [`squared_l2`], over products.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vectors must have equal dimensionality");
    let mut aq = a.chunks_exact(4);
    let mut bq = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (x, y) in aq.by_ref().zip(bq.by_ref()) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut tail = 0.0f32;
    for (x, y) in aq.remainder().iter().zip(bq.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// L2 norm of a vector.
pub fn norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Cosine distance `1 - cos(a, b)`; zero vectors are treated as orthogonal to
/// everything (distance 1).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - inner_product(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_l2_matches_manual_computation() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 0.0, 3.0];
        assert_eq!(squared_l2(&a, &b), 1.0 + 4.0);
    }

    #[test]
    fn identical_vectors_have_zero_distance() {
        let a = [0.5, -1.5, 2.0, 0.0];
        assert_eq!(squared_l2(&a, &a), 0.0);
        assert!(cosine_distance(&a, &a).abs() < 1e-6);
    }

    #[test]
    fn inner_product_metric_is_negated() {
        let a = [1.0, 0.0];
        let b = [2.0, 0.0];
        assert_eq!(Metric::InnerProduct.distance(&a, &b), -2.0);
        // The closer (more similar) pair has a smaller metric value.
        let far = [0.1, 0.0];
        assert!(Metric::InnerProduct.distance(&a, &b) < Metric::InnerProduct.distance(&a, &far));
    }

    #[test]
    fn cosine_distance_is_scale_invariant() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!(cosine_distance(&a, &b).abs() < 1e-6);
        let orthogonal = [0.0, 0.0, 0.0];
        assert_eq!(cosine_distance(&a, &orthogonal), 1.0);
    }

    #[test]
    fn metric_dispatch_matches_free_functions() {
        let a = [0.3, -0.2, 0.9];
        let b = [-0.4, 0.8, 0.1];
        assert_eq!(Metric::SquaredL2.distance(&a, &b), squared_l2(&a, &b));
        assert_eq!(Metric::Cosine.distance(&a, &b), cosine_distance(&a, &b));
        assert_eq!(
            Metric::InnerProduct.distance(&a, &b),
            -inner_product(&a, &b)
        );
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn mismatched_dimensions_panic() {
        squared_l2(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn unrolled_kernels_match_naive_fold_for_all_tail_lengths() {
        for dim in 1..=19usize {
            let a: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37) - 2.0).collect();
            let b: Vec<f32> = (0..dim).map(|i| 1.5 - (i as f32 * 0.11)).collect();
            let naive_l2: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let naive_ip: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((squared_l2(&a, &b) - naive_l2).abs() < 1e-4, "dim {dim}");
            assert!((inner_product(&a, &b) - naive_ip).abs() < 1e-4, "dim {dim}");
        }
    }
}
