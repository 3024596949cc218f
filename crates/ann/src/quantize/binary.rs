//! Binary quantization (BQ).
//!
//! Binary quantization compresses each `f32` component of an embedding to a
//! single bit (a 32× compression), which turns distance computation into an
//! XOR + popcount — exactly the operation REIS executes with the latches and
//! fail-bit counter of a flash plane. The paper (Sec. 2.2, 4.3) reports that
//! BQ preserves recall on high-dimensional text embeddings when combined with
//! a low-cost INT8 reranking step.

use serde::{Deserialize, Serialize};

use super::column_means;
use crate::error::{AnnError, Result};
use crate::parallel::{self, ROW_BLOCK};
use crate::vector::BinaryVector;

/// A per-dimension threshold binary quantizer.
///
/// Component `d` of a vector maps to bit 1 when `v[d] > thresholds[d]`.
/// Thresholds of zero reproduce the common sign-based BQ; fitting the
/// quantizer to a dataset uses the per-dimension mean, which is what the
/// Cohere binary embeddings the paper evaluates with do.
///
/// # Examples
///
/// ```
/// use reis_ann::quantize::binary::BinaryQuantizer;
///
/// let quantizer = BinaryQuantizer::zero_threshold(4);
/// let v = quantizer.quantize(&[0.5, -0.25, 0.0, 1.0]).unwrap();
/// assert_eq!(v.dim(), 4);
/// assert!(v.bit(0) && !v.bit(1) && !v.bit(2) && v.bit(3));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinaryQuantizer {
    thresholds: Vec<f32>,
}

impl BinaryQuantizer {
    /// A quantizer that thresholds every dimension at zero (sign bit).
    pub fn zero_threshold(dim: usize) -> Self {
        BinaryQuantizer {
            thresholds: vec![0.0; dim],
        }
    }

    /// Fit per-dimension thresholds to the mean of a training set.
    ///
    /// # Errors
    ///
    /// * [`AnnError::EmptyDataset`] if `data` is empty.
    /// * [`AnnError::DimensionMismatch`] if the vectors have inconsistent
    ///   dimensionality.
    /// * [`AnnError::NonFinite`] for the first vector holding a NaN or an
    ///   infinite component.
    pub fn fit(data: &[Vec<f32>]) -> Result<Self> {
        let thresholds = column_means(data, parallel::threads_for(data.len()))?;
        Ok(BinaryQuantizer { thresholds })
    }

    /// Rebuild a quantizer from previously-extracted thresholds (the
    /// durable-snapshot path: [`thresholds`](Self::thresholds) out,
    /// `from_thresholds` back in, bit-exactly).
    pub fn from_thresholds(thresholds: Vec<f32>) -> Self {
        BinaryQuantizer { thresholds }
    }

    /// Dimensionality this quantizer was built for.
    pub fn dim(&self) -> usize {
        self.thresholds.len()
    }

    /// The per-dimension thresholds.
    pub fn thresholds(&self) -> &[f32] {
        &self.thresholds
    }

    /// Quantize one vector.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] if the vector's length differs
    /// from the quantizer's dimensionality.
    pub fn quantize(&self, vector: &[f32]) -> Result<BinaryVector> {
        if vector.len() != self.dim() {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim(),
                actual: vector.len(),
            });
        }
        // Eight comparisons to a byte, bit `d % 8` of byte `d / 8`: the
        // packing of `BinaryVector::from_bits` without the `Vec<bool>`. The
        // whole bytes go through fixed-size arrays, which is what lets the
        // compiler unroll the eight shifts.
        let (whole, rest) = vector.as_chunks::<8>();
        let (whole_thresholds, rest_thresholds) = self.thresholds.as_chunks::<8>();
        let mut bytes = Vec::with_capacity(vector.len().div_ceil(8));
        bytes.extend(
            whole
                .iter()
                .zip(whole_thresholds)
                .map(|(values, thresholds)| pack_byte(values, thresholds)),
        );
        if !rest.is_empty() {
            bytes.push(pack_byte(rest, rest_thresholds));
        }
        Ok(BinaryVector::from_packed(vector.len(), bytes))
    }

    /// Quantize a whole dataset.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for the first vector whose
    /// length differs from the quantizer's dimensionality.
    pub fn quantize_all(&self, data: &[Vec<f32>]) -> Result<Vec<BinaryVector>> {
        let threads = parallel::threads_for(data.len());
        parallel::map(threads, data.len(), ROW_BLOCK, |row| {
            self.quantize(&data[row])
        })
        .into_iter()
        .collect()
    }

    /// Compression ratio relative to `f32` storage (32× for any dimension
    /// that is a multiple of 8).
    pub fn compression_ratio(&self) -> f64 {
        let dim = self.dim();
        (dim * 4) as f64 / dim.div_ceil(8) as f64
    }
}

/// Bit `d` of the result is `values[d] > thresholds[d]`, for up to eight
/// dimensions.
#[inline]
fn pack_byte(values: &[f32], thresholds: &[f32]) -> u8 {
    values
        .iter()
        .zip(thresholds)
        .enumerate()
        .fold(0, |byte, (bit, (&v, &t))| byte | u8::from(v > t) << bit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threshold_is_the_sign_bit() {
        let q = BinaryQuantizer::zero_threshold(5);
        let v = q.quantize(&[1.0, -1.0, 0.0, 0.001, -0.001]).unwrap();
        assert_eq!(
            (0..5).map(|i| v.bit(i)).collect::<Vec<_>>(),
            vec![true, false, false, true, false]
        );
    }

    #[test]
    fn fit_uses_per_dimension_means() {
        let data = vec![vec![0.0, 10.0], vec![2.0, 20.0], vec![4.0, 30.0]];
        let q = BinaryQuantizer::fit(&data).unwrap();
        assert_eq!(q.thresholds(), &[2.0, 20.0]);
        // A vector exactly at the mean maps to 0 bits (strictly-greater rule).
        let at_mean = q.quantize(&[2.0, 20.0]).unwrap();
        assert_eq!(at_mean.count_ones(), 0);
        let above = q.quantize(&[3.0, 25.0]).unwrap();
        assert_eq!(above.count_ones(), 2);
    }

    #[test]
    fn quantization_preserves_neighborhood_structure() {
        // Two clusters far apart on every dimension: BQ distances must keep
        // intra-cluster distances below inter-cluster distances.
        let dim = 64;
        let a: Vec<f32> = (0..dim).map(|i| 1.0 + (i % 3) as f32 * 0.01).collect();
        let a2: Vec<f32> = (0..dim).map(|i| 1.0 + (i % 5) as f32 * 0.01).collect();
        let b: Vec<f32> = (0..dim).map(|i| -1.0 - (i % 3) as f32 * 0.01).collect();
        let q = BinaryQuantizer::zero_threshold(dim);
        let qa = q.quantize(&a).unwrap();
        let qa2 = q.quantize(&a2).unwrap();
        let qb = q.quantize(&b).unwrap();
        assert!(qa.hamming_distance(&qa2) < qa.hamming_distance(&qb));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let q = BinaryQuantizer::zero_threshold(4);
        assert!(matches!(
            q.quantize(&[1.0, 2.0]),
            Err(AnnError::DimensionMismatch {
                expected: 4,
                actual: 2
            })
        ));
    }

    #[test]
    fn fit_rejects_bad_datasets() {
        assert!(matches!(
            BinaryQuantizer::fit(&[]),
            Err(AnnError::EmptyDataset)
        ));
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            BinaryQuantizer::fit(&ragged),
            Err(AnnError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_thresholds_round_trips_bit_exactly() {
        let data = vec![vec![0.1, -0.7, 3.5], vec![0.3, 0.2, -1.0]];
        let q = BinaryQuantizer::fit(&data).unwrap();
        let rebuilt = BinaryQuantizer::from_thresholds(q.thresholds().to_vec());
        assert_eq!(rebuilt, q);
    }

    #[test]
    fn compression_ratio_is_32x_for_byte_aligned_dims() {
        assert_eq!(
            BinaryQuantizer::zero_threshold(1024).compression_ratio(),
            32.0
        );
    }
}
