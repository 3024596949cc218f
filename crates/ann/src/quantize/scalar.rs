//! INT8 scalar quantization, used for the reranking step.
//!
//! REIS stores an INT8 copy of every embedding in the TLC partition and
//! recomputes the distances of the binary-quantized candidates in INT8
//! precision on the SSD's embedded core (Sec. 4.3.2, step 7). The scalar
//! quantizer here is a symmetric per-dimension affine quantizer in the style
//! of the Cohere INT8 embeddings used by the paper.

use serde::{Deserialize, Serialize};

use super::column_means;
use crate::error::{AnnError, Result};
use crate::parallel::{self, ROW_BLOCK};
use crate::vector::Int8Vector;

/// Per-dimension affine INT8 quantizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Int8Quantizer {
    offsets: Vec<f32>,
    scales: Vec<f32>,
}

impl Int8Quantizer {
    /// An identity-style quantizer for values already in `[-1, 1]`:
    /// offset 0 and scale `1/127` on every dimension.
    pub fn unit_range(dim: usize) -> Self {
        Int8Quantizer {
            offsets: vec![0.0; dim],
            scales: vec![1.0 / 127.0; dim],
        }
    }

    /// Fit offsets (per-dimension mean) and scales (per-dimension maximum
    /// absolute deviation divided by 127) to a training set.
    ///
    /// # Errors
    ///
    /// * [`AnnError::EmptyDataset`] if `data` is empty.
    /// * [`AnnError::DimensionMismatch`] if the vectors have inconsistent
    ///   dimensionality.
    /// * [`AnnError::NonFinite`] for the first vector holding a NaN or an
    ///   infinite component.
    pub fn fit(data: &[Vec<f32>]) -> Result<Self> {
        let threads = parallel::threads_for(data.len());
        let offsets = column_means(data, threads)?;
        let max_dev = parallel::map_dims(threads, offsets.len(), |dims| {
            let offsets = &offsets[dims.clone()];
            let mut max_dev = vec![0.0f32; dims.len()];
            for v in data {
                for ((m, &x), &o) in max_dev.iter_mut().zip(&v[dims.clone()]).zip(offsets) {
                    let dev = (x - o).abs();
                    if dev > *m {
                        *m = dev;
                    }
                }
            }
            max_dev
        })
        .concat();
        let scales = max_dev
            .iter()
            .map(|&m| if m > 0.0 { m / 127.0 } else { 1.0 / 127.0 })
            .collect();
        Ok(Int8Quantizer { offsets, scales })
    }

    /// Rebuild a quantizer from previously-extracted parameters (the
    /// durable-snapshot path: [`offsets`](Self::offsets) /
    /// [`scales`](Self::scales) out, `from_parts` back in, bit-exactly).
    ///
    /// # Panics
    ///
    /// Panics if `offsets` and `scales` differ in length (a caller bug —
    /// the pair always travels together).
    pub fn from_parts(offsets: Vec<f32>, scales: Vec<f32>) -> Self {
        assert_eq!(
            offsets.len(),
            scales.len(),
            "offsets and scales must cover the same dimensions"
        );
        Int8Quantizer { offsets, scales }
    }

    /// Dimensionality this quantizer was built for.
    pub fn dim(&self) -> usize {
        self.offsets.len()
    }

    /// The per-dimension offsets (the affine shift of each dimension).
    pub fn offsets(&self) -> &[f32] {
        &self.offsets
    }

    /// The per-dimension scales (the affine step of each INT8 level).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Quantize one vector.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] if the vector's length differs
    /// from the quantizer's dimensionality.
    pub fn quantize(&self, vector: &[f32]) -> Result<Int8Vector> {
        if vector.len() != self.dim() {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim(),
                actual: vector.len(),
            });
        }
        let values = vector
            .iter()
            .zip(self.offsets.iter().zip(self.scales.iter()))
            .map(|(&x, (&o, &s))| round_to_i8((x - o) / s))
            .collect();
        Ok(Int8Vector::new(values))
    }

    /// Quantize a whole dataset.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for the first vector whose
    /// length differs from the quantizer's dimensionality.
    pub fn quantize_all(&self, data: &[Vec<f32>]) -> Result<Vec<Int8Vector>> {
        let threads = parallel::threads_for(data.len());
        parallel::map(threads, data.len(), ROW_BLOCK, |row| {
            self.quantize(&data[row])
        })
        .into_iter()
        .collect()
    }

    /// Reconstruct an approximate `f32` vector from its INT8 representation.
    pub fn dequantize(&self, vector: &Int8Vector) -> Vec<f32> {
        vector
            .as_slice()
            .iter()
            .zip(self.offsets.iter().zip(self.scales.iter()))
            .map(|(&q, (&o, &s))| q as f32 * s + o)
            .collect()
    }
}

/// `value.round().clamp(-127.0, 127.0) as i8` — round half away from zero,
/// saturate at ±127, NaN to 0 — without `f32::round`, which the baseline
/// x86-64 target compiles to one `roundf` library call per dimension. The
/// value is clamped first (rounding and clamping to integer bounds
/// commute), truncated, and moved one step away from zero when the
/// remainder, which the subtraction computes exactly, is at least one
/// half. A sweep of every `f32` checks the two agree.
#[inline]
fn round_to_i8(value: f32) -> i8 {
    let clamped = value.clamp(-127.0, 127.0);
    let truncated = clamped as i32;
    let remainder = clamped - truncated as f32;
    (truncated + i32::from(remainder >= 0.5) - i32::from(remainder <= -0.5)) as i8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::squared_l2;

    /// The rule `round_to_i8` replaces.
    fn rounded(value: f32) -> i8 {
        value.round().clamp(-127.0, 127.0) as i8
    }

    #[test]
    fn rounding_matches_round_then_clamp_at_the_edges() {
        let mut values = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::from_bits(0xFFC0_1234),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1), // the smallest subnormal
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007F_FFFF), // the largest subnormal
            f32::MAX,
            f32::MIN,
        ];
        // Eight ulps either side of every half-integer from -129.5 to
        // 129.5, and of every integer in between.
        for k in -130..130 {
            for centre in [k as f32 + 0.5, k as f32] {
                let bits = centre.to_bits();
                for step in 0..=8u32 {
                    values.push(f32::from_bits(bits.wrapping_add(step)));
                    values.push(f32::from_bits(bits.wrapping_sub(step)));
                }
            }
        }
        for value in values {
            assert_eq!(round_to_i8(value), rounded(value), "{value:e}");
        }
        assert_eq!(round_to_i8(2.5), 3);
        assert_eq!(round_to_i8(-2.5), -3);
        assert_eq!(round_to_i8(126.5), 127);
        assert_eq!(round_to_i8(-200.0), -127);
    }

    /// Every one of the 2³² `f32` bit patterns; about 40 s in release, so
    /// run on request (`cargo test --release -p reis-ann --lib --
    /// --ignored`).
    #[test]
    #[ignore = "sweeps all 2^32 f32 values; run in release with --ignored"]
    fn rounding_matches_round_then_clamp_for_every_f32() {
        let mismatches = (0..=u32::MAX)
            .map(f32::from_bits)
            .filter(|&value| round_to_i8(value) != rounded(value))
            .count();
        assert_eq!(mismatches, 0);
    }

    fn training_data() -> Vec<Vec<f32>> {
        (0..50)
            .map(|i| {
                let t = i as f32 / 50.0;
                vec![t, -t * 2.0, 0.5 + t * 0.1, (i % 7) as f32 * 0.05]
            })
            .collect()
    }

    #[test]
    fn quantize_dequantize_reconstruction_error_is_small() {
        let data = training_data();
        let q = Int8Quantizer::fit(&data).unwrap();
        for v in &data {
            let reconstructed = q.dequantize(&q.quantize(v).unwrap());
            let err = squared_l2(v, &reconstructed);
            assert!(err < 1e-3, "reconstruction error {err} too large for {v:?}");
        }
    }

    #[test]
    fn quantized_distances_track_float_distances() {
        let data = training_data();
        let q = Int8Quantizer::fit(&data).unwrap();
        let quantized = q.quantize_all(&data).unwrap();
        // For a fixed query, the nearest neighbor under INT8 must match the
        // nearest neighbor under f32 on this smooth dataset.
        let query = &data[10];
        let query_q = q.quantize(query).unwrap();
        // Indices 9 and 11 are nearly equidistant from index 10 by
        // construction, so require the INT8 nearest neighbor to be one of the
        // two closest float neighbors rather than an exact match.
        let mut by_f32: Vec<usize> = (0..data.len()).filter(|&i| i != 10).collect();
        by_f32.sort_by(|&a, &b| {
            squared_l2(&data[a], query)
                .partial_cmp(&squared_l2(&data[b], query))
                .unwrap()
        });
        let nn_int8 = quantized
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 10)
            .min_by_key(|(_, v)| v.squared_l2(&query_q))
            .unwrap()
            .0;
        assert!(
            by_f32[..2].contains(&nn_int8),
            "INT8 nearest neighbor {nn_int8} not among the two closest float neighbors {:?}",
            &by_f32[..2]
        );
    }

    #[test]
    fn unit_range_clamps_out_of_range_values() {
        let q = Int8Quantizer::unit_range(3);
        let v = q.quantize(&[2.0, -2.0, 0.5]).unwrap();
        assert_eq!(v.as_slice(), &[127, -127, 64]);
    }

    #[test]
    fn rejects_dimension_mismatch_and_empty_data() {
        assert!(matches!(
            Int8Quantizer::fit(&[]),
            Err(AnnError::EmptyDataset)
        ));
        let q = Int8Quantizer::unit_range(2);
        assert!(matches!(
            q.quantize(&[1.0]),
            Err(AnnError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn from_parts_round_trips_bit_exactly() {
        let q = Int8Quantizer::fit(&training_data()).unwrap();
        let rebuilt = Int8Quantizer::from_parts(q.offsets().to_vec(), q.scales().to_vec());
        assert_eq!(rebuilt, q);
    }

    #[test]
    #[should_panic(expected = "same dimensions")]
    fn from_parts_rejects_ragged_parameters() {
        Int8Quantizer::from_parts(vec![0.0], vec![1.0, 2.0]);
    }

    #[test]
    fn constant_dimension_does_not_divide_by_zero() {
        let data = vec![vec![3.0, 1.0], vec![3.0, 2.0], vec![3.0, 3.0]];
        let q = Int8Quantizer::fit(&data).unwrap();
        let v = q.quantize(&[3.0, 2.0]).unwrap();
        assert_eq!(
            v.as_slice()[0],
            0,
            "constant dimension quantizes to the offset"
        );
    }
}
