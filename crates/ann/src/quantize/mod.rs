//! Embedding quantization schemes: binary, INT8 scalar and product
//! quantization.
//!
//! REIS's in-storage engine operates on [`binary`]-quantized embeddings
//! (XOR + popcount in the flash planes) and reranks with [`scalar`] INT8
//! embeddings on the embedded cores. [`product`] quantization is provided as
//! the comparison point evaluated in Fig. 5 of the paper.

pub mod binary;
pub mod product;
pub mod scalar;

use crate::error::{AnnError, Result};
use crate::parallel;

pub use binary::BinaryQuantizer;
pub use product::{ProductQuantizer, ProductQuantizerConfig};
pub use scalar::Int8Quantizer;

/// The per-dimension mean of `data`, each dimension's `f64` sum taken over
/// the rows in row order (dimension ranges on up to `threads` threads).
///
/// # Errors
///
/// * [`AnnError::EmptyDataset`] if `data` is empty.
/// * [`AnnError::DimensionMismatch`] for the first vector whose length
///   differs from the first vector's.
/// * [`AnnError::NonFinite`] for the first vector holding a NaN or an
///   infinite component.
fn column_means(data: &[Vec<f32>], threads: usize) -> Result<Vec<f32>> {
    let dim = data.first().ok_or(AnnError::EmptyDataset)?.len();
    if let Some(v) = data.iter().find(|v| v.len() != dim) {
        return Err(AnnError::DimensionMismatch {
            expected: dim,
            actual: v.len(),
        });
    }
    let sums = parallel::map_dims(threads, dim, |dims| {
        let mut sums = vec![0.0f64; dims.len()];
        for v in data {
            for (s, &x) in sums.iter_mut().zip(&v[dims.clone()]) {
                *s += x as f64;
            }
        }
        sums
    })
    .concat();
    // A NaN or infinite component leaves its dimension's sum NaN or
    // infinite; a sum of finite `f32`s never overflows an `f64`.
    if sums.iter().any(|s| !s.is_finite()) {
        return Err(
            AnnError::first_non_finite(data).expect("a non-finite sum has a non-finite term")
        );
    }
    Ok(sums
        .iter()
        .map(|&s| (s / data.len() as f64) as f32)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;
    use crate::parallel::tests::{order_sensitive, with_threads};

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_thread_count_fits_and_quantizes_the_same_bits() {
        // 1,000 rows (a partial last block of rows) of 1,100 dimensions (a
        // partial last range of dimensions).
        let data = order_sensitive(golden::dataset(1_000, 1_100, 7, false, 51));
        let binary = with_threads(1, || BinaryQuantizer::fit(&data)).unwrap();
        let int8 = with_threads(1, || Int8Quantizer::fit(&data)).unwrap();
        let binary_codes = with_threads(1, || binary.quantize_all(&data)).unwrap();
        let int8_codes = with_threads(1, || int8.quantize_all(&data)).unwrap();
        // Two rows of the wrong length: the first of them is the error.
        let mut ragged = data.clone();
        ragged[700].truncate(5);
        ragged[300].truncate(9);
        let mismatch = AnnError::DimensionMismatch {
            expected: 1_100,
            actual: 9,
        };
        for threads in [2, 3, 8] {
            with_threads(threads, || {
                let fitted = BinaryQuantizer::fit(&data).unwrap();
                assert_eq!(bits(fitted.thresholds()), bits(binary.thresholds()));
                let fitted = Int8Quantizer::fit(&data).unwrap();
                assert_eq!(bits(fitted.offsets()), bits(int8.offsets()));
                assert_eq!(bits(fitted.scales()), bits(int8.scales()));
                assert_eq!(binary.quantize_all(&data).unwrap(), binary_codes);
                assert_eq!(int8.quantize_all(&data).unwrap(), int8_codes);
                assert_eq!(binary.quantize_all(&ragged).unwrap_err(), mismatch);
                assert_eq!(int8.quantize_all(&ragged).unwrap_err(), mismatch);
                assert_eq!(BinaryQuantizer::fit(&ragged).unwrap_err(), mismatch);
                assert_eq!(Int8Quantizer::fit(&ragged).unwrap_err(), mismatch);
            });
        }
    }

    #[test]
    fn fits_reject_non_finite_components() {
        let data = golden::dataset(1_000, 1_100, 7, false, 52);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // The first row, a middle one and the last; a second bad row
            // after the first must not be the one reported.
            for row in [0, 500, 999] {
                let mut data = data.clone();
                data[row][900] = bad;
                if let Some(later) = data.get_mut(row + 3) {
                    later[10] = bad;
                }
                let error = AnnError::NonFinite {
                    row,
                    component: 900,
                };
                for threads in [1, 2] {
                    with_threads(threads, || {
                        assert_eq!(BinaryQuantizer::fit(&data), Err(error.clone()));
                        assert_eq!(Int8Quantizer::fit(&data), Err(error.clone()));
                    });
                }
            }
        }
    }
}
