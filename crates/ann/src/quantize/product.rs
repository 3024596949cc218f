//! Product quantization (PQ).
//!
//! PQ splits each embedding into `m` sub-vectors and replaces every
//! sub-vector with the index of its nearest codebook centroid, so an
//! embedding becomes `m` small codes. The paper evaluates PQ as an
//! alternative to binary quantization in Fig. 5 and finds it performs worse
//! for IVF-based RAG retrieval; this implementation exists to reproduce that
//! comparison (and as a baseline that, unlike BQ, cannot be computed by the
//! in-flash XOR/popcount engine).

use serde::{Deserialize, Serialize};

use crate::distance::squared_l2;
use crate::error::{AnnError, Result};
use crate::kmeans::{self, KMeansConfig};

/// Configuration of a product quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProductQuantizerConfig {
    /// Number of sub-vectors each embedding is split into.
    pub num_subquantizers: usize,
    /// Number of centroids per sub-quantizer codebook (at most 256 so codes
    /// fit in one byte).
    pub codebook_size: usize,
    /// Training seed.
    pub seed: u64,
    /// k-means iterations per codebook.
    pub train_iterations: usize,
}

/// A trained product quantizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductQuantizer {
    dim: usize,
    sub_dim: usize,
    codebooks: Vec<Vec<Vec<f32>>>,
}

impl ProductQuantizer {
    /// Train a product quantizer on `data`.
    ///
    /// # Errors
    ///
    /// * [`AnnError::EmptyDataset`] if `data` is empty.
    /// * [`AnnError::InvalidParameter`] if the dimensionality is not evenly
    ///   divisible by the number of sub-quantizers, or the codebook size is 0
    ///   or greater than 256.
    /// * [`AnnError::DimensionMismatch`] if the vectors have inconsistent
    ///   dimensionality.
    pub fn train(data: &[Vec<f32>], config: &ProductQuantizerConfig) -> Result<Self> {
        if data.is_empty() {
            return Err(AnnError::EmptyDataset);
        }
        let dim = data[0].len();
        if config.num_subquantizers == 0 || !dim.is_multiple_of(config.num_subquantizers) {
            return Err(AnnError::InvalidParameter {
                name: "num_subquantizers",
                message: format!(
                    "dimensionality {dim} must be divisible by {}",
                    config.num_subquantizers
                ),
            });
        }
        if config.codebook_size == 0 || config.codebook_size > 256 {
            return Err(AnnError::InvalidParameter {
                name: "codebook_size",
                message: format!("{} must be in 1..=256", config.codebook_size),
            });
        }
        for v in data {
            if v.len() != dim {
                return Err(AnnError::DimensionMismatch {
                    expected: dim,
                    actual: v.len(),
                });
            }
        }
        let sub_dim = dim / config.num_subquantizers;
        let k = config.codebook_size.min(data.len());
        let mut codebooks = Vec::with_capacity(config.num_subquantizers);
        for s in 0..config.num_subquantizers {
            let sub_data: Vec<Vec<f32>> = data
                .iter()
                .map(|v| v[s * sub_dim..(s + 1) * sub_dim].to_vec())
                .collect();
            let model = kmeans::train(
                &sub_data,
                &KMeansConfig::new(k)
                    .with_seed(config.seed.wrapping_add(s as u64))
                    .with_max_iterations(config.train_iterations),
            )?;
            codebooks.push(model.centroids);
        }
        Ok(ProductQuantizer {
            dim,
            sub_dim,
            codebooks,
        })
    }

    /// Number of sub-quantizers (code bytes per vector).
    pub fn code_len(&self) -> usize {
        self.codebooks.len()
    }

    /// Encode one vector into its PQ codes.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] if the vector's length differs
    /// from the training dimensionality.
    pub fn encode(&self, vector: &[f32]) -> Result<Vec<u8>> {
        if vector.len() != self.dim {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim,
                actual: vector.len(),
            });
        }
        Ok(self
            .codebooks
            .iter()
            .enumerate()
            .map(|(s, codebook)| {
                let sub = &vector[s * self.sub_dim..(s + 1) * self.sub_dim];
                nearest_code(codebook, sub)
            })
            .collect())
    }

    /// Reconstruct an approximation of a vector from its PQ codes.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::InvalidParameter`] if the code length does not
    /// match the quantizer.
    pub fn decode(&self, codes: &[u8]) -> Result<Vec<f32>> {
        if codes.len() != self.code_len() {
            return Err(AnnError::InvalidParameter {
                name: "codes",
                message: format!("expected {} codes, got {}", self.code_len(), codes.len()),
            });
        }
        let mut out = Vec::with_capacity(self.dim);
        for (s, &code) in codes.iter().enumerate() {
            out.extend_from_slice(&self.codebooks[s][code as usize]);
        }
        Ok(out)
    }

    /// Build the per-subspace lookup table of squared distances from `query`
    /// to every codebook centroid (the asymmetric distance computation
    /// tables).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] if the query's length differs
    /// from the training dimensionality.
    pub fn distance_table(&self, query: &[f32]) -> Result<Vec<Vec<f32>>> {
        if query.len() != self.dim {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        Ok(self
            .codebooks
            .iter()
            .enumerate()
            .map(|(s, codebook)| {
                let sub = &query[s * self.sub_dim..(s + 1) * self.sub_dim];
                codebook.iter().map(|c| squared_l2(c, sub)).collect()
            })
            .collect())
    }

    /// Asymmetric squared distance between a query (via its
    /// [`ProductQuantizer::distance_table`]) and an encoded database vector.
    ///
    /// # Panics
    ///
    /// Panics if `codes` and `table` do not match the quantizer layout.
    pub fn asymmetric_distance(table: &[Vec<f32>], codes: &[u8]) -> f32 {
        assert_eq!(
            table.len(),
            codes.len(),
            "distance table and codes must have equal length"
        );
        codes
            .iter()
            .enumerate()
            .map(|(s, &c)| table[s][c as usize])
            .sum()
    }
}

fn nearest_code(codebook: &[Vec<f32>], sub: &[f32]) -> u8 {
    reis_kernels::nearest_f32(sub, codebook).0 as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_data(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| {
                        ((i * 31 + d * 7) % 97) as f32 / 97.0 + if i % 2 == 0 { 1.0 } else { -1.0 }
                    })
                    .collect()
            })
            .collect()
    }

    fn config(m: usize, ks: usize) -> ProductQuantizerConfig {
        ProductQuantizerConfig {
            num_subquantizers: m,
            codebook_size: ks,
            seed: 11,
            train_iterations: 8,
        }
    }

    #[test]
    fn encode_decode_reduces_to_nearby_reconstruction() {
        let data = training_data(200, 16);
        let pq = ProductQuantizer::train(&data, &config(4, 16)).unwrap();
        assert_eq!(pq.code_len(), 4);
        let mut total_err = 0.0f32;
        for v in &data {
            let codes = pq.encode(v).unwrap();
            assert_eq!(codes.len(), 4);
            let rec = pq.decode(&codes).unwrap();
            total_err += squared_l2(v, &rec);
        }
        let avg_err = total_err / data.len() as f32;
        // The two interleaved clusters are ~2 apart per dimension; codebooks of
        // 16 entries per 4-d subspace must reconstruct far better than that.
        assert!(
            avg_err < 1.0,
            "average reconstruction error {avg_err} too large"
        );
    }

    #[test]
    fn asymmetric_distance_matches_decoded_distance() {
        let data = training_data(100, 8);
        let pq = ProductQuantizer::train(&data, &config(2, 8)).unwrap();
        let query = &data[3];
        let table = pq.distance_table(query).unwrap();
        for v in data.iter().take(20) {
            let codes = pq.encode(v).unwrap();
            let adc = ProductQuantizer::asymmetric_distance(&table, &codes);
            let decoded = pq.decode(&codes).unwrap();
            let exact = squared_l2(query, &decoded);
            assert!((adc - exact).abs() < 1e-3, "ADC {adc} vs decoded {exact}");
        }
    }

    #[test]
    fn rejects_invalid_configurations() {
        let data = training_data(10, 9);
        assert!(matches!(
            ProductQuantizer::train(&data, &config(2, 8)),
            Err(AnnError::InvalidParameter {
                name: "num_subquantizers",
                ..
            })
        ));
        let data = training_data(10, 8);
        assert!(matches!(
            ProductQuantizer::train(
                &data,
                &ProductQuantizerConfig {
                    codebook_size: 0,
                    ..config(2, 8)
                }
            ),
            Err(AnnError::InvalidParameter {
                name: "codebook_size",
                ..
            })
        ));
        assert!(matches!(
            ProductQuantizer::train(&[], &config(2, 8)),
            Err(AnnError::EmptyDataset)
        ));
    }

    #[test]
    fn encode_rejects_wrong_dimensionality() {
        let data = training_data(50, 8);
        let pq = ProductQuantizer::train(&data, &config(2, 4)).unwrap();
        assert!(matches!(
            pq.encode(&[1.0; 9]),
            Err(AnnError::DimensionMismatch {
                expected: 8,
                actual: 9
            })
        ));
        assert!(pq.decode(&[0, 1, 2]).is_err());
    }
}
