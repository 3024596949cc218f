//! Locality-Sensitive Hashing (LSH) with random hyperplanes.
//!
//! LSH hashes similar embeddings into the same bucket with high probability.
//! The paper's Fig. 5 evaluates it as the third mainstream ANNS family and
//! finds it uncompetitive for high-recall RAG retrieval (slower than
//! exhaustive search above ~0.8 recall); this implementation exists to
//! reproduce that series.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

use crate::distance::Metric;
use crate::error::{AnnError, Result};
use crate::topk::{Neighbor, TopK};

/// Configuration of a random-hyperplane LSH index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LshConfig {
    /// Number of independent hash tables.
    pub num_tables: usize,
    /// Number of hyperplanes (hash bits) per table.
    pub num_bits: usize,
    /// Seed of the hyperplane generator.
    pub seed: u64,
}

impl LshConfig {
    /// A configuration with `num_tables` tables of `num_bits` bits each.
    pub fn new(num_tables: usize, num_bits: usize) -> Self {
        LshConfig {
            num_tables,
            num_bits,
            seed: 0x15B,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LshTable {
    hyperplanes: Vec<Vec<f32>>,
    buckets: HashMap<u64, Vec<usize>>,
}

impl LshTable {
    fn hash(&self, vector: &[f32]) -> u64 {
        let mut h = 0u64;
        for (i, plane) in self.hyperplanes.iter().enumerate() {
            let dot: f32 = plane.iter().zip(vector.iter()).map(|(a, b)| a * b).sum();
            if dot > 0.0 {
                h |= 1 << i;
            }
        }
        h
    }
}

/// A random-hyperplane LSH index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LshIndex {
    config: LshConfig,
    dim: usize,
    metric: Metric,
    vectors: Vec<Vec<f32>>,
    tables: Vec<LshTable>,
}

impl LshIndex {
    /// Build an LSH index over `vectors`.
    ///
    /// # Errors
    ///
    /// * [`AnnError::EmptyDataset`] if `vectors` is empty.
    /// * [`AnnError::InvalidParameter`] if the table or bit count is zero or
    ///   `num_bits` exceeds 63.
    /// * [`AnnError::DimensionMismatch`] if the vectors have inconsistent
    ///   dimensionality.
    pub fn build(vectors: Vec<Vec<f32>>, config: LshConfig) -> Result<Self> {
        if vectors.is_empty() {
            return Err(AnnError::EmptyDataset);
        }
        if config.num_tables == 0 {
            return Err(AnnError::InvalidParameter {
                name: "num_tables",
                message: "must be at least 1".into(),
            });
        }
        if config.num_bits == 0 || config.num_bits > 63 {
            return Err(AnnError::InvalidParameter {
                name: "num_bits",
                message: format!("{} must be in 1..=63", config.num_bits),
            });
        }
        let dim = vectors[0].len();
        for v in &vectors {
            if v.len() != dim {
                return Err(AnnError::DimensionMismatch {
                    expected: dim,
                    actual: v.len(),
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut tables = Vec::with_capacity(config.num_tables);
        for _ in 0..config.num_tables {
            let hyperplanes: Vec<Vec<f32>> = (0..config.num_bits)
                .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            let mut table = LshTable {
                hyperplanes,
                buckets: HashMap::new(),
            };
            for (id, v) in vectors.iter().enumerate() {
                let h = table.hash(v);
                table.buckets.entry(h).or_default().push(id);
            }
            tables.push(table);
        }
        Ok(LshIndex {
            config,
            dim,
            metric: Metric::SquaredL2,
            vectors,
            tables,
        })
    }

    /// Search for the `k` nearest neighbors of `query`.
    ///
    /// `multiprobe` additionally probes, per table, every bucket whose hash
    /// differs from the query's in exactly one bit, which raises recall at
    /// the cost of examining more candidates.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for a query of the wrong
    /// dimensionality.
    pub fn search(&self, query: &[f32], k: usize, multiprobe: bool) -> Result<Vec<Neighbor>> {
        if query.len() != self.dim {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let mut candidates: HashSet<usize> = HashSet::new();
        for table in &self.tables {
            let h = table.hash(query);
            if let Some(bucket) = table.buckets.get(&h) {
                candidates.extend(bucket.iter().copied());
            }
            if multiprobe {
                for bit in 0..self.config.num_bits {
                    if let Some(bucket) = table.buckets.get(&(h ^ (1 << bit))) {
                        candidates.extend(bucket.iter().copied());
                    }
                }
            }
        }
        let mut top = TopK::new(k);
        for id in candidates {
            top.push(Neighbor::new(
                id,
                self.metric.distance(query, &self.vectors[id]),
            ));
        }
        Ok(top.into_sorted_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::metrics::recall_at_k;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered_data(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
            .collect();
        (0..n)
            .map(|i| {
                centers[i % 8]
                    .iter()
                    .map(|&c| c + rng.gen_range(-0.2..0.2))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn finds_identical_vector_in_its_own_bucket() {
        let data = clustered_data(400, 16, 1);
        let index = LshIndex::build(data.clone(), LshConfig::new(8, 12)).unwrap();
        let hits = index.search(&data[33], 1, false).unwrap();
        assert_eq!(hits[0].id, 33);
        assert_eq!(hits[0].distance, 0.0);
        // Asking for every vector returns only the probed buckets' members.
        let candidates = index.search(&data[33], data.len(), false).unwrap();
        assert!(candidates.len() < data.len(), "LSH must prune candidates");
    }

    #[test]
    fn multiprobe_improves_or_preserves_recall() {
        let data = clustered_data(600, 12, 2);
        let index = LshIndex::build(data.clone(), LshConfig::new(4, 14)).unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::SquaredL2).unwrap();
        let mut recall_single = 0.0;
        let mut recall_multi = 0.0;
        for qi in 0..20 {
            let query = &data[qi * 23];
            let truth: Vec<usize> = flat
                .search(query, 10)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let single: Vec<usize> = index
                .search(query, 10, false)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let multi: Vec<usize> = index
                .search(query, 10, true)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            recall_single += recall_at_k(&single, &truth, 10);
            recall_multi += recall_at_k(&multi, &truth, 10);
        }
        assert!(recall_multi >= recall_single);
        assert!(
            recall_multi > 0.5,
            "multiprobe recall {recall_multi} unexpectedly low"
        );
    }

    #[test]
    fn rejects_invalid_configuration() {
        let data = clustered_data(10, 4, 3);
        assert!(matches!(
            LshIndex::build(data.clone(), LshConfig::new(0, 8)),
            Err(AnnError::InvalidParameter {
                name: "num_tables",
                ..
            })
        ));
        assert!(matches!(
            LshIndex::build(data.clone(), LshConfig::new(2, 0)),
            Err(AnnError::InvalidParameter {
                name: "num_bits",
                ..
            })
        ));
        assert!(matches!(
            LshIndex::build(data.clone(), LshConfig::new(2, 64)),
            Err(AnnError::InvalidParameter {
                name: "num_bits",
                ..
            })
        ));
        assert!(matches!(
            LshIndex::build(vec![], LshConfig::new(2, 8)),
            Err(AnnError::EmptyDataset)
        ));
        let index = LshIndex::build(data, LshConfig::new(2, 8)).unwrap();
        assert!(index.search(&[0.0; 3], 1, false).is_err());
    }
}
