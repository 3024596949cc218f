//! The flat (exhaustive) index.
//!
//! A flat index compares the query against every database vector. It is the
//! slowest search strategy but is exact, so it provides (i) the ground truth
//! used to measure the recall of approximate indexes and (ii) the
//! "brute force" (BF) configuration evaluated in Figs. 7, 8 and 10 of the
//! paper.

use serde::{Deserialize, Serialize};

use crate::distance::Metric;
use crate::error::{AnnError, Result};
use crate::topk::{Neighbor, TopK};

/// Exact nearest-neighbor index over full-precision vectors.
///
/// # Examples
///
/// ```
/// use reis_ann::flat::FlatIndex;
/// use reis_ann::distance::Metric;
///
/// # fn main() -> Result<(), reis_ann::error::AnnError> {
/// let index = FlatIndex::new(vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![5.0, 5.0]], Metric::SquaredL2)?;
/// let hits = index.search(&[0.9, 1.1], 2)?;
/// assert_eq!(hits[0].id, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatIndex {
    vectors: Vec<Vec<f32>>,
    metric: Metric,
    dim: usize,
}

impl FlatIndex {
    /// Build a flat index over the given vectors.
    ///
    /// # Errors
    ///
    /// * [`AnnError::EmptyDataset`] if `vectors` is empty.
    /// * [`AnnError::DimensionMismatch`] if the vectors have inconsistent
    ///   dimensionality.
    pub fn new(vectors: Vec<Vec<f32>>, metric: Metric) -> Result<Self> {
        if vectors.is_empty() {
            return Err(AnnError::EmptyDataset);
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
        Ok(FlatIndex {
            vectors,
            metric,
            dim,
        })
    }

    /// Exhaustively search for the `k` nearest neighbors of `query`.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] if the query's length differs
    /// from the index dimensionality.
    pub fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        if query.len() != self.dim {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let mut top = TopK::new(k);
        for (id, v) in self.vectors.iter().enumerate() {
            top.push(Neighbor::new(id, self.metric.distance(query, v)));
        }
        Ok(top.into_sorted_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_vectors() -> Vec<Vec<f32>> {
        (0..25)
            .map(|i| vec![(i % 5) as f32, (i / 5) as f32])
            .collect()
    }

    #[test]
    fn search_returns_exact_nearest_neighbors_in_order() {
        let index = FlatIndex::new(grid_vectors(), Metric::SquaredL2).unwrap();
        let hits = index.search(&[0.1, 0.1], 3).unwrap();
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits.len(), 3);
        assert!(hits.windows(2).all(|w| w[0].distance <= w[1].distance));
        let ids: Vec<usize> = hits.iter().map(|h| h.id).collect();
        assert!(
            ids.contains(&1) && ids.contains(&5),
            "axis neighbors must be next: {ids:?}"
        );
    }

    #[test]
    fn search_with_k_larger_than_database_returns_everything() {
        let index = FlatIndex::new(grid_vectors(), Metric::SquaredL2).unwrap();
        let hits = index.search(&[0.0, 0.0], 100).unwrap();
        assert_eq!(hits.len(), 25);
    }

    #[test]
    fn construction_validates_input() {
        assert!(matches!(
            FlatIndex::new(vec![], Metric::SquaredL2),
            Err(AnnError::EmptyDataset)
        ));
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            FlatIndex::new(ragged, Metric::SquaredL2),
            Err(AnnError::DimensionMismatch { .. })
        ));
        let index = FlatIndex::new(grid_vectors(), Metric::SquaredL2).unwrap();
        assert!(matches!(
            index.search(&[1.0], 1),
            Err(AnnError::DimensionMismatch { .. })
        ));
    }
}
