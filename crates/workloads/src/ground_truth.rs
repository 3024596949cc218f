//! Exact ground truth for generated datasets.

use serde::{Deserialize, Serialize};

use reis_ann::flat::FlatIndex;
use reis_ann::{Metric, Result};

use crate::synthetic::SyntheticDataset;

/// Exact top-k neighbors of every query of a dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundTruth {
    neighbors: Vec<Vec<usize>>,
}

impl GroundTruth {
    /// Compute the exact top-`k` neighbors of every query by exhaustive
    /// search.
    ///
    /// # Errors
    ///
    /// Propagates index-construction errors (e.g. an empty dataset).
    pub fn compute(dataset: &SyntheticDataset, k: usize) -> Result<Self> {
        let index = FlatIndex::new(dataset.vectors().to_vec(), Metric::SquaredL2)?;
        let neighbors = dataset
            .queries()
            .iter()
            .map(|q| Ok(index.search(q, k)?.into_iter().map(|n| n.id).collect()))
            .collect::<Result<Vec<Vec<usize>>>>()?;
        Ok(GroundTruth { neighbors })
    }

    /// Exact neighbors of query `q`.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.neighbors[q]
    }

    /// Number of queries covered.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the ground truth covers no queries.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DatasetProfile;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetProfile::nq().scaled(300).with_queries(6), 11)
    }

    #[test]
    fn ground_truth_has_one_list_per_query() {
        let data = dataset();
        let truth = GroundTruth::compute(&data, 10).unwrap();
        assert_eq!(truth.len(), 6);
        assert_eq!(truth.neighbors(0).len(), 10);
        assert!(!truth.is_empty());
    }
}
