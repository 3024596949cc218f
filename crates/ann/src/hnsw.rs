//! Hierarchical Navigable Small World (HNSW) graphs.
//!
//! HNSW is the graph-based ANNS algorithm used by the prior ISP accelerators
//! REIS compares against (NDSearch) and by the CPU comparison of Fig. 5. Its
//! search walks a graph greedily, which is fast on a CPU with random-access
//! DRAM but produces the irregular access pattern that makes it a poor fit
//! for in-storage execution (Sec. 4.2) — which is why the comparator models
//! in `reis-baseline` charge it per-hop flash latencies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashSet};

use crate::distance::Metric;
use crate::error::{AnnError, Result};
use crate::topk::Neighbor;

/// Configuration of an HNSW index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Maximum number of links per node per layer (the paper's Fig. 5 uses
    /// M = 128 for the wiki_en comparison).
    pub m: usize,
    /// Size of the dynamic candidate list during construction.
    pub ef_construction: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Seed of the level-sampling RNG.
    pub seed: u64,
}

impl HnswConfig {
    /// A configuration with `m` links per node and sensible defaults.
    pub fn new(m: usize) -> Self {
        HnswConfig {
            m,
            ef_construction: 2 * m.max(8),
            metric: Metric::SquaredL2,
            seed: 0x45,
        }
    }
}

/// An HNSW graph index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HnswIndex {
    config: HnswConfig,
    dim: usize,
    vectors: Vec<Vec<f32>>,
    /// `links[node][level]` is the adjacency list of `node` at `level`.
    links: Vec<Vec<Vec<usize>>>,
    entry_point: Option<usize>,
    max_level: usize,
}

impl HnswIndex {
    /// Build an HNSW index over `vectors`.
    ///
    /// # Errors
    ///
    /// * [`AnnError::EmptyDataset`] if `vectors` is empty.
    /// * [`AnnError::InvalidParameter`] if `m` is zero.
    /// * [`AnnError::DimensionMismatch`] if the vectors have inconsistent
    ///   dimensionality.
    pub fn build(vectors: Vec<Vec<f32>>, config: HnswConfig) -> Result<Self> {
        if vectors.is_empty() {
            return Err(AnnError::EmptyDataset);
        }
        if config.m == 0 {
            return Err(AnnError::InvalidParameter {
                name: "m",
                message: "must be at least 1".into(),
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
        let mut index = HnswIndex {
            config,
            dim,
            vectors: Vec::with_capacity(vectors.len()),
            links: Vec::with_capacity(vectors.len()),
            entry_point: None,
            max_level: 0,
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        for v in vectors {
            index.insert(v, &mut rng);
        }
        Ok(index)
    }

    fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        self.config.metric.distance(a, b)
    }

    fn sample_level(&self, rng: &mut StdRng) -> usize {
        let mult = 1.0 / (self.config.m as f64).ln().max(0.1);
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        (-u.ln() * mult).floor() as usize
    }

    fn insert(&mut self, vector: Vec<f32>, rng: &mut StdRng) {
        let id = self.vectors.len();
        let level = self.sample_level(rng);
        self.vectors.push(vector);
        self.links.push(vec![Vec::new(); level + 1]);

        let Some(mut ep) = self.entry_point else {
            self.entry_point = Some(id);
            self.max_level = level;
            return;
        };

        let query = self.vectors[id].clone();
        // Greedy descent through the layers above the new node's level.
        for lc in (level + 1..=self.max_level).rev() {
            ep = self.greedy_closest(&query, ep, lc);
        }
        // Insert into every layer from min(level, max_level) down to 0.
        let mut entry_points = vec![ep];
        for lc in (0..=level.min(self.max_level)).rev() {
            let candidates =
                self.search_layer(&query, &entry_points, self.config.ef_construction, lc);
            let m_max = if lc == 0 {
                self.config.m * 2
            } else {
                self.config.m
            };
            let selected: Vec<usize> = candidates
                .iter()
                .take(self.config.m)
                .map(|n| n.id)
                .collect();
            for &neighbor in &selected {
                self.links[id][lc].push(neighbor);
                self.links[neighbor][lc].push(id);
                if self.links[neighbor][lc].len() > m_max {
                    self.prune(neighbor, lc, m_max);
                }
            }
            entry_points = if selected.is_empty() {
                entry_points
            } else {
                selected
            };
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry_point = Some(id);
        }
    }

    fn prune(&mut self, node: usize, level: usize, m_max: usize) {
        let base = self.vectors[node].clone();
        let mut neighbors: Vec<Neighbor> = self.links[node][level]
            .iter()
            .map(|&n| Neighbor::new(n, self.distance(&base, &self.vectors[n])))
            .collect();
        neighbors.sort();
        neighbors.dedup_by_key(|n| n.id);
        self.links[node][level] = neighbors.into_iter().take(m_max).map(|n| n.id).collect();
    }

    fn greedy_closest(&self, query: &[f32], start: usize, level: usize) -> usize {
        let mut current = start;
        let mut current_dist = self.distance(query, &self.vectors[current]);
        loop {
            let mut improved = false;
            if level < self.links[current].len() {
                for &n in &self.links[current][level] {
                    let d = self.distance(query, &self.vectors[n]);
                    if d < current_dist {
                        current = n;
                        current_dist = d;
                        improved = true;
                    }
                }
            }
            if !improved {
                return current;
            }
        }
    }

    fn search_layer(
        &self,
        query: &[f32],
        entry_points: &[usize],
        ef: usize,
        level: usize,
    ) -> Vec<Neighbor> {
        let mut visited: HashSet<usize> = HashSet::new();
        // Min-heap of candidates to expand (closest first).
        let mut candidates: BinaryHeap<std::cmp::Reverse<Neighbor>> = BinaryHeap::new();
        // Max-heap of the best ef results found so far (worst on top).
        let mut best: BinaryHeap<Neighbor> = BinaryHeap::new();
        for &ep in entry_points {
            if visited.insert(ep) {
                let n = Neighbor::new(ep, self.distance(query, &self.vectors[ep]));
                candidates.push(std::cmp::Reverse(n));
                best.push(n);
            }
        }
        while let Some(std::cmp::Reverse(current)) = candidates.pop() {
            let worst = best.peek().map(|n| n.distance).unwrap_or(f32::INFINITY);
            if current.distance > worst && best.len() >= ef {
                break;
            }
            if level < self.links[current.id].len() {
                for &n in &self.links[current.id][level] {
                    if visited.insert(n) {
                        let cand = Neighbor::new(n, self.distance(query, &self.vectors[n]));
                        let worst = best.peek().map(|x| x.distance).unwrap_or(f32::INFINITY);
                        if best.len() < ef || cand.distance < worst {
                            candidates.push(std::cmp::Reverse(cand));
                            best.push(cand);
                            if best.len() > ef {
                                best.pop();
                            }
                        }
                    }
                }
            }
        }
        let mut out: Vec<Neighbor> = best.into_vec();
        out.sort();
        out
    }

    /// Search for the `k` nearest neighbors of `query` with a candidate list
    /// of size `ef` (`ef >= k` for meaningful results).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for a query of the wrong
    /// dimensionality.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Result<Vec<Neighbor>> {
        if query.len() != self.dim {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let Some(mut ep) = self.entry_point else {
            return Ok(Vec::new());
        };
        for lc in (1..=self.max_level).rev() {
            ep = self.greedy_closest(query, ep, lc);
        }
        let results = self.search_layer(query, &[ep], ef.max(k), 0);
        Ok(results.into_iter().take(k).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::metrics::recall_at_k;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn finds_exact_match_for_indexed_vectors() {
        let data = random_data(300, 16, 1);
        let index = HnswIndex::build(data.clone(), HnswConfig::new(16)).unwrap();
        for qi in [0usize, 50, 123, 299] {
            let hits = index.search(&data[qi], 1, 32).unwrap();
            assert_eq!(hits[0].id, qi, "query {qi} should find itself");
            assert_eq!(hits[0].distance, 0.0);
        }
    }

    #[test]
    fn recall_against_exhaustive_search_is_high() {
        let data = random_data(800, 24, 2);
        let index = HnswIndex::build(data.clone(), HnswConfig::new(16)).unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::SquaredL2).unwrap();
        let mut recall = 0.0;
        let queries = 30usize;
        for qi in 0..queries {
            let query = &data[qi * 13];
            let truth: Vec<usize> = flat
                .search(query, 10)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let got: Vec<usize> = index
                .search(query, 10, 64)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            recall += recall_at_k(&got, &truth, 10);
        }
        recall /= queries as f64;
        assert!(recall > 0.85, "HNSW recall@10 = {recall} too low");
    }

    #[test]
    fn larger_ef_does_not_reduce_recall() {
        let data = random_data(500, 16, 3);
        let index = HnswIndex::build(data.clone(), HnswConfig::new(8)).unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::SquaredL2).unwrap();
        let mut recall_small = 0.0;
        let mut recall_large = 0.0;
        for qi in 0..20 {
            let query = &data[qi * 17];
            let truth: Vec<usize> = flat
                .search(query, 10)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let small: Vec<usize> = index
                .search(query, 10, 10)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let large: Vec<usize> = index
                .search(query, 10, 128)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            recall_small += recall_at_k(&small, &truth, 10);
            recall_large += recall_at_k(&large, &truth, 10);
        }
        assert!(recall_large >= recall_small);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(matches!(
            HnswIndex::build(vec![], HnswConfig::new(8)),
            Err(AnnError::EmptyDataset)
        ));
        let data = random_data(10, 4, 5);
        assert!(matches!(
            HnswIndex::build(data.clone(), HnswConfig::new(0)),
            Err(AnnError::InvalidParameter { name: "m", .. })
        ));
        let index = HnswIndex::build(data, HnswConfig::new(4)).unwrap();
        assert!(index.search(&[0.0; 5], 1, 8).is_err());
    }

    #[test]
    fn single_vector_index_returns_it() {
        let index = HnswIndex::build(vec![vec![1.0, 2.0]], HnswConfig::new(4)).unwrap();
        let hits = index.search(&[1.0, 2.1], 3, 8).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }
}
