//! Inverted File (IVF) indexes.
//!
//! IVF clusters the database into `nlist` groups, each represented by a
//! centroid. A query first finds the `nprobe` nearest centroids
//! (coarse-grained search), then scans only the embeddings of those clusters
//! (fine-grained search). Because the fine-grained scan streams through
//! contiguous cluster data, IVF is the ISP-friendly algorithm REIS builds on
//! (Sec. 4.2): the same cluster structure is used both by the CPU baselines
//! in this module and by the in-storage engine in `reis-core`.

use serde::{Deserialize, Serialize};

use crate::distance::Metric;
use crate::error::{AnnError, Result};
use crate::kmeans::{self, KMeansConfig};
use crate::quantize::{BinaryQuantizer, Int8Quantizer};
use crate::rerank;
use crate::topk::{Neighbor, TopK};
use crate::vector::{BinaryVector, Int8Vector};

/// Configuration of an IVF index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IvfConfig {
    /// Number of clusters (`nlist`). The paper uses 16384 for the full
    /// wiki_en dataset; scaled-down datasets use proportionally fewer.
    pub nlist: usize,
    /// Distance metric for both coarse and fine search.
    pub metric: Metric,
    /// Seed for centroid training.
    pub seed: u64,
    /// k-means iterations used to train the centroids.
    pub train_iterations: usize,
}

impl IvfConfig {
    /// A configuration with `nlist` clusters and defaults for the rest.
    pub fn new(nlist: usize) -> Self {
        IvfConfig {
            nlist,
            metric: Metric::SquaredL2,
            seed: 0x1F5,
            train_iterations: 15,
        }
    }

    /// Builder-style override of the metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Full-precision IVF index (the FAISS `IVFFlat` equivalent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvfIndex {
    config: IvfConfig,
    dim: usize,
    centroids: Vec<Vec<f32>>,
    lists: Vec<Vec<usize>>,
    assignments: Vec<usize>,
    vectors: Vec<Vec<f32>>,
}

impl IvfIndex {
    /// Build an IVF index over `vectors`.
    ///
    /// # Errors
    ///
    /// * [`AnnError::EmptyDataset`] if `vectors` is empty.
    /// * [`AnnError::InvalidParameter`] if `nlist` is zero or larger than the
    ///   number of vectors.
    /// * [`AnnError::DimensionMismatch`] if the vectors have inconsistent
    ///   dimensionality.
    /// * [`AnnError::NonFinite`] for the first vector holding a NaN or an
    ///   infinite component.
    pub fn build(vectors: Vec<Vec<f32>>, config: IvfConfig) -> Result<Self> {
        if vectors.is_empty() {
            return Err(AnnError::EmptyDataset);
        }
        if config.nlist == 0 || config.nlist > vectors.len() {
            return Err(AnnError::InvalidParameter {
                name: "nlist",
                message: format!("nlist = {} must be in 1..={}", config.nlist, vectors.len()),
            });
        }
        let dim = vectors[0].len();
        let model = kmeans::train(
            &vectors,
            &KMeansConfig::new(config.nlist)
                .with_seed(config.seed)
                .with_max_iterations(config.train_iterations),
        )?;
        let mut lists = vec![Vec::new(); config.nlist];
        for (id, &cluster) in model.assignments.iter().enumerate() {
            lists[cluster].push(id);
        }
        Ok(IvfIndex {
            config,
            dim,
            centroids: model.centroids,
            lists,
            assignments: model.assignments,
            vectors,
        })
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the index is empty (never true for a constructed index).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Cluster centroids.
    pub fn centroids(&self) -> &[Vec<f32>] {
        &self.centroids
    }

    /// Per-cluster member id lists.
    pub fn lists(&self) -> &[Vec<usize>] {
        &self.lists
    }

    /// Cluster assignment of every indexed vector.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// The indexed vectors (id order).
    pub fn vectors(&self) -> &[Vec<f32>] {
        &self.vectors
    }

    /// Ids of the `nprobe` clusters nearest to `query` (the coarse-grained
    /// search step).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for a query of the wrong
    /// dimensionality.
    pub fn nearest_clusters(&self, query: &[f32], nprobe: usize) -> Result<Vec<usize>> {
        if query.len() != self.dim {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let mut top = TopK::new(nprobe.max(1));
        for (cluster, centroid) in self.centroids.iter().enumerate() {
            top.push(Neighbor::new(
                cluster,
                self.config.metric.distance(query, centroid),
            ));
        }
        Ok(top.into_sorted_vec().into_iter().map(|n| n.id).collect())
    }

    /// Search for the `k` nearest neighbors of `query`, probing `nprobe`
    /// clusters.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for a query of the wrong
    /// dimensionality.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Result<Vec<Neighbor>> {
        let clusters = self.nearest_clusters(query, nprobe)?;
        let mut top = TopK::new(k);
        for cluster in clusters {
            for &id in &self.lists[cluster] {
                top.push(Neighbor::new(
                    id,
                    self.config.metric.distance(query, &self.vectors[id]),
                ));
            }
        }
        Ok(top.into_sorted_vec())
    }

    /// Expected number of fine-grained distance computations for a query
    /// probing `nprobe` clusters (average cluster size × nprobe), plus the
    /// `nlist` coarse computations. Used by analytic cost models.
    pub fn expected_distance_computations(&self, nprobe: usize) -> f64 {
        let avg_list = self.vectors.len() as f64 / self.nlist() as f64;
        self.nlist() as f64 + nprobe.min(self.nlist()) as f64 * avg_list
    }
}

/// Binary-quantized IVF index with INT8 reranking — the algorithm REIS runs
/// in storage, here in its CPU form (also the "BQ IVF" series of Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvfBqIndex {
    dim: usize,
    metric: Metric,
    centroids: Vec<Vec<f32>>,
    centroid_binary: Vec<BinaryVector>,
    lists: Vec<Vec<usize>>,
    assignments: Vec<usize>,
    binary: Vec<BinaryVector>,
    int8: Vec<Int8Vector>,
    binary_quantizer: BinaryQuantizer,
    int8_quantizer: Int8Quantizer,
}

impl IvfBqIndex {
    /// Build the quantized index from a trained full-precision [`IvfIndex`].
    ///
    /// # Errors
    ///
    /// Propagates quantizer training errors (empty dataset, dimension
    /// mismatches).
    pub fn from_ivf(ivf: &IvfIndex) -> Result<Self> {
        let binary_quantizer = BinaryQuantizer::fit(ivf.vectors())?;
        let int8_quantizer = Int8Quantizer::fit(ivf.vectors())?;
        let binary = binary_quantizer.quantize_all(ivf.vectors())?;
        let int8 = int8_quantizer.quantize_all(ivf.vectors())?;
        let centroid_binary = ivf
            .centroids()
            .iter()
            .map(|c| binary_quantizer.quantize(c))
            .collect::<Result<Vec<_>>>()?;
        Ok(IvfBqIndex {
            dim: ivf.dim(),
            metric: ivf.config.metric,
            centroids: ivf.centroids().to_vec(),
            centroid_binary,
            lists: ivf.lists().to_vec(),
            assignments: ivf.assignments().to_vec(),
            binary,
            int8,
            binary_quantizer,
            int8_quantizer,
        })
    }

    /// Build the quantized index directly from raw vectors.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IvfIndex::build`].
    pub fn build(vectors: Vec<Vec<f32>>, config: IvfConfig) -> Result<Self> {
        let ivf = IvfIndex::build(vectors, config)?;
        Self::from_ivf(&ivf)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.binary.len()
    }

    /// Whether the index is empty (never true for a constructed index).
    pub fn is_empty(&self) -> bool {
        self.binary.is_empty()
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Full-precision cluster centroids.
    pub fn centroids(&self) -> &[Vec<f32>] {
        &self.centroids
    }

    /// Binary-quantized cluster centroids (what the in-storage coarse search
    /// compares against).
    pub fn centroid_binary(&self) -> &[BinaryVector] {
        &self.centroid_binary
    }

    /// Per-cluster member id lists.
    pub fn lists(&self) -> &[Vec<usize>] {
        &self.lists
    }

    /// Cluster assignment of every indexed vector.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Binary-quantized database vectors (id order).
    pub fn binary_vectors(&self) -> &[BinaryVector] {
        &self.binary
    }

    /// INT8 database vectors (id order).
    pub fn int8_vectors(&self) -> &[Int8Vector] {
        &self.int8
    }

    /// The binary quantizer fitted to the database.
    pub fn binary_quantizer(&self) -> &BinaryQuantizer {
        &self.binary_quantizer
    }

    /// The INT8 quantizer fitted to the database.
    pub fn int8_quantizer(&self) -> &Int8Quantizer {
        &self.int8_quantizer
    }

    /// Search with binary coarse + fine search and INT8 reranking, the exact
    /// flow REIS executes in storage: Hamming distance against binary
    /// centroids, Hamming scan of the probed clusters, then INT8 rescoring of
    /// the top `rerank_factor × k` candidates.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for a query of the wrong
    /// dimensionality.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rerank_factor: usize,
    ) -> Result<Vec<Neighbor>> {
        if query.len() != self.dim {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let query_binary = self.binary_quantizer.quantize(query)?;
        let query_int8 = self.int8_quantizer.quantize(query)?;

        // Coarse-grained search over binary centroids.
        let mut coarse = TopK::new(nprobe.max(1));
        for (cluster, centroid) in self.centroid_binary.iter().enumerate() {
            coarse.push(Neighbor::new(
                cluster,
                query_binary.hamming_distance(centroid) as f32,
            ));
        }

        // Fine-grained Hamming scan of the probed clusters.
        let candidate_count = (rerank_factor.max(1)) * k.max(1);
        let mut fine = TopK::new(candidate_count);
        for cluster in coarse.into_sorted_vec() {
            for &id in &self.lists[cluster.id] {
                fine.push(Neighbor::new(
                    id,
                    query_binary.hamming_distance(&self.binary[id]) as f32,
                ));
            }
        }
        let candidates: Vec<usize> = fine.into_sorted_vec().into_iter().map(|n| n.id).collect();

        // INT8 reranking of the surviving candidates.
        rerank::rerank_int8(&query_int8, &candidates, &self.int8, k)
    }

    /// Coarse + fine search using full-precision centroids for the coarse
    /// step (the software configuration FAISS uses for BQ IVF), otherwise
    /// identical to [`IvfBqIndex::search`].
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for a query of the wrong
    /// dimensionality.
    pub fn search_float_coarse(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rerank_factor: usize,
    ) -> Result<Vec<Neighbor>> {
        if query.len() != self.dim {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let query_binary = self.binary_quantizer.quantize(query)?;
        let query_int8 = self.int8_quantizer.quantize(query)?;
        let mut coarse = TopK::new(nprobe.max(1));
        for (cluster, centroid) in self.centroids.iter().enumerate() {
            coarse.push(Neighbor::new(
                cluster,
                self.metric.distance(query, centroid),
            ));
        }
        let candidate_count = (rerank_factor.max(1)) * k.max(1);
        let mut fine = TopK::new(candidate_count);
        for cluster in coarse.into_sorted_vec() {
            for &id in &self.lists[cluster.id] {
                fine.push(Neighbor::new(
                    id,
                    query_binary.hamming_distance(&self.binary[id]) as f32,
                ));
            }
        }
        let candidates: Vec<usize> = fine.into_sorted_vec().into_iter().map(|n| n.id).collect();
        rerank::rerank_int8(&query_int8, &candidates, &self.int8, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::metrics::recall_at_k;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Clustered synthetic dataset: `clusters` Gaussian-ish blobs in `dim`
    /// dimensions.
    fn clustered_data(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        (0..n)
            .map(|i| {
                let c = &centers[i % clusters];
                c.iter().map(|&x| x + rng.gen_range(-0.3..0.3)).collect()
            })
            .collect()
    }

    #[test]
    fn ivf_groups_vectors_into_lists_covering_everything() {
        let data = clustered_data(300, 8, 6, 1);
        let index = IvfIndex::build(data.clone(), IvfConfig::new(6)).unwrap();
        assert_eq!(index.nlist(), 6);
        assert_eq!(index.len(), 300);
        let total: usize = index.lists().iter().map(Vec::len).sum();
        assert_eq!(total, 300, "every vector belongs to exactly one list");
        for (id, &cluster) in index.assignments().iter().enumerate() {
            assert!(index.lists()[cluster].contains(&id));
        }
    }

    #[test]
    fn probing_all_clusters_matches_exhaustive_search() {
        let data = clustered_data(200, 6, 4, 2);
        let index = IvfIndex::build(data.clone(), IvfConfig::new(4)).unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::SquaredL2).unwrap();
        for qi in [0usize, 17, 63, 150] {
            let query = &data[qi];
            let ivf_hits: Vec<usize> = index
                .search(query, 5, 4)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let flat_hits: Vec<usize> = flat
                .search(query, 5)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            assert_eq!(ivf_hits, flat_hits, "query {qi}");
        }
    }

    #[test]
    fn small_nprobe_trades_recall_for_fewer_computations() {
        let data = clustered_data(600, 12, 12, 3);
        let index = IvfIndex::build(data.clone(), IvfConfig::new(12)).unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::SquaredL2).unwrap();
        let mut recall_1 = 0.0;
        let mut recall_all = 0.0;
        let queries = 20usize;
        for qi in 0..queries {
            let query = &data[qi * 7];
            let truth: Vec<usize> = flat
                .search(query, 10)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let got1: Vec<usize> = index
                .search(query, 10, 1)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let gotall: Vec<usize> = index
                .search(query, 10, 12)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            recall_1 += recall_at_k(&got1, &truth, 10);
            recall_all += recall_at_k(&gotall, &truth, 10);
        }
        recall_1 /= queries as f64;
        recall_all /= queries as f64;
        assert!(
            recall_all > 0.999,
            "full probe recall should be exact, got {recall_all}"
        );
        assert!(recall_1 <= recall_all);
        assert!(index.expected_distance_computations(1) < index.expected_distance_computations(12));
    }

    #[test]
    fn bq_index_recovers_high_recall_with_reranking() {
        let data = clustered_data(500, 64, 10, 4);
        let ivf = IvfIndex::build(data.clone(), IvfConfig::new(10)).unwrap();
        let bq = IvfBqIndex::from_ivf(&ivf).unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::SquaredL2).unwrap();
        let queries = 20usize;
        let mut recall = 0.0;
        for qi in 0..queries {
            let query = &data[qi * 11];
            let truth: Vec<usize> = flat
                .search(query, 10)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let got: Vec<usize> = bq
                .search(query, 10, 10, 10)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            recall += recall_at_k(&got, &truth, 10);
        }
        recall /= queries as f64;
        // On this synthetic 64-d dataset the within-cluster spread is close to
        // the INT8 quantization step, so reranking cannot fully restore the
        // exact ordering; the paper's 0.96+ figures use 1024-d embeddings.
        assert!(recall > 0.75, "BQ + rerank recall@10 = {recall} too low");
    }

    #[test]
    fn bq_float_coarse_behaves_like_binary_coarse_on_separated_clusters() {
        let data = clustered_data(300, 32, 6, 5);
        let bq = IvfBqIndex::build(data.clone(), IvfConfig::new(6)).unwrap();
        let query = &data[42];
        let a: Vec<usize> = bq
            .search(query, 5, 6, 10)
            .unwrap()
            .iter()
            .map(|n| n.id)
            .collect();
        let b: Vec<usize> = bq
            .search_float_coarse(query, 5, 6, 10)
            .unwrap()
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(
            a, b,
            "probing all clusters makes the coarse step irrelevant"
        );
        assert!(a.contains(&42));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let data = clustered_data(10, 4, 2, 6);
        assert!(matches!(
            IvfIndex::build(data.clone(), IvfConfig::new(0)),
            Err(AnnError::InvalidParameter { name: "nlist", .. })
        ));
        assert!(matches!(
            IvfIndex::build(data.clone(), IvfConfig::new(11)),
            Err(AnnError::InvalidParameter { name: "nlist", .. })
        ));
        assert!(matches!(
            IvfIndex::build(vec![], IvfConfig::new(1)),
            Err(AnnError::EmptyDataset)
        ));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = data.clone();
            poisoned[7][1] = bad;
            let error = AnnError::NonFinite {
                row: 7,
                component: 1,
            };
            assert_eq!(
                IvfIndex::build(poisoned.clone(), IvfConfig::new(2)),
                Err(error.clone())
            );
            assert_eq!(IvfBqIndex::build(poisoned, IvfConfig::new(2)), Err(error));
        }
        let index = IvfIndex::build(data, IvfConfig::new(2)).unwrap();
        assert!(
            index.search(&[1.0, 2.0], 3, 1).is_err(),
            "wrong query dimensionality"
        );
    }

    #[test]
    fn accessors_expose_layout_for_the_storage_engine() {
        let data = clustered_data(120, 16, 4, 7);
        let bq = IvfBqIndex::build(data, IvfConfig::new(4)).unwrap();
        assert_eq!(bq.binary_vectors().len(), 120);
        assert_eq!(bq.int8_vectors().len(), 120);
        assert_eq!(bq.centroid_binary().len(), 4);
        assert_eq!(bq.lists().len(), 4);
        assert_eq!(bq.assignments().len(), 120);
        assert_eq!(bq.binary_quantizer().dim(), 16);
        assert_eq!(bq.int8_quantizer().dim(), 16);
        assert_eq!(bq.dim(), 16);
        assert_eq!(bq.nlist(), 4);
        assert!(!bq.is_empty());
    }
}
