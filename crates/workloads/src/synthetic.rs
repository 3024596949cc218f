//! Seeded synthetic dataset generation.
//!
//! The generator produces clustered embeddings whose structure mimics what
//! dense text-embedding corpora look like to an ANNS index: a set of latent
//! topic centroids, per-entry Gaussian-ish jitter around its topic, and
//! queries drawn near existing entries (so every query has well-defined
//! relevant neighbors). Documents are synthetic text chunks of the profile's
//! average size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::profile::DatasetProfile;

/// A generated dataset: embeddings, queries and document chunks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticDataset {
    profile: DatasetProfile,
    vectors: Vec<Vec<f32>>,
    queries: Vec<Vec<f32>>,
    documents: Vec<Vec<u8>>,
}

impl SyntheticDataset {
    /// Generate a dataset for `profile` with the given seed.
    ///
    /// The scaled entry count, query count, dimensionality and latent cluster
    /// count all come from the profile; the same seed always produces the
    /// same data.
    pub fn generate(profile: DatasetProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = profile.scaled_entries;
        let dim = profile.dim;
        let clusters = latent_topics(&profile);

        // Latent topic centroids.
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.5f32..0.5)).collect())
            .collect();

        let mut vectors = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % clusters;
            // Per-entry spread: some entries sit close to their topic
            // centroid, others drift towards neighbouring topics, which is
            // what makes the recall-versus-nprobe trade-off of real corpora
            // appear (neighbours are not always in the query's own cluster).
            let spread = rng.gen_range(0.5f32..1.5);
            let v: Vec<f32> = centers[c]
                .iter()
                .map(|&x| x + spread * rng.gen_range(-0.5f32..0.5))
                .collect();
            vectors.push(v);
        }

        // Queries: perturbations of existing entries, so ground truth is
        // meaningful and every query has close neighbors. The perturbation is
        // sized so a query's exact neighbors often straddle cluster
        // boundaries, giving IVF a realistic recall-versus-nprobe trade-off.
        let queries: Vec<Vec<f32>> = (0..profile.queries)
            .map(|q| {
                let base = &vectors[(q * 7919) % n];
                base.iter()
                    .map(|&x| x + rng.gen_range(-0.35f32..0.35))
                    .collect()
            })
            .collect();

        // Documents: synthetic text of roughly the profile's chunk size.
        let documents: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut text = format!("[{name} chunk {i}] ", name = profile.name,);
                let filler =
                    "retrieval augmented generation feeds external knowledge into the model. ";
                while text.len() < profile.doc_bytes.max(32) {
                    text.push_str(filler);
                }
                text.truncate(profile.doc_bytes.max(32));
                text.into_bytes()
            })
            .collect();

        SyntheticDataset {
            profile,
            vectors,
            queries,
            documents,
        }
    }

    /// The profile this dataset was generated from.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// Number of database entries.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Database embeddings.
    pub fn vectors(&self) -> &[Vec<f32>] {
        &self.vectors
    }

    /// Evaluation queries.
    pub fn queries(&self) -> &[Vec<f32>] {
        &self.queries
    }

    /// Document chunks, aligned with [`SyntheticDataset::vectors`].
    pub fn documents(&self) -> &[Vec<u8>] {
        &self.documents
    }

    /// Clone the documents (convenience for APIs that take ownership).
    pub fn documents_owned(&self) -> Vec<Vec<u8>> {
        self.documents.clone()
    }
}

/// Number of latent topics a dataset of `profile` is drawn around. Fewer
/// topics than IVF cells: an IVF index built with `scaled_nlist` cells then
/// has to split topics across cells, which is what gives real corpora their
/// recall-versus-nprobe trade-off.
fn latent_topics(profile: &DatasetProfile) -> usize {
    (profile.scaled_nlist / 8).max(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reis_ann::distance::squared_l2;

    #[test]
    fn generation_is_deterministic_and_matches_profile() {
        let profile = DatasetProfile::hotpotqa().scaled(500).with_queries(8);
        let a = SyntheticDataset::generate(profile.clone(), 42);
        let b = SyntheticDataset::generate(profile, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert_eq!(a.queries().len(), 8);
        assert_eq!(a.vectors()[0].len(), 1024);
        assert_eq!(a.documents().len(), 500);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let profile = DatasetProfile::nq().scaled(100);
        let a = SyntheticDataset::generate(profile.clone(), 1);
        let b = SyntheticDataset::generate(profile, 2);
        assert_ne!(a.vectors()[0], b.vectors()[0]);
    }

    #[test]
    fn entries_cluster_around_latent_topics() {
        let profile = DatasetProfile::quora().scaled(400);
        let data = SyntheticDataset::generate(profile, 7);
        // Entries of the same latent topic are closer than entries of
        // different topics, on average over many pairs.
        // Entry `i` is drawn around latent topic `i mod topics`.
        let topics = latent_topics(data.profile());
        let mut same_sum = 0.0f64;
        let mut same_n = 0usize;
        let mut diff_sum = 0.0f64;
        let mut diff_n = 0usize;
        for i in 0..100 {
            for j in (i + 1)..100 {
                let d = squared_l2(&data.vectors()[i], &data.vectors()[j]) as f64;
                if i % topics == j % topics {
                    same_sum += d;
                    same_n += 1;
                } else {
                    diff_sum += d;
                    diff_n += 1;
                }
            }
        }
        let same_avg = same_sum / same_n.max(1) as f64;
        let diff_avg = diff_sum / diff_n.max(1) as f64;
        assert!(
            same_avg < diff_avg,
            "intra-topic {same_avg} vs inter-topic {diff_avg}"
        );
    }

    #[test]
    fn documents_have_the_requested_size_and_identify_their_entry() {
        let profile = DatasetProfile::wiki_en().scaled(50);
        let data = SyntheticDataset::generate(profile, 3);
        assert_eq!(data.documents()[7].len(), data.profile().doc_bytes);
        let text = String::from_utf8(data.documents()[7].clone()).unwrap();
        assert!(text.contains("chunk 7"));
        assert_eq!(data.documents_owned().len(), 50);
    }

    #[test]
    fn queries_are_near_existing_entries() {
        let profile = DatasetProfile::fever().scaled(300).with_queries(5);
        let data = SyntheticDataset::generate(profile, 9);
        for query in data.queries() {
            let nearest = data
                .vectors()
                .iter()
                .map(|v| squared_l2(v, query))
                .fold(f32::INFINITY, f32::min);
            assert!(
                nearest < 100.0,
                "query should have a close neighbor, got {nearest}"
            );
        }
    }
}
