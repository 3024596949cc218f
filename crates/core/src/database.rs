//! The host-side vector database handed to `DB_Deploy` / `IVF_Deploy`.
//!
//! A [`VectorDatabase`] bundles everything REIS needs to lay a RAG corpus out
//! in flash: the binary and INT8 quantized embeddings, the document chunks,
//! and (for IVF deployments) the cluster structure. It is built from raw
//! `f32` embeddings plus documents, mirroring the indexing stage of the RAG
//! pipeline which runs offline on the host.

use serde::{Deserialize, Serialize};

use reis_ann::ivf::{IvfBqIndex, IvfConfig};
use reis_ann::quantize::{BinaryQuantizer, Int8Quantizer};
use reis_ann::vector::{BinaryVector, Int8Vector};

use crate::error::{ReisError, Result};

/// Cluster structure of an IVF-organised database (the `CI` argument of
/// `IVF_Deploy`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterInfo {
    /// Binary-quantized centroid of every cluster.
    pub centroids: Vec<BinaryVector>,
    /// Member ids (into the database entry order) of every cluster.
    pub lists: Vec<Vec<usize>>,
}

impl ClusterInfo {
    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }
}

/// A complete vector database ready for deployment into REIS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorDatabase {
    dim: usize,
    binary: Vec<BinaryVector>,
    int8: Vec<Int8Vector>,
    documents: Vec<Vec<u8>>,
    binary_quantizer: BinaryQuantizer,
    int8_quantizer: Int8Quantizer,
    clusters: Option<ClusterInfo>,
}

impl VectorDatabase {
    /// Build a flat (non-IVF) database from raw `f32` embeddings and their
    /// document chunks.
    ///
    /// # Errors
    ///
    /// * [`ReisError::MalformedDatabase`] if the corpus is empty or the
    ///   number of documents does not match the number of embeddings.
    /// * Quantizer training errors for inconsistent dimensionality, and
    ///   [`AnnError::NonFinite`](reis_ann::AnnError::NonFinite) for the
    ///   first embedding holding a NaN or an infinite component.
    pub fn flat(vectors: &[Vec<f32>], documents: Vec<Vec<u8>>) -> Result<Self> {
        Self::validate(vectors, &documents)?;
        let binary_quantizer = BinaryQuantizer::fit(vectors)?;
        let int8_quantizer = Int8Quantizer::fit(vectors)?;
        Ok(VectorDatabase {
            dim: vectors[0].len(),
            binary: binary_quantizer.quantize_all(vectors)?,
            int8: int8_quantizer.quantize_all(vectors)?,
            documents,
            binary_quantizer,
            int8_quantizer,
            clusters: None,
        })
    }

    /// Build an IVF-organised database with `nlist` clusters from raw `f32`
    /// embeddings and their document chunks.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VectorDatabase::flat`], plus IVF construction
    /// errors (e.g. `nlist` larger than the corpus).
    pub fn ivf(vectors: &[Vec<f32>], documents: Vec<Vec<u8>>, nlist: usize) -> Result<Self> {
        Self::validate(vectors, &documents)?;
        let index = IvfBqIndex::build(vectors.to_vec(), IvfConfig::new(nlist))?;
        Ok(Self::from_ivf_index(&index, documents))
    }

    /// Build a flat database from raw `f32` embeddings using *given*
    /// quantizers instead of fitting fresh ones.
    ///
    /// The online update path freezes a deployment's quantizers (every
    /// mutation is encoded with them), so a reference rebuild of the same
    /// logical corpus — the ground truth the mutation property tests compare
    /// against — must quantize with the original quantizers, not ones
    /// re-fitted to the surviving vectors.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VectorDatabase::flat`], plus quantization errors
    /// for vectors whose dimensionality does not match the quantizers.
    pub fn flat_with_quantizers(
        vectors: &[Vec<f32>],
        documents: Vec<Vec<u8>>,
        binary_quantizer: BinaryQuantizer,
        int8_quantizer: Int8Quantizer,
    ) -> Result<Self> {
        Self::validate(vectors, &documents)?;
        Ok(VectorDatabase {
            dim: binary_quantizer.dim(),
            binary: binary_quantizer.quantize_all(vectors)?,
            int8: int8_quantizer.quantize_all(vectors)?,
            documents,
            binary_quantizer,
            int8_quantizer,
            clusters: None,
        })
    }

    /// Build an IVF-organised database from raw `f32` embeddings with
    /// *given* quantizers and an explicit cluster structure (centroids and
    /// member lists), instead of training k-means.
    ///
    /// Companion of [`VectorDatabase::flat_with_quantizers`] for IVF
    /// deployments: a reference rebuild after online mutations must reuse
    /// the original centroids and the mutated system's cluster assignment to
    /// be comparable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VectorDatabase::flat_with_quantizers`], plus
    /// [`ReisError::MalformedDatabase`] if the member lists are not a
    /// partition of the entry indices.
    pub fn ivf_with_clusters(
        vectors: &[Vec<f32>],
        documents: Vec<Vec<u8>>,
        binary_quantizer: BinaryQuantizer,
        int8_quantizer: Int8Quantizer,
        clusters: ClusterInfo,
    ) -> Result<Self> {
        Self::validate(vectors, &documents)?;
        check_partition(&clusters, vectors.len())?;
        Ok(VectorDatabase {
            dim: binary_quantizer.dim(),
            binary: binary_quantizer.quantize_all(vectors)?,
            int8: int8_quantizer.quantize_all(vectors)?,
            documents,
            binary_quantizer,
            int8_quantizer,
            clusters: Some(clusters),
        })
    }

    /// Rebuild a database from *already-quantized* parts — the snapshot
    /// recovery path.
    ///
    /// A durable snapshot stores the binary/INT8 codes read back from
    /// flash, not the original `f32` embeddings (REIS never keeps those
    /// after deployment), so recovery cannot go through the quantizing
    /// constructors: it reassembles the database from the codes directly.
    /// Cluster member lists, when given, must partition the entry indices
    /// exactly as [`VectorDatabase::ivf_with_clusters`] requires.
    ///
    /// # Errors
    ///
    /// [`ReisError::MalformedDatabase`] if the corpus is empty, the
    /// binary/INT8/document counts disagree, any code has the wrong byte
    /// width for `dim`, or the cluster lists are not a partition.
    pub fn from_quantized_parts(
        dim: usize,
        binary: Vec<BinaryVector>,
        int8: Vec<Int8Vector>,
        documents: Vec<Vec<u8>>,
        binary_quantizer: BinaryQuantizer,
        int8_quantizer: Int8Quantizer,
        clusters: Option<ClusterInfo>,
    ) -> Result<Self> {
        if binary.is_empty() {
            return Err(ReisError::MalformedDatabase("no embeddings".into()));
        }
        if binary.len() != int8.len() || binary.len() != documents.len() {
            return Err(ReisError::MalformedDatabase(format!(
                "{} binary codes, {} INT8 codes, {} documents",
                binary.len(),
                int8.len(),
                documents.len()
            )));
        }
        if binary_quantizer.dim() != dim || int8_quantizer.dim() != dim {
            return Err(ReisError::MalformedDatabase(format!(
                "quantizers cover {} / {} dimensions, database stores {dim}",
                binary_quantizer.dim(),
                int8_quantizer.dim()
            )));
        }
        for v in &binary {
            if v.dim() != dim {
                return Err(ReisError::MalformedDatabase(format!(
                    "binary code of {} dimensions in a {dim}-dimensional database",
                    v.dim()
                )));
            }
        }
        for v in &int8 {
            if v.as_slice().len() != dim {
                return Err(ReisError::MalformedDatabase(format!(
                    "INT8 code of {} dimensions in a {dim}-dimensional database",
                    v.as_slice().len()
                )));
            }
        }
        if let Some(info) = &clusters {
            check_partition(info, binary.len())?;
        }
        Ok(VectorDatabase {
            dim,
            binary,
            int8,
            documents,
            binary_quantizer,
            int8_quantizer,
            clusters,
        })
    }

    /// Build an IVF-organised database from an already-trained
    /// [`IvfBqIndex`] (useful when the same index also drives a CPU
    /// baseline, so both systems search identical clusters).
    pub fn from_ivf_index(index: &IvfBqIndex, documents: Vec<Vec<u8>>) -> Self {
        VectorDatabase {
            dim: index.dim(),
            binary: index.binary_vectors().to_vec(),
            int8: index.int8_vectors().to_vec(),
            documents,
            binary_quantizer: index.binary_quantizer().clone(),
            int8_quantizer: index.int8_quantizer().clone(),
            clusters: Some(ClusterInfo {
                centroids: index.centroid_binary().to_vec(),
                lists: index.lists().to_vec(),
            }),
        }
    }

    fn validate(vectors: &[Vec<f32>], documents: &[Vec<u8>]) -> Result<()> {
        if vectors.is_empty() {
            return Err(ReisError::MalformedDatabase("no embeddings".into()));
        }
        if vectors.len() != documents.len() {
            return Err(ReisError::MalformedDatabase(format!(
                "{} embeddings but {} documents",
                vectors.len(),
                documents.len()
            )));
        }
        Ok(())
    }

    /// Number of entries (embedding/document pairs).
    pub fn len(&self) -> usize {
        self.binary.len()
    }

    /// Whether the database holds no entries (never true for a constructed
    /// database).
    pub fn is_empty(&self) -> bool {
        self.binary.is_empty()
    }

    /// Binary embeddings in entry order.
    pub fn binary(&self) -> &[BinaryVector] {
        &self.binary
    }

    /// INT8 embeddings in entry order.
    pub fn int8(&self) -> &[Int8Vector] {
        &self.int8
    }

    /// Document chunks in entry order.
    pub fn documents(&self) -> &[Vec<u8>] {
        &self.documents
    }

    /// The binary quantizer fitted to the corpus (used by the host to encode
    /// queries the same way).
    pub fn binary_quantizer(&self) -> &BinaryQuantizer {
        &self.binary_quantizer
    }

    /// The INT8 quantizer fitted to the corpus.
    pub fn int8_quantizer(&self) -> &Int8Quantizer {
        &self.int8_quantizer
    }

    /// Cluster structure, if the database is IVF-organised.
    pub fn clusters(&self) -> Option<&ClusterInfo> {
        self.clusters.as_ref()
    }

    /// Byte footprint of one binary embedding.
    pub fn binary_bytes(&self) -> usize {
        self.dim.div_ceil(8)
    }

    /// Byte footprint of one INT8 embedding.
    pub fn int8_bytes(&self) -> usize {
        self.dim
    }

    /// Size of the largest document chunk, in bytes.
    pub fn max_document_bytes(&self) -> usize {
        self.documents.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Check that the cluster member lists partition the entry indices
/// `0..entries`: every index in exactly one list.
fn check_partition(clusters: &ClusterInfo, entries: usize) -> Result<()> {
    let mut seen = vec![false; entries];
    for &member in clusters.lists.iter().flatten() {
        if member >= entries || seen[member] {
            return Err(ReisError::MalformedDatabase(format!(
                "cluster member {member} is out of range or duplicated"
            )));
        }
        seen[member] = true;
    }
    if seen.iter().any(|&s| !s) {
        return Err(ReisError::MalformedDatabase(
            "cluster lists do not cover every entry".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| (((i * 13 + d * 7) % 29) as f32 - 14.0) / 7.0)
                    .collect()
            })
            .collect()
    }

    fn documents(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("document chunk {i}").into_bytes())
            .collect()
    }

    #[test]
    fn flat_database_quantizes_every_entry() {
        let db = VectorDatabase::flat(&vectors(50, 64), documents(50)).unwrap();
        assert_eq!(db.len(), 50);
        assert_eq!(db.dim, 64);
        assert_eq!(db.binary().len(), 50);
        assert_eq!(db.int8().len(), 50);
        assert_eq!(db.binary_bytes(), 8);
        assert_eq!(db.int8_bytes(), 64);
        assert!(db.clusters().is_none());
        assert!(db.max_document_bytes() > 0);
        assert!(!db.is_empty());
    }

    #[test]
    fn ivf_database_carries_cluster_info_covering_all_entries() {
        let db = VectorDatabase::ivf(&vectors(120, 32), documents(120), 6).unwrap();
        let clusters = db.clusters().expect("IVF database must carry clusters");
        assert_eq!(clusters.nlist(), 6);
        let covered: usize = clusters.lists.iter().map(Vec::len).sum();
        assert_eq!(covered, 120);
    }

    #[test]
    fn mismatched_documents_are_rejected() {
        assert!(matches!(
            VectorDatabase::flat(&vectors(10, 8), documents(9)),
            Err(ReisError::MalformedDatabase(_))
        ));
        assert!(matches!(
            VectorDatabase::flat(&[], documents(0)),
            Err(ReisError::MalformedDatabase(_))
        ));
    }

    #[test]
    fn query_quantization_matches_database_quantization() {
        let vecs = vectors(40, 16);
        let db = VectorDatabase::flat(&vecs, documents(40)).unwrap();
        let q = db.binary_quantizer().quantize(&vecs[7]).unwrap();
        assert_eq!(q.hamming_distance(&db.binary()[7]), 0);
    }
}
