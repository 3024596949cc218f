//! # reis-ann — ANNS algorithms, quantization and retrieval metrics
//!
//! The algorithm substrate of the REIS reproduction:
//!
//! * [`vector`] / [`distance`] — embedding representations (f32, binary,
//!   INT8) and distance metrics.
//! * [`quantize`] — binary quantization (the representation the in-flash
//!   engine consumes), INT8 scalar quantization (reranking) and product
//!   quantization (the Fig. 5 comparison point).
//! * [`kmeans`] — centroid training for IVF and PQ.
//! * [`flat`] — exhaustive f32 search (ground truth and the "BF" configuration).
//! * [`ivf`] — the Inverted File index, including the binary-quantized +
//!   INT8-reranked variant REIS executes in storage.
//! * [`hnsw`] / [`lsh`] — the graph- and hash-based alternatives evaluated in
//!   Fig. 5 and used by the prior-work comparator models.
//! * [`rerank`] — INT8 / f32 rescoring of quantized candidates.
//! * [`topk`] — quickselect and top-k selection primitives (the kernels the
//!   SSD's embedded cores run).
//! * [`metrics`] — Recall@k.
//!
//! # Example
//!
//! ```
//! use reis_ann::ivf::{IvfBqIndex, IvfConfig};
//!
//! # fn main() -> Result<(), reis_ann::error::AnnError> {
//! let vectors: Vec<Vec<f32>> = (0..200)
//!     .map(|i| (0..32).map(|d| ((i * 7 + d) % 13) as f32 - 6.0).collect())
//!     .collect();
//! let index = IvfBqIndex::build(vectors.clone(), IvfConfig::new(8))?;
//! let hits = index.search(&vectors[5], 10, 4, 10)?;
//! assert_eq!(hits[0].id, 5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distance;
pub mod error;
pub mod flat;
/// The k-means golden fixture's generators, for the unit tests that check
/// build passes at forced thread counts.
#[cfg(test)]
#[path = "../tests/golden/mod.rs"]
mod golden;
pub mod hnsw;
pub mod ivf;
pub mod kmeans;
pub mod lsh;
pub mod metrics;
mod parallel;
pub mod quantize;
pub mod rerank;
pub mod topk;
pub mod vector;

pub use distance::Metric;
pub use error::{AnnError, Result};
pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use ivf::{IvfBqIndex, IvfConfig, IvfIndex};
pub use lsh::{LshConfig, LshIndex};
pub use quantize::{BinaryQuantizer, Int8Quantizer, ProductQuantizer, ProductQuantizerConfig};
pub use topk::Neighbor;
pub use vector::{BinaryVector, Int8Vector};
