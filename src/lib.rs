//! # REIS — Retrieval with In-Storage processing
//!
//! This is the facade crate of the REIS workspace. It re-exports every
//! sub-crate so that downstream users can depend on a single `reis` crate:
//!
//! * [`nand`] — NAND flash device simulator (geometry, page senses, OOB,
//!   SLC/TLC/ESP programming, peripheral logic, timing).
//! * [`ssd`] — SSD controller simulator (FTL, internal DRAM, embedded cores,
//!   hybrid SLC/TLC partitioning).
//! * [`ann`] — ANNS algorithm library (IVF, HNSW, LSH, flat search,
//!   binary/INT8/product quantization, reranking, recall metrics).
//! * [`core`] — the REIS system itself: database layout, embedding–document
//!   linkage, R-DB / R-IVF / TTL structures, the in-storage ANNS engine
//!   (with batch-parallel search and intra-query scan sharding) and the
//!   energy model.
//! * [`persist`] — durability: CRC-checksummed snapshots, the mutation
//!   write-ahead log, pluggable storage backends and fault injection
//!   (consumed through `core`'s `ReisSystem::{open, save, recover}`).
//! * [`cluster`] — multi-device scale-out: an aggregator fanning queries
//!   out over N leaf systems with an exact scatter–gather merge, routed
//!   mutations, per-leaf durability plus a cluster manifest, and modelled
//!   straggler hedging.
//! * [`baseline`] — comparator system models (CPU-Real, No-I/O, CPU+BQ, ICE,
//!   ICE-ESP, NDSearch, REIS-ASIC).
//! * [`workloads`] — synthetic dataset generators and ground-truth
//!   computation for the evaluation datasets.
//! * [`rag`] — end-to-end RAG pipeline latency model.
//! * [`telemetry`] — allocation-free metrics registry, per-query trace
//!   spans and Prometheus/JSON exporters, threaded through `core`,
//!   `persist`, `update` and `cluster` (zero overhead when disabled).
//!
//! # Quickstart
//!
//! ```
//! use reis::core::{ReisConfig, ReisSystem, VectorDatabase};
//! use reis::workloads::{DatasetProfile, SyntheticDataset};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small synthetic corpus and index it (IVF + quantization).
//! let dataset =
//!     SyntheticDataset::generate(DatasetProfile::hotpotqa().scaled(256).with_queries(1), 7);
//! let database = VectorDatabase::ivf(dataset.vectors(), dataset.documents_owned(), 8)?;
//!
//! // Deploy it into a simulated REIS SSD and run a top-10 IVF search.
//! let mut reis = ReisSystem::new(ReisConfig::ssd1());
//! let db = reis.deploy(&database)?;
//! let outcome = reis.ivf_search(db, &dataset.queries()[0], 10, 0.94)?;
//! assert_eq!(outcome.results.len(), 10);
//! # Ok(())
//! # }
//! ```

pub use reis_ann as ann;
pub use reis_baseline as baseline;
pub use reis_cluster as cluster;
pub use reis_core as core;
pub use reis_nand as nand;
pub use reis_persist as persist;
pub use reis_rag as rag;
pub use reis_ssd as ssd;
pub use reis_telemetry as telemetry;
pub use reis_workloads as workloads;
