//! # reis-core — the REIS in-storage retrieval system
//!
//! The paper's primary contribution, built on the `reis-nand` flash device
//! model, the `reis-ssd` controller and the `reis-ann` algorithm library:
//!
//! * [`database`] — the host-side [`database::VectorDatabase`] handed to
//!   `DB_Deploy` / `IVF_Deploy`.
//! * [`layout`] — how a database maps onto flash pages (embedding /
//!   INT8 / document regions, mini-pages, OOB linkage capacity).
//! * [`deploy`] — deployment: cluster-contiguous storage order, OOB
//!   embedding-to-document linkage, the R-DB record and the R-IVF array.
//! * [`records`] — the controller-DRAM structures (R-IVF, Temporal Top
//!   Lists).
//! * [`scan`] — the scan core: the one executor behind every search entry
//!   point (Input Broadcasting, in-plane XOR + fail-bit counting, distance
//!   filtering, adaptive thresholds, intra-query sharding — see
//!   [`config::ScanParallelism`] — and the query lifecycle around them). A
//!   batch senses each probed page once for all its queries; a single
//!   search is a batch of one. The same lifecycle runs quickselect, INT8
//!   reranking and document retrieval after the scan.
//! * [`leaf`] — the scale-out hooks ([`system::ReisSystem::leaf_query`])
//!   and [`leaf::merge_top_k`], the one rule that ranks rerank candidates
//!   on a device (one leaf) and on a cluster aggregator (many).
//! * [`perf`] — the latency model (plane/die/channel parallelism,
//!   pipelining, MPIBC).
//! * [`energy`] — the per-operation energy model.
//! * [`system`] — [`system::ReisSystem`], the host-facing API of Table 1.
//! * [`pipeline`] — the asynchronous request front door: one
//!   [`pipeline::Pipeline`] over the small [`pipeline::Backend`] contract,
//!   serving a device here and a cluster in `reis-cluster`.
//! * [`config`] — REIS-SSD1 / REIS-SSD2 configurations and the optimization
//!   toggles of the Fig. 9 sensitivity study.
//!
//! # Example
//!
//! ```
//! use reis_core::{ReisConfig, ReisSystem, VectorDatabase};
//!
//! # fn main() -> Result<(), reis_core::ReisError> {
//! let vectors: Vec<Vec<f32>> = (0..96)
//!     .map(|i| (0..64).map(|d| (((i * 7 + d) % 13) as f32 - 6.0) / 3.0).collect())
//!     .collect();
//! let documents: Vec<Vec<u8>> = (0..96).map(|i| format!("doc {i}").into_bytes()).collect();
//!
//! let mut reis = ReisSystem::new(ReisConfig::tiny());
//! let db = VectorDatabase::ivf(&vectors, documents, 8)?;
//! let id = reis.deploy(&db)?;
//! let outcome = reis.ivf_search_with_nprobe(id, &vectors[5], 10, 8)?;
//! assert_eq!(outcome.results[0].id, 5);
//! assert_eq!(outcome.documents[0], b"doc 5");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod database;
pub mod deploy;
pub mod durable;
pub mod energy;
pub mod error;
pub mod layout;
pub mod leaf;
pub mod mutate;
pub mod perf;
pub mod pipeline;
pub mod records;
pub mod scan;
pub mod system;

pub use config::{AdaptiveFiltering, Optimizations, ReisConfig, ScanParallelism};
pub use database::{ClusterInfo, VectorDatabase};
pub use deploy::DeployedDatabase;
pub use durable::{RecoveryReport, WalQuarantine};
pub use energy::{EnergyBreakdown, EnergyModel, EnergyParams};
pub use error::{ReisError, Result};
pub use layout::{LayoutPlan, DOC_SUBPAGE_BYTES};
pub use leaf::{
    merge_top_k, LeafCandidate, LeafDocumentsOutcome, LeafQueryOutcome, MergeOutcome,
    RankedCandidate,
};
pub use mutate::{CompactionOutcome, MutationOutcome};
pub use perf::{LatencyBreakdown, PerfModel, QueryActivity};
pub use pipeline::{
    Backend, DeviceBackend, LanePriority, Modelled, Pipeline, PipelineCompletion, PipelineConfig,
    PipelineReply, PipelineRequest,
};
pub use records::{RIvf, RIvfEntry, TemporalTopList, TtlEntry};
pub use reis_sched::{host_parallelism, WorkerContext, WorkerPool};

pub use reis_persist::{
    DirVfs, DurableStore, FaultHandle, FaultVfs, InsertIds, MemVfs, Mutation, PersistError,
    ScrubReport, Vfs,
};
pub use reis_telemetry::{
    CounterId, ExplainEvent, ExplainTrace, GaugeId, HistogramId, HistogramSnapshot, QueryTrace,
    Span, Telemetry, TELEMETRY_ENV,
};
pub use reis_update::{CompactionPolicy, MutationStats, UpdateState};
pub use system::{ReisSystem, SearchOutcome};
