//! # reis-ssd — SSD controller simulator
//!
//! The controller-side substrate of the REIS reproduction, built on the
//! [`reis_nand`] flash device model:
//!
//! * [`controller`] — the [`controller::SsdController`]: database regions
//!   (reserve, program, read, release, reclaim) plus the resources the
//!   in-storage engine borrows.
//! * [`ftl`] — REIS's coarse-grained R-DB records.
//! * [`allocator`] — Parallelism-First, contiguity-preserving page
//!   allocation (plane-striped regions).
//! * [`dram`] — the SSD-internal DRAM (capacity, latency).
//! * [`cores`] — the embedded Cortex-R8-class cores and the cost model of
//!   the quickselect / rerank / quicksort kernels REIS runs on them.
//! * [`hybrid`] — the SLC(ESP)/TLC partitioning policy.
//! * [`ecc`] — controller-side error correction.
//! * [`maintenance`] — invalid-page tracking and block reclamation for
//!   compaction.
//!
//! The controller models only what REIS drives. A conventional block-I/O
//! path (page-level FTL, garbage collection, wear levelling, a RAG/normal
//! mode switch) is not modelled.
//!
//! # Example
//!
//! ```
//! use reis_ssd::config::SsdConfig;
//! use reis_ssd::controller::SsdController;
//! use reis_ssd::hybrid::RegionKind;
//!
//! # fn main() -> Result<(), reis_ssd::error::SsdError> {
//! let mut ssd = SsdController::new(SsdConfig::tiny());
//! let kind = RegionKind::Documents;
//! let region = ssd.reserve_region("db0/documents", 2)?;
//! ssd.program_region_page(&region, 0, kind, vec![7u8; 4096], &[])?;
//! let read = ssd.read_region_page_view(&region, 0, kind)?;
//! assert_eq!(read.data[0], 7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocator;
pub mod config;
pub mod controller;
pub mod cores;
pub mod dram;
pub mod ecc;
pub mod error;
pub mod ftl;
pub mod hybrid;
pub mod maintenance;

pub use allocator::{PageAllocator, StripedRegion};
pub use config::SsdConfig;
pub use controller::{PageReadView, SsdController};
pub use cores::{CoreParams, EmbeddedCores};
pub use dram::{DramParams, InternalDram};
pub use ecc::{EccEngine, EccParams};
pub use error::{Result, SsdError};
pub use ftl::{CoarseFtl, DatabaseRecord};
pub use hybrid::{HybridPolicy, RegionKind};
pub use maintenance::MaintenanceManager;
