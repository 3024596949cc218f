//! # reis-ssd — SSD controller simulator
//!
//! The controller-side substrate of the REIS reproduction, built on the
//! [`reis_nand`] flash device model:
//!
//! * [`controller`] — the [`controller::SsdController`]: conventional
//!   read/write path plus the resources the in-storage engine borrows.
//! * [`ftl`] — page-level FTL and REIS's coarse-grained R-DB records.
//! * [`allocator`] — Parallelism-First, contiguity-preserving page
//!   allocation (plane-striped regions).
//! * [`dram`] — the SSD-internal DRAM (capacity, latency, energy).
//! * [`cores`] — the embedded Cortex-R8-class cores and the cost model of
//!   the quickselect / rerank / quicksort kernels REIS runs on them.
//! * [`hybrid`] — the SLC(ESP)/TLC partitioning policy.
//! * [`ecc`] — controller-side error correction.
//! * [`maintenance`] — garbage collection, wear statistics, RAG/normal mode
//!   switching.
//!
//! # Example
//!
//! ```
//! use reis_ssd::config::SsdConfig;
//! use reis_ssd::controller::SsdController;
//!
//! # fn main() -> Result<(), reis_ssd::error::SsdError> {
//! let mut ssd = SsdController::new(SsdConfig::tiny());
//! ssd.host_write(42, &[7u8; 4096])?;
//! let read = ssd.host_read(42)?;
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
pub use controller::{ControllerActivity, HostReadOutcome, PageReadView, SsdController};
pub use cores::{CoreParams, EmbeddedCores};
pub use dram::{DramParams, InternalDram};
pub use ecc::{EccEngine, EccParams};
pub use error::{Result, SsdError};
pub use ftl::{CoarseFtl, DatabaseRecord, PageLevelFtl};
pub use hybrid::{HybridPolicy, RegionKind};
pub use maintenance::{MaintenanceManager, SsdMode, WearStats};
