//! # reis-nand — NAND flash device simulator
//!
//! Functional-plus-timing model of the NAND flash array inside a modern SSD,
//! providing the substrate the REIS in-storage retrieval system computes on:
//!
//! * [`geometry`] — channels, dies, planes, blocks, pages, OOB areas and the
//!   address types that navigate them.
//! * [`cell`] — SLC/MLC/TLC/QLC cell modes and programming schemes,
//!   including Enhanced SLC Programming (ESP) with zero raw bit error rate.
//! * [`peripheral`] — the fail-bit counter, pass/fail checker and XOR logic
//!   already present in flash dies, repurposed as a Hamming-distance engine
//!   that scores a sensed page in one pass.
//! * [`mod@array`] — the [`array::FlashDevice`] tying everything together: every
//!   page in one table in stripe order, one array sense by stripe position,
//!   per-operation latency and statistics.
//! * [`timing`] — the latency/bandwidth parameters (Table 3) and the
//!   [`timing::Nanos`] simulated-time type.
//! * [`reliability`] — raw bit-error injection for non-ESP reads.
//! * [`oob`] — the out-of-band layout that links embeddings to documents.
//!
//! # Example: an in-plane Hamming distance computation
//!
//! ```
//! use reis_nand::array::FlashDevice;
//! use reis_nand::cell::ProgramScheme;
//! use reis_nand::geometry::{Geometry, PageAddr};
//! use reis_nand::peripheral::PassFailChecker;
//!
//! # fn main() -> Result<(), reis_nand::error::NandError> {
//! let geometry = Geometry::tiny();
//! let mut device = FlashDevice::new(geometry, Default::default());
//! let addr = PageAddr::new(0, 0, 0, 0, 0);
//!
//! // Store a page of 64-byte binary embeddings in the ESP-SLC partition.
//! let page: Vec<u8> = (0..4096).map(|i| (i / 64) as u8).collect();
//! device.program_page(addr, &page, &[], ProgramScheme::EnhancedSlc)?;
//!
//! // Sense the page by its stripe position, then XOR every embedding
//! // against the broadcast query, count the differing bits and keep those
//! // within the threshold.
//! let mut sensed = Vec::new();
//! device.sense(geometry.stripe_index(addr))?.sensed_into(&mut sensed);
//! let mut hits = Vec::new();
//! PassFailChecker::filter_fused(&sensed, 64, 64, &[&[0u8; 64]], &[8], &mut hits);
//! assert_eq!((hits[0].slot, hits[0].distance), (0, 0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod cell;
pub mod error;
pub mod geometry;
pub mod oob;
pub mod peripheral;
pub mod reliability;
pub mod stats;
pub mod timing;

pub use array::{FlashDevice, PageReadMeta, PageReadout, PageView, Scratch};
pub use cell::{CellMode, ProgramScheme};
pub use error::{NandError, Result};
pub use geometry::{BlockAddr, Geometry, PageAddr, PlaneAddr};
pub use oob::{OobEntry, OobLayout};
pub use peripheral::FusedHit;
// The cache hint a reader of stored pages warms a slot with before its
// counted read (the rerank and document phases of `reis-core`).
pub use reis_kernels::prefetch;
pub use stats::FlashStats;
pub use timing::{Nanos, TimingParams};
