//! Flash cell modes and programming schemes.
//!
//! NAND flash cells store one or more bits per cell. The REIS design relies
//! on a *hybrid* SSD: binary embeddings live in a Single-Level-Cell (SLC)
//! partition programmed with Enhanced SLC-mode Programming (ESP), which
//! achieves a zero raw bit error rate and therefore allows in-plane
//! computation without ECC, while document chunks and INT8 embeddings live in
//! a dense Triple-Level-Cell (TLC) partition that goes through the normal
//! controller-side ECC path.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of bits stored per flash cell.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum CellMode {
    /// Single-level cell: 1 bit per cell, fastest and most reliable.
    Slc,
    /// Multi-level cell: 2 bits per cell.
    Mlc,
    /// Triple-level cell: 3 bits per cell (the common density point for
    /// data-center SSDs such as the PM9A3 and Micron 9400).
    #[default]
    Tlc,
    /// Quad-level cell: 4 bits per cell.
    Qlc,
}

impl fmt::Display for CellMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CellMode::Slc => "SLC",
            CellMode::Mlc => "MLC",
            CellMode::Tlc => "TLC",
            CellMode::Qlc => "QLC",
        };
        f.write_str(name)
    }
}

/// Programming scheme applied when writing a page.
///
/// The scheme determines the raw bit error rate (BER) of subsequent reads and
/// whether the page contents can be used for in-plane computation without
/// controller-side ECC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProgramScheme {
    /// Conventional Incremental Step Pulse Programming in the cell's native
    /// mode. Reads have a non-zero raw BER and need ECC in the controller.
    Ispp(CellMode),
    /// Enhanced SLC-mode Programming (Flash-Cosmos / REIS, Sec. 4.1.2):
    /// programs the cell in SLC mode with widened voltage margins, achieving
    /// a zero raw BER in the paper's worst-case characterization (1-year
    /// retention, 10k P/E cycles). Pages programmed this way can be consumed
    /// by in-plane logic without ECC.
    EnhancedSlc,
}

impl ProgramScheme {
    /// The cell mode actually used to store the data.
    pub fn cell_mode(&self) -> CellMode {
        match self {
            ProgramScheme::Ispp(mode) => *mode,
            ProgramScheme::EnhancedSlc => CellMode::Slc,
        }
    }

    /// Whether reads of a page programmed with this scheme are guaranteed to
    /// be error-free without ECC.
    pub fn is_error_free(&self) -> bool {
        matches!(self, ProgramScheme::EnhancedSlc)
    }

    /// Raw bit error rate of a read of a page programmed with this scheme,
    /// before any error correction.
    ///
    /// The values follow the qualitative ordering reported in flash
    /// characterization studies: ESP-SLC is error-free, normal SLC is very
    /// reliable, and error rates grow with bits per cell.
    pub fn raw_bit_error_rate(&self) -> f64 {
        match self {
            ProgramScheme::EnhancedSlc => 0.0,
            ProgramScheme::Ispp(CellMode::Slc) => 1e-8,
            ProgramScheme::Ispp(CellMode::Mlc) => 1e-6,
            ProgramScheme::Ispp(CellMode::Tlc) => 1e-4,
            ProgramScheme::Ispp(CellMode::Qlc) => 1e-3,
        }
    }
}

impl fmt::Display for ProgramScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramScheme::Ispp(mode) => write!(f, "ISPP-{mode}"),
            ProgramScheme::EnhancedSlc => f.write_str("ESP-SLC"),
        }
    }
}

impl Default for ProgramScheme {
    fn default() -> Self {
        ProgramScheme::Ispp(CellMode::Tlc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn esp_is_error_free_and_slc() {
        let esp = ProgramScheme::EnhancedSlc;
        assert!(esp.is_error_free());
        assert_eq!(esp.raw_bit_error_rate(), 0.0);
        assert_eq!(esp.cell_mode(), CellMode::Slc);
    }

    #[test]
    fn ber_grows_with_density() {
        let slc = ProgramScheme::Ispp(CellMode::Slc).raw_bit_error_rate();
        let mlc = ProgramScheme::Ispp(CellMode::Mlc).raw_bit_error_rate();
        let tlc = ProgramScheme::Ispp(CellMode::Tlc).raw_bit_error_rate();
        let qlc = ProgramScheme::Ispp(CellMode::Qlc).raw_bit_error_rate();
        assert!(slc < mlc && mlc < tlc && tlc < qlc);
        assert!(
            slc > 0.0,
            "normal SLC is reliable but not guaranteed error-free"
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(CellMode::Tlc.to_string(), "TLC");
        assert_eq!(ProgramScheme::EnhancedSlc.to_string(), "ESP-SLC");
        assert_eq!(ProgramScheme::Ispp(CellMode::Qlc).to_string(), "ISPP-QLC");
    }
}
