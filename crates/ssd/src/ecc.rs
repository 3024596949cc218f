//! Controller-side error correction.
//!
//! Conventional SSD reads pass through an LDPC/BCH decoder in the controller
//! before data is usable. That is exactly the data movement REIS avoids for
//! its compute data by using ESP-SLC: performing ECC for in-plane operands
//! would mean shipping every page to the controller first, which is what the
//! REIS-ASIC comparator of Sec. 6.3.1 is charged for.

use serde::{Deserialize, Serialize};

use reis_nand::Nanos;

/// Latency and strength parameters of the ECC engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EccParams {
    /// Decode latency for one 16 KB page with few or no errors.
    pub decode_latency_per_page: Nanos,
    /// Additional latency per corrected bit (iterative decoding cost).
    pub latency_per_corrected_bit: Nanos,
    /// Maximum number of raw bit errors the code can correct per page.
    pub correctable_bits_per_page: usize,
}

impl EccParams {
    /// LDPC-class defaults for a data-center SSD.
    pub fn ldpc() -> Self {
        EccParams {
            decode_latency_per_page: Nanos::from_micros(8),
            latency_per_corrected_bit: Nanos::from_nanos(40),
            correctable_bits_per_page: 512,
        }
    }
}

impl Default for EccParams {
    fn default() -> Self {
        EccParams::ldpc()
    }
}

/// Outcome of decoding one page.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EccOutcome {
    /// Whether all raw errors were corrected.
    pub corrected: bool,
    /// Decode latency.
    pub latency: Nanos,
}

/// The controller's ECC engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EccEngine {
    params: EccParams,
    pages_decoded: u64,
}

impl EccEngine {
    /// Create an engine with the given parameters.
    pub fn new(params: EccParams) -> Self {
        EccEngine {
            params,
            pages_decoded: 0,
        }
    }

    /// Decode one page that arrived with `raw_bit_errors` errors.
    ///
    /// Pages with more errors than the code strength are reported as
    /// uncorrected (real drives would retry with read-offset calibration; the
    /// retrieval workloads modeled here never reach that regime).
    pub fn decode_page(&mut self, raw_bit_errors: usize) -> EccOutcome {
        self.pages_decoded += 1;
        let correctable = raw_bit_errors <= self.params.correctable_bits_per_page;
        let corrected_bits = raw_bit_errors.min(self.params.correctable_bits_per_page);
        EccOutcome {
            corrected: correctable,
            latency: self.params.decode_latency_per_page
                + self.params.latency_per_corrected_bit * corrected_bits as u64,
        }
    }

    /// Pages decoded so far.
    pub fn pages_decoded(&self) -> u64 {
        self.pages_decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_pages_decode_at_base_latency() {
        let mut ecc = EccEngine::new(EccParams::ldpc());
        let out = ecc.decode_page(0);
        assert!(out.corrected);
        assert_eq!(out.latency, EccParams::ldpc().decode_latency_per_page);
    }

    #[test]
    fn errors_add_latency_and_are_counted() {
        let mut ecc = EccEngine::new(EccParams::ldpc());
        let clean = ecc.decode_page(0).latency;
        let dirty = ecc.decode_page(100).latency;
        assert!(dirty > clean);
        assert_eq!(ecc.pages_decoded(), 2);
    }

    #[test]
    fn uncorrectable_pages_are_flagged() {
        let mut ecc = EccEngine::new(EccParams::ldpc());
        let out = ecc.decode_page(10_000);
        assert!(!out.corrected);
    }
}
