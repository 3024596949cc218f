//! Hybrid SLC/TLC partitioning policy.
//!
//! REIS soft-partitions the flash array (Sec. 4.1.2): binary embeddings (the
//! data the in-plane engine computes on) are programmed with Enhanced SLC
//! Programming so reads are error-free without ECC, while document chunks and
//! INT8 embeddings stay in dense TLC and take the conventional
//! ECC-in-the-controller read path. This module is the policy that maps a
//! region's role to its programming scheme.

use serde::{Deserialize, Serialize};

use reis_nand::{CellMode, ProgramScheme};

/// The role of a database region, which determines where and how it is
/// stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegionKind {
    /// Binary-quantized embeddings scanned by the in-plane ANNS engine.
    BinaryEmbeddings,
    /// IVF cluster centroids (also scanned in-plane during coarse search).
    Centroids,
    /// INT8 embeddings fetched by the reranking kernel.
    Int8Embeddings,
    /// Document chunks returned to the host.
    Documents,
}

/// Mapping from region role to programming scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HybridPolicy {
    /// Scheme used for data consumed by in-plane computation.
    pub compute_scheme: ProgramScheme,
    /// Scheme used for bulk data read through the controller.
    pub bulk_scheme: ProgramScheme,
}

impl HybridPolicy {
    /// The REIS policy: ESP-SLC for compute data, ISPP-TLC for bulk data.
    pub fn reis() -> Self {
        HybridPolicy {
            compute_scheme: ProgramScheme::EnhancedSlc,
            bulk_scheme: ProgramScheme::Ispp(CellMode::Tlc),
        }
    }

    /// A policy that stores everything in TLC (what a conventional SSD —
    /// or the REIS-ASIC comparator of Sec. 6.3.1 — would do), forcing ECC on
    /// every read.
    pub fn all_tlc() -> Self {
        HybridPolicy {
            compute_scheme: ProgramScheme::Ispp(CellMode::Tlc),
            bulk_scheme: ProgramScheme::Ispp(CellMode::Tlc),
        }
    }

    /// The programming scheme for a region of the given kind.
    pub fn scheme_for(&self, kind: RegionKind) -> ProgramScheme {
        match kind {
            RegionKind::BinaryEmbeddings | RegionKind::Centroids => self.compute_scheme,
            RegionKind::Int8Embeddings | RegionKind::Documents => self.bulk_scheme,
        }
    }

    /// Whether reads of a region of the given kind require controller-side
    /// ECC before the data can be used.
    pub fn needs_ecc(&self, kind: RegionKind) -> bool {
        !self.scheme_for(kind).is_error_free()
    }
}

impl Default for HybridPolicy {
    fn default() -> Self {
        HybridPolicy::reis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reis_policy_puts_compute_data_in_esp_slc() {
        let policy = HybridPolicy::reis();
        assert_eq!(
            policy.scheme_for(RegionKind::BinaryEmbeddings),
            ProgramScheme::EnhancedSlc
        );
        assert_eq!(
            policy.scheme_for(RegionKind::Centroids),
            ProgramScheme::EnhancedSlc
        );
        assert_eq!(
            policy.scheme_for(RegionKind::Documents),
            ProgramScheme::Ispp(CellMode::Tlc)
        );
        assert!(!policy.needs_ecc(RegionKind::BinaryEmbeddings));
        assert!(policy.needs_ecc(RegionKind::Documents));
        assert!(policy.needs_ecc(RegionKind::Int8Embeddings));
    }

    #[test]
    fn all_tlc_policy_needs_ecc_everywhere() {
        let policy = HybridPolicy::all_tlc();
        for kind in [
            RegionKind::BinaryEmbeddings,
            RegionKind::Centroids,
            RegionKind::Int8Embeddings,
            RegionKind::Documents,
        ] {
            assert!(policy.needs_ecc(kind));
        }
    }
}
