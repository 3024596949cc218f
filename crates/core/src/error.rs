//! Error type of the REIS system.

use std::fmt;

use reis_ann::AnnError;
use reis_nand::NandError;
use reis_persist::PersistError;
use reis_ssd::SsdError;

/// Errors returned by REIS deployment and search operations.
///
/// The enum is `#[non_exhaustive]`: downstream matches must carry a
/// wildcard arm, so new failure modes (the durability variants below were
/// the first addition) are not breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReisError {
    /// An error propagated from the SSD controller layer.
    Ssd(SsdError),
    /// An error propagated from the NAND flash device.
    Nand(NandError),
    /// An error propagated from the ANNS algorithm library.
    Ann(AnnError),
    /// The database being deployed is malformed (e.g. the number of
    /// documents does not match the number of embeddings).
    MalformedDatabase(String),
    /// A search referenced a database id that has not been deployed.
    DatabaseNotDeployed(u32),
    /// A search requested an operation the deployed database does not
    /// support (e.g. an IVF search on a database deployed without clusters).
    UnsupportedSearch(String),
    /// A query had the wrong dimensionality for the target database.
    QueryDimensionMismatch {
        /// Dimensionality of the deployed embeddings.
        expected: usize,
        /// Dimensionality of the query.
        actual: usize,
    },
    /// A search request can never be answered as asked: `k = 0`,
    /// `nprobe = 0`, or a query holding a NaN or infinite component. Raised
    /// before any device work, identically by every search entry point.
    InvalidQuery(String),
    /// A configuration parameter is outside its valid range.
    InvalidConfig(String),
    /// A mutation referenced a logical entry id that does not exist (never
    /// assigned, or already deleted).
    EntryNotFound(u32),
    /// A document slot read back with an invalid length prefix (e.g. after an
    /// uncorrectable flash error), so the chunk cannot be returned.
    CorruptDocument {
        /// Page offset within the document region.
        page: usize,
        /// Slot index within the page.
        slot: usize,
    },
    /// A snapshot file failed validation during recovery: bad magic, an
    /// unsupported format version, a checksum mismatch or an inconsistent
    /// section payload. The wrapped [`PersistError`] pinpoints what rotted
    /// and is exposed through [`std::error::Error::source`].
    CorruptSnapshot(PersistError),
    /// Any other durability failure (storage I/O, missing files, replay
    /// divergence), with the underlying [`PersistError`] as the source.
    Persist(PersistError),
    /// A leaf device (or every replica of a shard) was unreachable: down,
    /// killed by a fault plan, or out of retries. Carries the index of the
    /// first unreachable leaf; when a [`PersistError`] explains *why* the
    /// leaf went away it is chained through
    /// [`std::error::Error::source`].
    Unavailable {
        /// Index of the unreachable leaf.
        leaf: usize,
        /// The underlying durability failure, when one caused the outage.
        source: Option<PersistError>,
    },
    /// The request pipeline's bounded submission queue was full: explicit
    /// backpressure instead of unbounded queueing. Carries the configured
    /// lane depth; the caller sheds or retries after draining.
    Overloaded {
        /// The lane's configured depth bound that was hit.
        depth: usize,
    },
    /// A pooled worker task panicked while executing a scan shard. The
    /// panic is isolated by the scheduler — the pool and unrelated queries
    /// keep working — and surfaced to the submitting request as this error,
    /// carrying the rendered panic payload.
    WorkerPanic(String),
}

impl fmt::Display for ReisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReisError::Ssd(e) => write!(f, "ssd error: {e}"),
            ReisError::Nand(e) => write!(f, "nand error: {e}"),
            ReisError::Ann(e) => write!(f, "ann error: {e}"),
            ReisError::MalformedDatabase(msg) => write!(f, "malformed database: {msg}"),
            ReisError::DatabaseNotDeployed(id) => write!(f, "database {id} is not deployed"),
            ReisError::UnsupportedSearch(msg) => write!(f, "unsupported search: {msg}"),
            ReisError::QueryDimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "query has {actual} dimensions but the database stores {expected}"
                )
            }
            ReisError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            ReisError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ReisError::EntryNotFound(id) => {
                write!(f, "entry {id} does not exist (or was deleted)")
            }
            ReisError::CorruptDocument { page, slot } => {
                write!(
                    f,
                    "document slot {slot} of page {page} has a corrupt length prefix"
                )
            }
            ReisError::CorruptSnapshot(e) => write!(f, "corrupt snapshot: {e}"),
            ReisError::Persist(e) => write!(f, "durability error: {e}"),
            ReisError::Unavailable { leaf, source } => match source {
                Some(e) => write!(f, "leaf {leaf} is unavailable: {e}"),
                None => write!(f, "leaf {leaf} is unavailable"),
            },
            ReisError::Overloaded { depth } => {
                write!(
                    f,
                    "pipeline overloaded: submission queue is at its depth bound {depth}"
                )
            }
            ReisError::WorkerPanic(msg) => write!(f, "worker task panicked: {msg}"),
        }
    }
}

impl std::error::Error for ReisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReisError::Ssd(e) => Some(e),
            ReisError::Nand(e) => Some(e),
            ReisError::Ann(e) => Some(e),
            ReisError::CorruptSnapshot(e) | ReisError::Persist(e) => Some(e),
            ReisError::Unavailable {
                source: Some(e), ..
            } => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for ReisError {
    /// Route snapshot checksum/validation failures to the dedicated
    /// [`ReisError::CorruptSnapshot`] and everything else to the generic
    /// [`ReisError::Persist`].
    fn from(e: PersistError) -> Self {
        match &e {
            PersistError::CorruptSnapshot { .. } | PersistError::UnsupportedVersion { .. } => {
                ReisError::CorruptSnapshot(e)
            }
            _ => ReisError::Persist(e),
        }
    }
}

impl From<SsdError> for ReisError {
    fn from(e: SsdError) -> Self {
        ReisError::Ssd(e)
    }
}

impl From<NandError> for ReisError {
    fn from(e: NandError) -> Self {
        ReisError::Nand(e)
    }
}

impl From<AnnError> for ReisError {
    fn from(e: AnnError) -> Self {
        ReisError::Ann(e)
    }
}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ReisError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_sources() {
        let e: ReisError = SsdError::UnknownDatabase(1).into();
        assert!(std::error::Error::source(&e).is_some());
        let e: ReisError = NandError::DataTooLarge {
            provided: 2,
            capacity: 1,
        }
        .into();
        assert!(std::error::Error::source(&e).is_some());
        let e: ReisError = AnnError::EmptyDataset.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = ReisError::DatabaseNotDeployed(7);
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn unavailable_chains_its_optional_source() {
        let bare = ReisError::Unavailable {
            leaf: 3,
            source: None,
        };
        assert!(bare.to_string().contains("leaf 3"));
        assert!(std::error::Error::source(&bare).is_none());

        let caused = ReisError::Unavailable {
            leaf: 1,
            source: Some(PersistError::NoSnapshot),
        };
        let source = std::error::Error::source(&caused).expect("chained source");
        assert!(!source.to_string().is_empty());
        assert!(caused.to_string().contains("leaf 1 is unavailable:"));
    }

    #[test]
    fn persist_conversions_pick_the_structured_variant_and_chain_sources() {
        let e: ReisError = PersistError::CorruptSnapshot {
            file: "snapshot-00000001".into(),
            detail: "section 0x102 checksum mismatch".into(),
        }
        .into();
        assert!(matches!(e, ReisError::CorruptSnapshot(_)));
        // The chained source keeps the precise detail reachable.
        let source = std::error::Error::source(&e).expect("chained source");
        assert!(source.to_string().contains("checksum mismatch"));

        let e: ReisError = PersistError::UnsupportedVersion {
            file: "snapshot-00000001".into(),
            found: 2,
            supported: 1,
        }
        .into();
        assert!(matches!(e, ReisError::CorruptSnapshot(_)));

        let e: ReisError = PersistError::NoSnapshot.into();
        assert!(matches!(e, ReisError::Persist(_)));
        assert!(e.to_string().contains("durability"));
    }

    #[test]
    fn display_is_meaningful() {
        let errs = vec![
            ReisError::MalformedDatabase("0 documents".into()),
            ReisError::DatabaseNotDeployed(3),
            ReisError::UnsupportedSearch("IVF on flat".into()),
            ReisError::QueryDimensionMismatch {
                expected: 1024,
                actual: 768,
            },
            ReisError::InvalidQuery("k must be at least 1".into()),
            ReisError::InvalidConfig("rerank factor 0".into()),
            ReisError::EntryNotFound(42),
            ReisError::CorruptDocument { page: 3, slot: 1 },
            ReisError::Unavailable {
                leaf: 0,
                source: None,
            },
            ReisError::Overloaded { depth: 64 },
            ReisError::WorkerPanic("index out of bounds".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn scheduler_variants_carry_their_context() {
        let shed = ReisError::Overloaded { depth: 8 };
        assert!(shed.to_string().contains("depth bound 8"));
        assert!(std::error::Error::source(&shed).is_none());

        let crashed = ReisError::WorkerPanic("boom".into());
        assert!(crashed.to_string().contains("boom"));
        assert!(std::error::Error::source(&crashed).is_none());
    }
}
