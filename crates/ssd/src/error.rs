//! Error type for the SSD controller simulator.

use std::fmt;

use reis_nand::NandError;

/// Errors returned by the SSD controller layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsdError {
    /// An error propagated from the underlying NAND flash device.
    Nand(NandError),
    /// The flash array has no free space left for the requested allocation.
    OutOfSpace {
        /// Pages requested.
        requested_pages: usize,
        /// Pages available.
        available_pages: usize,
    },
    /// The controller DRAM cannot hold the requested allocation.
    DramExhausted {
        /// Bytes requested.
        requested_bytes: usize,
        /// Bytes available.
        available_bytes: usize,
    },
    /// A database id is not present in the R-DB record.
    UnknownDatabase(u32),
    /// A database with this id has already been deployed.
    DatabaseAlreadyDeployed(u32),
    /// An access fell outside the region reserved for a database.
    RegionOutOfBounds {
        /// The database region that was accessed.
        region: &'static str,
        /// The requested offset (in pages or entries).
        offset: usize,
        /// The number of valid entries in the region.
        limit: usize,
    },
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::Nand(e) => write!(f, "nand error: {e}"),
            SsdError::OutOfSpace { requested_pages, available_pages } => write!(
                f,
                "allocation of {requested_pages} pages exceeds the {available_pages} free pages"
            ),
            SsdError::DramExhausted { requested_bytes, available_bytes } => write!(
                f,
                "DRAM allocation of {requested_bytes} bytes exceeds the {available_bytes} free bytes"
            ),
            SsdError::UnknownDatabase(id) => write!(f, "database {id} is not deployed"),
            SsdError::DatabaseAlreadyDeployed(id) => {
                write!(f, "database {id} is already deployed")
            }
            SsdError::RegionOutOfBounds { region, offset, limit } => {
                write!(f, "{region} region offset {offset} out of bounds (limit {limit})")
            }
        }
    }
}

impl std::error::Error for SsdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SsdError::Nand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NandError> for SsdError {
    fn from(e: NandError) -> Self {
        SsdError::Nand(e)
    }
}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, SsdError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nand_errors_convert_and_expose_source() {
        let nand = NandError::PageNotProgrammed(reis_nand::PageAddr::new(0, 0, 0, 0, 0));
        let ssd: SsdError = nand.clone().into();
        assert!(matches!(ssd, SsdError::Nand(_)));
        assert!(std::error::Error::source(&ssd).is_some());
        assert!(ssd.to_string().contains("nand error"));
    }

    #[test]
    fn display_messages_are_meaningful() {
        let errs = vec![
            SsdError::OutOfSpace {
                requested_pages: 10,
                available_pages: 3,
            },
            SsdError::DramExhausted {
                requested_bytes: 100,
                available_bytes: 10,
            },
            SsdError::UnknownDatabase(3),
            SsdError::DatabaseAlreadyDeployed(3),
            SsdError::RegionOutOfBounds {
                region: "embedding",
                offset: 10,
                limit: 5,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
