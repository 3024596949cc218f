//! Error type for the NAND flash device simulator.

use std::fmt;

use crate::geometry::{BlockAddr, PageAddr};

/// Errors returned by operations on the simulated NAND flash device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// An address referenced a channel, die, plane, block or page outside the
    /// configured geometry.
    AddressOutOfRange {
        /// Human-readable description of the offending component.
        what: &'static str,
        /// The index that was requested.
        index: usize,
        /// The number of valid entries for that component.
        limit: usize,
    },
    /// A program operation targeted a page that has already been programmed
    /// since its containing block was last erased.
    PageAlreadyProgrammed(PageAddr),
    /// A read targeted a page that has never been programmed.
    PageNotProgrammed(PageAddr),
    /// Data passed to a program operation does not fit the page user area.
    DataTooLarge {
        /// Number of bytes supplied by the caller.
        provided: usize,
        /// Page user-data capacity in bytes.
        capacity: usize,
    },
    /// OOB metadata passed to a program operation does not fit the OOB area.
    OobTooLarge {
        /// Number of OOB bytes supplied by the caller.
        provided: usize,
        /// OOB capacity in bytes.
        capacity: usize,
    },
    /// A block erase was requested for a block that is out of range.
    BlockOutOfRange(BlockAddr),
    /// A mini-page offset exceeded the number of mini-pages in a page.
    MiniPageOutOfRange {
        /// Requested mini-page offset within the page.
        offset: usize,
        /// Number of mini-pages per page for the given element size.
        limit: usize,
    },
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::AddressOutOfRange { what, index, limit } => {
                write!(f, "{what} index {index} out of range (limit {limit})")
            }
            NandError::PageAlreadyProgrammed(addr) => {
                write!(f, "page {addr} already programmed since last erase")
            }
            NandError::PageNotProgrammed(addr) => {
                write!(f, "page {addr} has not been programmed")
            }
            NandError::DataTooLarge { provided, capacity } => {
                write!(
                    f,
                    "data of {provided} bytes exceeds page capacity of {capacity} bytes"
                )
            }
            NandError::OobTooLarge { provided, capacity } => {
                write!(
                    f,
                    "OOB data of {provided} bytes exceeds OOB capacity of {capacity} bytes"
                )
            }
            NandError::BlockOutOfRange(addr) => write!(f, "block {addr} out of range"),
            NandError::MiniPageOutOfRange { offset, limit } => {
                write!(f, "mini-page offset {offset} out of range (limit {limit})")
            }
        }
    }
}

impl std::error::Error for NandError {}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NandError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PageAddr;

    #[test]
    fn display_is_nonempty_and_lowercase_style() {
        let errs: Vec<NandError> = vec![
            NandError::AddressOutOfRange {
                what: "channel",
                index: 9,
                limit: 8,
            },
            NandError::PageAlreadyProgrammed(PageAddr::new(0, 0, 0, 0, 0)),
            NandError::PageNotProgrammed(PageAddr::new(1, 1, 1, 1, 1)),
            NandError::DataTooLarge {
                provided: 20000,
                capacity: 16384,
            },
            NandError::OobTooLarge {
                provided: 4096,
                capacity: 2208,
            },
            NandError::BlockOutOfRange(BlockAddr::new(0, 0, 0, 77)),
            NandError::MiniPageOutOfRange {
                offset: 200,
                limit: 128,
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(
                !s.ends_with('.'),
                "error messages should not end with punctuation: {s}"
            );
        }
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<NandError>();
    }
}
