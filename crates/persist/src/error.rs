//! Structured durability errors.
//!
//! Every failure mode of the persistence layer is a distinct variant, so
//! `reis-core` can surface snapshot checksum mismatches as its own
//! `CorruptSnapshot` error variant while treating plain I/O failures
//! generically. The enum is `#[non_exhaustive]`: future formats may add
//! failure modes without a breaking change.

use std::error::Error;
use std::fmt;

/// Result alias of the persistence layer.
pub type Result<T> = std::result::Result<T, PersistError>;

/// A durability failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// An underlying storage operation failed (message carries the OS
    /// error text; kept as a string so the error stays `Clone + PartialEq`
    /// for test assertions).
    Io {
        /// The file the operation targeted.
        file: String,
        /// What the backend reported.
        detail: String,
    },
    /// A file that should exist does not.
    NotFound {
        /// The missing file.
        file: String,
    },
    /// A snapshot failed validation: bad magic, short superblock, a
    /// directory or section checksum mismatch, or an out-of-bounds section.
    CorruptSnapshot {
        /// The snapshot file.
        file: String,
        /// What failed to validate.
        detail: String,
    },
    /// The snapshot superblock carries a format version this build does not
    /// understand.
    UnsupportedVersion {
        /// The snapshot file.
        file: String,
        /// Version found in the superblock.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// A section or record payload decoded inconsistently (e.g. a length
    /// prefix pointing past the payload) even though its checksum matched.
    Malformed(String),
    /// No intact snapshot exists to recover from.
    NoSnapshot,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { file, detail } => {
                write!(f, "storage I/O failed on '{file}': {detail}")
            }
            PersistError::NotFound { file } => write!(f, "file '{file}' does not exist"),
            PersistError::CorruptSnapshot { file, detail } => {
                write!(f, "corrupt snapshot '{file}': {detail}")
            }
            PersistError::UnsupportedVersion {
                file,
                found,
                supported,
            } => write!(
                f,
                "snapshot '{file}' has format version {found}, this build supports up to \
                 {supported}"
            ),
            PersistError::Malformed(detail) => write!(f, "malformed durable payload: {detail}"),
            PersistError::NoSnapshot => write!(f, "no intact snapshot to recover from"),
        }
    }
}

impl Error for PersistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_structured_and_specific() {
        let err = PersistError::CorruptSnapshot {
            file: "snapshot-00000003".into(),
            detail: "section 2 checksum mismatch".into(),
        };
        let text = err.to_string();
        assert!(text.contains("snapshot-00000003"));
        assert!(text.contains("section 2"));
        assert!(text.contains("checksum"));

        let err = PersistError::UnsupportedVersion {
            file: "snapshot-00000001".into(),
            found: 9,
            supported: 1,
        };
        assert!(err.to_string().contains("version 9"));
    }
}
