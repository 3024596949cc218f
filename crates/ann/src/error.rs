//! Error type for the ANNS algorithm library.

use std::fmt;

/// Errors returned by index construction and search operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnError {
    /// A vector had a different dimensionality than the index or quantizer
    /// was built for.
    DimensionMismatch {
        /// Dimensionality expected by the index.
        expected: usize,
        /// Dimensionality of the offending vector.
        actual: usize,
    },
    /// An operation that needs training data received an empty dataset.
    EmptyDataset,
    /// A vector held a NaN or infinite component. Nothing trains on,
    /// quantizes or stores one: its distances compare with nothing.
    NonFinite {
        /// Index of the first such vector in its batch or dataset.
        row: usize,
        /// Index of its first non-finite component.
        component: usize,
    },
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the violated constraint.
        message: String,
    },
    /// An index was searched before it was trained / built.
    NotTrained,
    /// A vector id referenced by a search result or rerank request does not
    /// exist in the index.
    UnknownVector(usize),
}

impl fmt::Display for AnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "vector has {actual} dimensions but the index expects {expected}"
                )
            }
            AnnError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            AnnError::NonFinite { row, component } => {
                write!(
                    f,
                    "vector {row} has a NaN or infinite component {component}"
                )
            }
            AnnError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            AnnError::NotTrained => write!(f, "index must be trained before searching"),
            AnnError::UnknownVector(id) => write!(f, "vector id {id} does not exist in the index"),
        }
    }
}

impl std::error::Error for AnnError {}

impl AnnError {
    /// The [`AnnError::NonFinite`] of the first vector of `data` that
    /// holds a NaN or infinite component, if any.
    pub(crate) fn first_non_finite(data: &[Vec<f32>]) -> Option<AnnError> {
        data.iter().enumerate().find_map(|(row, v)| {
            let component = v.iter().position(|x| !x.is_finite())?;
            Some(AnnError::NonFinite { row, component })
        })
    }
}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, AnnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_meaningful() {
        let errs = vec![
            AnnError::DimensionMismatch {
                expected: 1024,
                actual: 768,
            },
            AnnError::EmptyDataset,
            AnnError::NonFinite {
                row: 3,
                component: 17,
            },
            AnnError::InvalidParameter {
                name: "nlist",
                message: "must be non-zero".into(),
            },
            AnnError::NotTrained,
            AnnError::UnknownVector(9),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_implements_std_error_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<AnnError>();
    }
}
