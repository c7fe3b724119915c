use std::error::Error;
use std::fmt;

use kato_linalg::LinalgError;

/// Errors produced while fitting or evaluating Gaussian-process models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GpError {
    /// Training inputs were empty, inconsistently sized or non-finite.
    BadTrainingData {
        /// Human-readable description of the problem.
        what: &'static str,
    },
    /// The Gram matrix stayed non-positive-definite even after noise
    /// escalation.
    GramNotPd,
    /// Underlying linear-algebra failure.
    Linalg(LinalgError),
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::BadTrainingData { what } => write!(f, "bad training data: {what}"),
            GpError::GramNotPd => {
                write!(
                    f,
                    "gram matrix not positive definite despite noise escalation"
                )
            }
            GpError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for GpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GpError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for GpError {
    fn from(e: LinalgError) -> Self {
        GpError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = GpError::BadTrainingData { what: "empty" };
        assert!(e.to_string().contains("empty"));
        let e = GpError::from(LinalgError::Singular);
        assert!(std::error::Error::source(&e).is_some());
    }
}
