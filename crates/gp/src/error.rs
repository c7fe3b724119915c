use std::error::Error;
use std::fmt;

/// Errors produced while fitting or evaluating Gaussian-process models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GpError {
    /// Training inputs were empty, inconsistently sized or non-finite.
    BadTrainingData {
        /// Human-readable description of the problem.
        what: &'static str,
    },
    /// The noisy Gram matrix did not factor, even with the Cholesky
    /// factorisation's own diagonal jitter (typically a non-finite entry).
    GramNotPd,
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::BadTrainingData { what } => write!(f, "bad training data: {what}"),
            GpError::GramNotPd => write!(f, "gram matrix not positive definite"),
        }
    }
}

impl Error for GpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = GpError::BadTrainingData { what: "empty" };
        assert!(e.to_string().contains("empty"));
        assert!(std::error::Error::source(&GpError::GramNotPd).is_none());
    }
}
