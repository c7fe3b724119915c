use std::error::Error;
use std::fmt;

/// Errors produced by the dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand dimensions are incompatible (e.g. a cross block whose width
    /// is not the factor's dimension).
    DimensionMismatch {
        /// Human-readable description of the offending operation.
        context: &'static str,
        /// Expected size (rows×cols or length, operation dependent).
        expected: usize,
        /// Actual size encountered.
        actual: usize,
    },
    /// A matrix expected to be positive definite was not, even after the
    /// maximum jitter was added to its diagonal.
    NotPositiveDefinite,
    /// A matrix was singular to working precision during LU factorisation.
    Singular,
    /// A matrix that must be square was rectangular.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite (jitter exhausted)")
            }
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::NotSquare { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2x3"));
        let e = LinalgError::DimensionMismatch {
            context: "CholeskyFactor::extend (cross block)",
            expected: 4,
            actual: 5,
        };
        assert!(e.to_string().contains("extend"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
