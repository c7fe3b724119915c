#![warn(missing_docs)]

//! Dense linear algebra substrate for the KATO transistor-sizing stack.
//!
//! The KATO reproduction deliberately avoids third-party numerics crates, so
//! this crate provides everything the rest of the workspace needs:
//!
//! * [`Matrix`] — a small row-major dense `f64` matrix with element and row
//!   access.
//! * [`CholeskyFactor`] — persistent, updatable jittered Cholesky
//!   factorisation used by the Gaussian process crates: one-shot solves and
//!   log-determinants plus rank-k [`CholeskyFactor::extend`] updates for
//!   the incremental-refit hot path.
//! * [`Lu`] — the one partially pivoted LU of the MNA circuit simulator,
//!   generic over its [`LuEntry`]: `f64` for the DC Newton Jacobians and
//!   [`Complex64`] (minimal complex arithmetic) for the small-signal AC
//!   systems. It factors a row-major buffer the caller hands over and can
//!   hand it back for reuse.
//! * [`stats`] — summary statistics (mean/std/quantiles) used for output
//!   standardisation and experiment reporting.
//!
//! # Example
//!
//! ```
//! use kato_linalg::{Matrix, CholeskyFactor};
//!
//! # fn main() -> Result<(), kato_linalg::LinalgError> {
//! let a = Matrix::from_fn(2, 2, |i, j| [[4.0, 1.0], [1.0, 3.0]][i][j]);
//! let chol = CholeskyFactor::new(&a)?;
//! let x = chol.solve(&[1.0, 2.0]);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod cholesky;
mod complex;
mod error;
mod kernels;
mod lu;
mod matrix;
pub mod stats;

pub use cholesky::CholeskyFactor;
pub use complex::Complex64;
pub use error::LinalgError;
pub use lu::{Lu, LuEntry};
pub use matrix::Matrix;

/// Ascending total order over `f64` that ranks every NaN *below* `−∞`.
///
/// NaN is treated as the worst possible value: `max_by(cmp_nan_worst)`
/// never selects a NaN over a number, and a descending sort via
/// `|a, b| cmp_nan_worst(b, a)` pushes NaN to the end. This is the
/// NaN-tolerant replacement for the `partial_cmp(..).expect("NaN")`
/// pattern on "larger is better" scores: a misbehaving simulator degrades
/// the ranking instead of aborting the run.
#[must_use]
pub fn cmp_nan_worst(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => a.total_cmp(b),
    }
}

/// Ascending total order over `f64` that ranks every NaN *above* `+∞`, so
/// an ascending sort places NaN last regardless of its sign bit (plain
/// `total_cmp` would put negative-sign NaN first).
#[must_use]
pub fn cmp_nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.total_cmp(b),
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn cmp_nan_worst_ranks_nan_below_everything() {
        let mut v = [2.0, f64::NAN, -1.0, f64::NEG_INFINITY, f64::INFINITY];
        v.sort_by(cmp_nan_worst);
        assert!(v[0].is_nan());
        assert_eq!(&v[1..], &[f64::NEG_INFINITY, -1.0, 2.0, f64::INFINITY]);
        // Descending via the reversed comparator: NaN ends up last.
        v.sort_by(|a, b| cmp_nan_worst(b, a));
        assert!(v[4].is_nan());
        assert_eq!(v[0], f64::INFINITY);
        // max_by never picks NaN over a number.
        let best = [f64::NAN, 0.5, f64::NAN]
            .iter()
            .copied()
            .max_by(cmp_nan_worst)
            .unwrap();
        assert_eq!(best, 0.5);
    }

    #[test]
    fn cmp_nan_last_sorts_nan_to_the_end() {
        let mut v = [f64::NAN, 1.0, -f64::NAN, 0.0, f64::INFINITY];
        v.sort_by(cmp_nan_last);
        assert_eq!(&v[..3], &[0.0, 1.0, f64::INFINITY]);
        assert!(v[3].is_nan() && v[4].is_nan());
    }
}
