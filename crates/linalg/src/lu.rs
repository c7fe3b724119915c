use crate::{Complex64, LinalgError};
use std::ops::{Div, Mul, Sub};

/// An entry type [`Lu`] factorises: `f64` for the DC Newton Jacobian,
/// [`Complex64`] for the AC system `G + jωC`.
pub trait LuEntry: Copy + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self> {
    /// The magnitude the pivot search and the singularity test compare.
    fn modulus(self) -> f64;
}

impl LuEntry for f64 {
    fn modulus(self) -> f64 {
        self.abs()
    }
}

impl LuEntry for Complex64 {
    fn modulus(self) -> f64 {
        self.abs()
    }
}

/// LU factorisation with partial pivoting, `P A = L U`, of a row-major
/// `n × n` buffer taken from the caller.
///
/// This is the one solver behind every MNA solve: the (unsymmetric) Newton
/// Jacobians of DC analysis and the complex small-signal systems of AC
/// analysis. Both entry types run the same operations in the same order.
/// [`Lu::into_buffer`] hands the storage back so a sweep can refill it at
/// the next frequency instead of allocating a new matrix.
///
/// # Example
///
/// ```
/// use kato_linalg::Lu;
///
/// # fn main() -> Result<(), kato_linalg::LinalgError> {
/// let lu = Lu::new(2, vec![0.0, 2.0, 1.0, 1.0])?; // needs pivoting
/// let x = lu.solve(&[2.0, 2.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T> {
    n: usize,
    /// Combined L (strict lower, unit diagonal implied) and U (upper)
    /// factors, row-major.
    lu: Vec<T>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

impl<T: LuEntry> Lu<T> {
    /// Relative pivot threshold below which the matrix is declared singular.
    const SINGULAR_TOL: f64 = 1e-13;

    /// Factorises the row-major `n × n` matrix `a` in place.
    ///
    /// A pivot whose modulus falls below `1e-13 × max(max|aᵢⱼ|, 1)` makes
    /// the matrix singular.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if no acceptable pivot exists.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n * n`.
    pub fn new(n: usize, mut a: Vec<T>) -> Result<Self, LinalgError> {
        assert_eq!(a.len(), n * n, "Lu::new: buffer is not n × n");
        let scale = a.iter().fold(0.0_f64, |m, z| m.max(z.modulus())).max(1.0);
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot: largest modulus in column k at/under the diagonal.
            let mut p = k;
            let mut best = a[k * n + k].modulus();
            for i in (k + 1)..n {
                let v = a[i * n + k].modulus();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < Self::SINGULAR_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if p != k {
                let (upper, lower) = a.split_at_mut(p * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k] / pivot;
                a[i * n + k] = factor;
                for j in (k + 1)..n {
                    let update = factor * a[k * n + j];
                    a[i * n + j] = a[i * n + j] - update;
                }
            }
        }
        Ok(Lu { n, lu: a, perm })
    }

    /// Solves `A x = b`.
    ///
    /// The right-hand-side length must equal the matrix dimension
    /// (debug-asserted, matching the [`crate::CholeskyFactor`] solve
    /// contract: shape errors are caller bugs, not runtime conditions).
    #[must_use]
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let n = self.n;
        debug_assert_eq!(b.len(), n, "Lu::solve: rhs length mismatch");
        // Apply permutation, then forward substitution with unit-diagonal L.
        let mut y: Vec<T> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut sum = y[i];
            for k in 0..i {
                sum = sum - self.lu[i * n + k] * y[k];
            }
            y[i] = sum;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum = sum - self.lu[i * n + k] * y[k];
            }
            y[i] = sum / self.lu[i * n + i];
        }
        y
    }

    /// Hands the factored buffer back, for the caller to refill with the
    /// next matrix of the same size.
    #[must_use]
    pub fn into_buffer(self) -> Vec<T> {
        self.lu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solve_requires_pivot() {
        let lu = Lu::new(2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = lu.solve(&[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_singular() {
        assert!(matches!(
            Lu::new(2, vec![1.0, 2.0, 2.0, 4.0]),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    #[should_panic(expected = "buffer is not n × n")]
    fn rejects_rectangular() {
        let _ = Lu::new(2, vec![1.0; 6]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn rhs_length_checked() {
        let lu = Lu::new(3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        let _ = lu.solve(&[1.0, 2.0]);
    }

    #[test]
    fn into_buffer_returns_the_storage_for_reuse() {
        let a = vec![4.0, 3.0, 6.0, 3.0];
        let ptr = a.as_ptr();
        let buffer = Lu::new(2, a).unwrap().into_buffer();
        assert_eq!(buffer.as_ptr(), ptr);
        assert_eq!(buffer.len(), 4);
    }

    proptest! {
        #[test]
        fn prop_solve_roundtrip(vals in proptest::collection::vec(-3.0..3.0f64, 16), n in 2usize..5) {
            // Diagonally dominant => nonsingular.
            let mut a: Vec<f64> = (0..n * n).map(|k| vals[k % vals.len()]).collect();
            for i in 0..n {
                let rowsum: f64 = a[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum();
                a[i * n + i] = rowsum + 1.0;
            }
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
            let b: Vec<f64> = a.chunks(n).map(|row| crate::dot(row, &x_true)).collect();
            let x = Lu::new(n, a).unwrap().solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-8);
            }
        }
    }
}
