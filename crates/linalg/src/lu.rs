use crate::{LinalgError, Matrix};

/// LU factorisation with partial pivoting, `P A = L U`.
///
/// Used by the MNA circuit simulator for the (unsymmetric) Jacobian solves of
/// Newton iterations and for real-valued transfer-function evaluation.
///
/// # Example
///
/// ```
/// use kato_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), kato_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = Lu::new(&a)?;
/// let x = lu.solve(&[2.0, 2.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Relative pivot threshold below which the matrix is declared singular.
    const SINGULAR_TOL: f64 = 1e-13;

    /// Factorises `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is rectangular.
    /// * [`LinalgError::Singular`] if no acceptable pivot exists.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = lu.max_abs().max(1.0);

        for k in 0..n {
            // Partial pivot: largest |entry| in column k at/under the diagonal.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < Self::SINGULAR_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let update = factor * lu[(k, j)];
                    lu[(i, j)] -= update;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Solves `A x = b`.
    ///
    /// The right-hand-side length must equal the matrix dimension
    /// (debug-asserted, matching the [`crate::CholeskyFactor`] solve
    /// contract: shape errors are caller bugs, not runtime conditions).
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        debug_assert_eq!(b.len(), n, "Lu::solve: rhs length mismatch");
        // Apply permutation, then forward substitution with unit-diagonal L.
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 1..n {
            let mut sum = y[i];
            for k in 0..i {
                sum -= self.lu[(i, k)] * y[k];
            }
            y[i] = sum;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.lu[(i, k)] * y[k];
            }
            y[i] = sum / self.lu[(i, i)];
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solve_requires_pivot() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular)));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Lu::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn rhs_length_checked() {
        let a = Matrix::identity(3);
        let lu = Lu::new(&a).unwrap();
        let _ = lu.solve(&[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn prop_solve_roundtrip(vals in proptest::collection::vec(-3.0..3.0f64, 16), n in 2usize..5) {
            // Diagonally dominant => nonsingular.
            let mut a = Matrix::from_fn(n, n, |i, j| vals[(i * n + j) % vals.len()]);
            for i in 0..n {
                let rowsum: f64 = (0..n).map(|j| a[(i, j)].abs()).sum();
                a[(i, i)] = rowsum + 1.0;
            }
            let lu = Lu::new(&a).unwrap();
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
            let b = a.matvec(&x_true).unwrap();
            let x = lu.solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-8);
            }
        }
    }
}
