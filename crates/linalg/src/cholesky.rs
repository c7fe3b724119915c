use crate::{kernels, LinalgError, Matrix};

/// Updatable Cholesky factorisation `A = L Lᵀ` of a symmetric
/// positive-definite matrix, with automatic diagonal jitter for numerically
/// borderline Gram matrices.
///
/// Gaussian-process Gram matrices frequently sit on the edge of positive
/// definiteness (duplicated inputs, tiny noise). [`CholeskyFactor::new`]
/// therefore retries with exponentially growing jitter (starting at `1e-10`
/// times the mean diagonal) before giving up.
///
/// Beyond the one-shot construction the factor is *persistent and
/// updatable* — the shape the KATO BO loop exploits, where the archive only
/// ever grows by a batch per iteration:
///
/// [`CholeskyFactor::extend`] appends `k` rows/columns in `O(k·n²)`
/// without refactorising the `n×n` prefix. It leaves the factor untouched
/// when it fails, so callers can fall back to a full refactorisation on
/// [`LinalgError::NotPositiveDefinite`].
///
/// # Example
///
/// ```
/// use kato_linalg::{CholeskyFactor, Matrix};
///
/// # fn main() -> Result<(), kato_linalg::LinalgError> {
/// let a = Matrix::from_fn(2, 2, |i, j| if i == j { 2.0 } else { 1.0 });
/// let chol = CholeskyFactor::new(&a)?;
/// let x = chol.solve(&[3.0, 3.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: Matrix,
    jitter: f64,
}

/// Runs the scalar Cholesky recurrence for rows `start..n` of `l`, reading
/// the source matrix through `a(i, j)` (only queried for `j <= i`,
/// `i >= start`) and adding `jitter` to diagonal entries.
///
/// Rows `0..start` of `l` must already hold a valid factor of the leading
/// block. Because the leading block of `L` depends only on the leading
/// block of `A`, running this with `start == 0` (fresh factorisation) or
/// `start == n_old` (extension) executes the *identical* sequence of
/// floating-point operations per entry — an extended factor is bitwise the
/// factor a from-scratch run at the same jitter would have produced.
///
/// The inner reduction is a slice dot product over row prefixes (row `i`
/// and row `j` of `L` are both finished up to column `j` when `l[i][j]` is
/// computed), which is the cache-friendly, vectorisable form of the
/// textbook `sum -= l[i][k]·l[j][k]` loop.
fn factor_rows<A>(l: &mut Matrix, a: A, start: usize, jitter: f64) -> Result<(), LinalgError>
where
    A: Fn(usize, usize) -> f64,
{
    let n = l.rows();
    for i in start..n {
        for j in 0..=i {
            let prod = {
                let (head, tail) = l.split_rows_at_mut(i);
                let row_i = &tail[..j];
                let row_j = if j == i {
                    row_i
                } else {
                    &head[j * n..j * n + j]
                };
                kernels::dot(row_i, row_j)
            };
            let mut sum = a(i, j);
            if i == j {
                sum += jitter;
            }
            sum -= prod;
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(())
}

impl CholeskyFactor {
    /// Maximum number of jitter escalations before declaring failure.
    const MAX_TRIES: usize = 10;

    /// Factorises `a`, adding jitter to the diagonal if required.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is rectangular.
    /// * [`LinalgError::NotPositiveDefinite`] if factorisation keeps failing
    ///   after the maximum jitter escalation.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mean_diag = if n == 0 {
            1.0
        } else {
            (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64
        };
        let base = (mean_diag.max(1e-300)) * 1e-10;
        let mut jitter = 0.0;
        for attempt in 0..Self::MAX_TRIES {
            let mut l = Matrix::zeros(n, n);
            match factor_rows(&mut l, |i, j| a[(i, j)], 0, jitter) {
                Ok(()) => return Ok(CholeskyFactor { l, jitter }),
                Err(_) => jitter = base * 10f64.powi(attempt as i32),
            }
        }
        Err(LinalgError::NotPositiveDefinite)
    }

    /// Dimension `n` of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    #[must_use]
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Jitter that was added to the diagonal to achieve factorisation.
    #[must_use]
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Rank-`k` extension: appends `k` rows/columns to the factored matrix
    /// without refactorising the existing `n×n` prefix — `O(k·n²)` instead
    /// of `O(n³)`.
    ///
    /// `cross` is the `k×n` block of covariances between the new and the
    /// existing points (row `p` ↔ new point `p`); `corner` is the `k×k`
    /// block among the new points, *including* any noise/nugget already on
    /// its diagonal. The factor's own jitter is applied to the new diagonal
    /// entries, so the result is bitwise identical to what
    /// [`CholeskyFactor::new`]'s recurrence would produce on the full
    /// `(n+k)×(n+k)` matrix at this factor's jitter.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`] for
    ///   shape violations.
    /// * [`LinalgError::NotPositiveDefinite`] when the Schur complement of
    ///   the new block is not positive definite. The factor is left
    ///   **untouched** in every error case — the caller's fallback is a
    ///   full refactorisation with jitter escalation.
    pub fn extend(&mut self, cross: &Matrix, corner: &Matrix) -> Result<(), LinalgError> {
        if !corner.is_square() {
            return Err(LinalgError::NotSquare {
                rows: corner.rows(),
                cols: corner.cols(),
            });
        }
        let n = self.l.rows();
        let k = corner.rows();
        if cross.rows() != k || cross.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "CholeskyFactor::extend (cross block)",
                expected: n,
                actual: cross.cols(),
            });
        }
        if k == 0 {
            return Ok(());
        }
        let m = n + k;
        let mut l = Matrix::zeros(m, m);
        for i in 0..n {
            l.row_mut(i)[..n].copy_from_slice(self.l.row(i));
        }
        factor_rows(
            &mut l,
            |i, j| {
                if j < n {
                    cross[(i - n, j)]
                } else {
                    corner[(i - n, j - n)]
                }
            },
            n,
            self.jitter,
        )?;
        self.l = l;
        Ok(())
    }

    /// Solves `A x = b` using forward then backward substitution.
    ///
    /// The right-hand-side length must equal the factor dimension
    /// (debug-asserted; callers sit behind shape-checked factorisations).
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.forward_sub(b);
        self.backward_sub(&y)
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// The right-hand-side length must equal the factor dimension
    /// (debug-asserted).
    #[must_use]
    pub fn forward_sub(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        debug_assert_eq!(b.len(), n, "forward_sub: rhs length mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let row = &self.l.row(i)[..i];
            let sum = b[i] - kernels::dot(row, &y[..i]);
            y[i] = sum / self.l[(i, i)];
        }
        y
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    ///
    /// The right-hand-side length must equal the factor dimension
    /// (debug-asserted).
    #[must_use]
    fn backward_sub(&self, y: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        debug_assert_eq!(y.len(), n, "backward_sub: rhs length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Solves `L Y = B` for a whole right-hand-side matrix (forward
    /// substitution on every column at once) — the batched form of
    /// [`CholeskyFactor::forward_sub`] used by `predict_batch`-style
    /// posterior inference, where `B` stacks one cross-covariance vector per
    /// query point as a column. Runs as row-level `axpy` updates (row `i`
    /// accumulates `−l[i][k]`·row `k` for `k < i`, then divides), which
    /// subtracts the same terms in the same order as the element-wise form —
    /// bitwise-identical results, but on contiguous slices the compiler can
    /// vectorise.
    ///
    /// `b.rows()` must equal the factor dimension (debug-asserted).
    #[must_use]
    pub fn forward_sub_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.l.rows();
        debug_assert_eq!(b.rows(), n, "forward_sub_matrix: rhs row-count mismatch");
        let q = b.cols();
        let mut y = b.clone();
        for i in 0..n {
            let l_row = self.l.row(i);
            let (head, tail) = y.split_rows_at_mut(i);
            let y_i = &mut tail[..q];
            for (k, &lik) in l_row.iter().enumerate().take(i) {
                kernels::axpy(-lik, &head[k * q..(k + 1) * q], y_i);
            }
            let inv_piv = l_row[i];
            for v in y_i.iter_mut() {
                *v /= inv_piv;
            }
        }
        y
    }

    /// Solves `Lᵀ X = Y` column-wise (batched backward substitution, same
    /// row-`axpy` scheme as
    /// [`CholeskyFactor::forward_sub_matrix`]).
    ///
    /// `y.rows()` must equal the factor dimension (debug-asserted).
    #[must_use]
    pub fn backward_sub_matrix(&self, y: &Matrix) -> Matrix {
        let n = self.l.rows();
        debug_assert_eq!(y.rows(), n, "backward_sub_matrix: rhs row-count mismatch");
        let q = y.cols();
        let mut x = y.clone();
        for i in (0..n).rev() {
            let (head, tail) = x.split_rows_at_mut(i + 1);
            let x_i = &mut head[i * q..];
            for k in (i + 1)..n {
                kernels::axpy(-self.l[(k, i)], &tail[(k - i - 1) * q..(k - i) * q], x_i);
            }
            let piv = self.l[(i, i)];
            for v in x_i.iter_mut() {
                *v /= piv;
            }
        }
        x
    }

    /// Solves `A X = B` for a whole right-hand-side matrix (forward then
    /// backward substitution on every column).
    ///
    /// `b.rows()` must equal the factor dimension (debug-asserted).
    #[must_use]
    fn solve_matrix(&self, b: &Matrix) -> Matrix {
        self.backward_sub_matrix(&self.forward_sub_matrix(b))
    }

    /// Log-determinant of `A`: `2 Σ log L_ii`.
    #[must_use]
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Explicit inverse `A⁻¹` (used for the GP B-matrix gradient trick, where
    /// every entry of the inverse is genuinely needed).
    #[must_use]
    pub fn inverse(&self) -> Matrix {
        let n = self.l.rows();
        let mut inv = self.solve_matrix(&Matrix::identity(n));
        inv.symmetrize();
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A matrix from equal-length rows.
    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_fn(rows.len(), rows[0].len(), |i, j| rows[i][j])
    }

    /// The product `A x`.
    fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..a.rows()).map(|i| crate::dot(a.row(i), x)).collect()
    }

    fn spd_from_seedish(vals: &[f64], n: usize) -> Matrix {
        // Build A = B Bᵀ + n I, guaranteed SPD.
        let b = Matrix::from_fn(n, n, |i, j| vals[(i * n + j) % vals.len()]);
        let mut a = Matrix::from_fn(n, n, |i, j| crate::dot(b.row(i), b.row(j)));
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn factor_known_matrix() {
        let a = mat(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let c = CholeskyFactor::new(&a).unwrap();
        let l = c.l();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(c.jitter(), 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd_from_seedish(&[0.3, -1.2, 0.7, 2.0, 0.05, -0.4], 5);
        let c = CholeskyFactor::new(&a).unwrap();
        let x_true: Vec<f64> = (0..5).map(|i| (i as f64) - 2.0).collect();
        let b = matvec(&a, &x_true);
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn log_det_matches_2x2() {
        let a = mat(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let c = CholeskyFactor::new(&a).unwrap();
        assert!((c.log_det() - 36.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_from_seedish(&[1.0, 0.2, -0.3, 0.9], 4);
        let c = CholeskyFactor::new(&a).unwrap();
        let inv = c.inverse();
        let mut err = 0.0_f64;
        for i in 0..4 {
            for j in 0..4 {
                let prod: f64 = (0..4).map(|k| inv[(i, k)] * a[(k, j)]).sum();
                err = err.max((prod - if i == j { 1.0 } else { 0.0 }).abs());
            }
        }
        assert!(err < 1e-9, "max deviation from identity: {err}");
    }

    #[test]
    fn near_singular_succeeds_with_finite_solve() {
        // Rank-1 matrix plus a tiny diagonal: must factor (with jitter if the
        // rounding falls the wrong way) and produce finite solves.
        let mut a = Matrix::from_fn(3, 3, |_, _| 1.0);
        a.add_diagonal(1e-14);
        let c = CholeskyFactor::new(&a).unwrap();
        let x = c.solve(&[1.0, 1.0, 1.0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn exactly_singular_rank1_gets_jitter() {
        // Exactly rank-1: zero pivot forces at least one jitter escalation.
        let a = Matrix::from_fn(3, 3, |_, _| 1.0);
        let c = CholeskyFactor::new(&a).unwrap();
        assert!(c.jitter() > 0.0);
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            CholeskyFactor::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_negative_definite() {
        let a = mat(&[&[-5.0, 0.0], &[0.0, -5.0]]);
        assert!(matches!(
            CholeskyFactor::new(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn matrix_solves_match_columnwise_vector_solves() {
        let a = spd_from_seedish(&[0.4, -0.9, 1.3, 0.2, -0.6, 0.8], 5);
        let c = CholeskyFactor::new(&a).unwrap();
        let b = Matrix::from_fn(5, 3, |i, j| (i as f64 * 0.7 - j as f64 * 1.1).sin());
        let fwd = c.forward_sub_matrix(&b);
        let full = c.solve_matrix(&b);
        for j in 0..3 {
            let col: Vec<f64> = (0..5).map(|i| b[(i, j)]).collect();
            let fwd_col = c.forward_sub(&col);
            let solve_col = c.solve(&col);
            for i in 0..5 {
                assert!(
                    (fwd[(i, j)] - fwd_col[i]).abs() < 1e-12,
                    "forward ({i},{j})"
                );
                assert!(
                    (full[(i, j)] - solve_col[i]).abs() < 1e-10,
                    "solve ({i},{j})"
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rhs row-count mismatch")]
    fn matrix_solve_rejects_wrong_row_count() {
        let a = Matrix::identity(3);
        let c = CholeskyFactor::new(&a).unwrap();
        let _ = c.forward_sub_matrix(&Matrix::zeros(2, 3));
    }

    /// Splits an SPD matrix at `n`, factors the prefix, extends with the
    /// remainder, and returns `(extended, from_scratch)` factors.
    fn extend_vs_scratch(a: &Matrix, n: usize) -> (CholeskyFactor, CholeskyFactor) {
        let m = a.rows();
        let prefix = Matrix::from_fn(n, n, |i, j| a[(i, j)]);
        let mut c = CholeskyFactor::new(&prefix).unwrap();
        let cross = Matrix::from_fn(m - n, n, |p, j| a[(n + p, j)]);
        let corner = Matrix::from_fn(m - n, m - n, |p, q| a[(n + p, n + q)]);
        c.extend(&cross, &corner).unwrap();
        (c, CholeskyFactor::new(a).unwrap())
    }

    #[test]
    fn extend_matches_from_scratch_bitwise() {
        let a = spd_from_seedish(&[0.7, -0.4, 1.9, 0.3, -1.1, 0.6, 0.2], 6);
        let (ext, scratch) = extend_vs_scratch(&a, 4);
        // Strongly SPD input → both paths run at jitter 0 with the identical
        // scalar recurrence, so the factors agree to the bit.
        assert_eq!(ext.jitter(), scratch.jitter());
        assert_eq!(ext.l().as_slice(), scratch.l().as_slice());
    }

    #[test]
    fn extend_from_empty_factor() {
        let a = spd_from_seedish(&[1.4, -0.2, 0.8, 0.5], 3);
        let mut c = CholeskyFactor::new(&Matrix::zeros(0, 0)).unwrap();
        c.extend(&Matrix::zeros(3, 0), &a).unwrap();
        let scratch = CholeskyFactor::new(&a).unwrap();
        assert_eq!(c.l().as_slice(), scratch.l().as_slice());
    }

    #[test]
    fn extend_rejects_bad_shapes_and_keeps_factor() {
        let a = spd_from_seedish(&[0.9, 0.1, -0.5, 1.2], 3);
        let mut c = CholeskyFactor::new(&a).unwrap();
        let before = c.l().clone();
        assert!(matches!(
            c.extend(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            c.extend(&Matrix::zeros(2, 4), &Matrix::zeros(2, 2)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert_eq!(c.l().as_slice(), before.as_slice());
    }

    #[test]
    fn extend_rejects_non_pd_corner_then_full_refactor_recovers() {
        // Corner identical to an existing row → the Schur complement is
        // exactly singular; extend must refuse and leave the factor intact,
        // and the caller's fallback (full refactorisation with jitter
        // escalation) must still succeed.
        let a = spd_from_seedish(&[0.8, -0.3, 1.1, 0.4], 3);
        let mut c = CholeskyFactor::new(&a).unwrap();
        let before = c.l().clone();
        let dup_row = Matrix::from_fn(1, 3, |_, j| a[(0, j)]);
        let dup_corner = Matrix::from_fn(1, 1, |_, _| a[(0, 0)]);
        assert!(matches!(
            c.extend(&dup_row, &dup_corner),
            Err(LinalgError::NotPositiveDefinite)
        ));
        assert_eq!(c.l().as_slice(), before.as_slice());
        // Fallback path: refactorise the full matrix from scratch.
        let full = Matrix::from_fn(4, 4, |i, j| {
            let ii = if i == 3 { 0 } else { i };
            let jj = if j == 3 { 0 } else { j };
            a[(ii, jj)]
        });
        let refactored = CholeskyFactor::new(&full).unwrap();
        assert!(refactored.jitter() > 0.0);
        assert!(refactored.solve(&[1.0; 4]).iter().all(|v| v.is_finite()));
    }

    proptest! {
        #[test]
        fn prop_solve_roundtrip(seed in proptest::collection::vec(-2.0..2.0f64, 9), n in 2usize..6) {
            let a = spd_from_seedish(&seed, n);
            let c = CholeskyFactor::new(&a).unwrap();
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7) - 1.0).collect();
            let b = matvec(&a, &x_true);
            let x = c.solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_l_lower_triangular(seed in proptest::collection::vec(-2.0..2.0f64, 9), n in 2usize..6) {
            let a = spd_from_seedish(&seed, n);
            let c = CholeskyFactor::new(&a).unwrap();
            for i in 0..n {
                for j in (i+1)..n {
                    prop_assert_eq!(c.l()[(i, j)], 0.0);
                }
            }
        }

        /// Random SPD growth sequences: factor a prefix, extend in one or
        /// two batches, and the result must match the from-scratch
        /// factorisation of the full matrix to 1e-10 (it is in fact
        /// bitwise-identical; the tolerance keeps the property honest if
        /// the recurrence is ever reordered).
        #[test]
        fn prop_extend_growth_matches_scratch(
            seed in proptest::collection::vec(-2.0..2.0f64, 12),
            n0 in 1usize..4,
            k1 in 1usize..4,
            k2 in 0usize..3,
        ) {
            let m = n0 + k1 + k2;
            let a = spd_from_seedish(&seed, m);
            let prefix = Matrix::from_fn(n0, n0, |i, j| a[(i, j)]);
            let mut c = CholeskyFactor::new(&prefix).unwrap();
            let mut grown = n0;
            for k in [k1, k2] {
                if k == 0 { continue; }
                let cross = Matrix::from_fn(k, grown, |p, j| a[(grown + p, j)]);
                let corner = Matrix::from_fn(k, k, |p, q| a[(grown + p, grown + q)]);
                c.extend(&cross, &corner).unwrap();
                grown += k;
            }
            let scratch = CholeskyFactor::new(&a).unwrap();
            prop_assert_eq!(c.jitter(), scratch.jitter());
            for i in 0..m {
                for j in 0..=i {
                    prop_assert!(
                        (c.l()[(i, j)] - scratch.l()[(i, j)]).abs() <= 1e-10,
                        "entry ({},{}) diverged", i, j
                    );
                }
            }
        }
    }
}
