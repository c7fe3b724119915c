use std::ops::{Index, IndexMut};

/// Row-major dense `f64` matrix.
///
/// This is a deliberately small matrix type: the KATO workloads involve Gram
/// matrices of at most a few hundred rows and MNA systems of a few dozen
/// nodes. The hot loops (the Cholesky recurrence and triangular solves in
/// [`crate::CholeskyFactor`]) run on slice-based row kernels (see the
/// crate's internal `kernels` module); everything else keeps the
/// straightforward index form.
///
/// # Example
///
/// ```
/// use kato_linalg::Matrix;
///
/// let mut a = Matrix::from_fn(2, 2, |i, j| (2 * i + j) as f64);
/// a.add_diagonal(1.0);
/// assert_eq!(a[(1, 0)], 2.0);
/// assert_eq!(a.row(1), &[2.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows`×`cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Splits the storage at the start of row `r`: `(rows 0..r, rows r..)`,
    /// both as flat row-major slices. This is what lets the triangular
    /// solves update row `r` with slice kernels while reading the already-
    /// finished rows above (or below) it.
    pub(crate) fn split_rows_at_mut(&mut self, r: usize) -> (&mut [f64], &mut [f64]) {
        debug_assert!(r <= self.rows, "split_rows_at_mut: row {r} out of bounds");
        self.data.split_at_mut(r * self.cols)
    }

    /// Flat row-major view of the data.
    #[cfg(test)]
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The row-major storage, handed over without a copy.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Symmetrises a square matrix in place: `A ← (A + Aᵀ)/2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub(crate) fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Adds `v` to the diagonal in place.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, v: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += v;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from equal-length rows.
    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_fn(rows.len(), rows[0].len(), |i, j| rows[i][j])
    }

    #[test]
    fn construction_and_indexing() {
        let m = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn symmetrize_and_diagonal() {
        let mut a = mat(&[&[1.0, 2.0], &[4.0, 1.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
        a.add_diagonal(0.5);
        assert_eq!(a[(0, 0)], 1.5);
    }
}
