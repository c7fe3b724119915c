//! Shared inner loops of the Cholesky factorisation and its triangular
//! solves.
//!
//! Straight-line loops with a fixed left-to-right accumulation order.
//! Element-wise kernels (`axpy`) auto-vectorise; the reductions (`dot`) stay
//! strictly sequential so results are bit-reproducible across compilers and
//! match the scalar recurrences the factorisation routines are specified
//! against.

/// `y[i] += a * x[i]` over equal-length slices.
///
/// The per-element operations are independent, so the loop auto-vectorises.
#[inline]
pub(crate) fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Sequential dot product: one accumulator, strict left-to-right order.
#[inline]
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for (xi, yi) in x.iter().zip(y) {
        acc += xi * yi;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn dot_matches_reference() {
        let x: Vec<f64> = (0..11).map(|i| i as f64 * 0.37 - 1.0).collect();
        let y: Vec<f64> = (0..11).map(|i| 2.0 - i as f64 * 0.21).collect();
        let reference: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - reference).abs() < 1e-12);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
