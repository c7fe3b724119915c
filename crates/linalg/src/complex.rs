use std::ops::{Div, Mul, Sub};

/// Minimal double-precision complex number for AC small-signal analysis.
///
/// Only the operations the MNA simulator needs are provided: the arithmetic
/// of the [`crate::Lu`] solve, magnitude and phase.
///
/// # Example
///
/// ```
/// use kato_linalg::Complex64;
///
/// let j = Complex64::new(0.0, 1.0);
/// assert!((j * j - Complex64::from_re(-1.0)).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };

    /// Creates `re + im·j`.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real value.
    #[must_use]
    pub const fn from_re(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Magnitude `|z|`, computed with `hypot` for robustness.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    #[must_use]
    pub(crate) fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[must_use]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Reciprocal `1/z`.
    ///
    /// Division by zero produces non-finite components, mirroring `f64`.
    #[must_use]
    pub(crate) fn recip(self) -> Self {
        let d = self.abs_sq();
        Complex64::new(self.re / d, -self.im / d)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    // Division by multiplying with the reciprocal is the intended formula.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, o: Complex64) -> Complex64 {
        self * o.recip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinalgError, Lu};
    use proptest::prelude::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert!((z * z.recip() - Complex64::from_re(1.0)).abs() < 1e-15);
        let j = Complex64::new(0.0, 1.0);
        assert_eq!(j * j, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn division_matches_multiplication() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-0.5, 0.25);
        let q = a / b;
        assert!((q * b - a).abs() < 1e-14);
    }

    #[test]
    fn arg_quadrants() {
        assert!((Complex64::new(1.0, 1.0).arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
        assert!((Complex64::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < 1e-15);
    }

    #[test]
    fn complex_lu_solves_with_pivot() {
        let (zero, one, j) = (
            Complex64::ZERO,
            Complex64::new(1.0, 0.0),
            Complex64::new(0.0, 1.0),
        );
        let lu = Lu::new(2, vec![zero, one, one, j]).unwrap();
        let x = lu.solve(&[Complex64::new(2.0, 0.0), Complex64::new(1.0, 2.0)]);
        // x1 = 2 from first row; second row: x0 + j*2 = 1 + 2j => x0 = 1.
        assert!((x[1] - Complex64::new(2.0, 0.0)).abs() < 1e-12);
        assert!((x[0] - Complex64::new(1.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn complex_lu_rejects_singular() {
        let one = Complex64::new(1.0, 0.0);
        assert!(matches!(
            Lu::new(2, vec![one; 4]),
            Err(LinalgError::Singular)
        ));
    }

    proptest! {
        #[test]
        fn prop_complex_lu_roundtrip(vals in proptest::collection::vec(-2.0..2.0f64, 32), n in 2usize..5) {
            let mut a: Vec<Complex64> = (0..n * n)
                .map(|k| Complex64::new(vals[(2 * k) % vals.len()], vals[(2 * k + 1) % vals.len()]))
                .collect();
            // Diagonal dominance for nonsingularity.
            for i in 0..n {
                let rowsum: f64 = a[i * n..(i + 1) * n].iter().map(|z| z.abs()).sum();
                a[i * n + i] = Complex64::new(rowsum + 1.0, 0.5);
            }
            let x_true: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, -(i as f64) * 0.5)).collect();
            let b: Vec<Complex64> = a
                .chunks(n)
                .map(|row| {
                    row.iter().zip(&x_true).fold(Complex64::ZERO, |s, (&aij, &xj)| {
                        let p = aij * xj;
                        Complex64::new(s.re + p.re, s.im + p.im)
                    })
                })
                .collect();
            let x = Lu::new(n, a).unwrap().solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((*xi - *ti).abs() < 1e-8);
            }
        }
    }
}
