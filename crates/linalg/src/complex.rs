use crate::LinalgError;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Minimal double-precision complex number for AC small-signal analysis.
///
/// Only the operations the MNA simulator needs are provided (arithmetic,
/// magnitude, phase, conjugate, reciprocal).
///
/// # Example
///
/// ```
/// use kato_linalg::Complex64;
///
/// let j = Complex64::new(0.0, 1.0);
/// assert!((j * j + Complex64::ONE).abs() < 1e-15);
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
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

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
    pub fn abs_sq(self) -> f64 {
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
    pub fn recip(self) -> Self {
        let d = self.abs_sq();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// `true` if both components are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, o: Complex64) {
        *self = *self + o;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re - o.re, self.im - o.im)
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, o: Complex64) {
        *self = *self - o;
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

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, s: f64) -> Complex64 {
        Complex64::new(self.re * s, self.im * s)
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

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_re(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

/// Dense complex LU solver with partial pivoting for AC analysis.
///
/// The AC MNA system `(G + jωC) v = b` is rebuilt per frequency point, so the
/// solver owns its data and is consumed per solve batch.
///
/// # Example
///
/// ```
/// use kato_linalg::{Complex64, ComplexLu};
///
/// # fn main() -> Result<(), kato_linalg::LinalgError> {
/// let a = vec![
///     vec![Complex64::new(1.0, 1.0), Complex64::ZERO],
///     vec![Complex64::ZERO, Complex64::new(2.0, 0.0)],
/// ];
/// let lu = ComplexLu::new(a)?;
/// let x = lu.solve(&[Complex64::new(2.0, 2.0), Complex64::new(4.0, 0.0)]);
/// assert!((x[0] - Complex64::new(2.0, 0.0)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ComplexLu {
    lu: Vec<Vec<Complex64>>,
    perm: Vec<usize>,
}

impl ComplexLu {
    /// Relative pivot threshold below which the system is declared singular.
    const SINGULAR_TOL: f64 = 1e-13;

    /// Factorises the square complex matrix given as rows.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for ragged/rectangular input.
    /// * [`LinalgError::Singular`] if no acceptable pivot exists.
    pub fn new(mut a: Vec<Vec<Complex64>>) -> Result<Self, LinalgError> {
        let n = a.len();
        if a.iter().any(|row| row.len() != n) {
            return Err(LinalgError::NotSquare {
                rows: n,
                cols: a.first().map_or(0, Vec::len),
            });
        }
        let scale = a
            .iter()
            .flat_map(|r| r.iter())
            .fold(0.0_f64, |m, z| m.max(z.abs()))
            .max(1.0);
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            let mut best = a[k][k].abs();
            for i in (k + 1)..n {
                let v = a[i][k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < Self::SINGULAR_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if p != k {
                a.swap(k, p);
                perm.swap(k, p);
            }
            let pivot = a[k][k];
            for i in (k + 1)..n {
                let factor = a[i][k] / pivot;
                a[i][k] = factor;
                for j in (k + 1)..n {
                    let upd = factor * a[k][j];
                    a[i][j] -= upd;
                }
            }
        }
        Ok(ComplexLu { lu: a, perm })
    }

    /// Solves `A x = b`.
    ///
    /// The right-hand-side length must equal the matrix dimension
    /// (debug-asserted, matching the [`crate::CholeskyFactor`] solve
    /// contract).
    #[must_use]
    pub fn solve(&self, b: &[Complex64]) -> Vec<Complex64> {
        let n = self.lu.len();
        debug_assert_eq!(b.len(), n, "ComplexLu::solve: rhs length mismatch");
        let mut y: Vec<Complex64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 1..n {
            let mut sum = y[i];
            for k in 0..i {
                sum -= self.lu[i][k] * y[k];
            }
            y[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.lu[i][k] * y[k];
            }
            y[i] = sum / self.lu[i][i];
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert!((z * z.recip() - Complex64::ONE).abs() < 1e-15);
        assert_eq!((-z).re, -3.0);
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
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
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2j");
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2j");
    }

    #[test]
    fn complex_lu_solves_with_pivot() {
        let a = vec![
            vec![Complex64::ZERO, Complex64::ONE],
            vec![Complex64::ONE, Complex64::I],
        ];
        let lu = ComplexLu::new(a).unwrap();
        let x = lu.solve(&[Complex64::new(2.0, 0.0), Complex64::new(1.0, 2.0)]);
        // x1 = 2 from first row; second row: x0 + j*2 = 1 + 2j => x0 = 1.
        assert!((x[1] - Complex64::new(2.0, 0.0)).abs() < 1e-12);
        assert!((x[0] - Complex64::new(1.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn complex_lu_rejects_singular() {
        let a = vec![
            vec![Complex64::ONE, Complex64::ONE],
            vec![Complex64::ONE, Complex64::ONE],
        ];
        assert!(matches!(ComplexLu::new(a), Err(LinalgError::Singular)));
    }

    proptest! {
        #[test]
        fn prop_complex_lu_roundtrip(vals in proptest::collection::vec(-2.0..2.0f64, 32), n in 2usize..5) {
            let mut a: Vec<Vec<Complex64>> = (0..n).map(|i| (0..n).map(|j| {
                Complex64::new(vals[(2*(i*n+j)) % vals.len()], vals[(2*(i*n+j)+1) % vals.len()])
            }).collect()).collect();
            // Diagonal dominance for nonsingularity.
            for (i, row) in a.iter_mut().enumerate() {
                let rowsum: f64 = row.iter().map(|z| z.abs()).sum();
                row[i] = Complex64::new(rowsum + 1.0, 0.5);
            }
            let x_true: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, -(i as f64) * 0.5)).collect();
            let b: Vec<Complex64> = (0..n).map(|i| {
                let mut s = Complex64::ZERO;
                for j in 0..n { s += a[i][j] * x_true[j]; }
                s
            }).collect();
            let lu = ComplexLu::new(a).unwrap();
            let x = lu.solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((*xi - *ti).abs() < 1e-8);
            }
        }
    }
}
