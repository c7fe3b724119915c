use std::ops::{Add, Div, Mul, Neg, Sub};

/// Write-once numeric abstraction over plain `f64` and, in the tests, a
/// taped `kato_autodiff::Var`.
///
/// The kernel preparation, the pair formula and the MLP forward pass are
/// generic over `Scalar`. Production runs them at `f64`; the tests run the
/// same code on a tape, which makes it the oracle the hand-written reverse
/// passes equal bit for bit. There is no second forward path to drift.
///
/// Constants are introduced with [`Scalar::lift`], which creates the
/// constant in the same differentiation context as `self` (a no-op for
/// `f64`, a tape push for a taped value).
pub(crate) trait Scalar:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Add<f64, Output = Self>
    + Sub<f64, Output = Self>
    + Mul<f64, Output = Self>
    + Div<f64, Output = Self>
{
    /// The primitive value (identity for `f64`).
    #[cfg(test)]
    fn value(self) -> f64;
    /// Creates a constant in the same differentiation context as `self`.
    fn lift(self, v: f64) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Logistic sigmoid.
    fn sigmoid(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Value-wise maximum.
    #[cfg(test)]
    fn max_val(self, other: Self) -> Self;
}

impl Scalar for f64 {
    #[cfg(test)]
    fn value(self) -> f64 {
        self
    }
    fn lift(self, v: f64) -> f64 {
        v
    }
    fn exp(self) -> f64 {
        f64::exp(self)
    }
    fn ln(self) -> f64 {
        f64::ln(self)
    }
    fn sigmoid(self) -> f64 {
        1.0 / (1.0 + f64::exp(-self))
    }
    fn sin(self) -> f64 {
        f64::sin(self)
    }
    #[cfg(test)]
    fn max_val(self, other: f64) -> f64 {
        f64::max(self, other)
    }
}

#[cfg(test)]
impl<'t> Scalar for kato_autodiff::Var<'t> {
    fn value(self) -> f64 {
        kato_autodiff::Var::value(self)
    }
    fn lift(self, v: f64) -> Self {
        self.tape().constant(v)
    }
    fn exp(self) -> Self {
        kato_autodiff::Var::exp(self)
    }
    fn ln(self) -> Self {
        kato_autodiff::Var::ln(self)
    }
    fn sigmoid(self) -> Self {
        kato_autodiff::Var::sigmoid(self)
    }
    fn sin(self) -> Self {
        kato_autodiff::Var::sin(self)
    }
    fn max_val(self, other: Self) -> Self {
        kato_autodiff::Var::max_val(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_autodiff::Tape;

    /// A generic function exercised through both implementations.
    fn rbf_toy<S: Scalar>(x: S, y: S, ls: S) -> S {
        let d = x - y;
        (-(d * d) / (ls * ls)).exp()
    }

    #[test]
    fn f64_and_var_agree_on_values() {
        let f_plain = rbf_toy(1.0_f64, 0.2, 0.8);
        let tape = Tape::new();
        let f_taped = rbf_toy(tape.var(1.0), tape.var(0.2), tape.var(0.8));
        assert!((f_plain - f_taped.value()).abs() < 1e-15);
    }

    #[test]
    fn var_gradient_matches_f64_finite_difference() {
        let tape = Tape::new();
        let x = tape.var(1.0);
        let y = tape.var(0.2);
        let ls = tape.var(0.8);
        let f = rbf_toy(x, y, ls);
        let g = tape.backward(f);

        let h = 1e-6;
        let fd = (rbf_toy(1.0 + h, 0.2, 0.8) - rbf_toy(1.0 - h, 0.2, 0.8)) / (2.0 * h);
        assert!((g.wrt(x) - fd).abs() < 1e-6);
        let fd_ls = (rbf_toy(1.0, 0.2, 0.8 + h) - rbf_toy(1.0, 0.2, 0.8 - h)) / (2.0 * h);
        assert!((g.wrt(ls) - fd_ls).abs() < 1e-6);
    }

    #[test]
    fn lift_creates_context_constant() {
        let tape = Tape::new();
        let x = tape.var(3.0);
        let two = x.lift(2.0);
        assert_eq!(two.value(), 2.0);
        assert_eq!(1.0_f64.lift(2.0), 2.0);
    }

    #[test]
    fn sigmoid_consistent_between_impls() {
        let tape = Tape::new();
        for &v in &[-3.0, 0.0, 0.5, 4.0] {
            let a = v.sigmoid();
            let b = tape.var(v).sigmoid().value();
            assert!((a - b).abs() < 1e-15);
        }
    }
}
