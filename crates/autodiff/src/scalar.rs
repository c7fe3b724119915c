#[cfg(test)]
use crate::Tape;
use crate::Var;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Write-once numeric abstraction over plain `f64` and taped [`Var`].
///
/// All kernel functions and neural-network layers in `kato-gp` are generic
/// over `Scalar`, which means the *same* code path is exercised during fast
/// `f64` prediction and taped gradient-based training — eliminating a whole
/// class of "training math disagrees with inference math" bugs.
///
/// Constants are introduced with [`Scalar::lift`], which creates the constant
/// in the same differentiation context as `self` (a no-op for `f64`, a tape
/// push for `Var`).
///
/// # Example
///
/// ```
/// use kato_autodiff::{Scalar, Tape};
///
/// fn softplus<S: Scalar>(x: S) -> S {
///     (x.exp() + x.lift(1.0)).ln()
/// }
///
/// assert!((softplus(0.0_f64) - 2.0_f64.ln()).abs() < 1e-12);
/// let tape = Tape::new();
/// let v = tape.var(0.0);
/// assert!((softplus(v).value() - 2.0_f64.ln()).abs() < 1e-12);
/// ```
pub trait Scalar:
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
    fn value(self) -> f64;
    /// Creates a constant in the same differentiation context as `self`.
    fn lift(self, v: f64) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Logistic sigmoid.
    fn sigmoid(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// Absolute value (subgradient at 0 for `Var`).
    fn abs(self) -> Self;
    /// Value-wise maximum.
    fn max_val(self, other: Self) -> Self;
}

impl Scalar for f64 {
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
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    fn tanh(self) -> f64 {
        f64::tanh(self)
    }
    fn sigmoid(self) -> f64 {
        1.0 / (1.0 + f64::exp(-self))
    }
    fn sin(self) -> f64 {
        f64::sin(self)
    }
    fn cos(self) -> f64 {
        f64::cos(self)
    }
    fn powi(self, n: i32) -> f64 {
        f64::powi(self, n)
    }
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    fn max_val(self, other: f64) -> f64 {
        f64::max(self, other)
    }
}

impl<'t> Scalar for Var<'t> {
    fn value(self) -> f64 {
        Var::value(self)
    }
    fn lift(self, v: f64) -> Var<'t> {
        self.tape().constant(v)
    }
    fn exp(self) -> Var<'t> {
        Var::exp(self)
    }
    fn ln(self) -> Var<'t> {
        Var::ln(self)
    }
    fn sqrt(self) -> Var<'t> {
        Var::sqrt(self)
    }
    fn tanh(self) -> Var<'t> {
        Var::tanh(self)
    }
    fn sigmoid(self) -> Var<'t> {
        Var::sigmoid(self)
    }
    fn sin(self) -> Var<'t> {
        Var::sin(self)
    }
    fn cos(self) -> Var<'t> {
        Var::cos(self)
    }
    fn powi(self, n: i32) -> Var<'t> {
        Var::powi(self, n)
    }
    fn abs(self) -> Var<'t> {
        Var::abs(self)
    }
    fn max_val(self, other: Var<'t>) -> Var<'t> {
        Var::max_val(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
