/// Result of comparing an analytic gradient against central finite
/// differences.
#[derive(Debug, Clone)]
pub struct GradientCheck {
    /// Largest absolute discrepancy across coordinates.
    pub(crate) max_abs_err: f64,
    /// Largest relative discrepancy across coordinates (denominator floored
    /// at 1.0 to avoid blowups near zero gradients).
    pub(crate) max_rel_err: f64,
}

impl GradientCheck {
    /// `true` when both error measures are below `tol`.
    #[must_use]
    pub fn passes(&self, tol: f64) -> bool {
        self.max_abs_err < tol || self.max_rel_err < tol
    }
}

/// Verifies `analytic` against central finite differences of `f` at `x`.
///
/// `f` must be deterministic. Step size `h` is scaled per-coordinate by
/// `max(1, |x_i|)`.
///
/// This is a *test utility*: `kato_gp`'s unit tests use it to check that
/// every taped objective's gradient matches its math.
pub fn check_gradient<F>(f: F, x: &[f64], analytic: &[f64], h: f64) -> GradientCheck
where
    F: Fn(&[f64]) -> f64,
{
    assert_eq!(
        x.len(),
        analytic.len(),
        "check_gradient: dimension mismatch"
    );
    let mut max_abs = 0.0_f64;
    let mut max_rel = 0.0_f64;
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let hi = h * x[i].abs().max(1.0);
        xp[i] = x[i] + hi;
        let fp = f(&xp);
        xp[i] = x[i] - hi;
        let fm = f(&xp);
        xp[i] = x[i];
        let numeric = (fp - fm) / (2.0 * hi);
        let abs_err = (numeric - analytic[i]).abs();
        let rel_err = abs_err / numeric.abs().max(analytic[i].abs()).max(1.0);
        max_abs = max_abs.max(abs_err);
        max_rel = max_rel.max(rel_err);
    }
    GradientCheck {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    #[test]
    fn tape_gradient_passes_check_on_rosenbrock() {
        let rosen = |p: &[f64]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
        let x = [0.3, -0.7];
        let tape = Tape::new();
        let a = tape.var(x[0]);
        let b = tape.var(x[1]);
        let one = tape.constant(1.0);
        let (u, v) = (one - a, b - a * a);
        let f = u * u + 100.0 * (v * v);
        let g = tape.backward(f);
        let check = check_gradient(rosen, &x, &[g.wrt(a), g.wrt(b)], 1e-6);
        assert!(check.passes(1e-5), "check: {check:?}");
    }

    #[test]
    fn detects_wrong_gradient() {
        let f = |p: &[f64]| p[0] * p[0];
        let check = check_gradient(f, &[2.0], &[100.0], 1e-6);
        assert!(!check.passes(1e-3));
        // The central difference of x² at 2 is 4, so |4 − 100| = 96.
        assert!((check.max_abs_err - 96.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = check_gradient(|p| p[0], &[1.0, 2.0], &[1.0], 1e-6);
    }
}
