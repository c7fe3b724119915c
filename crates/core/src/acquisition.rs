//! Acquisition functions (paper §2.3) over `(mean, variance)` posteriors.
//!
//! All functions take the posterior of an objective that is **maximised**.

use kato_linalg::stats::{norm_cdf, norm_pdf};

/// Probability of improvement over the incumbent `best` (Eq. 5).
#[must_use]
pub(crate) fn probability_of_improvement(mean: f64, var: f64, best: f64) -> f64 {
    let sigma = var.max(1e-18).sqrt();
    norm_cdf((mean - best) / sigma)
}

/// Expected improvement over the incumbent `best` (Eq. 6).
#[must_use]
pub(crate) fn expected_improvement(mean: f64, var: f64, best: f64) -> f64 {
    let sigma = var.max(1e-18).sqrt();
    let u = (mean - best) / sigma;
    ((mean - best) * norm_cdf(u) + sigma * norm_pdf(u)).max(0.0)
}

/// Upper confidence bound with exploration weight `beta` (Eq. 7).
#[must_use]
pub(crate) fn upper_confidence_bound(mean: f64, var: f64, beta: f64) -> f64 {
    mean + beta * var.max(0.0).sqrt()
}

/// Probability of feasibility over constraint-margin posteriors: each margin
/// is Gaussian `N(mean_i, var_i)` and the constraint is met when the margin
/// is non-negative, so `PF = Π Φ(mean_i/σ_i)` (paper §3.3).
#[must_use]
pub(crate) fn probability_of_feasibility(margins: &[(f64, f64)]) -> f64 {
    margins
        .iter()
        .map(|&(m, v)| norm_cdf(m / v.max(1e-18).sqrt()))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ei_zero_when_certain_and_worse() {
        assert!(expected_improvement(0.0, 1e-20, 1.0) < 1e-12);
    }

    #[test]
    fn ei_positive_with_uncertainty() {
        assert!(expected_improvement(0.0, 1.0, 1.0) > 0.0);
    }

    #[test]
    fn ei_grows_with_mean() {
        let lo = expected_improvement(0.0, 1.0, 1.0);
        let hi = expected_improvement(0.5, 1.0, 1.0);
        assert!(hi > lo);
    }

    #[test]
    fn ei_equals_gap_when_certain_and_better() {
        let ei = expected_improvement(2.0, 1e-20, 1.0);
        assert!((ei - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pi_is_half_at_incumbent() {
        assert!((probability_of_improvement(1.0, 1.0, 1.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn ucb_tradeoff() {
        assert_eq!(upper_confidence_bound(1.0, 4.0, 2.0), 5.0);
        assert_eq!(upper_confidence_bound(1.0, 4.0, 0.0), 1.0);
    }

    #[test]
    fn pf_product_and_extremes() {
        // Comfortably feasible on both constraints.
        let pf = probability_of_feasibility(&[(5.0, 1.0), (4.0, 1.0)]);
        assert!(pf > 0.99);
        // One hopeless constraint kills the product.
        let pf = probability_of_feasibility(&[(5.0, 1.0), (-8.0, 1.0)]);
        assert!(pf < 1e-6);
        // No constraints → certainty.
        assert_eq!(probability_of_feasibility(&[]), 1.0);
    }
}
