//! Summary statistics used for data standardisation and experiment reporting.

/// Arithmetic mean; `0.0` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (`n-1` denominator); `0.0` when `n < 2`.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Linear-interpolated quantile, `q ∈ [0, 1]`.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(crate::cmp_nan_last);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Empirical CDF value of `x` within `sample` (fraction of entries ≤ `x`),
/// clipped away from 0 and 1 for use inside Gaussian-copula transforms.
#[must_use]
pub fn ecdf(sample: &[f64], x: f64) -> f64 {
    if sample.is_empty() {
        return 0.5;
    }
    let count = sample.iter().filter(|&&s| s <= x).count();
    let n = sample.len() as f64;
    ((count as f64) / n).clamp(0.5 / n, 1.0 - 0.5 / n)
}

/// Standard normal PDF.
#[must_use]
pub fn norm_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via `erf`-free Abramowitz–Stegun 7.1.26 approximation
/// (max absolute error ~1.5e-7, ample for acquisition functions).
#[must_use]
pub fn norm_cdf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs() / std::f64::consts::SQRT_2;
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    0.5 * (1.0 + sign * y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_std_of_known_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std of this classic dataset is sqrt(32/7).
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert_eq!(ecdf(&[], 1.0), 0.5);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_key_points() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!(norm_cdf(-8.0) < 1e-10);
    }

    #[test]
    fn pdf_peak_at_zero() {
        assert!((norm_pdf(0.0) - 0.398_942_280_401).abs() < 1e-9);
        assert!(norm_pdf(1.0) < norm_pdf(0.0));
    }

    proptest! {
        #[test]
        fn prop_quantile_within_bounds(xs in proptest::collection::vec(-100.0..100.0f64, 1..50), q in 0.0..=1.0f64) {
            let v = quantile(&xs, q);
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-12);
            prop_assert!(v <= hi + 1e-12);
        }

        #[test]
        fn prop_cdf_monotone(a in -5.0..5.0f64, b in -5.0..5.0f64) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(norm_cdf(lo) <= norm_cdf(hi) + 1e-12);
        }

        #[test]
        fn prop_ecdf_in_unit_interval(sample in proptest::collection::vec(-10.0..10.0f64, 1..40), x in -20.0..20.0f64) {
            let v = ecdf(&sample, x);
            prop_assert!(v > 0.0 && v < 1.0);
        }
    }
}
