use kato_linalg::stats;

/// Per-column standardisation (zero mean, unit variance) for GP inputs and
/// outputs.
///
/// Columns with (near-)zero variance are given unit scale so transforms stay
/// finite.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    /// Fits means and standard deviations per column.
    ///
    /// The moments are taken on the column scaled by `2^-k` (`k` ≈ log2 of
    /// its largest magnitude) and scaled back: exact short of subnormal
    /// intermediates, so they keep their bits, but a value near 1e160 no
    /// longer overflows the variance to an infinite scale that
    /// standardises every row to 0.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    #[must_use]
    pub(crate) fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "Scaler::fit on empty data");
        let dim = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == dim),
            "Scaler::fit on ragged data"
        );
        let mut means = Vec::with_capacity(dim);
        let mut stds = Vec::with_capacity(dim);
        for j in 0..dim {
            let big = rows.iter().fold(0.0_f64, |m, r| m.max(r[j].abs()));
            let k = (big.log2() as i32).clamp(-1022, 1022); // 2^±k are normal
            let col: Vec<f64> = rows.iter().map(|r| r[j] * 2f64.powi(-k)).collect();
            means.push(stats::mean(&col) * 2f64.powi(k));
            let s = stats::std_dev(&col) * 2f64.powi(k);
            stds.push(if s > 1e-12 { s } else { 1.0 });
        }
        Scaler { means, stds }
    }

    /// Fits a scaler for a single output column.
    #[must_use]
    pub(crate) fn fit_scalar(ys: &[f64]) -> Self {
        let rows: Vec<Vec<f64>> = ys.iter().map(|&y| vec![y]).collect();
        Scaler::fit(&rows)
    }

    /// Standardises a row.
    #[must_use]
    pub(crate) fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }

    /// Inverse transform: the round-trip oracle of the tests.
    #[cfg(test)]
    fn inverse(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&z, (&m, &s))| z * s + m)
            .collect()
    }

    /// Standardises a scalar with column `j`'s statistics.
    #[must_use]
    pub(crate) fn transform_scalar(&self, v: f64, j: usize) -> f64 {
        (v - self.means[j]) / self.stds[j]
    }

    /// Inverse of [`Scaler::transform_scalar`].
    #[must_use]
    pub(crate) fn inverse_scalar(&self, z: f64, j: usize) -> f64 {
        z * self.stds[j] + self.means[j]
    }

    /// The scale (standard deviation) of column `j` — needed to convert
    /// predictive variances back to raw units.
    #[must_use]
    pub(crate) fn scale(&self, j: usize) -> f64 {
        self.stds[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn standardises_and_inverts_each_column() {
        let data = vec![vec![1.0, 10.0], vec![3.0, 30.0]];
        let scaler = Scaler::fit(&data);
        let z = scaler.transform(&data[0]);
        assert!((z[0] + 1.0 / 2.0_f64.sqrt()).abs() < 1e-12); // (1−2)/√2
        let back = scaler.inverse(&z);
        assert!((back[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_gets_unit_scale() {
        let data = vec![vec![5.0], vec![5.0], vec![5.0]];
        let s = Scaler::fit(&data);
        assert_eq!(s.scale(0), 1.0);
        assert_eq!(s.transform(&[5.0])[0], 0.0);
    }

    #[test]
    fn scalar_helpers_roundtrip() {
        let s = Scaler::fit_scalar(&[1.0, 2.0, 3.0, 4.0]);
        let z = s.transform_scalar(3.0, 0);
        assert!((s.inverse_scalar(z, 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_panics() {
        let _ = Scaler::fit(&[]);
    }

    #[test]
    fn a_far_outlier_keeps_its_column() {
        // Unscaled, this column's variance overflows to +inf, its scale is
        // inf and every row standardises to 0.
        let data = vec![vec![1e159], vec![2e159], vec![3e159], vec![1e160]];
        let s = Scaler::fit(&data);
        assert!(s.scale(0).is_finite(), "scale {}", s.scale(0));
        let z: Vec<f64> = data.iter().map(|r| s.transform(r)[0]).collect();
        assert!(z.iter().all(|v| v.is_finite()), "{z:?}");
        for (i, a) in z.iter().enumerate() {
            for b in &z[i + 1..] {
                assert_ne!(a, b, "{z:?}");
            }
        }
        let back = s.inverse(&[z[3]]);
        assert!((back[0] / 1e160 - 1.0).abs() < 1e-12, "{back:?}");
    }

    proptest! {
        /// The power-of-two scaling is exact: the moments equal, bit for
        /// bit, the unscaled ones over columns of widely varying magnitude.
        #[test]
        fn prop_moments_equal_the_unscaled_ones_bitwise(
            vals in proptest::collection::vec(-1.0..1.0f64, 2..12),
            exp in -300..300i32,
        ) {
            let col: Vec<f64> = vals.iter().map(|v| v * 2.0_f64.powi(exp)).collect();
            let rows: Vec<Vec<f64>> = col.iter().map(|&v| vec![v]).collect();
            let s = Scaler::fit(&rows);
            let sd = stats::std_dev(&col);
            let want = if sd > 1e-12 { sd } else { 1.0 };
            prop_assert_eq!(s.means[0].to_bits(), stats::mean(&col).to_bits());
            prop_assert_eq!(s.stds[0].to_bits(), want.to_bits());
        }

        #[test]
        fn prop_roundtrip(vals in proptest::collection::vec(-100.0..100.0f64, 6)) {
            let rows: Vec<Vec<f64>> = vals.chunks(2).map(|c| c.to_vec()).collect();
            let s = Scaler::fit(&rows);
            for r in &rows {
                let back = s.inverse(&s.transform(r));
                for (a, b) in back.iter().zip(r) {
                    prop_assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }
}
