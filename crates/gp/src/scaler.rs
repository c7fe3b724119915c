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
            let col: Vec<f64> = rows.iter().map(|r| r[j]).collect();
            means.push(stats::mean(&col));
            let s = stats::std_dev(&col);
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

    proptest! {
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
