//! Space-filling initial designs.
//!
//! The paper initialises BO with uniform random simulations; Latin hypercube
//! sampling (LHS) is the standard upgrade — every axis is stratified into
//! `n` bins with exactly one sample per bin — and is exposed as an optional
//! initialisation through [`BoSettings`](crate::BoSettings)-driven drivers
//! and directly here.

use rand::seq::SliceRandom;
use rand::Rng;

/// Draws `n` Latin-hypercube samples in the unit cube `[0,1]^dim`.
///
/// Each dimension is divided into `n` equal strata; each stratum receives
/// exactly one point (uniformly placed inside it), and strata are permuted
/// independently per dimension.
///
/// # Panics
///
/// Panics if `n == 0` or `dim == 0`.
pub fn latin_hypercube<R: Rng + ?Sized>(n: usize, dim: usize, rng: &mut R) -> Vec<Vec<f64>> {
    assert!(n > 0 && dim > 0, "latin_hypercube needs n > 0 and dim > 0");
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(dim);
    for _ in 0..dim {
        let mut strata: Vec<usize> = (0..n).collect();
        strata.shuffle(rng);
        columns.push(
            strata
                .iter()
                .map(|&s| (s as f64 + rng.gen::<f64>()) / n as f64)
                .collect(),
        );
    }
    (0..n)
        .map(|i| columns.iter().map(|c| c[i]).collect())
        .collect()
}

/// Smallest pairwise Euclidean distance in a point set (`inf` for < 2
/// points).
#[must_use]
pub fn min_pairwise_distance(points: &[Vec<f64>]) -> f64 {
    let mut best = f64::INFINITY;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let d = kato_linalg::sq_dist(&points[i], &points[j]).sqrt();
            best = best.min(d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lhs_stratifies_every_dimension() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10;
        let pts = latin_hypercube(n, 3, &mut rng);
        assert_eq!(pts.len(), n);
        for d in 0..3 {
            let mut bins = vec![false; n];
            for p in &pts {
                let b = ((p[d] * n as f64).floor() as usize).min(n - 1);
                assert!(!bins[b], "two samples in stratum {b} of dim {d}");
                bins[b] = true;
            }
            assert!(bins.iter().all(|&b| b), "missing stratum in dim {d}");
        }
    }

    #[test]
    fn distance_edge_cases() {
        assert_eq!(min_pairwise_distance(&[]), f64::INFINITY);
        assert_eq!(min_pairwise_distance(&[vec![1.0]]), f64::INFINITY);
        assert_eq!(
            min_pairwise_distance(&[vec![0.0, 0.0], vec![3.0, 4.0]]),
            5.0
        );
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn zero_samples_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = latin_hypercube(0, 2, &mut rng);
    }

    proptest! {
        #[test]
        fn prop_lhs_in_unit_cube(n in 1usize..30, dim in 1usize..6, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts = latin_hypercube(n, dim, &mut rng);
            for p in &pts {
                prop_assert_eq!(p.len(), dim);
                prop_assert!(p.iter().all(|&v| (0.0..1.0).contains(&v)));
            }
        }
    }
}
