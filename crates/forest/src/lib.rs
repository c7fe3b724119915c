#![warn(missing_docs)]

//! Random-forest regression with cross-tree uncertainty — the surrogate
//! behind the SMAC-RF baseline of the KATO paper (§4.1 compares against
//! SMAC).
//!
//! A [`RandomForest`] is a bagged ensemble of CART regression trees with
//! variance-reduction splits and per-split feature subsampling. The ensemble
//! mean is the prediction; the spread across trees provides the uncertainty
//! estimate that SMAC's expected-improvement acquisition consumes. The
//! ensemble shape is fixed: 30 trees, leaves of at least 2 samples, depth
//! at most 16, and 80% of the features tried per split. A fit is shaped
//! only by its data and seed.
//!
//! # Example
//!
//! ```
//! use kato_forest::RandomForest;
//!
//! let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
//! let forest = RandomForest::fit(&xs, &ys, 0);
//! let (mean, var) = forest.predict(&[0.5]);
//! assert!((mean - 0.25).abs() < 0.1);
//! assert!(var >= 0.0);
//! ```

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Number of trees.
const N_TREES: usize = 30;
/// Minimum samples in a leaf.
const MIN_LEAF: usize = 2;
/// Maximum tree depth.
const MAX_DEPTH: usize = 16;
/// Fraction of features considered per split (`0 < f <= 1`).
const FEATURE_FRACTION: f64 = 0.8;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn fit(xs: &[Vec<f64>], ys: &[f64], idx: &mut [usize], rng: &mut StdRng) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        tree.build(xs, ys, idx, 0, rng);
        tree
    }

    fn build(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        idx: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64;
        if idx.len() < 2 * MIN_LEAF || depth >= MAX_DEPTH {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        let dim = xs[0].len();
        let n_try = ((dim as f64 * FEATURE_FRACTION).ceil() as usize).clamp(1, dim);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let total_sq: f64 = idx.iter().map(|&i| (ys[i] - mean) * (ys[i] - mean)).sum();

        // Random feature subset (partial Fisher-Yates).
        let mut feats: Vec<usize> = (0..dim).collect();
        for i in 0..n_try {
            let j = rng.gen_range(i..dim);
            feats.swap(i, j);
        }
        for &f in &feats[..n_try] {
            // NaN feature values sort last instead of aborting the fit.
            idx.sort_by(|&a, &b| kato_linalg::cmp_nan_last(&xs[a][f], &xs[b][f]));
            let total_sum: f64 = idx.iter().map(|&i| ys[i]).sum();
            let total_sqs: f64 = idx.iter().map(|&i| ys[i] * ys[i]).sum();
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for k in 0..idx.len() - 1 {
                let y = ys[idx[k]];
                left_sum += y;
                left_sq += y * y;
                if (k + 1) < MIN_LEAF || (idx.len() - k - 1) < MIN_LEAF {
                    continue;
                }
                if xs[idx[k]][f] == xs[idx[k + 1]][f] {
                    continue;
                }
                let nl = (k + 1) as f64;
                let nr = (idx.len() - k - 1) as f64;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sqs - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                let gain = total_sq - sse;
                if best.is_none_or(|(b, _, _)| gain > b) && gain > 1e-12 {
                    let thr = 0.5 * (xs[idx[k]][f] + xs[idx[k + 1]][f]);
                    best = Some((gain, f, thr));
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        };
        let split_at = stable_partition(idx, |&i| xs[i][feature] <= threshold);
        if split_at == 0 || split_at == idx.len() {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        // Reserve the parent slot, then build children.
        self.nodes.push(Node::Leaf { value: mean });
        let slot = self.nodes.len() - 1;
        let (left_idx, right_idx) = idx.split_at_mut(split_at);
        let left = self.build(xs, ys, left_idx, depth + 1, rng);
        let right = self.build(xs, ys, right_idx, depth + 1, rng);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    fn predict(&self, x: &[f64], root: usize) -> f64 {
        let mut node = root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Stable in-place partition; returns how many elements satisfy the
/// predicate (they end up first).
fn stable_partition<T: Copy, F: Fn(&T) -> bool>(slice: &mut [T], pred: F) -> usize {
    let mut keep: Vec<T> = Vec::with_capacity(slice.len());
    let mut rest: Vec<T> = Vec::with_capacity(slice.len());
    for &v in slice.iter() {
        if pred(&v) {
            keep.push(v);
        } else {
            rest.push(v);
        }
    }
    let k = keep.len();
    slice[..k].copy_from_slice(&keep);
    slice[k..].copy_from_slice(&rest);
    k
}

/// Bagged random-forest regressor with cross-tree variance.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<(Tree, usize)>,
    dim: usize,
}

impl RandomForest {
    /// Fits the ensemble on `(xs, ys)` with bootstrap resampling, drawing
    /// the bootstraps and feature subsets from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, ragged, or its length differs from `ys`.
    #[must_use]
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], seed: u64) -> RandomForest {
        assert!(!xs.is_empty(), "RandomForest::fit on empty data");
        assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
        let dim = xs[0].len();
        assert!(xs.iter().all(|r| r.len() == dim), "ragged inputs");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = xs.len();
        let mut trees = Vec::with_capacity(N_TREES);
        for _ in 0..N_TREES {
            let mut idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let tree = Tree::fit(xs, ys, &mut idx, &mut rng);
            // The top-level build call always creates its node first, so the
            // root is index 0... except children are pushed after the parent
            // slot is reserved — the root slot is the first node created.
            trees.push((tree, 0));
        }
        RandomForest { trees, dim }
    }

    /// Ensemble mean and cross-tree variance at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.dim, "predict: dimension mismatch");
        let preds: Vec<f64> = self
            .trees
            .iter()
            .map(|(t, root)| t.predict(x, *root))
            .collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / preds.len() as f64;
        (mean, var.max(1e-12))
    }

    /// Number of trees.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// `true` if the ensemble has no trees.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 59.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 0.5 { 1.0 } else { 3.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_step_function() {
        let (xs, ys) = step_data();
        let f = RandomForest::fit(&xs, &ys, 0);
        assert!((f.predict(&[0.2]).0 - 1.0).abs() < 0.3);
        assert!((f.predict(&[0.8]).0 - 3.0).abs() < 0.3);
    }

    #[test]
    fn uncertainty_peaks_at_discontinuity() {
        let (xs, ys) = step_data();
        let f = RandomForest::fit(&xs, &ys, 0);
        let (_, v_edge) = f.predict(&[0.5]);
        let (_, v_flat) = f.predict(&[0.1]);
        assert!(v_edge > v_flat, "edge {v_edge} vs flat {v_flat}");
    }

    #[test]
    fn multivariate_ignores_irrelevant_feature() {
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 10) as f64 / 9.0, (i / 10) as f64 / 7.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 * x[0]).collect();
        let f = RandomForest::fit(&xs, &ys, 0);
        let a = f.predict(&[0.3, 0.1]).0;
        let b = f.predict(&[0.3, 0.9]).0;
        assert!((a - b).abs() < 0.8, "{a} vs {b}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = step_data();
        let a = RandomForest::fit(&xs, &ys, 0);
        let b = RandomForest::fit(&xs, &ys, 0);
        assert_eq!(a.predict(&[0.37]), b.predict(&[0.37]));
    }

    #[test]
    fn single_point_dataset() {
        let f = RandomForest::fit(&[vec![0.5]], &[2.0], 0);
        assert_eq!(f.predict(&[0.1]).0, 2.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let (xs, ys) = step_data();
        let f = RandomForest::fit(&xs, &ys, 0);
        let _ = f.predict(&[0.1, 0.2]);
    }

    #[test]
    fn partition_helper_is_stable() {
        let mut v = [1, 5, 2, 6, 3];
        let k = stable_partition(&mut v, |&x| x < 4);
        assert_eq!(k, 3);
        assert_eq!(&v[..3], &[1, 2, 3]);
        assert_eq!(&v[3..], &[5, 6]);
    }

    proptest! {
        #[test]
        fn prop_prediction_within_target_range(
            ys in proptest::collection::vec(-10.0..10.0f64, 10..40),
            q in 0.0..1.0f64,
        ) {
            let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64 / ys.len() as f64]).collect();
            let f = RandomForest::fit(&xs, &ys, 0);
            let (m, _) = f.predict(&[q]);
            let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
