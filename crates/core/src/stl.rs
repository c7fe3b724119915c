//! Selective Transfer Learning weights (paper §3.4, Eq. 14).
//!
//! STL maintains one weight per proposal model (KAT-GP and target-only
//! NeukGP in the paper). Each batch is split proportionally to the weights;
//! after simulation, each model's weight grows by the number of its
//! proposals that improved the incumbent. Models that keep producing
//! improvements earn a larger share; negative transfer starves itself out.

/// Bandit-style proposal weights for Selective Transfer Learning.
#[derive(Debug, Clone, PartialEq)]
pub struct StlWeights {
    weights: Vec<f64>,
}

impl StlWeights {
    /// Creates weights for `n` proposal models, initialised to `init`
    /// each. The paper initialises with the number of samples; any equal
    /// positive value yields the same initial 50/50 split.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `init <= 0`.
    #[must_use]
    pub fn new(n: usize, init: f64) -> Self {
        assert!(n > 0, "need at least one proposal model");
        assert!(init > 0.0, "initial weight must be positive");
        StlWeights {
            weights: vec![init; n],
        }
    }

    /// Current normalised share of model `i`: `wᵢ / Σw`.
    #[must_use]
    pub fn share(&self, i: usize) -> f64 {
        self.weights[i] / self.weights.iter().sum::<f64>()
    }

    /// Splits a batch of `n_batch` points across the models proportionally
    /// to the weights (Algorithm 1, line 6). Every model with positive
    /// weight gets at least the rounding honesty of largest-remainder
    /// allocation; the counts always sum to `n_batch`.
    #[must_use]
    pub fn split_batch(&self, n_batch: usize) -> Vec<usize> {
        let total: f64 = self.weights.iter().sum();
        let ideal: Vec<f64> = self
            .weights
            .iter()
            .map(|w| w / total * n_batch as f64)
            .collect();
        let mut counts: Vec<usize> = ideal.iter().map(|v| v.floor() as usize).collect();
        let mut assigned: usize = counts.iter().sum();
        // Largest remainder method.
        let mut rema: Vec<(usize, f64)> = ideal
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v - v.floor()))
            .collect();
        rema.sort_by(|a, b| kato_linalg::cmp_nan_worst(&b.1, &a.1));
        let mut k = 0;
        while assigned < n_batch {
            counts[rema[k % rema.len()].0] += 1;
            assigned += 1;
            k += 1;
        }
        counts
    }

    /// Eq. 14: `wᵢ ← wᵢ + |f(Aᵢ) > y†|` — adds the number of simulations
    /// from model `i`'s action set that beat the previous incumbent.
    pub fn reward(&mut self, i: usize, improvements: usize) {
        self.weights[i] += improvements as f64;
    }

    /// Raw weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_weights_split_evenly() {
        let w = StlWeights::new(2, 10.0);
        assert_eq!(w.split_batch(6), vec![3, 3]);
        assert!((w.share(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rewards_shift_the_split() {
        let mut w = StlWeights::new(2, 5.0);
        for _ in 0..4 {
            w.reward(0, 5);
        }
        // w = [25, 5] → shares 5/6 vs 1/6 → batch of 6 → 5 vs 1.
        assert_eq!(w.split_batch(6), vec![5, 1]);
    }

    #[test]
    fn zero_improvements_keep_weights() {
        let mut w = StlWeights::new(2, 3.0);
        w.reward(1, 0);
        assert_eq!(w.weights(), &[3.0, 3.0]);
    }

    #[test]
    fn starved_model_still_gets_occasional_slot_via_rounding() {
        let mut w = StlWeights::new(2, 1.0);
        w.reward(0, 50);
        let counts = w.split_batch(5);
        assert_eq!(counts.iter().sum::<usize>(), 5);
        // Model 1's share is 1/52 ≈ 0.02 → floor 0; it may legitimately get
        // zero here; the invariant is only the sum.
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_models_panics() {
        let _ = StlWeights::new(0, 1.0);
    }

    proptest! {
        #[test]
        fn prop_split_sums_to_batch(
            w0 in 1.0..100.0f64,
            w1 in 1.0..100.0f64,
            w2 in 1.0..100.0f64,
            n in 1usize..20,
        ) {
            let mut w = StlWeights::new(3, 1.0);
            w.reward(0, w0 as usize);
            w.reward(1, w1 as usize);
            w.reward(2, w2 as usize);
            let counts = w.split_batch(n);
            prop_assert_eq!(counts.iter().sum::<usize>(), n);
        }
    }
}
