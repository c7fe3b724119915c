/// First- and second-moment decay rates and the denominator guard.
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;
/// Gradient-norm clip of every training step.
const GRAD_CLIP: f64 = 50.0;

/// The maximum-likelihood loop of every fit (Neuk GP hyperparameters,
/// paper Eq. 3; the KAT-GP alignment, Eq. 12): up to `iters` Adam steps
/// from `theta`, each along the gradient of `objective` clipped to norm
/// [`GRAD_CLIP`], then clamped: the weights to `±bound` and the log-noise,
/// `theta`'s last entry, to `noise`. The first `None` ends it: the iterate
/// has not moved since, so every later evaluation would fail alike.
/// Returns the best iterate whose value was finite and that value, or the
/// last iterate and `−∞`.
pub(crate) fn ascend(
    mut theta: Vec<f64>,
    iters: usize,
    lr: f64,
    bound: f64,
    noise: (f64, f64),
    mut objective: impl FnMut(&[f64]) -> Option<(f64, Vec<f64>)>,
) -> (Vec<f64>, f64) {
    let mut opt = Adam::new(theta.len(), lr);
    let mut best = (f64::NEG_INFINITY, None);
    for _ in 0..iters {
        let Some((value, mut g)) = objective(&theta) else {
            break;
        };
        if value.is_finite() && value > best.0 {
            best = (value, Some(theta.clone()));
        }
        for gi in g.iter_mut() {
            *gi = -*gi;
        }
        clip_gradients(&mut g, GRAD_CLIP);
        opt.step(&mut theta, &g);
        let (log_noise, weights) = theta.split_last_mut().expect("theta ends in the log-noise");
        *log_noise = log_noise.clamp(noise.0, noise.1);
        for w in weights {
            *w = w.clamp(-bound, bound);
        }
    }
    (best.1.unwrap_or(theta), best.0)
}

/// Adam optimiser (Kingma & Ba, 2015) over a flat parameter vector: the
/// step of [`ascend`].
#[derive(Debug, Clone)]
struct Adam {
    lr: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// An optimiser for `dim` parameters at learning rate `lr`.
    #[must_use]
    fn new(dim: usize, lr: f64) -> Self {
        Adam {
            lr,
            t: 0,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
        }
    }

    /// One *descent* step, `params ← params − lr · m̂/(√v̂+ε)`. A non-finite
    /// gradient entry counts as zero, so one degenerate likelihood does not
    /// destroy the moment estimates. Panics on a length mismatch.
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "Adam: params length mismatch");
        assert_eq!(grads.len(), self.m.len(), "Adam: grads length mismatch");
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = if grads[i].is_finite() { grads[i] } else { 0.0 };
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g;
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// Rescales `grads` in place so its L2 norm does not exceed `max_norm`.
fn clip_gradients(grads: &mut [f64], max_norm: f64) {
    let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            *g *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic_bowl() {
        let mut p = vec![5.0, -4.0];
        let mut opt = Adam::new(2, 0.05);
        for _ in 0..2000 {
            let g = vec![2.0 * (p[0] - 1.0), 2.0 * (p[1] + 2.0)];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 1.0).abs() < 1e-3);
        assert!((p[1] + 2.0).abs() < 1e-3);
    }

    #[test]
    fn nan_gradients_are_ignored() {
        let mut p = vec![1.0];
        let mut opt = Adam::new(1, 0.1);
        opt.step(&mut p, &[f64::NAN]);
        assert!(p[0].is_finite());
        assert_eq!(p[0], 1.0); // zero effective gradient
    }

    #[test]
    fn clip_shrinks_only_large_gradients() {
        let norm = |g: &[f64]| (g[0] * g[0] + g[1] * g[1]).sqrt();
        let mut g = vec![3.0, 4.0];
        assert_eq!(norm(&g), 5.0);
        clip_gradients(&mut g, 10.0);
        assert_eq!(g, vec![3.0, 4.0]);
        clip_gradients(&mut g, 1.0);
        assert!((norm(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "params length mismatch")]
    fn wrong_dimension_panics() {
        let mut opt = Adam::new(2, 0.1);
        opt.step(&mut [0.0], &[1.0]);
    }

    /// [`ascend`] with no clamp.
    fn free(
        theta: Vec<f64>,
        iters: usize,
        lr: f64,
        objective: impl FnMut(&[f64]) -> Option<(f64, Vec<f64>)>,
    ) -> (Vec<f64>, f64) {
        let open = (f64::NEG_INFINITY, f64::INFINITY);
        ascend(theta, iters, lr, f64::INFINITY, open, objective)
    }

    /// `−(θ − 3)²` per entry: its value and gradient.
    fn bowl(theta: &[f64]) -> Option<(f64, Vec<f64>)> {
        let value = -theta.iter().map(|t| (t - 3.0).powi(2)).sum::<f64>();
        Some((value, theta.iter().map(|t| -2.0 * (t - 3.0)).collect()))
    }

    #[test]
    fn ascent_of_zero_iterations_returns_the_start() {
        let (theta, best) = free(vec![0.5, -1.0], 0, 0.1, bowl);
        assert_eq!(theta, vec![0.5, -1.0]);
        assert_eq!(best, f64::NEG_INFINITY);
    }

    #[test]
    fn ascent_stops_at_the_first_none() {
        let mut calls = 0;
        let objective = |theta: &[f64]| {
            calls += 1;
            (calls < 3).then(|| bowl(theta).unwrap())
        };
        let (theta, best) = free(vec![0.0], 10, 0.1, objective);
        assert_eq!(calls, 3, "no evaluation after the first None");
        // The best evaluated iterate, the second, comes back; the third
        // was never scored.
        assert_eq!(best, bowl(&theta).unwrap().0);
        assert!(theta[0] > 0.0 && theta[0] < 3.0, "{theta:?}");
    }

    #[test]
    fn ascent_keeps_the_best_finite_iterate() {
        // Far past the optimum at every later step, the start is best; a
        // NaN value is never taken as best.
        let mut seen = Vec::new();
        let objective = |theta: &[f64]| {
            seen.push(theta[0]);
            let value = if seen.len() == 2 {
                f64::NAN
            } else {
                -theta[0].abs()
            };
            Some((value, vec![1.0]))
        };
        let (theta, best) = free(vec![0.0], 5, 0.5, objective);
        assert_eq!(theta, vec![0.0]);
        assert_eq!(best.to_bits(), (-0.0_f64).to_bits());
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn ascent_returns_the_last_iterate_when_no_value_is_finite() {
        let mut last = Vec::new();
        let objective = |theta: &[f64]| {
            last = theta.to_vec();
            Some((f64::NAN, vec![1.0, -1.0]))
        };
        let (theta, best) = free(vec![0.0, 0.0], 4, 0.1, objective);
        assert_eq!(best, f64::NEG_INFINITY);
        // The fourth evaluation saw the iterate after three steps; the
        // fourth step follows it.
        assert_ne!(theta, last);
        assert!(
            theta[0] > last[0] && theta[1] < last[1],
            "{theta:?} after {last:?}"
        );
    }

    #[test]
    fn ascent_clamps_after_every_step() {
        // The bowl pulls both entries towards 3: the weight is clamped to
        // ±0.25 and the log-noise to [−1, 0.5] after every step, the start
        // not at all.
        let mut seen = Vec::new();
        let objective = |theta: &[f64]| {
            seen.push(theta.to_vec());
            bowl(theta)
        };
        let (theta, _) = ascend(vec![0.0, 0.0], 20, 0.9, 0.25, (-1.0, 0.5), objective);
        assert_eq!(seen[0], vec![0.0, 0.0]);
        assert!(seen[1..].iter().all(|t| *t == vec![0.25, 0.5]), "{seen:?}");
        assert_eq!(theta, vec![0.25, 0.5]);
    }
}
