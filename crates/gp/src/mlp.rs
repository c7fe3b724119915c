use crate::scalar::Scalar;
use rand::Rng;

/// A small fully connected network with sigmoid hidden activations and a
/// linear output layer — the encoder/decoder architecture of KAT-GP
/// (paper §3.2: `linear(d_in×32) – sigmoid – linear(32×d_out)`).
///
/// Parameters live in an external flat slice so the same spec can be
/// evaluated with plain `f64` (production) or taped `kato_autodiff::Var`s
/// (the tests' oracle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MlpSpec {
    sizes: Vec<usize>,
}

impl MlpSpec {
    /// Creates a spec from layer sizes `[in, hidden..., out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    #[must_use]
    pub(crate) fn new(sizes: &[usize]) -> Self {
        assert!(
            sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        assert!(sizes.iter().all(|&s| s > 0), "zero-width layer");
        MlpSpec {
            sizes: sizes.to_vec(),
        }
    }

    /// The paper's KAT encoder/decoder shape: `in → 32 → out`.
    #[must_use]
    pub(crate) fn kat(d_in: usize, d_out: usize) -> Self {
        MlpSpec::new(&[d_in, 32, d_out])
    }

    /// Output width.
    #[must_use]
    pub(crate) fn output_dim(&self) -> usize {
        *self.sizes.last().expect("non-empty")
    }

    /// Total number of parameters (weights + biases).
    #[must_use]
    pub(crate) fn param_count(&self) -> usize {
        self.sizes.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// Xavier-style random initialisation.
    pub(crate) fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut params = Vec::with_capacity(self.param_count());
        for w in self.sizes.windows(2) {
            let (n_in, n_out) = (w[0], w[1]);
            let scale = (2.0 / (n_in + n_out) as f64).sqrt();
            for _ in 0..(n_in * n_out) {
                params.push(rng.gen_range(-1.0..1.0) * scale);
            }
            params.extend(std::iter::repeat_n(0.0, n_out));
        }
        params
    }

    /// Forward pass. Hidden layers use sigmoid; the output layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `input` have the wrong length.
    pub(crate) fn forward<S: Scalar>(&self, params: &[S], input: &[S]) -> Vec<S> {
        let mut trace = Vec::with_capacity(self.trace_len());
        self.forward_trace(params, input, &mut trace);
        trace.split_off(trace.len() - self.output_dim())
    }

    /// Number of values one [`MlpSpec::forward_trace`] call appends: every
    /// layer's width, input and output included.
    #[must_use]
    pub(crate) fn trace_len(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// [`MlpSpec::forward`], appending every layer's activations to
    /// `trace` — the input, each hidden layer's sigmoid outputs, then the
    /// linear output — for [`MlpSpec::accumulate_vjp`].
    ///
    /// # Panics
    ///
    /// Panics if `params` or `input` have the wrong length.
    pub(crate) fn forward_trace<S: Scalar>(&self, params: &[S], input: &[S], trace: &mut Vec<S>) {
        assert_eq!(input.len(), self.sizes[0], "MLP input width mismatch");
        assert_eq!(params.len(), self.param_count(), "MLP param count mismatch");
        let mut start = trace.len();
        trace.extend_from_slice(input);
        let mut offset = 0;
        let n_layers = self.sizes.len() - 1;
        for (li, w) in self.sizes.windows(2).enumerate() {
            let (n_in, n_out) = (w[0], w[1]);
            let (weights, biases) = params[offset..].split_at(n_in * n_out);
            offset += n_in * n_out + n_out;
            // Input-major, so the `n_out` sums advance side by side; each
            // still adds its terms in input order.
            let out = trace.len();
            trace.extend_from_slice(&biases[..n_out]);
            let (prev, acc) = trace.split_at_mut(out);
            for (i, &x) in prev[start..start + n_in].iter().enumerate() {
                for (a, w) in acc.iter_mut().zip(weights.chunks_exact(n_in)) {
                    *a = *a + w[i] * x;
                }
            }
            if li + 1 < n_layers {
                for v in acc {
                    *v = v.sigmoid();
                }
            }
            start += n_in;
        }
    }

    /// Vector-Jacobian product of one [`MlpSpec::forward_trace`] pass:
    /// adds `Σ_o out_adj[o]·∂out_o/∂params` into `grad`.
    ///
    /// It is the reverse sweep an autodiff tape runs over
    /// the taped [`MlpSpec::forward`], in the order that decides each
    /// sum: layers last to first, outputs last to first, and a unit whose
    /// adjoint is zero is skipped. So calling it for points
    /// last to first leaves `grad` bitwise equal to the tape's parameter
    /// adjoints.
    ///
    /// # Panics
    ///
    /// Panics if `params`, `trace`, `out_adj` or `grad` have the wrong
    /// length.
    pub(crate) fn accumulate_vjp(
        &self,
        params: &[f64],
        trace: &[f64],
        out_adj: &[f64],
        grad: &mut [f64],
    ) {
        assert_eq!(params.len(), self.param_count(), "MLP param count mismatch");
        assert_eq!(grad.len(), params.len(), "MLP gradient length mismatch");
        assert_eq!(trace.len(), self.trace_len(), "MLP trace length mismatch");
        assert_eq!(
            out_adj.len(),
            self.output_dim(),
            "MLP output width mismatch"
        );
        let n_layers = self.sizes.len() - 1;
        let mut p_end = params.len();
        let mut t_end = trace.len();
        let mut adj = out_adj.to_vec();
        for li in (0..n_layers).rev() {
            let (n_in, n_out) = (self.sizes[li], self.sizes[li + 1]);
            let p0 = p_end - (n_in * n_out + n_out);
            let (inputs, outputs) = trace[t_end - n_out - n_in..t_end].split_at(n_in);
            let mut in_adj = vec![0.0; if li > 0 { n_in } else { 0 }];
            for o in (0..n_out).rev() {
                let mut g = adj[o];
                if g == 0.0 {
                    continue;
                }
                if li + 1 < n_layers {
                    // Through the sigmoid: the tape's partial `v·(1−v)`.
                    let v = outputs[o];
                    g *= v * (1.0 - v);
                    if g == 0.0 {
                        continue;
                    }
                }
                grad[p0 + n_in * n_out + o] += g;
                // Each weight and input takes one term per output unit, so
                // the order within the row is free.
                let row = p0 + o * n_in..p0 + (o + 1) * n_in;
                for (gw, &x) in grad[row.clone()].iter_mut().zip(inputs) {
                    *gw += g * x;
                }
                for (ia, &w) in in_adj.iter_mut().zip(&params[row]) {
                    *ia += g * w;
                }
            }
            adj = in_adj;
            p_end = p0;
            t_end -= n_out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_autodiff::{check_gradient, Tape};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn param_count_matches_layout() {
        let spec = MlpSpec::new(&[3, 32, 1]);
        assert_eq!(spec.param_count(), 3 * 32 + 32 + 32 + 1);
        assert_eq!(MlpSpec::kat(5, 2).param_count(), 5 * 32 + 32 + 32 * 2 + 2);
    }

    #[test]
    fn forward_returns_one_value_per_output() {
        let spec = MlpSpec::new(&[3, 8, 2]);
        let mut rng = SmallRng::seed_from_u64(1);
        let params = spec.init_params(&mut rng);
        let out = spec.forward(&params, &[0.1, -0.2, 0.3]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn forward_identity_network() {
        // 1→1 linear with weight 2, bias 1 (single layer → purely linear).
        let spec = MlpSpec::new(&[1, 1]);
        let out = spec.forward(&[2.0, 1.0], &[3.0]);
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    fn hidden_layer_applies_sigmoid() {
        // 1→1→1 with weights 1, biases 0: out = sigmoid(x) · 1.
        let spec = MlpSpec::new(&[1, 1, 1]);
        let params = [1.0, 0.0, 1.0, 0.0];
        let out = spec.forward(&params, &[0.0]);
        assert!((out[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn taped_gradient_matches_finite_difference() {
        let spec = MlpSpec::new(&[2, 4, 1]);
        let mut rng = SmallRng::seed_from_u64(7);
        let params = spec.init_params(&mut rng);
        let x = [0.3, -0.8];

        let f = |p: &[f64]| spec.forward(p, &x)[0];
        let tape = Tape::new();
        let p_vars: Vec<_> = params.iter().map(|&p| tape.var(p)).collect();
        let x_vars: Vec<_> = x.iter().map(|&v| tape.constant(v)).collect();
        let out = spec.forward(&p_vars, &x_vars)[0];
        let grads = tape.backward(out);
        let analytic = grads.wrt_slice(&p_vars);
        let check = check_gradient(f, &params, &analytic, 1e-6);
        assert!(check.passes(1e-5), "{check:?}");
    }

    /// Hand VJP, points last to first, against the tape's reverse sweep
    /// over the taped forward of every point, compared by `to_bits`.
    fn assert_vjp_matches_tape(
        spec: &MlpSpec,
        params: &[f64],
        xs: &[Vec<f64>],
        seeds: &[Vec<f64>],
    ) {
        let tape = Tape::new();
        let p_vars: Vec<_> = params.iter().map(|&p| tape.var(p)).collect();
        let mut seeded = Vec::new();
        for (x, seed) in xs.iter().zip(seeds) {
            let x_vars: Vec<_> = x.iter().map(|&v| tape.constant(v)).collect();
            let out = spec.forward(&p_vars, &x_vars);
            seeded.extend(out.into_iter().zip(seed.iter().copied()));
        }
        let oracle = tape.backward_seeded(&seeded).wrt_slice(&p_vars);

        let mut grad = vec![0.0; params.len()];
        for (x, seed) in xs.iter().zip(seeds).rev() {
            let mut trace = Vec::new();
            spec.forward_trace(params, x, &mut trace);
            spec.accumulate_vjp(params, &trace, seed, &mut grad);
        }
        for (k, (g, o)) in grad.iter().zip(&oracle).enumerate() {
            assert_eq!(g.to_bits(), o.to_bits(), "param {k}: {g} vs {o}");
        }
    }

    #[test]
    fn vjp_matches_the_tape_bitwise_on_a_deeper_network() {
        let spec = MlpSpec::new(&[3, 8, 5, 2]);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut params = spec.init_params(&mut rng);
        for p in params.iter_mut() {
            *p += rng.gen_range(-0.5..0.5);
        }
        let xs: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.5..1.5)).collect())
            .collect();
        // A zero seed on one output exercises the tape's zero skip.
        let seeds = vec![
            vec![0.7, -1.3],
            vec![0.0, 2.1],
            vec![-0.4, 0.0],
            vec![1.9, 0.25],
        ];
        assert_vjp_matches_tape(&spec, &params, &xs, &seeds);
        // Saturated units: biases of +40 on the first hidden layer's first
        // half pin those sigmoids at 1.0, so their partials are zero.
        for b in 0..4 {
            params[3 * 8 + b] = 40.0;
        }
        assert_vjp_matches_tape(&spec, &params, &xs, &seeds);
    }

    #[test]
    fn deterministic_init_given_seed() {
        let spec = MlpSpec::kat(4, 1);
        let a = spec.init_params(&mut SmallRng::seed_from_u64(3));
        let b = spec.init_params(&mut SmallRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let spec = MlpSpec::new(&[2, 1]);
        let _ = spec.forward(&[1.0, 1.0, 0.0], &[1.0]);
    }
}
