use crate::gp::{subsample, validate};
use crate::kernels::Columns;
use crate::kernels::PreparedKernel;
use crate::mlp::MlpSpec;
use crate::optim::ascend;
use crate::scalar::Scalar;
use crate::scaler::Scaler;
#[cfg(test)]
use crate::KernelSpec;
use crate::{Gp, GpError};
#[cfg(test)]
use kato_autodiff::{Tape, Var};
use kato_linalg::CholeskyFactor;
use kato_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Adam learning rate of alignment training.
const LR: f64 = 0.03;
/// How far (per point, log-likelihood units) the held alignment may fall
/// below its last training run on a grown dataset before [`KatGp::update`]
/// adds cold restarts to its one warm-started pass.
const WARM_TOL: f64 = 0.25;

/// Training configuration for [`KatGp::fit`] and [`KatGp::update`].
#[derive(Debug, Clone)]
pub struct KatConfig {
    /// Adam iterations.
    pub train_iters: usize,
    /// Maximum source points carried into the transfer model. Training
    /// costs `O(m)` kernel pairs (forward and reverse) per target point
    /// plus the `O(m²)` source-variance solves; prediction is `O(m²)` per
    /// query.
    pub source_subsample: usize,
    /// Maximum target points used per training iteration.
    pub target_subsample: usize,
    /// RNG seed.
    pub seed: u64,
    /// Independent random initialisations of the alignment; the restart
    /// with the best training log-likelihood wins. The MLP encoder/decoder
    /// landscape has mean-prediction local optima that a single unlucky
    /// init can get stuck in.
    pub restarts: usize,
}

impl Default for KatConfig {
    fn default() -> Self {
        KatConfig {
            train_iters: 50,
            source_subsample: 80,
            target_subsample: 150,
            seed: 0,
            restarts: 3,
        }
    }
}

impl KatConfig {
    /// A cheap profile for unit tests.
    #[must_use]
    pub fn fast() -> Self {
        KatConfig {
            train_iters: 25,
            source_subsample: 40,
            target_subsample: 60,
            restarts: 2,
            ..KatConfig::default()
        }
    }
}

/// SplitMix64-style finaliser mixing the master seed with a stream index
/// (restart number). Unlike affine derivations such as
/// `(seed + c)·(stream + 1)`, whose streams are linearly related and can
/// collide, the avalanche rounds decorrelate every (seed, stream) pair.
fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scalar-in/scalar-out MLP (`1 → H → 1`, sigmoid hidden) whose forward pass
/// also yields the input derivative — the decoder `D` of KAT-GP, where the
/// Delta method (paper Eq. 11) needs the Jacobian `J = D'(µ_s)` as a
/// *differentiable* expression so Eq. 12 can be optimised through it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScalarMlp {
    hidden: usize,
}

impl ScalarMlp {
    fn new(hidden: usize) -> Self {
        ScalarMlp { hidden }
    }

    fn param_count(&self) -> usize {
        // w1[h], b1[h], w2[h], b2
        3 * self.hidden + 1
    }

    fn init_params(&self, rng: &mut StdRng) -> Vec<f64> {
        use rand::Rng;
        let mut p = Vec::with_capacity(self.param_count());
        let scale = (2.0 / (self.hidden + 1) as f64).sqrt();
        for _ in 0..self.hidden {
            p.push(rng.gen_range(-1.0..1.0) * scale); // w1
        }
        for _ in 0..self.hidden {
            p.push(rng.gen_range(-1.0..1.0) * 0.1); // b1
        }
        for _ in 0..self.hidden {
            p.push(rng.gen_range(-1.0..1.0) * scale); // w2
        }
        p.push(0.0); // b2
        p
    }

    /// Identity-leaning initialisation: `D(µ) ≈ µ` at start, so the initial
    /// transfer model is "trust the source as-is".
    fn init_near_identity(&self, rng: &mut StdRng) -> Vec<f64> {
        use rand::Rng;
        let mut p = self.init_params(rng);
        // Set w2 so that Σ w2_h·σ'(0)·w1_h ≈ 1: pair up with w1.
        let h = self.hidden;
        for i in 0..h {
            let w1 = p[i];
            // σ'(0) = 0.25; distribute identity across hidden units.
            p[2 * h + i] = w1 * 4.0 / (h as f64 * w1 * w1 + 1e-6).max(0.25);
        }
        p[3 * h] = 0.0;
        // Small perturbation keeps units from being exactly symmetric.
        for v in p.iter_mut() {
            *v += rng.gen_range(-0.01..0.01);
        }
        p
    }

    /// `(D(x), D'(x))` without a trace: the taped objective oracle's
    /// decoder.
    #[cfg(test)]
    fn forward<S: Scalar>(&self, params: &[S], x: S) -> (S, S) {
        self.forward_trace(params, x, &mut Vec::new())
    }

    /// `(D(x), D'(x))`, appending each hidden unit's sigmoid output to
    /// `trace` for [`ScalarMlp::accumulate_vjp`]. Production runs it in
    /// `f64`; the taped objective oracle runs the same operations on the
    /// tape.
    fn forward_trace<S: Scalar>(&self, params: &[S], x: S, trace: &mut Vec<S>) -> (S, S) {
        debug_assert_eq!(params.len(), self.param_count());
        let h = self.hidden;
        let (w1, rest) = params.split_at(h);
        let (b1, rest) = rest.split_at(h);
        let (w2, b2) = rest.split_at(h);
        let mut y = b2[0];
        let mut dy = x.lift(0.0);
        for k in 0..h {
            let s = (w1[k] * x + b1[k]).sigmoid();
            trace.push(s);
            y = y + w2[k] * s;
            dy = dy + w2[k] * s * (x.lift(1.0) - s) * w1[k];
        }
        (y, dy)
    }

    /// Reverse pass of one [`ScalarMlp::forward_trace`] at `x` with hidden
    /// outputs `sig`: adds `y_adj·∂D/∂params + dy_adj·∂D'/∂params` into
    /// `grad` and returns the adjoint of `x`.
    ///
    /// It is the reverse sweep a tape runs over the taped
    /// `ScalarMlp::forward`, node for node: hidden units last to first,
    /// and per unit the `D'` term's products before the `D` term's. So
    /// calling it for points last to first leaves `grad` bitwise equal to
    /// the tape's parameter adjoints.
    fn accumulate_vjp(
        &self,
        params: &[f64],
        x: f64,
        sig: &[f64],
        y_adj: f64,
        dy_adj: f64,
        grad: &mut [f64],
    ) -> f64 {
        let h = self.hidden;
        let (w1, rest) = params.split_at(h);
        let w2 = &rest[h..2 * h];
        let mut x_adj = 0.0;
        for k in (0..h).rev() {
            let s = sig[k];
            // dy += ((w2·s)·(1 − s))·w1, then y += w2·s.
            let (ws, one_minus_s) = (w2[k] * s, 1.0 - s);
            let prod_adj = dy_adj * w1[k];
            grad[k] += dy_adj * (ws * one_minus_s);
            let ws_adj = prod_adj * one_minus_s;
            grad[2 * h + k] += ws_adj * s;
            grad[2 * h + k] += y_adj * s;
            let s_adj = -(prod_adj * ws) + ws_adj * w2[k] + y_adj * w2[k];
            // Through the sigmoid: the tape's partial `v·(1−v)`.
            let pre_adj = s_adj * (s * (1.0 - s));
            grad[h + k] += pre_adj;
            grad[k] += pre_adj * x;
            x_adj += pre_adj * w1[k];
        }
        grad[3 * h] += y_adj;
        x_adj
    }
}

/// Knowledge Alignment and Transfer GP (paper §3.2, Fig. 2).
///
/// Wraps a *frozen* source [`Gp`] in a trainable encoder
/// `E: target design space → source design space` and decoder
/// `D: source output → target output`:
///
/// `y⁽ᵗ⁾(x) = D( GP( E(x) ) )`
///
/// Predictive moments use the Delta method (Eq. 11):
/// `µ_t = D(µ_s)`, `σ²_t = D'(µ_s)²·σ²_s`, and training maximises the
/// Gaussian log-likelihood of the target data (Eq. 12) with respect to the
/// encoder, the decoder and the target noise. The source observations are
/// never altered — the knowledge stays in the source GP, only the
/// *alignment* is learned.
///
/// By design, the source GP's kernel hyperparameters and Gram
/// inverse are held fixed during alignment training (alternating
/// optimisation) rather than differentiating through the source Cholesky.
/// Training runs entirely in `f64`: a forward pass and a hand-written
/// reverse pass that reproduce the taped objective's value and gradient
/// bit for bit (see `objective_gradient`).
#[derive(Debug, Clone)]
pub struct KatGp {
    // Frozen source model (subsampled, standardised), as the per-pair
    // test oracle reads it; every other path reads `src`.
    #[cfg(test)]
    kernel: KernelSpec,
    #[cfg(test)]
    kernel_params: Vec<f64>,
    #[cfg(test)]
    xs_src: Vec<Vec<f64>>,
    /// The subsampled source points prepared once at the frozen kernel
    /// parameters: the source side of every cross covariance, in training
    /// and prediction alike.
    src: PreparedKernel,
    /// `src` in column layout, for the prediction row kernel.
    src_cols: Columns,
    alpha_src: Vec<f64>,
    chol_src: CholeskyFactor,
    // Trainable alignment.
    encoder: MlpSpec,
    enc_params: Vec<f64>,
    decoder: ScalarMlp,
    dec_params: Vec<f64>,
    log_noise: f64,
    // Target-side standardisation.
    x_scaler: Scaler,
    y_scaler: Scaler,
    target_dim: usize,
    /// Raw target training data, retained so an update can tell a grown
    /// dataset from an edited one.
    xt: Vec<Vec<f64>>,
    yt: Vec<f64>,
    /// Per-point training log-likelihood achieved at the last actual
    /// alignment training — the warm-start reference of an update.
    ll_per_point: f64,
}

impl KatGp {
    /// Fits the alignment (encoder, decoder, noise) of a frozen `source` GP
    /// to the target dataset `(x_t, y_t)`.
    ///
    /// # Errors
    ///
    /// * [`GpError::BadTrainingData`] for empty, ragged or non-finite
    ///   target data.
    /// * [`GpError::GramNotPd`] if the source's noisy Gram over its
    ///   subsample does not factor.
    pub fn fit(
        source: &Gp,
        x_t: &[Vec<f64>],
        y_t: &[f64],
        config: &KatConfig,
    ) -> Result<KatGp, GpError> {
        let target_dim = x_t.first().map_or(0, Vec::len);
        validate(target_dim, x_t, y_t)?;
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Subsample and re-condition the source.
        let n_src = source.xs_std().len();
        let mut keep = subsample(n_src, config.source_subsample, &mut rng);
        keep.sort_unstable();
        let xs_src: Vec<Vec<f64>> = keep.iter().map(|&i| source.xs_std()[i].clone()).collect();
        let ys_src: Vec<f64> = keep.iter().map(|&i| source.ys_std()[i]).collect();
        let kp = source.kernel_params();
        let kernel = source.kernel();
        let src = kernel.prepare(kp, &xs_src);
        let mut gram = src.gram();
        gram.add_diagonal(source.gram_noise());
        let chol_src = CholeskyFactor::new(&gram).map_err(|_| GpError::GramNotPd)?;
        let alpha_src = chol_src.solve(&ys_src);

        let encoder = MlpSpec::kat(target_dim, kernel.input_dim());
        let decoder = ScalarMlp::new(32);

        let mut kat = KatGp {
            #[cfg(test)]
            kernel: kernel.clone(),
            #[cfg(test)]
            kernel_params: kp.to_vec(),
            #[cfg(test)]
            xs_src,
            src_cols: src.columns(),
            src,
            alpha_src,
            chol_src,
            encoder,
            enc_params: Vec::new(),
            decoder,
            dec_params: Vec::new(),
            log_noise: f64::NAN,
            x_scaler: Scaler::fit(x_t),
            y_scaler: Scaler::fit_scalar(y_t),
            target_dim,
            xt: x_t.to_vec(),
            yt: y_t.to_vec(),
            ll_per_point: f64::NEG_INFINITY,
        };
        // Multi-restart: only the alignment parameters differ per restart
        // (the frozen source state and scalers are shared), and the best
        // training log-likelihood wins.
        let restarts: Vec<Option<u64>> = (0..config.restarts.max(1) as u64).map(Some).collect();
        let (theta, ll_per_point) =
            kat.train_best_of(&restarts, (&kat.x_scaler, &kat.y_scaler), x_t, y_t, config);
        kat.set_alignment(theta, ll_per_point);
        Ok(kat)
    }

    /// Updates the alignment to the target dataset `(x_t, y_t)` — the
    /// per-BO-iteration path. Identical data is a no-op. When `(x_t, y_t)`
    /// is the stored target set plus new rows (bitwise), the rows are
    /// appended with frozen target scalers and the alignment retrains: the
    /// KAT posterior sees target data only through the alignment, so it
    /// always trains at least one pass. Close to the last training optimum
    /// (per point, within a fixed tolerance) that is one pass
    /// warm-started from the held alignment; further away the held
    /// alignment trains next to `restarts − 1` cold inits seeded like
    /// [`KatGp::fit`]'s, best training log-likelihood wins. Anything else
    /// — shrunk, reordered or retro-edited data — re-standardises and
    /// retrains warm-started on the complete dataset. On `Err` the model
    /// is as it was.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::BadTrainingData`] for empty, ragged, wrongly
    /// sized or non-finite data.
    pub fn update(
        &mut self,
        x_t: &[Vec<f64>],
        y_t: &[f64],
        config: &KatConfig,
    ) -> Result<(), GpError> {
        self.update_with_tol(x_t, y_t, config, WARM_TOL)
    }

    /// [`KatGp::update`] at warm-start tolerance `warm_tol`: the seam
    /// through which tests force either branch of an append.
    pub(crate) fn update_with_tol(
        &mut self,
        x_t: &[Vec<f64>],
        y_t: &[f64],
        config: &KatConfig,
        warm_tol: f64,
    ) -> Result<(), GpError> {
        validate(self.target_dim, x_t, y_t)?;
        let n = self.xt.len();
        let grown = x_t.len() >= n && self.matches_prefix(&x_t[..n], &y_t[..n]);
        if grown && x_t.len() == n {
            return Ok(());
        }
        // An append keeps the stored rows and the frozen scalers, and a held
        // alignment gone stale trains as one candidate next to restarts − 1
        // of `fit`'s cold inits. A refit fits fresh scalers and trains the
        // held alignment alone.
        let (xt, yt, scalers, stale) = if grown {
            let xt: Vec<Vec<f64>> = self.xt.iter().chain(&x_t[n..]).cloned().collect();
            let yt: Vec<f64> = self.yt.iter().chain(&y_t[n..]).copied().collect();
            let stale = self.is_stale(&xt, &yt, warm_tol);
            let scalers = (self.x_scaler.clone(), self.y_scaler.clone());
            (xt, yt, scalers, stale)
        } else {
            let scalers = (Scaler::fit(x_t), Scaler::fit_scalar(y_t));
            (x_t.to_vec(), y_t.to_vec(), scalers, false)
        };
        let cold = (0..config.restarts.max(1) as u64 - 1).filter(|_| stale);
        let inits: Vec<Option<u64>> = std::iter::once(None).chain(cold.map(Some)).collect();
        let (x_scaler, y_scaler) = (&scalers.0, &scalers.1);
        let (theta, ll) = self.train_best_of(&inits, (x_scaler, y_scaler), &xt, &yt, config);
        self.set_alignment(theta, ll);
        (self.x_scaler, self.y_scaler) = scalers;
        (self.xt, self.yt) = (xt, yt);
        Ok(())
    }

    /// Trains one candidate alignment per entry of `inits` on `(x, y)`
    /// under `scalers` and returns the best, with its per-point training
    /// log-likelihood. `None` starts from the held alignment, `Some(r)`
    /// from restart `r`'s random init, seeded through a SplitMix64
    /// finaliser of `(config.seed, r)`. The candidates fan out on the
    /// [`kato_par`] pool, order-preserving; the earliest best wins, so the
    /// winner does not depend on the thread count.
    fn train_best_of(
        &self,
        inits: &[Option<u64>],
        (x_scaler, y_scaler): (&Scaler, &Scaler),
        x: &[Vec<f64>],
        y: &[f64],
        config: &KatConfig,
    ) -> (Vec<f64>, f64) {
        let xs: Vec<Vec<f64>> = x.iter().map(|r| x_scaler.transform(r)).collect();
        let ys: Vec<f64> = y.iter().map(|&v| y_scaler.transform_scalar(v, 0)).collect();
        let trained = kato_par::par_map(inits, |&init| {
            let theta = match init {
                None => self.theta(),
                Some(restart) => {
                    let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, restart));
                    let mut theta = self.encoder.init_params(&mut rng);
                    theta.extend(self.decoder.init_near_identity(&mut rng));
                    theta.push((0.2_f64).ln());
                    theta
                }
            };
            self.train(theta, &xs, &ys, config)
        });
        let (theta, ll) = trained
            .into_iter()
            .reduce(|best, cand| if cand.1 > best.1 { cand } else { best })
            .expect("at least one init");
        let n = xs.len().min(config.target_subsample).max(1);
        (theta, ll / n as f64)
    }

    /// The held alignment as training sees it:
    /// `[encoder | decoder | log-noise]`.
    fn theta(&self) -> Vec<f64> {
        [
            &self.enc_params[..],
            &self.dec_params[..],
            &[self.log_noise],
        ]
        .concat()
    }

    /// Holds the alignment `theta` (`[encoder | decoder | log-noise]`,
    /// split at the encoder's parameter count) and its per-point training
    /// log-likelihood.
    fn set_alignment(&mut self, mut theta: Vec<f64>, ll_per_point: f64) {
        self.log_noise = theta.pop().expect("theta ends in the log-noise");
        self.dec_params = theta.split_off(self.encoder.param_count());
        self.enc_params = theta;
        self.ll_per_point = ll_per_point;
    }

    /// Whether the held alignment no longer explains the raw target data
    /// `(xt, yt)`: its mean per-point training objective (Eq. 12,
    /// standardised units) is not within `warm_tol` of the value its last
    /// training run achieved.
    fn is_stale(&self, xt: &[Vec<f64>], yt: &[f64], warm_tol: f64) -> bool {
        let sigma2 = (self.log_noise * 2.0).exp();
        let batch = self.prepare_batch(xt);
        let mut total = 0.0;
        for ((mu, v), &y) in batch.finish_std(&batch.rows()).into_iter().zip(yt) {
            let var_total = v + sigma2;
            let resid = mu - self.y_scaler.transform_scalar(y, 0);
            total += -0.5 * (var_total * 2.0 * std::f64::consts::PI).ln()
                - resid * resid / (2.0 * var_total);
        }
        let (warm_pp, ll) = (total / yt.len() as f64, self.ll_per_point);
        !(warm_pp.is_finite() && ll.is_finite() && warm_pp + warm_tol >= ll)
    }

    /// `true` when `(x, y)` is bitwise-identical to the stored raw target
    /// dataset — the precondition for treating a longer dataset as "stored
    /// data plus new rows" in [`KatGp::update`]. NaN never compares equal,
    /// so retro-imputed histories force the full-refit path.
    fn matches_prefix(&self, x: &[Vec<f64>], y: &[f64]) -> bool {
        x.len() == self.xt.len()
            && y.len() == self.yt.len()
            && x.iter().zip(&self.xt).all(|(a, b)| a == b)
            && y.iter().zip(&self.yt).all(|(a, b)| a == b)
    }

    /// Generic predictive pipeline in standardised target coordinates,
    /// through the per-pair kernel formula: the oracle the batched and
    /// taped paths are tested against. Returns `(µ_t_std, σ²_t_std)`
    /// **without** observation noise.
    #[cfg(test)]
    fn predictive<S: Scalar>(&self, enc_params: &[S], dec_params: &[S], x_t_std: &[S]) -> (S, S) {
        let ctx = x_t_std[0];
        // Encode into the source design space.
        let u = self.encoder.forward(enc_params, x_t_std);
        // Source GP posterior at E(x): k-vector, mean, variance.
        let kp: Vec<S> = self.kernel_params.iter().map(|&p| ctx.lift(p)).collect();
        let m = self.xs_src.len();
        let mut kvec = Vec::with_capacity(m);
        for xs in &self.xs_src {
            let xs_l: Vec<S> = xs.iter().map(|&v| ctx.lift(v)).collect();
            kvec.push(self.kernel.eval(&kp, &u, &xs_l));
        }
        let mut mu_s = ctx.lift(0.0);
        for (k, &a) in kvec.iter().zip(&self.alpha_src) {
            mu_s = mu_s + *k * a;
        }
        // v_s = k(u,u) − ‖L⁻¹k‖² via a taped forward substitution.
        let l = self.chol_src.l();
        let mut w: Vec<S> = Vec::with_capacity(m);
        for i in 0..m {
            let mut s = kvec[i];
            for (j, wj) in w.iter().enumerate().take(i) {
                s = s - *wj * l[(i, j)];
            }
            w.push(s / l[(i, i)]);
        }
        let mut wsq = ctx.lift(0.0);
        for wi in &w {
            wsq = wsq + *wi * *wi;
        }
        let k_uu = self.kernel.eval(&kp, &u, &u);
        let v_s = (k_uu - wsq).max_val(ctx.lift(1e-10));
        // Decode with the Delta method (Eq. 11).
        let (mu_t, jac) = self.decoder.forward(dec_params, mu_s);
        let v_t = jac * jac * v_s;
        (mu_t, v_t)
    }

    /// The alignment maximising Eq. 12 on a seeded subsample of the
    /// standardised `(xs, ys)`, and its training log-likelihood: [`ascend`]
    /// from `theta`, weights clamped to ±20, log-noise to [−6, 2]. Reads
    /// only the frozen source and the networks' shapes.
    fn train(
        &self,
        theta: Vec<f64>,
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &KatConfig,
    ) -> (Vec<f64>, f64) {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(17));
        let idx = subsample(xs.len(), config.target_subsample, &mut rng);
        let xs: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        let ys: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();

        // One encoder trace for the whole call, cleared per iteration.
        let mut trace = Vec::new();
        ascend(theta, config.train_iters, LR, 20.0, (-6.0, 2.0), |theta| {
            Some(self.objective_gradient(&mut trace, theta, &xs, &ys))
        })
    }

    /// The Eq. 12 objective — the summed Gaussian log-likelihood of the
    /// standardised targets `ys` at the encoded inputs `xs` — and its
    /// gradient at the alignment `theta = [encoder | decoder | log-noise]`.
    ///
    /// The forward pass runs in `f64`: the encoder, the projection of each
    /// encoded point, its kernel row against the frozen source through
    /// [`PreparedKernel::cross_row`], the source mean, the variance
    /// `k(u,u) − kᵀK⁻¹k` from one batched triangular solve, and the
    /// decoder `(D, D′)`. The reverse pass is written by hand and replays
    /// the sweep a tape would run over the same computation, partial for
    /// partial and in its order: points last to first, the likelihood,
    /// the decoder ([`ScalarMlp::accumulate_vjp`]), the kernel-row
    /// adjoints (variance term, then mean term; the variance term's
    /// gradient is `−2K⁻¹k`, and zero where the `1e-10` floor binds),
    /// the pairs ([`PreparedKernel::cross_row_vjp`]), the projection and
    /// the encoder ([`MlpSpec::accumulate_vjp`]). So value and gradient
    /// are bitwise those of the taped objective the tests keep as the
    /// oracle. `trace` is scratch space for the encoder activations.
    fn objective_gradient(
        &self,
        trace: &mut Vec<f64>,
        theta: &[f64],
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> (f64, Vec<f64>) {
        use std::f64::consts::PI;
        let (enc, rest) = theta.split_at(self.encoder.param_count());
        let (dec, noise) = rest.split_at(self.decoder.param_count());
        trace.clear();
        for x in xs {
            self.encoder.forward_trace(enc, x, trace);
        }
        let width = self.encoder.trace_len();
        let d_out = self.encoder.output_dim();
        let (m, n) = (self.src.len(), xs.len());
        let qs: Vec<Vec<f64>> = trace
            .chunks(width)
            .map(|t| self.src.project(&t[width - d_out..]))
            .collect();
        let mut pair_trace = Vec::new();
        let rows: Vec<Vec<f64>> = qs
            .iter()
            .map(|q| {
                let mut row = vec![0.0; m];
                self.src
                    .cross_row_traced(&self.src_cols, q, &mut row, &mut pair_trace);
                row
            })
            .collect();
        let pair_width = pair_trace.len() / n.max(1);
        let kmat = Matrix::from_fn(m, n, |i, j| rows[j][i]);
        let w = self.chol_src.forward_sub_matrix(&kmat);
        let kinv_k = self.chol_src.backward_sub_matrix(&w);
        let k_uu = self.src.diagonal();
        let sigma2 = (noise[0] * 2.0).exp();

        // Forward, points first to last: per point the source mean, the
        // floored source variance (`None` when the floor binds), the
        // decoder's `D'`, the total variance and the residual.
        let hidden = self.decoder.hidden;
        let mut sig = Vec::with_capacity(n * hidden);
        let mut fwd = Vec::with_capacity(n);
        let mut total = 0.0;
        for (j, (kvec, &y)) in rows.iter().zip(ys).enumerate() {
            let mut mu_s = kvec[0] * self.alpha_src[0];
            for (&k, &a) in kvec.iter().zip(&self.alpha_src).skip(1) {
                mu_s += k * a;
            }
            let raw = k_uu - col_sq_norm(&w, j);
            let v_s = (raw >= 1e-10).then_some(raw);
            let (mu_t, jac) = self.decoder.forward_trace(dec, mu_s, &mut sig);
            let var_total = jac * jac * v_s.unwrap_or(1e-10) + sigma2;
            let resid = mu_t - y;
            total += -(var_total * (2.0 * PI)).ln() * 0.5 - resid * resid / (var_total * 2.0);
            fwd.push((mu_s, v_s, jac, var_total, resid));
        }

        // Reverse, points last to first.
        let mut g_enc = vec![0.0; enc.len()];
        let mut g_dec = vec![0.0; dec.len()];
        let mut sigma2_adj = 0.0;
        let mut row_adj = vec![0.0; m];
        for (j, &(mu_s, v_s, jac, var_total, resid)) in fwd.iter().enumerate().rev() {
            // ll = −ln(2π·var)/2 − resid²/(2·var), adjoint 1.
            let v2 = var_total * 2.0;
            let sq_adj = -(1.0 / v2);
            let v2_adj = resid * resid / (v2 * v2);
            let resid_adj = sq_adj * resid + sq_adj * resid;
            let ln_adj = -0.5 * (1.0 / (var_total * (2.0 * PI)));
            let var_adj = v2_adj * 2.0 + ln_adj * (2.0 * PI);
            sigma2_adj += var_adj;
            // var = (D'·D')·v_s + σ²; where the floor binds, its `max`
            // routes no adjoint to the variance term.
            let jj_adj = var_adj * v_s.unwrap_or(1e-10);
            let vs_adj = if v_s.is_some() {
                var_adj * (jac * jac)
            } else {
                0.0
            };
            let jac_adj = jj_adj * jac + jj_adj * jac;
            let mu_adj = self.decoder.accumulate_vjp(
                dec,
                mu_s,
                &sig[j * hidden..(j + 1) * hidden],
                resid_adj,
                jac_adj,
                &mut g_dec,
            );
            // Kernel-row adjoints: v_s's term `−2K⁻¹k`, then µ_s's `α`.
            for (i, (ra, &a)) in row_adj.iter_mut().zip(&self.alpha_src).enumerate() {
                *ra = vs_adj * (-2.0 * kinv_k[(i, j)]) + mu_adj * a;
            }
            let mut q_adj = vec![0.0; qs[j].len()];
            self.src.cross_row_vjp(
                &qs[j],
                &rows[j],
                &pair_trace[j * pair_width..(j + 1) * pair_width],
                &row_adj,
                &mut q_adj,
            );
            let mut u_adj = vec![0.0; d_out];
            self.src.project_vjp(&q_adj, &mut u_adj);
            self.encoder.accumulate_vjp(
                enc,
                &trace[j * width..(j + 1) * width],
                &u_adj,
                &mut g_enc,
            );
        }
        g_enc.extend(g_dec);
        g_enc.push(sigma2_adj * sigma2 * 2.0);
        (total, g_enc)
    }

    /// Records the Eq. 12 objective on `tape`, given the decoder and
    /// log-noise leaves and each target point's taped encoding
    /// `encoded[j] = E(x_j)`: the test oracle that
    /// [`KatGp::objective_gradient`] equals bitwise.
    ///
    /// The frozen source is all constants: its prepared features and
    /// `k(u, u)` (one value — the kernels are stationary). Per target point
    /// the tape holds one projection of the encoded point and the pair
    /// arithmetic against each source point. The source variance term
    /// `kᵀK⁻¹k` is evaluated in `f64` with one batched triangular solve
    /// and enters the tape as a single linear node carrying its exact
    /// gradient `2K⁻¹k`.
    #[cfg(test)]
    fn record_objective<'t>(
        &self,
        tape: &'t Tape,
        dec: &[Var<'t>],
        noise: Var<'t>,
        encoded: &[Vec<Var<'t>>],
        ys: &[f64],
    ) -> Var<'t> {
        let sigma2 = (noise * 2.0).exp();
        let m = self.src.len();
        let kvecs: Vec<Vec<Var<'t>>> = encoded
            .iter()
            .map(|u| {
                let q = self.src.project(u);
                (0..m).map(|j| self.src.eval_projected(&q, j)).collect()
            })
            .collect();
        let kmat = Matrix::from_fn(m, kvecs.len(), |i, j| kvecs[j][i].value());
        let w = self.chol_src.forward_sub_matrix(&kmat);
        let kinv_k = self.chol_src.backward_sub_matrix(&w);
        let k_uu = self.src.diagonal();
        let floor = tape.constant(1e-10);
        let mut total = tape.constant(0.0);
        for (j, (kvec, &y)) in kvecs.iter().zip(ys).enumerate() {
            let mut mu_s = kvec[0] * self.alpha_src[0];
            for (&k, &a) in kvec.iter().zip(&self.alpha_src).skip(1) {
                mu_s = mu_s + k * a;
            }
            let grad: Vec<f64> = (0..m).map(|i| -2.0 * kinv_k[(i, j)]).collect();
            let v_s = with_gradient(k_uu - col_sq_norm(&w, j), kvec, &grad).max_val(floor);
            let (mu_t, jac) = self.decoder.forward(dec, mu_s);
            let var_total = jac * jac * v_s + sigma2;
            let resid = mu_t - y;
            let ll = -(var_total * (2.0 * std::f64::consts::PI)).ln() * 0.5
                - resid * resid / (var_total * 2.0);
            total = total + ll;
        }
        total
    }

    /// Archive-alignment score: mean Gaussian predictive log-likelihood of
    /// `(xs, ys)` under this fitted alignment, observation noise included.
    ///
    /// This is the quantity the knowledge bank uses to rank candidate
    /// source archives for a new sizing request — fit a cheap [`KatGp`]
    /// from each candidate onto the same probe dataset and keep the
    /// best-scoring one. Higher is better; non-finite targets are skipped
    /// (a probe row from a broken simulation carries no alignment signal).
    /// Returns `f64::NEG_INFINITY` when no finite pair remains.
    ///
    /// The per-point variance is floored at 1% of the training-data
    /// variance: an alignment trained on a handful of probe points is
    /// routinely *overconfident* (Delta-method variance through a
    /// confident source GP plus a noise term fitted on few residuals), and
    /// without the floor an accurate-but-overconfident alignment scores
    /// below a vague-but-calibrated one — the opposite of what archive
    /// ranking needs. The floor keeps the score accuracy-dominated.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the target dimensionality.
    #[must_use]
    pub fn mean_log_likelihood(&self, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        let scale = self.y_scaler.scale(0);
        let noise_raw = (self.log_noise * 2.0).exp() * scale * scale;
        let var_floor = 0.01 * scale * scale;
        let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = xs
            .iter()
            .zip(ys)
            .filter(|(_, y)| y.is_finite())
            .map(|(x, &y)| (x.clone(), y))
            .unzip();
        let mut total = 0.0;
        let mut n = 0usize;
        for ((mu, var), y) in self.predict_batch(&xs).into_iter().zip(ys) {
            let var_total = (var + noise_raw).max(var_floor).max(1e-12);
            let resid = y - mu;
            let ll = -0.5 * (var_total * 2.0 * std::f64::consts::PI).ln()
                - resid * resid / (2.0 * var_total);
            if ll.is_finite() {
                total += ll;
                n += 1;
            }
        }
        if n == 0 {
            f64::NEG_INFINITY
        } else {
            total / n as f64
        }
    }

    /// Posterior mean and variance at a raw target design vector, one
    /// point at a time: the test oracle for [`KatGp::predict_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the target dimensionality.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.target_dim, "KAT predict: dimension mismatch");
        let x_std = self.x_scaler.transform(x);
        let (m, v) = self.predictive::<f64>(&self.enc_params, &self.dec_params, &x_std);
        let s = self.y_scaler.scale(0);
        (self.y_scaler.inverse_scalar(m, 0), (v * s * s).max(1e-12))
    }

    /// Posterior mean and variance at every query point: the rows of
    /// [`KatGp::prepare_batch`] fanned out once over the [`kato_par`] pool,
    /// then [`KatBatch::finish`]. Agrees with the point-wise test oracle to
    /// floating-point re-association error (≪ 1e-10).
    ///
    /// # Panics
    ///
    /// Panics if any query's length differs from the target dimensionality.
    #[must_use]
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let batch = self.prepare_batch(xs);
        batch.finish(&batch.rows())
    }

    /// Prepares the batched posterior at `xs` (raw target units) in two
    /// phases: [`KatBatch::row`] encodes one query, projects it and fills
    /// its cross-covariance row against the frozen source, and may run on
    /// any worker; [`KatBatch::finish`] applies the source Cholesky factor
    /// to all rows in one batched triangular solve and decodes.
    ///
    /// # Panics
    ///
    /// Panics if any query's length differs from the target dimensionality.
    #[must_use]
    pub fn prepare_batch(&self, xs: &[Vec<f64>]) -> KatBatch<'_> {
        let xs_std = xs
            .iter()
            .map(|x| {
                assert_eq!(
                    x.len(),
                    self.target_dim,
                    "KAT predict_batch: dimension mismatch"
                );
                self.x_scaler.transform(x)
            })
            .collect();
        KatBatch { kat: self, xs_std }
    }
}

/// A [`KatGp`] posterior prepared at a batch of queries by
/// [`KatGp::prepare_batch`]: per-query rows, then one batched solve.
#[derive(Debug)]
pub struct KatBatch<'a> {
    kat: &'a KatGp,
    /// Standardised target queries.
    xs_std: Vec<Vec<f64>>,
}

impl KatBatch<'_> {
    /// Number of queries.
    fn len(&self) -> usize {
        self.xs_std.len()
    }

    /// Query `j` encoded into the source design space, projected, and its
    /// cross-covariance row against every retained source point.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[must_use]
    pub fn row(&self, j: usize) -> Vec<f64> {
        let kat = self.kat;
        let q = kat
            .src
            .project(&kat.encoder.forward(&kat.enc_params, &self.xs_std[j]));
        let mut row = vec![0.0; kat.src.len()];
        kat.src.cross_row(&kat.src_cols, &q, 0, &mut row);
        row
    }

    /// Every row, fanned out once over the [`kato_par`] pool.
    fn rows(&self) -> Vec<Vec<f64>> {
        let idx: Vec<usize> = (0..self.len()).collect();
        kato_par::par_map(&idx, |&j| self.row(j))
    }

    /// Posterior mean and variance (raw units) of every query from its
    /// [`KatBatch::row`], in query order.
    ///
    /// # Panics
    ///
    /// Panics unless `rows` holds one row per query.
    #[must_use]
    pub fn finish(&self, rows: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let kat = self.kat;
        let s = kat.y_scaler.scale(0);
        self.finish_std(rows)
            .into_iter()
            .map(|(mu_t, v_t)| {
                (
                    kat.y_scaler.inverse_scalar(mu_t, 0),
                    (v_t * s * s).max(1e-12),
                )
            })
            .collect()
    }

    /// [`KatBatch::finish`] in standardised target coordinates, without
    /// observation noise (the warm-start check reads it): one batched
    /// solve against the frozen source factor, then the Delta-method
    /// decode.
    fn finish_std(&self, rows: &[Vec<f64>]) -> Vec<(f64, f64)> {
        assert_eq!(rows.len(), self.len(), "finish: one row per query");
        if rows.is_empty() {
            return Vec::new();
        }
        let kat = self.kat;
        let m = kat.src.len();
        let kmat = Matrix::from_fn(m, rows.len(), |i, j| rows[j][i]);
        let w = kat.chol_src.forward_sub_matrix(&kmat);
        let k_uu = kat.src.diagonal();
        let mut sig = Vec::new();
        rows.iter()
            .enumerate()
            .map(|(j, kvec)| {
                let mu_s = kato_linalg::dot(kvec, &kat.alpha_src);
                let v_s = (k_uu - col_sq_norm(&w, j)).max(1e-10);
                sig.clear();
                let (mu_t, jac) = kat.decoder.forward_trace(&kat.dec_params, mu_s, &mut sig);
                (mu_t, jac * jac * v_s)
            })
            .collect()
    }
}

/// `Σ_i w_ij²`, column `j` of a batched triangular solve.
fn col_sq_norm(w: &Matrix, j: usize) -> f64 {
    let mut wsq = 0.0;
    for i in 0..w.rows() {
        wsq += w[(i, j)] * w[(i, j)];
    }
    wsq
}

/// A scalar with value `value` whose first-order sensitivity to `xs` is
/// `Σ grad_i·∂xs_i`: computed in `f64`, recorded as one linear node. The
/// linear part is cancelled exactly (`l − l = 0`), so the value is
/// `value` bitwise.
#[cfg(test)]
fn with_gradient<S: Scalar>(value: f64, xs: &[S], grad: &[f64]) -> S {
    let mut lin = xs[0] * grad[0];
    for (&x, &g) in xs.iter().zip(grad).skip(1) {
        lin = lin + x * g;
    }
    lin - lin.value() + value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpConfig, NeukSpec, PrimitiveKernel};

    /// Source: y = sin(5x); target: y = 2·sin(5(x+0.1)) + 1 in a 1-D space —
    /// aligned by a shift (encoder) and an affine map (decoder).
    fn make_source() -> Gp {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin()).collect();
        Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap()
    }

    fn target_fn(x: f64) -> f64 {
        2.0 * (5.0 * (x + 0.1)).sin() + 1.0
    }

    #[test]
    fn scalar_mlp_derivative_matches_finite_difference() {
        let mlp = ScalarMlp::new(8);
        let mut rng = StdRng::seed_from_u64(5);
        let params = mlp.init_params(&mut rng);
        for &x in &[-1.0, 0.0, 0.7] {
            let (_, dy) = mlp.forward(&params, x);
            let h = 1e-6;
            let (yp, _) = mlp.forward(&params, x + h);
            let (ym, _) = mlp.forward(&params, x - h);
            let fd = (yp - ym) / (2.0 * h);
            assert!((dy - fd).abs() < 1e-6, "x={x}: {dy} vs {fd}");
        }
    }

    #[test]
    fn near_identity_init_is_roughly_identity() {
        let mlp = ScalarMlp::new(32);
        let mut rng = StdRng::seed_from_u64(9);
        let params = mlp.init_near_identity(&mut rng);
        let (y0, _) = mlp.forward(&params, 0.0);
        let (y1, _) = mlp.forward(&params, 1.0);
        // Slope within a factor ~3 of identity is enough as a starting point.
        let slope = y1 - y0;
        assert!(slope > 0.2 && slope < 3.0, "slope {slope}");
    }

    #[test]
    fn kat_learns_affine_alignment() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0 * 0.8]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        // Interpolation inside the target data range must be decent.
        let mut mse = 0.0;
        for i in 0..10 {
            let x = 0.05 + 0.07 * i as f64;
            let (m, _) = kat.predict(&[x]);
            mse += (m - target_fn(x)).powi(2);
        }
        mse /= 10.0;
        assert!(mse < 0.5, "KAT alignment mse {mse}");
    }

    #[test]
    fn kat_variance_is_positive_and_finite() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        for i in 0..20 {
            let (m, v) = kat.predict(&[i as f64 / 19.0]);
            assert!(m.is_finite() && v.is_finite() && v > 0.0);
        }
    }

    #[test]
    fn kat_bridges_different_dimensions() {
        // Target space is 3-D; only the first coordinate matters. The
        // encoder must learn the 3→1 compression.
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..25)
            .map(|i| {
                let t = i as f64 / 24.0;
                vec![t, (t * 7.0).cos() * 0.5, 0.3]
            })
            .collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        assert_eq!(kat.target_dim, 3);
        let (m, _) = kat.predict(&[0.5, (0.5_f64 * 7.0).cos() * 0.5, 0.3]);
        assert!((m - target_fn(0.5)).abs() < 1.0, "pred {m}");
    }

    #[test]
    fn training_improves_fit() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let short = KatGp::fit(
            &source,
            &x_t,
            &y_t,
            &KatConfig {
                train_iters: 1,
                ..KatConfig::fast()
            },
        )
        .unwrap();
        let long = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        let mse = |k: &KatGp| -> f64 {
            x_t.iter()
                .zip(&y_t)
                .map(|(x, y)| (k.predict(x).0 - y).powi(2))
                .sum::<f64>()
                / x_t.len() as f64
        };
        assert!(
            mse(&long) <= mse(&short) * 1.2 + 1e-9,
            "long {} vs short {}",
            mse(&long),
            mse(&short)
        );
    }

    #[test]
    fn predict_batch_matches_pointwise() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..14).map(|i| vec![i as f64 / 13.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        let queries: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 10.0 - 0.4]).collect();
        let batch = kat.predict_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, &(bm, bv)) in queries.iter().zip(&batch) {
            let (m, v) = kat.predict(q);
            assert!(
                (m - bm).abs() <= 1e-10 * (1.0 + m.abs()),
                "mean {m} vs {bm}"
            );
            assert!((v - bv).abs() <= 1e-10 * (1.0 + v.abs()), "var {v} vs {bv}");
        }
        assert!(kat.predict_batch(&[]).is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_predict_batch_matches_pointwise(
            qs in proptest::collection::vec(-0.5..1.5f64, 1..10),
        ) {
            let source = make_source();
            let x_t: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
            let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
            // The match property holds for any parameters; a one-iteration
            // fit keeps the 64 proptest cases cheap.
            let cfg = KatConfig { train_iters: 1, restarts: 1, ..KatConfig::fast() };
            let kat = KatGp::fit(&source, &x_t, &y_t, &cfg).unwrap();
            let queries: Vec<Vec<f64>> = qs.iter().map(|&q| vec![q]).collect();
            let batch = kat.predict_batch(&queries);
            for (q, &(bm, bv)) in queries.iter().zip(&batch) {
                let (m, v) = kat.predict(q);
                proptest::prop_assert!((m - bm).abs() <= 1e-10 * (1.0 + m.abs()));
                proptest::prop_assert!((v - bv).abs() <= 1e-10 * (1.0 + v.abs()));
            }
        }
    }

    #[test]
    fn alignment_score_prefers_the_aligned_source() {
        // Probe data drawn from the target function: a KAT-GP aligned to it
        // must out-score one aligned to unrelated data, and non-finite
        // probe rows must be skipped rather than poisoning the mean.
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 / 15.0]).collect();
        let y_good: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let y_bad: Vec<f64> = x_t.iter().map(|x| (40.0 * x[0]).tan()).collect();
        let good = KatGp::fit(&source, &x_t, &y_good, &KatConfig::fast()).unwrap();
        let bad = KatGp::fit(&source, &x_t, &y_bad, &KatConfig::fast()).unwrap();
        let probe_x: Vec<Vec<f64>> = (0..8).map(|i| vec![0.05 + i as f64 / 9.0]).collect();
        let probe_y: Vec<f64> = probe_x.iter().map(|x| target_fn(x[0])).collect();
        let s_good = good.mean_log_likelihood(&probe_x, &probe_y);
        let s_bad = bad.mean_log_likelihood(&probe_x, &probe_y);
        assert!(s_good.is_finite() && s_bad.is_finite());
        assert!(s_good > s_bad, "good {s_good} vs bad {s_bad}");
        // NaN probe rows are skipped, not propagated.
        let mut probe_y_nan = probe_y.clone();
        probe_y_nan[0] = f64::NAN;
        assert!(good.mean_log_likelihood(&probe_x, &probe_y_nan).is_finite());
        // Nothing finite → −∞ sentinel.
        assert_eq!(
            good.mean_log_likelihood(&probe_x, &vec![f64::NAN; probe_x.len()]),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn append_warm_path_runs_single_warm_started_pass() {
        // A generous tolerance selects the restarts→1 branch: exactly one
        // training pass on the grown data, warm-started from the held
        // alignment — bitwise-reproducible by running that pass by hand.
        // (KAT-GP never skips training outright: its posterior sees target
        // data only through the alignment, so append must always train.)
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let cfg = KatConfig::fast();
        let mut kat = KatGp::fit(&source, &x_t[..16], &y_t[..16], &cfg).unwrap();
        let held = kat.clone();
        kat.update_with_tol(&x_t, &y_t, &cfg, 10.0).unwrap();
        assert_eq!(kat.xt.len(), 20);
        let xs: Vec<Vec<f64>> = x_t.iter().map(|x| held.x_scaler.transform(x)).collect();
        let ys: Vec<f64> = y_t
            .iter()
            .map(|&y| held.y_scaler.transform_scalar(y, 0))
            .collect();
        let (theta, ll) = held.train(held.theta(), &xs, &ys, &cfg);
        assert_eq!(kat.theta(), theta, "warm pass must match");
        assert_eq!(
            kat.ll_per_point,
            ll / x_t.len().min(cfg.target_subsample).max(1) as f64
        );
        let (m, _) = kat.predict(&[0.5]);
        assert!(m.is_finite());
    }

    #[test]
    fn warm_started_retraining_is_no_worse_than_cold() {
        // The satellite guarantee: a single warm-started training pass
        // (restarts→1, held alignment as init) must not end up worse than
        // the cold restart schedule on the same grown dataset. Scored with
        // mean_log_likelihood, which is already in raw-y units and hence
        // comparable across the two models' different scalers.
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..22).map(|i| vec![i as f64 / 21.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let cfg = KatConfig::fast();
        let mut warm = KatGp::fit(&source, &x_t[..16], &y_t[..16], &cfg).unwrap();
        warm.update_with_tol(&x_t, &y_t, &cfg, f64::NEG_INFINITY)
            .unwrap();
        let cold = KatGp::fit(&source, &x_t, &y_t, &cfg).unwrap();
        let s_warm = warm.mean_log_likelihood(&x_t, &y_t);
        let s_cold = cold.mean_log_likelihood(&x_t, &y_t);
        // The two models hold different y-scalers (warm froze the prefix
        // statistics), so their mean_log_likelihood variance floors differ
        // slightly; 0.05 per point absorbs that parametrisation noise while
        // still failing on any real regression of the warm path (a lost
        // alignment shows up as whole units of log-likelihood).
        assert!(s_warm >= s_cold - 0.05, "warm {s_warm} vs cold {s_cold}");
    }

    /// A briefly trained KAT-GP over a Neuk source, its alignment vector
    /// and a standardised target batch, for exercising the objective.
    fn objective_fixture() -> (KatGp, Vec<f64>, Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin()).collect();
        let source = Gp::fit(KernelSpec::neuk(1), &xs, &ys, &GpConfig::fast()).unwrap();
        objective_fixture_from(&source)
    }

    /// [`objective_fixture`] over any source: a 1-D target aligned to it.
    fn objective_fixture_from(source: &Gp) -> (KatGp, Vec<f64>, Vec<Vec<f64>>, Vec<f64>) {
        let x_t: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let cfg = KatConfig {
            train_iters: 3,
            restarts: 1,
            ..KatConfig::fast()
        };
        let kat = KatGp::fit(source, &x_t, &y_t, &cfg).unwrap();
        let theta: Vec<f64> = kat
            .enc_params
            .iter()
            .chain(&kat.dec_params)
            .copied()
            .chain(std::iter::once(kat.log_noise))
            .collect();
        let xs_std = x_t.iter().map(|x| kat.x_scaler.transform(x)).collect();
        let ys_std = y_t
            .iter()
            .map(|&y| kat.y_scaler.transform_scalar(y, 0))
            .collect();
        (kat, theta, xs_std, ys_std)
    }

    /// A 3-D source under a Neuk unit holding the primitives the standard
    /// unit lacks, so every `Shape` arm of the pair VJP runs.
    fn mixed_neuk_source() -> Gp {
        let spec = KernelSpec::Neuk(NeukSpec {
            input_dim: 3,
            latent_dim: 2,
            primitives: vec![
                PrimitiveKernel::Matern52,
                PrimitiveKernel::Periodic,
                PrimitiveKernel::RationalQuadratic,
            ],
            mix_dim: 2,
        });
        let xs: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let t = i as f64 / 11.0;
                vec![t, (3.0 * t).sin(), t * t - 0.5]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin() + 0.3 * x[1]).collect();
        Gp::fit(spec, &xs, &ys, &GpConfig::fast()).unwrap()
    }

    /// The objective with the encoder taped too: every `theta` entry a
    /// leaf and [`MlpSpec::forward`] per point feeding
    /// [`KatGp::record_objective`] — the oracle for the off-tape encoder.
    fn taped_objective<'t>(
        kat: &KatGp,
        tape: &'t Tape,
        theta: &[f64],
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> (Vec<Var<'t>>, Var<'t>) {
        let vars: Vec<Var<'t>> = theta.iter().map(|&p| tape.var(p)).collect();
        let (enc, rest) = vars.split_at(kat.enc_params.len());
        let (dec, noise) = rest.split_at(kat.dec_params.len());
        let encoded: Vec<Vec<Var<'t>>> = xs
            .iter()
            .map(|x| {
                let x_vars: Vec<_> = x.iter().map(|&v| tape.constant(v)).collect();
                kat.encoder.forward(enc, &x_vars)
            })
            .collect();
        let total = kat.record_objective(tape, dec, noise[0], &encoded, ys);
        (vars, total)
    }

    #[test]
    fn training_objective_gradient_matches_finite_difference() {
        let (kat, theta, xs, ys) = objective_fixture();
        let tape = Tape::new();
        let (vars, total) = taped_objective(&kat, &tape, &theta, &xs, &ys);
        let analytic = tape.backward(total).wrt_slice(&vars);
        let objective = |th: &[f64]| taped_objective(&kat, &Tape::new(), th, &xs, &ys).1.value();
        let check = kato_autodiff::check_gradient(objective, &theta, &analytic, 1e-6);
        assert!(check.passes(1e-5), "{check:?}");
    }

    #[test]
    fn training_objective_matches_generic_taped_oracle() {
        // The hoisted objective (prepared f64 source, linearised variance
        // term) against the generic pointwise predictive pipeline taped
        // end to end: same value and same gradient.
        let (kat, theta, xs, ys) = objective_fixture();
        let tape = Tape::new();
        let (vars, total) = taped_objective(&kat, &tape, &theta, &xs, &ys);
        let hoisted = tape.backward(total).wrt_slice(&vars);

        let oracle_tape = Tape::new();
        let o_vars: Vec<_> = theta.iter().map(|&v| oracle_tape.var(v)).collect();
        let (enc, rest) = o_vars.split_at(kat.enc_params.len());
        let (dec, noise) = rest.split_at(kat.dec_params.len());
        let sigma2 = (noise[0] * 2.0).exp();
        let mut o_total = oracle_tape.constant(0.0);
        for (x, &y) in xs.iter().zip(&ys) {
            let x_vars: Vec<_> = x.iter().map(|&v| oracle_tape.constant(v)).collect();
            let (mu, v) = kat.predictive(enc, dec, &x_vars);
            let var_total = v + sigma2;
            let resid = mu - y;
            o_total = o_total
                - (var_total * (2.0 * std::f64::consts::PI)).ln() * 0.5
                - resid * resid / (var_total * 2.0);
        }
        let oracle = oracle_tape.backward(o_total).wrt_slice(&o_vars);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-10 * a.abs().max(b.abs()).max(1.0);
        assert!(
            close(total.value(), o_total.value()),
            "{} vs {}",
            total.value(),
            o_total.value()
        );
        for (h, o) in hoisted.iter().zip(&oracle) {
            assert!(close(*h, *o), "gradient {h} vs {o}");
        }
    }

    /// Production value and gradient (`f64` forward, hand-written reverse
    /// pass) against the fully taped objective, compared by `to_bits`.
    fn assert_objective_is_bitwise(kat: &KatGp, theta: &[f64], xs: &[Vec<f64>], ys: &[f64]) {
        let (value, grad) = kat.objective_gradient(&mut Vec::new(), theta, xs, ys);
        let tape = Tape::new();
        let (vars, total) = taped_objective(kat, &tape, theta, xs, ys);
        let oracle = tape.backward(total).wrt_slice(&vars);
        assert_eq!(
            value.to_bits(),
            total.value().to_bits(),
            "{value} vs {}",
            total.value()
        );
        assert_eq!(grad.len(), oracle.len());
        for (k, (g, o)) in grad.iter().zip(&oracle).enumerate() {
            assert_eq!(g.to_bits(), o.to_bits(), "gradient {k}: {g} vs {o}");
        }
    }

    #[test]
    fn off_tape_encoder_matches_the_taped_objective_bitwise() {
        let (kat, theta, xs, ys) = objective_fixture();
        assert_objective_is_bitwise(&kat, &theta, &xs, &ys);
    }

    #[test]
    fn off_tape_encoder_matches_the_taped_objective_when_sigmoids_saturate() {
        // Biases of +40 pin half the hidden units at exactly 1.0: their
        // sigmoid partial v·(1−v) is zero, so the tape skips their
        // pre-activation chains and the hand VJP must skip them too.
        let (kat, mut theta, xs, ys) = objective_fixture();
        let (d_in, hidden) = (kat.target_dim, 32);
        for h in 0..hidden / 2 {
            theta[d_in * hidden + h] = 40.0;
        }
        let mut trace = Vec::new();
        kat.encoder
            .forward_trace(&theta[..kat.enc_params.len()], &xs[0], &mut trace);
        assert_eq!(trace[d_in], 1.0, "hidden unit 0 saturates");
        assert_objective_is_bitwise(&kat, &theta, &xs, &ys);
    }

    #[test]
    fn off_tape_objective_is_bitwise_over_an_ard_source() {
        // ARD-RBF is the kernel bank selection aligns from.
        let (kat, theta, xs, ys) = objective_fixture_from(&make_source());
        assert_objective_is_bitwise(&kat, &theta, &xs, &ys);
    }

    #[test]
    fn off_tape_objective_is_bitwise_over_every_neuk_primitive() {
        let (kat, theta, xs, ys) = objective_fixture_from(&mixed_neuk_source());
        assert_eq!(kat.encoder.output_dim(), 3);
        assert_objective_is_bitwise(&kat, &theta, &xs, &ys);
    }

    #[test]
    fn off_tape_objective_is_bitwise_when_decoder_sigmoids_saturate() {
        // Decoder biases of +40 pin half its hidden units at exactly 1.0,
        // zeroing their sigmoid partials in the decoder's reverse pass.
        let (kat, mut theta, xs, ys) = objective_fixture();
        let (n_enc, hidden) = (kat.enc_params.len(), kat.decoder.hidden);
        for h in 0..hidden / 2 {
            theta[n_enc + hidden + h] = 40.0;
        }
        let mut sig = Vec::new();
        let mu = kat.src.diagonal();
        kat.decoder
            .forward_trace(&theta[n_enc..n_enc + 3 * hidden + 1], mu, &mut sig);
        assert_eq!(sig[0], 1.0, "decoder unit 0 saturates");
        assert_objective_is_bitwise(&kat, &theta, &xs, &ys);
    }

    #[test]
    fn off_tape_objective_is_bitwise_where_the_variance_floor_binds() {
        // Re-anchor the frozen source so the first target point encodes
        // exactly onto a source point, with a 1e-12 Gram jitter: its source
        // variance falls under the 1e-10 floor, whose `max` routes no
        // adjoint to the variance term, while the other points stay above.
        let (mut kat, theta, xs, ys) = objective_fixture_from(&make_source());
        let kernel = KernelSpec::ard_rbf(1);
        let params = [0.0, 0.1_f64.ln()];
        let u0 = kat.encoder.forward(&theta[..kat.enc_params.len()], &xs[0]);
        let xs_src: Vec<Vec<f64>> = std::iter::once(u0)
            .chain((0..6).map(|i| vec![i as f64 * 0.4 - 1.0]))
            .collect();
        let ys_src: Vec<f64> = xs_src.iter().map(|x| (2.0 * x[0]).sin()).collect();
        let src = kernel.prepare(&params, &xs_src);
        let mut gram = src.gram();
        gram.add_diagonal(1e-12);
        kat.chol_src = CholeskyFactor::new(&gram).unwrap();
        kat.alpha_src = kat.chol_src.solve(&ys_src);
        kat.src_cols = src.columns();
        kat.src = src;
        kat.kernel = kernel;
        kat.kernel_params = params.to_vec();
        kat.xs_src = xs_src;

        let rows = KatBatch {
            kat: &kat,
            xs_std: xs.clone(),
        }
        .rows();
        let kmat = Matrix::from_fn(kat.src.len(), rows.len(), |i, j| rows[j][i]);
        let w = kat.chol_src.forward_sub_matrix(&kmat);
        let raw: Vec<f64> = (0..rows.len())
            .map(|j| kat.src.diagonal() - col_sq_norm(&w, j))
            .collect();
        assert!(raw[0] < 1e-10, "point 0 variance {}", raw[0]);
        assert!(raw.iter().any(|&v| v >= 1e-10), "{raw:?}");
        assert_objective_is_bitwise(&kat, &theta, &xs, &ys);
    }

    #[test]
    fn off_tape_objective_is_bitwise_where_kernel_rows_underflow() {
        // A steep encoder unit shifts the encodings of the positive target
        // points 10⁴ units away from the source. Over the ARD source their
        // kernel rows underflow to exactly 0, so each pair's adjoint behind
        // its `exp` is exactly 0 while the row adjoint is not; over the
        // mixed Neuk source the Matérn values underflow instead. The tape
        // skips every node whose adjoint is zero; the hand pass must land
        // on the same bits.
        for (s, source) in [make_source(), mixed_neuk_source()].iter().enumerate() {
            let (kat, mut theta, xs, ys) = objective_fixture_from(source);
            let (d_in, hidden, d_out) = (kat.target_dim, 32, kat.encoder.output_dim());
            theta[0] = 50.0;
            theta[d_in * hidden] = 0.0;
            for o in 0..d_out {
                theta[(d_in + 1) * hidden + o * hidden] += 1e4;
            }
            let (mut enc_trace, mut pair_trace) = (Vec::new(), Vec::new());
            let rows: Vec<Vec<f64>> = xs
                .iter()
                .map(|x| {
                    enc_trace.clear();
                    kat.encoder
                        .forward_trace(&theta[..kat.enc_params.len()], x, &mut enc_trace);
                    let q = kat.src.project(&enc_trace[enc_trace.len() - d_out..]);
                    let mut row = vec![0.0; kat.src.len()];
                    kat.src
                        .cross_row_traced(&kat.src_cols, &q, &mut row, &mut pair_trace);
                    row
                })
                .collect();
            if s == 0 {
                assert!(rows.iter().any(|r| r.iter().all(|&k| k == 0.0)), "{rows:?}");
                assert!(rows.iter().any(|r| r.iter().all(|&k| k > 0.0)), "{rows:?}");
            } else {
                assert!(pair_trace.contains(&0.0), "no primitive underflows");
            }
            assert_objective_is_bitwise(&kat, &theta, &xs, &ys);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_off_tape_objective_is_bitwise_under_theta_perturbations(
            seed in 0u64..1_000_000,
            which in 0usize..3,
            scale in 0.0..1.5f64,
        ) {
            let source = match which {
                0 => make_source(),
                1 => mixed_neuk_source(),
                _ => {
                    let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
                    let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin()).collect();
                    Gp::fit(KernelSpec::neuk(1), &xs, &ys, &GpConfig::fast()).unwrap()
                }
            };
            let (kat, mut theta, xs, ys) = objective_fixture_from(&source);
            let mut rng = StdRng::seed_from_u64(seed);
            for t in theta.iter_mut() {
                *t += rand::Rng::gen_range(&mut rng, -1.0..1.0) * scale;
            }
            assert_objective_is_bitwise(&kat, &theta, &xs, &ys);
        }
    }

    #[test]
    fn append_rejects_ragged_rows() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let mut kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        let (mut x_grown, mut y_grown) = (x_t.clone(), y_t.clone());
        x_grown.push(vec![0.1, 0.2]);
        y_grown.push(1.0);
        let r = kat.update(&x_grown, &y_grown, &KatConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
        assert_eq!(kat.xt.len(), 8, "a rejected batch is not ingested");
    }

    #[test]
    fn update_rejects_rows_wider_than_the_target_input() {
        // Every row one column too wide: rejected up front instead of
        // reaching the encoder, and the model is left bitwise as it was.
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let cfg = KatConfig {
            restarts: 1,
            ..KatConfig::fast()
        };
        let mut kat = KatGp::fit(&source, &x_t, &y_t, &cfg).unwrap();
        let queries: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 / 6.0]).collect();
        let before = kat.predict_batch(&queries);
        let wide: Vec<Vec<f64>> = x_t.iter().map(|x| vec![x[0], 0.5]).collect();
        let r = kat.update(&wide, &y_t, &cfg);
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })), "{r:?}");
        let after = kat.predict_batch(&queries);
        let bits = |p: &[(f64, f64)]| -> Vec<(u64, u64)> {
            p.iter().map(|&(m, v)| (m.to_bits(), v.to_bits())).collect()
        };
        assert_eq!(bits(&after), bits(&before));
        // The identical dataset is a no-op, bitwise.
        kat.update(&x_t, &y_t, &cfg).unwrap();
        assert_eq!(bits(&kat.predict_batch(&queries)), bits(&before));
    }

    #[test]
    fn fit_rejects_a_non_finite_target() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let mut y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        y_t[4] = f64::NAN;
        let r = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn refit_rejects_a_non_finite_input() {
        let source = make_source();
        let mut x_t: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let mut kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        x_t[1][0] = f64::NEG_INFINITY;
        let r = kat.update(&x_t, &y_t, &KatConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn append_rejects_a_non_finite_target() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let mut kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        let (mut x_grown, mut y_grown) = (x_t.clone(), y_t.clone());
        x_grown.push(vec![0.3]);
        y_grown.push(f64::NAN);
        let r = kat.update(&x_grown, &y_grown, &KatConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
        assert_eq!(kat.xt.len(), 8, "a rejected batch is not ingested");
    }

    #[test]
    fn rejects_empty_target() {
        let source = make_source();
        let r = KatGp::fit(&source, &[], &[], &KatConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn refit_warm_start() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let mut kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        let x2: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 / 15.0]).collect();
        let y2: Vec<f64> = x2.iter().map(|x| target_fn(x[0])).collect();
        kat.update(
            &x2,
            &y2,
            &KatConfig {
                train_iters: 5,
                ..KatConfig::fast()
            },
        )
        .unwrap();
        let (m, _) = kat.predict(&[0.5]);
        assert!(m.is_finite());
    }
}
