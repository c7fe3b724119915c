use crate::kernels::{Columns, GramTrace, PreparedKernel};
use crate::optim::ascend;
use crate::scaler::Scaler;
use crate::{GpError, KernelSpec};
use kato_linalg::{CholeskyFactor, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How far (per point, log-likelihood units) the held hyperparameters may
/// fall below their last training run on a grown dataset before
/// [`Gp::update`] retrains instead of only extending the factor.
const WARM_TOL: f64 = 0.25;

/// Training configuration for [`Gp::fit`] and [`Gp::update`].
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Adam iterations for the (re)fit.
    pub train_iters: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Maximum number of points used for *hyperparameter* optimisation
    /// (the posterior still conditions on every point). Each training
    /// iteration runs `O(n²)` pair arithmetic forward and back and an
    /// `O(n³)` Cholesky and inverse, so this caps the per-iteration cost
    /// on large archives.
    pub fit_subsample: usize,
    /// RNG seed for parameter initialisation and subsampling.
    pub seed: u64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            train_iters: 60,
            lr: 0.05,
            fit_subsample: 150,
            seed: 0,
        }
    }
}

impl GpConfig {
    /// A cheap profile for unit tests and doc examples.
    #[must_use]
    pub fn fast() -> Self {
        GpConfig {
            train_iters: 30,
            lr: 0.08,
            fit_subsample: 60,
            ..GpConfig::default()
        }
    }
}

/// Exact Gaussian-process regressor with MLE-trained hyperparameters
/// (paper §2.2, Eq. 3–4).
///
/// Inputs and outputs are standardised internally; predictions are returned
/// in raw units. The kernel is either ARD-RBF or a Neural Kernel
/// ([`KernelSpec`]).
#[derive(Debug, Clone)]
pub struct Gp {
    kernel: KernelSpec,
    params: Vec<f64>,
    log_noise: f64,
    x_scaler: Scaler,
    y_scaler: Scaler,
    /// Standardised training inputs.
    xs: Vec<Vec<f64>>,
    /// Standardised training targets.
    ys: Vec<f64>,
    /// The training set prepared at the held hyperparameters, and its
    /// column layout.
    train: PreparedKernel,
    cols: Columns,
    chol: CholeskyFactor,
    alpha: Vec<f64>,
    /// Per-point training log-likelihood achieved at the last actual
    /// hyperparameter optimisation — the warm-start reference of an append.
    ll_per_point: f64,
}

/// Rejects training data that is empty, of unequal lengths, not `dim`
/// columns wide or non-finite: one NaN would poison the standardisation
/// and every prediction after it.
pub(crate) fn validate(dim: usize, x: &[Vec<f64>], y: &[f64]) -> Result<(), GpError> {
    let what = if x.is_empty() || x.len() != y.len() {
        "x empty or x/y length mismatch"
    } else if x.iter().any(|r| r.len() != dim) {
        "row width != model input dim"
    } else if !x.iter().flatten().chain(y).all(|v| v.is_finite()) {
        "non-finite x or y"
    } else {
        return Ok(());
    };
    Err(GpError::BadTrainingData { what })
}

/// Diagonal added to every Gram matrix at log-noise `log_noise`: the
/// noise variance plus a fixed jitter.
fn gram_noise(log_noise: f64) -> f64 {
    (2.0 * log_noise).exp().max(1e-10) + 1e-9
}

/// `0..n`, or a seeded random `cap` of it in shuffled order when `n > cap`:
/// the points a training run sees.
pub(crate) fn subsample(n: usize, cap: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    if n > cap {
        idx.shuffle(rng);
        idx.truncate(cap);
    }
    idx
}

impl Gp {
    /// Fits hyperparameters by maximum likelihood and conditions on the full
    /// dataset.
    ///
    /// # Errors
    ///
    /// * [`GpError::BadTrainingData`] for empty, ragged or non-finite
    ///   inputs.
    /// * [`GpError::GramNotPd`] if the trained model's Gram matrix does
    ///   not factor.
    pub fn fit(
        kernel: KernelSpec,
        x: &[Vec<f64>],
        y: &[f64],
        config: &GpConfig,
    ) -> Result<Gp, GpError> {
        validate(kernel.input_dim(), x, y)?;
        let mut theta = kernel.init_params(&mut StdRng::seed_from_u64(config.seed));
        theta.push((0.05_f64).ln());
        Gp::refit(kernel, theta, f64::NEG_INFINITY, x, y, config)
    }

    /// Updates the model to the dataset `(x, y)` — the per-BO-iteration
    /// path. Identical data is a no-op. When `(x, y)` is the stored
    /// training set plus new rows (the stored prefix matches bitwise under
    /// the held scalers), only the new rows are appended: the held
    /// Cholesky factor is extended by a rank-`k` update, the scalers stay
    /// frozen, and hyperparameter optimisation is skipped while the held
    /// optimum still explains the data, else warm-started from it.
    /// Anything else — shrunk, reordered or retro-edited data, or an
    /// append that fails — is a full refit that re-standardises and
    /// retrains from the held hyperparameters, so on success the model is
    /// conditioned on exactly `(x, y)`. On `Err` the model is as it was.
    ///
    /// # Errors
    ///
    /// * [`GpError::BadTrainingData`] for empty, ragged, wrongly sized or
    ///   non-finite inputs.
    /// * [`GpError::GramNotPd`] if the refit's Gram matrix does not factor
    ///   (an append whose Gram does not factor falls back to the refit).
    pub fn update(&mut self, x: &[Vec<f64>], y: &[f64], config: &GpConfig) -> Result<(), GpError> {
        self.update_with_tol(x, y, config, WARM_TOL)
    }

    /// [`Gp::update`] at warm-start tolerance `warm_tol`: the seam through
    /// which tests force either branch of an append.
    pub(crate) fn update_with_tol(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        config: &GpConfig,
        warm_tol: f64,
    ) -> Result<(), GpError> {
        validate(self.kernel.input_dim(), x, y)?;
        let n = self.xs.len();
        if x.len() >= n && self.matches_prefix(&x[..n], &y[..n]) {
            if x.len() == n {
                return Ok(());
            }
            if let Ok(grown) = self.append(&x[n..], &y[n..], config, warm_tol) {
                *self = grown;
                return Ok(());
            }
        }
        let (kernel, theta) = (self.kernel.clone(), self.theta());
        *self = Gp::refit(kernel, theta, self.ll_per_point, x, y, config)?;
        Ok(())
    }

    /// The model over `(x, y)` under fresh scalers, trained from `theta`;
    /// `ll_per_point` stays when no iteration gives a finite likelihood.
    fn refit(
        kernel: KernelSpec,
        theta: Vec<f64>,
        ll_per_point: f64,
        x: &[Vec<f64>],
        y: &[f64],
        config: &GpConfig,
    ) -> Result<Gp, GpError> {
        let (x_scaler, y_scaler) = (Scaler::fit(x), Scaler::fit_scalar(y));
        let xs: Vec<Vec<f64>> = x.iter().map(|r| x_scaler.transform(r)).collect();
        let ys: Vec<f64> = y.iter().map(|&v| y_scaler.transform_scalar(v, 0)).collect();
        let (theta, ll) = Gp::train(&kernel, theta, ll_per_point, &xs, &ys, config);
        Gp::condition(kernel, theta, (x_scaler, y_scaler), xs, ys, ll, None)
    }

    /// The model grown by a batch of new points *incrementally*: the held
    /// Cholesky factor is extended by a rank-`k` update (`O(k·n²)`, or
    /// refactorised in full if the grown Gram is no longer positive
    /// definite at the held jitter), and hyperparameter optimisation is
    /// skipped while the held optimum's per-point log-likelihood stays
    /// within `warm_tol` of the last training run's, else warm-started
    /// from it. The scalers are **frozen**, which keeps the held factor
    /// valid.
    fn append(
        &self,
        x_new: &[Vec<f64>],
        y_new: &[f64],
        config: &GpConfig,
        warm_tol: f64,
    ) -> Result<Gp, GpError> {
        let (n, k, ll) = (self.xs.len(), x_new.len(), self.ll_per_point);
        // Frozen scalers: standardise the batch with the held statistics.
        let xs_new: Vec<Vec<f64>> = x_new.iter().map(|r| self.x_scaler.transform(r)).collect();
        let ys_new = y_new.iter().map(|&v| self.y_scaler.transform_scalar(v, 0));
        let xs: Vec<Vec<f64>> = self.xs.iter().chain(&xs_new).cloned().collect();
        let ys: Vec<f64> = self.ys.iter().copied().chain(ys_new).collect();

        // Rank-k factor extension. Blocks come from the same prepared
        // features and orientation as `gram` (first argument = earlier
        // point; a point's features do not depend on the set it was
        // prepared in), so the extended factor is bitwise what a
        // from-scratch factorisation at the held jitter would produce.
        let new = self.kernel.prepare(&self.params, &xs_new);
        let new_cols = new.columns();
        let mut cross = Matrix::zeros(k, n);
        let mut row = vec![0.0; k];
        for j in 0..n {
            new.cross_row(&new_cols, self.train.features(j), 0, &mut row);
            for (p, &v) in row.iter().enumerate() {
                cross[(p, j)] = v;
            }
        }
        let mut corner = new.gram();
        corner.add_diagonal(self.gram_noise());
        let extended = self.chol.extend(&cross, &corner).ok().map(|chol| {
            let mut train = self.train.clone();
            train.append(new);
            (train, chol)
        });
        // Without an extension (the grown Gram lost positive definiteness
        // at the held jitter) conditioning refactorises in full.
        let kernel = self.kernel.clone();
        let scalers = (self.x_scaler.clone(), self.y_scaler.clone());
        let grown = Gp::condition(kernel, self.theta(), scalers, xs, ys, ll, extended)?;

        // Warm-start check: does the held optimum still explain the grown
        // dataset? Exact marginal likelihood — the factor is already there.
        let m = grown.ys.len() as f64;
        let warm_pp = (-0.5 * kato_linalg::dot(&grown.ys, &grown.alpha)
            - 0.5 * grown.chol.log_det()
            - 0.5 * m * (2.0 * std::f64::consts::PI).ln())
            / m;
        if warm_pp.is_finite() && ll.is_finite() && warm_pp + warm_tol >= ll {
            return Ok(grown);
        }
        // Likelihood degraded beyond tolerance: re-optimise, warm-started
        // from the held parameters, then recondition at the new ones.
        let (theta, ll) = Gp::train(&self.kernel, self.theta(), ll, &grown.xs, &grown.ys, config);
        let scalers = (grown.x_scaler, grown.y_scaler);
        Gp::condition(grown.kernel, theta, scalers, grown.xs, grown.ys, ll, None)
    }

    /// Kernel specification in use.
    #[must_use]
    pub(crate) fn kernel(&self) -> &KernelSpec {
        &self.kernel
    }

    /// Fitted kernel parameters (log-domain where applicable).
    #[must_use]
    pub(crate) fn kernel_params(&self) -> &[f64] {
        &self.params
    }

    /// Observation noise variance (standardised-output units).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn noise_variance(&self) -> f64 {
        (2.0 * self.log_noise).exp()
    }

    /// The held hyperparameters as training sees them:
    /// `[kernel params | log-noise]`.
    fn theta(&self) -> Vec<f64> {
        [&self.params[..], &[self.log_noise]].concat()
    }

    /// `true` when `(x, y)` standardises (under the *held*, frozen scalers)
    /// to exactly the stored training set — the precondition for treating a
    /// longer dataset as "stored data plus new rows" in [`Gp::update`].
    /// Comparison is bitwise, so any retro-imputation of earlier rows
    /// (including NaN, which never compares equal) forces the full-refit
    /// path.
    fn matches_prefix(&self, x: &[Vec<f64>], y: &[f64]) -> bool {
        if x.len() != self.xs.len() || y.len() != self.ys.len() {
            return false;
        }
        x.iter()
            .zip(&self.xs)
            .all(|(xi, sxi)| self.x_scaler.transform(xi) == *sxi)
            && y.iter()
                .zip(&self.ys)
                .all(|(&yi, &syi)| self.y_scaler.transform_scalar(yi, 0) == syi)
    }

    pub(crate) fn xs_std(&self) -> &[Vec<f64>] {
        &self.xs
    }

    pub(crate) fn ys_std(&self) -> &[f64] {
        &self.ys
    }

    /// Builds the noisy Gram matrix at the current hyperparameters over the
    /// given (standardised) points.
    #[cfg(test)]
    fn gram(&self, pts: &[Vec<f64>]) -> Matrix {
        let mut k = self.kernel.prepare(&self.params, pts).gram();
        k.add_diagonal(self.gram_noise());
        k
    }

    /// Diagonal added to every Gram matrix of this model (a
    /// [`KatGp`](crate::KatGp)'s source Gram too).
    pub(crate) fn gram_noise(&self) -> f64 {
        gram_noise(self.log_noise)
    }

    /// [`Gp::log_lik_grad_at`] at the held hyperparameters.
    #[cfg(test)]
    fn log_lik_grad(
        &self,
        pts: &[Vec<f64>],
        ys: &[f64],
        trace: &mut GramTrace,
    ) -> Option<(f64, Vec<f64>)> {
        Gp::log_lik_grad_at(&self.kernel, &self.theta(), pts, ys, trace)
    }

    /// Log marginal likelihood of `(pts, ys)` at `theta` (`[kernel params
    /// | log-noise]`) and its gradient with respect to `theta` — one
    /// training iteration. `None` when the Gram matrix does not factor.
    /// `trace` is scratch reused across iterations.
    ///
    /// The forward pass fills the Gram matrix from the prepared row kernel
    /// ([`PreparedKernel::gram_traced`]), keeping each pair's
    /// intermediates: the strict upper triangle and one shared diagonal
    /// `k(x, x)` (the kernels are stationary). Each entry is then seeded
    /// with its adjoint `∂L/∂K_ij = ½(ααᵀ − K⁻¹)_ij` (the B-matrix trick)
    /// and a hand-written reverse pass ([`KernelSpec::gram_grad`]) carries
    /// the seeds back to the parameters. Value and gradient equal, bit for
    /// bit, those of the same objective recorded on an autodiff tape (the
    /// tests' oracle).
    fn log_lik_grad_at(
        kernel: &KernelSpec,
        theta: &[f64],
        pts: &[Vec<f64>],
        ys: &[f64],
        trace: &mut GramTrace,
    ) -> Option<(f64, Vec<f64>)> {
        let n = pts.len();
        let (params, log_noise) = theta.split_at(theta.len() - 1);
        let prep = kernel.prepare(params, pts);
        let mut k = prep.gram_traced(trace);
        k.add_diagonal(gram_noise(log_noise[0]));
        let chol = CholeskyFactor::new(&k).ok()?;
        let alpha = chol.solve(ys);
        let kinv = chol.inverse();
        let log_lik = -0.5 * kato_linalg::dot(ys, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

        // Off-diagonal seeds are doubled for the symmetric pair; the shared
        // diagonal node and the noise variance both collect ½tr(B).
        let tr_b: f64 = (0..n).map(|i| alpha[i] * alpha[i] - kinv[(i, i)]).sum();
        let mut g = kernel.gram_grad(
            params,
            &prep,
            pts,
            &k,
            trace,
            |i, j| alpha[i] * alpha[j] - kinv[(i, j)],
            0.5 * tr_b,
        );
        // ∂L/∂σ² = ½tr(B), chained to log-noise (σ² = e^{2·log_noise}).
        g.push(0.5 * tr_b * 2.0 * (2.0 * log_noise[0]).exp());
        Some((log_lik, g))
    }

    /// Maximum-likelihood hyperparameters on a seeded subsample of the
    /// standardised `(xs, ys)`, and their per-point log-likelihood (`ll`
    /// when no iteration gave a finite one): [`ascend`] from `theta`,
    /// kernel parameters clamped to ±8, log-noise to [−7, 2].
    fn train(
        kernel: &KernelSpec,
        theta: Vec<f64>,
        ll: f64,
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &GpConfig,
    ) -> (Vec<f64>, f64) {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        let mut idx = subsample(xs.len(), config.fit_subsample, &mut rng);
        idx.sort_unstable();
        let pts: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        let ys: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();

        // One trace for the whole call: every iteration keeps the same
        // number of intermediates, so after the first it never reallocates.
        let mut trace = GramTrace::default();
        let (theta, best) = ascend(
            theta,
            config.train_iters,
            config.lr,
            8.0,
            (-7.0, 2.0),
            |t| Gp::log_lik_grad_at(kernel, t, &pts, &ys, &mut trace),
        );
        let n = pts.len() as f64;
        (theta, if best.is_finite() { best / n } else { ll })
    }

    /// The model `theta` defines over the standardised `(xs, ys)`, given
    /// the prepared dataset and its noisy Gram's factor when the caller
    /// holds them; [`GpError::GramNotPd`] if that Gram does not factor.
    fn condition(
        kernel: KernelSpec,
        mut theta: Vec<f64>,
        (x_scaler, y_scaler): (Scaler, Scaler),
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        ll_per_point: f64,
        factored: Option<(PreparedKernel, CholeskyFactor)>,
    ) -> Result<Gp, GpError> {
        let log_noise = theta.pop().expect("theta ends in the log-noise");
        let (train, chol) = match factored {
            Some(factored) => factored,
            None => {
                let train = kernel.prepare(&theta, &xs);
                let mut k = train.gram();
                k.add_diagonal(gram_noise(log_noise));
                let chol = CholeskyFactor::new(&k).map_err(|_| GpError::GramNotPd)?;
                (train, chol)
            }
        };
        Ok(Gp {
            kernel,
            params: theta,
            log_noise,
            x_scaler,
            y_scaler,
            cols: train.columns(),
            alpha: chol.solve(&ys),
            xs,
            ys,
            train,
            chol,
            ll_per_point,
        })
    }

    /// Posterior mean and variance at `x` (raw units), paper Eq. 4, one
    /// point at a time through the generic per-pair kernel formula: the
    /// test oracle for [`Gp::predict_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel input dimension.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn predict(&self, x: &[f64]) -> (f64, f64) {
        let (m, v) = self.predict_std(&self.x_scaler.transform(x));
        let s = self.y_scaler.scale(0);
        (self.y_scaler.inverse_scalar(m, 0), v * s * s)
    }

    /// Posterior mean and variance at every query point (raw units), paper
    /// Eq. 4: the rows of [`Gp::prepare_batch`] fanned out once over the
    /// [`kato_par`] pool, then [`GpBatch::finish`]. Values agree with the
    /// point-wise test oracle to floating-point re-association error
    /// (≪ 1e-10).
    ///
    /// # Panics
    ///
    /// Panics if any query's length differs from the kernel input
    /// dimension.
    #[must_use]
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let batch = self.prepare_batch(xs);
        let idx: Vec<usize> = (0..batch.len()).collect();
        batch.finish(&kato_par::par_map(&idx, |&j| batch.row(j)))
    }

    /// Prepares the batched posterior at `xs` (raw units) in two phases:
    /// [`GpBatch::row`] computes one query's cross-covariance row and may
    /// run on any worker, [`GpBatch::finish`] applies the shared Cholesky
    /// factor to all rows in one batched triangular solve. The queries'
    /// kernel features are hoisted here, once; the training set's were
    /// prepared when the model was conditioned.
    ///
    /// # Panics
    ///
    /// Panics if any query's length differs from the kernel input
    /// dimension.
    #[must_use]
    pub fn prepare_batch(&self, xs: &[Vec<f64>]) -> GpBatch<'_> {
        let dim = self.kernel.input_dim();
        let xq: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                assert_eq!(x.len(), dim, "predict_batch: dimension mismatch");
                self.x_scaler.transform(x)
            })
            .collect();
        GpBatch {
            gp: self,
            query: xq.iter().map(|x| self.train.project(x)).collect(),
            prior: self.train.diagonal(),
        }
    }

    /// Posterior mean/variance in standardised coordinates (`x` already
    /// standardised): the point-wise path behind `Gp::predict`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn predict_std(&self, x_std: &[f64]) -> (f64, f64) {
        assert_eq!(
            x_std.len(),
            self.kernel.input_dim(),
            "predict: dimension mismatch"
        );
        let n = self.xs.len();
        let mut kvec = Vec::with_capacity(n);
        for xi in &self.xs {
            kvec.push(self.kernel.eval(&self.params, x_std, xi));
        }
        let mean = kato_linalg::dot(&kvec, &self.alpha);
        let w = self.chol.forward_sub(&kvec);
        let k_xx = self.kernel.eval(&self.params, x_std, x_std);
        let var = (k_xx - kato_linalg::dot(&w, &w)).max(1e-12);
        (mean, var)
    }
}

/// A [`Gp`] posterior prepared at a batch of queries by
/// [`Gp::prepare_batch`]: per-query rows, then one batched solve.
#[derive(Debug)]
pub struct GpBatch<'a> {
    gp: &'a Gp,
    /// The standardised queries' features.
    query: Vec<Vec<f64>>,
    /// Prior variance `k(q, q)`: every kernel here is stationary, so it is
    /// one constant (the pair formula at zero offset).
    prior: f64,
}

impl GpBatch<'_> {
    /// Number of queries.
    fn len(&self) -> usize {
        self.query.len()
    }

    /// Cross-covariance row of query `j` against every training point.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[must_use]
    pub fn row(&self, j: usize) -> Vec<f64> {
        let gp = self.gp;
        let mut row = vec![0.0; gp.train.len()];
        gp.train.cross_row(&gp.cols, &self.query[j], 0, &mut row);
        row
    }

    /// Posterior mean and variance (raw units) of every query from its
    /// [`GpBatch::row`], in query order: one batched triangular solve.
    ///
    /// # Panics
    ///
    /// Panics unless `rows` holds one row per query.
    #[must_use]
    pub fn finish(&self, rows: &[Vec<f64>]) -> Vec<(f64, f64)> {
        assert_eq!(rows.len(), self.len(), "finish: one row per query");
        if rows.is_empty() {
            return Vec::new();
        }
        let gp = self.gp;
        let n = gp.xs.len();
        let kmat = Matrix::from_fn(n, rows.len(), |i, j| rows[j][i]);
        let w = gp.chol.forward_sub_matrix(&kmat);
        let s = gp.y_scaler.scale(0);
        rows.iter()
            .enumerate()
            .map(|(j, row)| {
                let mean = kato_linalg::dot(row, &gp.alpha);
                let mut wsq = 0.0;
                for i in 0..n {
                    wsq += w[(i, j)] * w[(i, j)];
                }
                let var = (self.prior - wsq).max(1e-12);
                (gp.y_scaler.inverse_scalar(mean, 0), var * s * s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_autodiff::Tape;

    /// [`Gp::log_lik_grad`] recorded on `tape` (cleared first): the
    /// oracle the hand-written reverse pass equals bit for bit.
    ///
    /// The tape holds the hoisted kernel quantities once, each point's
    /// projection once, the strict upper Gram triangle as primitive
    /// arithmetic, and one shared diagonal node `k(x, x)` (the kernels are
    /// stationary). Its values are the `f64` Gram bitwise; each entry is
    /// then seeded with its adjoint `∂L/∂K_ij = ½(ααᵀ − K⁻¹)_ij` (the
    /// B-matrix trick), so one reverse sweep yields the whole gradient.
    fn log_lik_grad_taped(
        gp: &Gp,
        tape: &Tape,
        pts: &[Vec<f64>],
        ys: &[f64],
    ) -> Option<(f64, Vec<f64>)> {
        tape.clear();
        let n = pts.len();
        let p_vars: Vec<_> = gp.params.iter().map(|&p| tape.var(p)).collect();
        let prep = gp.kernel.prepare(&p_vars, pts);
        let diag = prep.eval(0, &prep, 0);
        let mut upper = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        let mut k = Matrix::zeros(n, n);
        let noisy_diag = diag.value() + gp.gram_noise();
        for i in 0..n {
            k[(i, i)] = noisy_diag;
            for j in i + 1..n {
                let k_ij = prep.eval(i, &prep, j);
                k[(i, j)] = k_ij.value();
                k[(j, i)] = k_ij.value();
                upper.push(k_ij);
            }
        }
        let chol = CholeskyFactor::new(&k).ok()?;
        let alpha = chol.solve(ys);
        let kinv = chol.inverse();
        let log_lik = -0.5 * kato_linalg::dot(ys, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

        // Off-diagonal seeds are doubled for the symmetric pair; the shared
        // diagonal node and the noise variance both collect ½tr(B).
        let tr_b: f64 = (0..n).map(|i| alpha[i] * alpha[i] - kinv[(i, i)]).sum();
        let mut seeds = Vec::with_capacity(upper.len() + 1);
        let mut entries = upper.into_iter();
        for i in 0..n {
            for j in i + 1..n {
                let b_ij = alpha[i] * alpha[j] - kinv[(i, j)];
                seeds.push((entries.next().expect("upper triangle"), b_ij));
            }
        }
        seeds.push((diag, 0.5 * tr_b));
        let mut g = tape.backward_seeded(&seeds).wrt_slice(&p_vars);
        // ∂L/∂σ² = ½tr(B), chained to log-noise (σ² = e^{2·log_noise}).
        g.push(0.5 * tr_b * 2.0 * gp.noise_variance());
        Some((log_lik, g))
    }

    fn sine_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin() + 0.3 * x[0]).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = sine_data(15);
        let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, _) = gp.predict(x);
            assert!((m - y).abs() < 0.15, "at {x:?}: {m} vs {y}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = sine_data(10);
        let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let (_, v_in) = gp.predict(&[0.5]);
        let (_, v_out) = gp.predict(&[3.0]);
        assert!(v_out > v_in * 2.0, "v_in={v_in} v_out={v_out}");
    }

    #[test]
    fn neuk_fits_sine_as_well_as_ard() {
        let (xs, ys) = sine_data(25);
        let ard = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let neuk = Gp::fit(KernelSpec::neuk(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let mut err_ard = 0.0;
        let mut err_neuk = 0.0;
        for i in 0..50 {
            let x = [i as f64 / 49.0];
            let truth = (5.0 * x[0]).sin() + 0.3 * x[0];
            err_ard += (ard.predict(&x).0 - truth).powi(2);
            err_neuk += (neuk.predict(&x).0 - truth).powi(2);
        }
        assert!(
            err_neuk < err_ard * 3.0 + 0.5,
            "neuk {err_neuk} vs ard {err_ard}"
        );
    }

    #[test]
    fn training_improves_likelihood() {
        let (xs, ys) = sine_data(20);
        let short = Gp::fit(
            KernelSpec::ard_rbf(1),
            &xs,
            &ys,
            &GpConfig {
                train_iters: 1,
                ..GpConfig::fast()
            },
        )
        .unwrap();
        let long = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        assert!(
            long.ll_per_point >= short.ll_per_point - 1e-6,
            "{} vs {}",
            long.ll_per_point,
            short.ll_per_point
        );
    }

    #[test]
    fn refit_warm_start_keeps_working() {
        let (xs, ys) = sine_data(12);
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let (xs2, ys2) = sine_data(18);
        gp.update(
            &xs2,
            &ys2,
            &GpConfig {
                train_iters: 10,
                ..GpConfig::fast()
            },
        )
        .unwrap();
        assert_eq!(gp.xs.len(), 18);
        let (m, _) = gp.predict(&xs2[9]);
        assert!((m - ys2[9]).abs() < 0.2);
    }

    #[test]
    fn subsampled_fit_still_conditions_on_all_points() {
        let (xs, ys) = sine_data(40);
        let gp = Gp::fit(
            KernelSpec::ard_rbf(1),
            &xs,
            &ys,
            &GpConfig {
                fit_subsample: 10,
                ..GpConfig::fast()
            },
        )
        .unwrap();
        assert_eq!(gp.xs.len(), 40);
    }

    #[test]
    fn rejects_bad_data() {
        let r = Gp::fit(KernelSpec::ard_rbf(1), &[], &[], &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
        let r = Gp::fit(
            KernelSpec::ard_rbf(2),
            &[vec![1.0]],
            &[1.0],
            &GpConfig::fast(),
        );
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn fit_rejects_a_non_finite_target() {
        let (xs, mut ys) = sine_data(10);
        ys[3] = f64::NAN;
        let r = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn refit_rejects_a_non_finite_input() {
        let (mut xs, ys) = sine_data(10);
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        xs[2][0] = f64::INFINITY;
        let r = gp.update(&xs, &ys, &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn append_rejects_a_non_finite_target() {
        let (mut xs, mut ys) = sine_data(10);
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        xs.push(vec![0.5]);
        ys.push(f64::NAN);
        let r = gp.update(&xs, &ys, &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
        assert_eq!(gp.xs.len(), 10, "a rejected batch is not ingested");
    }

    #[test]
    fn duplicate_points_handled_via_noise() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.5], vec![0.6]];
        let ys = vec![1.0, 1.1, 0.9, 2.0];
        let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.0).abs() < 0.3, "mean at duplicated x: {m}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = sine_data(10);
        let a = Gp::fit(KernelSpec::neuk(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let b = Gp::fit(KernelSpec::neuk(1), &xs, &ys, &GpConfig::fast()).unwrap();
        assert_eq!(a.kernel_params(), b.kernel_params());
    }

    #[test]
    fn predict_batch_matches_pointwise() {
        let (xs, ys) = sine_data(18);
        for kernel in [KernelSpec::ard_rbf(1), KernelSpec::neuk(1)] {
            let gp = Gp::fit(kernel, &xs, &ys, &GpConfig::fast()).unwrap();
            let queries: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 / 12.0 - 0.5]).collect();
            let batch = gp.predict_batch(&queries);
            assert_eq!(batch.len(), queries.len());
            for (q, &(bm, bv)) in queries.iter().zip(&batch) {
                let (m, v) = gp.predict(q);
                assert!(
                    (m - bm).abs() <= 1e-10 * (1.0 + m.abs()),
                    "mean {m} vs {bm}"
                );
                assert!((v - bv).abs() <= 1e-10 * (1.0 + v.abs()), "var {v} vs {bv}");
            }
        }
        let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        assert!(gp.predict_batch(&[]).is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_predict_batch_matches_pointwise(
            qs in proptest::collection::vec(-1.0..2.0f64, 1..12),
            neuk in 0usize..2,
        ) {
            let (xs, ys) = sine_data(12);
            let kernel = if neuk == 1 { KernelSpec::neuk(1) } else { KernelSpec::ard_rbf(1) };
            let gp = Gp::fit(kernel, &xs, &ys, &GpConfig::fast()).unwrap();
            let queries: Vec<Vec<f64>> = qs.iter().map(|&q| vec![q]).collect();
            let batch = gp.predict_batch(&queries);
            for (q, &(bm, bv)) in queries.iter().zip(&batch) {
                let (m, v) = gp.predict(q);
                proptest::prop_assert!((m - bm).abs() <= 1e-10 * (1.0 + m.abs()));
                proptest::prop_assert!((v - bv).abs() <= 1e-10 * (1.0 + v.abs()));
            }
        }
    }

    #[test]
    fn append_skips_retraining_when_warm_likelihood_holds() {
        let (xs, ys) = sine_data(24);
        let cfg = GpConfig::fast();
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs[..20], &ys[..20], &cfg).unwrap();
        let params_before = gp.kernel_params().to_vec();
        // Four more points from the same smooth function: the held optimum
        // explains them, so a generous tolerance must take the skip path
        // and leave the hyperparameters untouched.
        gp.update_with_tol(&xs, &ys, &cfg, 5.0).unwrap();
        assert_eq!(gp.xs.len(), 24);
        assert_eq!(gp.kernel_params(), &params_before[..]);
        // Still conditioned on everything: new points are interpolated.
        let (m, _) = gp.predict(&xs[22]);
        assert!((m - ys[22]).abs() < 0.2, "{m} vs {}", ys[22]);
    }

    #[test]
    fn append_matches_refit_posterior_closely() {
        let (xs, ys) = sine_data(22);
        let cfg = GpConfig::fast();
        let mut warm = Gp::fit(KernelSpec::ard_rbf(1), &xs[..16], &ys[..16], &cfg).unwrap();
        warm.update(&xs, &ys, &cfg).unwrap();
        let cold = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &cfg).unwrap();
        for i in 0..40 {
            let q = [i as f64 / 39.0];
            let (mw, _) = warm.predict(&q);
            let (mc, _) = cold.predict(&q);
            assert!((mw - mc).abs() < 0.25, "at {q:?}: warm {mw} vs cold {mc}");
        }
    }

    #[test]
    fn warm_started_retraining_is_no_worse_than_cold() {
        // The satellite guarantee: forcing the warm-started re-optimisation
        // (warm_tol = −∞) must never land at a worse per-point training
        // log-likelihood than the cold schedule fitting from scratch.
        // Comparison is in raw-y units (warm keeps the prefix scalers, cold
        // re-fits them): ll_raw_pp = ll_std_pp − ln(y_scale).
        let (xs, ys) = sine_data(26);
        let cfg = GpConfig::fast();
        let mut warm = Gp::fit(KernelSpec::ard_rbf(1), &xs[..18], &ys[..18], &cfg).unwrap();
        warm.update_with_tol(&xs, &ys, &cfg, f64::NEG_INFINITY)
            .unwrap();
        let cold = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &cfg).unwrap();
        let raw_pp = |gp: &Gp| gp.ll_per_point - gp.y_scaler.scale(0).ln();
        assert!(
            raw_pp(&warm) >= raw_pp(&cold) - 1e-9,
            "warm {} vs cold {}",
            raw_pp(&warm),
            raw_pp(&cold)
        );
    }

    #[test]
    fn append_rejects_ragged_rows() {
        let (mut xs, ys) = sine_data(10);
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let mut grown = (xs.clone(), ys.clone());
        grown.0.push(vec![0.1, 0.2]);
        grown.1.push(1.0);
        let r = gp.update(&grown.0, &grown.1, &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
        xs.push(vec![0.1]);
        let r = gp.update(&xs, &ys, &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
        assert_eq!(gp.xs.len(), 10, "a rejected batch is not ingested");
    }

    #[test]
    fn update_rejects_rows_wider_than_the_kernel_input() {
        // Every row one column too wide: rejected up front, never trained
        // on as a truncated projection, and the model is left bitwise as
        // it was.
        let (xs, ys) = sine_data(10);
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let queries: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 / 6.0]).collect();
        let before = gp.predict_batch(&queries);
        let wide: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0], 0.5]).collect();
        let r = gp.update(&wide, &ys, &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })), "{r:?}");
        let after = gp.predict_batch(&queries);
        let bits = |p: &[(f64, f64)]| -> Vec<(u64, u64)> {
            p.iter().map(|&(m, v)| (m.to_bits(), v.to_bits())).collect()
        };
        assert_eq!(bits(&after), bits(&before));
    }

    #[test]
    fn update_appends_on_grown_prefix_and_refits_on_mismatch() {
        let (xs, ys) = sine_data(20);
        let cfg = GpConfig::fast();
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs[..14], &ys[..14], &cfg).unwrap();
        assert!(gp.matches_prefix(&xs[..14], &ys[..14]));
        assert!(!gp.matches_prefix(&xs[..13], &ys[..13]));

        gp.update(&xs, &ys, &cfg).unwrap();
        assert_eq!(gp.xs.len(), 20);
        let (m, _) = gp.predict(&xs[17]);
        assert!((m - ys[17]).abs() < 0.2, "{m} vs {}", ys[17]);

        // Same dataset again: a no-op, still conditioned on 20 points.
        let held = gp.clone();
        gp.update(&xs, &ys, &cfg).unwrap();
        assert_eq!(gp.xs.len(), 20);
        assert_eq!(gp.kernel_params(), held.kernel_params());

        // Retro-edited prefix → full refit path (length unchanged but data
        // differs, so the model must re-standardise and retrain).
        let mut ys_edit = ys.clone();
        ys_edit[0] += 1.0;
        gp.update(&xs, &ys_edit, &cfg).unwrap();
        assert_eq!(gp.xs.len(), 20);
        let (m, _) = gp.predict(&xs[0]);
        assert!(
            (m - ys_edit[0]).abs() < 0.4,
            "refit tracked edited row: {m}"
        );
    }

    #[test]
    fn nan_in_prefix_forces_refit_path() {
        let (xs, mut ys) = sine_data(12);
        let cfg = GpConfig::fast();
        ys[3] = f64::NAN;
        // A NaN row never matches bitwise, even against itself.
        let clean: Vec<f64> = ys
            .iter()
            .map(|v| if v.is_finite() { *v } else { 0.0 })
            .collect();
        let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &clean, &cfg).unwrap();
        assert!(!gp.matches_prefix(&xs, &ys));
    }

    #[test]
    fn mle_gradient_matches_finite_difference() {
        // Validate the B-matrix trick end to end on a tiny problem: compare
        // dL/dθ from the tape against numeric differentiation of the exact
        // log-likelihood.
        let xs = [vec![0.0], vec![0.4], vec![1.0]];
        let ys = vec![0.1, 0.9, -0.3];
        let kernel = KernelSpec::ard_rbf(1);
        let params = vec![0.2, -0.1];
        let noise2 = 0.05;

        let loglik = |p: &[f64]| -> f64 {
            let mut k = Matrix::from_fn(3, 3, |i, j| kernel.eval(p, &xs[i], &xs[j]));
            k.add_diagonal(noise2);
            let chol = CholeskyFactor::new(&k).unwrap();
            let alpha = chol.solve(&ys);
            -0.5 * kato_linalg::dot(&ys, &alpha)
                - 0.5 * chol.log_det()
                - 1.5 * (2.0 * std::f64::consts::PI).ln()
        };

        // Analytic gradient via B-matrix seeds.
        let mut k = Matrix::from_fn(3, 3, |i, j| kernel.eval(&params, &xs[i], &xs[j]));
        k.add_diagonal(noise2);
        let chol = CholeskyFactor::new(&k).unwrap();
        let alpha = chol.solve(&ys);
        let kinv = chol.inverse();
        let tape = Tape::new();
        let p_vars: Vec<_> = params.iter().map(|&p| tape.var(p)).collect();
        let x_vars: Vec<Vec<_>> = xs
            .iter()
            .map(|r| r.iter().map(|&v| tape.constant(v)).collect())
            .collect();
        let mut seeds = Vec::new();
        for i in 0..3 {
            for j in i..3 {
                let kij = kernel.eval(&p_vars, &x_vars[i], &x_vars[j]);
                let b = alpha[i] * alpha[j] - kinv[(i, j)];
                seeds.push((kij, if i == j { 0.5 * b } else { b }));
            }
        }
        let grads = tape.backward_seeded(&seeds);
        let analytic = grads.wrt_slice(&p_vars);
        let check = kato_autodiff::check_gradient(loglik, &params, &analytic, 1e-6);
        assert!(check.passes(1e-5), "{check:?}");
    }

    /// A fitted model on `n` random points in `[0, 1]^d`, for exercising
    /// the training objective directly.
    fn random_gp(kernel: KernelSpec, n: usize, seed: u64) -> Gp {
        use rand::Rng;
        let d = kernel.input_dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().map(|v| (3.0 * v).sin()).sum())
            .collect();
        let cfg = GpConfig {
            train_iters: 3,
            ..GpConfig::fast()
        };
        Gp::fit(kernel, &xs, &ys, &cfg).unwrap()
    }

    #[test]
    fn training_objective_gradient_matches_finite_difference() {
        // The production objective (f64 forward, shared diagonal entry,
        // B-matrix seeds, hand-written reverse pass) against numeric
        // differentiation of its own value over every kernel parameter and
        // the log-noise.
        for kernel in [KernelSpec::ard_rbf(2), KernelSpec::neuk(2)] {
            let gp = random_gp(kernel, 6, 8);
            let (pts, ys) = (gp.xs.clone(), gp.ys.clone());
            let mut theta = gp.params.clone();
            theta.push(gp.log_noise);
            let at = |th: &[f64]| {
                let mut g = gp.clone();
                g.params = th[..th.len() - 1].to_vec();
                g.log_noise = th[th.len() - 1];
                g
            };
            let loglik = |th: &[f64]| {
                at(th)
                    .log_lik_grad(&pts, &ys, &mut GramTrace::default())
                    .unwrap()
                    .0
            };
            let (_, analytic) = gp
                .log_lik_grad(&pts, &ys, &mut GramTrace::default())
                .unwrap();
            let check = kato_autodiff::check_gradient(loglik, &theta, &analytic, 1e-6);
            assert!(check.passes(1e-5), "{:?}: {check:?}", gp.kernel);
        }
    }

    #[test]
    fn training_objective_matches_conditioned_likelihood() {
        // The training Gram is the conditioning Gram bitwise, so the
        // training objective at the held parameters is exactly the
        // log-likelihood a full conditioning computes.
        let gp = random_gp(KernelSpec::neuk(3), 9, 2);
        let (ll, _) = gp
            .log_lik_grad(&gp.xs, &gp.ys, &mut GramTrace::default())
            .unwrap();
        let chol = CholeskyFactor::new(&gp.gram(&gp.xs)).unwrap();
        let alpha = chol.solve(&gp.ys);
        let exact = -0.5 * kato_linalg::dot(&gp.ys, &alpha)
            - 0.5 * chol.log_det()
            - 4.5 * (2.0 * std::f64::consts::PI).ln();
        assert_eq!(ll, exact);
    }

    #[test]
    fn training_iteration_records_few_nodes_per_gram_pair() {
        // Work-counter guard: per-point projections and per-iteration
        // hoisted constants must stay out of the pair loop. The generic
        // per-pair `KernelSpec::eval` records 299 nodes per pair here.
        let n = 20;
        let gp = random_gp(KernelSpec::neuk(8), n, 5);
        let tape = Tape::new();
        log_lik_grad_taped(&gp, &tape, &gp.xs, &gp.ys).unwrap();
        let per_pair = tape.len() as f64 / (n * (n + 1) / 2) as f64;
        assert!(per_pair <= 80.0, "{per_pair:.1} tape nodes per Gram pair");
    }

    /// A Neuk unit holding the three primitives in reverse order at a
    /// mixing width of 2.
    fn all_primitives(d: usize) -> KernelSpec {
        KernelSpec::Neuk(crate::NeukSpec {
            input_dim: d,
            primitives: vec![
                crate::PrimitiveKernel::Periodic,
                crate::PrimitiveKernel::RationalQuadratic,
                crate::PrimitiveKernel::Rbf,
            ],
            mix_dim: 2,
        })
    }

    /// Production value and gradient (`f64` forward, hand-written reverse
    /// pass) against the taped oracle, compared by `to_bits`.
    fn assert_objective_is_bitwise(gp: &Gp) {
        let bits = |r: &Option<(f64, Vec<f64>)>| {
            r.as_ref().map(|(v, g)| {
                let g: Vec<u64> = g.iter().map(|x| x.to_bits()).collect();
                (v.to_bits(), g)
            })
        };
        let hand = gp.log_lik_grad(&gp.xs, &gp.ys, &mut GramTrace::default());
        let taped = log_lik_grad_taped(gp, &Tape::new(), &gp.xs, &gp.ys);
        assert_eq!(
            bits(&hand),
            bits(&taped),
            "{:?}\n{hand:?}\nvs\n{taped:?}",
            gp.kernel
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_training_objective_equals_the_taped_oracle_bitwise(
            seed in 0u64..1_000_000,
            which in 0usize..3,
            n in 1usize..9,
            scale in 0.0..2.0f64,
            coincident in 0usize..2,
        ) {
            let kernel = [KernelSpec::ard_rbf(3), KernelSpec::neuk(3), all_primitives(3)][which].clone();
            let mut gp = random_gp(kernel, n, seed);
            if coincident == 1 {
                gp.xs[n - 1] = gp.xs[0].clone();
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7E7A);
            for p in gp.params.iter_mut() {
                *p += rand::Rng::gen_range(&mut rng, -1.0..1.0) * scale;
            }
            gp.log_noise += rand::Rng::gen_range(&mut rng, -1.0..1.0) * scale;
            assert_objective_is_bitwise(&gp);
        }
    }

    #[test]
    fn training_objective_is_bitwise_at_the_parameter_clamps() {
        // Every parameter at training's clamps (±8, or alternating), the
        // log-noise at its own (−7 and 2), over points that include a
        // repeated one (r = 0 off the diagonal).
        for kernel in [
            KernelSpec::ard_rbf(3),
            KernelSpec::neuk(3),
            all_primitives(3),
        ] {
            let mut gp = random_gp(kernel, 7, 31);
            gp.xs[6] = gp.xs[2].clone();
            for (pattern, log_noise) in [(0, -7.0), (1, 2.0), (2, -7.0)] {
                for (k, p) in gp.params.iter_mut().enumerate() {
                    *p = match pattern {
                        0 => 8.0,
                        1 => -8.0,
                        _ if k % 2 == 0 => 8.0,
                        _ => -8.0,
                    };
                }
                gp.log_noise = log_noise;
                assert_objective_is_bitwise(&gp);
            }
        }
    }

    #[test]
    fn training_objective_is_bitwise_for_tiny_and_huge_periods() {
        // Periods from e^-30 to e^30: arguments of the sine far beyond 2π,
        // and partials `−πd/p²` from tiny to huge.
        let mut gp = random_gp(all_primitives(3), 8, 32);
        // Periodic's projection first: its log-period follows.
        let log_period = 2 * 3 + 2;
        for lp in [-30.0, -8.0, 8.0, 30.0] {
            gp.params[log_period] = lp;
            assert_objective_is_bitwise(&gp);
        }
    }

    #[test]
    fn training_objective_is_bitwise_for_a_single_point() {
        // Only the shared diagonal: no pair at all.
        for kernel in [KernelSpec::ard_rbf(2), all_primitives(2)] {
            assert_objective_is_bitwise(&random_gp(kernel, 1, 33));
        }
    }

    /// A model over the three primitives whose last standardised point
    /// has an infinite coordinate, so infinite features: the periodic
    /// `sin(∞)` off the diagonal and `∞ − ∞` on it put NaN in every Gram
    /// over it, at any noise.
    fn gp_with_a_nan_gram() -> Gp {
        let mut gp = random_gp(all_primitives(2), 6, 34);
        gp.xs[5] = vec![f64::INFINITY, 0.5];
        gp
    }

    #[test]
    fn a_nan_gram_fails_conditioning_without_touching_the_noise() {
        let gp = gp_with_a_nan_gram();
        let scalers = (gp.x_scaler.clone(), gp.y_scaler.clone());
        let r = Gp::condition(
            gp.kernel.clone(),
            gp.theta(),
            scalers,
            gp.xs,
            gp.ys,
            0.0,
            None,
        );
        assert!(matches!(r, Err(GpError::GramNotPd)), "{r:?}");
    }

    #[test]
    fn training_over_a_gram_that_never_factors_changes_nothing() {
        let gp = gp_with_a_nan_gram();
        let cfg = GpConfig::fast();
        let (theta, ll) = Gp::train(&gp.kernel, gp.theta(), 0.5, &gp.xs, &gp.ys, &cfg);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&theta), bits(&gp.theta()));
        assert_eq!(ll, 0.5, "the previous per-point likelihood stays");
    }

    /// Fits a four-primitive model to 8 points, sets every kernel
    /// parameter and the log-noise to 800 (every Gram it builds is then
    /// non-finite, so nothing can train or condition) and updates it to 10
    /// points, the first edited when `edit`: the update fails, and the
    /// posterior keeps its bits.
    fn assert_a_failed_update_changes_nothing(edit: bool) {
        let (xs, mut ys) = sine_data(10);
        let xs: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0], 1.0 - x[0] * x[0]]).collect();
        let mut gp = Gp::fit(all_primitives(2), &xs[..8], &ys[..8], &GpConfig::fast()).unwrap();
        gp.params.iter_mut().for_each(|p| *p = 800.0);
        gp.log_noise = 800.0;
        let queries: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 / 6.0, 0.5]).collect();
        let bits = |gp: &Gp| -> Vec<(u64, u64)> {
            let post = gp.predict_batch(&queries);
            post.iter()
                .map(|&(m, v)| (m.to_bits(), v.to_bits()))
                .collect()
        };
        let before = bits(&gp);
        if edit {
            ys[0] += 1.0;
        }
        assert_eq!(
            gp.update(&xs, &ys, &GpConfig::fast()),
            Err(GpError::GramNotPd)
        );
        assert_eq!(bits(&gp), before);
        assert_eq!(gp.xs.len(), 8);
    }

    #[test]
    fn a_failed_refit_leaves_the_model_as_it_was() {
        assert_a_failed_update_changes_nothing(true);
    }

    #[test]
    fn a_failed_append_and_refit_leave_the_model_as_it_was() {
        // The append fails and falls back to a refit that fails too.
        assert_a_failed_update_changes_nothing(false);
    }
}
