//! The covariance functions of [`crate::Gp`]: ARD-RBF and the Neural
//! Kernel unit, three primitives (RBF, RQ, PER) on learned projections of
//! a fixed latent width of 2.

use crate::scalar::Scalar;
use kato_linalg::Matrix;
use rand::Rng;
use std::ops::{Add, Div, Mul, Sub};

/// Primitive kernel used inside a Neural Kernel unit: the three of paper
/// Fig. 1a, PER, RBF and RQ.
///
/// Primitives are evaluated on *learned linear projections* of the inputs,
/// so they carry no lengthscales of their own — the projection absorbs all
/// scaling (paper Eq. 8). Only shape parameters remain (RQ's `α`, the
/// periodic kernel's period).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveKernel {
    /// Squared exponential `exp(−r²)`.
    Rbf,
    /// Rational quadratic `(1 + r²/2α)^{−α}` with trainable `log α`.
    RationalQuadratic,
    /// Periodic `exp(−2 Σ sin²(π Δ_i / p))` with trainable `log p`.
    Periodic,
}

impl PrimitiveKernel {
    /// Number of internal shape parameters.
    #[must_use]
    pub(crate) fn internal_param_count(self) -> usize {
        match self {
            PrimitiveKernel::Rbf => 0,
            PrimitiveKernel::RationalQuadratic | PrimitiveKernel::Periodic => 1,
        }
    }

    /// Default internal parameters (log-domain).
    #[must_use]
    pub(crate) fn default_internal_params(self) -> Vec<f64> {
        match self {
            PrimitiveKernel::Rbf => vec![],
            // α = 1.0, period = 2.0.
            PrimitiveKernel::RationalQuadratic => vec![0.0],
            PrimitiveKernel::Periodic => vec![2.0_f64.ln()],
        }
    }

    /// Evaluates the primitive on projected feature vectors `a`, `b`: the
    /// per-pair formula the prepared kernel is tested against.
    ///
    /// `internal` must hold [`PrimitiveKernel::internal_param_count`] values.
    #[cfg(test)]
    pub(crate) fn eval<S: Scalar>(self, internal: &[S], a: &[S], b: &[S]) -> S {
        debug_assert_eq!(a.len(), b.len());
        let ctx = a[0];
        let mut r2 = ctx.lift(0.0);
        for (ai, bi) in a.iter().zip(b) {
            let d = *ai - *bi;
            r2 = r2 + d * d;
        }
        match self {
            PrimitiveKernel::Rbf => (-r2).exp(),
            PrimitiveKernel::RationalQuadratic => {
                let alpha = internal[0].exp();
                // (1 + r²/2α)^{−α} = exp(−α·ln(1 + r²/2α))
                let inner = (ctx.lift(1.0) + r2 / (alpha * 2.0)).ln();
                (-(alpha * inner)).exp()
            }
            PrimitiveKernel::Periodic => {
                let period = internal[0].exp();
                let mut s = ctx.lift(0.0);
                for (ai, bi) in a.iter().zip(b) {
                    let arg = (*ai - *bi) * std::f64::consts::PI / period;
                    let sv = arg.sin();
                    s = s + sv * sv;
                }
                (-(s * 2.0)).exp()
            }
        }
    }
}

/// Width of every Neuk primitive's learned projection (the latent
/// dimension of paper Eq. 8).
const LATENT: usize = 2;

/// Neural Kernel (Neuk) unit, paper §3.1.
///
/// For each primitive `h_i`, inputs are projected through a learned affine
/// map (`W⁽ⁱ⁾x + b⁽ⁱ⁾`, Eq. 8) to 2 dimensions, the primitives are mixed
/// by a linear layer (Eq. 9) and squashed through `exp(·)` (Eq. 10):
///
/// `k(x₁,x₂) = exp( Σ_j [Σ_i softplus(Wz_ji)·h_i + bz_j] + b_k )`
///
/// The mixing weights pass through `softplus` so every coefficient is
/// positive — sums and products (via `exp`) of kernels with positive
/// coefficients are valid kernels, which keeps the composite positive
/// semi-definite by construction rather than by hope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeukSpec {
    /// Input dimensionality.
    pub input_dim: usize,
    /// Primitive kernels in the unit.
    pub primitives: Vec<PrimitiveKernel>,
    /// Rows of the mixing layer (`z` dimension).
    pub mix_dim: usize,
}

impl NeukSpec {
    /// The default unit used throughout the KATO experiments:
    /// RBF + RQ + Periodic primitives and a mixing layer as wide as the
    /// primitive count.
    #[must_use]
    pub(crate) fn standard(input_dim: usize) -> Self {
        NeukSpec {
            input_dim,
            primitives: vec![
                PrimitiveKernel::Rbf,
                PrimitiveKernel::RationalQuadratic,
                PrimitiveKernel::Periodic,
            ],
            mix_dim: 3,
        }
    }

    /// Total trainable parameter count.
    #[must_use]
    pub(crate) fn param_count(&self) -> usize {
        let proj = self.primitives.len() * (LATENT * self.input_dim + LATENT);
        let internal: usize = self
            .primitives
            .iter()
            .map(|p| p.internal_param_count())
            .sum();
        let mix = self.mix_dim * self.primitives.len() + self.mix_dim;
        proj + internal + mix + 1 // +1 output bias b_k
    }

    /// Reasonable random initialisation: projections near identity-scale,
    /// mixing weights small so the composite starts close to a plain
    /// product of primitives.
    pub(crate) fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.param_count());
        let scale = 1.0 / (self.input_dim as f64).sqrt();
        for prim in &self.primitives {
            for _ in 0..(LATENT * self.input_dim) {
                p.push(rng.gen_range(-1.0..1.0) * scale);
            }
            p.extend(std::iter::repeat_n(0.0, LATENT));
            p.extend(prim.default_internal_params());
        }
        for _ in 0..(self.mix_dim * self.primitives.len()) {
            // softplus(-1.0) ≈ 0.31: gentle initial mixing.
            p.push(-1.0 + rng.gen_range(-0.2..0.2));
        }
        p.extend(std::iter::repeat_n(0.0, self.mix_dim));
        p.push(0.0); // b_k → amplitude e^0 = 1 on standardized outputs
        p
    }

    /// Evaluates the Neuk covariance between `a` and `b` with the per-pair
    /// formula: the test oracle for [`KernelSpec::prepare`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if `params` has the wrong length.
    #[cfg(test)]
    pub(crate) fn eval<S: Scalar>(&self, params: &[S], a: &[S], b: &[S]) -> S {
        debug_assert_eq!(params.len(), self.param_count(), "Neuk param mismatch");
        let ctx = params[0];
        let mut offset = 0;
        let mut h = Vec::with_capacity(self.primitives.len());
        for prim in &self.primitives {
            let w = &params[offset..offset + LATENT * self.input_dim];
            offset += LATENT * self.input_dim;
            let bias = &params[offset..offset + LATENT];
            offset += LATENT;
            let n_int = prim.internal_param_count();
            let internal = &params[offset..offset + n_int];
            offset += n_int;

            let mut pa = Vec::with_capacity(LATENT);
            let mut pb = Vec::with_capacity(LATENT);
            for l in 0..LATENT {
                let mut sa = bias[l];
                let mut sb = bias[l];
                for i in 0..self.input_dim {
                    let wli = w[l * self.input_dim + i];
                    sa = sa + wli * a[i];
                    sb = sb + wli * b[i];
                }
                pa.push(sa);
                pb.push(sb);
            }
            h.push(prim.eval(internal, &pa, &pb));
        }

        // Mixing layer with positive (softplus) weights, then exp.
        let wz = &params[offset..offset + self.mix_dim * self.primitives.len()];
        offset += self.mix_dim * self.primitives.len();
        let bz = &params[offset..offset + self.mix_dim];
        offset += self.mix_dim;
        let b_k = params[offset];

        let mut total = b_k;
        for j in 0..self.mix_dim {
            let mut zj = bz[j];
            for (i, hi) in h.iter().enumerate() {
                let raw = wz[j * h.len() + i];
                // softplus(w) = ln(1 + e^w) ≥ 0 keeps the combination PSD.
                let pos = (raw.exp() + ctx.lift(1.0)).ln();
                zj = zj + pos * *hi;
            }
            total = total + zj;
        }
        total.exp()
    }
}

/// Covariance function used by [`crate::Gp`]: either a classic ARD-RBF
/// (paper §2.2) or a Neural Kernel unit (paper §3.1).
#[derive(Debug, Clone, PartialEq)]
pub enum KernelSpec {
    /// `θ₀·exp(−Σ (Δ_i/ℓ_i)²)` with trainable log-amplitude and per-dimension
    /// log-lengthscales.
    ArdRbf {
        /// Input dimensionality.
        dim: usize,
    },
    /// Neural Kernel unit.
    Neuk(NeukSpec),
}

impl KernelSpec {
    /// Convenience constructor for the ARD-RBF kernel.
    #[must_use]
    pub fn ard_rbf(dim: usize) -> Self {
        KernelSpec::ArdRbf { dim }
    }

    /// Convenience constructor for the standard Neuk unit.
    #[must_use]
    pub fn neuk(dim: usize) -> Self {
        KernelSpec::Neuk(NeukSpec::standard(dim))
    }

    /// Input dimensionality.
    #[must_use]
    pub(crate) fn input_dim(&self) -> usize {
        match self {
            KernelSpec::ArdRbf { dim } => *dim,
            KernelSpec::Neuk(spec) => spec.input_dim,
        }
    }

    /// Random initial parameters.
    pub(crate) fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        match self {
            // log-amplitude 0, log-lengthscales 0 (unit, on standardized x).
            KernelSpec::ArdRbf { dim } => {
                let mut p = vec![0.0];
                for _ in 0..*dim {
                    p.push(rng.gen_range(-0.3..0.3));
                }
                p
            }
            KernelSpec::Neuk(spec) => spec.init_params(rng),
        }
    }

    /// Evaluates `k(a, b)` with the per-pair formula: the test oracle for
    /// [`KernelSpec::prepare`].
    #[cfg(test)]
    pub(crate) fn eval<S: Scalar>(&self, params: &[S], a: &[S], b: &[S]) -> S {
        match self {
            KernelSpec::ArdRbf { dim } => {
                debug_assert_eq!(params.len(), dim + 1);
                let amp = params[0].exp();
                let mut s = params[0].lift(0.0);
                for i in 0..*dim {
                    let ls = params[1 + i].exp();
                    let d = (a[i] - b[i]) / ls;
                    s = s + d * d;
                }
                amp * (-s).exp()
            }
            KernelSpec::Neuk(spec) => spec.eval(params, a, b),
        }
    }

    /// Hoists everything that does not depend on the *pair* out of the
    /// pair loop and projects every point of `pts` once: ARD
    /// inverse-lengthscale scaling, Neuk linear projections, the
    /// softplus-combined mixing weights and the primitive shape
    /// exponentials. A covariance between two prepared points then costs
    /// only the primitive-kernel arithmetic.
    ///
    /// This is the production path for the plain-`f64` Gram, cross and
    /// prediction blocks (filled a row at a time, primitive-major, by the
    /// row kernel) and for hyperparameter training
    /// ([`PreparedKernel::gram_traced`], [`KernelSpec::gram_grad`]). With
    /// taped parameters (`kato_autodiff::Var`) it builds the training
    /// objective's test oracle: the tape then holds the hoisted quantities
    /// once, each point's projection once, and per pair only primitive
    /// arithmetic. Both instantiations run the same operations, so taped
    /// values equal the `f64` ones bitwise.
    /// Values agree with the per-pair test oracle to floating-point
    /// re-association error (≪ 1e-10), not bitwise.
    #[must_use]
    pub(crate) fn prepare<S: Scalar>(&self, params: &[S], pts: &[Vec<f64>]) -> PreparedKernel<S> {
        let hoisted = match self {
            KernelSpec::ArdRbf { dim } => {
                debug_assert_eq!(params.len(), dim + 1);
                Hoisted::Ard {
                    amp: params[0].exp(),
                    inv_ls: params[1..].iter().map(|&l| (-l).exp()).collect(),
                }
            }
            KernelSpec::Neuk(spec) => spec.hoist(params),
        };
        let feats = pts.iter().map(|x| hoisted.project(x)).collect();
        PreparedKernel { hoisted, feats }
    }

    /// Gradient with respect to `params` of `Σ_{i<j} seed(i, j)·K_ij +
    /// diag_seed·k(x, x)`, where `prep` is `self.prepare(params, pts)` and
    /// `gram` and `trace` come from its [`PreparedKernel::gram_traced`]:
    /// the B-matrix gradient of the GP training objective.
    ///
    /// The reverse sweep a tape runs over [`KernelSpec::prepare`] and the
    /// pairwise formula with taped parameters, written out in `f64`: the
    /// pairs, the diagonal and the projections
    /// ([`PreparedKernel::gram_vjp`]), then the hoisted constants last to
    /// first — the mixing sums and their softplus terms, the shape
    /// exponentials, ARD's `exp(−l)` and amplitude — down to the
    /// parameters. Every partial is the one the tape records and every
    /// adjoint sums its terms in the tape's order, so the gradient equals
    /// the taped one bit for bit.
    pub(crate) fn gram_grad(
        &self,
        params: &[f64],
        prep: &PreparedKernel,
        pts: &[Vec<f64>],
        gram: &Matrix,
        trace: &mut GramTrace,
        seed: impl Fn(usize, usize) -> f64,
        diag_seed: f64,
    ) -> Vec<f64> {
        let adj = prep.gram_vjp(pts, gram, trace, seed, diag_seed);
        let mut grad = vec![0.0; params.len()];
        match (self, &prep.hoisted, adj) {
            (
                KernelSpec::ArdRbf { .. },
                Hoisted::Ard { amp, inv_ls },
                Hoisted::Ard {
                    amp: amp_adj,
                    inv_ls: inv_ls_adj,
                },
            ) => {
                // inv_ls[i] = exp(−l_i), then amp = exp(l_0), last first.
                for ((g, &il), &a) in grad[1..].iter_mut().zip(inv_ls).zip(&inv_ls_adj).rev() {
                    if a != 0.0 && a * il != 0.0 {
                        *g += -(a * il);
                    }
                }
                if amp_adj != 0.0 {
                    grad[0] += amp_adj * amp;
                }
            }
            (KernelSpec::Neuk(spec), hoisted, adj) => {
                spec.hoist_vjp(params, hoisted, &adj, &mut grad);
            }
            (KernelSpec::ArdRbf { .. }, ..) => unreachable!("a prepared set of another kernel"),
        }
        grad
    }
}

impl NeukSpec {
    /// Pair-independent state of the unit at `params`: per-primitive
    /// projections and shape constants, combined mixing weights, offset.
    fn hoist<S: Scalar>(&self, params: &[S]) -> Hoisted<S> {
        debug_assert_eq!(params.len(), self.param_count(), "Neuk param mismatch");
        let d = self.input_dim;
        let n_prims = self.primitives.len();
        let mut proj_w = Vec::with_capacity(n_prims * LATENT * d);
        let mut proj_b = Vec::with_capacity(n_prims * LATENT);
        let mut prims = Vec::with_capacity(n_prims);
        let mut offset = 0;
        for &prim in &self.primitives {
            proj_w.extend_from_slice(&params[offset..offset + LATENT * d]);
            offset += LATENT * d;
            proj_b.extend_from_slice(&params[offset..offset + LATENT]);
            offset += LATENT;
            prims.push(match prim {
                PrimitiveKernel::Rbf => Shape::Rbf,
                PrimitiveKernel::RationalQuadratic => {
                    let alpha = params[offset].exp();
                    Shape::RationalQuadratic {
                        two_alpha: alpha * 2.0,
                        neg_alpha: -alpha,
                    }
                }
                PrimitiveKernel::Periodic => Shape::Periodic {
                    period: params[offset].exp(),
                },
            });
            offset += prim.internal_param_count();
        }
        let wz = &params[offset..offset + self.mix_dim * n_prims];
        offset += self.mix_dim * n_prims;
        let bz = &params[offset..offset + self.mix_dim];
        let b_k = params[offset + self.mix_dim];
        // Σ_j softplus(wz[j][i]): softplus(w) = ln(1 + e^w) ≥ 0 keeps the
        // combination PSD.
        let zero = b_k.lift(0.0);
        let coef = (0..n_prims)
            .map(|i| {
                (0..self.mix_dim).fold(zero, |c, j| c + (wz[j * n_prims + i].exp() + 1.0).ln())
            })
            .collect();
        Hoisted::Neuk {
            input_dim: d,
            proj_w,
            proj_b,
            prims,
            coef,
            bias: bz
                .iter()
                .copied()
                .reduce(|a, b| a + b)
                .map_or(b_k, |s| b_k + s),
        }
    }

    /// Reverse of [`NeukSpec::hoist`] into `grad`, given `hoisted`, its
    /// outputs at `params`, and their adjoints `adj`: the projection
    /// weights and biases are parameters, so theirs are copied; the
    /// offset's sum, the mixing sums (primitives and rows last to first)
    /// and the shape exponentials are swept back to their parameters.
    fn hoist_vjp(
        &self,
        params: &[f64],
        hoisted: &Hoisted<f64>,
        adj: &Hoisted<f64>,
        grad: &mut [f64],
    ) {
        let (
            Hoisted::Neuk { prims, .. },
            &Hoisted::Neuk {
                ref proj_w,
                ref proj_b,
                prims: ref prims_adj,
                ref coef,
                bias,
                ..
            },
        ) = (hoisted, adj)
        else {
            unreachable!("a prepared set of another kernel")
        };
        let d = self.input_dim;
        let n_prims = self.primitives.len();
        let mut offset = 0;
        let mut shape_at = Vec::with_capacity(n_prims);
        for (p, prim) in self.primitives.iter().enumerate() {
            grad[offset..offset + LATENT * d]
                .copy_from_slice(&proj_w[p * LATENT * d..][..LATENT * d]);
            offset += LATENT * d;
            grad[offset..offset + LATENT].copy_from_slice(&proj_b[p * LATENT..][..LATENT]);
            offset += LATENT;
            shape_at.push(offset);
            offset += prim.internal_param_count();
        }
        let wz = offset;
        let bz = wz + self.mix_dim * n_prims;
        let b_k = bz + self.mix_dim;
        // bias = b_k + ((bz₀ + bz₁) + …): every leaf collects its adjoint.
        if bias != 0.0 {
            grad[b_k] += bias;
            for g in grad[bz..b_k].iter_mut().rev() {
                *g += bias;
            }
        }
        // coef[i] = ((0 + softplus(wz₀ᵢ)) + softplus(wz₁ᵢ)) + …, with
        // softplus(w) = ln(e^w + 1).
        for (i, &c_adj) in coef.iter().enumerate().rev() {
            if c_adj == 0.0 {
                continue;
            }
            for j in (0..self.mix_dim).rev() {
                let w = wz + j * n_prims + i;
                let ew = params[w].exp();
                let sum_adj = c_adj * (1.0 / (ew + 1.0)) * 1.0;
                if sum_adj != 0.0 {
                    grad[w] += sum_adj * ew;
                }
            }
        }
        // RQ: two_alpha = α·2 then neg_alpha = −α; periodic: p = e^{log p}.
        for ((shape, shape_adj), &at) in prims.iter().zip(prims_adj).zip(&shape_at).rev() {
            let (value_adj, value) = match (*shape, *shape_adj) {
                (
                    Shape::RationalQuadratic { neg_alpha, .. },
                    Shape::RationalQuadratic {
                        two_alpha: two_adj,
                        neg_alpha: neg_adj,
                    },
                ) => {
                    let mut alpha_adj = 0.0;
                    if neg_adj != 0.0 {
                        alpha_adj += -neg_adj;
                    }
                    if two_adj != 0.0 {
                        alpha_adj += two_adj * 2.0;
                    }
                    (alpha_adj, -neg_alpha)
                }
                (Shape::Periodic { period }, Shape::Periodic { period: period_adj }) => {
                    (period_adj, period)
                }
                _ => continue,
            };
            if value_adj != 0.0 {
                grad[at] += value_adj * value;
            }
        }
    }
}

/// Per-point kernel features of a point set at fixed hyperparameters,
/// produced by [`KernelSpec::prepare`]: the ARD-scaled inputs or the Neuk
/// projections of every point, plus the pair-independent constants.
///
/// `S` is `f64` in production and a taped `kato_autodiff::Var` in the
/// training objective's test oracle.
#[derive(Debug, Clone)]
pub(crate) struct PreparedKernel<S = f64> {
    hoisted: Hoisted<S>,
    /// Per-point features: scaled inputs (ARD) or projections flattened
    /// `[primitive][latent]` (Neuk).
    feats: Vec<Vec<S>>,
}

/// The `f64` features of a prepared set in column layout: feature `c` of
/// point `i` at `data[c·n + i]`, so a row kernel streams one feature of
/// every point contiguously. Built by [`PreparedKernel::columns`].
#[derive(Debug, Clone)]
pub(crate) struct Columns {
    n: usize,
    data: Vec<f64>,
}

/// Scratch of one training objective, reused across iterations: the
/// per-pair intermediates [`PreparedKernel::gram_traced`] keeps and the
/// feature adjoints [`KernelSpec::gram_grad`] accumulates.
#[derive(Debug, Default)]
pub(crate) struct GramTrace {
    /// Each Gram row's [`PreparedKernel::cross_row_traced`]-layout rows.
    rows: Vec<f64>,
    /// Where each Gram row's block starts in `rows`.
    offsets: Vec<usize>,
    /// The shared diagonal `k(x, x)`.
    diag: f64,
    /// Adjoints of every point's features, point-major.
    feat_adj: Vec<f64>,
}

/// Pair-independent state of a kernel at fixed hyperparameters.
#[derive(Debug, Clone)]
enum Hoisted<S> {
    Ard {
        amp: S,
        inv_ls: Vec<S>,
    },
    Neuk {
        input_dim: usize,
        /// Projection weights, rows `[primitive][latent]` of `input_dim`.
        proj_w: Vec<S>,
        /// Projection biases, `[primitive][latent]`.
        proj_b: Vec<S>,
        prims: Vec<Shape<S>>,
        /// Per-primitive combined mixing weight `Σ_j softplus(wz[j][i])`.
        coef: Vec<S>,
        /// Pair-independent offset `b_k + Σ_j bz[j]`.
        bias: S,
    },
}

/// A primitive with its shape parameter folded into the constants its
/// pair formula needs.
#[derive(Debug, Clone, Copy)]
enum Shape<S> {
    Rbf,
    /// `(1 + r²/2α)^{−α}` as `exp(−α·ln(1 + r²/2α))`.
    RationalQuadratic {
        two_alpha: S,
        neg_alpha: S,
    },
    /// `exp(−2 Σ sin²(π Δ_i / p))`.
    Periodic {
        period: S,
    },
}

impl<S: Scalar> PreparedKernel<S> {
    /// Number of prepared points.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.feats.len()
    }

    /// Covariance between point `i` of `self` and point `j` of `other`.
    /// Both sets must come from the same [`KernelSpec::prepare`] kernel and
    /// hyperparameters. The pairwise formula: the taped training oracle
    /// evaluates its pairs with it, and the `f64` row kernel equals it
    /// bitwise.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub(crate) fn eval(&self, i: usize, other: &PreparedKernel<S>, j: usize) -> S {
        self.hoisted.pair(&self.feats[i], &other.feats[j])
    }
}

impl PreparedKernel {
    /// Symmetric Gram matrix of the prepared set (no noise). Entry
    /// `(i, j)`, `i ≤ j`, is `eval(i, self, j)` — first argument the
    /// earlier point, the orientation rank-k factor extensions rely on —
    /// filled by [`PreparedKernel::cross_row`]: row `i` over columns `≥ i`.
    pub(crate) fn gram(&self) -> Matrix {
        let n = self.len();
        let cols = self.columns();
        let mut k = Matrix::zeros(n, n);
        let mut buf = vec![0.0; n];
        for i in 0..n {
            let row = &mut buf[i..];
            self.cross_row(&cols, &self.feats[i], i, row);
            for (j, &v) in (i..n).zip(row.iter()) {
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }

    /// The features of every prepared point in column layout, the input
    /// of [`PreparedKernel::cross_row`].
    pub(crate) fn columns(&self) -> Columns {
        let n = self.len();
        let width = self.feats.first().map_or(0, Vec::len);
        let data = (0..width)
            .flat_map(|c| self.feats.iter().map(move |f| f[c]))
            .collect();
        Columns { n, data }
    }

    /// One cross-covariance row: `out[k] = eval` between query features
    /// `q` (from [`PreparedKernel::project`], or a prepared point's) and
    /// point `start + k` of this set, for every point from `start` on.
    /// `cols` is this set's [`PreparedKernel::columns`].
    ///
    /// The loops run primitive-major over all points — squared distances
    /// (or `Σ sin²`), the shape's transcendental, the `·c` accumulation,
    /// then one final `exp` — but every entry runs exactly the operations
    /// of the pairwise formula, in the same order and orientation
    /// (`query − point`, first-term-seeded sums, true division), so each
    /// equals `pair(q, x)` bitwise.
    pub(crate) fn cross_row(&self, cols: &Columns, q: &[f64], start: usize, out: &mut [f64]) {
        self.fill_cross_row(cols, q, start, out, &mut ());
    }

    /// [`PreparedKernel::cross_row`] over every point (`start = 0`), also
    /// appending to `trace` the per-pair intermediates that
    /// [`PreparedKernel::cross_row_vjp`] reads instead of recomputing
    /// them: ARD's `exp(−Σd²)` row; per Neuk primitive, its extra rows
    /// ([`Shape::trace_rows`]) and then its value row.
    pub(crate) fn cross_row_traced(
        &self,
        cols: &Columns,
        q: &[f64],
        out: &mut [f64],
        trace: &mut Vec<f64>,
    ) {
        self.fill_cross_row(cols, q, 0, out, trace);
    }

    /// The body of [`PreparedKernel::cross_row`], with an optional trace.
    fn fill_cross_row<T: RowTrace>(
        &self,
        cols: &Columns,
        q: &[f64],
        start: usize,
        out: &mut [f64],
        trace: &mut T,
    ) {
        debug_assert_eq!(cols.n, self.len());
        debug_assert_eq!(out.len(), cols.n - start);
        let col = |c: usize| &cols.data[c * cols.n + start..(c + 1) * cols.n];
        match &self.hoisted {
            Hoisted::Ard { amp, .. } => {
                sum_row(q, col, out, |d| d * d);
                out.iter_mut().for_each(|v| *v = (-*v).exp());
                trace.keep(out);
                out.iter_mut().for_each(|v| *v *= *amp);
            }
            Hoisted::Neuk {
                prims, coef, bias, ..
            } => {
                let mut h = vec![0.0; out.len()];
                for (p, (shape, &c)) in prims.iter().zip(coef).enumerate() {
                    let lo = p * LATENT;
                    shape.fill_row(&q[lo..lo + LATENT], |l| col(lo + l), &mut h, trace);
                    if p == 0 {
                        for (t, &hv) in out.iter_mut().zip(&h) {
                            *t = hv * c + *bias;
                        }
                    } else {
                        for (t, &hv) in out.iter_mut().zip(&h) {
                            *t += hv * c;
                        }
                    }
                }
                out.iter_mut().for_each(|t| *t = t.exp());
            }
        }
    }

    /// Reverse pass of [`PreparedKernel::cross_row_traced`]: adds
    /// `Σ_j row_adj[j]·∂k(q, x_j)/∂q` into `q_adj`, where `row` and
    /// `trace` are that call's outputs.
    ///
    /// It is the reverse sweep a tape runs over the pairwise formula with
    /// taped query features: source points last to first, each through
    /// the query-side pair pass ([`Hoisted::pair_vjp`] without the
    /// constants' adjoints). So `q_adj` ends bitwise equal to the tape's
    /// adjoints of the query features.
    pub(crate) fn cross_row_vjp(
        &self,
        q: &[f64],
        row: &[f64],
        trace: &[f64],
        row_adj: &[f64],
        q_adj: &mut [f64],
    ) {
        let n = self.len();
        debug_assert_eq!(row.len(), n);
        debug_assert_eq!(row_adj.len(), n);
        // The query pass never touches the constants' adjoints, so an
        // empty accumulator (no allocation) stands in for them.
        let mut unused = Hoisted::Ard {
            amp: 0.0,
            inv_ls: Vec::new(),
        };
        for (j, x) in self.feats.iter().enumerate().rev() {
            let pair = PairSlots {
                a: q,
                b: x,
                ia: 0,
                ib: 0,
            };
            let at = |r: usize| trace[r * n + j];
            self.hoisted
                .pair_vjp::<false>(&pair, at, row[j], row_adj[j], q_adj, &mut unused);
        }
    }

    /// Reverse pass of [`PreparedKernel::project`]: adds `q_adj·∂q/∂x`
    /// into `x_adj` in the tape's order (Neuk projection rows last to
    /// first).
    pub(crate) fn project_vjp(&self, q_adj: &[f64], x_adj: &mut [f64]) {
        match &self.hoisted {
            Hoisted::Ard { inv_ls, .. } => {
                for (xa, (&qa, &il)) in x_adj.iter_mut().zip(q_adj.iter().zip(inv_ls)) {
                    *xa += qa * il;
                }
            }
            Hoisted::Neuk {
                input_dim, proj_w, ..
            } => {
                for (w, &qa) in proj_w.chunks_exact(*input_dim).zip(q_adj).rev() {
                    if qa == 0.0 {
                        continue;
                    }
                    for (xa, &wi) in x_adj.iter_mut().zip(w) {
                        *xa += qa * wi;
                    }
                }
            }
        }
    }

    /// The Gram matrix of the prepared set (no noise) as
    /// [`PreparedKernel::gram`] fills it, keeping in `trace` the per-pair
    /// intermediates [`KernelSpec::gram_grad`] reads: row 0 over every
    /// point (its first entry is the shared diagonal `k(x₀, x₀)`), then
    /// each row `i ≥ 1` over the points after `i`. Every diagonal entry is
    /// that one shared value, as the kernels are stationary.
    pub(crate) fn gram_traced(&self, trace: &mut GramTrace) -> Matrix {
        let n = self.len();
        let cols = self.columns();
        let mut k = Matrix::zeros(n, n);
        let mut buf = vec![0.0; n];
        trace.rows.clear();
        trace.offsets.clear();
        // The last row has no point after it (unless it is row 0).
        for i in 0..n.saturating_sub(1).max(1) {
            let start = if i == 0 { 0 } else { i + 1 };
            let row = &mut buf[start..];
            trace.offsets.push(trace.rows.len());
            self.fill_cross_row(&cols, &self.feats[i], start, row, &mut trace.rows);
            for (j, &v) in (start..n).zip(row.iter()) {
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        trace.diag = k[(0, 0)];
        for i in 1..n {
            k[(i, i)] = trace.diag;
        }
        k
    }

    /// Reverse pass of [`PreparedKernel::gram_traced`] over the strict
    /// upper triangle seeded with `seed(i, j)` and the shared diagonal
    /// seeded with `diag_seed`: the adjoints of the hoisted constants, in a
    /// [`Hoisted`] of the same shape, with the Neuk projection weights and
    /// biases (which are parameters themselves) holding their gradients.
    ///
    /// It replays, partial for partial and sum for sum, the reverse sweep
    /// a tape runs over the pairwise formula recorded with taped
    /// parameters: pairs last to first (row-major), then the diagonal,
    /// whose differences have one feature as both operands, so that
    /// feature receives `+a` and then `−a`; then each point's projection,
    /// last to first. Like the tape it skips every node whose adjoint is
    /// zero. `pts` are the points the set was prepared from and `gram` is
    /// the traced Gram (the noise on its diagonal is not read).
    fn gram_vjp(
        &self,
        pts: &[Vec<f64>],
        gram: &Matrix,
        trace: &mut GramTrace,
        seed: impl Fn(usize, usize) -> f64,
        diag_seed: f64,
    ) -> Hoisted<f64> {
        let n = self.len();
        let width = self.feats.first().map_or(0, Vec::len);
        let mut adj = self.hoisted.zeroed();
        let feat_adj = &mut trace.feat_adj;
        feat_adj.clear();
        feat_adj.resize(n * width, 0.0);
        for i in (0..trace.offsets.len()).rev() {
            let start = if i == 0 { 0 } else { i + 1 };
            let len = n - start;
            let block = &trace.rows[trace.offsets[i]..];
            for j in (start..n).rev() {
                let (s, k) = if j == i {
                    (diag_seed, trace.diag)
                } else {
                    (seed(i, j), gram[(i, j)])
                };
                let at = |r: usize| block[r * len + j - start];
                let pair = PairSlots {
                    a: &self.feats[i],
                    b: &self.feats[j],
                    ia: i * width,
                    ib: j * width,
                };
                self.hoisted
                    .pair_vjp::<true>(&pair, at, k, s, feat_adj, &mut adj);
            }
        }
        for (x, g) in pts.iter().zip(feat_adj.chunks_exact(width.max(1))).rev() {
            self.hoisted.project_vjp_theta(x, g, &mut adj);
        }
        adj
    }

    /// Appends the points of `other`, prepared from the same kernel and
    /// hyperparameters: a point's features do not depend on the set it
    /// was prepared in.
    pub(crate) fn append(&mut self, other: PreparedKernel) {
        self.feats.extend(other.feats);
    }

    /// Features of prepared point `i`.
    pub(crate) fn features(&self, i: usize) -> &[f64] {
        &self.feats[i]
    }

    /// Features of an extra point under this set's frozen hyperparameters.
    /// Generic so the taped KAT-GP objective oracle's encoded point
    /// projects through the same `f64` constants.
    pub(crate) fn project<T>(&self, x: &[T]) -> Vec<T>
    where
        T: Scalar,
        f64: Mul<T, Output = T>,
    {
        self.hoisted.project(x)
    }

    /// Covariance between projected query features `q` (from
    /// [`PreparedKernel::project`]) and point `j` of this set — the pair
    /// the taped KAT-GP objective oracle records per source point.
    #[cfg(test)]
    pub(crate) fn eval_projected<T: Scalar>(&self, q: &[T], j: usize) -> T {
        self.hoisted.pair(q, &self.feats[j])
    }

    /// `k(x, x)`: every kernel here is stationary in its feature space,
    /// so the diagonal is one constant (the pair formula at zero offset).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub(crate) fn diagonal(&self) -> f64 {
        self.eval(0, self, 0)
    }
}

impl<C: Scalar> Hoisted<C> {
    /// Per-point features of `x`. `C` is the constants' type and `X` the
    /// input's; either may be taped.
    fn project<X: Copy, S>(&self, x: &[X]) -> Vec<S>
    where
        C: Mul<X, Output = S>,
        S: Scalar + Add<C, Output = S>,
    {
        match self {
            Hoisted::Ard { inv_ls, .. } => inv_ls.iter().zip(x).map(|(&il, &xi)| il * xi).collect(),
            Hoisted::Neuk {
                input_dim,
                proj_w,
                proj_b,
                ..
            } => proj_w
                .chunks_exact(*input_dim)
                .zip(proj_b)
                .map(|(w, &b)| {
                    let first = w[0] * x[0] + b;
                    w[1..]
                        .iter()
                        .zip(&x[1..])
                        .fold(first, |s, (&wi, &xi)| s + wi * xi)
                })
                .collect(),
        }
    }

    /// Covariance between feature vectors `a` and `b`: primitive
    /// arithmetic only.
    fn pair<S, B: Copy>(&self, a: &[S], b: &[B]) -> S
    where
        S: Scalar
            + Sub<B, Output = S>
            + Mul<C, Output = S>
            + Div<C, Output = S>
            + Add<C, Output = S>,
    {
        match self {
            Hoisted::Ard { amp, .. } => (-sq_dist(a, b)).exp() * *amp,
            Hoisted::Neuk {
                prims, coef, bias, ..
            } => {
                let mut terms = prims.iter().zip(coef).enumerate().map(|(p, (shape, &c))| {
                    let lo = p * LATENT;
                    shape.eval(&a[lo..lo + LATENT], &b[lo..lo + LATENT]) * c
                });
                let first = terms.next().expect("Neuk unit has a primitive") + *bias;
                terms.fold(first, |t, h| t + h).exp()
            }
        }
    }
}

/// The two feature vectors of one pair and where their adjoints sit in a
/// flat feature-adjoint buffer (the same place for a Gram diagonal). The
/// query pass writes only `a`'s.
struct PairSlots<'p> {
    a: &'p [f64],
    b: &'p [f64],
    ia: usize,
    ib: usize,
}

impl PairSlots<'_> {
    /// The slots of primitive `p`'s [`LATENT`] features.
    fn segment(&self, p: usize) -> PairSlots<'_> {
        let lo = p * LATENT;
        PairSlots {
            a: &self.a[lo..lo + LATENT],
            b: &self.b[lo..lo + LATENT],
            ia: self.ia + lo,
            ib: self.ib + lo,
        }
    }

    /// Reverse of [`sq_dist`] with adjoint `s` on the sum, coordinates
    /// last to first: each difference `d` collects `s·d` twice (both
    /// operands of `d·d`), then passes `+1` to `a` and, with `THETA`, `−1`
    /// to `b`.
    fn sq_dist_vjp<const THETA: bool>(&self, s: f64, feat_adj: &mut [f64]) {
        if s == 0.0 {
            return;
        }
        for (l, (&al, &bl)) in self.a.iter().zip(self.b).enumerate().rev() {
            self.diff_vjp::<THETA>(l, s * (al - bl) + s * (al - bl), feat_adj);
        }
    }

    /// Reverse of the difference `a_l − b_l` with adjoint `d_adj`; its
    /// partials are `±1`, so it needs no [`chain`].
    fn diff_vjp<const THETA: bool>(&self, l: usize, d_adj: f64, feat_adj: &mut [f64]) {
        feat_adj[self.ia + l] += d_adj;
        if THETA {
            feat_adj[self.ib + l] += -d_adj;
        }
    }
}

/// `adj·partial`, or `0` where the tape skips the node because its
/// adjoint `adj` is zero: the skip keeps a non-finite partial from making
/// a NaN. A select, not a branch, so the reverse passes stay straight-line
/// code. A finite constant partial needs none: a zero times it stays
/// zero, and adding a zero to an adjoint changes no bit (one that starts
/// at `+0` never becomes `−0`).
fn chain(adj: f64, partial: f64) -> f64 {
    if adj == 0.0 {
        0.0
    } else {
        adj * partial
    }
}

impl Hoisted<f64> {
    /// A zero of the same shape: the adjoint accumulator of
    /// [`PreparedKernel::gram_vjp`].
    fn zeroed(&self) -> Hoisted<f64> {
        match self {
            Hoisted::Ard { inv_ls, .. } => Hoisted::Ard {
                amp: 0.0,
                inv_ls: vec![0.0; inv_ls.len()],
            },
            Hoisted::Neuk {
                input_dim,
                proj_w,
                proj_b,
                prims,
                coef,
                ..
            } => Hoisted::Neuk {
                input_dim: *input_dim,
                proj_w: vec![0.0; proj_w.len()],
                proj_b: vec![0.0; proj_b.len()],
                prims: prims
                    .iter()
                    .map(|shape| match shape {
                        Shape::Rbf => Shape::Rbf,
                        Shape::RationalQuadratic { .. } => Shape::RationalQuadratic {
                            two_alpha: 0.0,
                            neg_alpha: 0.0,
                        },
                        Shape::Periodic { .. } => Shape::Periodic { period: 0.0 },
                    })
                    .collect(),
                coef: vec![0.0; coef.len()],
                bias: 0.0,
            },
        }
    }

    /// Reverse of [`Hoisted::pair`] for a pair of value `k` whose adjoint
    /// is `k_adj`; `at(r)` is row `r` of the pair's trace. With `THETA`
    /// (the Gram pass) it reaches both feature vectors and adds the
    /// hoisted constants' adjoints into `adj`, a [`Hoisted`] of the same
    /// shape; without it (the query pass) it reaches `a` only and never
    /// touches `adj`. Like the tape, it skips every node whose adjoint is
    /// zero.
    fn pair_vjp<const THETA: bool>(
        &self,
        pair: &PairSlots<'_>,
        at: impl Fn(usize) -> f64,
        k: f64,
        k_adj: f64,
        feat_adj: &mut [f64],
        adj: &mut Hoisted<f64>,
    ) {
        if k_adj == 0.0 {
            return;
        }
        match self {
            // k = exp(−Σd²)·amp.
            Hoisted::Ard { amp, .. } => {
                let e = at(0);
                if THETA {
                    let Hoisted::Ard { amp: amp_adj, .. } = adj else {
                        unreachable!("adjoint of another kernel family")
                    };
                    *amp_adj += k_adj * e;
                }
                pair.sq_dist_vjp::<THETA>(-chain(k_adj * amp, e), feat_adj);
            }
            // k = exp(((h₀·c₀ + bias) + h₁·c₁) + …): every sum passes
            // `k_adj·k` on to its terms.
            Hoisted::Neuk { prims, coef, .. } => {
                let sum_adj = k_adj * k;
                if sum_adj == 0.0 {
                    return;
                }
                // Each primitive's adjoints land in slots of their own, so
                // the primitives may run in any order.
                let mut unused = Shape::Rbf;
                let mut row = 0;
                for (p, shape) in prims.iter().enumerate() {
                    let rows = shape.trace_rows();
                    let shape_adj = if THETA {
                        let Hoisted::Neuk {
                            prims: prims_adj,
                            coef: coef_adj,
                            bias: bias_adj,
                            ..
                        } = &mut *adj
                        else {
                            unreachable!("adjoint of another kernel family")
                        };
                        if p == 0 {
                            *bias_adj += sum_adj;
                        }
                        coef_adj[p] += sum_adj * at(row + rows - 1);
                        &mut prims_adj[p]
                    } else {
                        &mut unused
                    };
                    shape.eval_vjp::<THETA>(
                        &pair.segment(p),
                        |r| at(row + r),
                        sum_adj * coef[p],
                        feat_adj,
                        shape_adj,
                    );
                    row += rows;
                }
            }
        }
    }

    /// Reverse of [`Hoisted::project`] at input `x` with respect to the
    /// hoisted constants, given the features' adjoints `g`: Neuk rows last
    /// to first, each collecting its weights' `g·x_i` (inputs last to
    /// first, the bias between `x₁` and `x₀`, as the tape's sweep meets
    /// them), or ARD's `g·x_i` on each inverse lengthscale.
    fn project_vjp_theta(&self, x: &[f64], g: &[f64], adj: &mut Hoisted<f64>) {
        match adj {
            Hoisted::Ard { inv_ls, .. } => {
                for ((il, &gi), &xi) in inv_ls.iter_mut().zip(g).zip(x).rev() {
                    if gi != 0.0 {
                        *il += gi * xi;
                    }
                }
            }
            Hoisted::Neuk {
                input_dim,
                proj_w,
                proj_b,
                ..
            } => {
                let rows = proj_w.chunks_exact_mut(*input_dim).zip(proj_b.iter_mut());
                for ((w, b), &gr) in rows.zip(g).rev() {
                    if gr == 0.0 {
                        continue;
                    }
                    for (wi, &xi) in w.iter_mut().zip(x).skip(1).rev() {
                        *wi += gr * xi;
                    }
                    *b += gr;
                    w[0] += gr * x[0];
                }
            }
        }
    }
}

impl Shape<f64> {
    /// Reverse of [`Shape::eval`] for a primitive whose adjoint is
    /// `h_adj`: the nodes of the pair formula last to first with the
    /// tape's partials, each skipped node's products zeroed by [`chain`].
    /// `at(r)` is row `r` of this primitive's trace (see
    /// [`Shape::trace_rows`]); its last row is the primitive's value.
    /// With `THETA` it reaches both feature segments and adds the
    /// constant's adjoint to the same field of `adj`; without it, the
    /// query segment `a` only, and `adj` is never touched.
    fn eval_vjp<const THETA: bool>(
        &self,
        pair: &PairSlots<'_>,
        at: impl Fn(usize) -> f64,
        h_adj: f64,
        feat_adj: &mut [f64],
        adj: &mut Shape<f64>,
    ) {
        if h_adj == 0.0 {
            return;
        }
        match *self {
            // h = exp(−r²).
            Shape::Rbf => pair.sq_dist_vjp::<THETA>(-(h_adj * at(0)), feat_adj),
            // h = exp(ln(r²/2α + 1)·(−α)).
            Shape::RationalQuadratic {
                two_alpha,
                neg_alpha,
            } => {
                let u_adj = h_adj * at(0);
                let r2 = sq_dist(pair.a, pair.b);
                let inner = r2 / two_alpha + 1.0;
                let quot_adj = chain(chain(u_adj, neg_alpha), 1.0 / inner) * 1.0;
                if THETA {
                    let Shape::RationalQuadratic {
                        two_alpha: two_alpha_adj,
                        neg_alpha: neg_alpha_adj,
                    } = adj
                    else {
                        unreachable!("adjoint of another primitive")
                    };
                    *neg_alpha_adj += chain(u_adj, inner.ln());
                    *two_alpha_adj += chain(quot_adj, -r2 / (two_alpha * two_alpha));
                }
                pair.sq_dist_vjp::<THETA>(chain(quot_adj, 1.0 / two_alpha), feat_adj);
            }
            // h = exp((Σ sin²(π·d_l/p))·−2).
            Shape::Periodic { period } => {
                let sum_adj = h_adj * at(2 * pair.a.len()) * -2.0;
                if sum_adj == 0.0 {
                    return;
                }
                for (l, (&al, &bl)) in pair.a.iter().zip(pair.b).enumerate().rev() {
                    let v = at(2 * l);
                    let arg_adj = chain(sum_adj * v + sum_adj * v, at(2 * l + 1));
                    if THETA {
                        let Shape::Periodic { period: period_adj } = adj else {
                            unreachable!("adjoint of another primitive")
                        };
                        let scaled = (al - bl) * std::f64::consts::PI;
                        *period_adj += chain(arg_adj, -scaled / (period * period));
                    }
                    let scaled_adj = chain(arg_adj, 1.0 / period);
                    pair.diff_vjp::<THETA>(l, scaled_adj * std::f64::consts::PI, feat_adj);
                }
            }
        }
    }
}

impl<C: Copy> Shape<C> {
    fn eval<S, B: Copy>(&self, a: &[S], b: &[B]) -> S
    where
        S: Scalar + Sub<B, Output = S> + Mul<C, Output = S> + Div<C, Output = S>,
    {
        match *self {
            Shape::Rbf => (-sq_dist(a, b)).exp(),
            Shape::RationalQuadratic {
                two_alpha,
                neg_alpha,
            } => ((sq_dist(a, b) / two_alpha + 1.0).ln() * neg_alpha).exp(),
            Shape::Periodic { period } => {
                let sin_sq = |(&ai, &bi): (&S, &B)| {
                    let v = ((ai - bi) * std::f64::consts::PI / period).sin();
                    v * v
                };
                (sum_first(a.iter().zip(b).map(sin_sq)) * -2.0).exp()
            }
        }
    }
}

impl Shape<f64> {
    /// `out[i]` = this primitive between query features `q` and point `i`
    /// of the columns `col(l)` (one per latent coordinate): the row form
    /// of [`Shape::eval`], with the same operations per entry.
    fn fill_row<'c>(
        &self,
        q: &[f64],
        col: impl Fn(usize) -> &'c [f64],
        out: &mut [f64],
        trace: &mut impl RowTrace,
    ) {
        let sq = |d: f64| d * d;
        match *self {
            Shape::Rbf => {
                sum_row(q, col, out, sq);
                out.iter_mut().for_each(|v| *v = (-*v).exp());
            }
            Shape::RationalQuadratic {
                two_alpha,
                neg_alpha,
            } => {
                sum_row(q, col, out, sq);
                out.iter_mut()
                    .for_each(|v| *v = ((*v / two_alpha + 1.0).ln() * neg_alpha).exp());
            }
            Shape::Periodic { period } => {
                let arg = |d: f64| d * std::f64::consts::PI / period;
                let n = out.len();
                if let Some(slots) = trace.extend_zeroed(2 * q.len() * n) {
                    // Per latent coordinate, a row of sin(arg) then one of
                    // cos(arg): the reverse pass needs both.
                    for (l, (&ql, block)) in q.iter().zip(slots.chunks_exact_mut(2 * n)).enumerate()
                    {
                        let (sines, cosines) = block.split_at_mut(n);
                        let cells = sines.iter_mut().zip(cosines.iter_mut());
                        for ((s, (sv, cv)), &x) in out.iter_mut().zip(cells).zip(col(l)) {
                            let a = arg(ql - x);
                            let v = a.sin();
                            (*sv, *cv) = (v, a.cos());
                            if l == 0 {
                                *s = v * v;
                            } else {
                                *s += v * v;
                            }
                        }
                    }
                } else {
                    sum_row(q, col, out, |d| {
                        let v = arg(d).sin();
                        v * v
                    });
                }
                out.iter_mut().for_each(|v| *v = (*v * -2.0).exp());
            }
        }
        trace.keep(out);
    }

    /// Rows of one point set this primitive appends to a
    /// [`PreparedKernel::cross_row_traced`] trace: its extras, then its
    /// values.
    fn trace_rows(&self) -> usize {
        match self {
            Shape::Rbf | Shape::RationalQuadratic { .. } => 1,
            Shape::Periodic { .. } => 2 * LATENT + 1,
        }
    }
}

/// Where the row kernel keeps the per-pair intermediates of a
/// [`PreparedKernel::cross_row_traced`] call; `()` keeps none, so the
/// untraced row kernel compiles to the plain loops.
trait RowTrace {
    /// Appends `len` slots and returns them, or `None` when not tracing.
    fn extend_zeroed(&mut self, len: usize) -> Option<&mut [f64]>;
    /// Appends a finished row.
    fn keep(&mut self, row: &[f64]);
}

impl RowTrace for () {
    fn extend_zeroed(&mut self, _: usize) -> Option<&mut [f64]> {
        None
    }
    fn keep(&mut self, _: &[f64]) {}
}

impl RowTrace for Vec<f64> {
    fn extend_zeroed(&mut self, len: usize) -> Option<&mut [f64]> {
        let base = self.len();
        self.resize(base + len, 0.0);
        Some(&mut self[base..])
    }
    fn keep(&mut self, row: &[f64]) {
        self.extend_from_slice(row);
    }
}

/// Row form of [`sum_first`] over coordinate differences:
/// `out[i] = Σ_l term(q_l − col(l)[i])`, seeded with the first term.
fn sum_row<'c>(
    q: &[f64],
    col: impl Fn(usize) -> &'c [f64],
    out: &mut [f64],
    term: impl Fn(f64) -> f64,
) {
    for (l, &ql) in q.iter().enumerate() {
        let terms = out.iter_mut().zip(col(l));
        if l == 0 {
            for (s, &x) in terms {
                *s = term(ql - x);
            }
        } else {
            for (s, &x) in terms {
                *s += term(ql - x);
            }
        }
    }
}

/// `Σ (a_i − b_i)²`.
fn sq_dist<S, B: Copy>(a: &[S], b: &[B]) -> S
where
    S: Scalar + Sub<B, Output = S>,
{
    debug_assert_eq!(a.len(), b.len());
    sum_first(a.iter().zip(b).map(|(&ai, &bi)| {
        let d = ai - bi;
        d * d
    }))
}

/// Sum of a non-empty sequence, seeded with its first term (no lifted
/// zero, so a taped sum records no extra constant).
fn sum_first<S: Add<Output = S>>(mut terms: impl Iterator<Item = S>) -> S {
    let first = terms.next().expect("non-empty sum");
    terms.fold(first, |s, t| s + t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_linalg::{CholeskyFactor, Matrix};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn gram(spec: &KernelSpec, params: &[f64], xs: &[Vec<f64>]) -> Matrix {
        Matrix::from_fn(xs.len(), xs.len(), |i, j| spec.eval(params, &xs[i], &xs[j]))
    }

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect()
    }

    #[test]
    fn primitives_are_one_at_zero_distance() {
        let a = [0.3, -0.7];
        for prim in [
            PrimitiveKernel::Rbf,
            PrimitiveKernel::RationalQuadratic,
            PrimitiveKernel::Periodic,
        ] {
            let internal = prim.default_internal_params();
            let v = prim.eval(&internal, &a, &a);
            assert!((v - 1.0).abs() < 1e-5, "{prim:?} k(x,x) = {v}");
        }
    }

    #[test]
    fn primitives_decay_with_distance() {
        let a = [0.0];
        for prim in [PrimitiveKernel::Rbf, PrimitiveKernel::RationalQuadratic] {
            let internal = prim.default_internal_params();
            let near = prim.eval(&internal, &a, &[0.1]);
            let far = prim.eval(&internal, &a, &[1.5]);
            assert!(near > far, "{prim:?}: {near} vs {far}");
        }
    }

    #[test]
    fn periodic_kernel_repeats() {
        let internal = PrimitiveKernel::Periodic.default_internal_params();
        let period = internal[0].exp();
        let k0 = PrimitiveKernel::Periodic.eval(&internal, &[0.0], &[0.3]);
        let k1 = PrimitiveKernel::Periodic.eval(&internal, &[0.0], &[0.3 + period]);
        assert!((k0 - k1).abs() < 1e-9);
    }

    #[test]
    fn ard_rbf_symmetry_and_amplitude() {
        let spec = KernelSpec::ard_rbf(3);
        let params = vec![0.5_f64, 0.1, -0.2, 0.3];
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, 1.5, 2.0];
        let kab = spec.eval(&params, &a, &b);
        let kba = spec.eval(&params, &b, &a);
        assert!((kab - kba).abs() < 1e-14);
        let kaa = spec.eval(&params, &a, &a);
        assert!((kaa - 0.5_f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn neuk_param_count_consistent() {
        let spec = NeukSpec::standard(5);
        let mut rng = SmallRng::seed_from_u64(1);
        let p = spec.init_params(&mut rng);
        assert_eq!(p.len(), spec.param_count());
        // 3 primitives × (2×5 W + 2 b) + 2 internal (RQ, PER) + mix 3×3+3 + 1
        assert_eq!(spec.param_count(), 3 * 12 + 2 + 12 + 1);
    }

    #[test]
    fn neuk_is_symmetric_and_positive() {
        let spec = NeukSpec::standard(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let p = spec.init_params(&mut rng);
        let a = [0.1, -0.5, 0.9];
        let b = [-0.3, 0.2, 0.4];
        let kab = spec.eval(&p, &a, &b);
        let kba = spec.eval(&p, &b, &a);
        assert!((kab - kba).abs() < 1e-12);
        assert!(kab > 0.0);
        let kaa = spec.eval(&p, &a, &a);
        assert!(kaa >= kab, "diagonal dominates: {kaa} vs {kab}");
    }

    #[test]
    fn neuk_gram_is_positive_definite() {
        // PSD-by-construction claim: Gram matrices over random points and
        // random parameters must factor with (at most jitter-level) help.
        let spec = KernelSpec::neuk(4);
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let params = spec.init_params(&mut rng);
            let xs = random_points(20, 4, seed + 100);
            let mut g = gram(&spec, &params, &xs);
            g.add_diagonal(1e-8);
            assert!(
                CholeskyFactor::new(&g).is_ok(),
                "Neuk gram not PD for seed {seed}"
            );
        }
    }

    #[test]
    fn ard_gram_is_positive_definite() {
        let spec = KernelSpec::ard_rbf(3);
        let mut rng = SmallRng::seed_from_u64(11);
        let params = spec.init_params(&mut rng);
        let xs = random_points(25, 3, 5);
        let mut g = gram(&spec, &params, &xs);
        g.add_diagonal(1e-8);
        assert!(CholeskyFactor::new(&g).is_ok());
    }

    #[test]
    fn neuk_taped_gradient_matches_finite_difference() {
        use kato_autodiff::{check_gradient, Tape};
        let spec = KernelSpec::neuk(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let params = spec.init_params(&mut rng);
        let a = [0.4, -0.1];
        let b = [-0.2, 0.7];

        let f = |p: &[f64]| spec.eval(p, &a, &b);
        let tape = Tape::new();
        let p_vars: Vec<_> = params.iter().map(|&v| tape.var(v)).collect();
        let a_vars: Vec<_> = a.iter().map(|&v| tape.constant(v)).collect();
        let b_vars: Vec<_> = b.iter().map(|&v| tape.constant(v)).collect();
        let k = spec.eval(&p_vars, &a_vars, &b_vars);
        let grads = tape.backward(k);
        let analytic = grads.wrt_slice(&p_vars);
        let check = check_gradient(f, &params, &analytic, 1e-6);
        assert!(check.passes(1e-4), "{check:?}");
    }

    #[test]
    fn prepared_matches_generic_eval() {
        // Every kernel family with every primitive: the hoisted f64 fast
        // path must agree with the generic evaluation to re-association
        // error.
        for (s, spec) in vjp_specs().iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(40 + s as u64);
            let params = spec.init_params(&mut rng);
            let xs = random_points(7, 3, 60 + s as u64);
            let qs = random_points(4, 3, 70 + s as u64);
            let px = spec.prepare(&params, &xs);
            let pq = spec.prepare(&params, &qs);
            assert_eq!(px.len(), 7);
            assert_eq!(pq.len(), 4);
            for (j, q) in qs.iter().enumerate() {
                for (i, x) in xs.iter().enumerate() {
                    let slow = spec.eval(&params, q, x);
                    let fast = pq.eval(j, &px, i);
                    assert!(
                        (slow - fast).abs() <= 1e-12 * (1.0 + slow.abs()),
                        "spec {s} pair ({j},{i}): {slow} vs {fast}"
                    );
                }
            }
        }
    }

    /// Taped Gram entries (upper triangle, row-major) over `xs` at
    /// `params`, seeded with `seeds`: values and parameter gradients, via
    /// the hoisted path (`hoisted = true`) or the generic per-pair oracle.
    fn taped_gram(
        spec: &KernelSpec,
        params: &[f64],
        xs: &[Vec<f64>],
        seeds: &[f64],
        hoisted: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        use kato_autodiff::Tape;
        let tape = Tape::new();
        let p_vars: Vec<_> = params.iter().map(|&v| tape.var(v)).collect();
        let n = xs.len();
        let mut entries = Vec::new();
        if hoisted {
            let prep = spec.prepare(&p_vars, xs);
            for i in 0..n {
                for j in i..n {
                    entries.push(prep.eval(i, &prep, j));
                }
            }
        } else {
            let x_vars: Vec<Vec<_>> = xs
                .iter()
                .map(|r| r.iter().map(|&v| tape.constant(v)).collect())
                .collect();
            for i in 0..n {
                for j in i..n {
                    entries.push(spec.eval(&p_vars, &x_vars[i], &x_vars[j]));
                }
            }
        }
        let seeded: Vec<_> = entries.iter().copied().zip(seeds.iter().copied()).collect();
        let grads = tape.backward_seeded(&seeded);
        (
            entries.iter().map(|e| e.value()).collect(),
            grads.wrt_slice(&p_vars),
        )
    }

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
    }

    proptest::proptest! {
        #[test]
        fn prop_hoisted_taped_gram_matches_generic_oracle(
            seed in 0u64..1_000_000,
            n in 2usize..7,
            coincident in 0usize..2,
        ) {
            // Every unit of `vjp_specs`: the hoisted taped Gram entries and
            // their B-matrix-style seeded gradients must match the generic
            // per-pair taped oracle.
            for spec in &vjp_specs() {
                let mut rng = SmallRng::seed_from_u64(seed);
                let params = spec.init_params(&mut rng);
                let mut xs = random_points(n, 3, seed ^ 0x5EED);
                if coincident == 1 {
                    // Coincident points exercise r = 0 off the diagonal.
                    xs[n - 1] = xs[0].clone();
                }
                let seeds: Vec<f64> = (0..n * (n + 1) / 2)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let (hv, hg) = taped_gram(spec, &params, &xs, &seeds, true);
                let (ov, og) = taped_gram(spec, &params, &xs, &seeds, false);
                for (h, o) in hv.iter().zip(&ov) {
                    proptest::prop_assert!(close(*h, *o, 1e-10), "{spec:?} entry {h} vs {o}");
                }
                for (h, o) in hg.iter().zip(&og) {
                    proptest::prop_assert!(h.is_finite(), "{spec:?} non-finite gradient");
                    proptest::prop_assert!(close(*h, *o, 1e-10), "{spec:?} grad {h} vs {o}");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_cross_row_equals_pairwise_bitwise(
            seed in 0u64..1_000_000,
            n in 1usize..9,
            coincident in 0usize..2,
        ) {
            // The row kernel is the only f64 pair path, so it must be the
            // pairwise formula exactly: every cross entry, and the Gram
            // assembled from rows over columns ≥ i, compared by bits. One
            // point, and a query coincident with a prepared point (zero
            // offset), are in range.
            for spec in &vjp_specs() {
                let mut rng = SmallRng::seed_from_u64(seed);
                let params = spec.init_params(&mut rng);
                let mut xs = random_points(n, 3, seed ^ 0xC0FFEE);
                let mut qs = random_points(4, 3, seed ^ 0xBEEF);
                if coincident == 1 {
                    xs[n - 1] = xs[0].clone();
                    qs[0] = xs[0].clone();
                }
                let px = spec.prepare(&params, &xs);
                let pq = spec.prepare(&params, &qs);
                let cols = px.columns();
                for start in [0, n / 2] {
                    for (j, q) in qs.iter().enumerate() {
                        let mut row = vec![f64::NAN; n - start];
                        px.cross_row(&cols, &px.project(q), start, &mut row);
                        for (k, v) in row.iter().enumerate() {
                            let pair = pq.eval(j, &px, start + k);
                            proptest::prop_assert_eq!(v.to_bits(), pair.to_bits(), "{:?}", spec);
                        }
                    }
                }
                let gram = px.gram();
                for i in 0..n {
                    for j in i..n {
                        let pair = px.eval(i, &px, j);
                        proptest::prop_assert_eq!(gram[(i, j)].to_bits(), pair.to_bits());
                        proptest::prop_assert_eq!(gram[(j, i)].to_bits(), pair.to_bits());
                    }
                }
            }
        }
    }

    /// ARD, the standard Neuk unit, the three primitives in reverse order
    /// at a mixing width of 2, and a PER-only unit at a mixing width of 1
    /// (the shape of `fig1_neuk`'s single-primitive units).
    fn vjp_specs() -> [KernelSpec; 4] {
        let unit = |primitives, mix_dim| {
            KernelSpec::Neuk(NeukSpec {
                input_dim: 3,
                primitives,
                mix_dim,
            })
        };
        [
            KernelSpec::ard_rbf(3),
            KernelSpec::neuk(3),
            unit(
                vec![
                    PrimitiveKernel::Periodic,
                    PrimitiveKernel::RationalQuadratic,
                    PrimitiveKernel::Rbf,
                ],
                2,
            ),
            unit(vec![PrimitiveKernel::Periodic], 1),
        ]
    }

    /// The gradient of `Σ_j row_adj[j]·k(x, x_j)` with respect to the
    /// query's features and then its input, from the hand reverse pass of
    /// the traced row and projection and from a tape recording the
    /// pairwise formula with a taped query. Checks on the way that the
    /// traced row equals the plain row bitwise.
    fn query_grads(
        spec: &KernelSpec,
        params: &[f64],
        xs: &[Vec<f64>],
        x: &[f64],
        row_adj: &[f64],
    ) -> (Vec<u64>, Vec<u64>) {
        use kato_autodiff::Tape;
        let n = xs.len();
        let px = spec.prepare(params, xs);
        let cols = px.columns();
        let q = px.project(x);
        let (mut row, mut plain) = (vec![0.0; n], vec![0.0; n]);
        let mut trace = Vec::new();
        px.cross_row_traced(&cols, &q, &mut row, &mut trace);
        px.cross_row(&cols, &q, 0, &mut plain);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&row), bits(&plain), "{spec:?}");
        let mut hand = vec![0.0; q.len()];
        px.cross_row_vjp(&q, &row, &trace, row_adj, &mut hand);
        let mut x_adj = vec![0.0; x.len()];
        px.project_vjp(&hand, &mut x_adj);
        hand.extend(x_adj);

        let tape = Tape::new();
        let x_vars: Vec<_> = x.iter().map(|&v| tape.var(v)).collect();
        let q_vars = px.project(&x_vars);
        let seeded: Vec<_> = (0..n)
            .map(|j| (px.eval_projected(&q_vars, j), row_adj[j]))
            .collect();
        let grads = tape.backward_seeded(&seeded);
        let taped: Vec<f64> = q_vars
            .iter()
            .chain(&x_vars)
            .map(|v| grads.wrt(*v))
            .collect();
        (bits(&hand), bits(&taped))
    }

    proptest::proptest! {
        #[test]
        fn prop_cross_row_vjp_matches_the_tape_bitwise(
            seed in 0u64..1_000_000,
            n in 1usize..9,
            coincident in 0usize..2,
        ) {
            // The traced row equals the plain row, and the hand reverse
            // pass of row and projection equals the tape's sweep over the
            // pairwise formula with a taped query, compared by bits. A zero
            // pair adjoint and a query on a prepared point are in range.
            for spec in &vjp_specs() {
                let mut rng = SmallRng::seed_from_u64(seed);
                let params = spec.init_params(&mut rng);
                let xs = random_points(n, 3, seed ^ 0xA11CE);
                let x = if coincident == 1 {
                    xs[0].clone()
                } else {
                    random_points(1, 3, seed ^ 0xB0B).remove(0)
                };
                let mut row_adj: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                row_adj[n / 2] = 0.0;
                let (hand, taped) = query_grads(spec, &params, &xs, &x, &row_adj);
                proptest::prop_assert_eq!(hand, taped, "{:?}", spec);
            }
        }
    }

    #[test]
    fn the_query_pass_skips_what_the_tape_skips() {
        // With α ≈ 5e-324 the RQ primitive is exactly 0 off its source
        // points and 1/(2α) is infinite. The tape skips the nodes behind
        // a zero value, whose adjoint is zero; forming their products
        // would carry `0·∞ = NaN` into the query's gradient.
        let spec = &vjp_specs()[2];
        let mut rng = SmallRng::seed_from_u64(25);
        let mut params = spec.init_params(&mut rng);
        // Periodic, then RQ: its log α follows its projection.
        params[(2 * 3 + 2) + 1 + (2 * 3 + 2)] = -745.0;
        let xs = random_points(4, 3, 26);
        let x = random_points(1, 3, 27).remove(0);
        let (hand, taped) = query_grads(spec, &params, &xs, &x, &[0.5, -0.3, 0.8, 0.1]);
        assert!(
            taped.iter().all(|&b| !f64::from_bits(b).is_nan()),
            "{taped:?}"
        );
        assert_eq!(hand, taped);
    }

    #[test]
    fn hoisted_taped_values_equal_f64_values_bitwise() {
        // Training records the same operations the f64 Gram runs, so its
        // taped values are the Gram entries exactly.
        use kato_autodiff::Tape;
        for spec in vjp_specs() {
            let mut rng = SmallRng::seed_from_u64(12);
            let params = spec.init_params(&mut rng);
            let xs = random_points(5, 3, 13);
            let tape = Tape::new();
            let p_vars: Vec<_> = params.iter().map(|&v| tape.var(v)).collect();
            let taped = spec.prepare(&p_vars, &xs);
            let plain = spec.prepare(&params, &xs);
            let gram = plain.gram();
            for i in 0..5 {
                for j in 0..5 {
                    assert_eq!(taped.eval(i.min(j), &taped, i.max(j)).value(), gram[(i, j)]);
                }
            }
            assert_eq!(plain.diagonal(), gram[(3, 3)]);
        }
    }

    /// Bits of a gradient, every NaN folded to one pattern: which NaN
    /// payload an operation returns is the hardware's choice.
    fn grad_bits(g: &[f64]) -> Vec<u64> {
        g.iter()
            .map(|v| {
                if v.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    /// The gradient of `Σ_{i<j} seeds[i·n + j]·K_ij + diag_seed·k(x, x)`
    /// from [`KernelSpec::gram_grad`] and from a tape recording the
    /// prepared kernel with taped parameters (the shared diagonal node,
    /// then the upper triangle row-major, as GP training records them).
    fn seeded_gram_grads(
        spec: &KernelSpec,
        params: &[f64],
        xs: &[Vec<f64>],
        seeds: &[f64],
        diag_seed: f64,
    ) -> (Vec<u64>, Vec<u64>) {
        use kato_autodiff::Tape;
        let n = xs.len();
        let prep = spec.prepare(params, xs);
        let mut trace = GramTrace::default();
        let gram = prep.gram_traced(&mut trace);
        let hand = spec.gram_grad(
            params,
            &prep,
            xs,
            &gram,
            &mut trace,
            |i, j| seeds[i * n + j],
            diag_seed,
        );

        let tape = Tape::new();
        let p_vars: Vec<_> = params.iter().map(|&v| tape.var(v)).collect();
        let taped = spec.prepare(&p_vars, xs);
        let mut seeded = vec![(taped.eval(0, &taped, 0), diag_seed)];
        for i in 0..n {
            for j in i + 1..n {
                seeded.push((taped.eval(i, &taped, j), seeds[i * n + j]));
            }
        }
        let oracle = tape.backward_seeded(&seeded).wrt_slice(&p_vars);
        (grad_bits(&hand), grad_bits(&oracle))
    }

    proptest::proptest! {
        #[test]
        fn prop_gram_gradient_equals_the_tape_bitwise(
            seed in 0u64..1_000_000,
            n in 1usize..8,
            coincident in 0usize..2,
            zeros in 0usize..2,
        ) {
            // Random parameters, points (a repeated point puts r = 0 off
            // the diagonal) and seeds, some of them exactly ±0.
            for spec in &vjp_specs() {
                let mut rng = SmallRng::seed_from_u64(seed);
                let params: Vec<f64> = spec
                    .init_params(&mut rng)
                    .iter()
                    .map(|p| p + rng.gen_range(-1.0..1.0))
                    .collect();
                let mut xs = random_points(n, 3, seed ^ 0xD1A6);
                if coincident == 1 {
                    xs[n - 1] = xs[0].clone();
                }
                let mut seeds: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                if zeros == 1 {
                    for (k, s) in seeds.iter_mut().enumerate().step_by(3) {
                        *s = if k % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                let (hand, taped) = seeded_gram_grads(spec, &params, &xs, &seeds, rng.gen_range(-1.0..1.0));
                proptest::prop_assert_eq!(hand, taped, "{:?}", spec);
            }
        }
    }

    #[test]
    fn zero_seeds_route_nothing_even_through_an_overflowed_gram() {
        // An output offset of 800 overflows every entry to +inf, so each
        // pair's first partial is infinite. Exact ±0 seeds leave the
        // tape's nodes at a zero adjoint, which its sweep skips: the
        // gradient is +0.0 throughout, where `0·∞` would make it NaN.
        let xs = random_points(5, 3, 21);
        let seeds: Vec<f64> = (0..25)
            .map(|k| if k % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        for spec in &vjp_specs() {
            let mut rng = SmallRng::seed_from_u64(22);
            let mut params = spec.init_params(&mut rng);
            match spec {
                KernelSpec::ArdRbf { .. } => params[0] = 800.0,
                KernelSpec::Neuk(_) => *params.last_mut().unwrap() = 800.0,
            }
            assert_eq!(spec.prepare(&params, &xs).gram()[(0, 1)], f64::INFINITY);
            let (hand, taped) = seeded_gram_grads(spec, &params, &xs, &seeds, 0.0);
            assert!(taped.iter().all(|&b| b == 0), "{spec:?}");
            assert_eq!(hand, taped, "{spec:?}");
        }
    }

    #[test]
    fn the_gram_pass_skips_what_the_tape_skips() {
        // The Gram analogue of `the_query_pass_skips_what_the_tape_skips`:
        // with α ≈ 5e-324 every off-diagonal RQ value is exactly 0 and
        // 1/(2α) is infinite, so only the tape's skips keep the seeded
        // pairs' gradient finite. The diagonal is not seeded.
        let spec = &vjp_specs()[2];
        let mut rng = SmallRng::seed_from_u64(28);
        let mut params = spec.init_params(&mut rng);
        params[(2 * 3 + 2) + 1 + (2 * 3 + 2)] = -745.0;
        let xs = random_points(4, 3, 29);
        let seeds: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (hand, taped) = seeded_gram_grads(spec, &params, &xs, &seeds, 0.0);
        assert!(
            taped.iter().all(|&b| !f64::from_bits(b).is_nan()),
            "{taped:?}"
        );
        assert_eq!(hand, taped);
    }

    #[test]
    fn the_diagonal_sends_both_differences_to_one_feature() {
        // With α ≈ 5e-324 the RQ primitive is 0 off the diagonal and 1 on
        // it, and 1/(2α) is infinite: a seeded diagonal drives its squared
        // distance's adjoint to ∞, so each zero difference `x − x` gets
        // `∞·0 = NaN`. The tape adds it to the one feature node behind
        // both operands (`+a`, then `−a`), which makes that point's RQ
        // projection gradients NaN; the off-diagonal seeds are zero.
        let spec = &vjp_specs()[2];
        let mut rng = SmallRng::seed_from_u64(23);
        let mut params = spec.init_params(&mut rng);
        // Periodic, then RQ: its log α follows its projection.
        let rq_alpha = (2 * 3 + 2) + 1 + (2 * 3 + 2);
        params[rq_alpha] = -745.0;
        let xs = random_points(4, 3, 24);
        let (hand, taped) = seeded_gram_grads(spec, &params, &xs, &[0.0; 16], 1e3);
        let nan = f64::NAN.to_bits();
        let rq_w = (2 * 3 + 2) + 1;
        assert!(
            taped[rq_w..rq_w + 6].iter().all(|&b| b == nan),
            "RQ weights"
        );
        assert!(taped[..rq_w].iter().all(|&b| b != nan), "others finite");
        assert_eq!(hand, taped);
    }
}
