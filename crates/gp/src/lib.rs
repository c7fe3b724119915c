#![deny(missing_docs)]

//! Gaussian processes with Neural Kernels and Knowledge-Alignment-and-
//! Transfer (KAT) — the modelling core of KATO (DAC 2024).
//!
//! Three pieces map directly onto the paper:
//!
//! * **Neural Kernel (Neuk)**, paper §3.1 (Eq. 8–10): primitive kernels
//!   (RBF / Rational-Quadratic / Periodic / Matérn-5/2) evaluated on learned
//!   linear projections of the inputs, combined through a positivity-
//!   constrained linear layer and `exp(·)` so the composite stays a valid
//!   covariance. See [`NeukSpec`].
//! * **Exact MLE training** (Eq. 3): [`Gp::fit`] maximises the marginal
//!   likelihood with Adam. Gradients are exact — each Gram entry `K_ij` is
//!   seeded with its adjoint `∂L/∂K_ij = ½(ααᵀ − K⁻¹)_ij`, so a single
//!   reverse pass yields the gradient for every hyperparameter ("B-matrix
//!   trick"). Both passes run in `f64` over a prepared form of the
//!   kernel: per-iteration constants and per-point projections are
//!   computed once, the pair loop is primitive arithmetic whose
//!   intermediates the forward pass keeps. The reverse pass is written by
//!   hand and replays the sweep an autodiff tape would run, partial for
//!   partial and in its order, so the gradient equals the taped one bit
//!   for bit. The tape (`kato_autodiff`) is a dev-dependency: it backs
//!   the tests only.
//! * **KAT-GP**, paper §3.2 (Eq. 11–12): a frozen source GP wrapped in a
//!   trainable encoder (target design space → source design space) and
//!   decoder (source output → target output), with Delta-method moment
//!   propagation. See [`KatGp`].
//!
//! Each surrogate family has one update path, [`Gp::update`] and
//! [`KatGp::update`]: per BO iteration the archive only grows by a batch,
//! so the update appends the new rows (for a GP through the held Cholesky
//! factor, rank-k [`kato_linalg::CholeskyFactor::extend`]) and warm-starts
//! hyperparameter optimisation from the previous optimum instead of
//! rebuilding from scratch. Identical data is a no-op; any other change of
//! the data, or a GP append that cannot factorise, falls back to a full
//! refit. Training and conditioning take their starting values and data as
//! arguments and return new state; an update commits it by assignment, so
//! on `Err` the model is as it was.
//!
//! # Example — fit and predict
//!
//! ```
//! use kato_gp::{Gp, GpConfig, KernelSpec};
//!
//! # fn main() -> Result<(), kato_gp::GpError> {
//! let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
//! let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast())?;
//! let (mean, var) = gp.predict_batch(&[vec![0.5]])[0];
//! assert!((mean - (3.0_f64).sin()).abs() < 0.2);
//! assert!(var >= 0.0);
//! # Ok(())
//! # }
//! ```

mod error;
mod gp;
mod katgp;
mod kernels;
mod mlp;
mod optim;
mod scalar;
mod scaler;
#[cfg(test)]
mod training_pin;

pub use error::GpError;
pub use gp::{Gp, GpBatch, GpConfig};
pub use katgp::{KatBatch, KatConfig, KatGp};
pub use kernels::{KernelSpec, NeukSpec, PrimitiveKernel};
