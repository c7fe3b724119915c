#![warn(missing_docs)]

//! Tape-based reverse-mode automatic differentiation: the test oracle of
//! `kato_gp`.
//!
//! The KATO paper trains its Neural Kernel (Neuk) and the encoder/decoder of
//! KAT-GP by gradient ascent on Gaussian-process log-likelihoods (paper
//! Eq. 3 and Eq. 12). `kato_gp` computes those gradients with hand-written
//! reverse passes in `f64`; its tests record the same objectives on this
//! crate's tape, a classic Wengert list over `f64` scalars, and require the
//! hand-written gradients to equal the taped ones bit for bit. Production
//! code does not depend on this crate.
//!
//! Key pieces:
//!
//! * [`Tape`] — arena of operations; cleared and rebuilt every evaluation.
//! * [`Var`] — a copyable handle (value + node index) with full operator
//!   overloading and the transcendental functions the GP kernels need.
//! * [`Tape::backward_seeded`] — multi-output backward pass used by the GP
//!   "B-matrix" gradient trick, where each Gram-matrix entry gets its own
//!   adjoint seed `∂L/∂K_ij` and one sweep yields `∂L/∂θ` for every
//!   hyperparameter.
//! * [`check_gradient`] — central finite differences to check a gradient
//!   against.
//!
//! # Example
//!
//! ```
//! use kato_autodiff::Tape;
//!
//! let tape = Tape::new();
//! let x = tape.var(2.0);
//! let y = tape.var(3.0);
//! let z = (x * y + x.sin()).exp();
//! let grads = tape.backward(z);
//! // dz/dx = exp(xy + sin x) * (y + cos x)
//! let expect = (2.0_f64 * 3.0 + 2.0_f64.sin()).exp() * (3.0 + 2.0_f64.cos());
//! assert!((grads.wrt(x) - expect).abs() < 1e-9);
//! ```

mod check;
mod tape;

pub use check::{check_gradient, GradientCheck};
pub use tape::{Grads, Tape, Var};
