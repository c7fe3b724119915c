#![deny(missing_docs)]

//! Benchmark analog circuits and sizing problems for KATO.
//!
//! The KATO paper (DAC 2024) evaluates on three circuits, each implemented
//! here on top of the [`kato-mna`](kato_mna) simulator:
//!
//! * [`opamp2()`] — Miller-compensated two-stage OTA
//!   (after paper Eq. 15: minimise `I_total` s.t. PM > 60°, GBW > 40 MHz,
//!   Gain > 60 dB at 180 nm; Eq. 15 states GBW > 4 MHz).
//! * [`opamp3()`] — nested-Miller three-stage OTA
//!   (after paper Eq. 16: minimise `I_total` s.t. PM > 60°, GBW > 20 MHz,
//!   Gain > 80 dB at 180 nm; Eq. 16 states GBW > 2 MHz).
//! * [`bandgap()`] — ΔVBE/R bandgap reference with a behavioural error
//!   amplifier, solved by full nonlinear Newton DC over a temperature sweep
//!   (paper Eq. 17: minimise TC s.t. `I_total` < 6 µA, PSRR > 50 dB).
//!
//! Five more extend the family: `folded_cascode`, `telescopic`, `ldo`,
//! `switch` and `varactor`, built by name through [`ScenarioRegistry`].
//!
//! Circuits are parameterised by a [`TechNode`] (180 nm and 40 nm cards are
//! provided), so the same topology can be instantiated on either node — the
//! substrate for the paper's cross-technology transfer experiments.
//!
//! Each circuit is a constructor `fn(TechNode) -> Testbench`, and
//! [`Testbench`] is the one [`SizingProblem`] they share: design vectors
//! live in the unit cube `[0,1]^d` and are mapped to physical values
//! (log-scaled where appropriate) before the circuit's simulation runs.
//! Evaluation never panics and never fails: a design that breaks the
//! simulator (e.g. no DC convergence) is reported with strongly penalised
//! metrics, exactly how a SPICE failure is treated in production sizing
//! loops.
//!
//! # Example
//!
//! ```
//! use kato_circuits::{opamp2, SizingProblem, TechNode};
//!
//! let problem = opamp2(TechNode::n180());
//! let x = vec![0.5; problem.dim()];
//! let metrics = problem.evaluate(&x);
//! // Metric order: [i_total, gain_db, pm_deg, gbw_hz]
//! assert!(metrics.get(problem.metric_index("gain_db").unwrap()) > 0.0);
//! ```

mod bandgap;
mod corner;
mod corners;
mod folded_cascode;
mod fom;
mod ldo;
mod mismatch;
mod opamp2;
mod opamp3;
mod problem;
mod registry;
mod switch;
mod tech;
mod telescopic;
mod varactor;
mod yield_problem;

pub use bandgap::{bandgap, bandgap_debug_dc};
pub use corner::Corner;
pub use corners::{CornerEval, CornerSweep};
pub use fom::FomSpec;
pub use mismatch::{MismatchDeltas, MismatchStream, Pelgrom};
pub use opamp2::opamp2;
pub use opamp3::opamp3;
pub use problem::{
    larger_is_worse, random_design, Goal, Metrics, OverriddenProblem, SizingProblem, Spec,
    SpecKind, Testbench, VarSpec,
};
pub use registry::{Scenario, ScenarioError, ScenarioRegistry};
pub use tech::{Backend, TechNode};
pub use yield_problem::YieldSettings;
