#![deny(missing_docs)]

//! Benchmark analog circuits and sizing problems for KATO.
//!
//! The KATO paper (DAC 2024) evaluates on three circuits, each implemented
//! here on top of the [`kato-mna`](kato_mna) simulator:
//!
//! * [`TwoStageOpAmp`] — Miller-compensated two-stage OTA
//!   (paper Eq. 15: minimise `I_total` s.t. PM > 60°, GBW > 4 MHz,
//!   Gain > 60 dB at 180 nm).
//! * [`ThreeStageOpAmp`] — nested-Miller three-stage OTA
//!   (paper Eq. 16: minimise `I_total` s.t. PM > 60°, GBW > 2 MHz,
//!   Gain > 80 dB at 180 nm).
//! * [`Bandgap`] — ΔVBE/R bandgap reference with a behavioural error
//!   amplifier, solved by full nonlinear Newton DC over a temperature sweep
//!   (paper Eq. 17: minimise TC s.t. `I_total` < 6 µA, PSRR > 50 dB).
//!
//! Circuits are parameterised by a [`TechNode`] (180 nm and 40 nm cards are
//! provided), so the same topology can be instantiated on either node — the
//! substrate for the paper's cross-technology transfer experiments.
//!
//! Every circuit implements [`SizingProblem`]: design vectors live in the
//! unit cube `[0,1]^d` and are mapped to physical values (log-scaled where
//! appropriate) internally. Evaluation never panics and never fails: a
//! design that breaks the simulator (e.g. no DC convergence) is reported
//! with strongly penalised metrics, exactly how a SPICE failure is treated
//! in production sizing loops.
//!
//! # Example
//!
//! ```
//! use kato_circuits::{SizingProblem, TechNode, TwoStageOpAmp};
//!
//! let problem = TwoStageOpAmp::new(TechNode::n180());
//! let x = vec![0.5; problem.dim()];
//! let metrics = problem.evaluate(&x);
//! // Metric order: [i_total, gain_db, pm_deg, gbw_hz]
//! assert!(metrics.get(problem.metric_index("gain_db").unwrap()) > 0.0);
//! ```

mod bandgap;
mod corner;
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

pub use bandgap::Bandgap;
pub use corner::{Corner, Process};
pub use folded_cascode::FoldedCascodeOpAmp;
pub use fom::FomSpec;
pub use ldo::Ldo;
pub use mismatch::{MismatchDeltas, MismatchStream, Pelgrom};
pub use opamp2::TwoStageOpAmp;
pub use opamp3::ThreeStageOpAmp;
pub use problem::{
    fold_worst, larger_is_worse, random_design, Goal, Metrics, OverriddenProblem, SizingProblem,
    Spec, SpecKind, VarSpec,
};
pub use registry::{Scenario, ScenarioError, ScenarioRegistry, YieldPreset};
pub use switch::Switch;
pub use tech::{Backend, TechNode};
pub use telescopic::TelescopicOpAmp;
pub use varactor::Varactor;
pub use yield_problem::{YieldProblem, YieldSettings};
