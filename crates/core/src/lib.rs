#![deny(missing_docs)]

//! KATO — Knowledge Alignment and Transfer Optimization for transistor
//! sizing (DAC 2024 reproduction).
//!
//! This crate assembles the paper's algorithm from the workspace substrates:
//!
//! * **Acquisition functions** (paper §2.3, Eq. 5–7): EI, PI, UCB and the
//!   probability of feasibility PF.
//! * **Modified constrained MACE** (paper §3.3, Eq. 13): [`MaceProposer`]
//!   searches the Pareto front of `{UCB, PI, EI}·PF` with NSGA-II — three
//!   objectives instead of MACE's six.
//! * **KATO with Selective Transfer Learning** (paper §3.4, Algorithm 1):
//!   [`Kato`] runs a target-only Neuk-GP and (optionally) a KAT-GP
//!   transferred from a source circuit, splits each batch between their
//!   proposal sets according to bandit weights, and updates the weights by
//!   the number of improvements each model produced (Eq. 14).
//! * **Baselines** for every figure of the paper: random search, full
//!   six-objective MACE, SMAC-RF, MESMOC, USEMOC and TLMBO, the variants
//!   of one value type, [`baselines::Baseline`].
//!
//! # Quickstart
//!
//! ```no_run
//! use kato::{BoSettings, Kato, Mode};
//! use kato_circuits::{opamp2, SizingProblem, TechNode};
//!
//! let problem = opamp2(TechNode::n180());
//! let settings = BoSettings::quick(40, 7);
//! let history = Kato::new(settings).run(&problem, Mode::Constrained);
//! if let Some(best) = history.best() {
//!     println!("best I_total: {:.1} µA", best.metrics.get(0));
//! }
//! ```

mod acquisition;
pub mod baselines;
mod batch;
mod history;
mod kato_opt;
mod mace;
mod model;
mod settings;
mod stl;

pub use batch::evaluate_batch_sharded;
pub use history::{EvalRecord, RunHistory};
// Column `metric` of `SourceData::from_history` reads nothing of its spec
// table but `larger_is_worse(specs, metric)`, which picks the pessimistic
// fill for non-finite entries: two spec tables that agree there give
// bitwise the same column, so the knowledge bank keys its source GPs on it.
pub use kato_circuits::larger_is_worse;
pub use kato_opt::{Kato, SourceData};
pub use mace::{MaceProposer, MaceVariant};
pub use model::{fit_source_gps, metric_columns, MetricModels, ModelConfig};
pub use settings::{BoSettings, Mode};
pub use stl::StlWeights;
