//! Monte-Carlo yield estimation: the mismatch-sample part of a
//! [`CornerSweep`](crate::CornerSweep), with a deterministic early-abort contract.
//!
//! A yield sweep ([`Scenario::build_yield`](crate::Scenario::build_yield))
//! folds one design's metrics across the corner sweep like the worst case
//! does, additionally sweeps Pelgrom mismatch samples (see
//! [`crate::mismatch`]) and reports the fraction of samples that meet the
//! circuit's spec table at **every** corner — the sign-off yield. One
//! candidate therefore costs up to `corners × samples` simulations, which
//! is exactly the workload that justifies streaming populations through
//! the evaluation pool with early abort instead of a synchronous
//! all-or-nothing batch barrier.
//!
//! # The estimator and the abort contract
//!
//! Samples are scanned in a fixed order: sample `0` is the nominal
//! (unperturbed) draw, samples `1..N-1` attach [`MismatchStream`] draws
//! keyed on `(seed, candidate, sample index)`. The recorded yield is a
//! **censored** prefix estimator:
//!
//! 1. If the nominal sample violates the base spec table (worst case
//!    across corners), the candidate is infeasible regardless of the
//!    remaining samples; scanning stops counting and the recorded yield is
//!    `passes/N` at that point (= 0).
//! 2. Otherwise samples accumulate pass/fail until either the scan
//!    completes or so many samples have failed that `yield ≥ threshold`
//!    is impossible; from that point the recorded yield is frozen at
//!    `passes/N`.
//!
//! Crucially, the censoring rule is part of the *estimator definition*,
//! not of the scheduler: with early abort enabled the remaining samples
//! are simply not simulated, with it disabled they are simulated and
//! discarded — the recorded metric vector, feasibility classification and
//! therefore the entire seeded optimizer trajectory are **bitwise
//! identical** either way (`tests/integration_pipeline.rs` pins this for
//! every registered scenario). Early abort is purely a wall-clock
//! optimisation, and its win grows with the infeasible fraction of the
//! population.
//!
//! Within a sample (for sample ≥ 1), corners are evaluated in sweep order
//! and may short-circuit at the first spec kill: only the sample's
//! pass/fail *bit* is recorded, and that bit is already determined. The
//! nominal sample always runs every corner, because its worst-case fold is
//! recorded as the problem's base metrics.

use crate::corner::Corner;
use crate::corners::finite_and_feasible;
use crate::mismatch::MismatchStream;
use crate::problem::{SizingProblem, Spec};
use crate::registry::{Scenario, ScenarioError};
use crate::tech::TechNode;

/// Configuration of a yield [`CornerSweep`](crate::CornerSweep) build.
#[derive(Debug, Clone)]
pub struct YieldSettings {
    /// Total Monte-Carlo samples per candidate, `≥ 1` (sample 0 is the
    /// nominal draw).
    pub samples: usize,
    /// Pass-rate bound of the appended `yield ≥ threshold` constraint,
    /// in `(0, 1]`.
    pub threshold: f64,
    /// Mismatch seed — pass the run seed so yield estimates share the
    /// run's seeded-reproducibility envelope.
    pub seed: u64,
    /// Whether candidates stop consuming samples once their fate is
    /// sealed. Never changes recorded results (see the module docs);
    /// disable only to measure the scheduling win.
    pub early_abort: bool,
    /// Restrict the sweep to these corners instead of the scenario's
    /// registered sweep (e.g. a TT-only yield estimate).
    pub corners: Option<Vec<Corner>>,
}

impl Default for YieldSettings {
    fn default() -> Self {
        YieldSettings {
            samples: 16,
            threshold: 0.7,
            seed: 0,
            early_abort: true,
            corners: None,
        }
    }
}

impl YieldSettings {
    /// Rejects an out-of-range sample count or threshold.
    pub(crate) fn validate(&self, scenario: &Scenario) -> Result<(), ScenarioError> {
        let reason = if self.samples < 1 {
            "sample count must be at least 1".to_string()
        } else if !(self.threshold > 0.0 && self.threshold <= 1.0) {
            format!("threshold {} outside (0, 1]", self.threshold)
        } else {
            return Ok(());
        };
        Err(ScenarioError::BadYield {
            scenario: scenario.name.to_string(),
            reason,
        })
    }
}

/// The Monte-Carlo part of a yield [`CornerSweep`](crate::CornerSweep):
/// validated settings, and the corner cards the mismatch samples rebuild
/// the circuit on through `build`.
pub(crate) struct MonteCarlo {
    pub(crate) settings: YieldSettings,
    pub(crate) cards: Vec<TechNode>,
    pub(crate) build: fn(TechNode) -> Box<dyn SizingProblem>,
}

impl MonteCarlo {
    /// Minimum number of passing samples for `passes/samples ≥ threshold`.
    /// The `1e-9` nudge keeps binary floating-point round-up (e.g.
    /// `0.7 × 10 → 7.000000000000001`) from demanding one pass too many.
    fn passes_needed(&self) -> usize {
        (self.settings.threshold * self.settings.samples as f64 - 1e-9)
            .ceil()
            .max(1.0) as usize
    }

    /// The censored yield of candidate `x`, whose nominal sample (the
    /// worst-case fold over the corners) met `specs` iff `base_ok`.
    pub(crate) fn estimate(&self, x: &[f64], base_ok: bool, specs: &[Spec]) -> f64 {
        // `settled` means the candidate's feasibility can no longer
        // change: nominal failure is terminal, and so is exceeding the
        // failure allowance.
        let max_fail = self.settings.samples - self.passes_needed();
        let mut passes = usize::from(base_ok);
        let mut fails = usize::from(!base_ok);
        for k in 1..self.settings.samples {
            let settled = !base_ok || fails > max_fail;
            if settled {
                if self.settings.early_abort {
                    break;
                }
                // Full-sample mode: simulate for wall-clock parity, but the
                // estimator has already stopped counting.
                let _ = self.sample_passes(x, k as u64, false, specs);
                continue;
            }
            if self.sample_passes(x, k as u64, self.settings.early_abort, specs) {
                passes += 1;
            } else {
                fails += 1;
            }
        }
        passes as f64 / self.settings.samples as f64
    }

    /// Whether mismatch sample `sample ≥ 1` of candidate `x` meets `specs`
    /// at every corner. With `short_circuit` the corner loop stops at the
    /// first kill — the returned bit is identical either way.
    fn sample_passes(&self, x: &[f64], sample: u64, short_circuit: bool, specs: &[Spec]) -> bool {
        let stream = MismatchStream::for_candidate(self.settings.seed, x, sample);
        let mut all_ok = true;
        for card in &self.cards {
            let problem = (self.build)(card.clone().with_mismatch(stream));
            if !finite_and_feasible(&problem.evaluate(x), specs) {
                all_ok = false;
                if short_circuit {
                    break;
                }
            }
        }
        all_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corners::CornerSweep;
    use crate::registry::ScenarioRegistry;

    fn mc(y: &CornerSweep) -> &MonteCarlo {
        y.monte_carlo.as_ref().unwrap()
    }

    fn settings(samples: usize, threshold: f64) -> YieldSettings {
        YieldSettings {
            samples,
            threshold,
            seed: 11,
            ..YieldSettings::default()
        }
    }

    #[test]
    fn shape_appends_yield_metric_and_spec_row() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        let y = s.build_yield("180nm", None, settings(4, 0.5)).unwrap();
        let base = s.build_default();
        assert_eq!(y.dim(), base.dim());
        assert_eq!(y.metric_names().len(), base.metric_names().len() + 1);
        assert_eq!(y.metric_names().last(), Some(&"yield"));
        assert_eq!(y.specs().len(), base.specs().len() + 1);
        assert_eq!(y.metric_index("yield").unwrap(), base.metric_names().len());
        assert!(y.name().contains("yield4"), "{}", y.name());
        assert!(y.streaming_hint());
    }

    #[test]
    fn expert_yield_at_tt_meets_nominal_baseline() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        let tt = YieldSettings {
            corners: Some(vec![Corner::tt()]),
            ..settings(8, 0.5)
        };
        let y = s.build_yield("180nm", None, tt).unwrap();
        let x = y.expert_design();
        let m = y.evaluate(&x);
        let yv = m.get(y.metric_index("yield").unwrap());
        // The expert design is TT-feasible, so the nominal draw passes and
        // the censored yield is at least 1/N.
        assert!(yv >= 1.0 / 8.0, "{yv}");
        assert!((0.0..=1.0).contains(&yv));
    }

    #[test]
    fn early_abort_records_identical_metrics() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        let fast = s.build_yield("180nm", None, settings(6, 0.9)).unwrap();
        let slow = s
            .build_yield(
                "180nm",
                None,
                YieldSettings {
                    early_abort: false,
                    ..settings(6, 0.9)
                },
            )
            .unwrap();
        // A mix of (mostly infeasible) random-ish designs and the expert.
        let mut xs: Vec<Vec<f64>> = (0..5)
            .map(|i| {
                (0..fast.dim())
                    .map(|j| ((i * 17 + j * 7) % 10) as f64 / 10.0)
                    .collect()
            })
            .collect();
        xs.push(fast.expert_design());
        for x in &xs {
            assert_eq!(fast.evaluate(x), slow.evaluate(x));
        }
    }

    #[test]
    fn censoring_freezes_the_estimate_once_settled() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("switch").unwrap();
        // threshold 1.0: one failed sample seals the fate.
        let y = s.build_yield("180nm", None, settings(8, 1.0)).unwrap();
        assert_eq!(mc(&y).passes_needed(), 8);
        let x = vec![0.02; y.dim()]; // tiny device: should fail somewhere
        let m = y.evaluate(&x);
        let yv = m.get(y.metric_index("yield").unwrap());
        assert!((0.0..=1.0).contains(&yv));
        // Infeasible designs keep a well-defined (censored) yield metric.
        assert!(m.values().iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn passes_needed_resists_fp_round_up() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        let y = s.build_yield("180nm", None, settings(10, 0.7)).unwrap();
        assert_eq!(mc(&y).passes_needed(), 7);
        let y = s.build_yield("180nm", None, settings(16, 0.75)).unwrap();
        assert_eq!(mc(&y).passes_needed(), 12);
        let y = s.build_yield("180nm", None, settings(3, 1.0)).unwrap();
        assert_eq!(mc(&y).passes_needed(), 3);
    }

    #[test]
    fn bad_settings_are_rejected() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        assert!(matches!(
            s.build_yield("180nm", None, settings(0, 0.5)),
            Err(ScenarioError::BadYield { .. })
        ));
        assert!(matches!(
            s.build_yield("180nm", None, settings(4, 0.0)),
            Err(ScenarioError::BadYield { .. })
        ));
        assert!(matches!(
            s.build_yield("180nm", None, settings(4, 1.5)),
            Err(ScenarioError::BadYield { .. })
        ));
        assert!(matches!(
            s.build_yield("7nm", None, settings(4, 0.5)),
            Err(ScenarioError::UnknownTech { .. })
        ));
        let empty = YieldSettings {
            corners: Some(Vec::new()),
            ..settings(4, 0.5)
        };
        assert!(matches!(
            s.build_yield("180nm", None, empty),
            Err(ScenarioError::BadCorner { .. })
        ));
    }

    #[test]
    fn registry_build_yield_uses_preset_plumbing() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("varactor").unwrap();
        let preset = s.yield_preset;
        let y = s
            .build_yield(
                "180nm",
                None,
                YieldSettings {
                    samples: preset.samples,
                    threshold: preset.threshold,
                    seed: 3,
                    ..YieldSettings::default()
                },
            )
            .unwrap();
        assert_eq!(mc(&y).settings.samples, preset.samples);
        assert_eq!(mc(&y).settings.threshold, preset.threshold);
    }
}
