//! Monte-Carlo yield estimation as a [`SizingProblem`]: pass-rate over
//! mismatch samples × PVT corners, with a deterministic early-abort
//! contract.
//!
//! [`YieldProblem`] is the local-mismatch sibling of the worst-case corner
//! wrapper in `kato` (core): where that wrapper folds one design's metrics
//! across the corner sweep, this one additionally sweeps Pelgrom mismatch
//! samples (see [`crate::mismatch`]) and reports the fraction of samples
//! that meet the circuit's spec table at **every** corner — the sign-off
//! yield. One candidate therefore costs up to `corners × samples`
//! simulations, which is exactly the workload that justifies streaming
//! populations through the evaluation pool with early abort instead of a
//! synchronous all-or-nothing batch barrier.
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
use crate::mismatch::MismatchStream;
use crate::problem::{fold_worst, Metrics, SizingProblem, Spec, SpecKind, VarSpec};
use crate::registry::{Scenario, ScenarioError};
use crate::tech::{Backend, TechNode};

/// Configuration of a [`YieldProblem`] build.
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

/// A [`SizingProblem`] that scores each design by its mismatch yield on
/// top of the worst-case corner fold. See the module docs for the
/// estimator and the early-abort contract.
///
/// Metric vector: the wrapped circuit's metrics, worst-case folded across
/// corners **of the nominal sample**, with one extra `"yield"` metric
/// appended. Spec table: the circuit's own objective and constraint rows
/// (on the folded nominal metrics) plus `yield ≥ threshold` — so a
/// feasible design is nominal-robust *and* yields across mismatch, and
/// `Kato::run` optimises the combination directly.
pub struct YieldProblem {
    name: String,
    cards: Vec<TechNode>,
    nominal: Vec<Box<dyn SizingProblem>>,
    build: fn(TechNode) -> Box<dyn SizingProblem>,
    samples: usize,
    threshold: f64,
    seed: u64,
    early_abort: bool,
    metric_names: Vec<&'static str>,
    specs: Vec<Spec>,
}

impl YieldProblem {
    /// Builds the wrapper on a named tech node over `settings.corners`
    /// (the scenario's registered sweep when `None`), with an explicit
    /// device backend (`None` = the scenario's default).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownTech`] for an unregistered tech node,
    /// [`ScenarioError::BadCorner`] for an empty corner set and
    /// [`ScenarioError::BadYield`] for an out-of-range sample count or
    /// threshold.
    pub fn new(
        scenario: &Scenario,
        tech: &str,
        backend: Option<Backend>,
        settings: YieldSettings,
    ) -> Result<Self, ScenarioError> {
        if settings.samples < 1 {
            return Err(ScenarioError::BadYield {
                scenario: scenario.name.to_string(),
                reason: "sample count must be at least 1".to_string(),
            });
        }
        if !(settings.threshold > 0.0 && settings.threshold <= 1.0) {
            return Err(ScenarioError::BadYield {
                scenario: scenario.name.to_string(),
                reason: format!("threshold {} outside (0, 1]", settings.threshold),
            });
        }
        let corners = settings.corners.unwrap_or_else(|| scenario.corners.clone());
        if corners.is_empty() {
            return Err(ScenarioError::BadCorner {
                scenario: scenario.name.to_string(),
                reason: "yield sweep has no corners".to_string(),
            });
        }
        let base = scenario.card(tech, backend)?;
        let build = scenario.builder();
        let cards: Vec<TechNode> = corners.iter().map(|c| base.at_corner(c)).collect();
        let nominal: Vec<Box<dyn SizingProblem>> =
            cards.iter().map(|card| build(card.clone())).collect();

        let mut metric_names: Vec<&'static str> = nominal[0].metric_names().to_vec();
        debug_assert!(!metric_names.contains(&"yield"));
        metric_names.push("yield");
        let mut specs = nominal[0].specs().to_vec();
        specs.push(Spec {
            metric: metric_names.len() - 1,
            kind: SpecKind::GreaterEq(settings.threshold),
        });
        Ok(YieldProblem {
            name: format!("{}_yield{}", nominal[0].name(), settings.samples),
            cards,
            nominal,
            build,
            samples: settings.samples,
            threshold: settings.threshold,
            seed: settings.seed,
            early_abort: settings.early_abort,
            metric_names,
            specs,
        })
    }

    /// Monte-Carlo samples drawn per candidate.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The pass-rate bound of the yield constraint row.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Index of the appended `"yield"` metric.
    #[must_use]
    pub fn yield_metric(&self) -> usize {
        self.metric_names.len() - 1
    }

    /// The wrapped circuit's spec rows (everything except the yield row).
    fn inner_specs(&self) -> &[Spec] {
        &self.specs[..self.specs.len() - 1]
    }

    /// Minimum number of passing samples for `passes/samples ≥ threshold`.
    /// The `1e-9` nudge keeps binary floating-point round-up (e.g.
    /// `0.7 × 10 → 7.000000000000001`) from demanding one pass too many.
    fn passes_needed(&self) -> usize {
        (self.threshold * self.samples as f64 - 1e-9)
            .ceil()
            .max(1.0) as usize
    }

    fn finite_and_feasible(&self, m: &Metrics) -> bool {
        m.values().iter().all(|v| v.is_finite()) && m.feasible(self.inner_specs())
    }

    /// Whether mismatch sample `sample ≥ 1` of candidate `x` passes spec at
    /// every corner. With `short_circuit` the corner loop stops at the
    /// first kill — the returned bit is identical either way.
    fn mismatch_sample_passes(&self, x: &[f64], sample: u64, short_circuit: bool) -> bool {
        let stream = MismatchStream::for_candidate(self.seed, x, sample);
        let mut all_ok = true;
        for card in &self.cards {
            let problem = (self.build)(card.clone().with_mismatch(stream));
            let m = problem.evaluate(x);
            if !self.finite_and_feasible(&m) {
                all_ok = false;
                if short_circuit {
                    break;
                }
            }
        }
        all_ok
    }
}

impl SizingProblem for YieldProblem {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn variables(&self) -> &[VarSpec] {
        self.nominal[0].variables()
    }

    fn metric_names(&self) -> &[&'static str] {
        &self.metric_names
    }

    fn specs(&self) -> &[Spec] {
        &self.specs
    }

    fn evaluate(&self, x: &[f64]) -> Metrics {
        // Nominal sample: every corner, worst-case fold → base metrics.
        let per_corner: Vec<Metrics> = self.nominal.iter().map(|p| p.evaluate(x)).collect();
        let n = self.nominal[0].metric_names().len();
        let mut values = fold_worst(self.inner_specs(), n, &per_corner);
        let base_ok = {
            let folded = Metrics::new(values.clone());
            self.finite_and_feasible(&folded)
        };

        // Censored yield scan (see module docs). `settled` means the
        // candidate's feasibility can no longer change: nominal failure is
        // terminal, and so is exceeding the failure allowance.
        let max_fail = self.samples - self.passes_needed();
        let mut passes = usize::from(base_ok);
        let mut fails = usize::from(!base_ok);
        for k in 1..self.samples {
            let settled = !base_ok || fails > max_fail;
            if settled {
                if self.early_abort {
                    break;
                }
                // Full-sample mode: simulate for wall-clock parity, but the
                // estimator has already stopped counting.
                let _ = self.mismatch_sample_passes(x, k as u64, false);
                continue;
            }
            if self.mismatch_sample_passes(x, k as u64, self.early_abort) {
                passes += 1;
            } else {
                fails += 1;
            }
        }
        values.push(passes as f64 / self.samples as f64);
        Metrics::new(values)
    }

    fn expert_design(&self) -> Vec<f64> {
        self.nominal[0].expert_design()
    }

    fn streaming_hint(&self) -> bool {
        // Per-candidate cost varies by an order of magnitude between a
        // first-sample kill and a full corners×samples sweep: stream
        // candidates through the pool instead of pre-sharding.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;

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
        let y = YieldProblem::new(s, "180nm", None, settings(4, 0.5)).unwrap();
        let base = s.build_default();
        assert_eq!(y.dim(), base.dim());
        assert_eq!(y.metric_names().len(), base.metric_names().len() + 1);
        assert_eq!(y.metric_names().last(), Some(&"yield"));
        assert_eq!(y.specs().len(), base.specs().len() + 1);
        assert_eq!(y.yield_metric(), base.metric_names().len());
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
        let y = YieldProblem::new(s, "180nm", None, tt).unwrap();
        let x = y.expert_design();
        let m = y.evaluate(&x);
        let yv = m.get(y.yield_metric());
        // The expert design is TT-feasible, so the nominal draw passes and
        // the censored yield is at least 1/N.
        assert!(yv >= 1.0 / 8.0, "{yv}");
        assert!((0.0..=1.0).contains(&yv));
    }

    #[test]
    fn early_abort_records_identical_metrics() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        let fast = YieldProblem::new(s, "180nm", None, settings(6, 0.9)).unwrap();
        let slow = YieldProblem::new(
            s,
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
        let y = YieldProblem::new(s, "180nm", None, settings(8, 1.0)).unwrap();
        assert_eq!(y.passes_needed(), 8);
        let x = vec![0.02; y.dim()]; // tiny device: should fail somewhere
        let m = y.evaluate(&x);
        let yv = m.get(y.yield_metric());
        assert!((0.0..=1.0).contains(&yv));
        // Infeasible designs keep a well-defined (censored) yield metric.
        assert!(m.values().iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn passes_needed_resists_fp_round_up() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        let y = YieldProblem::new(s, "180nm", None, settings(10, 0.7)).unwrap();
        assert_eq!(y.passes_needed(), 7);
        let y = YieldProblem::new(s, "180nm", None, settings(16, 0.75)).unwrap();
        assert_eq!(y.passes_needed(), 12);
        let y = YieldProblem::new(s, "180nm", None, settings(3, 1.0)).unwrap();
        assert_eq!(y.passes_needed(), 3);
    }

    #[test]
    fn bad_settings_are_rejected() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        assert!(matches!(
            YieldProblem::new(s, "180nm", None, settings(0, 0.5)),
            Err(ScenarioError::BadYield { .. })
        ));
        assert!(matches!(
            YieldProblem::new(s, "180nm", None, settings(4, 0.0)),
            Err(ScenarioError::BadYield { .. })
        ));
        assert!(matches!(
            YieldProblem::new(s, "180nm", None, settings(4, 1.5)),
            Err(ScenarioError::BadYield { .. })
        ));
        assert!(matches!(
            YieldProblem::new(s, "7nm", None, settings(4, 0.5)),
            Err(ScenarioError::UnknownTech { .. })
        ));
        let empty = YieldSettings {
            corners: Some(Vec::new()),
            ..settings(4, 0.5)
        };
        assert!(matches!(
            YieldProblem::new(s, "180nm", None, empty),
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
        assert_eq!(y.samples(), preset.samples);
        assert_eq!(y.threshold(), preset.threshold);
    }
}
