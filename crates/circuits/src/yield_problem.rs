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
//! 2. Otherwise samples accumulate pass/fail until the `yield ≥
//!    threshold` row is settled either way, at the latest by the last
//!    sample:
//!    - *fail side:* so many samples have failed that the threshold is
//!      out of reach; the recorded yield is frozen at `passes/N`;
//!    - *pass side:* `passes` reaches the number the threshold needs; the
//!      recorded yield is the prefix rate `passes/scanned`, where
//!      `scanned` counts the samples counted so far, the nominal one
//!      included. A candidate that passed every counted sample records
//!      exactly `1.0`, as a full scan that passes every sample does, and
//!      since `need/scanned ≥ need/N` the row holds exactly when it holds
//!      for the full scan.
//!
//! Crucially, the censoring rule is part of the *estimator definition*,
//! not of the scheduler: with early abort enabled the remaining samples
//! are simply not simulated, with it disabled they are simulated and
//! discarded — the recorded metric vector, feasibility classification and
//! therefore the entire seeded optimizer trajectory are **bitwise
//! identical** either way (`tests/integration_pipeline.rs` pins this for
//! every registered scenario). Early abort is purely a wall-clock
//! optimisation: it skips every sample after the one that settles the
//! candidate, all of them after a nominal failure and the last `N − need`
//! of a candidate that passes every one.
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
    /// sealed: the nominal sample failed, too many samples failed, or
    /// enough passed. Never changes recorded results (see the module
    /// docs); disable only to measure the scheduling win.
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
        let samples = self.settings.samples;
        let need = self.passes_needed();
        let max_fail = samples - need;
        let mut passes = usize::from(base_ok);
        let mut fails = usize::from(!base_ok);
        for k in 1..samples {
            // `settled` means the candidate's feasibility can no longer
            // change: nominal failure is terminal, and so are exceeding the
            // failure allowance and reaching the passes needed.
            let settled = !base_ok || fails > max_fail || passes >= need;
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
        if passes >= need {
            passes as f64 / (passes + fails) as f64
        } else {
            passes as f64 / samples as f64
        }
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
    use crate::problem::{Metrics, SpecKind, VarSpec};
    use crate::registry::ScenarioRegistry;
    use std::cell::{Cell, RefCell};

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
        let y = s
            .build_yield(
                "180nm",
                None,
                YieldSettings {
                    samples: 16,
                    threshold: s.yield_threshold,
                    seed: 3,
                    ..YieldSettings::default()
                },
            )
            .unwrap();
        assert_eq!(mc(&y).settings.samples, 16);
        assert_eq!(mc(&y).settings.threshold, s.yield_threshold);
    }

    /// Mismatch seed of the scripted scans.
    const SCRIPT_SEED: u64 = 5;
    /// Largest sample count the scripted scans sweep.
    const SCRIPT_MAX_SAMPLES: usize = 8;

    thread_local! {
        /// Sample indices the scripted circuit simulated, in order.
        static SIMULATED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        /// Circuit evaluations of the counted `ldo`.
        static LDO_EVALS: Cell<usize> = const { Cell::new(0) };
    }

    /// A circuit whose design vector is its pass/fail script: mismatch
    /// sample `k` passes iff bit `k` of `x[0]` is set. It finds its sample
    /// index by matching the card's mismatch stream.
    struct Scripted(Option<MismatchStream>);

    impl SizingProblem for Scripted {
        fn name(&self) -> String {
            "scripted".to_string()
        }
        fn variables(&self) -> &[VarSpec] {
            &[]
        }
        fn metric_names(&self) -> &[&'static str] {
            &["pass"]
        }
        fn specs(&self) -> &[Spec] {
            &[]
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            let k = (1..SCRIPT_MAX_SAMPLES as u64)
                .find(|&k| Some(MismatchStream::for_candidate(SCRIPT_SEED, x, k)) == self.0)
                .expect("a mismatch sample of the script");
            SIMULATED.with(|s| s.borrow_mut().push(k));
            let pass = (x[0] as u64 >> k) & 1 == 1;
            Metrics::new(vec![f64::from(u8::from(pass))])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![0.0]
        }
    }

    /// Where a full scan of `script` settles, and the yield recorded
    /// there: the nominal failure, the failure that puts `need` passes
    /// out of reach (`passes/N`), or the `need`-th pass
    /// (`passes/scanned`).
    fn settle(script: u64, samples: usize, need: usize) -> (usize, f64) {
        let mut passes = 0;
        for k in 0..samples {
            if (script >> k) & 1 == 1 {
                passes += 1;
                if passes == need {
                    return (k, passes as f64 / (k + 1) as f64);
                }
            } else if k == 0 || k + 1 - passes > samples - need {
                return (k, passes as f64 / samples as f64);
            }
        }
        unreachable!("a complete scan settles")
    }

    #[test]
    fn scripted_scans_stop_at_the_settling_sample() {
        let specs = [Spec {
            metric: 0,
            kind: SpecKind::GreaterEq(0.5),
        }];
        let card = TechNode::by_name("180nm").unwrap();
        for samples in 1..=SCRIPT_MAX_SAMPLES {
            for threshold in [0.1, 0.25, 0.5, 0.6, 0.7, 0.75, 0.9, 1.0] {
                let mc = |early_abort| MonteCarlo {
                    settings: YieldSettings {
                        samples,
                        threshold,
                        seed: SCRIPT_SEED,
                        early_abort,
                        corners: None,
                    },
                    cards: vec![card.clone()],
                    build: |card| Box::new(Scripted(card.mismatch)),
                };
                let (on, off) = (mc(true), mc(false));
                let need = on.passes_needed();
                for script in 0..1u64 << samples {
                    let x = [script as f64];
                    let scan = |mc: &MonteCarlo| {
                        SIMULATED.with(|s| s.borrow_mut().clear());
                        let y = mc.estimate(&x, script & 1 == 1, &specs);
                        (y, SIMULATED.with(RefCell::take))
                    };
                    let (y_on, simulated_on) = scan(&on);
                    let (y_off, simulated_off) = scan(&off);
                    let case = format!("N={samples} threshold={threshold} script={script:b}");
                    let (stop, y) = settle(script, samples, need);
                    assert_eq!(
                        simulated_on,
                        (1..=stop as u64).collect::<Vec<_>>(),
                        "{case}"
                    );
                    assert_eq!(
                        simulated_off,
                        (1..samples as u64).collect::<Vec<_>>(),
                        "{case}"
                    );
                    assert_eq!(y_on.to_bits(), y.to_bits(), "{case}");
                    assert_eq!(y_on.to_bits(), y_off.to_bits(), "{case}");
                    // A full scan, where a nominal failure is terminal.
                    let full = script.count_ones() as f64 / samples as f64;
                    let feasible = script & 1 == 1 && full >= threshold;
                    assert_eq!(y_on >= threshold, feasible, "{case}");
                }
            }
        }
    }

    /// An `ldo` that counts its circuit evaluations on this thread.
    struct CountedLdo(Box<dyn SizingProblem>);

    impl SizingProblem for CountedLdo {
        fn name(&self) -> String {
            self.0.name()
        }
        fn variables(&self) -> &[VarSpec] {
            self.0.variables()
        }
        fn metric_names(&self) -> &[&'static str] {
            self.0.metric_names()
        }
        fn specs(&self) -> &[Spec] {
            self.0.specs()
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            LDO_EVALS.with(|n| n.set(n.get() + 1));
            self.0.evaluate(x)
        }
        fn expert_design(&self) -> Vec<f64> {
            self.0.expert_design()
        }
    }

    #[test]
    fn ldo_expert_stops_at_its_45th_pass() {
        let reg = ScenarioRegistry::standard();
        let ldo = reg.get("ldo").unwrap();
        let counted = Scenario::new(
            ldo.name,
            ldo.summary,
            ldo.tech_names,
            ldo.default_tech,
            ldo.corners.clone(),
            |node| Box::new(CountedLdo(Box::new(crate::ldo::ldo(node)))),
        )
        .with_default_backend(ldo.default_backend);
        assert_eq!(counted.corners.len(), 5);
        let y = counted
            .build_yield("180nm", None, settings(64, 0.7))
            .unwrap();
        assert_eq!(mc(&y).passes_needed(), 45);
        LDO_EVALS.with(|n| n.set(0));
        let m = y.evaluate(&y.expert_design());
        // The nominal sample and mismatch samples 1..=44, five corners each.
        assert_eq!(LDO_EVALS.with(Cell::get), 5 * 45);
        assert_eq!(m.get(y.metric_index("yield").unwrap()), 1.0);
    }
}
