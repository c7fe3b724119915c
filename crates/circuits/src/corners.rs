//! The corner sweep: one design evaluated at every PVT corner of a
//! scenario.
//!
//! Silicon must meet spec at every process/temperature corner, not just at
//! the nominal point the optimizer sees. [`CornerSweep`] holds one problem
//! instance per corner and is the one place the rest of the stack gets a
//! corner sweep from:
//!
//! * **Worst case** ([`Scenario::build_worst`], `kato run <scenario>
//!   --corner worst`): a [`SizingProblem`] whose metrics are, per metric,
//!   the worst value over the corners in that metric's spec direction
//!   ([`fold_worst`]). A design is feasible iff it is feasible at every
//!   corner, which is exactly the robust-design criterion sign-off uses.
//! * **Yield** ([`Scenario::build_yield`]): the same fold, plus Monte-Carlo
//!   mismatch samples and an appended `"yield"` metric — see
//!   [`crate::yield_problem`] for the estimator and its early-abort
//!   contract.
//! * **Audit** ([`CornerSweep::audit`]): the per-corner metrics and
//!   feasibility of one finished design (the CLI's post-run corner table).
//!
//! Every evaluation runs the corners serially, in sweep order. Population
//! parallelism comes from the batch layer, which fans candidates (not
//! corners) out over the worker pool.

use crate::corner::Corner;
use crate::problem::{fold_worst, Metrics, SizingProblem, Spec, SpecKind, VarSpec};
use crate::registry::{Scenario, ScenarioError};
use crate::tech::{Backend, TechNode};
use crate::yield_problem::{MonteCarlo, YieldSettings};

/// One corner's re-evaluation of a fixed design.
#[derive(Debug, Clone)]
pub struct CornerEval {
    /// The corner evaluated.
    pub corner: Corner,
    /// Metrics at that corner.
    pub metrics: Metrics,
    /// Whether the scenario's spec table is met at that corner.
    pub feasible: bool,
}

/// A [`SizingProblem`] that scores each design by its **worst corner**,
/// and optionally by its mismatch yield on top (see the module docs).
///
/// Metric vector: the wrapped circuit's metrics, worst-case folded across
/// the corners — metrics that appear in no spec default to "smaller is
/// worse", the conservative choice for report-only quantities. A yield
/// sweep appends one `"yield"` metric and a `yield ≥ threshold` spec row,
/// so a feasible design is corner-robust *and* yields across mismatch, and
/// `Kato::run` optimises the combination directly.
pub struct CornerSweep {
    corners: Vec<Corner>,
    nominal: Vec<Box<dyn SizingProblem>>,
    metric_names: Vec<&'static str>,
    specs: Vec<Spec>,
    pub(crate) monte_carlo: Option<MonteCarlo>,
}

impl CornerSweep {
    /// Builds the sweep on a named tech node and device backend (`None` =
    /// the scenario's default). Without `settings` it is the worst case
    /// over the scenario's registered sweep; with them, the yield problem
    /// over `settings.corners` (the registered sweep when `None`).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadYield`] for an out-of-range sample count or
    /// threshold, [`ScenarioError::BadCorner`] for an empty corner set and
    /// [`ScenarioError::UnknownTech`] for an unregistered tech node.
    pub(crate) fn new(
        scenario: &Scenario,
        tech: &str,
        backend: Option<Backend>,
        mut settings: Option<YieldSettings>,
    ) -> Result<Self, ScenarioError> {
        if let Some(settings) = &settings {
            settings.validate(scenario)?;
        }
        let corners = settings
            .as_mut()
            .and_then(|s| s.corners.take())
            .unwrap_or_else(|| scenario.corners.clone());
        if corners.is_empty() {
            return Err(ScenarioError::BadCorner {
                scenario: scenario.name.to_string(),
                reason: "the corner sweep is empty".to_string(),
            });
        }
        let base = scenario.card(tech, backend)?;
        let build = scenario.builder();
        let cards: Vec<TechNode> = corners.iter().map(|c| base.at_corner(c)).collect();
        let nominal: Vec<Box<dyn SizingProblem>> =
            cards.iter().map(|card| build(card.clone())).collect();

        let mut metric_names = nominal[0].metric_names().to_vec();
        let mut specs = nominal[0].specs().to_vec();
        if let Some(settings) = &settings {
            debug_assert!(!metric_names.contains(&"yield"));
            metric_names.push("yield");
            specs.push(Spec {
                metric: metric_names.len() - 1,
                kind: SpecKind::GreaterEq(settings.threshold),
            });
        }
        Ok(CornerSweep {
            corners,
            nominal,
            metric_names,
            specs,
            monte_carlo: settings.map(|settings| MonteCarlo {
                settings,
                cards,
                build,
            }),
        })
    }

    /// The wrapped circuit's spec rows (everything except a yield row).
    fn inner_specs(&self) -> &[Spec] {
        self.nominal[0].specs()
    }

    /// Evaluates `x` at every corner of the sweep, in sweep order, and
    /// reports each corner's metrics and whether the circuit's spec table
    /// holds there.
    ///
    /// # Panics
    ///
    /// Panics (inside the problem) if `x.len()` does not match the
    /// scenario's dimensionality.
    #[must_use]
    pub fn audit(&self, x: &[f64]) -> Vec<CornerEval> {
        self.corners
            .iter()
            .zip(&self.nominal)
            .map(|(corner, problem)| {
                let metrics = problem.evaluate(x);
                CornerEval {
                    corner: *corner,
                    feasible: finite_and_feasible(&metrics, self.inner_specs()),
                    metrics,
                }
            })
            .collect()
    }
}

/// Whether every metric is finite and `specs` holds: the per-corner
/// pass/fail rule of the audit and of every Monte-Carlo sample.
pub(crate) fn finite_and_feasible(m: &Metrics, specs: &[Spec]) -> bool {
    m.values().iter().all(|v| v.is_finite()) && m.feasible(specs)
}

impl SizingProblem for CornerSweep {
    fn name(&self) -> String {
        let circuit = self.nominal[0].name();
        match &self.monte_carlo {
            None => format!("{circuit}_worstcase"),
            Some(mc) => format!("{circuit}_yield{}", mc.settings.samples),
        }
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
        if let Some(mc) = &self.monte_carlo {
            let base_ok = finite_and_feasible(&Metrics::new(values.clone()), self.inner_specs());
            values.push(mc.estimate(x, base_ok, self.inner_specs()));
        }
        Metrics::new(values)
    }

    fn expert_design(&self) -> Vec<f64> {
        self.nominal[0].expert_design()
    }

    fn streaming_hint(&self) -> bool {
        // A yield candidate's cost varies by an order of magnitude between
        // a first-sample kill and a full corners×samples sweep: stream
        // candidates through the pool instead of pre-sharding. A worst
        // case costs the same per candidate.
        self.monte_carlo.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;

    #[test]
    fn audit_covers_every_registered_corner() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        let p = s.build_default();
        let evals = s
            .build_worst("180nm", None)
            .unwrap()
            .audit(&p.expert_design());
        assert_eq!(evals.len(), s.corners.len());
        assert!(evals
            .iter()
            .all(|e| e.metrics.values().iter().all(|v| v.is_finite())));
        // The nominal corner leads the standard sweep and the expert design
        // is feasible there.
        assert_eq!(evals[0].corner, Corner::tt());
        assert!(evals[0].feasible);
    }

    #[test]
    fn worst_case_is_no_better_than_nominal() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        let wc = s.build_worst("180nm", None).unwrap();
        let nominal = s.build_default();
        let x = nominal.expert_design();
        let m_nom = nominal.evaluate(&x);
        let m_wc = wc.evaluate(&x);
        // Objective (minimised current): worst ≥ nominal. Constraint
        // margins: worst-case margin ≤ nominal margin.
        assert!(m_wc.get(0) >= m_nom.get(0) - 1e-12, "{m_wc} vs {m_nom}");
        for spec in nominal.specs() {
            assert!(
                spec.margin(m_wc.get(spec.metric)) <= spec.margin(m_nom.get(spec.metric)) + 1e-12,
                "metric {}: wc {m_wc} nominal {m_nom}",
                spec.metric
            );
        }
    }

    #[test]
    fn worst_case_problem_delegates_shape() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("ldo").unwrap();
        let wc = s.build_worst("180nm", None).unwrap();
        let nominal = s.build_default();
        assert_eq!(wc.dim(), nominal.dim());
        assert_eq!(wc.metric_names(), nominal.metric_names());
        assert!(wc.name().contains("worstcase"));
    }

    #[test]
    fn nan_at_one_corner_is_the_worst_case_not_dropped() {
        use crate::problem::Goal;

        /// Toy whose simulator "dies" (returns NaN) above 100 °C ambient.
        struct HotDeath {
            temp_c: f64,
            vars: Vec<VarSpec>,
            specs: Vec<Spec>,
        }
        impl SizingProblem for HotDeath {
            fn name(&self) -> String {
                "hot_death".into()
            }
            fn variables(&self) -> &[VarSpec] {
                &self.vars
            }
            fn metric_names(&self) -> &[&'static str] {
                &["obj", "con"]
            }
            fn specs(&self) -> &[Spec] {
                &self.specs
            }
            fn evaluate(&self, x: &[f64]) -> Metrics {
                if self.temp_c > 100.0 {
                    Metrics::new(vec![f64::NAN, f64::NAN])
                } else {
                    Metrics::new(vec![x[0], 1.0])
                }
            }
            fn expert_design(&self) -> Vec<f64> {
                vec![0.5]
            }
        }
        fn build(node: TechNode) -> Box<dyn SizingProblem> {
            Box::new(HotDeath {
                temp_c: node.temp_c,
                vars: vec![VarSpec::lin("a", 0.0, 1.0)],
                specs: vec![
                    Spec {
                        metric: 0,
                        kind: SpecKind::Objective(Goal::Maximize),
                    },
                    Spec {
                        metric: 1,
                        kind: SpecKind::GreaterEq(0.5),
                    },
                ],
            })
        }
        let scenario = Scenario::new(
            "hot_death",
            "toy that dies above 100C",
            &["180nm"],
            "180nm",
            Corner::standard_sweep(), // includes two 125 °C corners
            build,
        );
        let wc = scenario.build_worst("180nm", None).unwrap();
        let m = wc.evaluate(&[0.9]);
        // The hot corners return NaN, so the worst case must surface as
        // non-finite in the worse direction — not fold down to the finite
        // cold-corner values.
        assert_eq!(m.get(0), f64::NEG_INFINITY, "{m}");
        assert_eq!(m.get(1), f64::NEG_INFINITY, "{m}");
        assert!(!m.feasible(wc.specs()));
    }

    #[test]
    fn worst_case_batch_is_bitwise_identical_to_scalar_loop() {
        let reg = ScenarioRegistry::standard();
        for name in ["opamp2", "switch"] {
            let s = reg.get(name).unwrap();
            let wc = s.build_worst("180nm", None).unwrap();
            let xs: Vec<Vec<f64>> = (0..7)
                .map(|i| {
                    (0..wc.dim())
                        .map(|j| ((i * 13 + j * 5) % 10) as f64 / 10.0)
                        .collect()
                })
                .collect();
            let scalar: Vec<Metrics> = xs.iter().map(|x| wc.evaluate(x)).collect();
            assert_eq!(wc.evaluate_batch(&xs), scalar, "{name}");
        }
    }

    #[test]
    fn backend_aware_audit_and_worst_case() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("switch").unwrap();
        let x = s.build_default().expert_design();
        // The switch defaults to the LUT backend; forcing square-law gives
        // a (slightly) different but still feasible nominal audit.
        let wc_lut = s.build_worst("180nm", None).unwrap();
        let wc_sq = s.build_worst("180nm", Some(Backend::SquareLaw)).unwrap();
        let lut = wc_lut.audit(&x);
        let sq = wc_sq.audit(&x);
        assert_eq!(lut.len(), sq.len());
        assert!(lut[0].feasible && sq[0].feasible);
        assert_ne!(lut[0].metrics, sq[0].metrics);
        assert_ne!(wc_lut.evaluate(&x), wc_sq.evaluate(&x));
    }

    #[test]
    fn unknown_tech_propagates() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("bandgap").unwrap();
        assert!(s.build_worst("40nm", None).is_err());
    }
}
