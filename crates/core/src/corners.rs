//! Corner-aware evaluation: PVT sweeps over registered scenarios.
//!
//! Silicon must meet spec at every process/temperature corner, not just at
//! the nominal point the optimizer sees. This module provides the two ways
//! the rest of the stack consumes a scenario's corner sweep:
//!
//! * [`corner_audit_at`] — re-evaluate a finished design at every corner of
//!   its scenario and report per-corner metrics/feasibility (the CLI's
//!   post-run corner table).
//! * [`WorstCaseProblem`] — a [`SizingProblem`] adapter that evaluates a
//!   design at **all** corners and reports the per-metric worst case in
//!   each spec's direction, so `Kato::run` optimises directly for
//!   across-corner robustness (`kato run <scenario> --corner worst`).

use kato_circuits::{
    fold_worst, Backend, Corner, Metrics, Scenario, ScenarioError, SizingProblem, Spec, VarSpec,
};

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

/// Evaluates a unit-cube design at every corner in the scenario's sweep,
/// on `backend` (`None` = the scenario's default). The corner instances
/// are independent and deterministic, so the design×corner sweep fans out
/// over the `kato_par` pool (order-preserving; identical result at any
/// `KATO_THREADS`).
///
/// # Errors
///
/// Propagates [`ScenarioError`] when `tech` is not registered for the
/// scenario.
///
/// # Panics
///
/// Panics (inside the problem) if `x.len()` does not match the scenario's
/// dimensionality.
pub fn corner_audit_at(
    scenario: &Scenario,
    tech: &str,
    x: &[f64],
    backend: Option<Backend>,
) -> Result<Vec<CornerEval>, ScenarioError> {
    let mut problems = Vec::with_capacity(scenario.corners.len());
    for corner in &scenario.corners {
        problems.push(scenario.build_at(tech, corner, backend)?);
    }
    let per_corner = kato_par::par_map(&problems, |p| p.evaluate(x));
    Ok(scenario
        .corners
        .iter()
        .zip(problems.iter())
        .zip(per_corner)
        .map(|((corner, problem), metrics)| {
            let feasible =
                metrics.values().iter().all(|v| v.is_finite()) && metrics.feasible(problem.specs());
            CornerEval {
                corner: *corner,
                metrics,
                feasible,
            }
        })
        .collect())
}

/// A sizing problem that scores each design by its **worst corner**.
///
/// Wraps one problem instance per corner of a scenario's sweep. Each
/// evaluation runs every corner instance and assembles a synthetic metric
/// vector taking, per metric, the worst value in that metric's spec
/// direction (maximum for minimised/upper-bounded metrics, minimum for
/// maximised/lower-bounded ones). A design is feasible for the wrapper iff
/// it is feasible at every corner, which is exactly the robust-design
/// criterion sign-off uses.
///
/// Metrics that appear in no spec default to "smaller is worse" (minimum),
/// the conservative choice for report-only quantities.
pub struct WorstCaseProblem {
    name: String,
    problems: Vec<Box<dyn SizingProblem>>,
}

impl WorstCaseProblem {
    /// Builds the wrapper from a scenario's registered corner sweep, with
    /// every corner instance on `backend` (`None` = the scenario's
    /// default).
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioError`] for an unknown tech node; rejects
    /// scenarios with an empty corner sweep.
    pub fn with_backend(
        scenario: &Scenario,
        tech: &str,
        backend: Option<Backend>,
    ) -> Result<Self, ScenarioError> {
        if scenario.corners.is_empty() {
            return Err(ScenarioError::BadCorner {
                scenario: scenario.name.to_string(),
                reason: "scenario has an empty corner sweep".to_string(),
            });
        }
        let mut problems = Vec::with_capacity(scenario.corners.len());
        for corner in &scenario.corners {
            problems.push(scenario.build_at(tech, corner, backend)?);
        }
        Ok(WorstCaseProblem {
            name: format!("{}_worstcase", problems[0].name()),
            problems,
        })
    }

    /// The synthetic worst-case vector of one design's per-corner metric
    /// vectors ([`fold_worst`] in this scenario's spec directions) — the
    /// shared tail of the scalar and batched evaluation paths.
    fn fold_worst(&self, per_corner: &[&Metrics]) -> Metrics {
        let specs = self.problems[0].specs();
        Metrics::new(fold_worst(specs, self.metric_names().len(), per_corner))
    }
}

impl SizingProblem for WorstCaseProblem {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn variables(&self) -> &[VarSpec] {
        self.problems[0].variables()
    }

    fn metric_names(&self) -> &[&'static str] {
        self.problems[0].metric_names()
    }

    fn specs(&self) -> &[Spec] {
        self.problems[0].specs()
    }

    fn evaluate(&self, x: &[f64]) -> Metrics {
        // The corner instances are independent and deterministic, so they
        // fan out over the kato_par pool (order-preserving; identical
        // result at any KATO_THREADS).
        let per_corner: Vec<Metrics> = kato_par::par_map(&self.problems, |p| p.evaluate(x));
        let refs: Vec<&Metrics> = per_corner.iter().collect();
        self.fold_worst(&refs)
    }

    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Metrics> {
        // The whole candidate×corner grid is one fan-out: each corner
        // instance evaluates the full population through its own batch
        // path, then the per-candidate worst-case fold runs over the
        // corner-major results. Bitwise identical to the scalar loop —
        // each inner `evaluate_batch` is contractually identical to its
        // scalar loop, and the fold is the same code.
        let per_corner: Vec<Vec<Metrics>> =
            kato_par::par_map(&self.problems, |p| p.evaluate_batch(xs));
        (0..xs.len())
            .map(|i| {
                let row: Vec<&Metrics> = per_corner.iter().map(|c| &c[i]).collect();
                self.fold_worst(&row)
            })
            .collect()
    }

    fn expert_design(&self) -> Vec<f64> {
        self.problems[0].expert_design()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_circuits::ScenarioRegistry;

    #[test]
    fn audit_covers_every_registered_corner() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("opamp2").unwrap();
        let p = s.build_default();
        let evals = corner_audit_at(s, "180nm", &p.expert_design(), None).unwrap();
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
        let wc = WorstCaseProblem::with_backend(s, "180nm", None).unwrap();
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
        let wc = WorstCaseProblem::with_backend(s, "180nm", None).unwrap();
        let nominal = s.build_default();
        assert_eq!(wc.dim(), nominal.dim());
        assert_eq!(wc.metric_names(), nominal.metric_names());
        assert!(wc.name().contains("worstcase"));
    }

    #[test]
    fn nan_at_one_corner_is_the_worst_case_not_dropped() {
        use kato_circuits::{Goal, Spec, SpecKind, TechNode, VarSpec};

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
        let wc = WorstCaseProblem::with_backend(&scenario, "180nm", None).unwrap();
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
            let wc = WorstCaseProblem::with_backend(s, "180nm", None).unwrap();
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
        use kato_circuits::Backend;
        let reg = ScenarioRegistry::standard();
        let s = reg.get("switch").unwrap();
        let x = s.build_default().expert_design();
        // The switch defaults to the LUT backend; forcing square-law gives
        // a (slightly) different but still feasible nominal audit.
        let lut = corner_audit_at(s, "180nm", &x, None).unwrap();
        let sq = corner_audit_at(s, "180nm", &x, Some(Backend::SquareLaw)).unwrap();
        assert_eq!(lut.len(), sq.len());
        assert!(lut[0].feasible && sq[0].feasible);
        assert_ne!(lut[0].metrics, sq[0].metrics);
        let wc_lut = WorstCaseProblem::with_backend(s, "180nm", None).unwrap();
        let wc_sq = WorstCaseProblem::with_backend(s, "180nm", Some(Backend::SquareLaw)).unwrap();
        assert_ne!(wc_lut.evaluate(&x), wc_sq.evaluate(&x));
    }

    #[test]
    fn unknown_tech_propagates() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("bandgap").unwrap();
        assert!(WorstCaseProblem::with_backend(s, "40nm", None).is_err());
        assert!(corner_audit_at(s, "40nm", &[0.5; 6], None).is_err());
    }
}
