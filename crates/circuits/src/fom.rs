use crate::problem::{Goal, Metrics, SizingProblem, Spec, SpecKind};
use crate::random_design;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-metric normalisation ranges for the Figure-of-Merit (paper Eq. 2),
/// obtained from random sampling of the design space.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FomNormalization {
    /// Per-metric minimum over the sample.
    pub(crate) f_min: Vec<f64>,
    /// Per-metric maximum over the sample.
    pub(crate) f_max: Vec<f64>,
}

/// Figure of Merit evaluator implementing paper Eq. 2:
///
/// `FOM(x) = Σ_i w_i · (clampᵢ(fᵢ(x)) − fᵢ_min) / (fᵢ_max − fᵢ_min)`
///
/// with `w_i = +1` for maximised metrics and `−1` for minimised ones, and
/// the contribution of constrained metrics *capped at the spec bound* so no
/// reward is given for over-satisfying a constraint. (The paper writes
/// `min(f, bound)` for all metrics; for minimised metrics the symmetric
/// `max(f, bound)` is the meaningful cap and is what we use.)
///
/// # Example
///
/// ```
/// use kato_circuits::{opamp2, FomSpec, SizingProblem, TechNode};
///
/// let problem = opamp2(TechNode::n180());
/// let fom = FomSpec::calibrate(&problem, 64, 42);
/// let value = fom.fom(&problem.evaluate(&vec![0.5; problem.dim()]));
/// assert!(value.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct FomSpec {
    specs: Vec<Spec>,
    norm: FomNormalization,
}

impl FomSpec {
    /// Builds a FOM evaluator by sampling `n_samples` random designs with a
    /// deterministic `seed` (the paper uses 10 000 samples; smaller values
    /// are fine for tests).
    ///
    /// # Panics
    ///
    /// Panics if `n_samples == 0`.
    #[must_use]
    pub fn calibrate(problem: &dyn SizingProblem, n_samples: usize, seed: u64) -> Self {
        assert!(n_samples > 0, "need at least one calibration sample");
        let mut rng = StdRng::seed_from_u64(seed);
        let n_metrics = problem.metric_names().len();
        let mut f_min = vec![f64::INFINITY; n_metrics];
        let mut f_max = vec![f64::NEG_INFINITY; n_metrics];
        for _ in 0..n_samples {
            let x = random_design(problem.dim(), &mut rng);
            let m = problem.evaluate(&x);
            for (i, v) in m.values().iter().enumerate() {
                f_min[i] = f_min[i].min(*v);
                f_max[i] = f_max[i].max(*v);
            }
        }
        // Guard against degenerate (constant) metrics.
        for i in 0..n_metrics {
            if f_max[i] - f_min[i] < 1e-12 {
                f_max[i] = f_min[i] + 1.0;
            }
        }
        FomSpec {
            specs: problem.specs().to_vec(),
            norm: FomNormalization { f_min, f_max },
        }
    }

    /// The normalisation ranges in use.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn normalization(&self) -> &FomNormalization {
        &self.norm
    }

    /// Evaluates the FOM of a metric vector. Larger is better.
    #[must_use]
    pub fn fom(&self, metrics: &Metrics) -> f64 {
        let mut total = 0.0;
        for spec in &self.specs {
            let i = spec.metric;
            let f = metrics.get(i);
            let lo = self.norm.f_min[i];
            let hi = self.norm.f_max[i];
            let (w, clamped) = match spec.kind {
                SpecKind::Objective(Goal::Maximize) => (1.0, f),
                SpecKind::Objective(Goal::Minimize) => (-1.0, f),
                // Constraint ≥ bound: maximised metric, reward capped at the
                // bound.
                SpecKind::GreaterEq(b) => (1.0, f.min(b)),
                // Constraint ≤ bound: minimised metric, reward capped at the
                // bound.
                SpecKind::LessEq(b) => (-1.0, f.max(b)),
            };
            total += w * (clamped - lo) / (hi - lo);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::VarSpec;

    /// Tiny synthetic problem: f0 = Σx (minimise), f1 = x0·10 (≥ 4).
    struct Toy {
        vars: Vec<VarSpec>,
        specs: Vec<Spec>,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
                vars: vec![VarSpec::lin("a", 0.0, 1.0), VarSpec::lin("b", 0.0, 1.0)],
                specs: vec![
                    Spec {
                        metric: 0,
                        kind: SpecKind::Objective(Goal::Minimize),
                    },
                    Spec {
                        metric: 1,
                        kind: SpecKind::GreaterEq(4.0),
                    },
                ],
            }
        }
    }

    impl SizingProblem for Toy {
        fn name(&self) -> String {
            "toy".into()
        }
        fn variables(&self) -> &[VarSpec] {
            &self.vars
        }
        fn metric_names(&self) -> &[&'static str] {
            &["sum", "tenx"]
        }
        fn specs(&self) -> &[Spec] {
            &self.specs
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            Metrics::new(vec![x[0] + x[1], 10.0 * x[0]])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![0.5, 0.0]
        }
    }

    #[test]
    fn calibration_brackets_metric_ranges() {
        let toy = Toy::new();
        let fom = FomSpec::calibrate(&toy, 256, 1);
        let n = fom.normalization();
        assert!(n.f_min[0] >= 0.0 && n.f_max[0] <= 2.0);
        assert!(n.f_min[1] >= 0.0 && n.f_max[1] <= 10.0);
        assert!(n.f_max[0] > n.f_min[0]);
    }

    #[test]
    fn fom_prefers_lower_objective() {
        let toy = Toy::new();
        let fom = FomSpec::calibrate(&toy, 256, 1);
        // Same constraint satisfaction (both above bound → capped), lower sum.
        let better = fom.fom(&toy.evaluate(&[0.6, 0.0]));
        let worse = fom.fom(&toy.evaluate(&[0.6, 0.4]));
        assert!(better > worse);
    }

    #[test]
    fn constraint_reward_caps_at_bound() {
        let toy = Toy::new();
        let fom = FomSpec::calibrate(&toy, 256, 1);
        // x0 = 0.4 → tenx = 4.0 (at bound); x0 = 0.9 → tenx = 9 (capped).
        // The extra 0.5 on the sum objective must dominate.
        let at_bound = fom.fom(&toy.evaluate(&[0.4, 0.0]));
        let over = fom.fom(&toy.evaluate(&[0.9, 0.0]));
        assert!(
            at_bound > over,
            "over-satisfying the constraint must not pay: {at_bound} vs {over}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let toy = Toy::new();
        let a = FomSpec::calibrate(&toy, 64, 9);
        let b = FomSpec::calibrate(&toy, 64, 9);
        assert_eq!(a.normalization(), b.normalization());
    }
}
