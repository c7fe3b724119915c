use crate::Mode;
use kato_circuits::{Metrics, SizingProblem};

/// One simulated design in a run.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// Unit-cube design vector.
    pub x: Vec<f64>,
    /// Simulator metrics.
    pub metrics: Metrics,
    /// Whether all constraints were met.
    pub feasible: bool,
    /// Scalar score of this design under the run's [`Mode`]: the FOM, or the
    /// signed objective (−∞ when infeasible in constrained mode).
    pub score: f64,
}

/// Complete trace of one optimisation run — the raw material for every
/// curve and table in the paper's evaluation.
#[derive(Debug, Clone)]
pub struct RunHistory {
    /// Problem name (e.g. `opamp2_180nm`).
    pub problem: String,
    /// Method label (e.g. `KATO`, `MACE`).
    pub method: String,
    /// Seed used for the run.
    pub seed: u64,
    /// Evaluations in simulation order.
    pub evals: Vec<EvalRecord>,
}

impl RunHistory {
    /// Creates an empty history.
    #[must_use]
    pub fn new(problem: &str, method: &str, seed: u64) -> Self {
        RunHistory {
            problem: problem.to_string(),
            method: method.to_string(),
            seed,
            evals: Vec::new(),
        }
    }

    /// Evaluates `x` on `problem`, scores it under `mode`, records and
    /// returns the record's score.
    ///
    /// A simulation whose metrics contain any non-finite value (NaN/±∞ from
    /// a misbehaving simulator) is recorded as infeasible with score `−∞`:
    /// it can never become the incumbent, never earns an STL reward, and
    /// surrogate training imputes its columns (see
    /// `kato_opt::training_view`) instead of ingesting NaN.
    pub fn evaluate_and_push(
        &mut self,
        problem: &dyn SizingProblem,
        mode: &Mode,
        x: Vec<f64>,
    ) -> f64 {
        let metrics = problem.evaluate(&x);
        self.push_evaluated(problem, mode, x, metrics)
    }

    /// Evaluates a whole population through the problem's batch path
    /// (sharded over the `kato_par` pool, see
    /// [`crate::evaluate_batch_sharded`]), records every design in input
    /// order and returns the per-design scores.
    ///
    /// Because `evaluate_batch` is contractually bitwise-identical to the
    /// scalar loop, the recorded trace is exactly what `xs.len()` calls to
    /// [`RunHistory::evaluate_and_push`] would have produced — at any
    /// thread count.
    pub fn evaluate_and_push_batch(
        &mut self,
        problem: &dyn SizingProblem,
        mode: &Mode,
        xs: Vec<Vec<f64>>,
    ) -> Vec<f64> {
        let metrics = crate::evaluate_batch_sharded(problem, &xs);
        xs.into_iter()
            .zip(metrics)
            .map(|(x, m)| self.push_evaluated(problem, mode, x, m))
            .collect()
    }

    /// Scores already-computed `metrics` for design `x` under `mode`,
    /// records the pair and returns the score — the shared tail of the
    /// scalar and batched evaluation entry points.
    fn push_evaluated(
        &mut self,
        problem: &dyn SizingProblem,
        mode: &Mode,
        x: Vec<f64>,
        metrics: Metrics,
    ) -> f64 {
        let clean = metrics.values().iter().all(|v| v.is_finite());
        let feasible = clean && metrics.feasible(problem.specs());
        let score = match mode {
            Mode::Fom(fom) => {
                let v = fom.fom(&metrics);
                if v.is_finite() {
                    v
                } else {
                    f64::NEG_INFINITY
                }
            }
            Mode::Constrained => {
                if feasible {
                    let v = metrics
                        .objective(problem.specs())
                        .unwrap_or(f64::NEG_INFINITY);
                    if v.is_finite() {
                        v
                    } else {
                        f64::NEG_INFINITY
                    }
                } else {
                    f64::NEG_INFINITY
                }
            }
        };
        self.evals.push(EvalRecord {
            x,
            metrics,
            feasible,
            score,
        });
        score
    }

    /// Number of simulations so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.evals.len()
    }

    /// `true` when no simulations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.evals.is_empty()
    }

    /// Best record so far (highest score; `None` when nothing scored above
    /// −∞, i.e. nothing feasible in constrained mode).
    #[must_use]
    pub fn best(&self) -> Option<&EvalRecord> {
        self.evals
            .iter()
            .filter(|e| e.score > f64::NEG_INFINITY)
            .max_by(|a, b| kato_linalg::cmp_nan_worst(&a.score, &b.score))
    }

    /// Incumbent score so far (−∞ if none).
    #[must_use]
    pub fn incumbent(&self) -> f64 {
        self.best().map_or(f64::NEG_INFINITY, |e| e.score)
    }

    /// Best-so-far score after each simulation (the y-axis of the paper's
    /// Figs. 4–6). Entries before the first scored design are −∞.
    #[must_use]
    pub fn best_curve(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.evals
            .iter()
            .map(|e| {
                if e.score > best {
                    best = e.score;
                }
                best
            })
            .collect()
    }

    /// First simulation count at which the best-so-far score reaches
    /// `threshold` (the paper's speed-up metric), or `None`.
    #[must_use]
    pub fn sims_to_reach(&self, threshold: f64) -> Option<usize> {
        self.best_curve()
            .iter()
            .position(|&s| s >= threshold)
            .map(|i| i + 1)
    }

    /// All evaluated designs as `(x, metrics)` pairs — the dataset handed to
    /// surrogates.
    #[must_use]
    pub fn dataset(&self) -> (Vec<Vec<f64>>, Vec<&Metrics>) {
        (
            self.evals.iter().map(|e| e.x.clone()).collect(),
            self.evals.iter().map(|e| &e.metrics).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_circuits::{Goal, Spec, SpecKind, VarSpec};

    struct Toy {
        vars: Vec<VarSpec>,
        specs: Vec<Spec>,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
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
            &["obj", "con"]
        }
        fn specs(&self) -> &[Spec] {
            &self.specs
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            Metrics::new(vec![x[0], 1.0 - x[0]])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![0.5]
        }
    }

    #[test]
    fn constrained_scoring_and_curve() {
        let toy = Toy::new();
        let mut h = RunHistory::new("toy", "test", 0);
        // x=0.8 infeasible (con=0.2<0.5), x=0.3 feasible score 0.3, x=0.45 better.
        h.evaluate_and_push(&toy, &Mode::Constrained, vec![0.8]);
        h.evaluate_and_push(&toy, &Mode::Constrained, vec![0.3]);
        h.evaluate_and_push(&toy, &Mode::Constrained, vec![0.45]);
        assert_eq!(h.len(), 3);
        assert!(!h.evals[0].feasible);
        let curve = h.best_curve();
        assert_eq!(curve[0], f64::NEG_INFINITY);
        assert!((curve[1] - 0.3).abs() < 1e-12);
        assert!((curve[2] - 0.45).abs() < 1e-12);
        assert_eq!(h.best().unwrap().x, vec![0.45]);
        assert_eq!(h.sims_to_reach(0.4), Some(3));
        assert_eq!(h.sims_to_reach(0.9), None);
    }

    #[test]
    fn non_finite_metrics_score_as_infeasible() {
        struct NanToy(Vec<VarSpec>, Vec<Spec>);
        impl SizingProblem for NanToy {
            fn name(&self) -> String {
                "nan_toy".into()
            }
            fn variables(&self) -> &[VarSpec] {
                &self.0
            }
            fn metric_names(&self) -> &[&'static str] {
                &["obj", "con"]
            }
            fn specs(&self) -> &[Spec] {
                &self.1
            }
            fn evaluate(&self, x: &[f64]) -> Metrics {
                if x[0] < 0.5 {
                    Metrics::new(vec![f64::NAN, f64::INFINITY])
                } else {
                    Metrics::new(vec![x[0], 1.0])
                }
            }
            fn expert_design(&self) -> Vec<f64> {
                vec![0.9]
            }
        }
        let toy = NanToy(
            vec![VarSpec::lin("a", 0.0, 1.0)],
            vec![
                Spec {
                    metric: 0,
                    kind: SpecKind::Objective(Goal::Maximize),
                },
                Spec {
                    metric: 1,
                    kind: SpecKind::GreaterEq(0.5),
                },
            ],
        );
        let mut h = RunHistory::new("nan_toy", "t", 0);
        let bad = h.evaluate_and_push(&toy, &Mode::Constrained, vec![0.2]);
        let good = h.evaluate_and_push(&toy, &Mode::Constrained, vec![0.8]);
        assert_eq!(bad, f64::NEG_INFINITY);
        assert!(!h.evals[0].feasible);
        assert!((good - 0.8).abs() < 1e-12);
        assert_eq!(h.best().unwrap().x, vec![0.8]);
        assert!(h.incumbent().is_finite());
        // FOM mode: a NaN FOM also scores −∞ rather than propagating.
        use kato_circuits::FomSpec;
        let fom = FomSpec::calibrate(&toy, 16, 3);
        let mut hf = RunHistory::new("nan_toy", "t", 0);
        let s = hf.evaluate_and_push(&toy, &Mode::Fom(fom), vec![0.2]);
        assert!(s == f64::NEG_INFINITY || s.is_finite());
        assert!(!s.is_nan());
    }

    #[test]
    fn batch_push_matches_scalar_pushes() {
        let toy = Toy::new();
        let xs = vec![vec![0.8], vec![0.3], vec![0.45]];
        let mut scalar = RunHistory::new("toy", "t", 0);
        let s_scores: Vec<f64> = xs
            .iter()
            .map(|x| scalar.evaluate_and_push(&toy, &Mode::Constrained, x.clone()))
            .collect();
        let mut batched = RunHistory::new("toy", "t", 0);
        let b_scores = batched.evaluate_and_push_batch(&toy, &Mode::Constrained, xs);
        assert_eq!(s_scores, b_scores);
        assert_eq!(scalar.len(), batched.len());
        for (a, b) in scalar.evals.iter().zip(&batched.evals) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.feasible, b.feasible);
            assert_eq!(a.score, b.score);
        }
    }

    #[test]
    fn empty_history_behaviour() {
        let h = RunHistory::new("toy", "t", 0);
        assert!(h.is_empty());
        assert!(h.best().is_none());
        assert_eq!(h.incumbent(), f64::NEG_INFINITY);
    }
}
