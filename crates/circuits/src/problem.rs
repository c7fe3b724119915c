use crate::tech::TechNode;
use rand::Rng;
use std::borrow::Borrow;
use std::fmt;

/// Direction of an objective metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    /// Smaller is better (e.g. supply current, temperature coefficient).
    Minimize,
    /// Larger is better (e.g. gain).
    Maximize,
}

/// What a specification demands of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecKind {
    /// This metric is the optimisation objective.
    Objective(Goal),
    /// Constraint `metric ≥ bound`.
    GreaterEq(f64),
    /// Constraint `metric ≤ bound`.
    LessEq(f64),
}

/// One row of a sizing specification table (paper Eq. 15–17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Index into the problem's metric vector.
    pub metric: usize,
    /// Requirement on that metric.
    pub kind: SpecKind,
}

impl Spec {
    /// Margin by which `value` satisfies this spec: positive = satisfied.
    /// Objectives always report `0.0` (they are not constraints).
    #[must_use]
    pub fn margin(&self, value: f64) -> f64 {
        match self.kind {
            SpecKind::Objective(_) => 0.0,
            SpecKind::GreaterEq(b) => value - b,
            SpecKind::LessEq(b) => b - value,
        }
    }
}

/// `true` when larger values of output `metric` are worse under `specs`:
/// minimised and upper-bounded columns. Maximised, lower-bounded and
/// unspecified columns are worse when smaller.
#[must_use]
pub fn larger_is_worse(specs: &[Spec], metric: usize) -> bool {
    specs.iter().any(|s| {
        s.metric == metric
            && matches!(
                s.kind,
                SpecKind::Objective(Goal::Minimize) | SpecKind::LessEq(_)
            )
    })
}

/// Folds one design's per-corner metric vectors into its worst case over
/// the corners: for each of the first `n_metrics` metrics, the worst value
/// in its spec direction under `specs` (see [`larger_is_worse`]).
///
/// A non-finite value at any corner (a simulator breakdown the testbench
/// did not penalise itself) IS the worst case: it surfaces as ±∞ in the
/// metric's "worse" direction instead of being dropped the way `f64::max`
/// and `f64::min` drop NaN, which would certify a design that dies at one
/// corner as robust.
///
/// # Panics
///
/// Panics if a corner's metric vector is shorter than `n_metrics`.
#[must_use]
pub(crate) fn fold_worst<M: Borrow<Metrics>>(
    specs: &[Spec],
    n_metrics: usize,
    per_corner: &[M],
) -> Vec<f64> {
    (0..n_metrics)
        .map(|j| {
            let larger_is_worse = larger_is_worse(specs, j);
            let vals = per_corner.iter().map(|m| m.borrow().get(j));
            if vals.clone().any(|v| !v.is_finite()) {
                if larger_is_worse {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            } else if larger_is_worse {
                vals.fold(f64::NEG_INFINITY, f64::max)
            } else {
                vals.fold(f64::INFINITY, f64::min)
            }
        })
        .collect()
}

/// One design variable: physical range plus scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct VarSpec {
    /// Human-readable name ("l1_m", "ib1_a", ...).
    pub name: &'static str,
    /// Lower physical bound.
    pub lo: f64,
    /// Upper physical bound.
    pub hi: f64,
    /// `true` → map the unit interval geometrically (decades), the natural
    /// scaling for currents, resistances and capacitances.
    pub log: bool,
}

impl VarSpec {
    /// Linear-scaled variable.
    #[must_use]
    pub fn lin(name: &'static str, lo: f64, hi: f64) -> Self {
        VarSpec {
            name,
            lo,
            hi,
            log: false,
        }
    }

    /// Log-scaled variable (`lo` must be positive).
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0` or `hi < lo`.
    #[must_use]
    pub(crate) fn logarithmic(name: &'static str, lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && hi >= lo, "bad log-scaled range for {name}");
        VarSpec {
            name,
            lo,
            hi,
            log: true,
        }
    }

    /// Maps a unit-interval coordinate to the physical value (clamping to
    /// `[0,1]` first, so optimizer overshoot cannot leave the space).
    #[must_use]
    pub(crate) fn denormalize(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        if self.log {
            (self.lo.ln() + u * (self.hi.ln() - self.lo.ln())).exp()
        } else {
            self.lo + u * (self.hi - self.lo)
        }
    }
}

/// Metric vector produced by one circuit evaluation ("simulation").
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    values: Vec<f64>,
}

impl Metrics {
    /// Wraps a metric vector.
    #[must_use]
    pub fn new(values: Vec<f64>) -> Self {
        Metrics { values }
    }

    /// Value of metric `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// All metric values in problem order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `true` when every constraint in `specs` is met.
    #[must_use]
    pub fn feasible(&self, specs: &[Spec]) -> bool {
        specs.iter().all(|s| s.margin(self.values[s.metric]) >= 0.0)
    }

    /// Total constraint violation (sum of negative margins, ≥ 0).
    #[must_use]
    pub fn violation(&self, specs: &[Spec]) -> f64 {
        specs
            .iter()
            .map(|s| (-s.margin(self.values[s.metric])).max(0.0))
            .sum()
    }

    /// The objective value signed so that **larger is always better**
    /// (minimise-objectives are negated). Returns `None` if `specs` contains
    /// no objective.
    #[must_use]
    pub fn objective(&self, specs: &[Spec]) -> Option<f64> {
        specs.iter().find_map(|s| match s.kind {
            SpecKind::Objective(Goal::Maximize) => Some(self.values[s.metric]),
            SpecKind::Objective(Goal::Minimize) => Some(-self.values[s.metric]),
            _ => None,
        })
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4e}")?;
        }
        write!(f, "]")
    }
}

/// A transistor-sizing problem: `[0,1]^d` design space, simulator-backed
/// metric vector, and a specification table.
///
/// Implementations must be deterministic: the same design vector always
/// yields the same metrics.
pub trait SizingProblem: Send + Sync {
    /// Short unique name, e.g. `"opamp2_180nm"`.
    fn name(&self) -> String;

    /// Design-space dimensionality.
    fn dim(&self) -> usize {
        self.variables().len()
    }

    /// Per-variable physical ranges.
    fn variables(&self) -> &[VarSpec];

    /// Names of the metrics in evaluation order.
    fn metric_names(&self) -> &[&'static str];

    /// Specification table (objective + constraints), paper Eq. 15–17.
    fn specs(&self) -> &[Spec];

    /// Runs the "simulation" for a unit-cube design vector.
    ///
    /// Never fails: simulator breakdowns are mapped to heavily penalised
    /// metrics (mirroring how SPICE failures are treated in practice).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    fn evaluate(&self, x: &[f64]) -> Metrics;

    /// Evaluates a whole population of design vectors.
    ///
    /// The contract is strict: the result must be **bitwise identical** to
    /// the scalar loop `xs.iter().map(|x| self.evaluate(x))`, in order —
    /// batching is a throughput optimisation, never a semantic one. The
    /// default implementation is exactly that loop, and every circuit and
    /// corner sweep ([`crate::CornerSweep`]) uses it. The workspace
    /// overrides it only in the spec-override and fault-injection wrappers
    /// ([`OverriddenProblem`] and `kato_serve`'s `FaultProblem`), which
    /// forward it to the problem they wrap.
    ///
    /// # Panics
    ///
    /// Panics if any `xs[i].len() != self.dim()`.
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Metrics> {
        xs.iter().map(|x| self.evaluate(x)).collect()
    }

    /// A competent fixed reference design (the "Human Expert" rows of paper
    /// Tables 1–2).
    fn expert_design(&self) -> Vec<f64>;

    /// Whether per-candidate evaluation cost varies enough that population
    /// evaluation should *stream* candidates through the worker pool
    /// (dynamic work-claiming) rather than pre-shard them into equal
    /// contiguous chunks.
    ///
    /// Plain testbenches cost the same per candidate, so the default is
    /// `false` and the batch layer uses chunking (better locality, one
    /// sync point). Wrappers whose cost per candidate is data-dependent —
    /// e.g. Monte-Carlo yield with early abort, where an infeasible
    /// candidate stops after a handful of samples while a feasible one
    /// consumes the full budget — return `true` so a few expensive
    /// candidates cannot serialise a whole shard behind them. The hint
    /// is purely a scheduling choice: either path must produce results
    /// bitwise identical to the scalar loop.
    fn streaming_hint(&self) -> bool {
        false
    }

    /// Index of a metric by name.
    fn metric_index(&self, name: &str) -> Option<usize> {
        self.metric_names().iter().position(|m| *m == name)
    }

    /// Maps a unit design vector to named physical values (for reporting).
    fn physical(&self, x: &[f64]) -> Vec<(String, f64)> {
        self.variables()
            .iter()
            .zip(x)
            .map(|(v, &u)| (v.name.to_string(), v.denormalize(u)))
            .collect()
    }
}

/// One circuit on one technology card: the [`SizingProblem`] every
/// registered circuit is. A circuit file supplies a constructor that
/// fills in the variables, metric names and spec table for a card, plus
/// two functions of the card — the expert design and the simulation,
/// which receives the design already mapped to physical values in
/// variable order (see [`Testbench::denormalize`]).
#[derive(Debug, Clone)]
pub struct Testbench {
    /// Family name; the problem name is `<family>_<card name>`.
    pub(crate) family: &'static str,
    pub(crate) node: TechNode,
    pub(crate) vars: Vec<VarSpec>,
    pub(crate) metric_names: &'static [&'static str],
    pub(crate) specs: Vec<Spec>,
    pub(crate) expert: fn(&TechNode) -> Vec<f64>,
    pub(crate) simulate: fn(&TechNode, &[f64]) -> Metrics,
}

impl Testbench {
    /// Maps a unit-cube design vector to physical values, in variable
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    #[must_use]
    pub fn denormalize(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.vars.len(), "design vector length mismatch");
        self.vars
            .iter()
            .zip(x)
            .map(|(v, &u)| v.denormalize(u))
            .collect()
    }
}

impl SizingProblem for Testbench {
    fn name(&self) -> String {
        format!("{}_{}", self.family, self.node.name)
    }

    fn variables(&self) -> &[VarSpec] {
        &self.vars
    }

    fn metric_names(&self) -> &[&'static str] {
        self.metric_names
    }

    fn specs(&self) -> &[Spec] {
        &self.specs
    }

    fn evaluate(&self, x: &[f64]) -> Metrics {
        (self.simulate)(&self.node, &self.denormalize(x))
    }

    fn expert_design(&self) -> Vec<f64> {
        (self.expert)(&self.node)
    }
}

/// A [`SizingProblem`] whose constraint bounds have been overridden by
/// name — the mechanism behind per-request spec overrides in sizing
/// requests (`katod`) and anywhere else a caller needs the stock circuit
/// under a tightened or relaxed spec table.
///
/// Only the *bound* of an existing `≥`/`≤` constraint can be overridden;
/// the constraint's direction and the objective row are fixed by the
/// circuit. The wrapped problem keeps its physics and variables untouched.
pub struct OverriddenProblem {
    inner: Box<dyn SizingProblem>,
    specs: Vec<Spec>,
    name: String,
}

impl fmt::Debug for OverriddenProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OverriddenProblem")
            .field("name", &self.name)
            .field("specs", &self.specs)
            .finish_non_exhaustive()
    }
}

impl OverriddenProblem {
    /// Wraps `inner` with the constraint bounds in `overrides` replaced,
    /// where each entry is `(metric name, new bound)`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending metric when it does not
    /// exist or carries no constraint (objectives cannot be overridden).
    pub fn new(inner: Box<dyn SizingProblem>, overrides: &[(String, f64)]) -> Result<Self, String> {
        let mut specs = inner.specs().to_vec();
        for (metric, bound) in overrides {
            if !bound.is_finite() {
                return Err(format!("override for '{metric}' must be finite"));
            }
            let idx = inner.metric_index(metric).ok_or_else(|| {
                format!(
                    "unknown metric '{metric}' (available: {})",
                    inner.metric_names().join(", ")
                )
            })?;
            let row = specs
                .iter_mut()
                .find(|s| s.metric == idx && !matches!(s.kind, SpecKind::Objective(_)))
                .ok_or_else(|| format!("metric '{metric}' has no constraint to override"))?;
            row.kind = match row.kind {
                SpecKind::GreaterEq(_) => SpecKind::GreaterEq(*bound),
                SpecKind::LessEq(_) => SpecKind::LessEq(*bound),
                SpecKind::Objective(_) => unreachable!("objective rows are filtered above"),
            };
        }
        let name = if overrides.is_empty() {
            inner.name()
        } else {
            format!("{}_custom", inner.name())
        };
        Ok(OverriddenProblem { inner, specs, name })
    }
}

impl SizingProblem for OverriddenProblem {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn variables(&self) -> &[VarSpec] {
        self.inner.variables()
    }
    fn metric_names(&self) -> &[&'static str] {
        self.inner.metric_names()
    }
    fn specs(&self) -> &[Spec] {
        &self.specs
    }
    fn evaluate(&self, x: &[f64]) -> Metrics {
        self.inner.evaluate(x)
    }
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Metrics> {
        // Forward so the inner problem's batched fast path survives the
        // spec-override wrapper (overrides only change the spec table).
        self.inner.evaluate_batch(xs)
    }
    fn expert_design(&self) -> Vec<f64> {
        self.inner.expert_design()
    }
    fn streaming_hint(&self) -> bool {
        // A spec override never changes evaluation cost; keep the inner
        // problem's scheduling preference.
        self.inner.streaming_hint()
    }
}

/// Draws a uniform random design vector in the unit cube.
pub fn random_design<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Vec<f64> {
    (0..dim).map(|_| rng.gen::<f64>()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn var_spec_roundtrip_linear_and_log() {
        let lin = VarSpec::lin("l", 1.0, 3.0);
        assert_eq!(lin.denormalize(0.5), 2.0);

        let log = VarSpec::logarithmic("r", 1e3, 1e7);
        assert!((log.denormalize(0.5) - 1e5).abs() / 1e5 < 1e-9);
    }

    #[test]
    fn denormalize_clamps_overshoot() {
        let v = VarSpec::lin("x", 0.0, 10.0);
        assert_eq!(v.denormalize(-0.5), 0.0);
        assert_eq!(v.denormalize(1.5), 10.0);
    }

    #[test]
    #[should_panic(expected = "bad log-scaled range")]
    fn log_var_rejects_nonpositive_lo() {
        let _ = VarSpec::logarithmic("bad", 0.0, 1.0);
    }

    #[test]
    fn spec_margins() {
        let ge = Spec {
            metric: 0,
            kind: SpecKind::GreaterEq(60.0),
        };
        assert_eq!(ge.margin(70.0), 10.0);
        assert_eq!(ge.margin(50.0), -10.0);
        let le = Spec {
            metric: 0,
            kind: SpecKind::LessEq(6.0),
        };
        assert_eq!(le.margin(5.0), 1.0);
        let obj = Spec {
            metric: 0,
            kind: SpecKind::Objective(Goal::Minimize),
        };
        assert_eq!(obj.margin(123.0), 0.0);
    }

    #[test]
    fn metrics_feasibility_and_objective() {
        let specs = [
            Spec {
                metric: 0,
                kind: SpecKind::Objective(Goal::Minimize),
            },
            Spec {
                metric: 1,
                kind: SpecKind::GreaterEq(60.0),
            },
            Spec {
                metric: 2,
                kind: SpecKind::LessEq(6.0),
            },
        ];
        let good = Metrics::new(vec![100.0, 75.0, 4.0]);
        assert!(good.feasible(&specs));
        assert_eq!(good.violation(&specs), 0.0);
        assert_eq!(good.objective(&specs), Some(-100.0));

        let bad = Metrics::new(vec![100.0, 50.0, 8.0]);
        assert!(!bad.feasible(&specs));
        assert!((bad.violation(&specs) - 12.0).abs() < 1e-12);
    }

    struct FixedToy;
    impl SizingProblem for FixedToy {
        fn name(&self) -> String {
            "fixed_toy".into()
        }
        fn variables(&self) -> &[VarSpec] {
            const V: [VarSpec; 1] = [VarSpec {
                name: "a",
                lo: 0.0,
                hi: 1.0,
                log: false,
            }];
            &V
        }
        fn metric_names(&self) -> &[&'static str] {
            &["i_total", "gain_db"]
        }
        fn specs(&self) -> &[Spec] {
            const S: [Spec; 2] = [
                Spec {
                    metric: 0,
                    kind: SpecKind::Objective(Goal::Minimize),
                },
                Spec {
                    metric: 1,
                    kind: SpecKind::GreaterEq(60.0),
                },
            ];
            &S
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            Metrics::new(vec![x[0], 100.0 * x[0]])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![0.8]
        }
    }

    #[test]
    fn overridden_problem_replaces_bounds_only() {
        let over =
            OverriddenProblem::new(Box::new(FixedToy), &[("gain_db".to_string(), 80.0)]).unwrap();
        assert_eq!(over.name(), "fixed_toy_custom");
        assert_eq!(over.dim(), 1);
        // 0.7 meets the stock 60 dB bound but not the overridden 80 dB one.
        let m = over.evaluate(&[0.7]);
        assert!(m.feasible(FixedToy.specs()));
        assert!(!m.feasible(over.specs()));
        assert!(over.evaluate(&[0.9]).feasible(over.specs()));
        // Empty override list keeps the stock name and table.
        let plain = OverriddenProblem::new(Box::new(FixedToy), &[]).unwrap();
        assert_eq!(plain.name(), "fixed_toy");
        assert_eq!(plain.specs(), FixedToy.specs());
    }

    #[test]
    fn overridden_problem_rejects_bad_metrics() {
        let unknown = OverriddenProblem::new(Box::new(FixedToy), &[("psrr_db".to_string(), 50.0)]);
        assert!(unknown.unwrap_err().contains("unknown metric"));
        let objective = OverriddenProblem::new(Box::new(FixedToy), &[("i_total".to_string(), 1.0)]);
        assert!(objective.unwrap_err().contains("no constraint"));
        let non_finite =
            OverriddenProblem::new(Box::new(FixedToy), &[("gain_db".to_string(), f64::NAN)]);
        assert!(non_finite.unwrap_err().contains("finite"));
    }

    #[test]
    fn default_evaluate_batch_matches_scalar_loop() {
        let xs: Vec<Vec<f64>> = vec![vec![0.1], vec![0.5], vec![0.9]];
        let batch = FixedToy.evaluate_batch(&xs);
        assert_eq!(batch.len(), xs.len());
        for (x, m) in xs.iter().zip(&batch) {
            assert_eq!(m, &FixedToy.evaluate(x));
        }
        // The override wrapper forwards batching to the inner problem.
        let over =
            OverriddenProblem::new(Box::new(FixedToy), &[("gain_db".to_string(), 80.0)]).unwrap();
        assert_eq!(over.evaluate_batch(&xs), batch);
    }

    #[test]
    fn random_designs_in_unit_cube() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let x = random_design(5, &mut rng);
            assert_eq!(x.len(), 5);
            assert!(x.iter().all(|&u| (0.0..1.0).contains(&u)));
        }
    }
}
