//! Baseline optimizers reproduced for the paper's comparisons: random
//! search, full six-objective MACE, SMAC-RF, MESMOC, USEMOC and TLMBO.
//!
//! Every model-based baseline is a strategy of the shared BO loop, which
//! owns init, batched evaluation, refits and the random-fill fallback, so
//! the comparisons run on the same plumbing as KATO. MESMOC/USEMOC/TLMBO
//! are practical re-implementations at the fidelity the comparison needs
//! (see ARCHITECTURE.md "BO loop" for the documented approximations).

use crate::acquisition::{expected_improvement, probability_of_feasibility};
use crate::kato_opt::{
    acquisition_incumbent, mace_batch, warm_starts, Archive, Batches, LoopCtx, MaceSearch,
    Proposer, Round, Surrogates,
};
use crate::mace::MaceVariant;
use crate::model::fom_specs;
use crate::{BoSettings, MetricModels, Mode, ModelConfig, RunHistory, SourceData, StlWeights};
use kato_circuits::{random_design, SizingProblem};
use kato_gp::GpError;
use kato_linalg::stats;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Pure random search (the paper's RS baseline).
#[derive(Debug, Clone)]
pub struct RandomSearch {
    settings: BoSettings,
}

impl RandomSearch {
    /// Creates the baseline.
    #[must_use]
    pub fn new(settings: BoSettings) -> Self {
        RandomSearch { settings }
    }

    /// Runs the search.
    #[must_use]
    pub fn run(&self, problem: &dyn SizingProblem, mode: Mode) -> RunHistory {
        let history = RunHistory::new(&problem.name(), "RS", self.settings.seed);
        let mut rng = StdRng::seed_from_u64(self.settings.seed);
        LoopCtx::new(problem, &mode, &self.settings).fill_random(history, &mut rng)
    }
}

/// Classic MACE (Lyu et al. / Zhang et al.): ARD-RBF GPs and the full
/// six-objective acquisition ensemble.
#[derive(Debug, Clone)]
pub struct MaceOptimizer {
    settings: BoSettings,
    variant: MaceVariant,
    label: String,
}

impl MaceOptimizer {
    /// Creates the canonical MACE baseline (six objectives, ARD kernel).
    #[must_use]
    pub fn new(settings: BoSettings) -> Self {
        MaceOptimizer {
            settings,
            variant: MaceVariant::Full,
            label: "MACE".to_string(),
        }
    }

    /// Uses the modified three-objective ensemble instead (for the §3.3
    /// ablation).
    #[must_use]
    pub fn with_variant(mut self, variant: MaceVariant, label: &str) -> Self {
        self.variant = variant;
        self.label = label.to_string();
        self
    }

    /// Runs the optimisation.
    #[must_use]
    pub fn run(&self, problem: &dyn SizingProblem, mode: Mode) -> RunHistory {
        let mut search = MaceSearch {
            variant: self.variant,
            surrogates: Surrogates::gp(&self.settings, false, None),
            seeds: |it, _| (it, 700 + it),
            stl: true,
            weights: StlWeights::new(1, 1.0),
        };
        LoopCtx::new(problem, &mode, &self.settings).run(&mut search, &self.label)
    }
}

/// SMAC-style BO with a random-forest surrogate and EI·PF acquisition over
/// a random + local-perturbation candidate pool of 800.
#[derive(Debug, Clone)]
pub struct SmacRf {
    settings: BoSettings,
}

impl SmacRf {
    /// Creates the baseline.
    #[must_use]
    pub fn new(settings: BoSettings) -> Self {
        SmacRf { settings }
    }

    /// Runs the optimisation.
    #[must_use]
    pub fn run(&self, problem: &dyn SizingProblem, mode: Mode) -> RunHistory {
        let mut search = PoolSearch {
            surrogates: Surrogates::Forest(Vec::new()),
            pool: 800,
            score: Score::Ei,
        };
        LoopCtx::new(problem, &mode, &self.settings).run(&mut search, "SMAC-RF")
    }
}

/// MESMOC-style max-value entropy search with constraints: 8
/// Gumbel-sampled posterior maxima over a random grid, MES acquisition,
/// multiplied by PF, over a random pool of 600.
#[derive(Debug, Clone)]
pub struct Mesmoc {
    settings: BoSettings,
}

impl Mesmoc {
    /// Creates the baseline.
    #[must_use]
    pub fn new(settings: BoSettings) -> Self {
        Mesmoc { settings }
    }

    /// Runs the optimisation.
    #[must_use]
    pub fn run(&self, problem: &dyn SizingProblem, mode: Mode) -> RunHistory {
        let mut search = PoolSearch {
            surrogates: Surrogates::gp(&self.settings, false, None),
            pool: 600,
            score: Score::Mes { n_max: 8 },
        };
        LoopCtx::new(problem, &mode, &self.settings).run(&mut search, "MESMOC")
    }
}

/// USEMOC-style uncertainty-aware search: among a random pool of 600
/// candidates, pick maximum posterior uncertainty among those predicted
/// feasible (σ·PF as the general score).
#[derive(Debug, Clone)]
pub struct Usemoc {
    settings: BoSettings,
}

impl Usemoc {
    /// Creates the baseline.
    #[must_use]
    pub fn new(settings: BoSettings) -> Self {
        Usemoc { settings }
    }

    /// Runs the optimisation.
    #[must_use]
    pub fn run(&self, problem: &dyn SizingProblem, mode: Mode) -> RunHistory {
        let mut search = PoolSearch {
            surrogates: Surrogates::gp(&self.settings, false, None),
            pool: 600,
            score: Score::Sigma,
        };
        LoopCtx::new(problem, &mode, &self.settings).run(&mut search, "USEMOC")
    }
}

/// The acquisition a pool baseline ranks its candidates by, always times
/// the probability of feasibility PF.
#[derive(Debug, Clone, Copy)]
enum Score {
    /// SMAC-RF: EI·PF, over the pool plus jittered copies of the best
    /// designs.
    Ei,
    /// MESMOC: max-value entropy over `n_max` Gumbel-sampled maxima, ·PF.
    Mes { n_max: usize },
    /// USEMOC: σ·PF with a mild exploitation tie-break.
    Sigma,
}

/// SMAC-RF, MESMOC and USEMOC: score a random candidate pool under one
/// surrogate stack and take the top `n_take`. Every draw comes from the
/// loop's RNG, in this order: MESMOC's 200-point grid and Gumbel maxima,
/// the pool, SMAC's 3×40 jitters.
struct PoolSearch {
    surrogates: Surrogates<'static>,
    pool: usize,
    score: Score,
}

impl Proposer for PoolSearch {
    fn fit(&mut self, ctx: &LoopCtx, archive: &Archive) -> Result<(), GpError> {
        self.surrogates.fit(ctx, archive)
    }

    fn propose(&self, ctx: &LoopCtx, round: &Round, rng: &mut StdRng) -> Batches {
        let (models, history) = (&self.surrogates.arms()[0], round.history);
        let dim = ctx.problem.dim();
        let incumbent = acquisition_incumbent(history, ctx.problem, ctx.mode);
        let maxima = match self.score {
            Score::Mes { n_max } => gumbel_maxima(models, dim, n_max, rng),
            _ => Vec::new(),
        };
        let mut candidates: Vec<Vec<f64>> =
            (0..self.pool).map(|_| random_design(dim, rng)).collect();
        if matches!(self.score, Score::Ei) {
            // Local search: uniform perturbations of the best designs.
            for base in warm_starts(history, 3) {
                for _ in 0..40 {
                    let jitter = base
                        .iter()
                        .map(|&v| (v + rng.gen_range(-0.08..0.08)).clamp(0.0, 1.0));
                    candidates.push(jitter.collect());
                }
            }
        }
        let (objs, margins) = models.posterior_batch(&candidates);
        let mut scored: Vec<(f64, usize)> = objs
            .iter()
            .zip(&margins)
            .enumerate()
            .map(|(i, (&(mu, var), m))| {
                let pf = probability_of_feasibility(m);
                let score = match self.score {
                    Score::Ei => expected_improvement(mu, var, incumbent) * pf,
                    Score::Mes { .. } => max_value_entropy(mu, var, &maxima) * pf,
                    Score::Sigma => var.max(0.0).sqrt() * pf + 0.05 * (mu - incumbent).max(0.0),
                };
                (score, i)
            })
            .collect();
        // Best first; the stable sort keeps pool order among ties.
        scored.sort_by(|a, b| kato_linalg::cmp_nan_worst(&b.0, &a.0));
        let top = scored.iter().take(round.n_take);
        vec![top.map(|&(_, i)| candidates[i].clone()).collect()]
    }

    fn update(&mut self, _: &LoopCtx, archive: &Archive) -> Result<(), GpError> {
        self.surrogates.update(archive)
    }
}

/// Gumbel approximation of the posterior-maximum distribution: `n_max`
/// samples below the best upper bound over a 200-point random grid.
fn gumbel_maxima(models: &MetricModels, dim: usize, n_max: usize, rng: &mut StdRng) -> Vec<f64> {
    let grid: Vec<Vec<f64>> = (0..200).map(|_| random_design(dim, rng)).collect();
    let post = models.objective_posterior_batch(&grid);
    let mean_best = post
        .iter()
        .map(|&(m, v)| m + 2.0 * v.sqrt())
        .fold(f64::NEG_INFINITY, f64::max);
    let spread = stats::std_dev(&post.iter().map(|&(m, _)| m).collect::<Vec<_>>()).max(1e-6);
    (0..n_max)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-6..1.0 - 1e-6);
            mean_best - spread * (-(u.ln())).ln().min(3.0) * 0.5
        })
        .collect()
}

/// MES acquisition of an `N(mu, var)` posterior over sampled maxima.
fn max_value_entropy(mu: f64, var: f64, maxima: &[f64]) -> f64 {
    let sigma = var.max(1e-18).sqrt();
    maxima.iter().fold(0.0, |mes, &y_star| {
        let gamma = (y_star - mu) / sigma;
        let cap = stats::norm_cdf(gamma).max(1e-12);
        mes + gamma * stats::norm_pdf(gamma) / (2.0 * cap) - cap.ln()
    })
}

/// TLMBO-style transfer BO (Zhang et al., DAC 2022): Gaussian-copula
/// quantile alignment of the source outputs into the target output
/// distribution, appended as pseudo-observations to one ARD GP searched
/// with modified MACE and refitted from scratch every round. Only defined
/// for same-design (technology-node) transfer and FOM optimisation, as in
/// the paper.
#[derive(Debug, Clone)]
pub struct Tlmbo {
    settings: BoSettings,
    source: SourceData,
    max_source: usize,
}

impl Tlmbo {
    /// Creates the baseline from a FOM-mode source archive (one output
    /// column, e.g. [`SourceData::from_problem_random_fom`]).
    ///
    /// # Panics
    ///
    /// Panics if the source archive is empty.
    #[must_use]
    pub fn new(settings: BoSettings, source: SourceData) -> Self {
        assert!(!source.xs.is_empty(), "TLMBO needs source data");
        Tlmbo {
            settings,
            source,
            max_source: 60,
        }
    }

    /// Copula-transforms the source outputs into the target distribution:
    /// `y' = Q_target(F_source(y))` via empirical CDF + target quantiles.
    fn transform_source(&self, target_ys: &[f64]) -> Vec<f64> {
        let ys = &self.source.columns[0];
        let aligned = ys
            .iter()
            .map(|&y| stats::quantile(target_ys, stats::ecdf(ys, y)));
        aligned.collect()
    }

    /// Runs the optimisation (FOM mode expected).
    ///
    /// # Panics
    ///
    /// Panics if the source dimensionality differs from the problem's.
    #[must_use]
    pub fn run(&self, problem: &dyn SizingProblem, mode: Mode) -> RunHistory {
        assert_eq!(
            self.source.dim,
            problem.dim(),
            "TLMBO requires the same design space (node transfer)"
        );
        let mut search = CopulaMace {
            tlmbo: self,
            models: None,
        };
        LoopCtx::new(problem, &mode, &self.settings).run(&mut search, "TLMBO")
    }
}

/// TLMBO's strategy. Its update is the default full refit; a failed one
/// keeps the previous model.
struct CopulaMace<'a> {
    tlmbo: &'a Tlmbo,
    models: Option<MetricModels>,
}

impl Proposer for CopulaMace<'_> {
    /// Fits one ARD GP to the first modelled column plus up to
    /// `max_source` copula-aligned source pseudo-observations.
    fn fit(&mut self, ctx: &LoopCtx, (xs, cols): &Archive) -> Result<(), GpError> {
        let (s, source) = (ctx.settings, &self.tlmbo.source);
        let mut xs = xs.clone();
        let mut ys = cols[0].clone();
        let aligned = self.tlmbo.transform_source(&ys);
        for (x, y) in source.xs.iter().zip(aligned).take(self.tlmbo.max_source) {
            xs.push(x.clone());
            ys.push(y);
        }
        let mut cfg = ModelConfig {
            gp: s.gp.clone(),
            neuk: false,
            ..ModelConfig::default()
        };
        cfg.gp.train_iters = s.refit_iters.max(10);
        let dim = ctx.problem.dim();
        self.models = Some(MetricModels::fit_gp(dim, &xs, &[ys], &fom_specs(), &cfg)?);
        Ok(())
    }

    fn propose(&self, ctx: &LoopCtx, round: &Round, _rng: &mut StdRng) -> Batches {
        let models = self.models.as_ref().expect("fitted before proposing");
        let n = round.history.len() as u64;
        let seeds = (n, 500 + n);
        let variant = MaceVariant::Modified;
        vec![mace_batch(
            variant,
            models,
            ctx,
            round.history,
            seeds,
            round.n_take,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_circuits::{FomSpec, Goal, Metrics, Spec, SpecKind, VarSpec};

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
                        kind: SpecKind::Objective(Goal::Maximize),
                    },
                    Spec {
                        metric: 1,
                        kind: SpecKind::GreaterEq(0.4),
                    },
                ],
            }
        }
    }

    impl SizingProblem for Toy {
        fn name(&self) -> String {
            "toy_b".into()
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
            let obj = 1.0 - (x[0] - 0.7).powi(2) - (x[1] - 0.3).powi(2);
            Metrics::new(vec![obj, x[0]])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![0.7, 0.3]
        }
    }

    #[test]
    fn random_search_fills_budget() {
        let toy = Toy::new();
        let h = RandomSearch::new(BoSettings::quick(20, 1)).run(&toy, Mode::Constrained);
        assert_eq!(h.len(), 20);
        assert_eq!(h.method, "RS");
    }

    #[test]
    fn mace_full_runs_and_improves() {
        let toy = Toy::new();
        let h = MaceOptimizer::new(BoSettings::quick(30, 2)).run(&toy, Mode::Constrained);
        assert_eq!(h.len(), 30);
        let c = h.best_curve();
        assert!(c[29] >= c[9]);
    }

    #[test]
    fn smac_rf_runs() {
        let toy = Toy::new();
        let h = SmacRf::new(BoSettings::quick(25, 3)).run(&toy, Mode::Constrained);
        assert_eq!(h.len(), 25);
        assert!(h.best().is_some());
    }

    #[test]
    fn mesmoc_runs() {
        let toy = Toy::new();
        let h = Mesmoc::new(BoSettings::quick(20, 4)).run(&toy, Mode::Constrained);
        assert_eq!(h.len(), 20);
    }

    #[test]
    fn usemoc_runs() {
        let toy = Toy::new();
        let h = Usemoc::new(BoSettings::quick(20, 5)).run(&toy, Mode::Constrained);
        assert_eq!(h.len(), 20);
    }

    #[test]
    fn tlmbo_runs_with_copula_source() {
        let toy = Toy::new();
        let fom = FomSpec::calibrate(&toy, 64, 7);
        let src = SourceData::from_problem_random_fom(&toy, &fom, 40, 11);
        let h = Tlmbo::new(BoSettings::quick(22, 6), src).run(&toy, Mode::Fom(fom));
        assert_eq!(h.len(), 22);
        assert_eq!(h.method, "TLMBO");
    }

    #[test]
    fn copula_transform_maps_into_target_range() {
        let toy = Toy::new();
        let fom = FomSpec::calibrate(&toy, 64, 7);
        let src = SourceData::from_problem_random_fom(&toy, &fom, 30, 13);
        let t = Tlmbo::new(BoSettings::quick(20, 6), src);
        let target_ys = vec![-2.0, -1.0, 0.0, 1.0, 2.0];
        let mapped = t.transform_source(&target_ys);
        for v in mapped {
            assert!((-2.0..=2.0).contains(&v), "mapped {v} outside target range");
        }
    }
}
