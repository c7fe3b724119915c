//! The paper's comparison methods as one value type, [`Baseline`]:
//! random search, MACE, SMAC-RF, MESMOC, USEMOC and TLMBO.
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

/// TLMBO's cap on copula-aligned source pseudo-observations per fit.
const TLMBO_MAX_SOURCE: usize = 60;

/// One of the paper's comparison methods. Each is a strategy of the
/// shared BO loop, run by [`Baseline::run`] under the caller's settings.
#[derive(Debug, Clone)]
pub enum Baseline {
    /// Pure random search (the paper's RS baseline).
    Random,
    /// Classic MACE (Lyu et al. / Zhang et al.): ARD-RBF GPs searched with
    /// an acquisition ensemble, canonically the full six-objective one
    /// ([`MaceVariant::Full`]); [`MaceVariant::Modified`] is the
    /// three-objective ensemble of the §3.3 ablation.
    Mace(MaceVariant),
    /// SMAC-style BO with a random-forest surrogate and EI·PF acquisition
    /// over a random + local-perturbation candidate pool of 800.
    SmacRf,
    /// MESMOC-style max-value entropy search with constraints: 8
    /// Gumbel-sampled posterior maxima over a random grid, MES acquisition,
    /// multiplied by PF, over a random pool of 600.
    Mesmoc,
    /// USEMOC-style uncertainty-aware search: among a random pool of 600
    /// candidates, pick maximum posterior uncertainty among those predicted
    /// feasible (σ·PF as the general score).
    Usemoc,
    /// TLMBO-style transfer BO (Zhang et al., DAC 2022) from a FOM-mode
    /// source archive (one output column, e.g.
    /// [`SourceData::from_problem_random_fom`]): Gaussian-copula quantile
    /// alignment of the source outputs into the target output
    /// distribution, appended as pseudo-observations to one ARD GP searched
    /// with modified MACE and refitted from scratch every round. Only
    /// defined for same-design (technology-node) transfer and FOM
    /// optimisation, as in the paper.
    Tlmbo(SourceData),
}

impl Baseline {
    /// The method name its run histories carry.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Baseline::Random => "RS",
            Baseline::Mace(_) => "MACE",
            Baseline::SmacRf => "SMAC-RF",
            Baseline::Mesmoc => "MESMOC",
            Baseline::Usemoc => "USEMOC",
            Baseline::Tlmbo(_) => "TLMBO",
        }
    }

    /// Runs the method on `problem` under `settings` (TLMBO expects FOM
    /// mode).
    ///
    /// # Panics
    ///
    /// TLMBO panics if its source archive is empty or its dimensionality
    /// differs from the problem's.
    #[must_use]
    pub fn run(
        &self,
        settings: &BoSettings,
        problem: &dyn SizingProblem,
        mode: Mode,
    ) -> RunHistory {
        let ctx = LoopCtx::new(problem, &mode, settings);
        let gp = || Surrogates::gp(settings, false, None);
        let pool = |surrogates, pool, score| -> Box<dyn Proposer> {
            Box::new(PoolSearch {
                surrogates,
                pool,
                score,
            })
        };
        let mut search: Box<dyn Proposer + '_> = match self {
            Baseline::Random => {
                let history = RunHistory::new(&problem.name(), self.label(), settings.seed);
                let mut rng = StdRng::seed_from_u64(settings.seed);
                return ctx.fill_random(history, &mut rng);
            }
            Baseline::Mace(variant) => Box::new(MaceSearch {
                variant: *variant,
                surrogates: gp(),
                seeds: |it, _| (it, 700 + it),
                stl: true,
                weights: StlWeights::new(1, 1.0),
            }),
            Baseline::SmacRf => pool(Surrogates::Forest(Vec::new()), 800, Score::Ei),
            Baseline::Mesmoc => pool(gp(), 600, Score::Mes { n_max: 8 }),
            Baseline::Usemoc => pool(gp(), 600, Score::Sigma),
            Baseline::Tlmbo(source) => {
                assert!(!source.xs.is_empty(), "TLMBO needs source data");
                assert_eq!(
                    source.dim,
                    problem.dim(),
                    "TLMBO requires the same design space (node transfer)"
                );
                Box::new(CopulaMace {
                    source,
                    models: None,
                })
            }
        };
        ctx.run(search.as_mut(), self.label())
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

/// Copula-transforms the source outputs into the target distribution:
/// `y' = Q_target(F_source(y))` via empirical CDF + target quantiles.
fn transform_source(source: &SourceData, target_ys: &[f64]) -> Vec<f64> {
    let ys = &source.columns[0];
    let aligned = ys
        .iter()
        .map(|&y| stats::quantile(target_ys, stats::ecdf(ys, y)));
    aligned.collect()
}

/// TLMBO's strategy. Its update is the default full refit; a failed one
/// keeps the previous model.
struct CopulaMace<'a> {
    source: &'a SourceData,
    models: Option<MetricModels>,
}

impl Proposer for CopulaMace<'_> {
    /// Fits one ARD GP to the first modelled column plus up to
    /// [`TLMBO_MAX_SOURCE`] copula-aligned source pseudo-observations.
    fn fit(&mut self, ctx: &LoopCtx, (xs, cols): &Archive) -> Result<(), GpError> {
        let (s, source) = (ctx.settings, self.source);
        let mut xs = xs.clone();
        let mut ys = cols[0].clone();
        let aligned = transform_source(source, &ys);
        for (x, y) in source.xs.iter().zip(aligned).take(TLMBO_MAX_SOURCE) {
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
        let h = Baseline::Random.run(&BoSettings::quick(20, 1), &toy, Mode::Constrained);
        assert_eq!(h.len(), 20);
        assert_eq!(h.method, "RS");
    }

    #[test]
    fn mace_full_runs_and_improves() {
        let toy = Toy::new();
        let h = Baseline::Mace(MaceVariant::Full).run(
            &BoSettings::quick(30, 2),
            &toy,
            Mode::Constrained,
        );
        assert_eq!(h.len(), 30);
        let c = h.best_curve();
        assert!(c[29] >= c[9]);
    }

    #[test]
    fn smac_rf_runs() {
        let toy = Toy::new();
        let h = Baseline::SmacRf.run(&BoSettings::quick(25, 3), &toy, Mode::Constrained);
        assert_eq!(h.len(), 25);
        assert!(h.best().is_some());
    }

    #[test]
    fn mesmoc_runs() {
        let toy = Toy::new();
        let h = Baseline::Mesmoc.run(&BoSettings::quick(20, 4), &toy, Mode::Constrained);
        assert_eq!(h.len(), 20);
    }

    #[test]
    fn usemoc_runs() {
        let toy = Toy::new();
        let h = Baseline::Usemoc.run(&BoSettings::quick(20, 5), &toy, Mode::Constrained);
        assert_eq!(h.len(), 20);
    }

    #[test]
    fn tlmbo_runs_with_copula_source() {
        let toy = Toy::new();
        let fom = FomSpec::calibrate(&toy, 64, 7);
        let src = SourceData::from_problem_random_fom(&toy, &fom, 40, 11);
        let h = Baseline::Tlmbo(src).run(&BoSettings::quick(22, 6), &toy, Mode::Fom(fom));
        assert_eq!(h.len(), 22);
        assert_eq!(h.method, "TLMBO");
    }

    #[test]
    fn every_baseline_spends_the_budget_under_its_label() {
        let toy = Toy::new();
        let fom = FomSpec::calibrate(&toy, 64, 7);
        let src = SourceData::from_problem_random_fom(&toy, &fom, 40, 11);
        let cases = [
            (Baseline::Random, Mode::Constrained, "RS"),
            (Baseline::Mace(MaceVariant::Full), Mode::Constrained, "MACE"),
            (
                Baseline::Mace(MaceVariant::Modified),
                Mode::Constrained,
                "MACE",
            ),
            (Baseline::SmacRf, Mode::Constrained, "SMAC-RF"),
            (Baseline::Mesmoc, Mode::Constrained, "MESMOC"),
            (Baseline::Usemoc, Mode::Constrained, "USEMOC"),
            (Baseline::Tlmbo(src), Mode::Fom(fom), "TLMBO"),
        ];
        for (seed, (baseline, mode, label)) in (0u64..).zip(cases) {
            let h = baseline.run(&BoSettings::quick(14, 40 + seed), &toy, mode);
            assert_eq!(baseline.label(), label);
            assert_eq!(h.method, label);
            assert_eq!(h.len(), 14, "{label} must spend exactly its budget");
        }
    }

    #[test]
    fn copula_transform_maps_into_target_range() {
        let toy = Toy::new();
        let fom = FomSpec::calibrate(&toy, 64, 7);
        let src = SourceData::from_problem_random_fom(&toy, &fom, 30, 13);
        let target_ys = vec![-2.0, -1.0, 0.0, 1.0, 2.0];
        let mapped = transform_source(&src, &target_ys);
        for v in mapped {
            assert!((-2.0..=2.0).contains(&v), "mapped {v} outside target range");
        }
    }
}
