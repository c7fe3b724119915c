use crate::mace::{MaceProposer, MaceVariant};
use crate::model::{fit_source_gps, fom_specs, metric_columns};
use crate::{BoSettings, MetricModels, Mode, ModelConfig, RunHistory, StlWeights};
use kato_circuits::{larger_is_worse, random_design, FomSpec, Metrics, SizingProblem, Spec};
use kato_gp::GpError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Frozen source-circuit archive used for knowledge transfer: design
/// vectors plus one output column per modelled quantity (raw metrics in
/// constrained mode, FOM values in FOM mode).
#[derive(Debug, Clone)]
pub struct SourceData {
    /// Source design-space dimensionality.
    pub dim: usize,
    /// Source designs (unit cube of the *source* problem).
    pub xs: Vec<Vec<f64>>,
    /// Output columns, aligned by index with the target's modelled columns.
    pub columns: Vec<Vec<f64>>,
    /// Human-readable origin, e.g. `opamp2_180nm`.
    pub label: String,
}

impl SourceData {
    /// Samples `n` random designs on a source problem and records its raw
    /// metrics (constrained-mode transfer; paper §4.3 uses 200 samples).
    #[must_use]
    pub fn from_problem_random(problem: &dyn SizingProblem, n: usize, seed: u64) -> Self {
        Self::sampled(problem, n, seed, |ms| {
            metric_columns(&ms.iter().collect::<Vec<_>>())
        })
    }

    /// Builds a source archive from a **completed run's trace** — the entry
    /// point the persistent knowledge bank uses to turn yesterday's
    /// optimisation into today's warm start.
    ///
    /// Non-finite output entries (NaN-imputed/infeasible rows a real run
    /// legitimately contains) are imputed pessimistically per `specs`
    /// column exactly like live training data (see `training_view`), so a
    /// persisted archive round-trips into the same surrogate inputs the
    /// original run would have produced.
    #[must_use]
    pub fn from_history(history: &RunHistory, specs: &[Spec]) -> Self {
        let (xs, refs) = history.dataset();
        let mut columns = metric_columns(&refs);
        sanitize_columns(&mut columns, specs);
        SourceData {
            dim: xs.first().map_or(0, Vec::len),
            xs,
            columns,
            label: history.problem.clone(),
        }
    }

    /// Like [`SourceData::from_problem_random`] but records the source FOM
    /// (single column) for FOM-mode transfer.
    #[must_use]
    pub fn from_problem_random_fom(
        problem: &dyn SizingProblem,
        fom: &FomSpec,
        n: usize,
        seed: u64,
    ) -> Self {
        Self::sampled(problem, n, seed, |ms| {
            vec![ms.iter().map(|m| fom.fom(m)).collect()]
        })
    }

    /// `n` random designs on `problem`, evaluated in one batch, with the
    /// output columns `columns` derives from their metrics.
    fn sampled(
        problem: &dyn SizingProblem,
        n: usize,
        seed: u64,
        columns: impl FnOnce(&[Metrics]) -> Vec<Vec<f64>>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| random_design(problem.dim(), &mut rng))
            .collect();
        let metrics = crate::evaluate_batch_sharded(problem, &xs);
        SourceData {
            dim: problem.dim(),
            xs,
            columns: columns(&metrics),
            label: problem.name(),
        }
    }
}

/// The KATO optimizer (paper Algorithm 1).
///
/// Runs modified constrained MACE over a target-only NeukGP and — when a
/// [`SourceData`] is attached — a KAT-GP aligned from the source circuit,
/// splitting each batch between the two proposal sets with Selective
/// Transfer Learning weights (Eq. 14).
///
/// Without a source this degrades gracefully to "KATO w/o transfer": NeukGP
/// + modified MACE, the configuration used in the paper's Figs. 4–5.
#[derive(Debug, Clone)]
pub struct Kato {
    settings: BoSettings,
    source: Option<SourceData>,
    label: String,
    stl: bool,
    deadline: Option<Instant>,
}

impl Kato {
    /// Creates a KATO optimizer without transfer.
    #[must_use]
    pub fn new(settings: BoSettings) -> Self {
        Kato {
            settings,
            source: None,
            label: "KATO".to_string(),
            stl: true,
            deadline: None,
        }
    }

    /// Sets the wall-clock instant after which no further simulation
    /// starts (`None`: no deadline).
    ///
    /// The optimiser loop is synchronous and CPU-bound, so the deadline is
    /// *cooperative*: the loop checks it before every evaluation batch and
    /// at every BO iteration, so its granularity is one proposal batch.
    /// Once it has passed, the run stops proposing and returns the
    /// best-so-far history instead of hanging (or being killed from
    /// outside with the partial trace lost). A run cut short this way is
    /// *degraded*, not failed — detectable as `history.len() <
    /// settings.budget` — and serving layers report that to the caller
    /// rather than caching a partial result as if it were complete.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Attaches a source archive, enabling KAT-GP + STL.
    #[must_use]
    pub fn with_source(mut self, source: SourceData) -> Self {
        self.label = format!("KATO+TL[{}]", source.label);
        self.source = Some(source);
        self
    }

    /// Disables Selective Transfer Learning: with a source attached, every
    /// proposal comes from the KAT-GP ("forced transfer" — the §3.4 ablation
    /// showing why STL matters).
    #[must_use]
    pub fn with_forced_transfer(mut self) -> Self {
        self.stl = false;
        self
    }

    /// Overrides the method label used in run histories.
    #[must_use]
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Runs the optimisation and returns the full trace.
    #[must_use]
    pub fn run(&self, problem: &dyn SizingProblem, mode: Mode) -> RunHistory {
        self.ctx(problem, &mode)
            .run(&mut self.proposer(), &self.label)
    }

    /// Continues the optimisation from an **existing history** — the
    /// warm-start entry point.
    ///
    /// The evaluations already in `history` stand in for the cold random
    /// init: the BO loop fits its surrogates on them immediately and spends
    /// the remaining `budget − history.len()` simulations on model-guided
    /// proposals. Callers that hold an external archive (the serving
    /// bank's flow) typically record a handful of probe simulations into
    /// `history`, attach the best-aligned archive via
    /// [`Kato::with_source`], and resume — paying a fraction of `n_init`.
    ///
    /// `history` is returned unchanged when it already meets the budget.
    #[must_use]
    pub fn resume(
        &self,
        problem: &dyn SizingProblem,
        mode: Mode,
        history: RunHistory,
    ) -> RunHistory {
        // A fresh stream offset from the master seed: `run` consumed an
        // init-dependent amount of the seed stream before reaching the
        // loop, so the resume path derives its own.
        let rng = StdRng::seed_from_u64(self.settings.seed ^ 0x9E37_79B9_7F4A_7C15);
        self.ctx(problem, &mode)
            .resume(&mut self.proposer(), &self.label, history, rng)
    }

    fn ctx<'a>(&'a self, problem: &'a dyn SizingProblem, mode: &'a Mode) -> LoopCtx<'a> {
        LoopCtx {
            deadline: self.deadline,
            ..LoopCtx::new(problem, mode, &self.settings)
        }
    }

    /// Modified MACE over the NeukGP arm and, with a source, the KAT-GP arm.
    fn proposer(&self) -> MaceSearch<'_> {
        MaceSearch {
            variant: MaceVariant::Modified,
            surrogates: Surrogates::gp(&self.settings, true, self.source.as_ref()),
            seeds: |it, arm| (it * 7 + arm, 900 + it * 3 + arm),
            stl: self.stl,
            weights: StlWeights::new(1, 1.0),
        }
    }
}

/// One run of the shared BO loop: problem, mode, settings and an optional
/// cooperative deadline ([`Kato::with_deadline`]). KATO and every
/// model-based baseline run through [`LoopCtx::run`] / [`LoopCtx::resume`]
/// with their own [`Proposer`]; random search is [`LoopCtx::fill_random`].
pub(crate) struct LoopCtx<'a> {
    pub(crate) problem: &'a dyn SizingProblem,
    pub(crate) mode: &'a Mode,
    pub(crate) settings: &'a BoSettings,
    pub(crate) deadline: Option<Instant>,
}

/// The surrogates' training data: designs and imputed output columns
/// ([`training_view`]).
pub(crate) type Archive = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// What a proposal round sees: the history so far, the round number
/// (from 1) and the number of designs to propose across all arms.
pub(crate) struct Round<'a> {
    pub(crate) history: &'a RunHistory,
    pub(crate) iteration: u64,
    pub(crate) n_take: usize,
}

/// One batch of designs per arm.
pub(crate) type Batches = Vec<Vec<Vec<f64>>>;

/// An optimisation strategy as the shared BO loop drives it. The loop owns
/// the random init, evaluation, budgets and the random-fill fallback; a
/// strategy only fits, proposes and updates.
pub(crate) trait Proposer {
    /// Fits the surrogates on the initial archive; an error sends the run
    /// to random fill.
    fn fit(&mut self, ctx: &LoopCtx, archive: &Archive) -> Result<(), GpError>;

    /// Proposes one round. Randomness beyond the strategy's own derived
    /// seeds comes from `rng`, the loop's stream.
    fn propose(&self, ctx: &LoopCtx, round: &Round, rng: &mut StdRng) -> Batches;

    /// Credits `arm` with its designs that beat the round's incumbent.
    fn reward(&mut self, _arm: usize, _improvements: usize) {}

    /// Updates the surrogates to the grown archive — by default a fresh
    /// fit. On error the previous models stay in use.
    fn update(&mut self, ctx: &LoopCtx, archive: &Archive) -> Result<(), GpError> {
        self.fit(ctx, archive)
    }
}

impl<'a> LoopCtx<'a> {
    /// A run without a deadline.
    pub(crate) fn new(problem: &'a dyn SizingProblem, mode: &'a Mode, s: &'a BoSettings) -> Self {
        LoopCtx {
            problem,
            mode,
            settings: s,
            deadline: None,
        }
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Evaluates `designs` in one batched population, clamped to the
    /// settings budget, and returns the recorded scores. Nothing runs once
    /// the deadline has passed.
    fn evaluate(&self, history: &mut RunHistory, mut designs: Vec<Vec<f64>>) -> Vec<f64> {
        designs.truncate(self.settings.budget.saturating_sub(history.len()));
        if designs.is_empty() || self.expired() {
            return Vec::new();
        }
        history.evaluate_and_push_batch(self.problem, self.mode, designs)
    }

    /// Runs `proposer` after a random init of `n_init` designs drawn from
    /// the master seed's stream (drawn up front, the batch path records
    /// exactly what a scalar loop would).
    pub(crate) fn run(&self, proposer: &mut dyn Proposer, label: &str) -> RunHistory {
        let s = self.settings;
        let mut history = RunHistory::new(&self.problem.name(), label, s.seed);
        let mut rng = StdRng::seed_from_u64(s.seed);
        let n_init = s.n_init.min(s.budget);
        let designs = (0..n_init)
            .map(|_| random_design(self.problem.dim(), &mut rng))
            .collect();
        if self.evaluate(&mut history, designs).len() < n_init {
            return history; // The deadline cut the init short.
        }
        self.resume(proposer, label, history, rng)
    }

    /// The BO loop: fit on `history`, then propose, evaluate, reward and
    /// update until the settings budget is spent or the deadline passes.
    ///
    /// Each arm's batch is evaluated through [`LoopCtx::evaluate`] and
    /// rewarded with its count of designs beating the incumbent from
    /// before the round. When every arm comes back empty, the round spends
    /// one simulation on a random design from `rng`. The surrogates are
    /// updated only when another round follows, so no refit is wasted
    /// after the last batch.
    pub(crate) fn resume(
        &self,
        proposer: &mut dyn Proposer,
        label: &str,
        mut history: RunHistory,
        mut rng: StdRng,
    ) -> RunHistory {
        let s = self.settings;
        if history.len() >= s.budget {
            return history;
        }
        // The continued run is this optimiser's: its label replaces whatever
        // the probe/seed history carried (e.g. "KATO" → "KATO+bank[...]").
        history.method = label.to_string();
        if proposer.fit(self, &self.archive(&history)).is_err() {
            return self.fill_random(history, &mut rng);
        }
        let mut iteration: u64 = 0;
        // Cooperative cancellation point: a passed deadline ends the run
        // with the best-so-far trace.
        while history.len() < s.budget && !self.expired() {
            if iteration > 0 {
                // A failed update keeps the previous models in play.
                proposer.update(self, &self.archive(&history)).ok();
            }
            iteration += 1;
            let n_take = s.batch.min(s.budget - history.len()).max(1);
            let round = Round {
                history: &history,
                iteration,
                n_take,
            };
            let batches = proposer.propose(self, &round, &mut rng);
            if batches.iter().all(Vec::is_empty) {
                let x = random_design(self.problem.dim(), &mut rng);
                self.evaluate(&mut history, vec![x]);
            }
            let incumbent = history.incumbent();
            for (arm, batch) in batches.into_iter().enumerate() {
                let scores = self.evaluate(&mut history, batch);
                let better = scores
                    .iter()
                    .filter(|&&sc| sc > incumbent && sc > f64::NEG_INFINITY);
                proposer.reward(arm, better.count());
            }
        }
        history
    }

    fn archive(&self, history: &RunHistory) -> Archive {
        training_view(history, self.problem, self.mode)
    }

    /// Spends the remaining budget on random search (still honouring the
    /// deadline) in proposal-batch-sized chunks: big enough to amortise
    /// the pool fan-out, small enough that deadline checks stay frequent.
    pub(crate) fn fill_random(&self, mut history: RunHistory, rng: &mut StdRng) -> RunHistory {
        let chunk = self.settings.batch.max(1);
        while history.len() < self.settings.budget && !self.expired() {
            let n = chunk.min(self.settings.budget - history.len());
            let designs = (0..n).map(|_| random_design(self.problem.dim(), rng));
            if self.evaluate(&mut history, designs.collect()).is_empty() {
                break;
            }
        }
        history
    }
}

/// A strategy's surrogate stacks ("arms"): arm 0 is target-only; with a
/// source attached whose KAT-GP fit succeeds, that KAT-GP is arm 1.
pub(crate) enum Surrogates<'a> {
    /// One GP per modelled column — Neural Kernel or ARD-RBF per
    /// `fit_cfg.neuk` — fitted with `fit_cfg` and updated with `refit_cfg`.
    Gp {
        source: Option<&'a SourceData>,
        fit_cfg: ModelConfig,
        refit_cfg: ModelConfig,
        arms: Vec<MetricModels>,
    },
    /// One random forest per column (SMAC-RF), fitted by
    /// [`MetricModels::fit_forest`]; every update refits it from scratch.
    Forest(Vec<MetricModels>),
}

impl<'a> Surrogates<'a> {
    /// GP surrogates — Neural Kernel (`neuk`) or ARD-RBF — fitted with the
    /// settings' configs and updated with `refit_iters` training
    /// iterations.
    pub(crate) fn gp(s: &BoSettings, neuk: bool, source: Option<&'a SourceData>) -> Self {
        let fit_cfg = ModelConfig {
            gp: s.gp.clone(),
            kat: s.kat.clone(),
            neuk,
        };
        let mut refit_cfg = fit_cfg.clone();
        refit_cfg.gp.train_iters = s.refit_iters;
        refit_cfg.kat.train_iters = s.refit_iters;
        Surrogates::Gp {
            source,
            fit_cfg,
            refit_cfg,
            arms: Vec::new(),
        }
    }

    /// The fitted surrogate stacks, one per arm.
    pub(crate) fn arms(&self) -> &[MetricModels] {
        match self {
            Surrogates::Gp { arms, .. } | Surrogates::Forest(arms) => arms,
        }
    }

    pub(crate) fn fit(&mut self, ctx: &LoopCtx, (xs, cols): &Archive) -> Result<(), GpError> {
        let specs = modelled_specs(ctx.problem, ctx.mode);
        match self {
            Surrogates::Forest(arms) => *arms = vec![MetricModels::fit_forest(xs, cols, &specs)],
            Surrogates::Gp {
                source,
                fit_cfg,
                arms,
                ..
            } => {
                let dim = ctx.problem.dim();
                let target = MetricModels::fit_gp(dim, xs, cols, &specs, fit_cfg)?;
                let kat = source.and_then(|src| {
                    let gps = fit_source_gps(src.dim, &src.xs, &src.columns, fit_cfg).ok()?;
                    MetricModels::fit_kat(dim, &gps, xs, cols, &specs, fit_cfg).ok()
                });
                *arms = std::iter::once(target).chain(kat).collect();
            }
        }
        Ok(())
    }

    /// Updates every arm, even past a failing one, and returns the first
    /// error.
    pub(crate) fn update(&mut self, (xs, cols): &Archive) -> Result<(), GpError> {
        match self {
            Surrogates::Forest(arms) => {
                for arm in arms {
                    *arm = MetricModels::fit_forest(xs, cols, arm.specs());
                }
                Ok(())
            }
            Surrogates::Gp {
                refit_cfg, arms, ..
            } => {
                let results: Vec<_> = arms
                    .iter_mut()
                    .map(|m| m.update(xs, cols, refit_cfg))
                    .collect();
                results.into_iter().collect()
            }
        }
    }
}

/// The MACE-family strategy: an NSGA-II search of the MACE acquisition
/// per arm, the batch split between arms by STL weights (Eq. 14). KATO is
/// modified MACE over the NeukGP (+ KAT-GP) arms; the MACE baseline is
/// full or modified MACE over one ARD-GP arm.
pub(crate) struct MaceSearch<'a> {
    pub(crate) variant: MaceVariant,
    pub(crate) surrogates: Surrogates<'a>,
    /// NSGA-II and batch-sampler seed offsets of `(round, arm)`.
    pub(crate) seeds: fn(u64, u64) -> (u64, u64),
    /// `false` sends the whole batch to the KAT-GP arm (forced transfer).
    pub(crate) stl: bool,
    /// STL weights, sized to the arms by `fit`.
    pub(crate) weights: StlWeights,
}

impl Proposer for MaceSearch<'_> {
    fn fit(&mut self, ctx: &LoopCtx, archive: &Archive) -> Result<(), GpError> {
        self.surrogates.fit(ctx, archive)?;
        let init = ctx.settings.n_init.max(1) as f64;
        self.weights = StlWeights::new(self.surrogates.arms().len(), init);
        Ok(())
    }

    fn propose(&self, ctx: &LoopCtx, round: &Round, _rng: &mut StdRng) -> Batches {
        let arms = self.surrogates.arms();
        // Proposal sets P1 (NeukGP) and P2 (KAT-GP), Algorithm 1 line 5.
        let counts = if self.stl || arms.len() == 1 {
            self.weights.split_batch(round.n_take)
        } else {
            vec![0, round.n_take]
        };
        // The per-arm searches are independent (each derives its own seeds),
        // so they run concurrently; order-preserving par_map keeps the trace
        // identical across thread counts.
        let tasks: Vec<(usize, usize)> = counts.into_iter().enumerate().collect();
        kato_par::par_map(&tasks, |&(arm, count)| {
            let seeds = (self.seeds)(round.iteration, arm as u64);
            mace_batch(self.variant, &arms[arm], ctx, round.history, seeds, count)
        })
    }

    fn reward(&mut self, arm: usize, improvements: usize) {
        self.weights.reward(arm, improvements);
    }

    fn update(&mut self, _: &LoopCtx, archive: &Archive) -> Result<(), GpError> {
        self.surrogates.update(archive)
    }
}

/// `count` designs sampled uniformly from the NSGA-II Pareto front of the
/// `variant` MACE acquisition over `models`, warm-started from the best
/// designs in `history`; NSGA-II and the sampler seed from the master
/// seed plus `(nsga, sampler)`.
pub(crate) fn mace_batch(
    variant: MaceVariant,
    models: &MetricModels,
    ctx: &LoopCtx,
    history: &RunHistory,
    (nsga, sampler): (u64, u64),
    count: usize,
) -> Vec<Vec<f64>> {
    if count == 0 {
        return Vec::new();
    }
    let (s, dim) = (ctx.settings, ctx.problem.dim());
    let incumbent = acquisition_incumbent(history, ctx.problem, ctx.mode);
    let warm = warm_starts(history, 5);
    let front = MaceProposer::new(variant).pareto_front(models, dim, incumbent, s, nsga, &warm);
    let mut rng = StdRng::seed_from_u64(s.seed.wrapping_add(sampler));
    MaceProposer::sample_batch(&front, count, &mut rng)
}

/// The spec table the surrogates serve under a given mode.
pub(crate) fn modelled_specs(problem: &dyn SizingProblem, mode: &Mode) -> Vec<Spec> {
    match mode {
        Mode::Fom(_) => fom_specs(),
        Mode::Constrained => problem.specs().to_vec(),
    }
}

/// Training data view under a mode: raw metric columns (constrained) or the
/// single FOM column. Non-finite entries (a misbehaving simulator returning
/// NaN/±∞) are imputed pessimistically per column so surrogate training
/// never ingests NaN: the worst observed finite value in the column's spec
/// direction (finite minimum for maximised/`≥` columns, finite maximum for
/// minimised/`≤` ones), or `0.0` when the column has no finite entry at
/// all.
pub(crate) fn training_view(
    history: &RunHistory,
    problem: &dyn SizingProblem,
    mode: &Mode,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let (xs, refs) = history.dataset();
    let mut cols = match mode {
        Mode::Fom(fom) => vec![refs.iter().map(|m| fom.fom(m)).collect()],
        Mode::Constrained => metric_columns(&refs),
    };
    sanitize_columns(&mut cols, &modelled_specs(problem, mode));
    (xs, cols)
}

/// Replaces non-finite column entries with the worst finite value in the
/// column's spec direction (see [`training_view`]).
pub(crate) fn sanitize_columns(cols: &mut [Vec<f64>], specs: &[Spec]) {
    for (j, col) in cols.iter_mut().enumerate() {
        if col.iter().all(|v| v.is_finite()) {
            continue;
        }
        let finite = col.iter().copied().filter(|v| v.is_finite());
        let fill = if larger_is_worse(specs, j) {
            finite.fold(f64::NEG_INFINITY, f64::max)
        } else {
            finite.fold(f64::INFINITY, f64::min)
        };
        let fill = if fill.is_finite() { fill } else { 0.0 };
        for v in col.iter_mut() {
            if !v.is_finite() {
                *v = fill;
            }
        }
    }
}

/// Incumbent handed to EI/PI: the best score, or — before anything is
/// feasible in constrained mode — the best *soft* score
/// `objective − 10·violation`, so acquisitions stay informative.
pub(crate) fn acquisition_incumbent(
    history: &RunHistory,
    problem: &dyn SizingProblem,
    mode: &Mode,
) -> f64 {
    let inc = history.incumbent();
    if inc > f64::NEG_INFINITY {
        return inc;
    }
    match mode {
        Mode::Fom(_) => inc,
        Mode::Constrained => history
            .evals
            .iter()
            .map(|e| {
                e.metrics.objective(problem.specs()).unwrap_or(0.0)
                    - 10.0 * e.metrics.violation(problem.specs())
            })
            .fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Top-`k` designs by score (soft score when nothing is feasible), used to
/// warm-start the NSGA-II population.
pub(crate) fn warm_starts(history: &RunHistory, k: usize) -> Vec<Vec<f64>> {
    let mut scored: Vec<(f64, &Vec<f64>)> = history
        .evals
        .iter()
        .map(|e| {
            let s = if e.score > f64::NEG_INFINITY {
                e.score
            } else {
                -1e6
            };
            (s, &e.x)
        })
        .collect();
    scored.sort_by(|a, b| kato_linalg::cmp_nan_worst(&b.0, &a.0));
    scored.iter().take(k).map(|(_, x)| (*x).clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_circuits::{Goal, SpecKind, VarSpec};

    /// 2-D constrained toy: maximise `1−(x0−0.7)²−(x1−0.3)²` s.t. `x0 ≥ 0.4`.
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
            "toy_quad".into()
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
    fn kato_beats_its_own_random_init() {
        let toy = Toy::new();
        let settings = BoSettings::quick(35, 11);
        let h = Kato::new(settings).run(&toy, Mode::Constrained);
        assert_eq!(h.len(), 35);
        let curve = h.best_curve();
        let after_init = curve[9];
        let end = curve[34];
        assert!(
            end > after_init,
            "BO must improve over init: {after_init} vs {end}"
        );
        assert!(end > 0.9, "should approach the optimum, got {end}");
    }

    #[test]
    fn kato_with_source_runs_and_improves() {
        let toy = Toy::new();
        let source = SourceData::from_problem_random(&toy, 40, 5);
        let settings = BoSettings::quick(30, 3);
        let h = Kato::new(settings)
            .with_source(source)
            .run(&toy, Mode::Constrained);
        assert_eq!(h.len(), 30);
        assert!(h.method.contains("KATO+TL"));
        assert!(h.best().is_some());
    }

    #[test]
    fn resume_continues_an_existing_history() {
        let toy = Toy::new();
        let mut settings = BoSettings::quick(24, 6);
        settings.n_init = 6;
        // Pre-seed a probe history of 6 evaluations by hand.
        let mut probe = RunHistory::new(&toy.name(), "KATO", 6);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..6 {
            probe.evaluate_and_push(&toy, &Mode::Constrained, random_design(2, &mut rng));
        }
        let h = Kato::new(settings.clone()).resume(&toy, Mode::Constrained, probe.clone());
        assert_eq!(h.len(), 24);
        // The probe prefix is preserved verbatim.
        for (a, b) in h.evals.iter().zip(&probe.evals) {
            assert_eq!(a.x, b.x);
        }
        // A history already at budget comes back unchanged.
        let full =
            Kato::new(BoSettings::quick(6, 6)).resume(&toy, Mode::Constrained, probe.clone());
        assert_eq!(full.len(), 6);
        // Resume with a source archive attached (the bank's warm path).
        let source = SourceData::from_problem_random(&toy, 30, 1);
        let hw = Kato::new(settings)
            .with_source(source)
            .resume(&toy, Mode::Constrained, probe);
        assert_eq!(hw.len(), 24);
        assert!(hw.best().is_some());
    }

    #[test]
    fn from_history_sanitizes_non_finite_columns() {
        let problem = NanZone { inner: Toy::new() };
        let mut h = RunHistory::new("nan_zone", "t", 0);
        h.evaluate_and_push(&problem, &Mode::Constrained, vec![0.1, 0.5]); // NaN zone
        h.evaluate_and_push(&problem, &Mode::Constrained, vec![0.6, 0.4]);
        h.evaluate_and_push(&problem, &Mode::Constrained, vec![0.8, 0.2]);
        let src = SourceData::from_history(&h, problem.specs());
        assert_eq!(src.dim, 2);
        assert_eq!(src.xs.len(), 3);
        assert_eq!(src.label, "nan_zone");
        for col in &src.columns {
            assert!(col.iter().all(|v| v.is_finite()), "{:?}", src.columns);
        }
    }

    #[test]
    fn run_budget_degrades_instead_of_overrunning() {
        let toy = Toy::new();
        // An already-expired deadline stops the run before the first
        // simulation: a degraded-but-clean exit.
        let h = Kato::new(BoSettings::quick(30, 5))
            .with_deadline(Some(Instant::now()))
            .run(&toy, Mode::Constrained);
        assert_eq!(h.len(), 0);
        // A deadline that never fires changes nothing.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let full = Kato::new(BoSettings::quick(18, 5))
            .with_deadline(Some(far))
            .run(&toy, Mode::Constrained);
        let plain = Kato::new(BoSettings::quick(18, 5)).run(&toy, Mode::Constrained);
        assert_eq!(full.len(), 18);
        for (a, b) in full.evals.iter().zip(&plain.evals) {
            assert_eq!(a.x, b.x);
        }
    }

    /// Scripted two-arm strategy: random designs split across the arms
    /// (none at all when `empty`), counting the loop's calls.
    #[derive(Default)]
    struct Scripted {
        fail_fit: bool,
        empty: bool,
        updates: usize,
        rewards: Vec<(usize, usize)>,
    }

    impl Proposer for Scripted {
        fn fit(&mut self, _: &LoopCtx, _: &Archive) -> Result<(), GpError> {
            if self.fail_fit {
                Err(GpError::GramNotPd)
            } else {
                Ok(())
            }
        }

        fn propose(&self, ctx: &LoopCtx, round: &Round, rng: &mut StdRng) -> Batches {
            if self.empty {
                return vec![Vec::new(), Vec::new()];
            }
            let mut draw = |n: usize| -> Vec<Vec<f64>> {
                (0..n)
                    .map(|_| random_design(ctx.problem.dim(), rng))
                    .collect()
            };
            let first = round.n_take - round.n_take / 2;
            vec![draw(first), draw(round.n_take / 2)]
        }

        fn reward(&mut self, arm: usize, improvements: usize) {
            self.rewards.push((arm, improvements));
        }

        fn update(&mut self, _: &LoopCtx, _: &Archive) -> Result<(), GpError> {
            self.updates += 1;
            Ok(())
        }
    }

    #[test]
    fn driver_updates_only_between_rounds() {
        let toy = Toy::new();
        let settings = BoSettings::quick(22, 4); // init 10, then 5 + 5 + 2
        let ctx = LoopCtx::new(&toy, &Mode::Constrained, &settings);
        let mut p = Scripted::default();
        let h = ctx.run(&mut p, "scripted");
        assert_eq!(h.len(), 22);
        assert_eq!(h.method, "scripted");
        // Three rounds, each rewarding both arms; no refit after the last.
        assert_eq!(p.updates, 2);
        let arms: Vec<usize> = p.rewards.iter().map(|&(arm, _)| arm).collect();
        assert_eq!(arms, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn driver_falls_back_to_random_designs() {
        let toy = Toy::new();
        let settings = BoSettings::quick(14, 4);
        let ctx = LoopCtx::new(&toy, &Mode::Constrained, &settings);
        // Empty proposals: one random design per round.
        let mut p = Scripted {
            empty: true,
            ..Scripted::default()
        };
        assert_eq!(ctx.run(&mut p, "empty").len(), 14);
        assert_eq!(p.updates, 3);
        assert!(p.rewards.iter().all(|&(_, n)| n == 0));
        // A failed initial fit spends the budget on random fill, drawing
        // from the same stream as the init.
        let mut p = Scripted {
            fail_fit: true,
            ..Scripted::default()
        };
        let h = ctx.run(&mut p, "fallback");
        assert_eq!(h.len(), 14);
        assert_eq!(p.updates, 0);
        let mut rng = StdRng::seed_from_u64(4);
        for e in &h.evals {
            assert_eq!(e.x, random_design(2, &mut rng));
        }
    }

    #[test]
    fn budget_is_respected_exactly() {
        let toy = Toy::new();
        let h = Kato::new(BoSettings::quick(17, 2)).run(&toy, Mode::Constrained);
        assert_eq!(h.len(), 17);
    }

    #[test]
    fn fom_mode_runs() {
        use kato_circuits::FomSpec;
        let toy = Toy::new();
        let fom = FomSpec::calibrate(&toy, 64, 1);
        let h = Kato::new(BoSettings::quick(25, 4)).run(&toy, Mode::Fom(fom));
        assert_eq!(h.len(), 25);
        // FOM scores are always finite → best exists from the start.
        assert!(h.best().is_some());
        let c = h.best_curve();
        assert!(c[24] >= c[9]);
    }

    #[test]
    fn incumbent_fallback_when_nothing_feasible() {
        let toy = Toy::new();
        let mut h = RunHistory::new("t", "m", 0);
        // Only infeasible points (x0 < 0.4).
        h.evaluate_and_push(&toy, &Mode::Constrained, vec![0.1, 0.5]);
        h.evaluate_and_push(&toy, &Mode::Constrained, vec![0.3, 0.5]);
        let inc = acquisition_incumbent(&h, &toy, &Mode::Constrained);
        assert!(inc.is_finite());
        // Closer to feasibility (0.3) has smaller violation → higher soft score.
        let soft_03 = toy.evaluate(&[0.3, 0.5]).objective(toy.specs()).unwrap()
            - 10.0 * toy.evaluate(&[0.3, 0.5]).violation(toy.specs());
        assert!((inc - soft_03).abs() < 1e-12);
    }

    /// Toy with a NaN "dead zone": the simulator returns NaN/∞ metrics for
    /// `x0 < 0.25` — a model of a simulator that fails to converge in part
    /// of the design space.
    struct NanZone {
        inner: Toy,
    }

    impl SizingProblem for NanZone {
        fn name(&self) -> String {
            "nan_zone".into()
        }
        fn variables(&self) -> &[VarSpec] {
            self.inner.variables()
        }
        fn metric_names(&self) -> &[&'static str] {
            self.inner.metric_names()
        }
        fn specs(&self) -> &[Spec] {
            self.inner.specs()
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            if x[0] < 0.25 {
                Metrics::new(vec![f64::NAN, f64::INFINITY])
            } else {
                self.inner.evaluate(x)
            }
        }
        fn expert_design(&self) -> Vec<f64> {
            self.inner.expert_design()
        }
    }

    #[test]
    fn nan_subregion_never_panics_and_budget_completes() {
        // End-to-end regression for the NaN-safety fixes: the full KATO
        // loop (GP fits, MACE/NSGA-II acquisition search, STL splits,
        // incumbent tracking) must run its whole budget even though a
        // subregion of the simulator returns non-finite metrics.
        let problem = NanZone { inner: Toy::new() };
        let h = Kato::new(BoSettings::quick(28, 13)).run(&problem, Mode::Constrained);
        assert_eq!(h.len(), 28);
        assert!(h.evals.iter().all(|e| !e.score.is_nan()));
        // Designs in the dead zone are recorded as infeasible, not winners.
        for e in &h.evals {
            if e.x[0] < 0.25 {
                assert_eq!(e.score, f64::NEG_INFINITY);
                assert!(!e.feasible);
            }
        }
        // The optimizer still makes progress in the live region.
        assert!(h.incumbent().is_finite());
    }

    #[test]
    fn training_view_imputes_non_finite_pessimistically() {
        let problem = NanZone { inner: Toy::new() };
        let mut h = RunHistory::new("nan_zone", "t", 0);
        h.evaluate_and_push(&problem, &Mode::Constrained, vec![0.1, 0.5]); // NaN zone
        h.evaluate_and_push(&problem, &Mode::Constrained, vec![0.5, 0.5]);
        h.evaluate_and_push(&problem, &Mode::Constrained, vec![0.9, 0.1]);
        let (_, cols) = training_view(&h, &problem, &Mode::Constrained);
        for col in &cols {
            assert!(col.iter().all(|v| v.is_finite()), "{cols:?}");
        }
        // Maximised objective column: NaN imputed with the finite minimum.
        let min_obj = cols[0][1].min(cols[0][2]);
        assert_eq!(cols[0][0], min_obj);
    }

    #[test]
    fn sanitize_columns_direction_follows_spec() {
        use kato_circuits::{Goal, SpecKind};
        let specs = vec![
            Spec {
                metric: 0,
                kind: SpecKind::Objective(Goal::Minimize),
            },
            Spec {
                metric: 1,
                kind: SpecKind::GreaterEq(0.5),
            },
        ];
        let mut cols = vec![
            vec![1.0, f64::NAN, 3.0],
            vec![0.2, f64::INFINITY, 0.8],
            vec![f64::NAN, f64::NAN, f64::NAN],
        ];
        sanitize_columns(&mut cols, &specs);
        assert_eq!(cols[0][1], 3.0); // minimised → worst = finite max
        assert_eq!(cols[1][1], 0.2); // lower-bounded → worst = finite min
        assert_eq!(cols[2], vec![0.0, 0.0, 0.0]); // nothing finite → 0.0
    }

    #[test]
    fn source_data_shapes() {
        let toy = Toy::new();
        let s = SourceData::from_problem_random(&toy, 25, 9);
        assert_eq!(s.xs.len(), 25);
        assert_eq!(s.columns.len(), 2);
        assert_eq!(s.columns[0].len(), 25);
        assert_eq!(s.dim, 2);
    }
}
