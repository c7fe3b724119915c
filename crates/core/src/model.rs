use kato_circuits::{Goal, Metrics, Spec, SpecKind};
use kato_forest::RandomForest;
use kato_gp::{Gp, GpBatch, GpConfig, GpError, KatBatch, KatConfig, KatGp, KernelSpec};

/// Configuration bundle for (re)fitting the per-output surrogates.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// GP fit configuration.
    pub gp: GpConfig,
    /// KAT-GP fit configuration.
    pub kat: KatConfig,
    /// Use the Neural Kernel (`true`, KATO's NeukGP) or ARD-RBF (`false`,
    /// plain-GP baselines).
    pub neuk: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            gp: GpConfig::default(),
            kat: KatConfig::default(),
            neuk: true,
        }
    }
}

/// One scalar surrogate: Neuk/ARD GP, transferred KAT-GP, or random forest.
#[derive(Debug, Clone)]
pub enum Model {
    /// Target-only Gaussian process.
    Gp(Box<Gp>),
    /// Knowledge-aligned transfer GP.
    Kat(Box<KatGp>),
    /// Random forest (SMAC surrogate).
    Forest(Box<RandomForest>),
}

impl Model {
    /// Posterior mean and variance at every query point — batched
    /// inference. GP-family surrogates share one Cholesky application
    /// across the whole batch ([`Gp::predict_batch`] /
    /// [`KatGp::predict_batch`]); forests fan the points out over the
    /// [`kato_par`] pool.
    #[must_use]
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        match self {
            Model::Gp(gp) => gp.predict_batch(xs),
            Model::Kat(kat) => kat.predict_batch(xs),
            Model::Forest(f) => kato_par::par_map(xs, |x| f.predict(x)),
        }
    }

    /// This surrogate's posterior prepared at `xs`, between its two phases.
    fn prepare_batch<'a>(&'a self, xs: &'a [Vec<f64>]) -> Batch<'a> {
        match self {
            Model::Gp(gp) => Batch::Gp(gp.prepare_batch(xs)),
            Model::Kat(kat) => Batch::Kat(kat.prepare_batch(xs)),
            Model::Forest(f) => Batch::Forest(f, xs),
        }
    }
}

/// Column `j`'s random forest, seeded with `j` so the columns of one
/// stack draw independent bootstraps.
fn column_forest(xs: &[Vec<f64>], ys: &[f64], j: usize) -> RandomForest {
    RandomForest::fit(xs, ys, j as u64)
}

/// Extracts per-metric output columns from an archive of metric vectors.
#[must_use]
pub fn metric_columns(metrics: &[&Metrics]) -> Vec<Vec<f64>> {
    let n_outputs = metrics.first().map_or(0, |m| m.values().len());
    (0..n_outputs)
        .map(|j| metrics.iter().map(|m| m.get(j)).collect())
        .collect()
}

/// Per-output surrogate stack plus the spec table needed to turn output
/// posteriors into objective/constraint posteriors.
///
/// Every optimizer in this crate models raw output columns (one surrogate
/// per column) and derives the signed objective and constraint margins at
/// acquisition time, so the same models serve EI/PI/UCB and PF. In FOM mode
/// there is a single column (the FOM value) and a single maximise spec.
#[derive(Debug, Clone)]
pub struct MetricModels {
    models: Vec<Model>,
    specs: Vec<Spec>,
}

impl MetricModels {
    /// Fits target-only GPs (Neuk or ARD per `config.neuk`) for every
    /// column.
    ///
    /// # Errors
    ///
    /// Propagates GP fitting failures.
    pub fn fit_gp(
        dim: usize,
        xs: &[Vec<f64>],
        columns: &[Vec<f64>],
        specs: &[Spec],
        config: &ModelConfig,
    ) -> Result<MetricModels, GpError> {
        // Per-column fits are independent (each derives its own seed from
        // the column index), so they fan out over the kato_par pool.
        let idx: Vec<usize> = (0..columns.len()).collect();
        let fitted = kato_par::par_map(&idx, |&j| {
            let kernel = if config.neuk {
                KernelSpec::neuk(dim)
            } else {
                KernelSpec::ard_rbf(dim)
            };
            let mut cfg = config.gp.clone();
            cfg.seed = cfg.seed.wrapping_add(j as u64);
            Gp::fit(kernel, xs, &columns[j], &cfg)
        });
        let mut models = Vec::with_capacity(columns.len());
        for gp in fitted {
            models.push(Model::Gp(Box::new(gp?)));
        }
        Ok(MetricModels {
            models,
            specs: specs.to_vec(),
        })
    }

    /// Fits random forests for every column (SMAC baseline).
    #[must_use]
    pub fn fit_forest(xs: &[Vec<f64>], columns: &[Vec<f64>], specs: &[Spec]) -> MetricModels {
        let idx: Vec<usize> = (0..columns.len()).collect();
        let models = kato_par::par_map(&idx, |&j| {
            Model::Forest(Box::new(column_forest(xs, &columns[j], j)))
        });
        MetricModels {
            models,
            specs: specs.to_vec(),
        }
    }

    /// Fits KAT-GPs transferred from per-column source GPs. Columns are
    /// aligned by index; target columns beyond the source's count fall back
    /// to target-only Neuk GPs.
    ///
    /// # Errors
    ///
    /// Propagates fitting failures.
    pub fn fit_kat(
        dim: usize,
        source: &[Gp],
        xs: &[Vec<f64>],
        columns: &[Vec<f64>],
        specs: &[Spec],
        config: &ModelConfig,
    ) -> Result<MetricModels, GpError> {
        let idx: Vec<usize> = (0..columns.len()).collect();
        let fitted = kato_par::par_map(&idx, |&j| {
            let ys = &columns[j];
            if let Some(src) = source.get(j) {
                let mut cfg = config.kat.clone();
                cfg.seed = cfg.seed.wrapping_add(j as u64);
                Ok::<Model, GpError>(Model::Kat(Box::new(KatGp::fit(src, xs, ys, &cfg)?)))
            } else {
                let mut cfg = config.gp.clone();
                cfg.seed = cfg.seed.wrapping_add(j as u64);
                Ok(Model::Gp(Box::new(Gp::fit(
                    KernelSpec::neuk(dim),
                    xs,
                    ys,
                    &cfg,
                )?)))
            }
        });
        let mut models = Vec::with_capacity(columns.len());
        for model in fitted {
            models.push(model?);
        }
        Ok(MetricModels {
            models,
            specs: specs.to_vec(),
        })
    }

    /// Updates every surrogate to the grown dataset — the per-BO-iteration
    /// path. GP-family columns go through [`Gp::update`] /
    /// [`KatGp::update`]: when the archive is the stored training set plus
    /// new rows — the steady state of the BO loop — the new rows are
    /// appended (for a GP through a rank-k extension of the held Cholesky
    /// factor) and hyperparameter optimisation is warm-started from (for a
    /// GP, possibly skipped at) the previous optimum; columns whose history
    /// was retro-imputed fall back to a full refit. Forests have no
    /// incremental form: each column is refitted exactly as
    /// [`MetricModels::fit_forest`] fits it, so an updated forest stack is
    /// bitwise a fresh one.
    ///
    /// # Errors
    ///
    /// Propagates fitting failures.
    pub fn update(
        &mut self,
        xs: &[Vec<f64>],
        columns: &[Vec<f64>],
        config: &ModelConfig,
    ) -> Result<(), GpError> {
        let mut jobs: Vec<(usize, &mut Model, &Vec<f64>)> = self
            .models
            .iter_mut()
            .zip(columns)
            .enumerate()
            .map(|(j, (model, ys))| (j, model, ys))
            .collect();
        let results = kato_par::par_map_mut(&mut jobs, |(j, model, ys)| match model {
            Model::Gp(gp) => gp.update(xs, ys, &config.gp),
            Model::Kat(kat) => kat.update(xs, ys, &config.kat),
            Model::Forest(f) => {
                **f = column_forest(xs, ys, *j);
                Ok(())
            }
        });
        results.into_iter().collect()
    }

    /// Metric and direction of the objective the acquisition reads: the
    /// first objective spec.
    fn objective_spec(&self) -> Option<(usize, Goal)> {
        self.specs.iter().find_map(|spec| match spec.kind {
            SpecKind::Objective(goal) => Some((spec.metric, goal)),
            _ => None,
        })
    }

    /// Posterior of the signed objective (larger = better) at every query
    /// point from the objective surrogate's own [`Model::predict_batch`],
    /// for callers that need no constraint margins.
    #[must_use]
    pub fn objective_posterior_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        match self.objective_spec() {
            Some((metric, goal)) => self.models[metric]
                .predict_batch(xs)
                .into_iter()
                .map(|post| signed(goal, post))
                .collect(),
            None => vec![(0.0, 1.0); xs.len()],
        }
    }

    /// The acquisition posterior of a whole population: the signed
    /// objective (larger = better) at every query point and one margin
    /// vector per point (non-negative = satisfied; outer index = point,
    /// inner = constraint in spec order).
    ///
    /// Every surrogate the spec table reads is prepared once — a surrogate
    /// shared by the objective and a constraint is predicted once — and all
    /// `(surrogate, query)` rows run in **one** [`kato_par`] fan-out; each
    /// GP-family surrogate then finishes with one batched triangular solve
    /// (a forest's row is simply its prediction). Values equal each
    /// surrogate's [`Model::predict_batch`] bitwise.
    #[must_use]
    pub fn posterior_batch(&self, xs: &[Vec<f64>]) -> (Vec<Moments>, Vec<Vec<Moments>>) {
        if xs.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let objective = self.objective_spec();
        let mut used: Vec<usize> = objective.iter().map(|&(metric, _)| metric).collect();
        for spec in &self.specs {
            if !matches!(spec.kind, SpecKind::Objective(_)) && !used.contains(&spec.metric) {
                used.push(spec.metric);
            }
        }
        let batches: Vec<Batch> = used
            .iter()
            .map(|&metric| self.models[metric].prepare_batch(xs))
            .collect();
        let items: Vec<(usize, usize)> = (0..batches.len())
            .flat_map(|b| (0..xs.len()).map(move |j| (b, j)))
            .collect();
        let rows = kato_par::par_map(&items, |&(b, j)| batches[b].row(j));
        let posts: Vec<Vec<(f64, f64)>> = batches
            .iter()
            .zip(rows.chunks(xs.len()))
            .map(|(batch, rows)| batch.finish(rows))
            .collect();
        let post = |metric: usize| &posts[used.iter().position(|&m| m == metric).expect("used")];

        let objective = match objective {
            Some((metric, goal)) => post(metric).iter().map(|&p| signed(goal, p)).collect(),
            None => vec![(0.0, 1.0); xs.len()],
        };
        let mut margins = vec![Vec::new(); xs.len()];
        for spec in &self.specs {
            match spec.kind {
                SpecKind::GreaterEq(b) => {
                    for (point, &(m, v)) in margins.iter_mut().zip(post(spec.metric)) {
                        point.push((m - b, v));
                    }
                }
                SpecKind::LessEq(b) => {
                    for (point, &(m, v)) in margins.iter_mut().zip(post(spec.metric)) {
                        point.push((b - m, v));
                    }
                }
                SpecKind::Objective(_) => {}
            }
        }
        (objective, margins)
    }

    /// Access to the per-column models.
    #[must_use]
    pub fn models(&self) -> &[Model] {
        &self.models
    }

    /// The spec table these models serve.
    #[must_use]
    pub fn specs(&self) -> &[Spec] {
        &self.specs
    }
}

/// A posterior's mean and variance `(µ, σ²)`.
pub type Moments = (f64, f64);

/// `(µ, σ²)` of a metric as a larger-is-better objective posterior.
fn signed(goal: Goal, (m, v): (f64, f64)) -> (f64, f64) {
    match goal {
        Goal::Maximize => (m, v),
        Goal::Minimize => (-m, v),
    }
}

/// A surrogate's batched posterior between its two phases: rows that any
/// worker may compute, then a finish per surrogate.
enum Batch<'a> {
    Gp(GpBatch<'a>),
    Kat(KatBatch<'a>),
    Forest(&'a RandomForest, &'a [Vec<f64>]),
}

impl Batch<'_> {
    /// Query `j`'s row: a cross-covariance row, or a forest's `[µ, σ²]`.
    fn row(&self, j: usize) -> Vec<f64> {
        match self {
            Batch::Gp(batch) => batch.row(j),
            Batch::Kat(batch) => batch.row(j),
            Batch::Forest(forest, xs) => {
                let (m, v) = forest.predict(&xs[j]);
                vec![m, v]
            }
        }
    }

    /// Posterior moments of every query from its row.
    fn finish(&self, rows: &[Vec<f64>]) -> Vec<(f64, f64)> {
        match self {
            Batch::Gp(batch) => batch.finish(rows),
            Batch::Kat(batch) => batch.finish(rows),
            Batch::Forest(..) => rows.iter().map(|row| (row[0], row[1])).collect(),
        }
    }
}

/// The spec table used in FOM mode: a single maximised column.
#[must_use]
pub fn fom_specs() -> Vec<Spec> {
    vec![Spec {
        metric: 0,
        kind: SpecKind::Objective(Goal::Maximize),
    }]
}

/// Fits one target-only Neuk GP per output column of a *source* archive —
/// the frozen knowledge bank handed to [`MetricModels::fit_kat`].
///
/// # Errors
///
/// Propagates GP fitting failures.
pub fn fit_source_gps(
    dim: usize,
    xs: &[Vec<f64>],
    columns: &[Vec<f64>],
    config: &ModelConfig,
) -> Result<Vec<Gp>, GpError> {
    let idx: Vec<usize> = (0..columns.len()).collect();
    kato_par::par_map(&idx, |&j| {
        let mut cfg = config.gp.clone();
        cfg.seed = cfg.seed.wrapping_add(100 + j as u64);
        Gp::fit(KernelSpec::neuk(dim), xs, &columns[j], &cfg)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_gp::{GpConfig, KatConfig};

    fn toy_specs() -> Vec<Spec> {
        vec![
            Spec {
                metric: 0,
                kind: SpecKind::Objective(Goal::Minimize),
            },
            Spec {
                metric: 1,
                kind: SpecKind::GreaterEq(0.5),
            },
            Spec {
                metric: 2,
                kind: SpecKind::LessEq(0.8),
            },
        ]
    }

    /// Metrics: [x0+x1, x0, x1].
    fn toy_data(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                vec![t, (t * 3.7) % 1.0]
            })
            .collect();
        let columns = vec![
            xs.iter().map(|x| x[0] + x[1]).collect(),
            xs.iter().map(|x| x[0]).collect(),
            xs.iter().map(|x| x[1]).collect(),
        ];
        (xs, columns)
    }

    fn quick_cfg() -> ModelConfig {
        ModelConfig {
            gp: GpConfig::fast(),
            kat: KatConfig::fast(),
            ..ModelConfig::default()
        }
    }

    #[test]
    fn gp_models_predict_each_column() {
        let (xs, cols) = toy_data(14);
        let models = MetricModels::fit_gp(2, &xs, &cols, &toy_specs(), &quick_cfg()).unwrap();
        let (mean, _) = models.models()[1].predict_batch(&[vec![0.3, 0.7]])[0];
        assert!((mean - 0.3).abs() < 0.2, "column-1 mean {mean}");
    }

    #[test]
    fn objective_posterior_is_signed() {
        let (xs, cols) = toy_data(14);
        let models = MetricModels::fit_gp(2, &xs, &cols, &toy_specs(), &quick_cfg()).unwrap();
        let (obj, _) = models.objective_posterior_batch(&[vec![0.5, 0.5]])[0];
        // cost(0.5,0.5) = 1.0 → signed −1.
        assert!((obj + 1.0).abs() < 0.35, "signed objective {obj}");
    }

    #[test]
    fn margin_posteriors_follow_spec_sense() {
        let (xs, cols) = toy_data(14);
        let models = MetricModels::fit_gp(2, &xs, &cols, &toy_specs(), &quick_cfg()).unwrap();
        let (_, margins) = models.posterior_batch(&[vec![0.9, 0.1]]);
        let margins = &margins[0];
        assert_eq!(margins.len(), 2);
        assert!((margins[0].0 - 0.4).abs() < 0.3, "{margins:?}");
        assert!((margins[1].0 - 0.7).abs() < 0.3, "{margins:?}");
    }

    #[test]
    fn forest_models_work_too() {
        let (xs, cols) = toy_data(30);
        let models = MetricModels::fit_forest(&xs, &cols, &toy_specs());
        let (m, v) = models.objective_posterior_batch(&[vec![0.5, 0.5]])[0];
        assert!(m.is_finite() && v > 0.0);
    }

    #[test]
    fn forest_update_is_bitwise_a_fresh_fit_forest() {
        // Forests have no incremental form: updating a forest stack must
        // refit every column exactly as `fit_forest` does, column seed
        // offset included.
        let cfg = quick_cfg();
        let (xs, cols) = toy_data(12);
        let mut updated = MetricModels::fit_forest(&xs, &cols, &toy_specs());
        let (xs2, cols2) = toy_data(20);
        updated.update(&xs2, &cols2, &cfg).unwrap();
        let fresh = MetricModels::fit_forest(&xs2, &cols2, &toy_specs());
        let queries = [vec![0.1, 0.9], vec![0.5, 0.5], vec![0.77, 0.2]];
        let bits = |m: &Model| -> Vec<(u64, u64)> {
            let post = m.predict_batch(&queries);
            post.iter()
                .map(|(mu, var)| (mu.to_bits(), var.to_bits()))
                .collect()
        };
        for (j, (u, f)) in updated.models().iter().zip(fresh.models()).enumerate() {
            assert_eq!(bits(u), bits(f), "column {j}");
        }
    }

    #[test]
    fn kat_models_with_index_alignment_and_fallback() {
        let (xs, cols) = toy_data(16);
        let cfg = quick_cfg();
        // Source has only 2 columns → third target column falls back to GP.
        let sources = fit_source_gps(2, &xs, &cols[..2], &cfg).unwrap();
        assert_eq!(sources.len(), 2);
        let models = MetricModels::fit_kat(2, &sources, &xs, &cols, &toy_specs(), &cfg).unwrap();
        assert!(matches!(models.models()[0], Model::Kat(_)));
        assert!(matches!(models.models()[2], Model::Gp(_)));
        let (m, v) = models.objective_posterior_batch(&[vec![0.4, 0.6]])[0];
        assert!(m.is_finite() && v > 0.0);
    }

    #[test]
    fn batched_posteriors_match_pointwise() {
        let (xs, cols) = toy_data(14);
        let cfg = quick_cfg();
        let queries: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![i as f64 / 8.0, (i as f64 * 2.3) % 1.0])
            .collect();
        // GP stack, KAT stack, and forest stack all honour the batch API.
        let gp_models = MetricModels::fit_gp(2, &xs, &cols, &toy_specs(), &cfg).unwrap();
        let sources = fit_source_gps(2, &xs, &cols[..2], &cfg).unwrap();
        let kat_models =
            MetricModels::fit_kat(2, &sources, &xs, &cols, &toy_specs(), &cfg).unwrap();
        let forest_models = MetricModels::fit_forest(&xs, &cols, &toy_specs());
        for models in [&gp_models, &kat_models, &forest_models] {
            let obj = models.objective_posterior_batch(&queries);
            let (joint_obj, margins) = models.posterior_batch(&queries);
            assert_eq!(obj, joint_obj);
            assert_eq!(margins.len(), queries.len());
            for (i, q) in queries.iter().enumerate() {
                let (m, v) = models.objective_posterior_batch(std::slice::from_ref(q))[0];
                assert!((obj[i].0 - m).abs() <= 1e-10 * (1.0 + m.abs()), "{m}");
                assert!((obj[i].1 - v).abs() <= 1e-10 * (1.0 + v.abs()), "{v}");
                let (_, pm) = models.posterior_batch(std::slice::from_ref(q));
                assert_eq!(margins[i].len(), pm[0].len());
                for (a, b) in margins[i].iter().zip(&pm[0]) {
                    assert!((a.0 - b.0).abs() <= 1e-10 * (1.0 + b.0.abs()));
                    assert!((a.1 - b.1).abs() <= 1e-10 * (1.0 + b.1.abs()));
                }
            }
        }
        assert!(gp_models.objective_posterior_batch(&[]).is_empty());
    }

    #[test]
    fn posterior_batch_equals_each_surrogates_batch_bitwise() {
        // The one-fan-out posterior must be exactly what each surrogate's
        // own `predict_batch` gives, for GP, KAT-GP (with a source) and
        // forest stacks — here with an objective and a constraint reading
        // the same column, so that surrogate is shared.
        let (xs, cols) = toy_data(14);
        let cfg = quick_cfg();
        let queries: Vec<Vec<f64>> = (0..11)
            .map(|i| vec![i as f64 / 10.0, (i as f64 * 1.7) % 1.0])
            .collect();
        let mut specs = toy_specs();
        specs.push(Spec {
            metric: 0,
            kind: SpecKind::LessEq(1.5),
        });
        let sources = fit_source_gps(2, &xs, &cols[..2], &cfg).unwrap();
        let stacks = [
            MetricModels::fit_gp(2, &xs, &cols, &specs, &cfg).unwrap(),
            MetricModels::fit_kat(2, &sources, &xs, &cols, &specs, &cfg).unwrap(),
            MetricModels::fit_forest(&xs, &cols, &specs),
        ];
        assert!(matches!(stacks[1].models()[0], Model::Kat(_)));
        let bits = |p: &[(f64, f64)]| -> Vec<(u64, u64)> {
            p.iter().map(|&(m, v)| (m.to_bits(), v.to_bits())).collect()
        };
        for models in &stacks {
            let preds: Vec<Vec<(f64, f64)>> = models
                .models()
                .iter()
                .map(|m| m.predict_batch(&queries))
                .collect();
            let (obj, margins) = models.posterior_batch(&queries);
            // Minimised column 0 → signed (−µ, σ²).
            let want_obj: Vec<(f64, f64)> = preds[0].iter().map(|&(m, v)| (-m, v)).collect();
            assert_eq!(bits(&obj), bits(&want_obj));
            for (j, point) in margins.iter().enumerate() {
                let want = [
                    (preds[1][j].0 - 0.5, preds[1][j].1),
                    (0.8 - preds[2][j].0, preds[2][j].1),
                    (1.5 - preds[0][j].0, preds[0][j].1),
                ];
                assert_eq!(bits(point), bits(&want), "point {j}");
            }
        }

        // An empty batch, and a spec table without an objective: (0, 1)
        // for the objective, margins still served.
        let gp = &stacks[0];
        assert_eq!(gp.posterior_batch(&[]), (Vec::new(), Vec::new()));
        let constraints_only = MetricModels {
            models: gp.models.clone(),
            specs: specs[1..].to_vec(),
        };
        let (obj, margins) = constraints_only.posterior_batch(&queries);
        assert_eq!(obj, vec![(0.0, 1.0); queries.len()]);
        assert!(margins.iter().all(|m| m.len() == 3));
    }

    #[test]
    fn update_refits_all() {
        let (xs, cols) = toy_data(10);
        let cfg = quick_cfg();
        let mut models = MetricModels::fit_gp(2, &xs, &cols, &toy_specs(), &cfg).unwrap();
        let (xs2, cols2) = toy_data(18);
        models.update(&xs2, &cols2, &cfg).unwrap();
        let (m, _) = models.objective_posterior_batch(&[vec![0.5, 0.5]])[0];
        assert!(m.is_finite());
    }

    #[test]
    fn update_takes_append_path_on_grown_archive() {
        // Same prefix + new rows — the steady state of the BO loop. The
        // models must end up conditioned on all rows through the rank-k
        // append path (and the posterior must track the new region).
        let (xs, cols) = toy_data(12);
        let cfg = quick_cfg();
        let mut models = MetricModels::fit_gp(2, &xs, &cols, &toy_specs(), &cfg).unwrap();
        let mut xs2 = xs.clone();
        let mut cols2 = cols.clone();
        for i in 0..6 {
            let t = 1.0 + i as f64 * 0.05;
            xs2.push(vec![t, (t * 3.7) % 1.0]);
            let x = xs2.last().unwrap();
            cols2[0].push(x[0] + x[1]);
            cols2[1].push(x[0]);
            cols2[2].push(x[1]);
        }
        models.update(&xs2, &cols2, &cfg).unwrap();
        let q = [1.2, (1.2 * 3.7) % 1.0];
        let (m, _) = models.models()[1].predict_batch(&[q.to_vec()])[0];
        assert!((m - 1.2).abs() < 0.3, "column-1 tracks appended rows: {m}");
    }

    #[test]
    fn fom_specs_single_maximise() {
        let s = fom_specs();
        assert_eq!(s.len(), 1);
        assert!(matches!(s[0].kind, SpecKind::Objective(Goal::Maximize)));
    }

    #[test]
    fn metric_columns_transpose() {
        use kato_circuits::Metrics;
        let m1 = Metrics::new(vec![1.0, 2.0]);
        let m2 = Metrics::new(vec![3.0, 4.0]);
        let cols = metric_columns(&[&m1, &m2]);
        assert_eq!(cols, vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
    }
}
