//! A benchmark-owned copy of `Kato::run` / `Kato::resume` (constrained
//! mode, no run budget) that calls the same public functions in the same
//! order, with a span around each layer call.
//!
//! Only three crate-private helpers are re-implemented here: the training
//! view with pessimistic imputation, the acquisition incumbent and the
//! NSGA-II warm starts. The fidelity gate compares every history this
//! loop produces with the real one, record by record, and the per-layer
//! numbers are withheld on any difference.

use crate::cpu;
use crate::trace::Tracer;
use kato::{
    fit_source_gps, metric_columns, BoSettings, MaceProposer, MaceVariant, MetricModels, Mode,
    ModelConfig, RunHistory, SourceData, StlWeights,
};
use kato_circuits::{random_design, Goal, Metrics, SizingProblem, Spec, SpecKind};
use kato_gp::{GpConfig, KatConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Counters the loop records beside its spans.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// `MetricModels::update` calls that returned `Err` (the real loop
    /// drops these with `let _ =`).
    pub update_errors: u64,
    /// Pareto-front size of every proposal search.
    pub front_sizes: Vec<usize>,
}

/// Mirror of `Kato::new(settings).run(problem, Mode::Constrained)`.
pub fn run(
    problem: &dyn SizingProblem,
    settings: &BoSettings,
    tracer: &mut Tracer,
    stats: &mut LoopStats,
) -> Result<RunHistory, String> {
    let mut history = RunHistory::new(&problem.name(), "KATO", settings.seed);
    let mut rng = StdRng::seed_from_u64(settings.seed);
    let n_init = settings.n_init.min(settings.budget);
    if n_init > 0 {
        let designs: Vec<Vec<f64>> = (0..n_init)
            .map(|_| random_design(problem.dim(), &mut rng))
            .collect();
        tracer.span("sim.eval", |_| {
            history.evaluate_and_push_batch(problem, &Mode::Constrained, designs)
        });
    }
    resume(problem, settings, None, "KATO", history, tracer, stats)
}

/// Mirror of `Kato::new(settings)[.with_source(src).with_label(label)]
/// .resume(problem, Mode::Constrained, history)`, which is also the tail
/// of `Kato::run` after the random init: fit, then propose, simulate and
/// update until the budget is spent. `Kato`'s random stream is only read
/// here by the random-fill fallback after a failed initial fit, which the
/// mirror reports as an error instead of following.
pub fn resume(
    problem: &dyn SizingProblem,
    s: &BoSettings,
    source: Option<&SourceData>,
    label: &str,
    mut history: RunHistory,
    tracer: &mut Tracer,
    stats: &mut LoopStats,
) -> Result<RunHistory, String> {
    let dim = problem.dim();
    if history.len() >= s.budget {
        return Ok(history);
    }
    history.method = label.to_string();
    let model_cfg = ModelConfig {
        gp: s.gp.clone(),
        kat: s.kat.clone(),
        neuk: true,
        ..ModelConfig::default()
    };
    let specs = problem.specs().to_vec();
    let (xs, cols) = training_view(&history, &specs);
    let mut neuk_models = tracer
        .span("model.fit", |_| {
            MetricModels::fit_gp(dim, &xs, &cols, &specs, &model_cfg)
        })
        .map_err(|e| {
            format!("initial fit failed ({e}); the random-fill fallback is not mirrored")
        })?;
    let mut kat_models = source.and_then(|src| {
        tracer.span("model.kat_fit", |_| {
            let gps = fit_source_gps(src.dim, &src.xs, &src.columns, &model_cfg).ok()?;
            MetricModels::fit_kat(dim, &gps, &xs, &cols, &specs, &model_cfg).ok()
        })
    });
    let n_proposers = 1 + usize::from(kat_models.is_some());
    let mut weights = StlWeights::new(n_proposers, s.n_init.max(1) as f64);
    let proposer = MaceProposer::new(MaceVariant::Modified);
    let refit_cfg = ModelConfig {
        gp: GpConfig {
            train_iters: s.refit_iters,
            ..s.gp.clone()
        },
        kat: KatConfig {
            train_iters: s.refit_iters,
            ..s.kat.clone()
        },
        neuk: true,
        ..ModelConfig::default()
    };

    let mut iteration: u64 = 0;
    while history.len() < s.budget {
        iteration += 1;
        tracer.span("loop.iteration", |tracer| {
            let incumbent = acquisition_incumbent(&history, &specs);
            let warm = warm_starts(&history, 5);
            let n_take = s.batch.min(s.budget - history.len()).max(1);
            let counts = weights.split_batch(n_take);
            let tasks: Vec<(usize, usize)> = counts.iter().copied().enumerate().collect();
            let proposals = tracer.span("propose", |tracer| {
                let out = kato_par::par_map(&tasks, |&(i, count)| {
                    if count == 0 {
                        return (Vec::new(), None);
                    }
                    let models: &MetricModels = if i == 0 {
                        &neuk_models
                    } else {
                        kat_models.as_ref().expect("kat models present")
                    };
                    let start = Instant::now();
                    let cpu = cpu::thread_ms();
                    let front = proposer.pareto_front(
                        models,
                        dim,
                        incumbent,
                        s,
                        iteration * 7 + i as u64,
                        &warm,
                    );
                    let mut prop_rng =
                        StdRng::seed_from_u64(s.seed.wrapping_add(900 + iteration * 3 + i as u64));
                    let batch = MaceProposer::sample_batch(&front, count, &mut prop_rng);
                    let cost = cpu::thread_ms() - cpu;
                    (batch, Some((start, Instant::now(), cost, front.len())))
                });
                for (_, timing) in &out {
                    if let Some((start, end, cost, front)) = *timing {
                        tracer.record("propose.call", start, end, cost);
                        stats.front_sizes.push(front);
                    }
                }
                out
            });

            let incumbent_before = history.incumbent();
            for (i, (batch, _)) in proposals.iter().enumerate() {
                let mut improvements = 0;
                let take = batch.len().min(s.budget.saturating_sub(history.len()));
                if take > 0 {
                    let scores = tracer.span("sim.eval", |_| {
                        history.evaluate_and_push_batch(
                            problem,
                            &Mode::Constrained,
                            batch[..take].to_vec(),
                        )
                    });
                    improvements = scores
                        .iter()
                        .filter(|&&sc| sc > incumbent_before && sc > f64::NEG_INFINITY)
                        .count();
                }
                weights.reward(i, improvements);
            }

            let (xs, cols) = training_view(&history, &specs);
            if tracer
                .span("model.update", |_| {
                    neuk_models.update(&xs, &cols, &refit_cfg)
                })
                .is_err()
            {
                stats.update_errors += 1;
            }
            if let Some(kat) = kat_models.as_mut() {
                if tracer
                    .span("model.kat_update", |_| kat.update(&xs, &cols, &refit_cfg))
                    .is_err()
                {
                    stats.update_errors += 1;
                }
            }
        });
    }
    Ok(history)
}

/// Training view in constrained mode: raw metric columns with non-finite
/// entries replaced by the worst finite value in the column's spec
/// direction (0 when none is finite) — `kato_opt::training_view`.
fn training_view(history: &RunHistory, specs: &[Spec]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let xs: Vec<Vec<f64>> = history.evals.iter().map(|e| e.x.clone()).collect();
    let refs: Vec<&Metrics> = history.evals.iter().map(|e| &e.metrics).collect();
    let mut cols = metric_columns(&refs);
    for (j, col) in cols.iter_mut().enumerate() {
        if col.iter().all(|v| v.is_finite()) {
            continue;
        }
        let larger_is_worse = specs.iter().any(|s| {
            s.metric == j
                && matches!(
                    s.kind,
                    SpecKind::Objective(Goal::Minimize) | SpecKind::LessEq(_)
                )
        });
        let finite = col.iter().copied().filter(|v| v.is_finite());
        let fill = if larger_is_worse {
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
    (xs, cols)
}

/// Best score, or before anything is feasible the best soft score
/// `objective − 10·violation` — `kato_opt::acquisition_incumbent`.
fn acquisition_incumbent(history: &RunHistory, specs: &[Spec]) -> f64 {
    let inc = history.incumbent();
    if inc > f64::NEG_INFINITY {
        return inc;
    }
    history
        .evals
        .iter()
        .map(|e| e.metrics.objective(specs).unwrap_or(0.0) - 10.0 * e.metrics.violation(specs))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Top-`k` designs by score (−10⁶ for unscored) — `kato_opt::warm_starts`.
fn warm_starts(history: &RunHistory, k: usize) -> Vec<Vec<f64>> {
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

/// Index of the first record where two histories differ in design bits,
/// metric bits, score bits or feasibility (or the shorter length).
pub fn first_difference(a: &RunHistory, b: &RunHistory) -> Option<usize> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for (i, (ra, rb)) in a.evals.iter().zip(&b.evals).enumerate() {
        if bits(&ra.x) != bits(&rb.x)
            || bits(ra.metrics.values()) != bits(rb.metrics.values())
            || ra.score.to_bits() != rb.score.to_bits()
            || ra.feasible != rb.feasible
        {
            return Some(i);
        }
    }
    (a.len() != b.len()).then_some(a.len().min(b.len()))
}
