//! `bo_nominal` and `bo_yield`: seeded constrained `Kato::run` over a
//! fixed panel of run seeds.

use crate::cpu::{Meter, Op};
use crate::mirror::{self, LoopStats};
use crate::report::{
    mean, median, p50, peak_rss_mb, percentile, permutation, reset_peak_rss, Report,
};
use crate::trace::{counting_scenario, SimProbe, SimStats, Tracer, INNER_EVALS};
use crate::Args;
use kato::{BoSettings, Kato, Mode, RunHistory};
use kato_circuits::{Goal, ScenarioRegistry, SizingProblem, Spec, SpecKind, YieldSettings};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// Which BO workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Nominal,
    Yield,
}

/// Run seeds of the yield panel, in order. Each reaches nominal-feasible
/// designs within its first dozen simulations, so the yield estimator runs
/// its full corner × sample sweep for most of the run.
const YIELD_SEEDS: [u64; 12] = [11, 10, 13, 15, 17, 12, 16, 20, 18, 21, 24, 23];

/// Yield-run Monte-Carlo settings: every registered corner, 64 samples.
const YIELD_SAMPLES: usize = 64;

impl Kind {
    fn budget(self) -> usize {
        match self {
            Kind::Nominal => 100,
            Kind::Yield => 60,
        }
    }

    /// Panel run seeds for a run of `seconds`: sized so the panel takes
    /// about that long on a 2-core machine, and the same for every
    /// workload seed (see the README on why quality needs a fixed panel).
    fn run_seeds(self, seconds: u64) -> Vec<u64> {
        match self {
            // Two runs (180nm and 40nm) per seed, ~0.6 s each, and six of
            // them are repeated.
            Kind::Nominal => (1..=(seconds * 6 / 10).max(1)).collect(),
            // ~3.5 s per run, and two of them are repeated.
            Kind::Yield => {
                let n = ((seconds / 5).max(1) as usize).min(YIELD_SEEDS.len());
                YIELD_SEEDS[..n].to_vec()
            }
        }
    }

    /// Panel jobs re-run at the end of a timed run (bitwise-reproduction
    /// check and the latency-drift ratio).
    fn repeats(self) -> usize {
        match self {
            Kind::Nominal => 6,
            Kind::Yield => 2,
        }
    }
}

/// One seeded run of the panel.
struct Job {
    label: String,
    problem: Box<dyn SizingProblem>,
    seed: u64,
    /// Objective of the problem's expert design, the base of `best_score`.
    reference: f64,
}

fn build_panel(kind: Kind, seconds: u64, counted: bool) -> Vec<Job> {
    let registry = ScenarioRegistry::standard();
    let mut jobs = Vec::new();
    match kind {
        Kind::Nominal => {
            for seed in kind.run_seeds(seconds) {
                for tech in ["180nm", "40nm"] {
                    let problem = registry
                        .build("opamp2", Some(tech), None)
                        .expect("opamp2 is registered on both nodes");
                    jobs.push(Job {
                        label: format!("opamp2@{tech}/seed{seed}"),
                        reference: expert_objective(problem.as_ref()),
                        problem,
                        seed,
                    });
                }
            }
        }
        Kind::Yield => {
            let ldo = registry.get("ldo").expect("ldo is registered");
            let counting = counted.then(|| counting_scenario(ldo));
            let scenario = counting.as_ref().unwrap_or(ldo);
            // The folded nominal sample does not depend on the mismatch
            // seed, so one expert evaluation serves every job.
            let mut reference = None;
            for seed in kind.run_seeds(seconds) {
                let problem = scenario
                    .build_yield(
                        "180nm",
                        None,
                        YieldSettings {
                            samples: YIELD_SAMPLES,
                            threshold: 0.7,
                            seed,
                            early_abort: true,
                            corners: None,
                        },
                    )
                    .expect("ldo yield settings are valid");
                let reference = *reference.get_or_insert_with(|| expert_objective(&problem));
                jobs.push(Job {
                    label: format!("ldo_yield@180nm/seed{seed}"),
                    problem: Box::new(problem),
                    seed,
                    reference,
                });
            }
        }
    }
    jobs
}

fn expert_objective(problem: &dyn SizingProblem) -> f64 {
    problem
        .evaluate(&problem.expert_design())
        .objective(problem.specs())
        .expect("every registered problem has an objective")
}

/// Best feasible design relative to the expert design (the paper's
/// "design improvement": above 1 beats the expert); 0 when the run found
/// nothing feasible.
fn improvement(history: &RunHistory, specs: &[Spec], reference: f64) -> f64 {
    let Some(best) = history.best() else {
        return 0.0;
    };
    let minimise = specs
        .iter()
        .any(|s| matches!(s.kind, SpecKind::Objective(Goal::Minimize)));
    if minimise {
        reference / best.score
    } else {
        best.score / reference
    }
}

/// Index (1-based) of the first feasible simulation, `budget + 1` if none.
fn first_feasible(history: &RunHistory, budget: usize) -> f64 {
    history
        .evals
        .iter()
        .position(|e| e.feasible)
        .map_or(budget + 1, |i| i + 1) as f64
}

fn settings(job: &Job, kind: Kind) -> BoSettings {
    BoSettings::quick(kind.budget(), job.seed)
}

/// Runs `Kato::run` for one job, turning a panic into `None`.
fn run_job(job: &Job, kind: Kind) -> Option<RunHistory> {
    catch_unwind(AssertUnwindSafe(|| {
        Kato::new(settings(job, kind)).run(job.problem.as_ref(), Mode::Constrained)
    }))
    .ok()
}

/// Output checks on one finished run: exactly its budget, designs in the
/// unit cube.
fn check_run(report: &mut Report, job: &Job, kind: Kind, history: &RunHistory) -> bool {
    let dim = job.problem.dim();
    let full = history.len() == kind.budget();
    let in_cube = history
        .evals
        .iter()
        .all(|e| e.x.len() == dim && e.x.iter().all(|v| (0.0..=1.0).contains(v)));
    report.check(full, || {
        format!(
            "{}: {} evaluations, budget {}",
            job.label,
            history.len(),
            kind.budget()
        )
    });
    report.check(in_cube, || {
        format!("{}: a design left [0,1]^{dim}", job.label)
    });
    full && in_cube
}

const SETUP_REPEATS: usize = 5;

/// The end-to-end run (tracing off).
pub fn run(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    let mut meter = Meter::new();
    // Set-up is repeated and reported as a median; the last build is used.
    let mut setup_ops = Vec::with_capacity(SETUP_REPEATS);
    let mut panel = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (built, op) = meter.time(|| build_panel(kind, args.seconds, false));
        panel = built;
        setup_ops.push(op);
    }
    let order = permutation(panel.len(), args.seed);

    let mut histories: Vec<Option<RunHistory>> = (0..panel.len()).map(|_| None).collect();
    let mut first = Vec::with_capacity(panel.len());
    let mut peak_rss = Vec::with_capacity(panel.len());
    for &j in &order {
        let job = &panel[j];
        reset_peak_rss();
        let (history, op) = meter.time(|| run_job(job, kind));
        peak_rss.push(peak_rss_mb());
        first.push((j, op));
        report.attempted += 1;
        match history {
            Some(h) if check_run(&mut report, job, kind, &h) => histories[j] = Some(h),
            Some(_) => report.failed += 1,
            None => {
                report.failed += 1;
                report.check(false, || format!("{} panicked", job.label));
            }
        }
    }

    let mut again = Vec::with_capacity(kind.repeats());
    for &(j, first_op) in first.iter().take(kind.repeats()) {
        let job = &panel[j];
        let (history, op) = meter.time(|| run_job(job, kind));
        again.push((first_op, op));
        report.attempted += 1;
        let same = match (&histories[j], &history) {
            (Some(first), Some(again)) => mirror::first_difference(first, again).is_none(),
            _ => false,
        };
        if !same {
            report.failed += 1;
        }
        report.check(same, || {
            format!(
                "{}: repeating the seed did not reproduce the history",
                job.label
            )
        });
    }

    let setup: Vec<f64> = setup_ops.iter().map(|&op| meter.ms(op) / 1e3).collect();
    let latency: Vec<f64> = first.iter().map(|&(_, op)| meter.ms(op)).collect();
    let drift = again.iter().map(|&(_, op)| meter.ms(op)).sum::<f64>()
        / again.iter().map(|&(op, _)| meter.ms(op)).sum::<f64>();
    let budget = kind.budget();
    let done: Vec<(&Job, &RunHistory)> = panel
        .iter()
        .zip(&histories)
        .filter_map(|(job, h)| h.as_ref().map(|h| (job, h)))
        .collect();
    let sims: usize = done.iter().map(|(_, h)| h.len()).sum();
    let total_ms: f64 = latency.iter().sum();
    let stf: Vec<f64> = done
        .iter()
        .map(|(_, h)| first_feasible(h, budget))
        .collect();
    let scores: Vec<f64> = panel
        .iter()
        .zip(&histories)
        .map(|(job, h)| {
            h.as_ref()
                .map_or(0.0, |h| improvement(h, job.problem.specs(), job.reference))
        })
        .collect();

    report.metric("setup_s", median(&setup), "s");
    report.metric("ms_per_sim", total_ms / sims.max(1) as f64, "ms");
    report.metric("sims_to_feasible", mean(&stf), "sims");
    report.metric("best_score", median(&scores), "score");
    report.metric("warm_p50_ms", p50(&latency), "ms");
    report.metric("warm_latency_growth", drift, "ratio");
    report.metric("peak_rss_mb", median(&peak_rss), "MB");
    report
}

/// The traced run: the real `Kato::run` once per job (untraced, for the
/// fidelity gate and the overhead baseline), then the mirror loop with the
/// simulation probe, then the comparison.
pub fn traced(kind: Kind, args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let panel = build_panel(kind, args.seconds, false);
    // The yield problem's circuits are rebuilt on a counting scenario; a
    // nominal problem counts one inner simulation per candidate.
    let counted = (kind == Kind::Yield).then(|| build_panel(kind, args.seconds, true));
    let mirrored_panel = counted.as_ref().unwrap_or(&panel);
    let order = permutation(panel.len(), args.seed);
    let mut meter = Meter::new();

    let mut real: Vec<Option<RunHistory>> = (0..panel.len()).map(|_| None).collect();
    let mut untraced = Vec::with_capacity(order.len());
    for &j in &order {
        let (history, op) = meter.time(|| run_job(&panel[j], kind));
        untraced.push(op);
        report.attempted += 1;
        match history {
            Some(h) if check_run(&mut report, &panel[j], kind, &h) => real[j] = Some(h),
            _ => report.failed += 1,
        }
    }

    let sim = SimStats::default();
    let mut loop_stats = LoopStats::default();
    let mut mirror_ok = true;
    INNER_EVALS.store(0, Ordering::Relaxed);
    let mut traced = Vec::with_capacity(order.len());
    for &j in &order {
        let job = &mirrored_panel[j];
        let probe = SimProbe {
            inner: job.problem.as_ref(),
            stats: &sim,
        };
        tracer.set_run(j);
        let (mirrored, op) = meter.time(|| {
            tracer.span("bo.run", |tracer| {
                mirror::run(&probe, &settings(job, kind), tracer, &mut loop_stats)
            })
        });
        traced.push(op);
        let same = match (&real[j], &mirrored) {
            (Some(real), Ok(mirrored)) => mirror::first_difference(real, mirrored),
            _ => Some(0),
        };
        if let Some(at) = same {
            eprintln!("fidelity gate: {} differs at record {at}", job.label);
            mirror_ok = false;
        }
    }

    let inner = INNER_EVALS.load(Ordering::Relaxed);
    let inner = if kind == Kind::Yield {
        inner
    } else {
        SimStats::get(&sim.candidates)
    };
    let layers = Layers {
        tracer,
        sim: &sim,
        loop_stats: &loop_stats,
        cpu_ms: tracer.total_ms("bo.run"),
        inner_evals: inner,
    };
    layers.report_bo(&mut report);
    let total = |ops: &[Op]| ops.iter().map(|&op| meter.ms(op)).sum::<f64>();
    crate::report_trace(&mut report, mirror_ok, total(&traced), total(&untraced));
    report
}

/// Per-layer numbers computed from a finished trace.
pub struct Layers<'a> {
    pub tracer: &'a Tracer,
    pub sim: &'a SimStats,
    pub loop_stats: &'a LoopStats,
    /// CPU time of the traced pass.
    pub cpu_ms: f64,
    /// Circuit simulations underneath the candidates.
    pub inner_evals: u64,
}

impl Layers<'_> {
    /// Simulation, pool, model, proposal and loop layers.
    pub fn report_bo(&self, r: &mut Report) {
        let t = self.tracer;
        let threads = kato_par::num_threads() as f64;
        let candidates = SimStats::get(&self.sim.candidates);
        let busy = self.sim.busy_ms();
        r.metric("sim.candidates", candidates as f64, "count");
        r.metric("sim.calls", SimStats::get(&self.sim.calls) as f64, "count");
        r.metric("sim.busy_ms", busy, "ms");
        r.metric(
            "sim.us_per_candidate",
            busy * 1e3 / candidates.max(1) as f64,
            "us",
        );
        r.metric("sim.share", busy / self.cpu_ms, "ratio");
        r.metric("sim.inner_evals", self.inner_evals as f64, "count");
        r.metric(
            "sim.inner_per_candidate",
            self.inner_evals as f64 / candidates.max(1) as f64,
            "ratio",
        );
        r.metric("par.threads", threads, "count");
        r.metric(
            "par.eval_utilisation",
            busy / (t.wall_ms("sim.eval") * threads),
            "ratio",
        );

        let mut updates = t.durations_ms("model.update");
        updates.extend(t.durations_ms("model.kat_update"));
        let fit = t.total_ms("model.fit");
        let kat_fit = t.total_ms("model.kat_fit");
        let update: f64 = updates.iter().sum();
        r.metric("model.fit_ms", fit, "ms");
        r.metric("model.kat_fit_ms", kat_fit, "ms");
        r.metric("model.update_calls", updates.len() as f64, "count");
        r.metric("model.update_ms", update, "ms");
        r.metric("model.kat_update_ms", t.total_ms("model.kat_update"), "ms");
        r.metric("model.update_p50_ms", percentile(&updates, 0.5), "ms");
        r.metric("model.update_p90_ms", percentile(&updates, 0.9), "ms");
        r.metric(
            "model.share",
            (fit + kat_fit + update) / self.cpu_ms,
            "ratio",
        );
        r.metric(
            "model.update_errors",
            self.loop_stats.update_errors as f64,
            "count",
        );

        let calls = t.durations_ms("propose.call");
        let fronts: Vec<f64> = self
            .loop_stats
            .front_sizes
            .iter()
            .map(|&n| n as f64)
            .collect();
        r.metric("propose.calls", calls.len() as f64, "count");
        r.metric("propose.ms", t.total_ms("propose"), "ms");
        r.metric("propose.p90_ms", percentile(&calls, 0.9), "ms");
        r.metric("propose.front_size", mean(&fronts), "count");
        r.metric(
            "propose.share",
            t.total_ms("propose") / self.cpu_ms,
            "ratio",
        );

        let iters = t.durations_ms("loop.iteration");
        r.metric("loop.iterations", iters.len() as f64, "count");
        r.metric("loop.iter_p50_ms", percentile(&iters, 0.5), "ms");
        r.metric("loop.iter_p90_ms", percentile(&iters, 0.9), "ms");
        r.metric(
            "loop.self_ms",
            t.self_ms("loop.iteration") + t.self_ms("bo.run") + t.self_ms("serve.resume"),
            "ms",
        );
    }
}
