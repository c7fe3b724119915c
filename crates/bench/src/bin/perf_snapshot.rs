//! `perf_snapshot` — writes a committable `BENCH_*.json` perf snapshot.
//!
//! Times one batched+parallel MACE proposal (an NSGA-II Pareto search over
//! a fitted opamp2 surrogate stack), measures the surrogate refit hot path
//! (full `Gp::refit` vs incremental `Gp::append` when an archive of 64
//! grows by a batch of 8), and adds one end-to-end timing (a full seeded
//! KATO run on `opamp2@180nm`), then writes the medians as JSON so the
//! perf trajectory lives in the repo instead of in scroll-back:
//!
//! ```bash
//! cargo run --release --bin perf_snapshot -- --label 2026-08-08 \
//!     [--out BENCH_2026-08-08.json] [--samples 10]
//! ```
//!
//! Timings are wall-clock medians over `--samples` runs on whatever
//! machine executes them — snapshots are comparable *within* a machine
//! generation, which is what catching a 2x regression needs.

use kato::mace::{MaceProposer, MaceVariant};
use kato::{
    evaluate_batch_sharded, metric_columns, BoSettings, Kato, MetricModels, Mode, ModelConfig,
    RunHistory,
};
use kato_circuits::{random_design, Backend, SizingProblem, TechNode, TwoStageOpAmp};
use kato_gp::{Gp, GpConfig, KatConfig, KernelSpec};
use kato_serve::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "perf_snapshot — write a BENCH_*.json perf snapshot

USAGE:
    perf_snapshot [--label <tag>] [--out <path>] [--samples <n>]

OPTIONS:
    --label <tag>    snapshot tag baked into the file (default 'local')
    --out <path>     output path (default BENCH_<label>.json)
    --samples <n>    timed repetitions per measurement (default 10)
";

/// Median of a sample vector, in place.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `f` over `n` samples and returns the median seconds per call.
fn time_median(n: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&mut samples)
}

/// The fitted surrogate stack the proposal timing searches: 40 seeded
/// random evaluations of opamp2@180nm, fast-config GPs.
fn fitted_stack() -> (TwoStageOpAmp, MetricModels, f64) {
    let problem = TwoStageOpAmp::new(TechNode::n180());
    let mut history = RunHistory::new("bench", "bench", 0);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..40 {
        let x = random_design(problem.dim(), &mut rng);
        history.evaluate_and_push(&problem, &Mode::Constrained, x);
    }
    let xs: Vec<Vec<f64>> = history.evals.iter().map(|e| e.x.clone()).collect();
    let refs: Vec<&kato_circuits::Metrics> = history.evals.iter().map(|e| &e.metrics).collect();
    let cols = metric_columns(&refs);
    let cfg = ModelConfig {
        gp: GpConfig {
            train_iters: 10,
            ..GpConfig::fast()
        },
        kat: KatConfig::fast(),
        ..ModelConfig::default()
    };
    let models = MetricModels::fit_gp(problem.dim(), &xs, &cols, problem.specs(), &cfg).unwrap();
    let incumbent = history
        .evals
        .iter()
        .map(|e| {
            e.metrics.objective(problem.specs()).unwrap_or(0.0)
                - 10.0 * e.metrics.violation(problem.specs())
        })
        .fold(f64::NEG_INFINITY, f64::max);
    (problem, models, incumbent)
}

fn run(label: &str, out: Option<&str>, samples: usize) -> Result<(), String> {
    let threads = kato_par::num_threads();

    let (problem, models, incumbent) = fitted_stack();
    let settings = BoSettings::quick(50, 1);
    let proposer = MaceProposer::new(MaceVariant::Modified);
    eprintln!("[timing mace_proposal_batched_parallel x{samples}]");
    let batched_s = time_median(samples, || {
        black_box(proposer.pareto_front(&models, problem.dim(), incumbent, &settings, 0, &[]));
    });

    // Surrogate refit at archive size 64 growing by one batch of 8: the
    // pre-redesign path (full re-standardise + O(n³) refactorise +
    // retrain) vs the incremental path (frozen scalers, rank-k Cholesky
    // extension, warm-start likelihood check). This is the per-metric,
    // per-iteration cost of the BO loop.
    let archive_n = 64usize;
    let batch_k = 8usize;
    let (ref_xs, ref_ys) = {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<Vec<f64>> = (0..archive_n + batch_k)
            .map(|_| random_design(problem.dim(), &mut rng))
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| problem.evaluate(x).get(0)).collect();
        (xs, ys)
    };
    let refit_cfg = GpConfig {
        train_iters: 8, // BoSettings::quick's refit_iters profile
        ..GpConfig::fast()
    };
    let fitted = Gp::fit(
        KernelSpec::neuk(problem.dim()),
        &ref_xs[..archive_n],
        &ref_ys[..archive_n],
        &refit_cfg,
    )
    .map_err(|e| format!("refit-bench GP fit failed: {e}"))?;
    eprintln!("[timing refit_full n={archive_n}+{batch_k} x{samples}]");
    let full_refit_s = time_median(samples, || {
        let mut gp = fitted.clone();
        gp.refit(black_box(&ref_xs), black_box(&ref_ys), &refit_cfg)
            .unwrap();
        black_box(gp);
    });
    eprintln!("[timing refit_incremental n={archive_n}+{batch_k} x{samples}]");
    let incr_refit_s = time_median(samples, || {
        let mut gp = fitted.clone();
        gp.append(
            black_box(&ref_xs[archive_n..]),
            black_box(&ref_ys[archive_n..]),
            &refit_cfg,
        )
        .unwrap();
        black_box(gp);
    });

    // Batched evaluation pipeline, two granularities over one 64-candidate
    // population. (a) Whole-problem evaluation on opamp2: the historical
    // scalar loop vs `evaluate_batch_sharded` (the path the optimizer,
    // corner audits and daemon now take) on each device backend — here the
    // MNA solves dominate, so backend choice moves the needle modestly.
    // (b) The device-layer operating-point solve, which is where the LUT
    // earns its keep: 64 `vgs`-for-`id` inversions as one batched grid
    // walk (~7 four-load probes each) vs the square-law scalar loop's
    // 60-iteration bisection with two transcendental-heavy model calls per
    // step. The headline `speedup` is (b): batched LUT vs scalar
    // square-law, and must clear 2x.
    let pop_n = 64usize;
    let population: Vec<Vec<f64>> = {
        let mut rng = StdRng::seed_from_u64(29);
        (0..pop_n)
            .map(|_| random_design(problem.dim(), &mut rng))
            .collect()
    };
    let lut_problem = TwoStageOpAmp::new(TechNode::n180().with_backend(Backend::Lut));
    eprintln!("[timing eval scalar/batched x square_law/lut, {pop_n} candidates x{samples}]");
    let eval_scalar_sq_s = time_median(samples, || {
        for x in &population {
            black_box(problem.evaluate(black_box(x)));
        }
    });
    let eval_batched_sq_s = time_median(samples, || {
        black_box(evaluate_batch_sharded(&problem, black_box(&population)));
    });
    let eval_scalar_lut_s = time_median(samples, || {
        for x in &population {
            black_box(lut_problem.evaluate(black_box(x)));
        }
    });
    let eval_batched_lut_s = time_median(samples, || {
        black_box(evaluate_batch_sharded(&lut_problem, black_box(&population)));
    });

    // (b): one operating-point inversion per candidate, targets taken from
    // the model itself so every request is reachable.
    let node_sq = TechNode::n180();
    let node_lut = TechNode::n180().with_backend(Backend::Lut);
    let requests: Vec<(f64, f64, f64, f64)> = {
        let mut rng = StdRng::seed_from_u64(31);
        (0..pop_n)
            .map(|_| {
                let r = random_design(4, &mut rng);
                let w = 1e-6 * (1.0 + 39.0 * r[0]);
                let l = 0.18e-6 + (2.0e-6 - 0.18e-6) * r[1];
                let vds = 0.3 + 1.4 * r[2];
                let vgs = 0.6 + 0.6 * r[3];
                let (id, _, _) = node_sq.mos_iv(&node_sq.nmos, w, l, vgs, vds);
                (w, l, vds, id)
            })
            .collect()
    };
    eprintln!(
        "[timing op_point_solve scalar square_law vs batched lut, {pop_n} requests x{samples}]"
    );
    let vgs_scalar_sq_s = time_median(samples, || {
        for &(w, l, vds, id) in &requests {
            black_box(node_sq.vgs_for_id(&node_sq.nmos, w, l, vds, id));
        }
    });
    let vgs_batched_lut_s = time_median(samples, || {
        black_box(node_lut.vgs_for_id_batch(&node_lut.nmos, black_box(&requests)));
    });

    // Monte-Carlo yield with the streaming early-abort pipeline vs the
    // same estimator forced to simulate every sample. The population is
    // infeasible-heavy on purpose (random opamp2 designs rarely meet spec
    // at the worst corner), which is exactly the regime the abort is for:
    // a candidate whose nominal sample fails — or whose failure count
    // already rules the threshold out — stops consuming samples. Recorded
    // metrics are bitwise identical either way (asserted below); only the
    // wall clock may differ.
    let registry = kato_circuits::ScenarioRegistry::standard();
    let yield_scenario = registry.get("opamp2").map_err(|e| e.to_string())?;
    let yield_settings = || kato_circuits::YieldSettings {
        samples: 12,
        threshold: 0.7,
        seed: 11,
        early_abort: true,
        corners: None, // the registered five-corner sweep, per sample
    };
    let yield_abort = yield_scenario
        .build_yield("180nm", None, yield_settings())
        .map_err(|e| e.to_string())?;
    let yield_full = yield_scenario
        .build_yield(
            "180nm",
            None,
            kato_circuits::YieldSettings {
                early_abort: false,
                ..yield_settings()
            },
        )
        .map_err(|e| e.to_string())?;
    let yield_pop: Vec<Vec<f64>> = {
        let mut rng = StdRng::seed_from_u64(37);
        let mut pop: Vec<Vec<f64>> = (0..24)
            .map(|_| random_design(yield_abort.dim(), &mut rng))
            .collect();
        // A couple of feasible-ish candidates so the abort path still
        // exercises full sample scans.
        pop.push(yield_abort.expert_design());
        pop.push(yield_abort.expert_design());
        pop
    };
    eprintln!(
        "[timing yield early-abort vs full-sample, {} candidates x {} samples x {} corners x{samples}]",
        yield_pop.len(),
        yield_abort.samples(),
        yield_abort.corner_count()
    );
    let yield_abort_s = time_median(samples, || {
        black_box(evaluate_batch_sharded(&yield_abort, black_box(&yield_pop)));
    });
    let yield_full_s = time_median(samples, || {
        black_box(evaluate_batch_sharded(&yield_full, black_box(&yield_pop)));
    });
    // The abort contract: identical recorded results on both schedules.
    assert_eq!(
        evaluate_batch_sharded(&yield_abort, &yield_pop),
        evaluate_batch_sharded(&yield_full, &yield_pop),
        "early abort changed recorded yield results"
    );

    // End to end: one full seeded KATO run, quick profile. Reported per
    // simulation so budget changes don't silently rescale the trajectory.
    let budget = 40usize;
    eprintln!("[timing end_to_end kato run opamp2@180nm budget {budget} x3]");
    let e2e_s = time_median(3.min(samples), || {
        black_box(Kato::new(BoSettings::quick(budget, 11)).run(&problem, Mode::Constrained));
    });

    let doc = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("label", Json::str(label)),
        ("threads", Json::Num(threads as f64)),
        ("samples", Json::Num(samples as f64)),
        (
            "proposal",
            Json::obj(vec![("batched_parallel_ms", Json::Num(batched_s * 1e3))]),
        ),
        (
            "refit",
            Json::obj(vec![
                ("archive_n", Json::Num(archive_n as f64)),
                ("batch_k", Json::Num(batch_k as f64)),
                ("full_refit_ms", Json::Num(full_refit_s * 1e3)),
                ("incremental_append_ms", Json::Num(incr_refit_s * 1e3)),
                ("speedup", Json::Num(full_refit_s / incr_refit_s)),
            ]),
        ),
        (
            "eval",
            Json::obj(vec![
                ("population", Json::Num(pop_n as f64)),
                (
                    "problem_eval",
                    Json::obj(vec![
                        ("scenario", Json::str("opamp2_180nm")),
                        ("scalar_square_law_ms", Json::Num(eval_scalar_sq_s * 1e3)),
                        ("batched_square_law_ms", Json::Num(eval_batched_sq_s * 1e3)),
                        ("scalar_lut_ms", Json::Num(eval_scalar_lut_s * 1e3)),
                        ("batched_lut_ms", Json::Num(eval_batched_lut_s * 1e3)),
                        ("speedup", Json::Num(eval_scalar_sq_s / eval_batched_lut_s)),
                    ]),
                ),
                (
                    "op_point_solve",
                    Json::obj(vec![
                        ("device", Json::str("nmos_180nm")),
                        ("scalar_square_law_ms", Json::Num(vgs_scalar_sq_s * 1e3)),
                        ("batched_lut_ms", Json::Num(vgs_batched_lut_s * 1e3)),
                        ("speedup", Json::Num(vgs_scalar_sq_s / vgs_batched_lut_s)),
                    ]),
                ),
                // Headline: batched LUT operating-point evaluation vs the
                // scalar square-law loop on the 64-candidate population.
                ("speedup", Json::Num(vgs_scalar_sq_s / vgs_batched_lut_s)),
            ]),
        ),
        (
            "yield",
            Json::obj(vec![
                ("scenario", Json::str("opamp2_180nm")),
                ("population", Json::Num(yield_pop.len() as f64)),
                (
                    "samples_per_candidate",
                    Json::Num(yield_abort.samples() as f64),
                ),
                ("corners", Json::Num(yield_abort.corner_count() as f64)),
                ("threshold", Json::Num(yield_abort.threshold())),
                ("early_abort_ms", Json::Num(yield_abort_s * 1e3)),
                ("full_sample_ms", Json::Num(yield_full_s * 1e3)),
                ("speedup", Json::Num(yield_full_s / yield_abort_s)),
            ]),
        ),
        (
            "end_to_end",
            Json::obj(vec![
                ("scenario", Json::str("opamp2_180nm")),
                ("budget", Json::Num(budget as f64)),
                ("total_s", Json::Num(e2e_s)),
                ("ms_per_sim", Json::Num(e2e_s * 1e3 / budget as f64)),
            ]),
        ),
    ]);
    let default_path = format!("BENCH_{label}.json");
    let path = out.unwrap_or(&default_path);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("{doc}");
    eprintln!("[written {path}]");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = "local".to_string();
    let mut out: Option<String> = None;
    let mut samples = 10usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        let result = match flag.as_str() {
            "--label" => value().map(|v| label = v),
            "--out" => value().map(|v| out = Some(v)),
            "--samples" => value().and_then(|v| {
                v.parse()
                    .map(|n| samples = n)
                    .map_err(|_| "unparsable --samples".to_string())
            }),
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown option '{other}'")),
        };
        if let Err(msg) = result {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    }
    if samples == 0 {
        eprintln!("error: --samples must be at least 1");
        return ExitCode::from(2);
    }
    match run(&label, out.as_deref(), samples) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
