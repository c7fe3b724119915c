//! Integration: the parallel runtime's determinism guarantee and batched
//! inference consistency, end to end through `Kato::run`.
//!
//! Every fan-out in the optimizer stack goes through `kato_par`'s one
//! claiming schedule, which re-assembles results in input order, and work
//! items are seeded per item, so a seeded run must produce a
//! bitwise-identical `RunHistory` no matter how many worker threads are
//! used, nor on other runs sharing the process's helper pool. Each test
//! runs the same seeded loop under `kato_par::with_threads(1, ..)` and a
//! wider override — a scoped setting that never touches the process
//! environment — and CI runs the whole suite again under `KATO_THREADS=1`
//! and `KATO_THREADS=4`, which `kato_par` reads once per process.

use kato::{BoSettings, Kato, Mode, RunHistory, SourceData};
use kato_circuits::{Goal, Metrics, SizingProblem, Spec, SpecKind, VarSpec};

/// 2-D constrained toy: cheap enough to run the full loop many times.
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
        "toy_parallel".into()
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

fn assert_histories_identical(a: &RunHistory, b: &RunHistory) {
    assert_eq!(a.len(), b.len(), "trace lengths differ");
    for (i, (ea, eb)) in a.evals.iter().zip(&b.evals).enumerate() {
        assert_eq!(ea.x, eb.x, "design {i} differs");
        assert_eq!(
            ea.metrics.values(),
            eb.metrics.values(),
            "metrics {i} differ"
        );
        assert_eq!(ea.feasible, eb.feasible, "feasibility {i} differs");
        assert!(
            ea.score == eb.score
                || (ea.score == f64::NEG_INFINITY && eb.score == f64::NEG_INFINITY),
            "score {i} differs: {} vs {}",
            ea.score,
            eb.score
        );
    }
}

#[test]
fn run_history_identical_across_thread_counts() {
    let toy = Toy::new();
    let run = || Kato::new(BoSettings::quick(26, 19)).run(&toy, Mode::Constrained);

    let serial = kato_par::with_threads(1, run);
    let parallel = kato_par::with_threads(4, run);

    assert_eq!(serial.len(), 26);
    assert_histories_identical(&serial, &parallel);
}

#[test]
fn incremental_refit_run_identical_across_thread_counts() {
    // Per-iteration model updates go through the incremental path
    // (`Gp::update` / `KatGp::update` on a grown archive): frozen
    // scalers, rank-k Cholesky extension and a warm-start likelihood check
    // that sometimes skips retraining entirely. A longer run maximises the
    // number of appends taken, so this gate proves the incremental path —
    // including its refit fallbacks — is bitwise thread-count-invariant.
    let toy = Toy::new();
    let run = || Kato::new(BoSettings::quick(32, 11)).run(&toy, Mode::Constrained);

    let serial = kato_par::with_threads(1, run);
    let parallel = kato_par::with_threads(4, run);

    assert_eq!(serial.len(), 32);
    assert_histories_identical(&serial, &parallel);
}

#[test]
fn transfer_run_identical_across_thread_counts() {
    // The transfer stack adds parallel KAT-GP restarts and the concurrent
    // P1/P2 proposal fan-out; it must be thread-count-invariant too.
    let toy = Toy::new();
    let run = || {
        let source = SourceData::from_problem_random(&toy, 30, 3);
        Kato::new(BoSettings::quick(22, 7))
            .with_source(source)
            .run(&toy, Mode::Constrained)
    };

    let serial = kato_par::with_threads(1, run);
    let parallel = kato_par::with_threads(4, run);

    assert_eq!(serial.len(), 22);
    assert_histories_identical(&serial, &parallel);
}

#[test]
fn concurrent_runs_on_a_shared_pool_match_their_serial_histories() {
    // Two seeded runs started together on two OS threads post their
    // fan-outs to the same process-global kato_par helpers, interleaving
    // their work items on them; neither history may depend on that.
    let toy = Toy::new();
    let run = |seed: u64| Kato::new(BoSettings::quick(24, seed)).run(&toy, Mode::Constrained);
    let seeds = [5_u64, 13];
    let start = std::sync::Barrier::new(seeds.len());
    let shared: Vec<RunHistory> = std::thread::scope(|s| {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    kato_par::with_threads(3, || run(seed))
                })
            })
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("a concurrent run panicked"))
            .collect()
    });
    for (&seed, history) in seeds.iter().zip(&shared) {
        let serial = kato_par::with_threads(1, || run(seed));
        assert_eq!(serial.len(), 24);
        assert_histories_identical(&serial, history);
    }
}

#[test]
fn num_threads_follows_a_positive_kato_threads() {
    // Nothing in this binary rewrites the environment, so whatever width
    // the process was started with is the width the pool uses.
    let from_env = std::env::var("KATO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    if let Some(n) = from_env {
        assert_eq!(kato_par::num_threads(), n);
    }
}
