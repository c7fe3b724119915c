//! Integration: the batched-evaluation contract, end to end.
//!
//! `SizingProblem::evaluate_batch` is contractually bitwise-identical to
//! the scalar `evaluate` loop, and `kato::evaluate_batch_sharded` must
//! preserve that identity at any thread count because `kato_par` splits
//! populations into contiguous chunks and re-assembles them in input
//! order. Every circuit and the all-corner worst case
//! (`Scenario::build_worst`, which evaluates its corners serially inside
//! each candidate) use the trait's default loop. This gate proves both
//! properties for every registry scenario on its default backend and for
//! its worst case, at one and four workers via the scoped
//! `kato_par::with_threads` override (the process environment is never
//! rewritten).

use kato::evaluate_batch_sharded;
use kato_circuits::{random_design, Metrics, ScenarioRegistry, SizingProblem};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn designs_for(p: &dyn SizingProblem, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| random_design(p.dim(), &mut rng)).collect()
}

fn assert_bitwise(got: &[Metrics], want: &[Metrics], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: population size");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.values(), w.values(), "{ctx}: design {i} diverged");
    }
}

/// Scalar loop vs trait batch vs sharded batch, for one problem.
fn check_problem(p: &dyn SizingProblem, n: usize, seed: u64, ctx: &str) {
    let xs = designs_for(p, n, seed);
    let scalar: Vec<Metrics> = xs.iter().map(|x| p.evaluate(x)).collect();
    assert_bitwise(&p.evaluate_batch(&xs), &scalar, &format!("{ctx} batch"));
    for threads in [1, 4] {
        let sharded = kato_par::with_threads(threads, || evaluate_batch_sharded(p, &xs));
        assert_bitwise(&sharded, &scalar, &format!("{ctx} sharded x{threads}"));
    }
}

#[test]
fn batch_eval_bitwise_identical_for_every_scenario() {
    let reg = ScenarioRegistry::standard();
    for (i, scenario) in reg.scenarios().iter().enumerate() {
        let p = scenario.build_default();
        check_problem(p.as_ref(), 9, 0x5eed + i as u64, scenario.name);
    }
}

#[test]
fn worst_case_batch_bitwise_identical_for_every_scenario() {
    let reg = ScenarioRegistry::standard();
    for (i, scenario) in reg.scenarios().iter().enumerate() {
        let wc = scenario.build_worst(scenario.default_tech, None).unwrap();
        let ctx = format!("{} worst-case", scenario.name);
        check_problem(&wc, 5, 0xc0de + i as u64, &ctx);
    }
}
