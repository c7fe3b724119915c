//! Integration: the full KATO pipeline (circuits -> simulator -> surrogates
//! -> acquisition -> optimizer) on the real two-stage op-amp.

use kato::baselines::Baseline;
use kato::{evaluate_batch_sharded, BoSettings, Kato, Mode};
use kato_circuits::{
    opamp2, random_design, FomSpec, ScenarioRegistry, SizingProblem, TechNode, YieldSettings,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn kato_constrained_beats_random_search_on_opamp2() {
    let problem = opamp2(TechNode::n180());
    let mut kato_best = Vec::new();
    let mut rs_best = Vec::new();
    for seed in [5u64, 17] {
        let mut s = BoSettings::quick(55, seed);
        s.n_init = 20;
        let kato = Kato::new(s.clone()).run(&problem, Mode::Constrained);
        let rs = Baseline::Random.run(&s, &problem, Mode::Constrained);
        assert_eq!(kato.len(), 55);
        assert_eq!(rs.len(), 55);
        kato_best.push(kato.incumbent());
        rs_best.push(rs.incumbent());
    }
    let kato_mean: f64 = kato_best.iter().sum::<f64>() / kato_best.len() as f64;
    let rs_mean: f64 = rs_best.iter().filter(|v| v.is_finite()).sum::<f64>()
        / rs_best.iter().filter(|v| v.is_finite()).count().max(1) as f64;
    assert!(
        kato_mean > rs_mean,
        "KATO ({kato_mean}) must beat RS ({rs_mean}) at equal budget"
    );
}

#[test]
fn kato_fom_mode_improves_monotonically_and_terminates() {
    let problem = opamp2(TechNode::n180());
    let fom = FomSpec::calibrate(&problem, 100, 3);
    let h = Kato::new(BoSettings::quick(40, 2)).run(&problem, Mode::Fom(fom));
    assert_eq!(h.len(), 40);
    let curve = h.best_curve();
    for w in curve.windows(2) {
        assert!(w[1] >= w[0], "best-so-far must be monotone");
    }
    assert!(curve[39] > curve[9], "BO phase must improve over init");
}

/// The early-abort contract: skipping mismatch samples that can no longer
/// change a candidate's feasibility classification must not change *any*
/// recorded number. Every registry scenario's yield estimates, a fixed
/// opamp2@180nm yield population, and a full seeded
/// optimisation trajectory must be bitwise-identical with the abort
/// schedule on and off.
#[test]
fn early_abort_never_changes_yield_estimates_or_trajectories() {
    let reg = ScenarioRegistry::standard();
    let settings = |abort: bool| YieldSettings {
        samples: 5,
        threshold: 0.6,
        seed: 31,
        early_abort: abort,
        corners: None,
    };
    for scenario in reg.scenarios() {
        let on = scenario
            .build_yield(scenario.default_tech, None, settings(true))
            .unwrap();
        let off = scenario
            .build_yield(scenario.default_tech, None, settings(false))
            .unwrap();
        let xs: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..on.dim())
                    .map(|j| ((i * 29 + j * 13) % 97) as f64 / 97.0)
                    .collect()
            })
            .chain([on.expert_design()])
            .collect();
        let with_abort = evaluate_batch_sharded(&on, &xs);
        let without = evaluate_batch_sharded(&off, &xs);
        assert_eq!(
            with_abort, without,
            "{}: early abort changed a recorded yield evaluation",
            scenario.name
        );
    }

    // One fixed population: opamp2@180nm, 12 samples at threshold 0.7 over
    // the registered five-corner sweep, 24 seeded random designs
    // (infeasible-heavy, the regime the abort is for) plus the expert design
    // twice (full sample scans).
    let opamp2 = reg.get("opamp2").unwrap();
    let snapshot = |abort: bool| {
        let settings = YieldSettings {
            samples: 12,
            threshold: 0.7,
            seed: 11,
            early_abort: abort,
            corners: None,
        };
        opamp2.build_yield("180nm", None, settings).unwrap()
    };
    let (on, off) = (snapshot(true), snapshot(false));
    let mut rng = StdRng::seed_from_u64(37);
    let mut xs: Vec<Vec<f64>> = (0..24).map(|_| random_design(on.dim(), &mut rng)).collect();
    xs.extend([on.expert_design(), on.expert_design()]);
    assert_eq!(
        evaluate_batch_sharded(&on, &xs),
        evaluate_batch_sharded(&off, &xs),
        "opamp2@180nm snapshot population: early abort changed a recorded yield evaluation"
    );

    // Full BO trajectory on the flagship scenario: identical histories.
    let on = opamp2
        .build_yield(opamp2.default_tech, None, settings(true))
        .unwrap();
    let off = opamp2
        .build_yield(opamp2.default_tech, None, settings(false))
        .unwrap();
    let mut s = BoSettings::quick(14, 31);
    s.n_init = 10;
    let h_on = Kato::new(s.clone()).run(&on, Mode::Constrained);
    let h_off = Kato::new(s).run(&off, Mode::Constrained);
    assert_eq!(h_on.len(), h_off.len());
    for (a, b) in h_on.evals.iter().zip(&h_off.evals) {
        assert_eq!(a.x, b.x, "proposal sequence diverged");
        assert_eq!(a.metrics, b.metrics, "recorded metrics diverged");
        assert_eq!(a.feasible, b.feasible);
        assert!(
            a.score == b.score || (a.score.is_nan() && b.score.is_nan()),
            "scores diverged: {} vs {}",
            a.score,
            b.score
        );
    }
}

#[test]
fn run_history_records_feasibility_consistently() {
    let problem = opamp2(TechNode::n180());
    let mut s = BoSettings::quick(30, 11);
    s.n_init = 15;
    let h = Kato::new(s).run(&problem, Mode::Constrained);
    for e in &h.evals {
        assert_eq!(e.feasible, e.metrics.feasible(problem.specs()));
        if e.feasible {
            assert!(e.score.is_finite());
        } else {
            assert_eq!(e.score, f64::NEG_INFINITY);
        }
    }
}
