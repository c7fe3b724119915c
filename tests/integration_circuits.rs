//! Integration: circuit evaluation pipelines (MNA + device models +
//! measurements) behave like the analog circuits they model.

use kato_circuits::{bandgap, opamp2, opamp3, random_design, SizingProblem, TechNode};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn all_problems_evaluate_full_random_sweep_without_panic() {
    let problems: Vec<Box<dyn SizingProblem>> = vec![
        Box::new(opamp2(TechNode::n180())),
        Box::new(opamp2(TechNode::n40())),
        Box::new(opamp3(TechNode::n180())),
        Box::new(opamp3(TechNode::n40())),
        Box::new(bandgap(TechNode::n180())),
    ];
    let mut rng = StdRng::seed_from_u64(77);
    for p in &problems {
        for _ in 0..40 {
            let x = random_design(p.dim(), &mut rng);
            let m = p.evaluate(&x);
            assert_eq!(m.values().len(), p.metric_names().len());
            assert!(
                m.values().iter().all(|v| v.is_finite()),
                "{}: non-finite metrics {m}",
                p.name()
            );
        }
    }
}

#[test]
fn feasible_designs_exist_but_are_rare() {
    // The paper reports ~2.3% random feasibility for the constrained setup;
    // our substitution targets the same order of magnitude (1%..30%).
    let p = opamp2(TechNode::n180());
    let mut rng = StdRng::seed_from_u64(5);
    let n = 400;
    let feasible = (0..n)
        .filter(|_| {
            let x = random_design(p.dim(), &mut rng);
            p.evaluate(&x).feasible(p.specs())
        })
        .count();
    let rate = feasible as f64 / n as f64;
    assert!(
        rate > 0.005 && rate < 0.3,
        "feasibility rate {rate} out of calibrated range"
    );
}

#[test]
fn expert_designs_beat_spec_on_every_problem() {
    let problems: Vec<Box<dyn SizingProblem>> = vec![
        Box::new(opamp2(TechNode::n180())),
        Box::new(opamp2(TechNode::n40())),
        Box::new(opamp3(TechNode::n180())),
        Box::new(opamp3(TechNode::n40())),
        Box::new(bandgap(TechNode::n180())),
    ];
    for p in &problems {
        let m = p.evaluate(&p.expert_design());
        assert!(m.feasible(p.specs()), "{} expert infeasible: {m}", p.name());
    }
}

#[test]
fn cross_node_landscapes_are_correlated_but_shifted() {
    // The transfer premise: the same design evaluated on both nodes gives
    // correlated gains. Compute a rank-ish correlation over a small sample.
    let p180 = opamp2(TechNode::n180());
    let p40 = opamp2(TechNode::n40());
    let mut rng = StdRng::seed_from_u64(12);
    let mut pairs = Vec::new();
    for _ in 0..60 {
        let x = random_design(p180.dim(), &mut rng);
        let g180 = p180.evaluate(&x).get(1);
        let g40 = p40.evaluate(&x).get(1);
        pairs.push((g180, g40));
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = pairs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / n;
    let sx = (pairs.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>() / n).sqrt();
    let sy = (pairs.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>() / n).sqrt();
    let corr = cov / (sx * sy);
    assert!(corr > 0.4, "cross-node gain correlation too low: {corr}");
    // And shifted: 180 nm must deliver more gain on average.
    assert!(mx > my + 3.0, "180nm should out-gain 40nm: {mx} vs {my}");
}
