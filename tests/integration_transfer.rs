//! Integration: KAT-GP transfer across technology nodes and topologies on
//! the real circuit problems (paper SS4.3 scenarios, shrunk budgets).

use kato::{BoSettings, Kato, Mode, SourceData};
use kato_circuits::{opamp2, opamp3, SizingProblem, TechNode};

fn quick(budget: usize, n_init: usize, seed: u64) -> BoSettings {
    let mut s = BoSettings::quick(budget, seed);
    s.n_init = n_init;
    s
}

#[test]
fn node_transfer_runs_and_stays_sane() {
    let source = opamp2(TechNode::n180());
    let target = opamp2(TechNode::n40());
    let src = SourceData::from_problem_random(&source, 60, 21);
    let h = Kato::new(quick(40, 20, 1))
        .with_source(src)
        .run(&target, Mode::Constrained);
    assert_eq!(h.len(), 40);
    // All evaluated designs remain in the unit cube of the *target* space.
    for e in &h.evals {
        assert_eq!(e.x.len(), target.dim());
        assert!(e.x.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}

#[test]
fn topology_transfer_bridges_different_dimensionalities() {
    // 9-D three-stage source -> 8-D two-stage target: the KAT encoder must
    // bridge the dimensionality gap (the paper's headline capability).
    let source = opamp3(TechNode::n40());
    let target = opamp2(TechNode::n40());
    assert_ne!(source.dim(), target.dim());
    let src = SourceData::from_problem_random(&source, 60, 33);
    let h = Kato::new(quick(35, 18, 4))
        .with_source(src)
        .run(&target, Mode::Constrained);
    assert_eq!(h.len(), 35);
    assert!(h.method.contains("KATO+TL"));
}

#[test]
fn stl_weights_do_not_crash_with_useless_source() {
    // Degenerate source: constant metrics everywhere. STL should quietly
    // starve the transfer model rather than break the loop.
    let target = opamp2(TechNode::n40());
    let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0; 8]).collect();
    let columns = vec![vec![1.0; 30], vec![2.0; 30], vec![3.0; 30], vec![4.0; 30]];
    let src = SourceData {
        dim: 8,
        xs,
        columns,
        label: "constant".into(),
    };
    let h = Kato::new(quick(30, 15, 6))
        .with_source(src)
        .run(&target, Mode::Constrained);
    assert_eq!(h.len(), 30);
}
