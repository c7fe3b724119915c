//! Ablation for paper **§3.4**: Selective Transfer Learning with a
//! deliberately *mismatched* source (bandgap → two-stage op-amp). Forced
//! transfer should suffer; STL should track the no-transfer baseline.

use kato::{Kato, Mode, SourceData};
use kato_bench::{final_stats, print_series, run_seeds, Profile};
use kato_circuits::{bandgap, opamp2, SizingProblem, TechNode};

fn main() {
    let profile = Profile::from_args();
    let target = opamp2(TechNode::n180());
    let bad_source_problem = bandgap(TechNode::n180());
    println!(
        "=== Ablation (paper 3.4): STL under negative transfer ({} -> {}) ===",
        bad_source_problem.name(),
        target.name()
    );
    // One source archive per seed, shared by the STL and forced-transfer
    // variants (built once instead of once per variant).
    let sources: Vec<(u64, SourceData)> = profile
        .seeds
        .iter()
        .map(|&seed| {
            let src =
                SourceData::from_problem_random(&bad_source_problem, profile.source_n, seed ^ 0x33);
            (seed, src)
        })
        .collect();
    let none = run_seeds(&profile.seeds, |seed| {
        Kato::new(profile.constrained_settings(seed)).run(&target, Mode::Constrained)
    });
    let stl = kato_par::par_map(&sources, |(seed, src)| {
        Kato::new(profile.constrained_settings(*seed))
            .with_source(src.clone())
            .with_label("KATO+STL(bad src)")
            .run(&target, Mode::Constrained)
    });
    let forced = kato_par::par_map(&sources, |(seed, src)| {
        Kato::new(profile.constrained_settings(*seed))
            .with_source(src.clone())
            .with_forced_transfer()
            .with_label("KATO forced-TL(bad src)")
            .run(&target, Mode::Constrained)
    });
    print_series(
        "STL vs forced transfer vs no transfer (mismatched source)",
        &[
            ("no-transfer", none.clone()),
            ("STL", stl.clone()),
            ("forced-TL", forced.clone()),
        ],
        10,
        "ablation_stl.csv",
    );
    let (m_none, _) = final_stats(&none);
    let (m_stl, _) = final_stats(&stl);
    let (m_forced, _) = final_stats(&forced);
    println!("\nfinal means: no-transfer {m_none:.3}, STL {m_stl:.3}, forced {m_forced:.3}");
    println!("Expected shape: STL within noise of no-transfer; forced transfer degraded.");
}
