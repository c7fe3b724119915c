//! Reproduces **Fig. 4**: FOM-based sizing (paper §4.1) on the three
//! circuits at 180 nm — KATO vs SMAC-RF vs MACE vs random search,
//! best-FOM-so-far versus simulation count.

use kato::baselines::{MaceOptimizer, RandomSearch, SmacRf};
use kato::{Kato, Mode};
use kato_bench::{print_series, run_seeds, Profile};
use kato_circuits::{bandgap, opamp2, opamp3, FomSpec, SizingProblem, TechNode};

fn run_panel(panel: &str, problem: &dyn SizingProblem, profile: &Profile) {
    let fom = FomSpec::calibrate(problem, profile.fom_samples, 2024);
    // Seeds fan out across the kato_par pool; each seed's run is fully
    // determined by its own settings, so the fan-out is order-stable.
    let kato_runs = run_seeds(&profile.seeds, |seed| {
        Kato::new(profile.fom_settings(seed)).run(problem, Mode::Fom(fom.clone()))
    });
    let mace_runs = run_seeds(&profile.seeds, |seed| {
        MaceOptimizer::new(profile.fom_settings(seed)).run(problem, Mode::Fom(fom.clone()))
    });
    let smac_runs = run_seeds(&profile.seeds, |seed| {
        SmacRf::new(profile.fom_settings(seed)).run(problem, Mode::Fom(fom.clone()))
    });
    let rs_runs = run_seeds(&profile.seeds, |seed| {
        RandomSearch::new(profile.fom_settings(seed)).run(problem, Mode::Fom(fom.clone()))
    });
    print_series(
        &format!("Fig. 4({panel}): FOM optimisation, {}", problem.name()),
        &[
            ("KATO", kato_runs),
            ("MACE", mace_runs),
            ("SMAC-RF", smac_runs),
            ("RS", rs_runs),
        ],
        5,
        &format!("fig4_{}.csv", problem.name()),
    );
}

fn main() {
    let profile = Profile::from_args();
    println!(
        "Fig. 4 reproduction — profile: {} ({} seeds, budget {})",
        if profile.full { "FULL" } else { "quick" },
        profile.seeds.len(),
        profile.budget
    );
    run_panel("a", &opamp2(TechNode::n180()), &profile);
    run_panel("b", &opamp3(TechNode::n180()), &profile);
    run_panel("c", &bandgap(TechNode::n180()), &profile);
    println!("\nExpected shape (paper Fig. 4): KATO reaches the highest FOM with the fewest sims;");
    println!("SMAC-RF and MACE trail; RS is the floor.");
}
