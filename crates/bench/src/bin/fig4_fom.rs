//! Reproduces **Fig. 4**: FOM-based sizing (paper §4.1) on the three
//! circuits at 180 nm — KATO vs SMAC-RF vs MACE vs random search,
//! best-FOM-so-far versus simulation count.

use kato::baselines::Baseline;
use kato::{Kato, MaceVariant, Mode};
use kato_bench::{print_series, run_seeds, Profile};
use kato_circuits::{bandgap, opamp2, opamp3, FomSpec, SizingProblem, TechNode};

fn run_panel(panel: &str, problem: &dyn SizingProblem, profile: &Profile) {
    let fom = FomSpec::calibrate(problem, profile.fom_samples, 2024);
    // Seeds fan out across the kato_par pool; each seed's run is fully
    // determined by its own settings, so the fan-out is order-stable.
    let kato = run_seeds(&profile.seeds, |seed| {
        Kato::new(profile.fom_settings(seed)).run(problem, Mode::Fom(fom.clone()))
    });
    let mut series = vec![("KATO", kato)];
    for method in [
        Baseline::Mace(MaceVariant::Full),
        Baseline::SmacRf,
        Baseline::Random,
    ] {
        let runs = run_seeds(&profile.seeds, |seed| {
            method.run(&profile.fom_settings(seed), problem, Mode::Fom(fom.clone()))
        });
        series.push((method.label(), runs));
    }
    print_series(
        &format!("Fig. 4({panel}): FOM optimisation, {}", problem.name()),
        &series,
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
