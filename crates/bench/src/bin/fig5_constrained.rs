//! Reproduces **Fig. 5**: constrained sizing (paper §4.2) on the three
//! circuits at 180 nm — KATO vs MACE vs MESMOC vs USEMOC, best feasible
//! objective versus simulation count.

use kato::baselines::Baseline;
use kato::{Kato, MaceVariant, Mode};
use kato_bench::{print_series, run_seeds, Profile};
use kato_circuits::{bandgap, opamp2, opamp3, SizingProblem, TechNode};

fn run_panel(panel: &str, problem: &dyn SizingProblem, profile: &Profile) {
    // Seeds fan out across the kato_par pool (order-stable, see run_seeds).
    let kato = run_seeds(&profile.seeds, |seed| {
        Kato::new(profile.constrained_settings(seed)).run(problem, Mode::Constrained)
    });
    let mut series = vec![("KATO", kato)];
    for method in [
        Baseline::Mace(MaceVariant::Full),
        Baseline::Mesmoc,
        Baseline::Usemoc,
    ] {
        let runs = run_seeds(&profile.seeds, |seed| {
            method.run(
                &profile.constrained_settings(seed),
                problem,
                Mode::Constrained,
            )
        });
        series.push((method.label(), runs));
    }
    print_series(
        &format!(
            "Fig. 5({panel}): constrained optimisation, {} (score = signed objective; \
             e.g. −I_total µA for op-amps)",
            problem.name()
        ),
        &series,
        10,
        &format!("fig5_{}.csv", problem.name()),
    );
}

fn main() {
    let profile = Profile::from_args();
    println!(
        "Fig. 5 reproduction — profile: {} ({} seeds, {} init + {} BO sims)",
        if profile.full { "FULL" } else { "quick" },
        profile.seeds.len(),
        profile.n_init_con,
        profile.budget
    );
    run_panel("a", &opamp2(TechNode::n180()), &profile);
    run_panel("b", &opamp3(TechNode::n180()), &profile);
    run_panel("c", &bandgap(TechNode::n180()), &profile);
    println!("\nExpected shape (paper Fig. 5): KATO best with a clear margin and ~2x fewer");
    println!("sims to match the best baseline; MESMOC weakest (limited exploration).");
}
