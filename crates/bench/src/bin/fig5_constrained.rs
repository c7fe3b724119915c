//! Reproduces **Fig. 5**: constrained sizing (paper §4.2) on the three
//! circuits at 180 nm — KATO vs MACE vs MESMOC vs USEMOC, best feasible
//! objective versus simulation count.

use kato::baselines::{MaceOptimizer, Mesmoc, Usemoc};
use kato::{Kato, Mode};
use kato_bench::{print_series, run_seeds, Profile};
use kato_circuits::{bandgap, opamp2, opamp3, SizingProblem, TechNode};

fn run_panel(panel: &str, problem: &dyn SizingProblem, profile: &Profile) {
    // Seeds fan out across the kato_par pool (order-stable, see run_seeds).
    let kato_runs = run_seeds(&profile.seeds, |seed| {
        Kato::new(profile.constrained_settings(seed)).run(problem, Mode::Constrained)
    });
    let mace_runs = run_seeds(&profile.seeds, |seed| {
        MaceOptimizer::new(profile.constrained_settings(seed)).run(problem, Mode::Constrained)
    });
    let mesmoc_runs = run_seeds(&profile.seeds, |seed| {
        Mesmoc::new(profile.constrained_settings(seed)).run(problem, Mode::Constrained)
    });
    let usemoc_runs = run_seeds(&profile.seeds, |seed| {
        Usemoc::new(profile.constrained_settings(seed)).run(problem, Mode::Constrained)
    });
    print_series(
        &format!(
            "Fig. 5({panel}): constrained optimisation, {} (score = signed objective; \
             e.g. −I_total µA for op-amps)",
            problem.name()
        ),
        &[
            ("KATO", kato_runs),
            ("MACE", mace_runs),
            ("MESMOC", mesmoc_runs),
            ("USEMOC", usemoc_runs),
        ],
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
