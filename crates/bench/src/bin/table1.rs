//! Reproduces **Table 1**: final constrained-optimisation performance at
//! 180 nm for all three circuits — Human Expert, MESMOC, USEMOC, MACE and
//! KATO rows with the paper's metric columns.

use kato::baselines::Baseline;
use kato::{Kato, MaceVariant, Mode};
use kato_bench::{expert_row, run_seeds, table_row, write_csv, Profile};
use kato_circuits::{bandgap, opamp2, opamp3, SizingProblem, TechNode};

fn run_circuit(problem: &dyn SizingProblem, profile: &Profile, rows: &mut Vec<String>) {
    let name = problem.name();
    println!("\n--- {name} ---");
    println!("{:<28}{}", "method", problem.metric_names().join(" / "));

    expert_row(problem, rows);

    let settings = |seed| profile.constrained_settings(seed);
    for method in [
        Baseline::Mesmoc,
        Baseline::Usemoc,
        Baseline::Mace(MaceVariant::Full),
    ] {
        let runs = run_seeds(&profile.seeds, |seed| {
            method.run(&settings(seed), problem, Mode::Constrained)
        });
        table_row(&name, method.label(), &runs, rows);
    }
    let kato = run_seeds(&profile.seeds, |seed| {
        Kato::new(settings(seed)).run(problem, Mode::Constrained)
    });
    table_row(&name, "KATO", &kato, rows);
}

fn main() {
    let profile = Profile::from_args();
    println!(
        "Table 1 reproduction — profile: {} ({} seeds)",
        if profile.full { "FULL" } else { "quick" },
        profile.seeds.len()
    );
    let mut rows = Vec::new();
    run_circuit(&opamp2(TechNode::n180()), &profile, &mut rows);
    run_circuit(&opamp3(TechNode::n180()), &profile, &mut rows);
    run_circuit(&bandgap(TechNode::n180()), &profile, &mut rows);
    write_csv("table1.csv", "problem,method,metrics...", &rows);
    println!("\nExpected shape (paper Table 1): KATO minimises the objective hardest while");
    println!("trading constraint metrics down to just above their bounds.");
}
