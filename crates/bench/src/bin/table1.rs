//! Reproduces **Table 1**: final constrained-optimisation performance at
//! 180 nm for all three circuits — Human Expert, MESMOC, USEMOC, MACE and
//! KATO rows with the paper's metric columns.

use kato::baselines::{MaceOptimizer, Mesmoc, Usemoc};
use kato::{Kato, Mode, RunHistory};
use kato_bench::{metrics_row, run_seeds, write_csv, Profile};
use kato_circuits::{bandgap, opamp2, opamp3, Metrics, SizingProblem, TechNode};

/// Best feasible metrics across seeds (the paper reports the best final
/// design per method).
fn best_metrics(runs: &[RunHistory]) -> Option<Metrics> {
    runs.iter()
        .filter_map(RunHistory::best)
        .max_by(|a, b| kato_linalg::cmp_nan_worst(&a.score, &b.score))
        .map(|e| e.metrics.clone())
}

/// A named optimizer launcher: seed in, full run history out.
type MethodRunner<'a> = Box<dyn Fn(u64) -> RunHistory + Sync + 'a>;

fn run_circuit(problem: &dyn SizingProblem, profile: &Profile, rows: &mut Vec<String>) {
    println!("\n--- {} ---", problem.name());
    let names = problem.metric_names().join(" / ");
    println!("{:<28}{names}", "method");

    let expert = problem.evaluate(&problem.expert_design());
    println!("{}", metrics_row("Human Expert", expert.values()));
    rows.push(format!(
        "{},Human Expert,{}",
        problem.name(),
        expert
            .values()
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(",")
    ));

    let methods: Vec<(&str, MethodRunner)> = vec![
        (
            "MESMOC",
            Box::new(|seed| {
                Mesmoc::new(profile.constrained_settings(seed)).run(problem, Mode::Constrained)
            }),
        ),
        (
            "USEMOC",
            Box::new(|seed| {
                Usemoc::new(profile.constrained_settings(seed)).run(problem, Mode::Constrained)
            }),
        ),
        (
            "MACE",
            Box::new(|seed| {
                MaceOptimizer::new(profile.constrained_settings(seed))
                    .run(problem, Mode::Constrained)
            }),
        ),
        (
            "KATO",
            Box::new(|seed| {
                Kato::new(profile.constrained_settings(seed)).run(problem, Mode::Constrained)
            }),
        ),
    ];
    for (name, run) in methods {
        let runs = run_seeds(&profile.seeds, &run);
        match best_metrics(&runs) {
            Some(m) => {
                println!("{}", metrics_row(name, m.values()));
                rows.push(format!(
                    "{},{},{}",
                    problem.name(),
                    name,
                    m.values()
                        .iter()
                        .map(|v| format!("{v:.3}"))
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            None => println!("{name:<28}(no feasible design found)"),
        }
    }
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
