//! Reproduces **Table 2**: final 40 nm constrained performance with the
//! transfer-learning variants — KATO, KATO (TL Node), KATO (TL Design),
//! KATO (TL Node&Design) — for both op-amps, plus the expert rows.

use kato::{Kato, Mode, RunHistory, SourceData};
use kato_bench::{metrics_row, run_seeds, write_csv, Profile};
use kato_circuits::{opamp2, opamp3, Metrics, SizingProblem, TechNode};

fn best_metrics(runs: &[RunHistory]) -> Option<Metrics> {
    runs.iter()
        .filter_map(RunHistory::best)
        .max_by(|a, b| kato_linalg::cmp_nan_worst(&a.score, &b.score))
        .map(|e| e.metrics.clone())
}

fn source_for(key: &str, n: usize, seed: u64) -> SourceData {
    match key {
        "opamp2_180nm" => SourceData::from_problem_random(&opamp2(TechNode::n180()), n, seed),
        "opamp3_180nm" => SourceData::from_problem_random(&opamp3(TechNode::n180()), n, seed),
        "opamp2_40nm" => SourceData::from_problem_random(&opamp2(TechNode::n40()), n, seed),
        "opamp3_40nm" => SourceData::from_problem_random(&opamp3(TechNode::n40()), n, seed),
        other => panic!("unknown source key {other}"),
    }
}

fn run_target(
    problem: &dyn SizingProblem,
    node_src: &str,
    design_src: &str,
    both_src: &str,
    profile: &Profile,
    rows: &mut Vec<String>,
) {
    println!("\n--- {} ---", problem.name());
    println!("{:<28}{}", "method", problem.metric_names().join(" / "));
    let expert = problem.evaluate(&problem.expert_design());
    println!("{}", metrics_row("Human Expert", expert.values()));

    let variants: Vec<(&str, Option<&str>)> = vec![
        ("KATO", None),
        ("KATO (TL Node)", Some(node_src)),
        ("KATO (TL Design)", Some(design_src)),
        ("KATO (TL Node&Design)", Some(both_src)),
    ];
    for (label, source_key) in variants {
        let runs = run_seeds(&profile.seeds, |seed| {
            let mut opt = Kato::new(profile.constrained_settings(seed));
            if let Some(key) = source_key {
                opt = opt
                    .with_source(source_for(key, profile.source_n, seed ^ 0x77))
                    .with_label(label);
            }
            opt.run(problem, Mode::Constrained)
        });
        match best_metrics(&runs) {
            Some(m) => {
                println!("{}", metrics_row(label, m.values()));
                rows.push(format!(
                    "{},{},{}",
                    problem.name(),
                    label,
                    m.values()
                        .iter()
                        .map(|v| format!("{v:.3}"))
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            None => println!("{label:<28}(no feasible design found)"),
        }
    }
}

fn main() {
    let profile = Profile::from_args();
    println!(
        "Table 2 reproduction — profile: {} ({} seeds)",
        if profile.full { "FULL" } else { "quick" },
        profile.seeds.len()
    );
    let mut rows = Vec::new();
    run_target(
        &opamp2(TechNode::n40()),
        "opamp2_180nm", // node transfer
        "opamp3_40nm",  // design transfer
        "opamp3_180nm", // node + design
        &profile,
        &mut rows,
    );
    run_target(
        &opamp3(TechNode::n40()),
        "opamp3_180nm",
        "opamp2_40nm",
        "opamp2_180nm",
        &profile,
        &mut rows,
    );
    write_csv("table2.csv", "problem,method,metrics...", &rows);
    println!("\nExpected shape (paper Table 2): every TL variant beats plain KATO on the");
    println!("objective; differences between TL variants are small.");
}
