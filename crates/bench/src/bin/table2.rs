//! Reproduces **Table 2**: final 40 nm constrained performance with the
//! transfer-learning variants — KATO, KATO (TL Node), KATO (TL Design),
//! KATO (TL Node&Design) — for both op-amps, plus the expert rows.

use kato::{Kato, Mode, SourceData};
use kato_bench::{expert_row, registered, run_seeds, table_row, write_csv, Profile};

/// Runs plain KATO and the three transfer variants, whose sources are the
/// `(scenario, tech node)` pairs `[node, design, node & design]`, on
/// `scenario` at 40 nm.
fn run_target(
    scenario: &str,
    sources: [(&str, &str); 3],
    profile: &Profile,
    rows: &mut Vec<String>,
) {
    let problem = registered((scenario, "40nm"));
    let name = problem.name();
    println!("\n--- {name} ---");
    println!("{:<28}{}", "method", problem.metric_names().join(" / "));
    expert_row(problem.as_ref(), rows);

    let plain = run_seeds(&profile.seeds, |seed| {
        Kato::new(profile.constrained_settings(seed)).run(problem.as_ref(), Mode::Constrained)
    });
    table_row(&name, "KATO", &plain, rows);
    let labels = [
        "KATO (TL Node)",
        "KATO (TL Design)",
        "KATO (TL Node&Design)",
    ];
    for (label, source) in labels.into_iter().zip(sources) {
        let source = registered(source);
        let runs = run_seeds(&profile.seeds, |seed| {
            let src =
                SourceData::from_problem_random(source.as_ref(), profile.source_n, seed ^ 0x77);
            Kato::new(profile.constrained_settings(seed))
                .with_source(src)
                .with_label(label)
                .run(problem.as_ref(), Mode::Constrained)
        });
        table_row(&name, label, &runs, rows);
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
    let (op2_180, op2_40) = (("opamp2", "180nm"), ("opamp2", "40nm"));
    let (op3_180, op3_40) = (("opamp3", "180nm"), ("opamp3", "40nm"));
    run_target("opamp2", [op2_180, op3_40, op3_180], &profile, &mut rows);
    run_target("opamp3", [op3_180, op2_40, op2_180], &profile, &mut rows);
    write_csv("table2.csv", "problem,method,metrics...", &rows);
    println!("\nExpected shape (paper Table 2): every TL variant beats plain KATO on the");
    println!("objective; differences between TL variants are small.");
}
