//! Ablation for paper **§3.3**: the modified three-objective constrained
//! MACE versus the original six-objective ensemble — equal-or-better
//! optimisation quality at lower acquisition-search cost.

use kato::baselines::Baseline;
use kato::{MaceVariant, Mode};
use kato_bench::{final_stats, write_csv, Profile};
use kato_circuits::{opamp2, SizingProblem, TechNode};
use std::time::Instant;

fn main() {
    let profile = Profile::from_args();
    let problem = opamp2(TechNode::n180());
    println!(
        "=== Ablation (paper 3.3): full vs modified MACE on {} ===",
        problem.name()
    );

    let mut rows = Vec::new();
    for (variant, label) in [
        (MaceVariant::Full, "MACE-6obj"),
        (MaceVariant::Modified, "MACE-3obj"),
    ] {
        // Time each run inside its own worker so the per-run cost stays
        // honest when the seeds fan out in parallel (elapsed-total divided
        // by seed count would under-report by the pool width).
        let timed: Vec<(kato::RunHistory, f64)> = kato_par::par_map(&profile.seeds, |&seed| {
            let s = profile.constrained_settings(seed);
            let t0 = Instant::now();
            let h = Baseline::Mace(variant).run(&s, &problem, Mode::Constrained);
            (h, t0.elapsed().as_secs_f64())
        });
        let wall = timed.iter().map(|(_, w)| w).sum::<f64>() / profile.seeds.len().max(1) as f64;
        let runs: Vec<kato::RunHistory> = timed.into_iter().map(|(h, _)| h).collect();
        let (mean, std) = final_stats(&runs);
        println!(
            "{label:>10}: final best score {mean:9.3} +/- {std:6.3}   wall {wall:7.2}s/run \
             ({} Pareto objectives)",
            variant.objective_count()
        );
        rows.push(format!("{label},{mean:.4},{std:.4},{wall:.3}"));
    }
    write_csv(
        "ablation_mace.csv",
        "variant,final_mean,final_std,wall_s",
        &rows,
    );
    println!("\nExpected shape: comparable final scores; the 3-objective search is cheaper");
    println!("(NSGA-II front complexity grows exponentially with objective count).");
}
