//! Head-to-head optimizer comparison on the three-stage op-amp - a small
//! in-terminal version of the paper's Fig. 5(b).
//!
//! Every method here (KATO, MACE, random search) shares the batched
//! surrogate engine: acquisition search scores NSGA-II populations in one
//! batched posterior per metric, and model refits run in parallel on the
//! `kato_par` pool (`KATO_THREADS` workers, deterministic at any count).
//!
//! ```bash
//! cargo run --release --example opamp_sizing
//! ```

use kato::baselines::Baseline;
use kato::{BoSettings, Kato, MaceVariant, Mode};
use kato_circuits::{opamp3, SizingProblem, TechNode};

fn main() {
    let problem = opamp3(TechNode::n180());
    println!(
        "constrained sizing of {} - minimise I_total s.t. gain/PM/GBW\n",
        problem.name()
    );

    let budget = 70;
    let mut results = Vec::new();
    for seed in [1u64, 2] {
        let mut s = BoSettings::quick(budget, seed);
        s.n_init = 25;
        results.push(Kato::new(s.clone()).run(&problem, Mode::Constrained));
        for baseline in [Baseline::Mace(MaceVariant::Full), Baseline::Random] {
            results.push(baseline.run(&s, &problem, Mode::Constrained));
        }
    }

    println!(
        "{:<10}{:>6}{:>14}{:>10}",
        "method", "seed", "best I (uA)", "feasible"
    );
    for h in &results {
        match h.best() {
            Some(b) => println!(
                "{:<10}{:>6}{:>14.1}{:>10}",
                h.method,
                h.seed,
                b.metrics.get(0),
                h.evals.iter().filter(|e| e.feasible).count()
            ),
            None => println!("{:<10}{:>6}{:>14}{:>10}", h.method, h.seed, "-", 0),
        }
    }
    println!("\n(KATO should reach the lowest supply current at equal budget.)");
}
