//! Quickstart: size a two-stage op-amp with KATO in under a minute.
//!
//! The optimizer runs the parallel batched engine by default: NSGA-II
//! scores whole candidate populations through one batched GP posterior
//! per metric, and per-metric fits/refits fan out over the `kato_par`
//! pool. Set `KATO_THREADS` to control the worker count (`KATO_THREADS=1`
//! forces serial execution; the trace is bitwise-identical either way).
//!
//! ```bash
//! cargo run --release --example quickstart
//! KATO_THREADS=4 cargo run --release --example quickstart   # same trace
//! ```
//!
//! For the registry/CLI route to the same run, see
//! `kato run opamp2` (ARCHITECTURE.md).

use kato::{BoSettings, Kato, Mode};
use kato_circuits::{opamp2, SizingProblem, TechNode};

fn main() {
    // The paper's first benchmark: Miller two-stage OTA at 180 nm.
    // Spec (Eq. 15-like): minimise I_total s.t. gain/PM/GBW bounds.
    let problem = opamp2(TechNode::n180());
    println!(
        "problem: {} ({} design variables)",
        problem.name(),
        problem.dim()
    );

    // KATO = NeukGP + modified constrained MACE (no transfer here).
    let settings = BoSettings::quick(60, 42);
    let history = Kato::new(settings).run(&problem, Mode::Constrained);

    match history.best() {
        Some(best) => {
            println!("\nbest design after {} simulations:", history.len());
            for (name, value) in problem.physical(&best.x) {
                println!("  {name:<10} = {value:.4e}");
            }
            println!("metrics ({:?}):", problem.metric_names());
            println!("  {}", best.metrics);
            println!("feasible: {}", best.feasible);
        }
        None => println!("no feasible design found - try a larger budget"),
    }

    // Compare against the built-in expert reference design.
    let expert = problem.evaluate(&problem.expert_design());
    println!("\nhuman-expert reference: {expert}");
}
