//! Bandgap temperature-coefficient optimisation - the paper's third
//! benchmark (Eq. 17), exercising the full nonlinear DC solver with
//! temperature sweeps rather than a small-signal macromodel.
//!
//! Each simulation is a 12-point Newton DC temperature sweep plus an AC
//! PSRR solve, so the surrogate side stays cheap by comparison; the
//! batched posterior and `KATO_THREADS`-wide parallel refits still apply
//! to the optimizer loop around it.
//!
//! ```bash
//! cargo run --release --example bandgap_tc
//! ```

use kato::{BoSettings, Kato, Mode};
use kato_circuits::{bandgap, bandgap_debug_dc, SizingProblem, TechNode};

fn main() {
    let node = TechNode::n180();
    let problem = bandgap(node.clone());
    println!("bandgap reference at 180 nm: minimise TC s.t. I_total < 6 uA, PSRR > 50 dB\n");

    let mut s = BoSettings::quick(60, 9);
    s.n_init = 25;
    let history = Kato::new(s).run(&problem, Mode::Constrained);

    match history.best() {
        Some(best) => {
            println!("best design after {} simulations:", history.len());
            for (name, value) in problem.physical(&best.x) {
                println!("  {name:<10} = {value:.4e}");
            }
            println!(
                "\nTC = {:.2} ppm/degC, I = {:.2} uA, PSRR = {:.1} dB",
                best.metrics.get(0),
                best.metrics.get(1),
                best.metrics.get(2)
            );
            // Peek at the DC operating point of the winning design.
            if let Some(dc) = bandgap_debug_dc(&node, &problem.denormalize(&best.x)) {
                println!("dc operating point (27C): {dc}");
            }
        }
        None => println!("no feasible design found - try a larger budget"),
    }

    let expert = problem.evaluate(&problem.expert_design());
    println!("\nhuman-expert reference: {expert}");
}
