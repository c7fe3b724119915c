//! Knowledge transfer across technology nodes: size the 40 nm two-stage
//! op-amp using 180 nm experience - the paper's Fig. 6(a) scenario.
//!
//! With a source attached, each iteration proposes from two surrogates
//! (the target-only Neuk-GP and the source-aligned KAT-GP); the two MACE
//! searches run concurrently on the `kato_par` pool and each scores its
//! NSGA-II populations through the batched GP posterior. `KATO_THREADS`
//! sets the worker count without changing the trace.
//!
//! ```bash
//! cargo run --release --example transfer_sizing
//! ```
//!
//! The CLI equivalent (any registered source/target pair):
//! `kato transfer opamp2 folded_cascode`.

use kato::{BoSettings, Kato, Mode, SourceData};
use kato_circuits::{opamp2, SizingProblem, TechNode};

fn main() {
    let source_problem = opamp2(TechNode::n180());
    let target_problem = opamp2(TechNode::n40());
    println!(
        "transfer: {} (source) -> {} (target)\n",
        source_problem.name(),
        target_problem.name()
    );

    // 120 random source simulations form the knowledge bank (paper: 200).
    let source = SourceData::from_problem_random(&source_problem, 120, 7);

    let mut s = BoSettings::quick(70, 3);
    s.n_init = 25;

    let plain = Kato::new(s.clone()).run(&target_problem, Mode::Constrained);
    let transfer = Kato::new(s)
        .with_source(source)
        .run(&target_problem, Mode::Constrained);

    for h in [&plain, &transfer] {
        match h.best() {
            Some(b) => println!(
                "{:<28} best I = {:6.1} uA  (gain {:5.1} dB, PM {:5.1} deg, GBW {:6.1} MHz)",
                h.method,
                b.metrics.get(0),
                b.metrics.get(1),
                b.metrics.get(2),
                b.metrics.get(3),
            ),
            None => println!("{:<28} found no feasible design", h.method),
        }
    }

    // Simulations needed by the transfer run to match the plain run's best.
    if let Some(best_plain) = plain.best() {
        if let Some(n) = transfer.sims_to_reach(best_plain.score) {
            println!(
                "\nKATO+TL matched plain KATO's final best after {n} of {} simulations",
                transfer.len()
            );
        }
    }
}
