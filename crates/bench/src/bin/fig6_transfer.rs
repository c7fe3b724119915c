//! Reproduces **Fig. 6**: constrained sizing with transfer learning across
//! technology nodes and topologies (paper §4.3) — KATO with and without
//! transfer on six source→target panels, plus the TLMBO comparison (FOM
//! mode, node transfer only, as in the paper).

use kato::baselines::Baseline;
use kato::{Kato, Mode, SourceData};
use kato_bench::{final_stats, mean_sims_to_reach, print_series, registered, run_seeds, Profile};
use kato_circuits::FomSpec;

/// A registered `(scenario, tech node)` pair.
type Key = (&'static str, &'static str);

fn run_panel(panel: &str, source: Key, target: Key, profile: &Profile) {
    let (source, target) = (registered(source), registered(target));
    let plain = run_seeds(&profile.seeds, |seed| {
        Kato::new(profile.constrained_settings(seed)).run(target.as_ref(), Mode::Constrained)
    });
    let transfer = run_seeds(&profile.seeds, |seed| {
        let src = SourceData::from_problem_random(source.as_ref(), profile.source_n, seed ^ 0xA5);
        Kato::new(profile.constrained_settings(seed))
            .with_source(src)
            .with_label("KATO+TL")
            .run(target.as_ref(), Mode::Constrained)
    });
    // Speed-up: sims for KATO+TL to reach plain-KATO's final best.
    let (plain_final, _) = final_stats(&plain);
    let tl_sims = mean_sims_to_reach(&transfer, plain_final);
    let plain_sims = mean_sims_to_reach(&plain, plain_final);
    print_series(
        &format!("Fig. 6({panel}): {} -> {}", source.name(), target.name()),
        &[("KATO", plain), ("KATO+TL", transfer)],
        10,
        &format!("fig6_{panel}.csv"),
    );
    if tl_sims > 0.0 {
        println!(
            "  speed-up to plain-KATO final best: {:.2}x",
            plain_sims / tl_sims
        );
    }
}

fn tlmbo_comparison(profile: &Profile) {
    // TLMBO handles FOM optimisation with same-design (node) transfer only.
    let source = registered(("opamp2", "180nm"));
    let target = registered(("opamp2", "40nm"));
    let fom_src = FomSpec::calibrate(source.as_ref(), profile.fom_samples, 2024);
    let fom_tgt = FomSpec::calibrate(target.as_ref(), profile.fom_samples, 2024);
    // Each seed's source archive is shared by both methods, so build it
    // once per seed up front instead of once per (seed, method).
    let archives: Vec<(u64, SourceData)> = profile
        .seeds
        .iter()
        .map(|&seed| {
            let src = SourceData::from_problem_random_fom(
                source.as_ref(),
                &fom_src,
                profile.source_n,
                seed ^ 0x5A,
            );
            (seed, src)
        })
        .collect();
    let tlmbo_runs = kato_par::par_map(&archives, |(seed, src)| {
        Baseline::Tlmbo(src.clone()).run(
            &profile.fom_settings(*seed),
            target.as_ref(),
            Mode::Fom(fom_tgt.clone()),
        )
    });
    let kato_tl_runs = kato_par::par_map(&archives, |(seed, src)| {
        Kato::new(profile.fom_settings(*seed))
            .with_source(src.clone())
            .with_label("KATO+TL")
            .run(target.as_ref(), Mode::Fom(fom_tgt.clone()))
    });
    print_series(
        "Fig. 6 companion: TLMBO vs KATO+TL (FOM, opamp2 180nm -> 40nm)",
        &[("TLMBO", tlmbo_runs), ("KATO+TL", kato_tl_runs)],
        5,
        "fig6_tlmbo.csv",
    );
}

fn main() {
    let (op2_180, op2_40) = (("opamp2", "180nm"), ("opamp2", "40nm"));
    let (op3_180, op3_40) = (("opamp3", "180nm"), ("opamp3", "40nm"));
    let panels: [(&str, Key, Key); 6] = [
        ("a", op2_180, op2_40), // node transfer
        ("b", op3_180, op3_40), // node transfer
        ("c", op3_40, op2_40),  // topology transfer
        ("d", op2_40, op3_40),  // topology transfer
        ("e", op3_180, op2_40), // topology + node
        ("f", op2_180, op3_40), // topology + node
    ];
    let (profile, only) = Profile::from_args_with_panels(&panels.map(|(p, _, _)| p));
    println!(
        "Fig. 6 reproduction — profile: {} ({} seeds)",
        if profile.full { "FULL" } else { "quick" },
        profile.seeds.len()
    );
    for (p, src, tgt) in panels {
        if only.as_deref().is_none_or(|o| o == p) {
            run_panel(p, src, tgt, &profile);
        }
    }
    if only.is_none() {
        tlmbo_comparison(&profile);
    }
    println!("\nExpected shape (paper Fig. 6): KATO+TL reaches plain KATO's final best with");
    println!("~2-2.5x fewer simulations and ends ~1.1-1.2x better on every panel.");
}
