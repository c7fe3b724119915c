//! Reproduces **Fig. 6**: constrained sizing with transfer learning across
//! technology nodes and topologies (paper §4.3) — KATO with and without
//! transfer on six source→target panels, plus the TLMBO comparison (FOM
//! mode, node transfer only, as in the paper).

use kato::baselines::Tlmbo;
use kato::{Kato, Mode, SourceData};
use kato_bench::{final_stats, mean_sims_to_reach, print_series, run_seeds, Profile};
use kato_circuits::{opamp2, opamp3, FomSpec, SizingProblem, TechNode};

fn problem_by_key(key: &str) -> Box<dyn SizingProblem> {
    match key {
        "opamp2_180nm" => Box::new(opamp2(TechNode::n180())),
        "opamp2_40nm" => Box::new(opamp2(TechNode::n40())),
        "opamp3_180nm" => Box::new(opamp3(TechNode::n180())),
        "opamp3_40nm" => Box::new(opamp3(TechNode::n40())),
        other => panic!("unknown problem key {other}"),
    }
}

fn run_panel(panel: &str, source_key: &str, target_key: &str, profile: &Profile) {
    let source = problem_by_key(source_key);
    let target = problem_by_key(target_key);
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
        &format!("Fig. 6({panel}): {source_key} -> {target_key}"),
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
    let source = opamp2(TechNode::n180());
    let target = opamp2(TechNode::n40());
    let fom_src = FomSpec::calibrate(&source, profile.fom_samples, 2024);
    let fom_tgt = FomSpec::calibrate(&target, profile.fom_samples, 2024);
    // Each seed's source archive is shared by both methods, so build it
    // once per seed up front instead of once per (seed, method).
    let archives: Vec<(u64, SourceData)> = profile
        .seeds
        .iter()
        .map(|&seed| {
            let src = SourceData::from_problem_random_fom(
                &source,
                &fom_src,
                profile.source_n,
                seed ^ 0x5A,
            );
            (seed, src)
        })
        .collect();
    let archive_for = |seed: u64| {
        archives
            .iter()
            .find(|(s, _)| *s == seed)
            .map(|(_, a)| a.clone())
            .expect("archive per seed")
    };
    let tlmbo_runs = run_seeds(&profile.seeds, |seed| {
        Tlmbo::new(profile.fom_settings(seed), archive_for(seed))
            .run(&target, Mode::Fom(fom_tgt.clone()))
    });
    let kato_tl_runs = run_seeds(&profile.seeds, |seed| {
        let src = archive_for(seed);
        Kato::new(profile.fom_settings(seed))
            .with_source(src)
            .with_label("KATO+TL")
            .run(&target, Mode::Fom(fom_tgt.clone()))
    });
    print_series(
        "Fig. 6 companion: TLMBO vs KATO+TL (FOM, opamp2 180nm -> 40nm)",
        &[("TLMBO", tlmbo_runs), ("KATO+TL", kato_tl_runs)],
        5,
        "fig6_tlmbo.csv",
    );
}

fn main() {
    let panels: [(&str, &str, &str); 6] = [
        ("a", "opamp2_180nm", "opamp2_40nm"), // node transfer
        ("b", "opamp3_180nm", "opamp3_40nm"), // node transfer
        ("c", "opamp3_40nm", "opamp2_40nm"),  // topology transfer
        ("d", "opamp2_40nm", "opamp3_40nm"),  // topology transfer
        ("e", "opamp3_180nm", "opamp2_40nm"), // topology + node
        ("f", "opamp2_180nm", "opamp3_40nm"), // topology + node
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
