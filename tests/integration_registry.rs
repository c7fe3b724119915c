//! Integration tests for the scenario registry and corner-aware
//! evaluation: every registered scenario must build on every registered
//! tech node and corner, evaluate to finite metrics, simulate to pinned
//! bits on both device backends, and run through the full KATO loop.

use kato::{BoSettings, Kato, Mode};
use kato_circuits::{
    random_design, Backend, Corner, CornerSweep, Goal, Metrics, Scenario, ScenarioError,
    ScenarioRegistry, SizingProblem, SpecKind, YieldSettings,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn registry_lists_at_least_six_scenarios() {
    let reg = ScenarioRegistry::standard();
    assert!(reg.names().len() >= 6, "registry shrank: {:?}", reg.names());
}

#[test]
fn every_scenario_tech_corner_combination_builds_and_evaluates_finite() {
    let reg = ScenarioRegistry::standard();
    for scenario in reg.scenarios() {
        for tech in scenario.tech_names {
            for corner in &scenario.corners {
                let p = scenario.build_at(tech, corner, None).unwrap();
                let m = p.evaluate(&p.expert_design());
                assert!(
                    m.values().iter().all(|v| v.is_finite()),
                    "{} at {}: {m}",
                    p.name(),
                    corner.name()
                );
                let mid = p.evaluate(&vec![0.5; p.dim()]);
                assert!(
                    mid.values().iter().all(|v| v.is_finite()),
                    "{} midpoint at {}: {mid}",
                    p.name(),
                    corner.name()
                );
            }
        }
    }
}

#[test]
fn every_scenario_expert_design_is_feasible_at_nominal() {
    let reg = ScenarioRegistry::standard();
    for scenario in reg.scenarios() {
        let p = scenario.build_default();
        let m = p.evaluate(&p.expert_design());
        assert!(
            m.feasible(p.specs()),
            "{} expert must meet spec at TT: {m}",
            p.name()
        );
    }
}

#[test]
fn every_scenario_tech_combination_builds_and_evaluates_a_yield_problem() {
    let reg = ScenarioRegistry::standard();
    let samples = 4usize;
    for scenario in reg.scenarios() {
        for tech in scenario.tech_names {
            // TT-only so the baseline comparison below is apples-to-apples
            // with the scenario's nominal build.
            let p = scenario
                .build_yield(
                    tech,
                    None,
                    YieldSettings {
                        samples,
                        threshold: 0.5,
                        seed: 7,
                        corners: Some(vec![Corner::tt()]),
                        ..YieldSettings::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{}@{tech}: {e}", scenario.name));
            let expert = p.expert_design();
            let m = p.evaluate(&expert);
            assert!(
                m.values().iter().all(|v| v.is_finite()),
                "{}: yield evaluation must stay finite: {m}",
                p.name()
            );
            // Sample 0 is the nominal evaluation, so a nominal-feasible
            // expert design scores at least 1/N yield at TT.
            let nominal = scenario.build_at(tech, &Corner::tt(), None).unwrap();
            if nominal.evaluate(&expert).feasible(nominal.specs()) {
                let y = m.get(p.metric_index("yield").unwrap());
                assert!(
                    y >= 1.0 / samples as f64,
                    "{}: nominal-feasible expert scored yield {y}",
                    p.name()
                );
            }
        }
    }
}

#[test]
fn unknown_lookups_fail_with_descriptive_errors() {
    let reg = ScenarioRegistry::standard();
    let msg = reg.get("does_not_exist").unwrap_err().to_string();
    assert!(msg.contains("does_not_exist") && msg.contains("available"));
    let msg = reg
        .build("opamp2", Some("7nm"), None)
        .map(|p| p.name())
        .unwrap_err()
        .to_string();
    assert!(msg.contains("7nm"), "{msg}");
    let msg = reg
        .build("opamp2", None, Some("fs_12c"))
        .map(|p| p.name())
        .unwrap_err()
        .to_string();
    assert!(msg.contains("corner"), "{msg}");
}

#[test]
fn both_sweep_builders_reject_an_empty_corner_set_alike() {
    let reg = ScenarioRegistry::standard();
    let opamp2 = reg.get("opamp2").unwrap();
    let cornerless = Scenario::new(
        "cornerless",
        "opamp2 registered with no corners",
        &["180nm"],
        "180nm",
        Vec::new(),
        opamp2.builder(),
    );
    let reason = |built: Result<CornerSweep, ScenarioError>| match built {
        Err(ScenarioError::BadCorner { reason, .. }) => reason,
        other => panic!("expected BadCorner, got {:?}", other.map(|p| p.name())),
    };
    let no_corners = YieldSettings {
        corners: Some(Vec::new()),
        ..YieldSettings::default()
    };
    assert_eq!(
        reason(cornerless.build_worst("180nm", None)),
        reason(opamp2.build_yield("180nm", None, no_corners))
    );
}

#[test]
fn corner_audit_matches_single_corner_builds() {
    let reg = ScenarioRegistry::standard();
    let scenario = reg.get("folded_cascode").unwrap();
    let p = scenario.build_default();
    let x = p.expert_design();
    let audit = scenario.build_worst("180nm", None).unwrap().audit(&x);
    assert_eq!(audit.len(), scenario.corners.len());
    for eval in &audit {
        let direct = scenario
            .build_at("180nm", &eval.corner, None)
            .unwrap()
            .evaluate(&x);
        assert_eq!(eval.metrics, direct, "audit must equal a direct build");
    }
}

#[test]
fn kato_runs_on_a_registry_built_problem() {
    // End-to-end: registry → problem → full KATO loop, small budget.
    let reg = ScenarioRegistry::standard();
    let p = reg.build("ldo", None, None).unwrap();
    let h = Kato::new(BoSettings::quick(18, 11)).run(p.as_ref(), Mode::Constrained);
    assert_eq!(h.len(), 18);
    assert!(h.evals.iter().all(|e| !e.score.is_nan()));
}

#[test]
fn worst_case_problem_runs_through_kato() {
    let reg = ScenarioRegistry::standard();
    let scenario = reg.get("opamp2").unwrap();
    let wc = scenario.build_worst("180nm", None).unwrap();
    let h = Kato::new(BoSettings::quick(14, 3)).run(&wc, Mode::Constrained);
    assert_eq!(h.len(), 14);
    // Worst-case scoring can only be harder than nominal: any design
    // feasible here must also be feasible on the nominal problem.
    let nominal = scenario.build_at("180nm", &Corner::tt(), None).unwrap();
    for e in h.evals.iter().filter(|e| e.feasible) {
        assert!(
            nominal.evaluate(&e.x).feasible(nominal.specs()),
            "worst-case feasible must imply nominal feasible"
        );
    }
}

/// FNV-1a over a byte stream (the same fold as `integration_bo_loop`'s
/// trace hash).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Length-prefixed, so adjacent strings cannot trade characters.
    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// FNV-1a over the bit pattern of every metric of every design, in order.
fn metrics_hash(population: &[Metrics]) -> u64 {
    let mut hash = Fnv::new();
    for v in population.iter().flat_map(|m| m.values()) {
        hash.float(*v);
    }
    hash.0
}

/// FNV-1a over everything a problem declares besides its physics: name,
/// variables (name, range, scale), metric names, spec table (metric,
/// kind, bound bits) and expert design.
fn surface_hash(p: &dyn SizingProblem) -> u64 {
    let mut hash = Fnv::new();
    hash.text(&p.name());
    for v in p.variables() {
        hash.text(v.name);
        hash.float(v.lo);
        hash.float(v.hi);
        hash.word(u64::from(v.log));
    }
    for name in p.metric_names() {
        hash.text(name);
    }
    for spec in p.specs() {
        hash.word(spec.metric as u64);
        let (kind, bound) = match spec.kind {
            SpecKind::Objective(Goal::Minimize) => (0, 0.0),
            SpecKind::Objective(Goal::Maximize) => (1, 0.0),
            SpecKind::GreaterEq(b) => (2, b),
            SpecKind::LessEq(b) => (3, b),
        };
        hash.word(kind);
        hash.float(bound);
    }
    for u in p.expert_design() {
        hash.float(u);
    }
    hash.0
}

/// Compares a `(case, hash)` table against its pinned constants; on a
/// mismatch the failure message prints the new constant set, to be
/// committed only when the change is meant to move results.
fn assert_pinned(actual: &[(String, u64)], pinned: &[(&str, u64)], what: &str) {
    let moved: Vec<&str> = actual
        .iter()
        .zip(pinned)
        .filter(|((n, v), (pn, pv))| n != pn || v != pv)
        .map(|((n, _), _)| n.as_str())
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, v)| format!("        (\"{n}\", 0x{v:016x}),\n"))
        .collect();
    assert!(
        moved.is_empty() && actual.len() == pinned.len(),
        "{what} moved: {moved:?} ({} cases, {} pinned)\nactual:\n{table}",
        actual.len(),
        pinned.len()
    );
}

/// Four seeded designs through the problem's batch path, hashed.
fn pin(p: &dyn SizingProblem) -> u64 {
    let mut rng = StdRng::seed_from_u64(23);
    let xs: Vec<Vec<f64>> = (0..4).map(|_| random_design(p.dim(), &mut rng)).collect();
    metrics_hash(&p.evaluate_batch(&xs))
}

/// Simulated metrics of every scenario × tech node × device backend at
/// TT, every scenario's all-corner worst case at its default tech node
/// and the Monte-Carlo yield problems of the LDO and the four op-amps,
/// pinned bit for bit. Any change to the device layer, the
/// testbenches or the solvers that moves a single output bit fails here.
#[test]
fn simulated_metrics_are_pinned() {
    const PINNED: &[(&str, u64)] = &[
        ("opamp2@180nm/square_law", 0x61e08093fac42449),
        ("opamp2@180nm/lut", 0x1ff0585aaf292975),
        ("opamp2@40nm/square_law", 0xa85ab5e0c7c20764),
        ("opamp2@40nm/lut", 0x786ae198154c44d0),
        ("opamp3@180nm/square_law", 0x672ad1161c525632),
        ("opamp3@180nm/lut", 0x624dda92e946c841),
        ("opamp3@40nm/square_law", 0xd039c3295807e557),
        ("opamp3@40nm/lut", 0xffdd695c76f12d35),
        ("bandgap@180nm/square_law", 0xfbf2e9d8240b5e78),
        ("bandgap@180nm/lut", 0xfbf2e9d8240b5e78),
        ("folded_cascode@180nm/square_law", 0xfbfd3726efca51b0),
        ("folded_cascode@180nm/lut", 0xc7bf96a4dfc481f8),
        ("folded_cascode@40nm/square_law", 0x362c12ebfd4b9ba9),
        ("folded_cascode@40nm/lut", 0x8f2a36cb38db3802),
        ("telescopic@180nm/square_law", 0xdf0b6f2062e5e015),
        ("telescopic@180nm/lut", 0xced0022f93f64f6a),
        ("telescopic@40nm/square_law", 0xebe41a67a9caa499),
        ("telescopic@40nm/lut", 0x469319bbace8e2f4),
        ("ldo@180nm/square_law", 0x89a4ed6e1552006c),
        ("ldo@180nm/lut", 0xc0f10e54a1a0cbcb),
        ("ldo@40nm/square_law", 0x6d1a0a23414b4dfa),
        ("ldo@40nm/lut", 0x0d167ab7ee93142f),
        ("switch@180nm/square_law", 0x0b914b5c97410674),
        ("switch@180nm/lut", 0x4756d6fa432bae9f),
        ("switch@40nm/square_law", 0xd29135766510b3bc),
        ("switch@40nm/lut", 0x498c6aeffeb54c6b),
        ("varactor@180nm/square_law", 0xd710fe47d0f66792),
        ("varactor@180nm/lut", 0xc502f7c7d9855e46),
        ("varactor@40nm/square_law", 0x10b73b06dbbf50f1),
        ("varactor@40nm/lut", 0xd3b2e1a599147bb5),
        ("opamp2@180nm/worstcase", 0xb3fa050980613cfa),
        ("opamp3@180nm/worstcase", 0xb584903591fbc0ab),
        ("bandgap@180nm/worstcase", 0xa3ac06f813b128b2),
        ("folded_cascode@180nm/worstcase", 0x9a3319c8dd05bb55),
        ("telescopic@180nm/worstcase", 0xbe638d30d5af01ad),
        ("ldo@180nm/worstcase", 0x90c513f51a6c4208),
        ("switch@180nm/worstcase", 0x15e67187d1ad7702),
        ("varactor@180nm/worstcase", 0xe7782154785f3a84),
        ("ldo@180nm/yield4", 0xb1ad0e297926a6e8),
        ("opamp2@180nm/yield4", 0xb121f9fc149ac4da),
        ("opamp3@180nm/yield4", 0x459492fe7966ee8a),
        ("folded_cascode@180nm/yield4", 0x09a66bb6a759a4f5),
        ("telescopic@180nm/yield4", 0xc12f442d5336026d),
    ];
    let reg = ScenarioRegistry::standard();
    let mut actual: Vec<(String, u64)> = Vec::new();
    for scenario in reg.scenarios() {
        for tech in scenario.tech_names {
            for backend in [Backend::SquareLaw, Backend::Lut] {
                let p = scenario
                    .build_at(tech, &Corner::tt(), Some(backend))
                    .unwrap();
                let name = format!("{}@{tech}/{}", scenario.name, backend.name());
                actual.push((name, pin(p.as_ref())));
            }
        }
    }
    for scenario in reg.scenarios() {
        let tech = scenario.default_tech;
        let wc = scenario.build_worst(tech, None).unwrap();
        actual.push((format!("{}@{tech}/worstcase", scenario.name), pin(&wc)));
    }
    let yield_settings = YieldSettings {
        samples: 4,
        seed: 7,
        ..YieldSettings::default()
    };
    for name in ["ldo", "opamp2", "opamp3", "folded_cascode", "telescopic"] {
        let scenario = reg.get(name).unwrap();
        let tech = scenario.default_tech;
        let y = scenario
            .build_yield(tech, None, yield_settings.clone())
            .unwrap();
        actual.push((format!("{name}@{tech}/yield4"), pin(&y)));
    }

    assert_pinned(&actual, PINNED, "simulated metrics");
}

/// Everything a registered problem declares besides its physics — name,
/// variables, metric names, spec table and expert design — on every
/// scenario × tech node at TT and as an all-corner worst case, and as a
/// four-sample yield problem at the default tech node, pinned bit for bit.
/// The metric pins above would not notice a moved spec bound, a renamed
/// variable or a changed expert design.
#[test]
fn problem_surfaces_are_pinned() {
    const PINNED: &[(&str, u64)] = &[
        ("opamp2@180nm", 0x7004111e9313ecc0),
        ("opamp2@40nm", 0xe667e8aab266603a),
        ("opamp3@180nm", 0xedfd7128f7185b89),
        ("opamp3@40nm", 0xa25dd283fa4ed7ca),
        ("bandgap@180nm", 0x1fdf0aff2c81106e),
        ("folded_cascode@180nm", 0x9c742c016df2cf9a),
        ("folded_cascode@40nm", 0xadeb9973a2e04cfe),
        ("telescopic@180nm", 0x7ed244dfe5c2f1f9),
        ("telescopic@40nm", 0x0c62934972a031c3),
        ("ldo@180nm", 0x06818a25102e8567),
        ("ldo@40nm", 0xd702a5f117de4f4f),
        ("switch@180nm", 0x2c9e8b5a7153d9c0),
        ("switch@40nm", 0x1ec3218eab086ef2),
        ("varactor@180nm", 0x34bf8737f0a925c8),
        ("varactor@40nm", 0x52ee28f8a80e4e0b),
        ("opamp2@180nm/worstcase", 0x27318fc598afc296),
        ("opamp2@40nm/worstcase", 0xdfa30b214765449c),
        ("opamp3@180nm/worstcase", 0x3ae37c9374f200c3),
        ("opamp3@40nm/worstcase", 0x3f655d7059b547cc),
        ("bandgap@180nm/worstcase", 0x9063823383592ebc),
        ("folded_cascode@180nm/worstcase", 0xcab817ad9ff4a7fc),
        ("folded_cascode@40nm/worstcase", 0x4ded3fa1192ca758),
        ("telescopic@180nm/worstcase", 0xb5e16556c3bc5c7b),
        ("telescopic@40nm/worstcase", 0x30e1f2f1a5e94671),
        ("ldo@180nm/worstcase", 0xe5875067bb5385e9),
        ("ldo@40nm/worstcase", 0x34116c14fddbcc89),
        ("switch@180nm/worstcase", 0x857e44e0fcf45596),
        ("switch@40nm/worstcase", 0xee2c367bb132d6bc),
        ("varactor@180nm/worstcase", 0xe1607809f7694226),
        ("varactor@40nm/worstcase", 0x39ce0c15b3f6b70d),
        ("opamp2@180nm/yield4", 0xb83ebeb7b553697a),
        ("opamp3@180nm/yield4", 0x6de1d9a2038ebaf7),
        ("bandgap@180nm/yield4", 0x976ccf845e140a6d),
        ("folded_cascode@180nm/yield4", 0x9ff5cbdd534c88da),
        ("telescopic@180nm/yield4", 0x823a1651a9aaeb11),
        ("ldo@180nm/yield4", 0x9f2226c794ad8cbf),
        ("switch@180nm/yield4", 0x3e842d520bca72f3),
        ("varactor@180nm/yield4", 0x5812c40530cb0edc),
    ];
    let reg = ScenarioRegistry::standard();
    let mut actual: Vec<(String, u64)> = Vec::new();
    for scenario in reg.scenarios() {
        for tech in scenario.tech_names {
            let p = scenario.build_at(tech, &Corner::tt(), None).unwrap();
            actual.push((
                format!("{}@{tech}", scenario.name),
                surface_hash(p.as_ref()),
            ));
        }
    }
    for scenario in reg.scenarios() {
        for tech in scenario.tech_names {
            let wc = scenario.build_worst(tech, None).unwrap();
            actual.push((
                format!("{}@{tech}/worstcase", scenario.name),
                surface_hash(&wc),
            ));
        }
    }
    for scenario in reg.scenarios() {
        let tech = scenario.default_tech;
        let settings = YieldSettings {
            samples: 4,
            seed: 7,
            ..YieldSettings::default()
        };
        let y = scenario.build_yield(tech, None, settings).unwrap();
        actual.push((format!("{}@{tech}/yield4", scenario.name), surface_hash(&y)));
    }
    assert_pinned(&actual, PINNED, "problem surfaces");
}
