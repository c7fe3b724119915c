//! Integration: every optimizer's seeded trace is pinned bit for bit.
//!
//! Each run below hashes its whole history — the bits of every design
//! vector, metric vector and score plus the feasibility flag, in
//! simulation order — and compares the hash with a constant recorded from
//! a reference build. Any change to seed derivation, RNG draw order,
//! batch splitting, clamping or surrogate numerics moves a hash, so a
//! refactor of the BO loop that claims "no trace moves" is checked here
//! rather than by eye. The traces are thread-count invariant, so the
//! constants hold at any `KATO_THREADS`.
//!
//! On a mismatch the failure message lists every actual hash, ready to be
//! pasted back once a trace change has been justified.

use kato::baselines::Baseline;
use kato::{BoSettings, Kato, MaceVariant, Mode, RunHistory, SourceData};
use kato_circuits::{
    random_design, FomSpec, Goal, Metrics, SizingProblem, Spec, SpecKind, VarSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 2-D constrained toy: maximise `1−(x0−0.7)²−(x1−0.3)²` s.t. `x0 ≥ 0.4`.
struct Toy {
    vars: Vec<VarSpec>,
    specs: Vec<Spec>,
}

impl Toy {
    fn new() -> Self {
        Toy {
            vars: vec![VarSpec::lin("a", 0.0, 1.0), VarSpec::lin("b", 0.0, 1.0)],
            specs: vec![
                Spec {
                    metric: 0,
                    kind: SpecKind::Objective(Goal::Maximize),
                },
                Spec {
                    metric: 1,
                    kind: SpecKind::GreaterEq(0.4),
                },
            ],
        }
    }
}

impl SizingProblem for Toy {
    fn name(&self) -> String {
        "toy_loop".into()
    }
    fn variables(&self) -> &[VarSpec] {
        &self.vars
    }
    fn metric_names(&self) -> &[&'static str] {
        &["obj", "con"]
    }
    fn specs(&self) -> &[Spec] {
        &self.specs
    }
    fn evaluate(&self, x: &[f64]) -> Metrics {
        let obj = 1.0 - (x[0] - 0.7).powi(2) - (x[1] - 0.3).powi(2);
        Metrics::new(vec![obj, x[0]])
    }
    fn expert_design(&self) -> Vec<f64> {
        vec![0.7, 0.3]
    }
}

/// FNV-1a over the bits of every record of a history.
fn trace_hash(h: &RunHistory) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(h.len() as u64);
    for e in &h.evals {
        e.x.iter().for_each(|v| eat(v.to_bits()));
        e.metrics.values().iter().for_each(|v| eat(v.to_bits()));
        eat(e.score.to_bits());
        eat(u64::from(e.feasible));
    }
    hash
}

/// Compares every `(name, history)` hash against `expected` and reports all
/// mismatches at once.
fn assert_pinned(runs: &[(&str, RunHistory)], expected: &[(&str, u64)]) {
    assert_eq!(runs.len(), expected.len(), "run table and constants differ");
    let actual: Vec<(&str, u64)> = runs.iter().map(|(n, h)| (*n, trace_hash(h))).collect();
    let moved: Vec<&str> = actual
        .iter()
        .zip(expected)
        .filter(|(a, e)| a.0 != e.0 || a.1 != e.1)
        .map(|(a, _)| a.0)
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, v)| format!("        (\"{n}\", 0x{v:016x}),\n"))
        .collect();
    assert!(
        moved.is_empty(),
        "traces moved: {moved:?}\nactual:\n{table}"
    );
}

fn settings(seed: u64) -> BoSettings {
    BoSettings::quick(22, seed)
}

#[test]
fn kato_traces_are_pinned() {
    let toy = Toy::new();
    let fom = FomSpec::calibrate(&toy, 64, 1);
    let src = SourceData::from_problem_random(&toy, 30, 3);
    let src_fom = SourceData::from_problem_random_fom(&toy, &fom, 30, 3);
    let cons = || Mode::Constrained;
    let fom_mode = || Mode::Fom(fom.clone());

    // A hand-made probe prefix for the warm-start (bank) path.
    let mut probe = RunHistory::new(&toy.name(), "KATO", 8);
    let mut rng = StdRng::seed_from_u64(99);
    let probes: Vec<Vec<f64>> = (0..6).map(|_| random_design(2, &mut rng)).collect();
    probe.evaluate_and_push_batch(&toy, &Mode::Constrained, probes);

    let runs = [
        ("kato", Kato::new(settings(1)).run(&toy, cons())),
        ("kato_fom", Kato::new(settings(2)).run(&toy, fom_mode())),
        (
            "kato_tl",
            Kato::new(settings(3))
                .with_source(src.clone())
                .run(&toy, cons()),
        ),
        (
            "kato_tl_fom",
            Kato::new(settings(4))
                .with_source(src_fom.clone())
                .run(&toy, fom_mode()),
        ),
        (
            "kato_forced",
            Kato::new(settings(5))
                .with_source(src.clone())
                .with_forced_transfer()
                .run(&toy, cons()),
        ),
        (
            "kato_forced_fom",
            Kato::new(settings(6))
                .with_source(src_fom)
                .with_forced_transfer()
                .run(&toy, fom_mode()),
        ),
        (
            "kato_resume_tl",
            Kato::new(settings(8))
                .with_source(src)
                .with_label("KATO+bank")
                .resume(&toy, cons(), probe),
        ),
    ];
    assert_pinned(
        &runs,
        &[
            ("kato", 0x9e36_158f_fe55_00a5),
            ("kato_fom", 0x14a4_a41f_538a_3888),
            ("kato_tl", 0x4f66_91bf_083c_1215),
            ("kato_tl_fom", 0x4fca_99ff_9e4d_d2fb),
            ("kato_forced", 0x67cf_9117_dbc6_ac2c),
            ("kato_forced_fom", 0xa9a3_6edd_2fc4_1c8f),
            ("kato_resume_tl", 0xdc66_5f67_e6ff_2b56),
        ],
    );
}

#[test]
fn baseline_traces_are_pinned() {
    let toy = Toy::new();
    let fom = FomSpec::calibrate(&toy, 64, 7);
    let src = SourceData::from_problem_random_fom(&toy, &fom, 40, 11);
    let runs = [
        (
            "mace_full",
            Baseline::Mace(MaceVariant::Full).run(&settings(11), &toy, Mode::Constrained),
        ),
        (
            "mace_modified",
            Baseline::Mace(MaceVariant::Modified).run(&settings(12), &toy, Mode::Constrained),
        ),
        (
            "smac_rf",
            Baseline::SmacRf.run(&settings(13), &toy, Mode::Constrained),
        ),
        (
            "mesmoc",
            Baseline::Mesmoc.run(&settings(14), &toy, Mode::Constrained),
        ),
        (
            "usemoc",
            Baseline::Usemoc.run(&settings(15), &toy, Mode::Constrained),
        ),
        (
            "rs",
            Baseline::Random.run(&settings(16), &toy, Mode::Constrained),
        ),
        (
            "tlmbo_fom",
            Baseline::Tlmbo(src).run(&settings(17), &toy, Mode::Fom(fom)),
        ),
    ];
    assert_pinned(
        &runs,
        &[
            ("mace_full", 0xa612_c415_2faa_cb95),
            ("mace_modified", 0x5c79_a4a4_b9c3_7ef4),
            ("smac_rf", 0x59d7_a9b5_50ad_5a04),
            ("mesmoc", 0x04db_19ae_dfd4_ff40),
            ("usemoc", 0xfce2_56b1_c6d8_cd05),
            ("rs", 0xed19_4bf6_aec1_f9da),
            ("tlmbo_fom", 0x8a89_c051_5294_5c04),
        ],
    );
}
