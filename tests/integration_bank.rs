//! Integration: the knowledge bank end to end — lossless archive
//! persistence (property-tested) and the headline serving behaviour: a
//! completed `opamp2@180nm` run persisted to the bank warm-starts an
//! `opamp2@40nm` request and reaches feasibility in strictly fewer
//! simulator evaluations than the identical cold-start run.

use kato::{EvalRecord, Mode, RunHistory};
use kato_circuits::{opamp2, Metrics, SizingProblem, TechNode};
use kato_serve::archive::{history_from_json, history_to_json};
use kato_serve::daemon::{request_settings, run_with_bank};
use kato_serve::protocol::sims_to_feasible;
use kato_serve::{Bank, Daemon, Json};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn tmp_bank_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kato_it_bank_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// f64 equality where NaN == NaN (bitwise intent: the roundtrip must not
/// turn NaN into anything else, or vice versa).
fn same_num(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

proptest! {
    #[test]
    fn prop_history_roundtrips_losslessly_through_the_archive(
        raw in proptest::collection::vec(-1e6..1e6f64, 48),
        picks in proptest::collection::vec(0..20usize, 16),
        seed in 0..1_000_000u64,
    ) {
        // Assemble a 8-eval history of 2-D designs with 3 metrics each,
        // sprinkling in the non-finite values a real trace contains.
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let mut h = RunHistory::new("opamp2_180nm", "KATO+bank[test]", seed);
        for i in 0..8 {
            let mut vals: Vec<f64> = raw[i * 6..i * 6 + 6].to_vec();
            // picks decides which entries get overwritten with specials.
            let p = picks[i * 2];
            if p < specials.len() {
                vals[p % 6] = specials[p];
            }
            let feasible = picks[i * 2 + 1] % 2 == 0;
            let score = if feasible { vals[0] } else { f64::NEG_INFINITY };
            h.evals.push(EvalRecord {
                x: vals[..2].iter().map(|v| v.abs() % 1.0).collect(),
                metrics: Metrics::new(vals[2..5].to_vec()),
                feasible,
                score,
            });
        }

        let text = history_to_json(&h).to_string();
        let back = history_from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back.problem, &h.problem);
        prop_assert_eq!(&back.method, &h.method);
        prop_assert_eq!(back.seed, h.seed);
        prop_assert_eq!(back.evals.len(), h.evals.len());
        for (a, b) in back.evals.iter().zip(&h.evals) {
            prop_assert_eq!(a.feasible, b.feasible);
            prop_assert!(same_num(a.score, b.score), "{} vs {}", a.score, b.score);
            for (&va, &vb) in a.x.iter().zip(&b.x) {
                prop_assert!(same_num(va, vb));
            }
            for (&va, &vb) in a.metrics.values().iter().zip(b.metrics.values()) {
                prop_assert!(same_num(va, vb), "{va} vs {vb}");
            }
        }
    }
}

#[test]
fn bank_file_roundtrip_survives_a_fresh_process_view() {
    // Same property, but through the actual files: append a real (short)
    // run, reopen the bank from disk, and compare traces exactly.
    let dir = tmp_bank_dir("reload");
    let problem = opamp2(TechNode::n180());
    let mut h = RunHistory::new(&problem.name(), "KATO", 17);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
    for _ in 0..6 {
        let x = kato_circuits::random_design(problem.dim(), &mut rng);
        h.evaluate_and_push(&problem, &Mode::Constrained, x);
    }
    {
        let mut bank = Bank::open(&dir).unwrap();
        bank.append("opamp2", "180nm", &h).unwrap();
    }
    let bank = Bank::open(&dir).unwrap();
    let runs = bank.runs("opamp2", "180nm").unwrap();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].evals.len(), h.evals.len());
    for (a, b) in runs[0].evals.iter().zip(&h.evals) {
        assert_eq!(a.x, b.x);
        assert_eq!(a.feasible, b.feasible);
        assert!(same_num(a.score, b.score));
        for (&va, &vb) in a.metrics.values().iter().zip(b.metrics.values()) {
            assert!(same_num(va, vb));
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_start_from_the_bank_beats_cold_start_180_to_40nm() {
    // The acceptance scenario: persist one completed opamp2@180nm run,
    // then size opamp2@40nm once cold and once through the bank with the
    // same seed/budget. The warm run must attach the 180 nm archive as its
    // transfer source and reach a feasible point in strictly fewer
    // simulator evaluations. Fully seeded → deterministic.
    let dir = tmp_bank_dir("warm_vs_cold");
    let seed = 11;
    let settings = request_settings(40, seed);

    // Stage 1: a completed 180 nm run goes into the bank.
    let src_problem = opamp2(TechNode::n180());
    let (src_run, src_warm) = run_with_bank(
        None,
        "opamp2",
        "180nm",
        &src_problem,
        settings.clone(),
        None,
    );
    assert!(src_warm.is_none());
    assert_eq!(src_run.len(), 40);
    let mut bank = Bank::open(&dir).unwrap();
    bank.append("opamp2", "180nm", &src_run).unwrap();

    // Stage 2: the 40 nm request, cold vs through the bank.
    let target = opamp2(TechNode::n40());
    let (cold, none) = run_with_bank(None, "opamp2", "40nm", &target, settings.clone(), None);
    assert!(none.is_none());
    let (warm, choice) = run_with_bank(Some(&bank), "opamp2", "40nm", &target, settings, None);
    let choice = choice.expect("bank must supply a warm-start source");
    assert_eq!(choice.label, "opamp2_180nm");
    assert_eq!(choice.tech, "180nm");
    assert!(!choice.same_tech);
    assert!(
        warm.method.contains("bank[opamp2_180nm]"),
        "{}",
        warm.method
    );

    // Both spend the same budget; the warm start gets feasible sooner.
    assert_eq!(cold.len(), warm.len());
    let cold_sims = sims_to_feasible(&cold);
    let warm_sims = sims_to_feasible(&warm).expect("warm run must reach feasibility");
    match cold_sims {
        None => {} // cold never feasible: warm wins by definition
        Some(c) => assert!(
            warm_sims < c,
            "warm start must beat cold: warm {warm_sims} vs cold {c}"
        ),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn daemon_caches_hits_and_warm_starts_new_tech_from_the_bank() {
    // The daemon-level view of the same story, exercising the full
    // request→response path: identical requests dedupe through the cache,
    // and a request on a new tech node warm-starts from the persisted run.
    let dir = tmp_bank_dir("daemon");
    let mut daemon = Daemon::new().with_bank(Bank::open(&dir).unwrap());

    let r1 =
        daemon.handle_line(r#"{"id":"a","scenario":"opamp2","tech":"180nm","budget":18,"seed":7}"#);
    let d1 = Json::parse(&r1).unwrap();
    assert_eq!(d1.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(d1.get("cache_hit").unwrap().as_bool(), Some(false));
    // First request on an empty bank runs cold.
    assert!(d1.get("warm_start").unwrap().is_null());

    let r2 =
        daemon.handle_line(r#"{"id":"b","scenario":"opamp2","tech":"180nm","budget":18,"seed":7}"#);
    let d2 = Json::parse(&r2).unwrap();
    assert_eq!(d2.get("cache_hit").unwrap().as_bool(), Some(true));
    assert_eq!(
        d1.get("best").unwrap().to_string(),
        d2.get("best").unwrap().to_string()
    );

    let r3 =
        daemon.handle_line(r#"{"id":"c","scenario":"opamp2","tech":"40nm","budget":18,"seed":7}"#);
    let d3 = Json::parse(&r3).unwrap();
    assert_eq!(d3.get("cache_hit").unwrap().as_bool(), Some(false));
    let warm = d3.get("warm_start").unwrap();
    assert!(!warm.is_null(), "40nm request must warm-start: {r3}");
    assert_eq!(warm.get("source").unwrap().as_str(), Some("opamp2_180nm"));
    assert_eq!(warm.get("same_tech").unwrap().as_bool(), Some(false));

    // The bank on disk now holds both runs, reloadable by a fresh process.
    let bank = Bank::open(&dir).unwrap();
    assert_eq!(bank.runs("opamp2", "180nm").unwrap().len(), 1);
    assert_eq!(bank.runs("opamp2", "40nm").unwrap().len(), 1);
    fs::remove_dir_all(&dir).unwrap();
}
