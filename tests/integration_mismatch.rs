//! Integration: Monte-Carlo mismatch sampling is deterministic and
//! statistically faithful to the Pelgrom area law.
//!
//! Two properties gate here:
//!
//! 1. **Determinism** — the perturbed tech card is a pure function of
//!    `(seed, candidate design vector, sample index)`: rebuilt streams
//!    give bitwise-identical device queries, interleaving queries to other
//!    devices or candidates changes nothing, and the yield pipeline
//!    produces bitwise-identical metrics at any thread count and any
//!    population position (proptest + an explicit sweep over one and four
//!    workers via the scoped `kato_par::with_threads` override).
//! 2. **Statistics** — over 10k draws, the sample σ of ΔVth matches
//!    `A_vth/√(WL)` within 5%, and doubling the gate area halves the
//!    variance (the defining Pelgrom scaling).

use kato::evaluate_batch_sharded;
use kato_circuits::{
    Metrics, MismatchStream, Pelgrom, ScenarioRegistry, SizingProblem, TechNode, YieldSettings,
};
use proptest::prelude::*;

const PELGROM: Pelgrom = Pelgrom {
    a_vth: 5e-9,
    a_kp: 1e-8,
};

proptest! {
    /// Same (seed, candidate, sample) → bitwise-identical perturbed card,
    /// no matter how the stream is rebuilt or what was queried in between.
    #[test]
    fn perturbed_card_is_a_pure_function_of_seed_candidate_sample(
        seed in 0u64..u64::MAX,
        x in proptest::collection::vec(0.0f64..1.0, 1..8),
        sample in 0u64..64,
        w_um in 0.5f64..50.0,
        l_um in 0.18f64..5.0,
        vgs in 0.4f64..1.6,
        vds in 0.2f64..1.6,
    ) {
        let (w, l) = (w_um * 1e-6, l_um * 1e-6);
        let card_a = TechNode::n180()
            .with_mismatch(MismatchStream::for_candidate(seed, &x, sample));
        let card_b = TechNode::n180()
            .with_mismatch(MismatchStream::for_candidate(seed, &x, sample));

        // Bitwise-equal I-V triples from independently rebuilt cards.
        let iv_a = card_a.mos_iv(&card_a.nmos, w, l, vgs, vds);
        prop_assert_eq!(iv_a, card_b.mos_iv(&card_b.nmos, w, l, vgs, vds));

        // Interleave queries to the complementary device, another geometry
        // and another candidate's card — then re-query: still identical.
        let other = TechNode::n180()
            .with_mismatch(MismatchStream::for_candidate(seed ^ 1, &x, sample));
        let _ = card_a.mos_iv(&card_a.pmos, w, l, -vgs, -vds);
        let _ = card_a.mos_iv(&card_a.nmos, 2.0 * w, l, vgs, vds);
        let _ = other.mos_iv(&other.nmos, w, l, vgs, vds);
        prop_assert_eq!(iv_a, card_a.mos_iv(&card_a.nmos, w, l, vgs, vds));

        // A different sample index of the same candidate is a different
        // card (with overwhelming probability over random seeds).
        let shifted = TechNode::n180()
            .with_mismatch(MismatchStream::for_candidate(seed, &x, sample + 1));
        let d_here = card_a.local_deltas(&card_a.nmos, w, l);
        let d_next = shifted.local_deltas(&shifted.nmos, w, l);
        prop_assert!(d_here != d_next, "samples {} and {} collided", sample, sample + 1);

        // The operating-point inversion sees the same perturbed device as
        // the forward evaluation: round-trip through vgs_for_id.
        let (id, _, _) = iv_a;
        if id > 1e-12 {
            let vgs_back = card_a.vgs_for_id(&card_a.nmos, w, l, vds, id);
            let (id_back, _, _) = card_a.mos_iv(&card_a.nmos, w, l, vgs_back, vds);
            prop_assert!(
                (id_back - id).abs() <= 1e-6 * id.abs() + 1e-15,
                "round-trip drifted: {} vs {}", id_back, id
            );
        }
    }
}

#[test]
fn yield_metrics_identical_across_thread_counts_and_population_order() {
    let reg = ScenarioRegistry::standard();
    let scenario = reg.get("opamp2").unwrap();
    let problem = scenario
        .build_yield(
            "180nm",
            None,
            YieldSettings {
                samples: 6,
                threshold: 0.5,
                seed: 23,
                ..YieldSettings::default()
            },
        )
        .unwrap();
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..problem.dim())
                .map(|j| ((i * 37 + j * 11) % 100) as f64 / 100.0)
                .collect()
        })
        .chain([problem.expert_design()])
        .collect();

    // Reference: scalar loop, no pool involvement at all.
    let reference: Vec<Metrics> = xs.iter().map(|x| problem.evaluate(x)).collect();

    let rev: Vec<Vec<f64>> = xs.iter().rev().cloned().collect();
    for threads in [1, 4] {
        let (batched, batched_rev) = kato_par::with_threads(threads, || {
            (
                evaluate_batch_sharded(&problem, &xs),
                evaluate_batch_sharded(&problem, &rev),
            )
        });
        assert_eq!(batched, reference, "{threads} threads");
        // Reversed population: each candidate's metrics must not depend on
        // its neighbours or its position.
        let unrev: Vec<Metrics> = batched_rev.into_iter().rev().collect();
        assert_eq!(unrev, reference, "{threads} threads, reversed");
    }
}

#[test]
fn sigma_of_10k_draws_matches_the_area_law_within_5_percent() {
    let stream = MismatchStream::from_key(0xC0FF_EE00_1234_5678);
    let n = 10_000u64;
    let draws = |w: f64, l: f64| -> Vec<f64> {
        (0..n)
            .map(|d| stream.deltas(d, w, l, &PELGROM).dvth)
            .collect()
    };
    let var = |v: &[f64]| -> f64 {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (v.len() - 1) as f64
    };

    // 1 µm × 1 µm at A_vth = 5 mV·µm ⇒ σ = 5 mV.
    let (w, l) = (1e-6, 1e-6);
    let expected = PELGROM.sigma_vth(w, l);
    let sample_sigma = var(&draws(w, l)).sqrt();
    let rel = (sample_sigma - expected).abs() / expected;
    assert!(
        rel < 0.05,
        "sample σ {sample_sigma:.6e} vs Pelgrom {expected:.6e} ({:.1}% off)",
        100.0 * rel
    );

    // Doubling W·L halves the variance: σ² ∝ 1/(WL).
    let var_1x = var(&draws(w, l));
    let var_2x = var(&draws(2.0 * w, l));
    let ratio = var_2x / var_1x;
    assert!(
        (ratio - 0.5).abs() < 0.05,
        "variance ratio at 2x area was {ratio:.4}, expected 0.5"
    );

    // And the KP component follows the same law.
    let kp_rel = |w: f64, l: f64| -> Vec<f64> {
        (0..n)
            .map(|d| stream.deltas(d, w, l, &PELGROM).kp_ratio - 1.0)
            .collect()
    };
    let kp_sigma = var(&kp_rel(w, l)).sqrt();
    let kp_expected = PELGROM.sigma_kp_rel(w, l);
    let kp_err = (kp_sigma - kp_expected).abs() / kp_expected;
    assert!(kp_err < 0.05, "KP σ off by {:.1}%", 100.0 * kp_err);
}

#[test]
fn mismatch_draws_are_uncorrelated_across_devices() {
    // Box–Muller pairs land on different devices, so cross-device
    // correlation of ΔVth must vanish at scale — the independence the
    // yield estimator's pass/fail counting assumes.
    let stream = MismatchStream::from_key(99);
    let n = 10_000u64;
    let (w, l) = (1e-6, 1e-6);
    let a: Vec<f64> = (0..n)
        .map(|d| stream.deltas(2 * d, w, l, &PELGROM).dvth)
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|d| stream.deltas(2 * d + 1, w, l, &PELGROM).dvth)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (ma, mb) = (mean(&a), mean(&b));
    let cov = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x - ma) * (y - mb))
        .sum::<f64>()
        / (n - 1) as f64;
    let sigma2 = PELGROM.sigma_vth(w, l).powi(2);
    assert!(
        (cov / sigma2).abs() < 0.05,
        "normalised cross-device covariance {:.4}",
        cov / sigma2
    );
}
