//! Bit pin of GP hyperparameter training.
//!
//! Each case fits a [`Gp`], then updates it three times: an append that
//! keeps the held optimum (warm skip), an append that retrains, and the
//! same data reordered, which refits. After every step the fitted kernel
//! parameters, the noise variance and the posterior at fixed queries are
//! folded through FNV-1a over their `to_bits`, so a change to the training
//! objective, its gradient or the conditioning that moves a single bit
//! fails here.
//!
//! The cases cross ARD-RBF, the standard Neuk unit and a unit holding all
//! four primitives with data of 1, 2, 7 and 90 points (90 is above the
//! subsample the training sees) and 7 points with duplicated rows. One
//! more case appends a point whose projected distance overflows: the
//! grown Gram holds NaN, the append fails with `GramNotPd`, and the update
//! refits.

use crate::{Gp, GpConfig, KernelSpec, NeukSpec, PrimitiveKernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the bit patterns of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Folds the outcome of a fit or update and, on success, the model.
    fn model<E>(&mut self, gp: &Gp, outcome: &Result<(), E>, queries: &[Vec<f64>]) {
        self.word(u64::from(outcome.is_ok()));
        for &p in gp.kernel_params() {
            self.float(p);
        }
        self.float(gp.noise_variance());
        for (m, v) in gp.predict_batch(queries) {
            self.float(m);
            self.float(v);
        }
    }
}

const DIM: usize = 2;

fn all_primitives() -> KernelSpec {
    KernelSpec::Neuk(NeukSpec {
        input_dim: DIM,
        latent_dim: 2,
        primitives: vec![
            PrimitiveKernel::Rbf,
            PrimitiveKernel::RationalQuadratic,
            PrimitiveKernel::Periodic,
            PrimitiveKernel::Matern52,
        ],
        mix_dim: 2,
    })
}

/// `n` seeded points in `[0, 1]²` and their targets; with `dup`, every
/// third row repeats the one before it.
fn data(n: usize, seed: u64, dup: bool) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let x = if dup && i % 3 == 2 {
            xs[i - 1].clone()
        } else {
            (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect()
        };
        xs.push(x);
    }
    let ys = xs
        .iter()
        .map(|x| (3.0 * x[0]).sin() + 0.5 * (2.0 * x[1]).cos())
        .collect();
    (xs, ys)
}

/// Fit on the first `n` points, append two with the warm check forced to
/// pass, append two more with it forced to fail, then update to the
/// grown set reversed: the hash of the model after each step.
fn training_hash(kernel: KernelSpec, n: usize, seed: u64, dup: bool) -> (u64, Gp) {
    let cfg = GpConfig {
        train_iters: 12,
        seed: 7,
        ..GpConfig::fast()
    };
    let (xs, ys) = data(n + 4, seed, dup);
    let queries: Vec<Vec<f64>> = (0..9)
        .map(|i| vec![i as f64 / 8.0, 1.0 - (i as f64 / 8.0).powi(2)])
        .collect();
    let mut h = Fnv::new();
    let mut gp = Gp::fit(kernel, &xs[..n], &ys[..n], &cfg).expect("fit");
    h.model(&gp, &Ok::<(), ()>(()), &queries);
    let r = gp.update_with_tol(&xs[..n + 2], &ys[..n + 2], &cfg, f64::INFINITY);
    h.model(&gp, &r, &queries);
    let r = gp.update_with_tol(&xs, &ys, &cfg, f64::NEG_INFINITY);
    h.model(&gp, &r, &queries);
    let (rx, ry): (Vec<Vec<f64>>, Vec<f64>) = xs.iter().cloned().zip(ys).rev().unzip();
    let r = gp.update(&rx, &ry, &cfg);
    h.model(&gp, &r, &queries);
    (h.0, gp)
}

#[test]
fn gp_training_is_pinned() {
    // (kernel, n, dup) → hash, recorded against the taped training
    // objective.
    let kernels = [
        ("ard", KernelSpec::ard_rbf(DIM)),
        ("neuk", KernelSpec::neuk(DIM)),
        ("all4", all_primitives()),
    ];
    let cases = [(1, false), (2, false), (7, false), (90, false), (7, true)];
    let pins: [u64; 15] = [
        0x91f0_8f06_8844_ddf8, // ard/n1
        0xd51f_f76f_05f0_28b8, // ard/n2
        0x4a66_a269_fffc_97da, // ard/n7
        0xc76a_ab34_4c78_a3e4, // ard/n90
        0x0a22_293a_2ee7_9b6f, // ard/n7dup
        0xcc87_8fb2_084b_91f8, // neuk/n1
        0xe031_3fe3_c63a_2340, // neuk/n2
        0x7ae8_b2e7_e349_d537, // neuk/n7
        0xa279_4be6_18de_4d47, // neuk/n90
        0x1aa8_a4aa_fe88_a0b8, // neuk/n7dup
        0x4905_5e85_7969_c489, // all4/n1
        0xd062_a73a_f81b_5ca8, // all4/n2
        0xfba8_881c_9ca5_179c, // all4/n7
        0xb74e_9445_309b_3eac, // all4/n90
        0x961e_60f3_59a8_401f, // all4/n7dup
    ];
    let mut got = Vec::new();
    for (name, kernel) in &kernels {
        for &(n, dup) in &cases {
            let (hash, _) = training_hash(kernel.clone(), n, 11 + n as u64, dup);
            got.push((format!("{name}/n{n}{}", if dup { "dup" } else { "" }), hash));
        }
    }
    let table: Vec<String> = got.iter().map(|(c, h)| format!("{c}: {h:#018x}")).collect();
    for ((case, hash), &pin) in got.iter().zip(&pins) {
        assert_eq!(*hash, pin, "{case}\n{}", table.join("\n"));
    }
}

#[test]
fn gp_update_refits_after_a_nan_gram_append() {
    // A point far outside the data, appended under the frozen scalers:
    // its squared projected distance overflows, so Matérn's `∞·0` puts
    // NaN in the Gram. The rank-k extension fails, conditioning fails
    // once with `GramNotPd`, and the update refits with the re-fitted
    // scalers (which keep the outlier's column) from the held noise.
    let cfg = GpConfig {
        train_iters: 12,
        seed: 7,
        ..GpConfig::fast()
    };
    let (mut xs, mut ys) = data(8, 3, false);
    let mut gp = Gp::fit(all_primitives(), &xs[..7], &ys[..7], &cfg).expect("fit");
    xs[7] = vec![1e160, 0.5];
    ys[7] = 0.0;
    let queries: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0, 0.5]).collect();
    let mut h = Fnv::new();
    let r = gp.update(&xs, &ys, &cfg);
    h.model(&gp, &r, &queries);
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(h.0, 0x1a9a_2ebc_637b_24a9, "{:#018x}", h.0);
}
