//! Bit pin of the partially pivoted LU solve, real and complex.
//!
//! Every solution component of a fixed family of systems is folded through
//! FNV-1a over its `to_bits`, so a change to the factorisation that moves a
//! single bit (pivot rule, singularity scale, row-swap order, operation
//! order, complex division) fails here. The families cover what the MNA
//! simulator feeds the LU: seeded dense systems for every `n` from 1 to 8,
//! systems whose diagonal forces row swaps, exact ties in the pivot column,
//! entries spanning more than twelve decades (as `G + jωC` does between
//! 10 Hz and 20 GHz), and pivots just either side of the `1e-13 × max|a|`
//! singularity threshold.
//!
//! A second, edge-case pin covers every input on which a cheap magnitude
//! key (`|z|²` rather than `|z|`) could rank entries differently from the
//! modulus: pivot candidates 1–4 ulp apart, candidates with equal `|z|²`
//! and different `|z|`, candidates whose `|z|²` order is the reverse of
//! their `|z|` order, pivots within 1e-9 relative of the singularity
//! threshold (also where the scale itself is such a near tie, and where
//! `|z|² < t²` and `|z| < t` disagree), entries
//! whose square overflows or underflows, and NaN or ±inf entries as the
//! pivot, below it and elsewhere in the matrix.

use kato_linalg::{Complex64, LinalgError, Lu};

/// Solves the row-major `n × n` system `a x = b`. These two adapters are
/// the only lines that name the LU API.
fn solve_real(n: usize, a: Vec<f64>, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Ok(Lu::new(n, a, Vec::new())?.solve(b))
}

fn solve_complex(
    n: usize,
    a: Vec<Complex64>,
    b: &[Complex64],
) -> Result<Vec<Complex64>, LinalgError> {
    Ok(Lu::new(n, a, Vec::new())?.solve(b))
}

/// FNV-1a over a byte stream (the same fold as `integration_registry`'s
/// metric hash).
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

    /// Like [`Fnv::float`], but every NaN folds to one word: which NaN
    /// payload an operation returns is the hardware's choice, not the
    /// solver's.
    fn float_or_nan(&mut self, v: f64) {
        self.word(if v.is_nan() {
            0x7ff8_0000_0000_0000
        } else {
            v.to_bits()
        });
    }

    /// Tags each outcome so a `Singular` cannot alias a solution.
    fn outcome<T>(
        &mut self,
        result: Result<Vec<T>, LinalgError>,
        mut parts: impl FnMut(&mut Self, &T),
    ) {
        match result {
            Ok(x) => {
                self.word(0);
                self.word(x.len() as u64);
                for v in &x {
                    parts(self, v);
                }
            }
            Err(LinalgError::Singular) => self.word(1),
            Err(e) => panic!("unexpected LU failure: {e}"),
        }
    }
}

/// SplitMix64: a fixed, dependency-free stream for the seeded systems.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// `±10^e` with `e` uniform in `[lo, hi)` and a random sign.
    fn decades(&mut self, lo: f64, hi: f64) -> f64 {
        let sign = if self.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        sign * 10f64.powf(self.range(lo, hi))
    }
}

/// One square system `a x = b`, row-major.
struct System<T> {
    n: usize,
    a: Vec<T>,
    b: Vec<T>,
}

/// The real systems, in a fixed order.
fn real_systems() -> Vec<System<f64>> {
    let mut rng = Rng(0x5eed_0001);
    let mut out = Vec::new();
    for n in 1..=8 {
        for _ in 0..4 {
            let a = (0..n * n).map(|_| rng.range(-1.0, 1.0)).collect();
            let b = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
            out.push(System { n, a, b });
        }
        // Row swaps: a diagonally dominant matrix with its rows reversed,
        // so the dominant entry of every column sits below the diagonal.
        let mut a: Vec<f64> = (0..n * n).map(|_| rng.range(-1.0, 1.0)).collect();
        for i in 0..n {
            a[i * n + i] = 2.0 * n as f64 + rng.range(0.0, 1.0);
        }
        let reversed = (0..n)
            .rev()
            .flat_map(|i| a[i * n..(i + 1) * n].to_vec())
            .collect();
        let b = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
        out.push(System { n, a: reversed, b });
        // Row swaps from a zero diagonal.
        let mut a: Vec<f64> = (0..n * n).map(|_| rng.range(-1.0, 1.0)).collect();
        for i in 0..n {
            a[i * n + i] = 0.0;
        }
        let b = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
        out.push(System { n, a, b });
        // A first column of equal magnitudes: the pivot rule's tie-break.
        let mut a: Vec<f64> = (0..n * n).map(|_| rng.range(-1.0, 1.0)).collect();
        for i in 0..n {
            a[i * n] = if i % 2 == 0 { 2.0 } else { -2.0 };
        }
        let b = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
        out.push(System { n, a, b });
        // Entries spanning fifteen decades, 1e-12 to 1e3.
        let a = (0..n * n).map(|_| rng.decades(-12.0, 3.0)).collect();
        let b = (0..n).map(|_| rng.decades(-12.0, 3.0)).collect();
        out.push(System { n, a, b });
    }
    for pivot in threshold_pivots() {
        out.push(threshold_system(|v| v, pivot));
    }
    out
}

/// The complex systems, in a fixed order.
fn complex_systems() -> Vec<System<Complex64>> {
    let mut rng = Rng(0x5eed_0002);
    let mut out = Vec::new();
    for n in 1..=8 {
        for _ in 0..4 {
            let a = (0..n * n)
                .map(|_| Complex64::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
                .collect();
            let b = (0..n)
                .map(|_| Complex64::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
                .collect();
            out.push(System { n, a, b });
        }
        // Row swaps from a zero diagonal.
        let a = (0..n * n)
            .map(|k| {
                if k % (n + 1) == 0 {
                    Complex64::ZERO
                } else {
                    Complex64::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0))
                }
            })
            .collect();
        let b = (0..n)
            .map(|_| Complex64::new(rng.range(-1.0, 1.0), 0.0))
            .collect();
        out.push(System { n, a, b });
        // A first column of equal moduli (|3 ± 4j| = |5| = 5 exactly).
        let ties = [(3.0, 4.0), (4.0, -3.0), (-5.0, 0.0), (0.0, 5.0)];
        let mut a: Vec<Complex64> = (0..n * n)
            .map(|_| Complex64::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
            .collect();
        for i in 0..n {
            let (re, im) = ties[i % ties.len()];
            a[i * n] = Complex64::new(re, im);
        }
        let b = (0..n)
            .map(|_| Complex64::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
            .collect();
        out.push(System { n, a, b });
    }
    // MNA-shaped `G + jωC` at ten frequencies from 10 Hz to 20 GHz: node
    // conductances 1e-12..1e-3 S, capacitances 1e-15..1e-12 F, and one
    // voltage-source branch (±1 stamps, zero diagonal) driving node 0.
    for nodes in [2, 4, 7] {
        let dim = nodes + 1;
        let mut g = vec![0.0; dim * dim];
        let mut c = vec![0.0; dim * dim];
        for i in 0..nodes {
            for j in 0..nodes {
                g[i * dim + j] = rng.decades(-12.0, -3.0);
                c[i * dim + j] = rng.decades(-15.0, -12.0);
            }
        }
        g[nodes] = 1.0; // KCL of node 0 sees the branch current
        g[nodes * dim] = 1.0; // branch equation: v0 = 1
        for k in 0..10 {
            let f = 10.0 * 2e9f64.powf(f64::from(k) / 9.0);
            let omega = 2.0 * std::f64::consts::PI * f;
            let a = g
                .iter()
                .zip(&c)
                .map(|(&gij, &cij)| Complex64::new(gij, omega * cij))
                .collect();
            let mut b = vec![Complex64::ZERO; dim];
            b[nodes] = Complex64::new(1.0, 0.0);
            out.push(System { n: dim, a, b });
        }
    }
    for pivot in threshold_pivots() {
        out.push(threshold_system(
            Complex64::from_re,
            Complex64::new(0.6 * pivot, 0.8 * pivot),
        ));
    }
    out
}

/// The singularity threshold of [`threshold_system`] (`max|a|` is 2), and
/// one last pivot just above it and one just below.
fn threshold_pivots() -> [f64; 2] {
    let threshold = 1e-13 * 2.0;
    [threshold * (1.0 + 1e-9), threshold * (1.0 - 1e-9)]
}

/// A 3 × 3 system that swaps rows at its first step and meets `pivot` (of
/// magnitude `|pivot|`) at its last: `[[0, 1, 0], [2, 0, 0], [0, 0, pivot]]`.
fn threshold_system<T>(real: impl Fn(f64) -> T, pivot: T) -> System<T> {
    let mut a: Vec<T> = [0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0].map(&real).into();
    a.push(pivot);
    System {
        n: 3,
        a,
        b: vec![real(1.0), real(-3.0), real(0.5)],
    }
}

/// `x` moved by `ulps` units in the last place (`x > 0`).
fn ulps(x: f64, ulps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
}

/// Pairs `(z1, z2)` with `|z1|² == |z2|²` in floating point but
/// `|z1| < |z2|` under `hypot`, so a `|z|²` ranking ties what the modulus
/// orders.
fn equal_square_pairs() -> [(Complex64, Complex64); 3] {
    let pairs = [
        (
            (1.391933273387512, 0.9987871902637294),
            (1.392325691036005, 0.9982400808819997),
        ),
        (
            (0.854811727525436, 0.8395487776462516),
            (0.8549712853774663, 0.8393862881548273),
        ),
        (
            (1.489140061944366, 1.2297353367588286),
            (1.4889200369879279, 1.230001726021914),
        ),
    ];
    pairs.map(|((a, b), (c, d))| {
        let (z1, z2) = (Complex64::new(a, b), Complex64::new(c, d));
        if z1.abs() < z2.abs() {
            (z1, z2)
        } else {
            (z2, z1)
        }
    })
}

/// Pairs `(z1, z2)` with `|z1|² > |z2|²` in floating point but
/// `|z1| < |z2|` under `hypot`: a `|z|²` ranking inverts what the modulus
/// orders, and `1e-13·|z1| != 1e-13·|z2|`.
fn inverted_pairs() -> [(Complex64, Complex64); 4] {
    [
        (
            (1.1844523067361155, 1.174970549125353),
            (1.2147177593681096, 1.1436537165244374),
        ),
        (
            (1.350053063985977, 0.9831493404591652),
            (1.4920095609612545, 0.7504221286871947),
        ),
        (
            (1.2956080346050813, 0.8684287986174634),
            (1.157321998433987, 1.0456455181093518),
        ),
        (
            (1.4846153881097792, 0.5171005444343022),
            (1.4628453353976658, 0.5758119036385865),
        ),
    ]
    .map(|((a, b), (c, d))| (Complex64::new(a, b), Complex64::new(c, d)))
}

/// Pivots of modulus within one ulp of `threshold` on which `|z|² < t²`
/// and `|z| < t` disagree, found by a fixed scan over phase angles.
fn disagreeing_pivots(threshold: f64) -> Vec<Complex64> {
    let mut out = Vec::new();
    for k in 0..4000 {
        let theta = f64::from(k) * 7e-4;
        for m in [ulps(threshold, -1), threshold, ulps(threshold, 1)] {
            let z = Complex64::new(m * theta.cos(), m * theta.sin());
            let key_below = z.re * z.re + z.im * z.im < threshold * threshold;
            if key_below != (z.abs() < threshold) && out.len() < 4 {
                out.push(z);
            }
        }
    }
    out
}

/// A 3 × 3 system whose scale is `max(|big[0]|, |big[1]|, 1)` and whose
/// last pivot is `pivot` exactly:
/// `[[0, 1, big[0]], [big[1], 0, 0], [0, 0, pivot]]`.
fn scaled_threshold_system<T: Copy>(zero: T, one: T, big: [T; 2], pivot: T) -> System<T> {
    System {
        n: 3,
        a: vec![zero, one, big[0], big[1], zero, zero, zero, zero, pivot],
        b: vec![one, big[1], pivot],
    }
}

/// The complex edge-case systems, in a fixed order.
fn complex_edge_systems() -> Vec<System<Complex64>> {
    let c = Complex64::new;
    let mut rng = Rng(0x5eed_0003);
    let mut random = |n: usize, scale: f64| -> Vec<Complex64> {
        (0..n)
            .map(|_| c(scale * rng.range(-1.0, 1.0), scale * rng.range(-1.0, 1.0)))
            .collect()
    };
    let mut out = Vec::new();
    // Near-tie pivots: the first column's two largest moduli 1–4 ulp
    // apart, the larger one first and last.
    for k in 1..=4 {
        for n in [2, 3, 5] {
            let base = c(0.8, -0.6);
            let up = c(ulps(0.8, k), -ulps(0.6, k));
            for (first, second) in [(base, up), (up, base)] {
                let mut a = random(n * n, 0.5);
                a[0] = first;
                a[(n - 1) * n] = second;
                let b = random(n, 1.0);
                out.push(System { n, a, b });
            }
        }
    }
    // Equal |z|², different |z|: as the pivot candidates (both orders),
    // and as the two entries that set the scale.
    for (lo, hi) in equal_square_pairs() {
        for (first, second) in [(lo, hi), (hi, lo)] {
            for n in [2, 4] {
                let mut a = random(n * n, 0.5);
                a[0] = first;
                a[n] = second;
                let b = random(n, 1.0);
                out.push(System { n, a, b });
            }
        }
        for big in [[lo, hi], [hi, lo]] {
            let scale = hi.abs().max(lo.abs()).max(1.0);
            let threshold = 1e-13 * scale;
            for pivot in [
                threshold,
                ulps(threshold, -1),
                ulps(threshold, 1),
                1e-13 * lo.abs().max(1.0),
                ulps(1e-13 * lo.abs().max(1.0), -1),
            ] {
                let one = c(1.0, 0.0);
                out.push(scaled_threshold_system(
                    Complex64::ZERO,
                    one,
                    big,
                    c(pivot, 0.0),
                ));
                out.push(scaled_threshold_system(
                    Complex64::ZERO,
                    one,
                    big,
                    c(0.0, -pivot),
                ));
            }
        }
    }
    // |z|² and |z| ordering two candidates oppositely: as the pivot
    // candidates (both orders), and as the two entries that set the scale.
    for (small, large) in inverted_pairs() {
        for (first, second) in [(small, large), (large, small)] {
            for n in [2, 3] {
                let mut a = random(n * n, 0.5);
                a[0] = first;
                a[n] = second;
                let b = random(n, 1.0);
                out.push(System { n, a, b });
            }
        }
        for big in [[small, large], [large, small]] {
            let threshold = 1e-13 * large.abs();
            for pivot in [threshold, ulps(threshold, -1), 1e-13 * small.abs()] {
                let one = c(1.0, 0.0);
                out.push(scaled_threshold_system(
                    Complex64::ZERO,
                    one,
                    big,
                    c(pivot, 0.0),
                ));
            }
        }
    }
    // Pivots within one ulp of the threshold on which |z|² and |z|
    // disagree about it.
    for scale in [1.0, 2.0, 3.0e4] {
        let one = c(1.0, 0.0);
        let big = [c(scale, 0.0), c(-scale, 0.0)];
        let threshold = 1e-13 * scale;
        let pivots = disagreeing_pivots(threshold);
        assert!(!pivots.is_empty(), "no disagreeing pivot at scale {scale}");
        for pivot in pivots {
            out.push(scaled_threshold_system(Complex64::ZERO, one, big, pivot));
        }
    }
    // Pivots within 1e-9 relative either side of `1e-13 × scale`, at
    // scales set by the floor of 1 and by entries far above it.
    for scale in [1.0, 2.0, 3.0e4, 7.5e11] {
        let threshold = 1e-13 * scale;
        for rel in [-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9] {
            let m = threshold * (1.0 + rel);
            for pivot in [
                c(m, 0.0),
                c(0.6 * m, 0.8 * m),
                c(-m / 2f64.sqrt(), m / 2f64.sqrt()),
            ] {
                let one = c(1.0, 0.0);
                let big = [c(0.0, scale), c(scale, 0.0)];
                out.push(scaled_threshold_system(Complex64::ZERO, one, big, pivot));
            }
        }
    }
    // Squares that overflow (|z| above 1e154) and underflow (below
    // 1e-154): whole matrices, and one such entry among ordinary ones, as
    // the pivot and below it.
    for scale in [3e154, 1e200, 1e-160, 2e-300] {
        for n in [1, 3, 5] {
            let a = random(n * n, scale);
            let b = random(n, 1.0);
            out.push(System { n, a, b });
            for at in [0, n * (n - 1)] {
                let mut a = random(n * n, 1.0);
                a[at] = c(scale, -scale);
                let b = random(n, 1.0);
                out.push(System { n, a, b });
            }
        }
    }
    // NaN and ±inf as the pivot, below it, and elsewhere (in the scale
    // only); also hypot(inf, NaN) = inf.
    let specials = [
        c(f64::NAN, 0.0),
        c(0.5, f64::NAN),
        c(f64::INFINITY, 0.0),
        c(0.0, f64::NEG_INFINITY),
        c(f64::INFINITY, f64::NAN),
    ];
    for special in specials {
        for n in [2, 4] {
            for at in [0, n, n * n - 1] {
                let mut a = random(n * n, 1.0);
                a[at] = special;
                let b = random(n, 1.0);
                out.push(System { n, a, b });
            }
        }
    }
    out
}

/// The real edge-case systems, in a fixed order: the threshold, overflow
/// and non-finite families of [`complex_edge_systems`] on `f64`.
fn real_edge_systems() -> Vec<System<f64>> {
    let mut rng = Rng(0x5eed_0004);
    let mut random = |n: usize, scale: f64| -> Vec<f64> {
        (0..n).map(|_| scale * rng.range(-1.0, 1.0)).collect()
    };
    let mut out = Vec::new();
    for scale in [1.0, 2.0, 3.0e4, 7.5e11] {
        let threshold = 1e-13 * scale;
        for pivot in [ulps(threshold, -1), threshold, ulps(threshold, 1)] {
            out.push(scaled_threshold_system(0.0, 1.0, [-scale, scale], pivot));
        }
    }
    for scale in [1e200, 2e-300] {
        for n in [1, 3, 5] {
            let a = random(n * n, scale);
            let b = random(n, 1.0);
            out.push(System { n, a, b });
        }
    }
    for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for n in [2, 4] {
            for at in [0, n, n * n - 1] {
                let mut a = random(n * n, 1.0);
                a[at] = special;
                let b = random(n, 1.0);
                out.push(System { n, a, b });
            }
        }
    }
    out
}

fn real_hash() -> u64 {
    let mut hash = Fnv::new();
    for s in real_systems() {
        let x = solve_real(s.n, s.a, &s.b);
        hash.outcome(x, |h, v| h.float(*v));
    }
    hash.0
}

fn complex_hash() -> u64 {
    let mut hash = Fnv::new();
    for s in complex_systems() {
        let x = solve_complex(s.n, s.a, &s.b);
        hash.outcome(x, |h, v| {
            h.float(v.re);
            h.float(v.im);
        });
    }
    hash.0
}

fn edge_hash() -> u64 {
    let mut hash = Fnv::new();
    for s in real_edge_systems() {
        let x = solve_real(s.n, s.a, &s.b);
        hash.outcome(x, |h, v| h.float_or_nan(*v));
    }
    for s in complex_edge_systems() {
        let x = solve_complex(s.n, s.a, &s.b);
        hash.outcome(x, |h, v| {
            h.float_or_nan(v.re);
            h.float_or_nan(v.im);
        });
    }
    hash.0
}

#[test]
fn pivots_either_side_of_the_threshold_are_accepted_and_rejected() {
    let [above, below] = threshold_pivots();
    let real = |pivot| solve_real(3, threshold_system(|v| v, pivot).a, &[1.0, -3.0, 0.5]);
    assert!(real(above).is_ok());
    assert_eq!(real(below), Err(LinalgError::Singular));
    let complex = |pivot: f64| {
        let s = threshold_system(Complex64::from_re, Complex64::new(0.6 * pivot, 0.8 * pivot));
        solve_complex(s.n, s.a, &s.b)
    };
    assert!(complex(above).is_ok());
    assert_eq!(complex(below).map(|_| ()), Err(LinalgError::Singular));
}

#[test]
fn real_lu_solutions_are_pinned() {
    let hash = real_hash();
    assert_eq!(
        hash, 0x98a4_d1ec_3913_5637,
        "real LU bits moved: {hash:#018x}"
    );
}

#[test]
fn complex_lu_solutions_are_pinned() {
    let hash = complex_hash();
    assert_eq!(
        hash, 0x9743_4d3d_5212_84ec,
        "complex LU bits moved: {hash:#018x}"
    );
}

#[test]
fn edge_case_lu_solutions_are_pinned() {
    let hash = edge_hash();
    assert_eq!(
        hash, 0xeaef_63b5_e641_6283,
        "edge-case LU bits moved: {hash:#018x}"
    );
}

#[test]
fn near_tie_pivots_follow_the_larger_modulus() {
    // `lo` and `hi` have the same |z|², or `lo` the larger one, but
    // |lo| < |hi|: the pivot rule ranks by modulus, so `hi` is the pivot
    // wherever it sits. The solve must equal elimination on `hi` written
    // out, with the operations the LU performs.
    let one = Complex64::new(1.0, 0.0);
    let key = |z: Complex64| z.re * z.re + z.im * z.im;
    let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
    for (lo, hi) in equal_square_pairs().into_iter().chain(inverted_pairs()) {
        assert!(lo.abs() < hi.abs());
        assert!(key(lo) >= key(hi));
        let (b_lo, b_hi) = (Complex64::new(0.25, -1.0), Complex64::new(2.0, 0.5));
        let factor = lo / hi;
        let x1 = (b_lo - factor * b_hi) / (one - factor * one);
        let x0 = (b_hi - one * x1) / hi;
        for (a, b) in [
            (vec![lo, one, hi, one], [b_lo, b_hi]),
            (vec![hi, one, lo, one], [b_hi, b_lo]),
        ] {
            let x = solve_complex(2, a, &b).unwrap();
            assert_eq!((bits(x[0]), bits(x[1])), (bits(x0), bits(x1)));
        }
    }
}
