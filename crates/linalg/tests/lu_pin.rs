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

use kato_linalg::{Complex64, LinalgError, Lu};

/// Solves the row-major `n × n` system `a x = b`. These two adapters are
/// the only lines that name the LU API.
fn solve_real(n: usize, a: Vec<f64>, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Ok(Lu::new(n, a)?.solve(b))
}

fn solve_complex(
    n: usize,
    a: Vec<Complex64>,
    b: &[Complex64],
) -> Result<Vec<Complex64>, LinalgError> {
    Ok(Lu::new(n, a)?.solve(b))
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
