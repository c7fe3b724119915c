//! The estimate that guides the unity-gain and phase-margin scans.
//!
//! The rows and columns of `G + jωC` that `C` never touches (a node with
//! no capacitor on it, a voltage-source branch between such nodes) carry
//! no frequency. Eliminating them once, in real arithmetic, leaves a
//! `k × k` complex system per frequency, `k` being the number of rows a
//! capacitor touches: two for `ldo`'s open loop, three for `opamp2`. That
//! system is solved on stack buffers. It is the same `H(jω)` by a different
//! route, so it agrees with the exact LU to rounding, but its bits differ:
//! a scan consults it only to decide which points it must solve exactly,
//! and every number a measurement returns is an exact point's.

use kato_linalg::Complex64;

/// Largest dynamic block estimated; a larger one leaves the scans exact.
const MAX_K: usize = 8;

/// The exact LU's singularity tolerance: a pivot below
/// `1e-13 × max(max|aᵢⱼ|, 1)` makes `Lu::new` fail.
const LU_TOL: f64 = 1e-13;

/// How far above the exact LU's singularity threshold (bounded from above
/// by `1e-13 × max(max|G| + ω·max|C|, 1)`) every pivot of the elimination
/// must stay for a frequency to be estimated.
const GUARD: f64 = 1e3;

/// Relative distance from `|H| = 1` an estimate must clear for a scan to
/// skip the point as above 0 dB.
const GAIN_MARGIN: f64 = 1e-5;

/// Degrees an estimated phase step must stay clear of ±180° for the
/// estimated chain to fix the exact unwrap's ±360° count.
const PHASE_MARGIN_DEG: f64 = 1e-3;

/// Relative disagreement with an exactly solved point beyond which the
/// estimate is not trusted at all: four decades below both margins.
const AGREE_TOL: f64 = 1e-9;

/// An estimate the guide declines to give.
const NO_ESTIMATE: Complex64 = Complex64::new(f64::NAN, f64::NAN);

/// `p` moved by whole turns to within 180° of `prev`: the unwrap step of
/// the oracle sweep, the same operations in the same order.
pub(crate) fn unwrap_deg(mut p: f64, prev: f64) -> f64 {
    while p - prev > 180.0 {
        p -= 360.0;
    }
    while p - prev < -180.0 {
        p += 360.0;
    }
    p
}

fn norm_sq(z: Complex64) -> f64 {
    z.re * z.re + z.im * z.im
}

fn is_finite(z: Complex64) -> bool {
    z.re.is_finite() && z.im.is_finite()
}

/// How the observed node reads the dynamic unknowns `x_D`.
#[derive(Debug, Clone)]
enum Readout {
    /// The observed node is dynamic unknown `d`.
    Dynamic(usize),
    /// The observed node is eliminated: `H = base − Σ weights_j·x_D[j]`.
    Resistive { base: Complex64, weights: Vec<f64> },
}

/// `(G_DD − G_DR·G_RR⁻¹·G_RD + jωC_DD)·x_D = b_D − G_DR·G_RR⁻¹·b_R`, the
/// system left once the resistive rows `R` are eliminated.
#[derive(Debug, Clone)]
struct Schur {
    k: usize,
    /// The reduced conductance and `C_DD`, row-major `k × k`.
    s: Vec<f64>,
    c: Vec<f64>,
    rhs: Vec<Complex64>,
    out: Readout,
    /// The smallest pivot modulus of the `G_RR` elimination.
    rr_pivot: f64,
    /// `max|gᵢⱼ|` and `max|cᵢⱼ|` over the whole system, which bound the
    /// exact LU's singularity threshold at any frequency.
    g_max: f64,
    c_max: f64,
}

/// Gauss–Jordan elimination with partial pivoting of the leading `n × n`
/// block of the row-major `n × width` matrix `m`, in place: the columns
/// right of the block become `block⁻¹ ×` themselves. Returns the smallest
/// pivot modulus, `0.0` when a column has no nonzero pivot.
fn gauss_jordan(m: &mut [f64], n: usize, width: usize) -> f64 {
    let mut smallest = f64::INFINITY;
    for col in 0..n {
        let p = (col..n)
            .max_by(|&a, &b| {
                m[a * width + col]
                    .abs()
                    .total_cmp(&m[b * width + col].abs())
            })
            .expect("a pivot column is never empty");
        let pivot = m[p * width + col];
        if pivot == 0.0 || pivot.is_nan() {
            return 0.0;
        }
        smallest = smallest.min(pivot.abs());
        for j in 0..width {
            m.swap(p * width + j, col * width + j);
        }
        for j in 0..width {
            m[col * width + j] /= pivot;
        }
        for i in (0..n).filter(|&i| i != col) {
            let f = m[i * width + col];
            if f != 0.0 {
                for j in 0..width {
                    m[i * width + j] -= f * m[col * width + j];
                }
            }
        }
    }
    smallest
}

impl Schur {
    /// The reduced system of the row-major `dim × dim` `g` and `c` observed
    /// at row `out`. `None` when no row is resistive, the dynamic block
    /// is larger than [`MAX_K`], or `G_RR` has a zero pivot. Rows at or
    /// past `n_nodes` are voltage-source branches: a branch is resistive
    /// only with every node it touches.
    fn new(g: &[f64], c: &[f64], rhs: &[Complex64], n_nodes: usize, out: usize) -> Option<Schur> {
        let dim = rhs.len();
        let touched = |i: usize| (0..dim).any(|j| c[i * dim + j] != 0.0 || c[j * dim + i] != 0.0);
        let mut dynamic: Vec<bool> = (0..dim).map(|i| i < n_nodes && touched(i)).collect();
        for b in n_nodes..dim {
            dynamic[b] = (0..n_nodes).any(|i| dynamic[i] && g[b * dim + i] != 0.0);
        }
        let (rows_d, rows_r): (Vec<usize>, Vec<usize>) = (0..dim).partition(|&i| dynamic[i]);
        let (k, r) = (rows_d.len(), rows_r.len());
        if r == 0 || k > MAX_K {
            return None;
        }
        // [G_RR | G_RD | Re b_R | Im b_R], reduced to [I | X | y].
        let width = r + k + 2;
        let mut m = vec![0.0; r * width];
        for (row, &i) in m.chunks_exact_mut(width).zip(&rows_r) {
            for (x, &j) in row.iter_mut().zip(rows_r.iter().chain(&rows_d)) {
                *x = g[i * dim + j];
            }
            row[r + k] = rhs[i].re;
            row[r + k + 1] = rhs[i].im;
        }
        let rr_pivot = gauss_jordan(&mut m, r, width);
        if rr_pivot == 0.0 {
            return None;
        }
        let xy = |i: usize, j: usize| m[i * width + r + j];
        let mut s = vec![0.0; k * k];
        let mut cdd = vec![0.0; k * k];
        let mut reduced_rhs = Vec::with_capacity(k);
        for (a, &i) in rows_d.iter().enumerate() {
            for (b, &j) in rows_d.iter().enumerate() {
                let coupled: f64 = (0..r).map(|q| g[i * dim + rows_r[q]] * xy(q, b)).sum();
                s[a * k + b] = g[i * dim + j] - coupled;
                cdd[a * k + b] = c[i * dim + j];
            }
            let (re, im) = (0..r).fold((rhs[i].re, rhs[i].im), |(re, im), q| {
                let gq = g[i * dim + rows_r[q]];
                (re - gq * xy(q, k), im - gq * xy(q, k + 1))
            });
            reduced_rhs.push(Complex64::new(re, im));
        }
        let out = match rows_d.iter().position(|&i| i == out) {
            Some(d) => Readout::Dynamic(d),
            None => {
                let q = rows_r.iter().position(|&i| i == out)?;
                Readout::Resistive {
                    base: Complex64::new(xy(q, k), xy(q, k + 1)),
                    weights: (0..k).map(|b| xy(q, b)).collect(),
                }
            }
        };
        let max_abs = |m: &[f64]| m.iter().fold(0.0_f64, |a, x| a.max(x.abs()));
        Some(Schur {
            k,
            s,
            c: cdd,
            rhs: reduced_rhs,
            out,
            rr_pivot,
            g_max: max_abs(g),
            c_max: max_abs(c),
        })
    }

    /// The smallest pivot modulus the elimination accepts at `omega`.
    fn floor(&self, omega: f64) -> f64 {
        GUARD * LU_TOL * (self.g_max + omega * self.c_max).max(1.0)
    }

    /// `H(jω)` from the reduced system, or [`NO_ESTIMATE`] when a pivot
    /// comes within [`GUARD`] of the exact LU's singularity threshold.
    fn solve(&self, omega: f64) -> Complex64 {
        let floor = self.floor(omega);
        if self.rr_pivot < floor {
            return NO_ESTIMATE;
        }
        let k = self.k;
        let mut a = [Complex64::ZERO; MAX_K * MAX_K];
        let mut x = [Complex64::ZERO; MAX_K];
        for (aij, (&sij, &cij)) in a.iter_mut().zip(self.s.iter().zip(&self.c)) {
            *aij = Complex64::new(sij, omega * cij);
        }
        x[..k].copy_from_slice(&self.rhs);
        for col in 0..k {
            let p = (col..k)
                .max_by(|&i, &j| norm_sq(a[i * k + col]).total_cmp(&norm_sq(a[j * k + col])))
                .expect("a pivot column is never empty");
            let pivot = norm_sq(a[p * k + col]);
            if pivot.is_nan() || pivot < floor * floor {
                return NO_ESTIMATE;
            }
            for j in 0..k {
                a.swap(p * k + j, col * k + j);
            }
            x.swap(p, col);
            let inv = Complex64::from_re(1.0) / a[col * k + col];
            for i in col + 1..k {
                let f = a[i * k + col] * inv;
                for j in col + 1..k {
                    a[i * k + j] = a[i * k + j] - f * a[col * k + j];
                }
                x[i] = x[i] - f * x[col];
            }
        }
        for i in (0..k).rev() {
            let mut sum = x[i];
            for j in i + 1..k {
                sum = sum - a[i * k + j] * x[j];
            }
            x[i] = sum / a[i * k + i];
        }
        match &self.out {
            Readout::Dynamic(d) => x[*d],
            Readout::Resistive { base, weights } => weights
                .iter()
                .zip(&x)
                .fold(*base, |h, (&w, &xj)| h - Complex64::from_re(w) * xj),
        }
    }
}

/// A response's estimator: the reduced system, the estimates it gave so
/// far, and the estimated chain of unwrapped phases.
#[derive(Debug, Clone)]
pub(crate) struct Guide {
    /// `None` for a table of given estimates (tests).
    schur: Option<Schur>,
    /// `estimates[i]` once point `i` was estimated; [`NO_ESTIMATE`] where
    /// the guide declined.
    estimates: Vec<Option<Complex64>>,
    /// Estimated unwrapped phases (degrees) from point 0, whose entry is
    /// the exact phase there, as far as every step stays clear of ±180°.
    chain: Vec<f64>,
    /// The chain met a step it cannot vouch for and grows no further.
    chain_stopped: bool,
}

impl Guide {
    /// The guide of the row-major `dim × dim` `g`, `c`, observed at row
    /// `out`; `None` when there is nothing to estimate with (see
    /// [`Schur::new`]) or `G_RR`'s smallest pivot is within [`GUARD`] of
    /// the exact LU's singularity threshold at the lowest frequency.
    pub(crate) fn new(
        g: &[f64],
        c: &[f64],
        rhs: &[Complex64],
        n_nodes: usize,
        out: usize,
        freqs: &[f64],
    ) -> Option<Guide> {
        let schur = Schur::new(g, c, rhs, n_nodes, out)?;
        if schur.rr_pivot < schur.floor(omega(freqs[0])) {
            return None;
        }
        Some(Guide {
            schur: Some(schur),
            estimates: vec![None; freqs.len()],
            chain: Vec::new(),
            chain_stopped: false,
        })
    }

    /// A guide whose estimates are given.
    #[cfg(test)]
    pub(crate) fn from_estimates(estimates: &[Complex64]) -> Guide {
        Guide {
            schur: None,
            estimates: estimates.iter().copied().map(Some).collect(),
            chain: Vec::new(),
            chain_stopped: false,
        }
    }

    /// The estimate of `H(jω_i)`, memoised.
    fn estimate(&mut self, i: usize, freqs: &[f64]) -> Complex64 {
        if let Some(h) = self.estimates[i] {
            return h;
        }
        let h = self
            .schur
            .as_ref()
            .map_or(NO_ESTIMATE, |s| s.solve(omega(freqs[i])));
        self.estimates[i] = Some(h);
        h
    }

    /// Whether point `i`'s estimated gain is above 0 dB by the margin.
    pub(crate) fn clears_unity(&mut self, i: usize, freqs: &[f64]) -> bool {
        norm_sq(self.estimate(i, freqs)) > (1.0 + GAIN_MARGIN) * (1.0 + GAIN_MARGIN)
    }

    /// Whether point `i`'s estimate, if it has one, agrees with the exactly
    /// solved `exact` within [`AGREE_TOL`].
    pub(crate) fn agrees(&mut self, i: usize, exact: Complex64, freqs: &[f64]) -> bool {
        let h = self.estimate(i, freqs);
        !is_finite(h) || (h - exact).abs() <= AGREE_TOL * exact.abs()
    }

    /// How far the estimated chain vouches, looking no further than point
    /// `i`: the largest `j` in `1..=i` such that every step of the chain up
    /// to and including point `j` stays clear of ±180° by
    /// [`PHASE_MARGIN_DEG`], with the estimated unwrapped phase at `j − 1`.
    /// `anchor` is the exact phase of point 0. Exact point `j` unwrapped
    /// against that phase takes the oracle's ±360° count, and so its bits.
    pub(crate) fn reach(&mut self, i: usize, anchor: f64, freqs: &[f64]) -> Option<(usize, f64)> {
        if self.chain.is_empty() {
            self.chain.push(anchor);
        }
        while self.chain.len() <= i && !self.chain_stopped {
            let prev = self.chain[self.chain.len() - 1];
            let h = self.estimate(self.chain.len(), freqs);
            let e = unwrap_deg(h.arg().to_degrees(), prev);
            if is_finite(h) && (e - prev).abs() <= 180.0 - PHASE_MARGIN_DEG {
                self.chain.push(e);
            } else {
                self.chain_stopped = true;
            }
        }
        let j = (self.chain.len() - 1).min(i);
        (j > 0).then(|| (j, self.chain[j - 1]))
    }
}

fn omega(f: f64) -> f64 {
    2.0 * std::f64::consts::PI * f
}
