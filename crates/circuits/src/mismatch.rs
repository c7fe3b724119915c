//! Local (per-device) mismatch: Pelgrom-law random variation of `Vth`/`KP`.
//!
//! Global PVT corners ([`crate::Corner`]) move every device on the die
//! together; *local* mismatch is the residual device-to-device randomness
//! left after that shift — dopant fluctuation and edge roughness — and is
//! what limits offset, matching-critical bias networks and ultimately
//! yield. The classic Pelgrom area law says the standard deviation of a
//! matched-pair parameter difference shrinks with the square root of gate
//! area:
//!
//! ```text
//! σ(ΔVth)    = A_vth / √(W·L)         [V,  A_vth in V·m]
//! σ(ΔKP/KP)  = A_kp  / √(W·L)         [–,  A_kp  in m]
//! ```
//!
//! # Deterministic sampling
//!
//! A Monte-Carlo *sample* of a candidate design is identified by the triple
//! `(seed, candidate design vector, sample index)`. [`MismatchStream`]
//! hashes that triple through the SplitMix64 finaliser into one 64-bit
//! stream key; each *device* then derives its own sub-stream from the key
//! plus its identity (polarity tag, `W`, `L`) and converts two uniform
//! draws into two standard normals via Box–Muller. The whole chain is a
//! pure function with no global state, so the perturbation applied to a
//! device is **bitwise identical** regardless of `KATO_THREADS`, of the
//! order candidates are evaluated in, or of which worker thread runs the
//! testbench — the property every seeded-reproducibility contract in this
//! workspace leans on.
//!
//! Two devices of the same polarity and identical `(W, L)` inside one
//! sample receive identical perturbations — the "common-centroid matched
//! pair" reading, which is also what keeps the sampling scheme independent
//! of testbench evaluation order.
//!
//! The perturbation itself is applied by [`crate::TechNode`]'s device-query
//! routing as an exact *query remap*: in this model family `id`, `gm` and
//! `gds` depend on `vgs` only through `vgs − vth` and are exactly linear in
//! `KP`, so a `Vth` shift is a `vgs`-shift of the query and a `KP` scale is
//! an output scale. That keeps one LUT per nominal model card (no
//! per-sample table generation) while remaining exact for both backends.

/// SplitMix64 finaliser: avalanche-mixes `seed` with one `stream` word.
/// The same construction the KAT-GP seed derivation uses — cheap, stateless
/// and well distributed, which is all a reproducible sampler needs.
#[must_use]
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to a uniform draw in the half-open interval `(0, 1]`
/// (never 0, so `ln(u)` stays finite in the Box–Muller transform).
#[must_use]
fn unit_open(bits: u64) -> f64 {
    ((bits >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Pelgrom area-law mismatch coefficients of a technology card.
///
/// Units put `W` and `L` in metres: `a_vth` is in V·m (5 mV·µm ⇒ `5e-9`),
/// `a_kp` in m (1 %·µm ⇒ `1e-8`). A coefficient of zero disables that
/// component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pelgrom {
    /// `A_Vth`: σ(ΔVth)·√(W·L), V·m.
    pub a_vth: f64,
    /// `A_KP`: σ(ΔKP/KP)·√(W·L), m.
    pub a_kp: f64,
}

impl Pelgrom {
    /// σ(ΔVth) in volts for a device of gate area `w·l` (metres).
    #[must_use]
    pub fn sigma_vth(&self, w: f64, l: f64) -> f64 {
        self.a_vth / (w * l).sqrt()
    }

    /// σ(ΔKP/KP) (relative) for a device of gate area `w·l` (metres).
    #[must_use]
    pub fn sigma_kp_rel(&self, w: f64, l: f64) -> f64 {
        self.a_kp / (w * l).sqrt()
    }
}

/// The perturbation one device receives in one Monte-Carlo sample,
/// expressed in the exact query-remap form the [`crate::TechNode`] routing
/// applies: shift every `vgs` by `dvth`, scale `id`/`gm`/`gds` by
/// `kp_ratio`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchDeltas {
    /// Threshold-voltage shift, V.
    pub dvth: f64,
    /// Multiplicative `KP` factor (clamped to stay positive).
    pub kp_ratio: f64,
}

impl MismatchDeltas {
    /// The identity perturbation (what the nominal sample applies).
    #[must_use]
    pub(crate) fn none() -> Self {
        MismatchDeltas {
            dvth: 0.0,
            kp_ratio: 1.0,
        }
    }
}

/// One Monte-Carlo mismatch sample: the per-candidate SplitMix64 stream
/// every device of that sample draws its perturbation from.
///
/// Copyable and 8 bytes — attaching it to a [`crate::TechNode`] card is
/// free, and two cards carrying the same key are bitwise-equal perturbed
/// cards by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MismatchStream {
    key: u64,
}

impl MismatchStream {
    /// Derives the stream for Monte-Carlo sample `sample` of the candidate
    /// with unit-cube design vector `x` under run seed `seed`.
    ///
    /// The key folds in the exact bit patterns of every coordinate, so the
    /// stream identifies the *candidate*, not its position in a population
    /// — evaluating the same design alone, inside a batch, or on a
    /// different thread count yields the same stream.
    #[must_use]
    pub fn for_candidate(seed: u64, x: &[f64], sample: u64) -> Self {
        let mut key = mix(seed, sample);
        key = mix(key, x.len() as u64);
        for &xi in x {
            key = mix(key, xi.to_bits());
        }
        MismatchStream { key }
    }

    /// Builds a stream directly from a raw key (tests and tooling).
    #[must_use]
    pub fn from_key(key: u64) -> Self {
        MismatchStream { key }
    }

    /// The perturbation of the device identified by `device` (a polarity
    /// tag) with geometry `(w, l)` in metres, under coefficients `pelgrom`.
    ///
    /// Two standard normals come from one Box–Muller transform of two
    /// uniform draws derived from `(key, device, w, l)` — a pure function,
    /// so repeated queries for the same device (e.g. an operating-point
    /// inversion followed by an I–V evaluation) see one consistent device.
    #[must_use]
    pub fn deltas(&self, device: u64, w: f64, l: f64, pelgrom: &Pelgrom) -> MismatchDeltas {
        let mut s = mix(self.key, device);
        s = mix(s, w.to_bits());
        s = mix(s, l.to_bits());
        let u1 = unit_open(mix(s, 1));
        let u2 = unit_open(mix(s, 2));
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        let (z1, z2) = (r * theta.cos(), r * theta.sin());
        let dvth = pelgrom.sigma_vth(w, l) * z1;
        // A deep-negative KP draw is unphysical; clamp far below any
        // realistic σ so the estimator stays well-defined for tiny devices.
        let kp_ratio = (1.0 + pelgrom.sigma_kp_rel(w, l) * z2).max(0.05);
        MismatchDeltas { dvth, kp_ratio }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PELGROM: Pelgrom = Pelgrom {
        a_vth: 5e-9,
        a_kp: 1e-8,
    };

    #[test]
    fn stream_is_a_pure_function_of_its_inputs() {
        let x = [0.25, 0.5, 0.75];
        let a = MismatchStream::for_candidate(7, &x, 3);
        let b = MismatchStream::for_candidate(7, &x, 3);
        assert_eq!(a, b);
        assert_eq!(
            a.deltas(0, 10e-6, 0.5e-6, &PELGROM),
            b.deltas(0, 10e-6, 0.5e-6, &PELGROM)
        );
        // Seed, candidate and sample index all separate streams.
        assert_ne!(a, MismatchStream::for_candidate(8, &x, 3));
        assert_ne!(a, MismatchStream::for_candidate(7, &x, 4));
        assert_ne!(a, MismatchStream::for_candidate(7, &[0.25, 0.5, 0.76], 3));
    }

    #[test]
    fn devices_draw_independently_but_consistently() {
        let s = MismatchStream::for_candidate(1, &[0.5], 1);
        let d_n = s.deltas(0, 10e-6, 0.5e-6, &PELGROM);
        let d_p = s.deltas(1, 10e-6, 0.5e-6, &PELGROM);
        let d_other_geom = s.deltas(0, 11e-6, 0.5e-6, &PELGROM);
        assert_ne!(d_n, d_p, "polarity must separate draws");
        assert_ne!(d_n, d_other_geom, "geometry must separate draws");
        // Same device queried twice: identical (matched-pair consistency).
        assert_eq!(d_n, s.deltas(0, 10e-6, 0.5e-6, &PELGROM));
    }

    #[test]
    fn sigma_follows_the_area_law() {
        // σ(Vth) at 1 µm² gate area with A = 5 mV·µm is 5 mV.
        let s = PELGROM.sigma_vth(1e-6, 1e-6);
        assert!((s - 5e-3).abs() < 1e-12, "{s}");
        // Quadrupling the area halves σ.
        let s4 = PELGROM.sigma_vth(2e-6, 2e-6);
        assert!((s4 - 2.5e-3).abs() < 1e-12, "{s4}");
    }

    #[test]
    fn draws_are_zero_mean_at_scale() {
        let s = MismatchStream::from_key(42);
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|i| s.deltas(i, 1e-6, 1e-6, &PELGROM).dvth)
            .sum::<f64>()
            / f64::from(n as u32);
        // σ/√n ≈ 79 µV; allow 4 standard errors.
        assert!(
            mean.abs() < 4.0 * 5e-3 / f64::from(n as u32).sqrt(),
            "{mean}"
        );
    }

    #[test]
    fn unit_open_stays_in_half_open_interval() {
        for bits in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            let u = unit_open(bits);
            assert!(u > 0.0 && u <= 1.0, "{u}");
        }
    }
}
