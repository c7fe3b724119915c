//! Test oracles, each the plain form of a fast path:
//!
//! * the full-sweep AC path, the oracle of the lazy [`AcResponse`]: every
//!   point of the sweep solved in order, and the measurements taken over
//!   whole magnitude and phase vectors;
//! * the operating-point inversion as a bisection over whole `mos_iv`
//!   calls, the oracle of `SquareLaw::try_vgs_for_id`.

use crate::device::VGS_MAX;
use crate::netlist::mos_iv;
use crate::{AcResponse, AcSweep, Circuit, DcSolution, DeviceError, MnaError, MosModel, NodeId};
use kato_linalg::Complex64;

/// Frequency response `H(jω)` at one observation node, every point solved.
#[derive(Debug, Clone)]
pub(crate) struct BodeData {
    freqs: Vec<f64>,
    response: Vec<Complex64>,
}

impl BodeData {
    pub(crate) fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    pub(crate) fn mag_db(&self, i: usize) -> f64 {
        20.0 * self.response[i].abs().max(1e-300).log10()
    }

    pub(crate) fn mags_db(&self) -> Vec<f64> {
        (0..self.freqs.len()).map(|i| self.mag_db(i)).collect()
    }

    pub(crate) fn dc_gain_db(&self) -> f64 {
        self.mag_db(0)
    }

    pub(crate) fn phases_deg_unwrapped(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.response.len());
        let mut prev = self.response[0].arg().to_degrees();
        out.push(prev);
        for z in &self.response[1..] {
            let mut p = z.arg().to_degrees();
            while p - prev > 180.0 {
                p -= 360.0;
            }
            while p - prev < -180.0 {
                p += 360.0;
            }
            out.push(p);
            prev = p;
        }
        out
    }

    pub(crate) fn interpolate_mag_db(&self, f: f64) -> f64 {
        interp_log_f(&self.freqs, &self.mags_db(), f)
    }

    pub(crate) fn unity_gain_freq(&self) -> Option<f64> {
        let mags = self.mags_db();
        let freqs = self.freqs();
        if mags[0] <= 0.0 {
            return None;
        }
        for i in 1..mags.len() {
            if mags[i] <= 0.0 {
                let m0 = mags[i - 1];
                let m1 = mags[i];
                let t = m0 / (m0 - m1);
                let lf = freqs[i - 1].ln() + t * (freqs[i].ln() - freqs[i - 1].ln());
                return Some(lf.exp());
            }
        }
        None
    }

    pub(crate) fn phase_margin_deg(&self) -> Option<f64> {
        let fu = self.unity_gain_freq()?;
        let phases = self.phases_deg_unwrapped();
        let lag = interp_log_f(self.freqs(), &phases, fu) - phases[0];
        Some(180.0 + lag)
    }

    pub(crate) fn psrr_db(&self, f_hz: f64) -> f64 {
        -self.interpolate_mag_db(f_hz)
    }
}

/// Linear interpolation of `(freqs, ys)` in log-frequency, clamped at the
/// grid edges.
pub(crate) fn interp_log_f(freqs: &[f64], ys: &[f64], f: f64) -> f64 {
    if f <= freqs[0] {
        return ys[0];
    }
    if f >= *freqs.last().expect("non-empty") {
        return *ys.last().expect("non-empty");
    }
    let lf = f.ln();
    for i in 1..freqs.len() {
        if f <= freqs[i] {
            let l0 = freqs[i - 1].ln();
            let l1 = freqs[i].ln();
            let t = (lf - l0) / (l1 - l0);
            return ys[i - 1] * (1.0 - t) + ys[i] * t;
        }
    }
    *ys.last().expect("non-empty")
}

impl Circuit {
    /// The whole sweep, solved point by point; fails at the first singular
    /// frequency of the grid.
    pub(crate) fn ac_transfer(&self, out: NodeId, sweep: &AcSweep) -> Result<BodeData, MnaError> {
        let dc = if self.is_nonlinear() {
            Some(self.dc()?)
        } else {
            None
        };
        self.ac_transfer_at(dc.as_ref(), out, sweep)
    }

    pub(crate) fn ac_transfer_at(
        &self,
        dc: Option<&DcSolution>,
        out: NodeId,
        sweep: &AcSweep,
    ) -> Result<BodeData, MnaError> {
        let mut lazy = self.ac_response_at(dc, out, sweep);
        let response = (0..sweep.freqs().len())
            .map(|i| lazy.point(i))
            .collect::<Result<_, _>>()?;
        Ok(BodeData {
            freqs: sweep.freqs().to_vec(),
            response,
        })
    }
}

/// The `vgs` in `[0, VGS_MAX]` at which `model` carries `id_target` at
/// drain bias `vds`: the bracket checked at both ends, then 60 bisection
/// steps, each reading the current from a whole `mos_iv` call.
pub(crate) fn vgs_for_id_by_bisection(
    model: &MosModel,
    temp_c: f64,
    (w, l, vds): (f64, f64, f64),
    id_target: f64,
) -> Result<f64, DeviceError> {
    let id = |vgs: f64| mos_iv(model, w, l, vgs, vds, temp_c).0;
    let id_max = id(VGS_MAX);
    if id_max < id_target {
        return Err(DeviceError::TargetAboveRange { id_target, id_max });
    }
    let id_min = id(0.0);
    if id_min > id_target {
        return Err(DeviceError::TargetBelowRange { id_target, id_min });
    }
    let (mut lo, mut hi) = (0.0_f64, VGS_MAX);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if id(mid) < id_target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

mod tests {
    use super::*;
    use crate::{phase_margin_deg, psrr_db, unity_gain_freq, DeviceModel, SquareLaw};
    use proptest::prelude::*;

    fn bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    /// Single-pole amplifier: A0 = 1000 (60 dB), fp = 1 kHz, so the gain
    /// crosses 0 dB near 1 MHz.
    fn single_pole_amp() -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.vccs(Circuit::GND, vout, vin, Circuit::GND, 1e-3);
        ckt.resistor(vout, Circuit::GND, 1e6);
        let c = 1.0 / (2.0 * std::f64::consts::PI * 1e6 * 1e3);
        ckt.capacitor(vout, Circuit::GND, c);
        (ckt, vout)
    }

    /// Every lazy measurement equals the full sweep's bit for bit, read in
    /// the order the op-amp read-out uses; returns the points solved.
    fn assert_lazy_matches_full(ckt: &Circuit, out: NodeId, sweep: &AcSweep, f_psrr: f64) -> usize {
        let full = ckt.ac_transfer(out, sweep).expect("oracle sweep solves");
        let mut lazy = ckt.ac_response(out, sweep).expect("lazy sweep builds");
        assert_eq!(
            lazy.dc_gain_db().unwrap().to_bits(),
            full.dc_gain_db().to_bits()
        );
        assert_eq!(
            bits(unity_gain_freq(&mut lazy).unwrap()),
            bits(full.unity_gain_freq())
        );
        assert_eq!(
            bits(phase_margin_deg(&mut lazy).unwrap()),
            bits(full.phase_margin_deg())
        );
        assert_eq!(
            psrr_db(&mut lazy, f_psrr).unwrap().to_bits(),
            full.psrr_db(f_psrr).to_bits()
        );
        // Read alone, on a fresh response, each measurement is the same.
        let mut alone = ckt.ac_response(out, sweep).unwrap();
        assert_eq!(
            bits(phase_margin_deg(&mut alone).unwrap()),
            bits(full.phase_margin_deg())
        );
        let mut alone = ckt.ac_response(out, sweep).unwrap();
        assert_eq!(
            psrr_db(&mut alone, f_psrr).unwrap().to_bits(),
            full.psrr_db(f_psrr).to_bits()
        );
        lazy.solved()
    }

    /// When `sweep` solves, `out`'s response has a guide, and every guided
    /// measurement equals the full sweep's bits: on `sweep`, and, when the
    /// gain crosses 0 dB at point 2 or later, on the sub-grids of it that
    /// put the crossing at point 0, at point 1, at the last point, and past
    /// the end.
    fn assert_guided_matches_full(ckt: &Circuit, out: NodeId, sweep: &AcSweep, f_psrr: f64) {
        let Ok(full) = ckt.ac_transfer(out, sweep) else {
            return;
        };
        assert!(ckt.ac_response(out, sweep).unwrap().guided());
        assert_lazy_matches_full(ckt, out, sweep, f_psrr);
        let f = sweep.freqs();
        let Some(c) = crossing(&full).filter(|&c| c >= 2) else {
            return;
        };
        let mut grids = vec![(&f[c - 1..], Some(1)), (&f[..=c], Some(c)), (&f[..c], None)];
        if c + 1 < f.len() {
            grids.push((&f[c..], Some(0)));
        }
        for (grid, expected) in grids {
            let sub = AcSweep::from_freqs(grid.to_vec());
            let full = ckt
                .ac_transfer(out, &sub)
                .expect("a sub-grid of a solvable sweep");
            assert_eq!(crossing(&full), expected);
            assert_lazy_matches_full(ckt, out, &sub, f_psrr);
        }
    }

    /// SplitMix64: a fixed stream for the seeded device panel.
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }

        fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
            (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
        }
    }

    fn vgs_bits(result: Result<f64, DeviceError>) -> Result<u64, (u8, u64, u64)> {
        match result {
            Ok(vgs) => Ok(vgs.to_bits()),
            Err(DeviceError::TargetAboveRange { id_target, id_max }) => {
                Err((0, id_target.to_bits(), id_max.to_bits()))
            }
            Err(DeviceError::TargetBelowRange { id_target, id_min }) => {
                Err((1, id_target.to_bits(), id_min.to_bits()))
            }
        }
    }

    /// `SquareLaw::try_vgs_for_id` equals the bisection over whole
    /// `mos_iv` calls to the bit, errors and their bounds included, on a
    /// seeded panel: the NMOS and PMOS cards of the 180nm and 40nm nodes
    /// (as `kato_circuits` defines them), -40..125 °C, in-range targets
    /// read off the model itself, and targets above and below the bracket.
    #[test]
    fn square_law_inversion_equals_the_bisection_over_mos_iv() {
        let card = |kp, vth, lambda_l, n_sub, cox, vth_tc| MosModel {
            kp,
            vth,
            lambda_l,
            n_sub,
            cox,
            vth_tc,
        };
        let nodes = [
            (
                [
                    card(170e-6, 0.50, 0.02e-6, 1.35, 8.5e-3, -1.0e-3),
                    card(60e-6, 0.50, 0.04e-6, 1.40, 8.5e-3, -1.2e-3),
                ],
                (0.18e-6, 2.0e-6),
                1.8,
            ),
            (
                [
                    card(420e-6, 0.35, 0.055e-6, 1.45, 17e-3, -0.8e-3),
                    card(190e-6, 0.35, 0.085e-6, 1.50, 17e-3, -1.0e-3),
                ],
                (0.04e-6, 0.6e-6),
                1.1,
            ),
        ];
        let mut rng = Rng(0x5eed_0005);
        let (mut inside, mut above, mut below) = (0, 0, 0);
        for (cards, (l_min, l_max), vdd) in nodes {
            for model in cards {
                for temp_c in [-40.0, 27.0, 125.0, rng.range(-40.0, 125.0)] {
                    let sq = SquareLaw::new(model, temp_c);
                    for _ in 0..40 {
                        let w = rng.log_range(0.2e-6, 500e-6);
                        let l = rng.range(l_min, l_max);
                        let vds = rng.range(0.0, vdd);
                        let id = |vgs| mos_iv(&model, w, l, vgs, vds, temp_c).0;
                        let targets = [
                            id(rng.range(0.0, VGS_MAX)),
                            rng.log_range(1e-12, 1e-2),
                            id(VGS_MAX) * rng.range(1.0 + 1e-12, 4.0),
                            id(0.0) * rng.range(0.0, 1.0 - 1e-12),
                            id(VGS_MAX),
                            id(0.0),
                        ];
                        for id_target in targets {
                            let fast = sq.try_vgs_for_id(w, l, vds, id_target);
                            let oracle =
                                vgs_for_id_by_bisection(&model, temp_c, (w, l, vds), id_target);
                            assert_eq!(
                                vgs_bits(fast),
                                vgs_bits(oracle),
                                "w {w:e} l {l:e} vds {vds} T {temp_c} id {id_target:e}"
                            );
                            match oracle {
                                Ok(_) => inside += 1,
                                Err(DeviceError::TargetAboveRange { .. }) => above += 1,
                                Err(DeviceError::TargetBelowRange { .. }) => below += 1,
                            }
                        }
                    }
                }
            }
        }
        assert!(
            inside > 1000 && above > 300 && below > 300,
            "{inside}/{above}/{below}"
        );
    }

    /// The index of the first point at or below 0 dB, if any.
    fn crossing(full: &BodeData) -> Option<usize> {
        full.mags_db().iter().position(|&m| m <= 0.0)
    }

    /// The single-pole amplifier with a capacitor on its input node too,
    /// so that every node row holds one: nothing is left to eliminate, the
    /// response has no guide, and its scans solve every point they read.
    fn unguided_single_pole_amp() -> (Circuit, NodeId) {
        let (mut ckt, out) = single_pole_amp();
        let vin = ckt.node("in");
        ckt.capacitor(vin, Circuit::GND, 1e-12);
        (ckt, out)
    }

    #[test]
    fn no_crossing_reads_every_point() {
        let (ckt, out) = unguided_single_pole_amp();
        let sweep = AcSweep::log(10.0, 1e5, 9);
        let full = ckt.ac_transfer(out, &sweep).unwrap();
        assert_eq!(crossing(&full), None);
        assert!(!ckt.ac_response(out, &sweep).unwrap().guided());
        assert_eq!(assert_lazy_matches_full(&ckt, out, &sweep, 1e3), 9);
        // Guided, the scan solves point 0 only; the PSRR at 1 kHz adds the
        // two points around it.
        let (ckt, out) = single_pole_amp();
        assert!(ckt.ac_response(out, &sweep).unwrap().guided());
        assert_eq!(assert_lazy_matches_full(&ckt, out, &sweep, 1e3), 3);
    }

    #[test]
    fn crossing_at_index_0_reads_one_point() {
        let (ckt, out) = single_pole_amp();
        let sweep = AcSweep::log(1e7, 1e9, 5);
        let full = ckt.ac_transfer(out, &sweep).unwrap();
        assert_eq!(crossing(&full), Some(0));
        let mut lazy = ckt.ac_response(out, &sweep).unwrap();
        assert_eq!(unity_gain_freq(&mut lazy).unwrap(), None);
        assert_eq!(phase_margin_deg(&mut lazy).unwrap(), None);
        assert_eq!(lazy.solved(), 1);
        assert_eq!(assert_lazy_matches_full(&ckt, out, &sweep, 1e6), 1);
    }

    #[test]
    fn crossing_at_index_1_reads_two_points() {
        let (ckt, out) = single_pole_amp();
        let sweep = AcSweep::log(2e5, 2e9, 5);
        let full = ckt.ac_transfer(out, &sweep).unwrap();
        assert_eq!(crossing(&full), Some(1));
        let mut lazy = ckt.ac_response(out, &sweep).unwrap();
        assert!(phase_margin_deg(&mut lazy).unwrap().is_some());
        assert_eq!(lazy.solved(), 2);
        assert_eq!(assert_lazy_matches_full(&ckt, out, &sweep, 3e5), 2);
    }

    #[test]
    fn crossing_at_the_last_point_reads_every_point() {
        let (ckt, out) = unguided_single_pole_amp();
        let sweep = AcSweep::log(1e4, 2e6, 6);
        let full = ckt.ac_transfer(out, &sweep).unwrap();
        assert_eq!(crossing(&full), Some(5));
        assert_eq!(assert_lazy_matches_full(&ckt, out, &sweep, 1e5), 6);
        // Guided, the scan solves point 0 and the crossing's bracket, 4
        // and 5; the PSRR at 100 kHz reads points 2 and 3.
        let (ckt, out) = single_pole_amp();
        assert_eq!(assert_lazy_matches_full(&ckt, out, &sweep, 1e5), 5);
    }

    #[test]
    fn psrr_reads_the_bracket_or_the_clamped_edge_only() {
        let (ckt, out) = single_pole_amp();
        let sweep = AcSweep::log(10.0, 1e8, 29);
        let full = ckt.ac_transfer(out, &sweep).unwrap();
        for (f, reads) in [(1.0, 1), (5.0, 1), (1.5e3, 2), (2e8, 1), (1e12, 1)] {
            let mut lazy = ckt.ac_response(out, &sweep).unwrap();
            assert_eq!(
                psrr_db(&mut lazy, f).unwrap().to_bits(),
                full.psrr_db(f).to_bits(),
                "psrr at {f} Hz"
            );
            assert_eq!(lazy.solved(), reads, "points read for {f} Hz");
        }
    }

    /// A crossing point at exactly 0 dB makes the interpolation weight
    /// exactly 1, so `fu` lands on `freqs[i]` up to `ln`/`exp` rounding and
    /// may round above it. The phase interpolation then brackets `fu` with
    /// points `i` and `i + 1`, and the unwrap must read one point past the
    /// crossing. `AcSweep::log` points are `exp` values whose `ln` round-trips,
    /// so the grid here is hand-made.
    #[test]
    fn fu_rounding_past_its_bracket_reads_one_point_further() {
        let response = [
            Complex64::new(10.0, 0.0),
            Complex64::new(1.0, 0.0),
            Complex64::new(-0.1, -0.1),
            Complex64::new(0.0, 0.01),
        ];
        // `ln`/`exp` rounding is the platform's: search for a grid point
        // where it rounds past.
        let f1 = (0..1000)
            .map(|k| 1e6 + f64::from(k))
            .find(|&f1| (10f64.ln() + (f1.ln() - 10f64.ln())).exp() > f1)
            .expect("some grid point rounds fu above it");
        let freqs = [10.0, f1, 1e7, 1e8];
        let full = BodeData {
            freqs: freqs.to_vec(),
            response: response.to_vec(),
        };
        let mut lazy = AcResponse::from_points(&freqs, &response);
        let fu = unity_gain_freq(&mut lazy).unwrap().unwrap();
        assert!(fu > f1, "fu {fu} inside its bracket");
        assert_eq!(fu.to_bits(), full.unity_gain_freq().unwrap().to_bits());
        assert_eq!(
            phase_margin_deg(&mut lazy).unwrap().unwrap().to_bits(),
            full.phase_margin_deg().unwrap().to_bits()
        );
        assert_eq!(lazy.unwrapped(), 3);
    }

    /// A node held only by the 1e-12 leak turns singular once `ωC` on a
    /// large capacitor lifts the pivot threshold past it (above ~1.6 kHz
    /// here). The full sweep fails; a lazy read below that succeeds, and the
    /// first singular point it meets is recorded and returned from then on.
    #[test]
    fn a_system_singular_only_at_unread_frequencies_still_measures() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let _isolated = ckt.node("x");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GND, 1e-3);
        let sweep = AcSweep::log(10.0, 1e6, 11);
        let f = sweep.freqs();
        assert_eq!(
            ckt.ac_transfer(out, &sweep).unwrap_err(),
            MnaError::SingularSystem { freq_hz: f[5] }
        );

        let mut lazy = ckt.ac_response(out, &sweep).unwrap();
        assert!(lazy.dc_gain_db().is_ok());
        assert!(psrr_db(&mut lazy, 100.0).unwrap() > 20.0);
        let last = MnaError::SingularSystem { freq_hz: f[10] };
        assert_eq!(psrr_db(&mut lazy, 1e7).unwrap_err(), last);
        // Points solved before the failure, and those never read, now
        // report the recorded failure too.
        assert_eq!(lazy.dc_gain_db().unwrap_err(), last);
        assert_eq!(psrr_db(&mut lazy, 20.0).unwrap_err(), last);
    }

    /// `ldo`'s open loop at the expert design on the 180nm card, as
    /// `kato_circuits` builds it: the input node, the source branch and
    /// the divider tap `fb` (the observed node) carry no capacitor.
    fn ldo_open_loop() -> (Circuit, NodeId) {
        let mut ol = Circuit::new();
        let nin = ol.node("in");
        let ng = ol.node("gate");
        let nout = ol.node("out");
        let nfb = ol.node("fb");
        ol.vsource_ac(nin, Circuit::GND, 0.0, 1.0);
        ol.vccs(
            Circuit::GND,
            ng,
            nin,
            Circuit::GND,
            2.069_502_531_290_484_6e-5,
        );
        ol.resistor(ng, Circuit::GND, 3.100_051_696_575_178_2e7);
        ol.capacitor(ng, Circuit::GND, 4.212e-13);
        ol.vccs(
            nout,
            Circuit::GND,
            ng,
            Circuit::GND,
            6.511_486_142_746_167e-3,
        );
        ol.resistor(nout, Circuit::GND, 1.0 / 1.697_712_347_468_785_2e-4);
        ol.capacitor(ng, nout, 1.045_639_552_591_274e-12);
        ol.resistor(nout, Circuit::GND, 1.5e3);
        ol.capacitor(nout, Circuit::GND, 100e-12);
        ol.resistor(nout, nfb, 4.206_382_296_534_626e6);
        ol.resistor(nfb, Circuit::GND, 2.103_191_148_267_312_4e6);
        (ol, nfb)
    }

    /// The full sweep crosses 0 dB at point 112 of `ldo`'s 181-point grid,
    /// so an exact scan solves 113 points; the guided phase margin solves
    /// point 0 and the bracket, 111 and 112, with its bits.
    #[test]
    fn a_guided_ldo_phase_margin_solves_three_points() {
        let (ol, fb) = ldo_open_loop();
        let sweep = AcSweep::log(10.0, 1e9, 181);
        let full = ol.ac_transfer(fb, &sweep).unwrap();
        assert_eq!(crossing(&full), Some(112));
        let mut lazy = ol.ac_response(fb, &sweep).unwrap();
        assert_eq!(
            bits(phase_margin_deg(&mut lazy).unwrap()),
            bits(full.phase_margin_deg())
        );
        assert_eq!(lazy.solved(), 3);
        assert!(!lazy.guide_dropped());
        assert_eq!(assert_lazy_matches_full(&ol, fb, &sweep, 1e3), 5);
    }

    /// Every node row holds a capacitor: no guide, and the scans are the
    /// exact prefix scans.
    #[test]
    fn no_resistive_row_leaves_the_scans_exact() {
        let (ckt, out) = unguided_single_pole_amp();
        let sweep = AcSweep::log(10.0, 1e8, 41);
        let mut lazy = ckt.ac_response(out, &sweep).unwrap();
        assert!(!lazy.guided());
        let crossed = crossing(&ckt.ac_transfer(out, &sweep).unwrap()).unwrap();
        assert!(phase_margin_deg(&mut lazy).unwrap().is_some());
        assert_eq!(lazy.solved(), crossed + 1);
        assert_eq!(lazy.unwrapped(), crossed + 1);
        assert_lazy_matches_full(&ckt, out, &sweep, 1e3);
    }

    /// A node whose only conductance is the 1e-12 leak, beside a 1 mF
    /// capacitor: above ~1.5 kHz `ωC` lifts the exact LU's threshold past
    /// the leak and the system is singular. The eliminated block holds that
    /// leak as a pivot, so the guard leaves the response without a guide,
    /// and the phase margin fails where the exact scan first meets the
    /// singular system, not at the 1 MHz crossing a guide would skip to.
    #[test]
    fn a_leak_only_node_under_a_large_capacitor_leaves_no_guide() {
        let (mut ckt, out) = single_pole_amp();
        let _isolated = ckt.node("x");
        let big = ckt.node("big");
        ckt.resistor(big, Circuit::GND, 1.0);
        ckt.capacitor(big, Circuit::GND, 1e-3);
        let sweep = AcSweep::log(10.0, 1e8, 71);
        let f = sweep.freqs();
        let first = f.iter().position(|&f| f > 1.5e3).unwrap();
        let singular = MnaError::SingularSystem { freq_hz: f[first] };
        assert_eq!(ckt.ac_transfer(out, &sweep).unwrap_err(), singular);
        let mut lazy = ckt.ac_response(out, &sweep).unwrap();
        assert!(!lazy.guided());
        assert_eq!(phase_margin_deg(&mut lazy).unwrap_err(), singular);
    }

    /// A guide whose estimates are ten times the exact points clears
    /// every point above 0 dB. Point 0, solved, disagrees with it: the
    /// guide is dropped and the scans are exact.
    #[test]
    fn a_guide_that_disagrees_with_an_exact_point_is_dropped() {
        let (ckt, out) = single_pole_amp();
        let sweep = AcSweep::log(10.0, 1e8, 29);
        let full = ckt.ac_transfer(out, &sweep).unwrap();
        let response: Vec<Complex64> = (0..sweep.freqs().len())
            .map(|i| ckt.ac_response(out, &sweep).unwrap().point(i).unwrap())
            .collect();
        let wrong: Vec<Complex64> = response
            .iter()
            .map(|&h| h * Complex64::from_re(10.0))
            .collect();
        let mut lazy = AcResponse::from_estimates(sweep.freqs(), &response, &wrong);
        assert!(lazy.guide_dropped());
        assert_eq!(
            bits(unity_gain_freq(&mut lazy).unwrap()),
            bits(full.unity_gain_freq())
        );
        assert_eq!(
            bits(phase_margin_deg(&mut lazy).unwrap()),
            bits(full.phase_margin_deg())
        );
        // Estimates that agree keep the guide.
        let mut lazy = AcResponse::from_estimates(sweep.freqs(), &response, &response);
        assert!(!lazy.guide_dropped());
        assert_eq!(
            bits(phase_margin_deg(&mut lazy).unwrap()),
            bits(full.phase_margin_deg())
        );
    }

    proptest! {
        /// Random gain-stage cascades with random extra R/C/VCCS couplings:
        /// every lazy measurement equals the full sweep's `to_bits`.
        #[test]
        fn prop_lazy_measurements_equal_the_full_sweep_bitwise(
            vals in proptest::collection::vec(0.0..1.0f64, 48),
            stages in 1usize..4,
            extras in 0usize..6,
        ) {
            let decade = |u: f64, lo: f64, span: f64| 10f64.powf(lo + span * u);
            let mut v = vals.iter().copied().cycle();
            let mut next = move || v.next().expect("cycled");
            let mut ckt = Circuit::new();
            let mut nodes = vec![Circuit::GND, ckt.node("in")];
            ckt.vsource_ac(nodes[1], Circuit::GND, 0.0, 1.0);
            for k in 0..stages {
                let prev = *nodes.last().expect("input node");
                let s = ckt.node(&format!("s{k}"));
                let gm = decade(next(), -5.0, 3.0);
                if next() < 0.5 {
                    ckt.vccs(Circuit::GND, s, prev, Circuit::GND, gm);
                } else {
                    ckt.vccs(s, Circuit::GND, prev, Circuit::GND, gm);
                }
                ckt.resistor(s, Circuit::GND, decade(next(), 3.0, 3.0));
                ckt.capacitor(s, Circuit::GND, decade(next(), -15.0, 5.0));
                nodes.push(s);
            }
            let pick = |u: f64| nodes[((u * nodes.len() as f64) as usize).min(nodes.len() - 1)];
            for _ in 0..extras {
                let (kind, a, b) = (next(), pick(next()), pick(next()));
                if kind < 0.4 {
                    ckt.resistor(a, b, decade(next(), 2.0, 5.0));
                } else if kind < 0.8 {
                    ckt.capacitor(a, b, decade(next(), -15.0, 5.0));
                } else {
                    let (cp, cn) = (pick(next()), pick(next()));
                    ckt.vccs(a, b, cp, cn, decade(next(), -6.0, 4.0));
                }
            }
            let out = *nodes.last().expect("output stage");
            for _ in 0..4 {
                let f0 = decade(next(), 0.0, 3.0);
                let f1 = f0 * decade(next(), 1.0, 8.0);
                let points = 2 + (next() * 200.0) as usize;
                let sweep = AcSweep::log(f0, f1, points);
                let f_psrr = decade(next(), -1.0, 12.0);
                if ckt.ac_transfer(out, &sweep).is_ok() {
                    let solved = assert_lazy_matches_full(&ckt, out, &sweep, f_psrr);
                    prop_assert!(solved <= points);
                }
            }
        }

        /// Random gain-stage cascades whose input node, source branch and
        /// (half the time) an output divider tap carry no capacitor, so
        /// every response has a guide: each guided measurement equals the
        /// full sweep's bits. Each circuit is read on a wide grid and on
        /// the four sub-grids of it that put the 0 dB crossing at point 0,
        /// at point 1, at the last point, and past the end.
        #[test]
        fn prop_guided_measurements_equal_the_full_sweep_bitwise(
            vals in proptest::collection::vec(0.0..1.0f64, 48),
            stages in 1usize..4,
            extras in 0usize..6,
        ) {
            let decade = |u: f64, lo: f64, span: f64| 10f64.powf(lo + span * u);
            let mut v = vals.iter().copied().cycle();
            let mut next = move || v.next().expect("cycled");
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
            let mut stage_nodes = vec![Circuit::GND];
            let mut prev = vin;
            for k in 0..stages {
                let s = ckt.node(&format!("s{k}"));
                let gm = decade(next(), -4.0, 3.0);
                if next() < 0.5 {
                    ckt.vccs(Circuit::GND, s, prev, Circuit::GND, gm);
                } else {
                    ckt.vccs(s, Circuit::GND, prev, Circuit::GND, gm);
                }
                ckt.resistor(s, Circuit::GND, decade(next(), 3.0, 3.0));
                ckt.capacitor(s, Circuit::GND, decade(next(), -15.0, 5.0));
                stage_nodes.push(s);
                prev = s;
            }
            let out = if next() < 0.5 {
                let fb = ckt.node("fb");
                ckt.resistor(prev, fb, decade(next(), 3.0, 4.0));
                ckt.resistor(fb, Circuit::GND, decade(next(), 3.0, 4.0));
                fb
            } else {
                prev
            };
            let mut any = stage_nodes.clone();
            any.extend([vin, out]);
            let pick = |nodes: &[NodeId], u: f64| {
                nodes[((u * nodes.len() as f64) as usize).min(nodes.len() - 1)]
            };
            for _ in 0..extras {
                let kind = next();
                if kind < 0.4 {
                    let (a, b) = (pick(&any, next()), pick(&any, next()));
                    ckt.resistor(a, b, decade(next(), 2.0, 5.0));
                } else if kind < 0.8 {
                    let (a, b) = (pick(&stage_nodes, next()), pick(&stage_nodes, next()));
                    ckt.capacitor(a, b, decade(next(), -15.0, 5.0));
                } else {
                    let (a, b) = (pick(&any, next()), pick(&any, next()));
                    let (cp, cn) = (pick(&any, next()), pick(&any, next()));
                    ckt.vccs(a, b, cp, cn, decade(next(), -6.0, 4.0));
                }
            }
            let f0 = decade(next(), 0.0, 3.0);
            let sweep = AcSweep::log(f0, f0 * decade(next(), 6.0, 6.0), 20 + (next() * 200.0) as usize);
            assert_guided_matches_full(&ckt, out, &sweep, decade(next(), -1.0, 12.0));
        }

        /// Given points, and estimates that agree with them to 1e-12 or
        /// decline (NaN): the guided measurements and every unwrapped
        /// phase equal the full sweep's bits, with gains within a hair of
        /// 0 dB or exactly on it, phase steps within a hair of ±180°, and
        /// a crossing point exactly at 0 dB whose `fu` rounds past its
        /// bracket.
        #[test]
        fn prop_guided_decisions_equal_the_full_sweep_bitwise(
            vals in proptest::collection::vec(0.0..1.0f64, 96),
            n in 2usize..40,
        ) {
            let mut v = vals.iter().copied().cycle();
            let mut next = move || v.next().expect("cycled");
            let mut freqs = vec![10.0];
            for _ in 1..n {
                let last = freqs[freqs.len() - 1];
                freqs.push(last * (1.01 + 9.0 * next()));
            }
            let hair = |u: f64| 10f64.powf(-3.0 - 12.0 * u);
            let sign = |u: f64| if u < 0.5 { 1.0 } else { -1.0 };
            // Above 0 dB before the target crossing (`n`: none), anything
            // from it on; now and then within a hair of 0 dB or on it.
            let target = (next() * (n + 1) as f64) as usize;
            let (mut response, mut phase) = (Vec::with_capacity(n), 360.0 * next() - 180.0);
            for i in 0..n {
                let mag = match ((next() * 4.0) as usize, i < target) {
                    (0, true) => 1.0 + hair(next()),
                    (0, false) => 1.0,
                    (1, _) => 1.0 + hair(next()) * sign(next()),
                    (_, true) => 10f64.powf(2.0 * next()),
                    (_, false) => 10f64.powf(4.0 * next() - 3.0),
                };
                phase += match (next() * 3.0) as usize {
                    0 => (180.0 - hair(next())) * sign(next()),
                    _ => 340.0 * next() - 170.0,
                };
                let rad = phase.to_radians();
                // A gain of exactly 1 lies on an axis, where |z| is exact.
                response.push(if mag == 1.0 {
                    let quadrant = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)];
                    let (re, im) = quadrant[(next() * 4.0) as usize % 4];
                    Complex64::new(re, im)
                } else {
                    Complex64::new(mag * rad.cos(), mag * rad.sin())
                });
            }
            // Now and then a crossing exactly at 0 dB on a grid point that
            // `fu` rounds past, as `fu_rounding_past_its_bracket_...` sets up.
            if n >= 3 && next() < 0.3 {
                let i = 1 + (next() * (n - 2) as f64) as usize;
                for h in &mut response[..i] {
                    *h = *h * Complex64::from_re(10.0 / h.abs());
                }
                response[i] = Complex64::new(0.0, -1.0);
                let f0 = freqs[i - 1];
                if let Some(fi) = (0..1000)
                    .map(|k| freqs[i] + f64::from(k) * freqs[i] * f64::EPSILON * 4.0)
                    .find(|&fi| (f0.ln() + (fi.ln() - f0.ln())).exp() > fi && fi < freqs[i + 1])
                {
                    freqs[i] = fi;
                }
            }
            let estimates: Vec<Complex64> = response
                .iter()
                .map(|&h| {
                    if next() < 0.1 {
                        Complex64::new(f64::NAN, f64::NAN)
                    } else {
                        let e = Complex64::new(next() - 0.5, next() - 0.5);
                        h - h * e * Complex64::from_re(1e-12)
                    }
                })
                .collect();
            let full = BodeData { freqs: freqs.clone(), response: response.clone() };
            let f_psrr = freqs[0] * (freqs[n - 1] / freqs[0]).powf(next());
            let lazy = || AcResponse::from_estimates(&freqs, &response, &estimates);
            let mut guided = lazy();
            prop_assert!(guided.guided());
            prop_assert_eq!(
                bits(unity_gain_freq(&mut guided).unwrap()),
                bits(full.unity_gain_freq())
            );
            prop_assert_eq!(
                bits(phase_margin_deg(&mut guided).unwrap()),
                bits(full.phase_margin_deg())
            );
            prop_assert_eq!(
                psrr_db(&mut guided, f_psrr).unwrap().to_bits(),
                full.psrr_db(f_psrr).to_bits()
            );
            prop_assert!(!guided.guide_dropped());
            let phases = full.phases_deg_unwrapped();
            for i in (0..n).rev() {
                prop_assert_eq!(lazy().phase_deg(i).unwrap().to_bits(), phases[i].to_bits());
            }
        }
    }
}
