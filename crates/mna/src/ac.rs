use crate::netlist::{diode_iv, mos_iv, Circuit, Element, MosType, NodeId};
use crate::{DcSolution, MnaError};
use kato_linalg::{Complex64, Lu};

/// A logarithmic frequency grid for AC analysis.
///
/// # Example
///
/// ```
/// use kato_mna::AcSweep;
///
/// let sweep = AcSweep::log(1.0, 1e6, 7);
/// assert_eq!(sweep.freqs().len(), 7);
/// assert!((sweep.freqs()[1] - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AcSweep {
    freqs: Vec<f64>,
}

impl AcSweep {
    /// Geometrically spaced frequencies from `f_start` to `f_stop` Hz.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f_start <= f_stop` and `points >= 2`.
    #[must_use]
    pub fn log(f_start: f64, f_stop: f64, points: usize) -> Self {
        assert!(
            f_start > 0.0 && f_stop >= f_start && points >= 2,
            "invalid AC sweep specification"
        );
        let l0 = f_start.ln();
        let l1 = f_stop.ln();
        let freqs = (0..points)
            .map(|i| (l0 + (l1 - l0) * i as f64 / (points - 1) as f64).exp())
            .collect();
        AcSweep { freqs }
    }

    /// The frequency grid, Hz.
    #[must_use]
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }
}

/// Frequency response `H(jω)` at one observation node.
#[derive(Debug, Clone)]
pub struct BodeData {
    freqs: Vec<f64>,
    response: Vec<Complex64>,
}

impl BodeData {
    /// Creates Bode data from parallel frequency/response arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length or are empty.
    #[must_use]
    pub fn new(freqs: Vec<f64>, response: Vec<Complex64>) -> Self {
        assert_eq!(freqs.len(), response.len(), "bode arrays length mismatch");
        assert!(!freqs.is_empty(), "bode data must be non-empty");
        BodeData { freqs, response }
    }

    /// Frequency grid, Hz.
    #[must_use]
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Magnitude in dB at sample `i`.
    #[must_use]
    pub fn mag_db(&self, i: usize) -> f64 {
        20.0 * self.response[i].abs().max(1e-300).log10()
    }

    /// All magnitudes in dB.
    #[must_use]
    pub fn mags_db(&self) -> Vec<f64> {
        (0..self.freqs.len()).map(|i| self.mag_db(i)).collect()
    }

    /// Gain at the lowest swept frequency, dB.
    #[must_use]
    pub fn dc_gain_db(&self) -> f64 {
        self.mag_db(0)
    }

    /// Phase in degrees, unwrapped so consecutive samples never jump by more
    /// than 180°.
    #[must_use]
    pub fn phases_deg_unwrapped(&self) -> Vec<f64> {
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

    /// Magnitude (dB) at an arbitrary frequency by log-frequency linear
    /// interpolation; clamps outside the sweep range.
    #[must_use]
    pub fn interpolate_mag_db(&self, f: f64) -> f64 {
        interp_log_f(&self.freqs, &self.mags_db(), f)
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
    /// Small-signal transfer function from the circuit's AC sources to
    /// `out`, over `sweep`. For nonlinear circuits the DC operating point is
    /// computed first.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures and singular AC systems.
    pub fn ac_transfer(&self, out: NodeId, sweep: &AcSweep) -> Result<BodeData, MnaError> {
        let dc = if self.is_nonlinear() {
            Some(self.dc()?)
        } else {
            None
        };
        self.ac_transfer_at(dc.as_ref(), out, sweep)
    }

    /// Like [`Circuit::ac_transfer`] but reusing a previously computed DC
    /// operating point (required when the caller also needs DC data, avoids
    /// a second Newton solve).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::SingularSystem`] if the small-signal matrix is
    /// singular at some frequency.
    pub fn ac_transfer_at(
        &self,
        dc: Option<&DcSolution>,
        out: NodeId,
        sweep: &AcSweep,
    ) -> Result<BodeData, MnaError> {
        let n_nodes = self.node_count() - 1;
        let n_branch = self.branch_count();
        let dim = n_nodes + n_branch;
        let (g, c, rhs) = self.assemble_small_signal(dc, n_nodes, dim);

        // One row-major buffer for the whole sweep: refilled with
        // `G + jωC` at each frequency, factored in place, handed back.
        let mut a = vec![Complex64::ZERO; dim * dim];
        let mut response = Vec::with_capacity(sweep.freqs().len());
        for &f in sweep.freqs() {
            let omega = 2.0 * std::f64::consts::PI * f;
            let entries = g.iter().flatten().zip(c.iter().flatten());
            for (aij, (&gij, &cij)) in a.iter_mut().zip(entries) {
                *aij = if gij != 0.0 || cij != 0.0 {
                    Complex64::new(gij, omega * cij)
                } else {
                    Complex64::ZERO
                };
            }
            let lu = Lu::new(dim, a).map_err(|_| MnaError::SingularSystem { freq_hz: f })?;
            let x = lu.solve(&rhs);
            let h = if out.is_ground() {
                Complex64::ZERO
            } else {
                x[out.index() - 1]
            };
            response.push(h);
            a = lu.into_buffer();
        }
        Ok(BodeData::new(sweep.freqs().to_vec(), response))
    }

    /// Builds the real conductance matrix `G`, capacitance matrix `C` and the
    /// AC excitation vector.
    #[allow(clippy::type_complexity)]
    fn assemble_small_signal(
        &self,
        dc: Option<&DcSolution>,
        n_nodes: usize,
        dim: usize,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<Complex64>) {
        let mut g = vec![vec![0.0; dim]; dim];
        let mut c = vec![vec![0.0; dim]; dim];
        let mut rhs = vec![Complex64::ZERO; dim];
        let temp = self.temperature();

        let vdc = |node: NodeId| -> f64 {
            match dc {
                Some(sol) => sol.voltage(node),
                None => 0.0,
            }
        };
        let idx = |node: NodeId| -> Option<usize> {
            if node.is_ground() {
                None
            } else {
                Some(node.index() - 1)
            }
        };
        // Conductance stamp between two nodes.
        let stamp_g = |m: &mut Vec<Vec<f64>>, a: Option<usize>, b: Option<usize>, val: f64| {
            if let Some(i) = a {
                m[i][i] += val;
                if let Some(j) = b {
                    m[i][j] -= val;
                }
            }
            if let Some(i) = b {
                m[i][i] += val;
                if let Some(j) = a {
                    m[i][j] -= val;
                }
            }
        };
        // VCCS stamp: gm from (cp,cn) into (p out, n in).
        let stamp_gm = |m: &mut Vec<Vec<f64>>,
                        p: Option<usize>,
                        n: Option<usize>,
                        cp: Option<usize>,
                        cn: Option<usize>,
                        gm: f64| {
            for (out, sign) in [(p, 1.0), (n, -1.0)] {
                if let Some(i) = out {
                    if let Some(j) = cp {
                        m[i][j] += sign * gm;
                    }
                    if let Some(j) = cn {
                        m[i][j] -= sign * gm;
                    }
                }
            }
        };

        // Small leak to ground keeps structurally-floating AC nodes solvable.
        for i in 0..n_nodes {
            g[i][i] += 1e-12;
        }

        let mut branch = n_nodes;
        for e in self.elements() {
            match e {
                Element::Resistor { a, b, ohms, tc1 } => {
                    let r = ohms * (1.0 + tc1 * (temp - Circuit::TNOM));
                    stamp_g(&mut g, idx(*a), idx(*b), 1.0 / r.max(1e-3));
                }
                Element::Capacitor { a, b, farads } => {
                    stamp_g(&mut c, idx(*a), idx(*b), *farads);
                }
                Element::Vsource { p, n, ac_mag, .. } => {
                    let br = branch;
                    branch += 1;
                    if let Some(i) = idx(*p) {
                        g[i][br] += 1.0;
                        g[br][i] += 1.0;
                    }
                    if let Some(i) = idx(*n) {
                        g[i][br] -= 1.0;
                        g[br][i] -= 1.0;
                    }
                    rhs[br] = Complex64::from_re(*ac_mag);
                }
                Element::Isource { .. } => { /* open in small-signal */ }
                Element::Vccs { p, n, cp, cn, gm } => {
                    stamp_gm(&mut g, idx(*p), idx(*n), idx(*cp), idx(*cn), *gm);
                }
                Element::Diode { p, n, model } => {
                    let vd = vdc(*p) - vdc(*n);
                    let (_, gd) = diode_iv(model, vd, temp);
                    stamp_g(&mut g, idx(*p), idx(*n), gd);
                }
                Element::Mos {
                    d,
                    g: gate,
                    s,
                    mos_type,
                    model,
                    w,
                    l,
                } => {
                    let (vgs, vds) = match mos_type {
                        MosType::Nmos => (vdc(*gate) - vdc(*s), vdc(*d) - vdc(*s)),
                        MosType::Pmos => (vdc(*s) - vdc(*gate), vdc(*s) - vdc(*d)),
                    };
                    let (_, gm, gds) = mos_iv(model, *w, *l, vgs, vds, temp);
                    // Small-signal stamps are polarity-independent:
                    // i_d = gm·v_gs + gds·v_ds for both device types.
                    stamp_gm(&mut g, idx(*d), idx(*s), idx(*gate), idx(*s), gm);
                    stamp_g(&mut g, idx(*d), idx(*s), gds);
                    // Device capacitances: Cgs = 2/3·W·L·Cox + overlap,
                    // Cgd = overlap (0.3 fF/µm of width).
                    let c_ov = 0.3e-9 * w;
                    let cgs = 2.0 / 3.0 * w * l * model.cox + c_ov;
                    let cgd = c_ov;
                    stamp_g(&mut c, idx(*gate), idx(*s), cgs);
                    stamp_g(&mut c, idx(*gate), idx(*d), cgd);
                }
            }
        }
        (g, c, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_is_geometric() {
        let s = AcSweep::log(1.0, 100.0, 3);
        let f = s.freqs();
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[1] - 10.0).abs() < 1e-9);
        assert!((f[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid AC sweep")]
    fn sweep_rejects_bad_range() {
        let _ = AcSweep::log(100.0, 1.0, 5);
    }

    #[test]
    fn rc_lowpass_has_minus3db_corner_and_phase() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.resistor(vin, vout, 1_000.0);
        ckt.capacitor(vout, Circuit::GND, 1e-6);
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1_000.0 * 1e-6);
        let bode = ckt
            .ac_transfer(vout, &AcSweep::log(fc / 100.0, fc * 100.0, 201))
            .unwrap();
        assert!((bode.interpolate_mag_db(fc) + 3.01).abs() < 0.05);
        let phase = interp_log_f(bode.freqs(), &bode.phases_deg_unwrapped(), fc);
        assert!((phase + 45.0).abs() < 1.0);
        assert!(bode.dc_gain_db().abs() < 0.01);
    }

    #[test]
    fn rc_highpass_blocks_dc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.capacitor(vin, vout, 1e-6);
        ckt.resistor(vout, Circuit::GND, 1_000.0);
        let bode = ckt.ac_transfer(vout, &AcSweep::log(0.1, 1e6, 141)).unwrap();
        assert!(bode.mag_db(0) < -40.0);
        assert!(bode.mags_db().last().unwrap().abs() < 0.1);
    }

    #[test]
    fn vccs_gain_stage_flat_response() {
        // gm=2mS into 5kΩ: gain −10 → 20 dB, phase 180°.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.vccs(vout, Circuit::GND, vin, Circuit::GND, 2e-3);
        ckt.resistor(vout, Circuit::GND, 5_000.0);
        let bode = ckt.ac_transfer(vout, &AcSweep::log(1.0, 1e3, 4)).unwrap();
        assert!((bode.dc_gain_db() - 20.0).abs() < 0.01);
        let ph = bode.phases_deg_unwrapped()[0].abs();
        assert!((ph - 180.0).abs() < 0.01);
    }

    #[test]
    fn single_pole_gain_stage_rolls_off_20db_per_decade() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.vccs(vout, Circuit::GND, vin, Circuit::GND, 1e-3);
        ckt.resistor(vout, Circuit::GND, 100_000.0); // A0 = 100 = 40 dB
        ckt.capacitor(vout, Circuit::GND, 1e-9); // fp ≈ 1.59 kHz
        let bode = ckt
            .ac_transfer(vout, &AcSweep::log(10.0, 1e7, 121))
            .unwrap();
        let m1 = bode.interpolate_mag_db(100e3);
        let m2 = bode.interpolate_mag_db(1e6);
        assert!(((m1 - m2) - 20.0).abs() < 0.5, "rolloff {}", m1 - m2);
    }

    #[test]
    fn mos_common_source_ac_gain_matches_gm_ro() {
        use crate::netlist::{MosModel, MosType};
        // Common-source with ideal current-source load: |A| = gm·ro.
        let mut ckt = Circuit::new();
        let gate = ckt.node("g");
        let drain = ckt.node("d");
        let vdd = ckt.node("vdd");
        ckt.vsource(vdd, Circuit::GND, 1.8);
        ckt.vsource_ac(gate, Circuit::GND, 0.9, 1.0);
        ckt.resistor(vdd, drain, 20_000.0);
        ckt.mos(
            MosType::Nmos,
            drain,
            gate,
            Circuit::GND,
            MosModel::generic(),
            20e-6,
            1e-6,
        );
        let dc = ckt.dc().unwrap();
        let bode = ckt
            .ac_transfer_at(Some(&dc), drain, &AcSweep::log(1.0, 100.0, 3))
            .unwrap();
        // Compute expected gain from the linearised model directly.
        let vgs = 0.9 - 0.0;
        let vds = dc.voltage(drain);
        let (_, gm, gds) =
            crate::netlist::mos_iv(&MosModel::generic(), 20e-6, 1e-6, vgs, vds, 27.0);
        let expected = gm / (gds + 1.0 / 20_000.0);
        let measured = 10f64.powf(bode.dc_gain_db() / 20.0);
        assert!(
            (measured - expected).abs() / expected < 0.02,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn interp_log_f_clamps_and_interpolates() {
        let freqs = [1.0, 10.0, 100.0];
        let ys = [0.0, 10.0, 20.0];
        assert_eq!(interp_log_f(&freqs, &ys, 0.1), 0.0);
        assert_eq!(interp_log_f(&freqs, &ys, 1e4), 20.0);
        let mid = interp_log_f(&freqs, &ys, 10f64.sqrt()); // halfway in log space
        assert!((mid - 5.0).abs() < 1e-9);
    }
}
