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

/// The small-signal response `H(jω)` at one observation node over an
/// [`AcSweep`], solved lazily.
///
/// `G`, `C` and the excitation `b` are assembled once, row-major. Point `i`
/// is solved (`(G + jω_iC)·x = b`, one LU on a buffer the response owns)
/// the first time a measurement reads it, and memoised. Each frequency is an
/// independent solve, so a point holds the same bits whichever other points
/// were read. The first singular system met is recorded: from then on every
/// read returns that [`MnaError::SingularSystem`]. See the crate docs
/// for an example.
#[derive(Debug, Clone)]
pub struct AcResponse<'a> {
    freqs: &'a [f64],
    /// Row index of the observed node, `None` for ground.
    out: Option<usize>,
    g: Vec<f64>,
    c: Vec<f64>,
    rhs: Vec<Complex64>,
    /// The LU's storage, refilled with `G + jωC` for every point solved.
    buffer: Vec<Complex64>,
    points: Vec<Option<Complex64>>,
    /// Unwrapped phases (degrees) of the prefix read so far.
    phases: Vec<f64>,
    singular: Option<MnaError>,
}

impl<'a> AcResponse<'a> {
    /// The frequency grid, Hz.
    #[must_use]
    pub(crate) fn freqs(&self) -> &'a [f64] {
        self.freqs
    }

    /// Gain at the lowest swept frequency, dB.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::SingularSystem`] if a singular system was met.
    pub fn dc_gain_db(&mut self) -> Result<f64, MnaError> {
        self.mag_db(0)
    }

    /// Magnitude in dB at point `i`.
    pub(crate) fn mag_db(&mut self, i: usize) -> Result<f64, MnaError> {
        Ok(20.0 * self.point(i)?.abs().max(1e-300).log10())
    }

    /// Phase in degrees at point `i`, unwrapped from point 0 so that
    /// consecutive points never jump by more than 180°.
    pub(crate) fn phase_deg(&mut self, i: usize) -> Result<f64, MnaError> {
        while self.phases.len() <= i {
            let mut p = self.point(self.phases.len())?.arg().to_degrees();
            if let Some(&prev) = self.phases.last() {
                while p - prev > 180.0 {
                    p -= 360.0;
                }
                while p - prev < -180.0 {
                    p += 360.0;
                }
            }
            self.phases.push(p);
        }
        Ok(self.phases[i])
    }

    /// `H(jω_i)`, solved on first read.
    pub(crate) fn point(&mut self, i: usize) -> Result<Complex64, MnaError> {
        if let Some(e) = &self.singular {
            return Err(e.clone());
        }
        if let Some(h) = self.points[i] {
            return Ok(h);
        }
        let f = self.freqs[i];
        let omega = 2.0 * std::f64::consts::PI * f;
        let mut a = std::mem::take(&mut self.buffer);
        for (aij, (&gij, &cij)) in a.iter_mut().zip(self.g.iter().zip(&self.c)) {
            *aij = if gij != 0.0 || cij != 0.0 {
                Complex64::new(gij, omega * cij)
            } else {
                Complex64::ZERO
            };
        }
        let Ok(lu) = Lu::new(self.rhs.len(), a) else {
            let e = MnaError::SingularSystem { freq_hz: f };
            self.singular = Some(e.clone());
            return Err(e);
        };
        let h = self
            .out
            .map_or(Complex64::ZERO, |row| lu.solve(&self.rhs)[row]);
        self.buffer = lu.into_buffer();
        self.points[i] = Some(h);
        Ok(h)
    }
}

#[cfg(test)]
impl<'a> AcResponse<'a> {
    /// A response whose points are given rather than solved.
    pub(crate) fn from_points(freqs: &'a [f64], points: &[Complex64]) -> Self {
        AcResponse {
            freqs,
            out: None,
            g: Vec::new(),
            c: Vec::new(),
            rhs: Vec::new(),
            buffer: Vec::new(),
            points: points.iter().copied().map(Some).collect(),
            phases: Vec::new(),
            singular: None,
        }
    }

    /// How many points have been solved.
    pub(crate) fn solved(&self) -> usize {
        self.points.iter().flatten().count()
    }

    /// How long the unwrapped phase prefix is.
    pub(crate) fn unwrapped(&self) -> usize {
        self.phases.len()
    }
}

/// Linear interpolation in log-frequency of the samples `y(i)` on the grid
/// `freqs`, clamped at the grid edges. Reads `y` at the two grid points
/// that bracket `f` only (one point when `f` is clamped).
pub(crate) fn interp_log_f(
    freqs: &[f64],
    f: f64,
    mut y: impl FnMut(usize) -> Result<f64, MnaError>,
) -> Result<f64, MnaError> {
    let last = freqs.len() - 1;
    if f <= freqs[0] {
        return y(0);
    }
    if f >= freqs[last] {
        return y(last);
    }
    let lf = f.ln();
    match (1..freqs.len()).find(|&i| f <= freqs[i]) {
        Some(i) => {
            let l0 = freqs[i - 1].ln();
            let l1 = freqs[i].ln();
            let t = (lf - l0) / (l1 - l0);
            Ok(y(i - 1)? * (1.0 - t) + y(i)? * t)
        }
        None => y(last),
    }
}

impl Circuit {
    /// Small-signal response at `out` to the circuit's AC sources over
    /// `sweep`, solved lazily (see [`AcResponse`]). For nonlinear circuits
    /// the DC operating point is computed first.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures and a singular DC system.
    pub fn ac_response<'a>(
        &self,
        out: NodeId,
        sweep: &'a AcSweep,
    ) -> Result<AcResponse<'a>, MnaError> {
        let dc = if self.is_nonlinear() {
            Some(self.dc()?)
        } else {
            None
        };
        Ok(self.ac_response_at(dc.as_ref(), out, sweep))
    }

    /// Like [`Circuit::ac_response`] but linearising around a previously
    /// computed DC operating point (required when the caller also needs DC
    /// data, avoids a second Newton solve).
    #[must_use]
    pub fn ac_response_at<'a>(
        &self,
        dc: Option<&DcSolution>,
        out: NodeId,
        sweep: &'a AcSweep,
    ) -> AcResponse<'a> {
        let n_nodes = self.node_count() - 1;
        let dim = n_nodes + self.branch_count();
        let (g, c, rhs) = self.assemble_small_signal(dc, n_nodes, dim);
        AcResponse {
            freqs: sweep.freqs(),
            out: (!out.is_ground()).then(|| out.index() - 1),
            g,
            c,
            rhs,
            buffer: vec![Complex64::ZERO; dim * dim],
            points: vec![None; sweep.freqs().len()],
            phases: Vec::new(),
            singular: None,
        }
    }

    /// Builds the real conductance matrix `G` and capacitance matrix `C`,
    /// row-major `dim × dim`, and the AC excitation vector.
    fn assemble_small_signal(
        &self,
        dc: Option<&DcSolution>,
        n_nodes: usize,
        dim: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<Complex64>) {
        let mut g = vec![0.0; dim * dim];
        let mut c = vec![0.0; dim * dim];
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
        let stamp_g = |m: &mut [f64], a: Option<usize>, b: Option<usize>, val: f64| {
            if let Some(i) = a {
                m[i * dim + i] += val;
                if let Some(j) = b {
                    m[i * dim + j] -= val;
                }
            }
            if let Some(i) = b {
                m[i * dim + i] += val;
                if let Some(j) = a {
                    m[i * dim + j] -= val;
                }
            }
        };
        // VCCS stamp: gm from (cp,cn) into (p out, n in).
        let stamp_gm = |m: &mut [f64],
                        p: Option<usize>,
                        n: Option<usize>,
                        cp: Option<usize>,
                        cn: Option<usize>,
                        gm: f64| {
            for (out, sign) in [(p, 1.0), (n, -1.0)] {
                if let Some(i) = out {
                    if let Some(j) = cp {
                        m[i * dim + j] += sign * gm;
                    }
                    if let Some(j) = cn {
                        m[i * dim + j] -= sign * gm;
                    }
                }
            }
        };

        // Small leak to ground keeps structurally-floating AC nodes solvable.
        for i in 0..n_nodes {
            g[i * dim + i] += 1e-12;
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
                        g[i * dim + br] += 1.0;
                        g[br * dim + i] += 1.0;
                    }
                    if let Some(i) = idx(*n) {
                        g[i * dim + br] -= 1.0;
                        g[br * dim + i] -= 1.0;
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
        let sweep = AcSweep::log(fc / 100.0, fc * 100.0, 201);
        let mut bode = ckt.ac_response(vout, &sweep).unwrap();
        let mag = interp_log_f(sweep.freqs(), fc, |i| bode.mag_db(i)).unwrap();
        assert!((mag + 3.01).abs() < 0.05);
        let phase = interp_log_f(sweep.freqs(), fc, |i| bode.phase_deg(i)).unwrap();
        assert!((phase + 45.0).abs() < 1.0);
        assert!(bode.dc_gain_db().unwrap().abs() < 0.01);
    }

    #[test]
    fn rc_highpass_blocks_dc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.capacitor(vin, vout, 1e-6);
        ckt.resistor(vout, Circuit::GND, 1_000.0);
        let sweep = AcSweep::log(0.1, 1e6, 141);
        let mut bode = ckt.ac_response(vout, &sweep).unwrap();
        assert!(bode.mag_db(0).unwrap() < -40.0);
        assert!(bode.mag_db(140).unwrap().abs() < 0.1);
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
        let sweep = AcSweep::log(1.0, 1e3, 4);
        let mut bode = ckt.ac_response(vout, &sweep).unwrap();
        assert!((bode.dc_gain_db().unwrap() - 20.0).abs() < 0.01);
        let ph = bode.phase_deg(0).unwrap().abs();
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
        let sweep = AcSweep::log(10.0, 1e7, 121);
        let mut bode = ckt.ac_response(vout, &sweep).unwrap();
        let m1 = interp_log_f(sweep.freqs(), 100e3, |i| bode.mag_db(i)).unwrap();
        let m2 = interp_log_f(sweep.freqs(), 1e6, |i| bode.mag_db(i)).unwrap();
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
        let sweep = AcSweep::log(1.0, 100.0, 3);
        let mut bode = ckt.ac_response_at(Some(&dc), drain, &sweep);
        // Compute expected gain from the linearised model directly.
        let vgs = 0.9 - 0.0;
        let vds = dc.voltage(drain);
        let (_, gm, gds) =
            crate::netlist::mos_iv(&MosModel::generic(), 20e-6, 1e-6, vgs, vds, 27.0);
        let expected = gm / (gds + 1.0 / 20_000.0);
        let measured = 10f64.powf(bode.dc_gain_db().unwrap() / 20.0);
        assert!(
            (measured - expected).abs() / expected < 0.02,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn interp_log_f_clamps_and_interpolates() {
        let freqs = [1.0, 10.0, 100.0];
        let ys = [0.0, 10.0, 20.0];
        let mut reads = Vec::new();
        let mut y = |f: f64| {
            reads.clear();
            interp_log_f(&freqs, f, |i| {
                reads.push(i);
                Ok(ys[i])
            })
            .unwrap()
        };
        assert_eq!(y(0.1), 0.0);
        assert_eq!(y(1e4), 20.0);
        let mid = y(10f64.sqrt()); // halfway in log space
        assert!((mid - 5.0).abs() < 1e-9);
        assert_eq!(reads, [0, 1]);
    }
}
