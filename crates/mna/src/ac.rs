use crate::dc::{row, stamp_conductance, GMIN};
use crate::device::C_OV_PER_WIDTH;
use crate::guide::{unwrap_deg, Guide};
use crate::netlist::{Circuit, Element, NodeId};
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

    /// A grid of the given frequencies.
    #[cfg(test)]
    pub(crate) fn from_freqs(freqs: Vec<f64>) -> Self {
        AcSweep { freqs }
    }
}

/// The small-signal response `H(jω)` at one observation node over an
/// [`AcSweep`], solved lazily.
///
/// `G`, `C` and the excitation `b` are assembled once, row-major. Point `i`
/// is solved (`(G + jω_iC)·x = b`, one LU on buffers the response owns,
/// back-substituted only down to the observed row) the first time a
/// measurement reads it, and memoised. Each frequency is an
/// independent solve, so a point holds the same bits whichever other points
/// were read.
///
/// The unity-gain and phase-margin scans ask a cheap estimate of `H(jω)`
/// which points they must solve: a guide built on the first scan that
/// asks, from the rows and columns `C` never touches, eliminated once in
/// real arithmetic. An estimate only decides; every number a measurement
/// returns is an exactly solved point's. A guide that disagrees with an
/// exactly solved point is dropped, and the measurement reruns without it.
///
/// The first singular system met is recorded: from then on every read
/// returns that [`MnaError::SingularSystem`]. A system singular at a
/// frequency no measurement solves therefore fails nothing. See the crate
/// docs for an example.
#[derive(Debug, Clone)]
pub struct AcResponse<'a> {
    freqs: &'a [f64],
    /// Row index of the observed node, `None` for ground.
    out: Option<usize>,
    /// Rows `0..n_nodes` are node voltages, the rest source branches.
    n_nodes: usize,
    g: Vec<f64>,
    c: Vec<f64>,
    rhs: Vec<Complex64>,
    /// The LU's storage, refilled with `G + jωC` for every point solved,
    /// and its row permutation.
    buffer: Vec<Complex64>,
    perm: Vec<usize>,
    /// Scratch for [`Lu::solve_row`].
    work: Vec<Complex64>,
    points: Vec<Option<Complex64>>,
    /// Unwrapped phases (degrees) of the points unwrapped so far, empty
    /// until the first is.
    phases: Vec<Option<f64>>,
    guide: GuideState,
    singular: Option<MnaError>,
}

/// Where a response's [`Guide`] stands.
#[derive(Debug, Clone)]
enum GuideState {
    /// No scan has asked for it yet.
    Unbuilt,
    /// Built, and agreeing with every point solved so far.
    Live(Guide),
    /// There is none to build.
    Absent,
    /// It disagreed with an exactly solved point.
    Dropped,
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
    ///
    /// Only the points from the last one the guide's estimated chain
    /// vouches for (or the last one unwrapped before) up to `i` are
    /// solved; without a guide that is the whole prefix.
    pub(crate) fn phase_deg(&mut self, i: usize) -> Result<f64, MnaError> {
        if self.phases.is_empty() {
            self.phases = vec![None; self.freqs.len()];
        }
        if let Some(p) = self.phases[i] {
            return Ok(p);
        }
        let dropped = self.guide_dropped();
        let known = (0..=i).rev().find(|&j| self.phases[j].is_some());
        let vouched = if self.guide().is_some() {
            let anchor = self.point(0)?.arg().to_degrees();
            let freqs = self.freqs;
            match &mut self.guide {
                GuideState::Live(guide) => guide.reach(i, anchor, freqs),
                _ => None,
            }
        } else {
            None
        };
        // Unwrap from the later of the last memoised phase and the chain's
        // reach; before the first step there is nothing to unwrap against.
        let (start, mut prev) = match (known, vouched) {
            (Some(j), Some((v, _))) if j >= v => (j + 1, self.phases[j]),
            (_, Some((v, e))) => (v, Some(e)),
            (Some(j), None) => (j + 1, self.phases[j]),
            (None, None) => (0, None),
        };
        for j in start..=i {
            let raw = self.point(j)?.arg().to_degrees();
            let p = prev.map_or(raw, |prev| unwrap_deg(raw, prev));
            // A guide dropped meanwhile no longer vouches for `prev`.
            if self.guide_dropped() == dropped {
                self.phases[j] = Some(p);
            }
            prev = Some(p);
        }
        Ok(prev.expect("the loop unwraps point i"))
    }

    /// Whether the guide vouches that point `i` is above 0 dB, so that a
    /// scan need not solve it. Builds the guide on first use.
    pub(crate) fn clears_unity(&mut self, i: usize) -> bool {
        let freqs = self.freqs;
        self.guide()
            .is_some_and(|guide| guide.clears_unity(i, freqs))
    }

    /// Whether a guide was dropped for disagreeing with an exact point.
    pub(crate) fn guide_dropped(&self) -> bool {
        matches!(self.guide, GuideState::Dropped)
    }

    /// The live guide, built on first use and checked against every point
    /// already solved.
    fn guide(&mut self) -> Option<&mut Guide> {
        if let GuideState::Unbuilt = self.guide {
            self.guide = match (self.out, self.singular.is_none()) {
                (Some(out), true) => {
                    Guide::new(&self.g, &self.c, &self.rhs, self.n_nodes, out, self.freqs)
                        .map_or(GuideState::Absent, GuideState::Live)
                }
                _ => GuideState::Absent,
            };
            self.check_solved();
        }
        match &mut self.guide {
            GuideState::Live(guide) => Some(guide),
            _ => None,
        }
    }

    /// Checks the guide against every point solved so far.
    fn check_solved(&mut self) {
        for i in 0..self.points.len() {
            if let Some(h) = self.points[i] {
                self.check(i, h);
            }
        }
    }

    /// Drops a live guide whose estimate at point `i` disagrees with the
    /// exactly solved `exact`, and with it every phase it vouched for.
    fn check(&mut self, i: usize, exact: Complex64) {
        let freqs = self.freqs;
        if let GuideState::Live(guide) = &mut self.guide {
            if !guide.agrees(i, exact, freqs) {
                self.guide = GuideState::Dropped;
                self.phases.fill(None);
            }
        }
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
        let perm = std::mem::take(&mut self.perm);
        let Ok(lu) = Lu::new(self.rhs.len(), a, perm) else {
            let e = MnaError::SingularSystem { freq_hz: f };
            self.singular = Some(e.clone());
            return Err(e);
        };
        let h = self.out.map_or(Complex64::ZERO, |row| {
            lu.solve_row(&self.rhs, row, &mut self.work)
        });
        (self.buffer, self.perm) = lu.into_buffers();
        self.points[i] = Some(h);
        self.check(i, h);
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
            n_nodes: 0,
            g: Vec::new(),
            c: Vec::new(),
            rhs: Vec::new(),
            buffer: Vec::new(),
            perm: Vec::new(),
            work: Vec::new(),
            points: points.iter().copied().map(Some).collect(),
            phases: Vec::new(),
            guide: GuideState::Absent,
            singular: None,
        }
    }

    /// A response whose points are given, guided by given estimates.
    pub(crate) fn from_estimates(
        freqs: &'a [f64],
        points: &[Complex64],
        estimates: &[Complex64],
    ) -> Self {
        let mut response = AcResponse {
            guide: GuideState::Live(Guide::from_estimates(estimates)),
            ..AcResponse::from_points(freqs, points)
        };
        response.check_solved();
        response
    }

    /// How many points have been solved.
    pub(crate) fn solved(&self) -> usize {
        self.points.iter().flatten().count()
    }

    /// How many phases have been unwrapped.
    pub(crate) fn unwrapped(&self) -> usize {
        self.phases.iter().flatten().count()
    }

    /// Whether the response has a live guide, building it if no scan has.
    pub(crate) fn guided(&mut self) -> bool {
        self.guide().is_some()
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
            out: row(out),
            n_nodes,
            g,
            c,
            rhs,
            buffer: vec![Complex64::ZERO; dim * dim],
            perm: Vec::new(),
            work: vec![Complex64::ZERO; dim],
            points: vec![None; sweep.freqs().len()],
            phases: Vec::new(),
            guide: GuideState::Unbuilt,
            singular: None,
        }
    }

    /// Builds the real conductance matrix `G` and capacitance matrix `C`,
    /// row-major `dim × dim`, and the AC excitation vector. `G` is the
    /// Newton Jacobian at the operating point `dc` (at the zero state
    /// without one), with the final gmin from every node to ground.
    fn assemble_small_signal(
        &self,
        dc: Option<&DcSolution>,
        n_nodes: usize,
        dim: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<Complex64>) {
        let x = dc.map_or_else(|| vec![0.0; dim], DcSolution::state);
        let mut g = vec![0.0; dim * dim];
        self.assemble(&x, GMIN, &mut g, &mut vec![0.0; dim]);
        let mut c = vec![0.0; dim * dim];
        let mut rhs = vec![Complex64::ZERO; dim];
        let mut branch = n_nodes;
        for e in self.elements() {
            match e {
                Element::Capacitor { a, b, farads } => {
                    stamp_conductance(&mut c, dim, *a, *b, *farads);
                }
                Element::Vsource { ac_mag, .. } => {
                    rhs[branch] = Complex64::from_re(*ac_mag);
                    branch += 1;
                }
                Element::Mos {
                    d,
                    g: gate,
                    s,
                    model,
                    w,
                    l,
                    ..
                } => {
                    // Device capacitances: Cgs = 2/3·W·L·Cox + overlap,
                    // Cgd = overlap.
                    let c_ov = C_OV_PER_WIDTH * w;
                    let cgs = 2.0 / 3.0 * w * l * model.cox + c_ov;
                    stamp_conductance(&mut c, dim, *gate, *s, cgs);
                    stamp_conductance(&mut c, dim, *gate, *d, c_ov);
                }
                _ => {}
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
    fn pmos_common_source_ac_gain_matches_gm_ro_parallel_r() {
        use crate::netlist::{mos_iv, MosModel, MosType};
        // PMOS common source into a resistor to ground: A = −gm·(ro ‖ R).
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let drain = ckt.node("d");
        ckt.vsource(vdd, Circuit::GND, 1.8);
        ckt.vsource_ac(gate, Circuit::GND, 0.9, 1.0);
        ckt.resistor(drain, Circuit::GND, 20_000.0);
        let model = MosModel::generic();
        ckt.mos(MosType::Pmos, drain, gate, vdd, model, 2e-6, 1e-6);
        let dc = ckt.dc().unwrap();
        let sweep = AcSweep::log(1.0, 100.0, 3);
        let mut bode = ckt.ac_response_at(Some(&dc), drain, &sweep);
        let (vsg, vsd) = (1.8 - 0.9, 1.8 - dc.voltage(drain));
        let (_, gm, gds) = mos_iv(&model, 2e-6, 1e-6, vsg, vsd, 27.0);
        let expected = -gm / (gds + 1.0 / 20_000.0);
        let measured = bode.point(0).unwrap();
        assert!(
            (measured.re - expected).abs() < 1e-6 * expected.abs(),
            "measured {measured:?}, expected {expected}"
        );
        assert!(measured.im.abs() < 1e-6 * expected.abs());
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
