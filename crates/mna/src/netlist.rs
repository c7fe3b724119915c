use std::collections::HashMap;
use std::fmt;

/// Identifier of a circuit node. [`Circuit::GND`] (index 0) is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (0 = ground).
    #[must_use]
    pub(crate) fn index(self) -> usize {
        self.0
    }

    /// `true` for the ground node.
    #[must_use]
    pub(crate) fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosType {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Square-law/EKV MOSFET model card (per technology node).
///
/// The DC current uses the EKV charge-interpolation form, which is smooth
/// across weak/strong inversion and triode/saturation — essential for Newton
/// robustness:
///
/// `Id = 2·n·Vt²·KP·(W/L)·(ln²(1+e^{u_f}) − ln²(1+e^{u_r}))·(1+λ·Vds)`
///
/// with `u_f = (Vgs−Vth)/(2nVt)` and `u_r = u_f − Vds/(2Vt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosModel {
    /// Transconductance parameter `KP = µ·Cox` in A/V².
    pub kp: f64,
    /// Zero-bias threshold voltage in V (positive for both polarities).
    pub vth: f64,
    /// Channel-length-modulation coefficient λ·L in V⁻¹·m — effective
    /// λ = `lambda_l / L`, capturing shorter channels having worse output
    /// resistance.
    pub lambda_l: f64,
    /// Subthreshold slope factor `n` (≈1.3–1.6).
    pub n_sub: f64,
    /// Gate-oxide capacitance per area, F/m² (used for Cgs/Cgd stamping).
    pub cox: f64,
    /// Threshold temperature coefficient, V/K (negative).
    pub vth_tc: f64,
}

impl MosModel {
    /// A generic long-channel model for tests (loosely 0.18 µm-class NMOS).
    #[cfg(test)]
    pub(crate) fn generic() -> Self {
        MosModel {
            kp: 170e-6,
            vth: 0.5,
            lambda_l: 0.02e-6,
            n_sub: 1.4,
            cox: 8e-3,
            vth_tc: -1e-3,
        }
    }

    /// This card with a local (per-device) perturbation applied: `Vth`
    /// shifted by `dvth` volts and `KP` scaled by `kp_scale` — the form
    /// device mismatch takes in this model family. Because the I–V
    /// equations depend on `vgs` only through `vgs − vth` and are linear
    /// in `KP`, evaluating the perturbed card is equivalent to querying
    /// the nominal card at `vgs − dvth` and scaling currents by
    /// `kp_scale` (the remap the tech-card routing layer exploits).
    #[must_use]
    pub fn perturbed(&self, dvth: f64, kp_scale: f64) -> Self {
        MosModel {
            vth: self.vth + dvth,
            kp: self.kp * kp_scale,
            ..*self
        }
    }
}

/// Exponential-junction diode model (also used as a diode-connected BJT
/// stand-in inside the bandgap core).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeModel {
    /// Saturation current at `TNOM`, A.
    pub(crate) is_sat: f64,
    /// Ideality factor.
    pub(crate) n: f64,
    /// Junction multiplicity (parallel devices) — e.g. the `8×` leg of a
    /// bandgap PTAT pair.
    pub(crate) mult: f64,
    /// Saturation-current temperature exponent (SPICE `XTI`).
    pub(crate) xti: f64,
    /// Bandgap energy in eV (SPICE `EG`).
    pub(crate) eg: f64,
}

impl DiodeModel {
    /// Typical silicon junction at 1× area.
    #[must_use]
    pub fn silicon() -> Self {
        DiodeModel {
            is_sat: 1e-16,
            n: 1.0,
            mult: 1.0,
            xti: 3.0,
            eg: 1.11,
        }
    }

    /// Same model scaled to `mult` parallel junctions.
    #[must_use]
    pub fn with_mult(mut self, mult: f64) -> Self {
        self.mult = mult;
        self
    }
}

/// One circuit element. Constructed through the [`Circuit`] builder methods.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub(crate) enum Element {
    /// Linear resistor with first-order temperature coefficient.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance at `TNOM`, Ω.
        ohms: f64,
        /// Linear temperature coefficient, 1/K.
        tc1: f64,
    },
    /// Linear capacitor (open at DC).
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance, F.
        farads: f64,
    },
    /// Independent voltage source (adds one MNA branch unknown).
    Vsource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// DC value, V.
        dc: f64,
        /// AC magnitude used during small-signal sweeps.
        ac_mag: f64,
    },
    /// Independent current source; `dc` amps flow from `p` through the
    /// source to `n` (SPICE convention).
    Isource {
        /// Terminal current leaves.
        p: NodeId,
        /// Terminal current enters.
        n: NodeId,
        /// DC value, A.
        dc: f64,
    },
    /// Voltage-controlled current source: `gm·(v(cp)−v(cn))` flows from
    /// `p` through the source to `n`.
    Vccs {
        /// Output terminal current leaves.
        p: NodeId,
        /// Output terminal current enters.
        n: NodeId,
        /// Positive control terminal.
        cp: NodeId,
        /// Negative control terminal.
        cn: NodeId,
        /// Transconductance, S.
        gm: f64,
    },
    /// Junction diode, anode `p` → cathode `n`.
    Diode {
        /// Anode.
        p: NodeId,
        /// Cathode.
        n: NodeId,
        /// Model card.
        model: DiodeModel,
    },
    /// MOSFET (drain, gate, source; bulk tied to source).
    Mos {
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Polarity.
        mos_type: MosType,
        /// Model card.
        model: MosModel,
        /// Channel width, m.
        w: f64,
        /// Channel length, m.
        l: f64,
    },
}

/// Handle to an element inside a [`Circuit`], used to query branch currents
/// from a [`crate::DcSolution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementHandle(usize);

/// An analog circuit netlist.
///
/// Nodes are created by name with [`Circuit::node`]; elements are appended
/// with the builder methods. See the crate-level docs for a full example.
#[derive(Debug, Clone)]
pub struct Circuit {
    names: Vec<String>,
    by_name: HashMap<String, NodeId>,
    elements: Vec<Element>,
    /// Simulation temperature, °C.
    temperature: f64,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// The ground node (always node 0).
    pub const GND: NodeId = NodeId(0);

    /// Nominal temperature for model cards, °C.
    pub(crate) const TNOM: f64 = 27.0;

    /// Creates an empty circuit at the nominal temperature (27 °C).
    #[must_use]
    pub fn new() -> Self {
        let mut by_name = HashMap::new();
        by_name.insert("0".to_string(), NodeId(0));
        Circuit {
            names: vec!["0".to_string()],
            by_name,
            elements: Vec::new(),
            temperature: Self::TNOM,
        }
    }

    /// Returns the node with this name, creating it if needed. The names
    /// `"0"` and `"gnd"` both resolve to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "gnd" || name == "0" {
            return Self::GND;
        }
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(self.names.len());
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Number of nodes including ground.
    #[must_use]
    pub(crate) fn node_count(&self) -> usize {
        self.names.len()
    }

    /// All elements, in insertion order.
    #[must_use]
    pub(crate) fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Simulation temperature in °C.
    #[must_use]
    pub(crate) fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Sets the simulation temperature in °C (affects diodes, resistor tc1,
    /// MOS Vth).
    pub fn set_temperature(&mut self, celsius: f64) {
        self.temperature = celsius;
    }

    fn push(&mut self, e: Element) -> ElementHandle {
        let id = ElementHandle(self.elements.len());
        self.elements.push(e);
        id
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive (use a large resistor, not
    /// zero, to model opens).
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> ElementHandle {
        assert!(ohms > 0.0, "resistance must be positive, got {ohms}");
        self.push(Element::Resistor {
            a,
            b,
            ohms,
            tc1: 0.0,
        })
    }

    /// Adds a resistor with a linear temperature coefficient (1/K).
    pub fn resistor_tc(&mut self, a: NodeId, b: NodeId, ohms: f64, tc1: f64) -> ElementHandle {
        assert!(ohms > 0.0, "resistance must be positive, got {ohms}");
        self.push(Element::Resistor { a, b, ohms, tc1 })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is negative.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> ElementHandle {
        assert!(farads >= 0.0, "capacitance must be non-negative");
        self.push(Element::Capacitor { a, b, farads })
    }

    /// Adds a DC voltage source with zero AC magnitude.
    pub fn vsource(&mut self, p: NodeId, n: NodeId, dc: f64) -> ElementHandle {
        self.push(Element::Vsource {
            p,
            n,
            dc,
            ac_mag: 0.0,
        })
    }

    /// Adds a voltage source with both DC value and AC magnitude (the AC
    /// stimulus for transfer-function sweeps).
    pub fn vsource_ac(&mut self, p: NodeId, n: NodeId, dc: f64, ac_mag: f64) -> ElementHandle {
        self.push(Element::Vsource { p, n, dc, ac_mag })
    }

    /// Adds a DC current source (`dc` flows from `p` through the source to
    /// `n`).
    pub fn isource(&mut self, p: NodeId, n: NodeId, dc: f64) -> ElementHandle {
        self.push(Element::Isource { p, n, dc })
    }

    /// Adds a voltage-controlled current source.
    pub fn vccs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) -> ElementHandle {
        self.push(Element::Vccs { p, n, cp, cn, gm })
    }

    /// Adds a diode (anode `p`, cathode `n`).
    pub fn diode(&mut self, p: NodeId, n: NodeId, model: DiodeModel) -> ElementHandle {
        self.push(Element::Diode { p, n, model })
    }

    /// Adds a MOSFET.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is not strictly positive.
    #[allow(clippy::too_many_arguments)]
    pub fn mos(
        &mut self,
        mos_type: MosType,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        model: MosModel,
        w: f64,
        l: f64,
    ) -> ElementHandle {
        assert!(w > 0.0 && l > 0.0, "MOS W and L must be positive");
        self.push(Element::Mos {
            d,
            g,
            s,
            mos_type,
            model,
            w,
            l,
        })
    }

    /// `true` if the circuit contains any nonlinear element (diode or MOS),
    /// i.e. a Newton DC solve is required before AC analysis.
    #[must_use]
    pub(crate) fn is_nonlinear(&self) -> bool {
        self.elements
            .iter()
            .any(|e| matches!(e, Element::Diode { .. } | Element::Mos { .. }))
    }

    /// Number of extra MNA branch unknowns (one per voltage source).
    #[must_use]
    pub(crate) fn branch_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Vsource { .. }))
            .count()
    }

    /// Maps element index → branch index for voltage sources.
    pub(crate) fn branch_index(&self, elem: ElementHandle) -> Option<usize> {
        let mut k = 0;
        for (i, e) in self.elements.iter().enumerate() {
            if matches!(e, Element::Vsource { .. }) {
                if i == elem.0 {
                    return Some(k);
                }
                k += 1;
            }
        }
        None
    }
}

/// Diode DC evaluation: current and conductance at junction voltage `vd`.
///
/// The exponential is linearised above `u = 40·nVt` to avoid overflow; Newton
/// damping keeps iterates out of that region at convergence.
pub(crate) fn diode_iv(model: &DiodeModel, vd: f64, temp_c: f64) -> (f64, f64) {
    const K_OVER_Q: f64 = 8.617_333_262e-5;
    let t = temp_c + 273.15;
    let tnom = Circuit::TNOM + 273.15;
    let vt = K_OVER_Q * t;
    let vt_n = model.n * vt;
    // SPICE-style saturation-current temperature scaling.
    let ratio = t / tnom;
    let is_t = model.is_sat
        * ratio.powf(model.xti / model.n)
        * ((ratio - 1.0) * model.eg / vt_n).exp()
        * model.mult;
    let u = vd / vt_n;
    const U_MAX: f64 = 40.0;
    if u > U_MAX {
        // Linear continuation of the exponential beyond u_max.
        let e = U_MAX.exp();
        let i = is_t * (e * (1.0 + (u - U_MAX)) - 1.0);
        let g = is_t * e / vt_n;
        (i, g)
    } else {
        let e = u.exp();
        let i = is_t * (e - 1.0);
        let g = (is_t * e / vt_n).max(1e-15);
        (i, g)
    }
}

/// MOSFET DC evaluation (EKV interpolation). Returns `(id, gm, gds)` where
/// `id` is the drain current for NMOS (source→drain magnitude for PMOS),
/// `gm = ∂Id/∂Vgs`, `gds = ∂Id/∂Vds` — all in the device's own polarity
/// frame (handled by the stamper).
pub(crate) fn mos_iv(
    model: &MosModel,
    w: f64,
    l: f64,
    vgs: f64,
    vds: f64,
    temp_c: f64,
) -> (f64, f64, f64) {
    const K_OVER_Q: f64 = 8.617_333_262e-5;
    let t = temp_c + 273.15;
    let vt = K_OVER_Q * t;
    let vth = model.vth + model.vth_tc * (temp_c - Circuit::TNOM);
    // Mobility degradation with temperature.
    let kp = model.kp * (t / (Circuit::TNOM + 273.15)).powf(-1.5);
    let n = model.n_sub;
    let lambda = model.lambda_l / l;
    let two_nvt = 2.0 * n * vt;

    // ln(1+e^u) with overflow-safe branches.
    let softplus = |u: f64| -> f64 {
        if u > 35.0 {
            u
        } else if u < -35.0 {
            0.0
        } else {
            u.exp().ln_1p()
        }
    };
    let sigmoid = |u: f64| -> f64 {
        if u > 35.0 {
            1.0
        } else if u < -35.0 {
            0.0
        } else {
            1.0 / (1.0 + (-u).exp())
        }
    };

    let uf = (vgs - vth) / two_nvt;
    let ur = uf - vds / (2.0 * vt);
    let gf = softplus(uf);
    let gr = softplus(ur);
    let i_f = gf * gf;
    let i_r = gr * gr;
    let c = 2.0 * n * vt * vt * kp * (w / l);
    let clm = 1.0 + lambda * vds.max(0.0);
    let id = c * (i_f - i_r) * clm;

    // Partials.
    let dif_duf = 2.0 * gf * sigmoid(uf);
    let dir_dur = 2.0 * gr * sigmoid(ur);
    let gm = c * (dif_duf - dir_dur) / two_nvt * clm;
    let mut gds = c * dir_dur / (2.0 * vt) * clm;
    if vds > 0.0 {
        gds += c * (i_f - i_r) * lambda;
    }
    (id, gm.max(0.0), gds.max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning_and_ground_aliases() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert_eq!(ckt.node("gnd"), Circuit::GND);
        assert_eq!(ckt.node("0"), Circuit::GND);
        assert_eq!(ckt.node_count(), 2);
        assert!(!a.is_ground());
        assert!(Circuit::GND.is_ground());
    }

    #[test]
    fn branch_bookkeeping() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, b, 1.0);
        let v1 = ckt.vsource(a, Circuit::GND, 1.0);
        let v2 = ckt.vsource(b, Circuit::GND, 2.0);
        assert_eq!(ckt.branch_count(), 2);
        assert_eq!(ckt.branch_index(v1), Some(0));
        assert_eq!(ckt.branch_index(v2), Some(1));
    }

    #[test]
    fn nonlinearity_detection() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GND, 1.0);
        assert!(!ckt.is_nonlinear());
        ckt.diode(a, Circuit::GND, DiodeModel::silicon());
        assert!(ckt.is_nonlinear());
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistance_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GND, 0.0);
    }

    #[test]
    fn diode_iv_forward_behaviour() {
        let m = DiodeModel::silicon();
        let (i1, g1) = diode_iv(&m, 0.6, 27.0);
        let (i2, _) = diode_iv(&m, 0.66, 27.0);
        assert!(i1 > 0.0 && g1 > 0.0);
        // 60 mV/decade: current should rise ~10x.
        assert!(i2 / i1 > 8.0 && i2 / i1 < 13.0, "ratio {}", i2 / i1);
    }

    #[test]
    fn diode_iv_reverse_saturates() {
        let m = DiodeModel::silicon();
        let (i, g) = diode_iv(&m, -0.5, 27.0);
        assert!((i + m.is_sat).abs() < 1e-18);
        assert!(g > 0.0); // keeps Newton matrix nonsingular
    }

    #[test]
    fn diode_large_bias_does_not_overflow() {
        let m = DiodeModel::silicon();
        let (i, g) = diode_iv(&m, 5.0, 27.0);
        assert!(i.is_finite() && g.is_finite());
    }

    #[test]
    fn diode_vbe_decreases_with_temperature() {
        // Solve I = 1µA for VBE at two temperatures; expect ≈ −2 mV/K.
        let m = DiodeModel::silicon();
        let solve_vbe = |temp: f64| -> f64 {
            let mut v = 0.6;
            for _ in 0..200 {
                let (i, g) = diode_iv(&m, v, temp);
                v -= (i - 1e-6) / g;
            }
            v
        };
        let v27 = solve_vbe(27.0);
        let v87 = solve_vbe(87.0);
        let slope_mv_per_k = (v87 - v27) / 60.0 * 1e3;
        assert!(
            slope_mv_per_k < -1.0 && slope_mv_per_k > -3.0,
            "VBE slope {slope_mv_per_k} mV/K"
        );
    }

    #[test]
    fn mos_iv_square_law_region() {
        let m = MosModel::generic();
        // Strong inversion, saturation: Id ≈ KP/(2n)·(W/L)·(Vgs−Vth)².
        let (id, gm, gds) = mos_iv(&m, 10e-6, 1e-6, 1.2, 1.5, 27.0);
        let expect = m.kp / (2.0 * m.n_sub) * 10.0 * (1.2 - 0.5_f64).powi(2);
        assert!(
            (id - expect).abs() / expect < 0.15,
            "id {id:.3e} vs {expect:.3e}"
        );
        assert!(gm > 0.0 && gds > 0.0);
        // gm ≈ 2·Id/(Vgs−Vth) in square law.
        let gm_expect = 2.0 * id / 0.7;
        assert!((gm - gm_expect).abs() / gm_expect < 0.2, "gm {gm:.3e}");
    }

    #[test]
    fn mos_iv_cutoff_is_tiny() {
        let m = MosModel::generic();
        let (id, _, _) = mos_iv(&m, 10e-6, 1e-6, 0.0, 1.0, 27.0);
        assert!(id < 1e-9, "cutoff current {id:.3e}");
    }

    #[test]
    fn mos_iv_triode_scales_with_vds() {
        let m = MosModel::generic();
        let (i1, _, g1) = mos_iv(&m, 10e-6, 1e-6, 1.5, 0.05, 27.0);
        let (i2, _, _) = mos_iv(&m, 10e-6, 1e-6, 1.5, 0.10, 27.0);
        // Deep triode: current roughly proportional to Vds, high gds.
        assert!(i2 / i1 > 1.7 && i2 / i1 < 2.2, "ratio {}", i2 / i1);
        assert!(g1 > 1e-5);
    }

    #[test]
    fn mos_iv_channel_length_modulation() {
        let m = MosModel::generic();
        let (i1, _, _) = mos_iv(&m, 10e-6, 0.2e-6, 1.2, 0.8, 27.0);
        let (i2, _, _) = mos_iv(&m, 10e-6, 0.2e-6, 1.2, 1.6, 27.0);
        assert!(i2 > i1, "CLM should raise Id with Vds in saturation");
        // Longer channel → flatter curve.
        let (i3, _, _) = mos_iv(&m, 10e-6, 2e-6, 1.2, 0.8, 27.0);
        let (i4, _, _) = mos_iv(&m, 10e-6, 2e-6, 1.2, 1.6, 27.0);
        assert!((i4 / i3) < (i2 / i1));
    }

    #[test]
    fn mos_iv_zero_vds_zero_current() {
        let m = MosModel::generic();
        let (id, _, _) = mos_iv(&m, 10e-6, 1e-6, 1.2, 0.0, 27.0);
        assert!(id.abs() < 1e-12);
    }
}
