use crate::problem::{Goal, Metrics, Spec, SpecKind, Testbench, VarSpec};
use crate::tech::TechNode;
use kato_mna::{phase_margin_deg, psrr_db, AcSweep, Circuit};

/// Low-dropout (LDO) linear regulator — the registry's first non-amplifier
/// scenario, modelled on the regulator benchmarks used by the broader
/// sizing literature (GCN-RL's LDO, the transformer-LUT suite's
/// regulators).
///
/// Topology: a single-stage error amplifier drives a wide PMOS pass device
/// from the supply; a resistive divider feeds the output voltage back to
/// the error amplifier against a behavioural 0.5 V reference. The load is
/// a fixed 1 mA DC sink plus 100 pF of on-chip capacitance (a "cap-less"
/// LDO — output-pole compensation comes from the Miller capacitor `cc`
/// across the pass device, not from a board-level microfarad).
///
/// Each evaluation runs **two** MNA analyses:
///
/// 1. **Closed-loop AC** with a unit ripple on the supply: PSRR at 1 kHz
///    (the pass device's `g_ds`/`C_gs` couple the ripple in; the loop gain
///    suppresses it — both paths are in the netlist).
/// 2. **Open-loop AC** with the feedback path broken at the error-amp
///    input: loop-gain Bode data for the phase margin.
///
/// Dropout is measured on the DC device model: the pass device's triode
/// on-resistance at full gate drive (`V_GS = VDD`) times the load current —
/// the industry definition (`V_do = I_load · R_on`).
///
/// Design variables (all mapped from the unit cube):
///
/// | # | name     | scale | meaning                                 |
/// |---|----------|-------|-----------------------------------------|
/// | 0 | `l_ea`   | lin   | error-amp input channel length          |
/// | 1 | `w_ea`   | log   | error-amp input width                   |
/// | 2 | `w_pass` | log   | pass-device width                       |
/// | 3 | `ib_ea`  | log   | error-amp bias current                  |
/// | 4 | `cc`     | log   | Miller compensation capacitor           |
/// | 5 | `r_fb`   | log   | total feedback-divider resistance       |
///
/// Specification: minimise quiescent current `I_q` subject to
/// `dropout < 50 mV`, `PSRR > 40 dB @ 1 kHz`, `PM > 45°`. The PSRR bound
/// relaxes to 30 dB at 40 nm, where the short-channel error amplifier
/// cannot buy the same loop gain — the same per-node spec-preset pattern
/// as the op-amp gain bounds.
///
/// The regulation target is `VDD − 0.3 V`, so both cards run with 300 mV
/// of nominal headroom.
#[must_use]
pub(crate) fn ldo(node: TechNode) -> Testbench {
    let w_lo = 5.0 * node.l_min;
    let w_hi = 1000.0 * node.l_min;
    let psrr_bound = if node.name == "40nm" { 30.0 } else { 40.0 };
    Testbench {
        family: "ldo",
        vars: vec![
            VarSpec::lin("l_ea_m", node.l_min, node.l_max),
            VarSpec::logarithmic("w_ea_m", w_lo, w_hi),
            VarSpec::logarithmic("w_pass_m", 50.0 * node.l_min, 20_000.0 * node.l_min),
            VarSpec::logarithmic("ib_ea_a", 1e-6, 1e-4),
            VarSpec::logarithmic("cc_f", 0.5e-12, 20e-12),
            VarSpec::logarithmic("r_fb_ohm", 1e5, 1e7),
        ],
        metric_names: &["i_q_ua", "dropout_mv", "psrr_db", "pm_deg"],
        specs: vec![
            Spec {
                metric: M_IQ,
                kind: SpecKind::Objective(Goal::Minimize),
            },
            Spec {
                metric: M_DROPOUT,
                kind: SpecKind::LessEq(50.0),
            },
            Spec {
                metric: M_PSRR,
                kind: SpecKind::GreaterEq(psrr_bound),
            },
            Spec {
                metric: M_PM,
                kind: SpecKind::GreaterEq(45.0),
            },
        ],
        expert,
        simulate,
        node,
    }
}

pub(crate) const M_IQ: usize = 0;
pub(crate) const M_DROPOUT: usize = 1;
pub(crate) const M_PSRR: usize = 2;
pub(crate) const M_PM: usize = 3;

/// Fixed DC load current, A.
const I_LOAD: f64 = 1e-3;
/// Fixed on-chip output capacitance, F.
const C_OUT: f64 = 100e-12;
/// Behavioural reference voltage, V.
const V_REF: f64 = 0.5;

/// Regulated output voltage on `node`, V.
fn vout_nominal(node: &TechNode) -> f64 {
    node.vdd - 0.3
}

fn failed() -> Metrics {
    Metrics::new(vec![1e3, 1e4, 0.0, 0.0])
}

fn simulate(node: &TechNode, p: &[f64]) -> Metrics {
    let (l_ea, w_ea, w_pass, ib_ea, cc, r_fb) = (p[0], p[1], p[2], p[3], p[4], p[5]);
    let vdd = node.vdd;
    let vout = vout_nominal(node);
    let beta = V_REF / vout;
    let l_pass = 2.0 * node.l_min;

    // --- Error-amp operating point ------------------------------------
    let id_ea = ib_ea / 2.0;
    let vds_ea = vdd / 3.0;
    let vgs_ea = node.vgs_for_id(&node.nmos, w_ea, l_ea, vds_ea, id_ea);
    let (_, gm_ea, gds_ean) = node.mos_iv(&node.nmos, w_ea, l_ea, vgs_ea, vds_ea);
    // PMOS mirror load sized for V_ov ≈ 0.2 V at the same length.
    let wl_eap = 2.0 * node.pmos.n_sub * id_ea / (node.pmos.kp * 0.04);
    let w_eap = (wl_eap * l_ea).max(l_ea);
    let vgs_eap = node.vgs_for_id(&node.pmos, w_eap, l_ea, vds_ea, id_ea);
    let (_, _, gds_eap) = node.mos_iv(&node.pmos, w_eap, l_ea, vgs_eap, vds_ea);
    let r_ea = 1.0 / (gds_ean + gds_eap);

    // --- Pass-device operating point -----------------------------------
    // Regulating: the gate must bias `I_LOAD` with the gate inside the
    // rails. If even a grounded gate cannot sustain the load in
    // saturation, the device is in dropout at the nominal point —
    // simulator failure, like the real regulator falling out of
    // regulation.
    let vsg_p = node.vgs_for_id(&node.pmos, w_pass, l_pass, vdd - vout, I_LOAD);
    if vsg_p > vdd - 0.02 {
        return failed();
    }
    let (_, gm_p, gds_p) = node.mos_iv(&node.pmos, w_pass, l_pass, vsg_p, vdd - vout);

    // Dropout: triode on-resistance at full gate drive (V_SG = VDD).
    let (i_on, _, _) = node.mos_iv(&node.pmos, w_pass, l_pass, vdd, 0.05);
    if i_on <= 0.0 {
        return failed();
    }
    let r_on = 0.05 / i_on;
    let dropout_mv = I_LOAD * r_on * 1e3;

    // --- Shared small-signal pieces ------------------------------------
    let cgs_pass = 2.0 / 3.0 * w_pass * l_pass * node.pmos.cox + 0.3e-9 * w_pass;
    let r_load = vout / I_LOAD;
    let r1 = r_fb * (1.0 - beta);
    let r2 = r_fb * beta;

    // --- Closed-loop PSRR: unit ripple on the supply -------------------
    let mut ckt = Circuit::new();
    let nvin = ckt.node("vin");
    let ng = ckt.node("gate");
    let nout = ckt.node("out");
    let nfb = ckt.node("fb");
    ckt.vsource_ac(nvin, Circuit::GND, vdd, 1.0);
    // Error amp: + input is the quiet reference (AC ground), − input is
    // the divider tap; output drives the gate. `v(fb) ↑ → v(gate) ↑ →
    // V_SG ↓ → pass current ↓` closes the loop negatively.
    ckt.vccs(Circuit::GND, ng, nfb, Circuit::GND, gm_ea);
    ckt.resistor(ng, Circuit::GND, r_ea);
    // Gate-source capacitance couples the ripple into the gate.
    ckt.capacitor(ng, nvin, cgs_pass);
    // Pass device: channel current ∝ V_SG from supply into the output,
    // plus its output conductance straight across.
    ckt.vccs(nvin, nout, nvin, ng, gm_p);
    ckt.resistor(nvin, nout, 1.0 / gds_p);
    ckt.capacitor(ng, nout, cc);
    // Load, output cap, feedback divider.
    ckt.resistor(nout, Circuit::GND, r_load);
    ckt.capacitor(nout, Circuit::GND, C_OUT);
    ckt.resistor(nout, nfb, r1);
    ckt.resistor(nfb, Circuit::GND, r2);

    let sweep = AcSweep::log(10.0, 1e9, 181);
    let Ok(psrr) = ckt
        .ac_response(nout, &sweep)
        .and_then(|mut bode| psrr_db(&mut bode, 1e3))
    else {
        return failed();
    };

    // --- Open-loop stability: break the loop at the error-amp input ----
    let mut ol = Circuit::new();
    let nin = ol.node("in");
    let ng = ol.node("gate");
    let nout = ol.node("out");
    let nfb = ol.node("fb");
    ol.vsource_ac(nin, Circuit::GND, 0.0, 1.0);
    ol.vccs(Circuit::GND, ng, nin, Circuit::GND, gm_ea);
    ol.resistor(ng, Circuit::GND, r_ea);
    // Quiet supply is AC ground in the open-loop testbench.
    ol.capacitor(ng, Circuit::GND, cgs_pass);
    ol.vccs(nout, Circuit::GND, ng, Circuit::GND, gm_p); // inverting
    ol.resistor(nout, Circuit::GND, 1.0 / gds_p);
    ol.capacitor(ng, nout, cc);
    ol.resistor(nout, Circuit::GND, r_load);
    ol.capacitor(nout, Circuit::GND, C_OUT);
    ol.resistor(nout, nfb, r1);
    ol.resistor(nfb, Circuit::GND, r2);

    let Ok(pm_deg) = ol
        .ac_response(nfb, &sweep)
        .and_then(|mut bode| phase_margin_deg(&mut bode))
    else {
        return failed();
    };
    let pm_deg = pm_deg.unwrap_or(0.0);

    // --- Quiescent current ---------------------------------------------
    // Error-amp tail + its mirror legs (≈ 1.25×) plus the divider.
    let i_q_ua = (1.25 * ib_ea + vout / r_fb) * 1e6;

    Metrics::new(vec![i_q_ua, dropout_mv, psrr, pm_deg])
}

fn expert(_: &TechNode) -> Vec<f64> {
    // Calibrated competent manual designs (feasible with margin on
    // every constraint; found by random search + local refinement).
    //
    // 180 nm: I_q ≈ 2.2 µA, dropout 26 mV, PSRR 46 dB, PM 85°.
    // 40 nm:  I_q ≈ 2.1 µA, dropout 14 mV, PSRR 34 dB, PM 86°.
    vec![0.70, 0.90, 0.50, 0.10, 0.20, 0.90]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SizingProblem;

    #[test]
    fn midpoint_metrics_are_sane() {
        let p = ldo(TechNode::n180());
        let m = p.evaluate(&vec![0.5; p.dim()]);
        assert!(m.get(M_IQ) > 0.5 && m.get(M_IQ) < 500.0, "{m}");
        assert!(m.get(M_DROPOUT) > 0.01 && m.get(M_DROPOUT) < 1e4, "{m}");
        assert!(m.get(M_PSRR) > 0.0, "{m}");
        assert!(m.get(M_PM) >= 0.0 && m.get(M_PM) < 180.0, "{m}");
    }

    #[test]
    fn wider_pass_device_less_dropout() {
        let p = ldo(TechNode::n180());
        let mut narrow = vec![0.5; 6];
        let mut wide = vec![0.5; 6];
        narrow[2] = 0.1;
        wide[2] = 0.9;
        let d_n = p.evaluate(&narrow).get(M_DROPOUT);
        let d_w = p.evaluate(&wide).get(M_DROPOUT);
        assert!(d_w < d_n, "R_on ∝ 1/W: {d_n} vs {d_w}");
    }

    #[test]
    fn more_loop_gain_more_psrr() {
        // A longer error-amp channel raises its output resistance, hence
        // the loop gain, hence supply rejection at 1 kHz.
        let p = ldo(TechNode::n180());
        let mut short = vec![0.5; 6];
        let mut long = vec![0.5; 6];
        short[0] = 0.05;
        long[0] = 0.95;
        let p_s = p.evaluate(&short).get(M_PSRR);
        let p_l = p.evaluate(&long).get(M_PSRR);
        assert!(p_l > p_s + 3.0, "loop gain must buy PSRR: {p_s} vs {p_l}");
    }

    #[test]
    fn quiescent_current_tracks_error_amp_bias() {
        let p = ldo(TechNode::n180());
        let mut lo = vec![0.5; 6];
        let mut hi = vec![0.5; 6];
        lo[3] = 0.1;
        hi[3] = 0.9;
        let i_lo = p.evaluate(&lo).get(M_IQ);
        let i_hi = p.evaluate(&hi).get(M_IQ);
        assert!(i_hi > 3.0 * i_lo, "I_q ∝ ib_ea: {i_lo} vs {i_hi}");
    }

    #[test]
    fn smaller_divider_resistance_more_quiescent_current() {
        let p = ldo(TechNode::n180());
        let mut small_r = vec![0.5; 6];
        let mut big_r = vec![0.5; 6];
        small_r[5] = 0.05;
        big_r[5] = 0.95;
        let i_small = p.evaluate(&small_r).get(M_IQ);
        let i_big = p.evaluate(&big_r).get(M_IQ);
        assert!(i_small > i_big, "divider burns I_q: {i_small} vs {i_big}");
    }

    #[test]
    fn ripple_is_actually_rejected() {
        // The closed loop must attenuate supply ripple at 1 kHz by a
        // meaningful factor for a mid-range design — if the feedback sign
        // were wrong this would amplify instead.
        let p = ldo(TechNode::n180());
        let m = p.evaluate(&p.expert_design());
        assert!(m.get(M_PSRR) > 20.0, "ripple must be suppressed: {m}");
    }

    #[test]
    fn expert_design_is_feasible() {
        for node in [TechNode::n180(), TechNode::n40()] {
            let p = ldo(node);
            let m = p.evaluate(&p.expert_design());
            assert!(m.feasible(p.specs()), "{} expert got {m}", p.name());
        }
    }

    #[test]
    fn deterministic() {
        let p = ldo(TechNode::n40());
        let x = vec![0.4, 0.6, 0.7, 0.5, 0.6, 0.4];
        assert_eq!(p.evaluate(&x), p.evaluate(&x));
    }

    #[test]
    fn name_embeds_node() {
        assert_eq!(ldo(TechNode::n180()).name(), "ldo_180nm");
    }
}
