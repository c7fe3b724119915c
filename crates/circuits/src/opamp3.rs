use crate::opamp2::{opamp_ac, opamp_specs, OPAMP_METRICS};
use crate::problem::{Metrics, Testbench, VarSpec};
use crate::tech::{collapse, source_width, TechNode, C_JUNCTION_PER_WIDTH};
use kato_mna::Circuit;

/// Nested-Miller-compensated three-stage operational amplifier
/// (paper Fig. 3b).
///
/// Three transconductance stages (`+gm1`, `+gm2`, `−gm3`) with the outer
/// Miller capacitor `Cm1` from the output back to the first-stage output and
/// the inner capacitor `Cm2` from the output to the second-stage output —
/// the classic NMC pole-splitting arrangement. Evaluation follows the same
/// operating-point → macromodel → MNA AC pipeline as
/// [`crate::opamp2()`].
///
/// Design variables (note: *different dimensionality* from the two-stage
/// problem — 9 vs 8 — which is exactly the situation KAT-GP's encoder must
/// bridge in the cross-topology transfer experiments):
///
/// | # | name    | scale | meaning                        |
/// |---|---------|-------|--------------------------------|
/// | 0 | `l1`    | lin   | first-stage channel length     |
/// | 1 | `w_in`  | log   | input-pair width               |
/// | 2 | `w2`    | log   | second-stage width             |
/// | 3 | `w3`    | log   | output-stage width             |
/// | 4 | `cm1`   | log   | outer Miller capacitor         |
/// | 5 | `cm2`   | log   | inner Miller capacitor         |
/// | 6 | `ib1`   | log   | first-stage tail current       |
/// | 7 | `ib2`   | log   | second-stage bias current      |
/// | 8 | `ib3`   | log   | output-stage bias current      |
///
/// Specification (after paper Eq. 16): minimise `I_total` subject to
/// `PM > 60°`, `GBW > 20 MHz` (Eq. 16 states 2 MHz), `Gain > 80 dB`
/// (70 dB at 40 nm per Table 2).
#[must_use]
pub fn opamp3(node: TechNode) -> Testbench {
    let w_lo = 5.0 * node.l_min;
    let w_hi = 1000.0 * node.l_min;
    let gain_bound = if node.name == "40nm" { 70.0 } else { 80.0 };
    Testbench {
        family: "opamp3",
        vars: vec![
            VarSpec::lin("l1_m", node.l_min, node.l_max),
            VarSpec::logarithmic("w_in_m", w_lo, w_hi),
            VarSpec::logarithmic("w2_m", w_lo, w_hi),
            VarSpec::logarithmic("w3_m", 2.0 * w_lo, 4.0 * w_hi),
            VarSpec::logarithmic("cm1_f", 0.2e-12, 10e-12),
            VarSpec::logarithmic("cm2_f", 0.1e-12, 5e-12),
            VarSpec::logarithmic("ib1_a", 2e-6, 2e-4),
            VarSpec::logarithmic("ib2_a", 2e-6, 2e-4),
            VarSpec::logarithmic("ib3_a", 1e-5, 1e-3),
        ],
        metric_names: &OPAMP_METRICS,
        specs: opamp_specs(gain_bound, 20.0),
        expert,
        simulate,
        node,
    }
}

fn simulate(node: &TechNode, p: &[f64]) -> Metrics {
    let (l1, w_in, w2, w3, cm1, cm2, ib1, ib2, ib3) =
        (p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7], p[8]);
    let vdd = node.vdd;
    let l23 = 2.0 * node.l_min;

    // Stage 1: PMOS diff pair, NMOS mirror load (length l1 for gain).
    let id1 = ib1 / 2.0;
    let vds1 = vdd / 3.0;
    let (vgs_in, gm1, gds_in) = node.bias(&node.pmos, w_in, l1, vds1, id1);
    // Mirror load reuses the input-pair width (common practice).
    let (vgs_ld, _, gds_ld) = node.bias(&node.nmos, w_in, l1, vds1, id1);

    // Stage 2: NMOS common source, longer-than-minimum length for gain.
    let l_mid = (2.0 * l1).min(node.l_max);
    let vds2 = vdd / 2.0;
    let (vgs2, gm2, gds2) = node.bias(&node.nmos, w2, l_mid, vds2, ib2);
    let w_p2 = source_width(&node.pmos, ib2, l23);
    let (_, _, gds_p2) = node.bias(&node.pmos, w_p2, l23, vds2, ib2);

    // Stage 3: output NMOS common source.
    let vds3 = vdd / 2.0;
    let (vgs3, gm3, gds3) = node.bias(&node.nmos, w3, l23, vds3, ib3);
    let w_p3 = source_width(&node.pmos, ib3, l23);
    let (_, _, gds_p3) = node.bias(&node.pmos, w_p3, l23, vds3, ib3);

    // Headroom soft-collapse.
    let vov_in = (vgs_in - node.pmos.vth).max(0.05);
    let r1 = collapse(
        1.0 / (gds_in + gds_ld),
        vdd - (0.2 + vov_in + vgs_ld + 0.10),
    );
    let vov2 = (vgs2 - node.nmos.vth).max(0.05);
    let r2 = collapse(1.0 / (gds2 + gds_p2), vdd - (vov2 + 0.2 + 0.15));
    let vov3 = (vgs3 - node.nmos.vth).max(0.05);
    let r3 = collapse(1.0 / (gds3 + gds_p3), vdd - (vov3 + 0.2 + 0.15));

    // Parasitics.
    let c1 = node.nmos.cgs(w2, l_mid) + C_JUNCTION_PER_WIDTH * (2.0 * w_in);
    let c2 = node.nmos.cgs(w3, l23) + C_JUNCTION_PER_WIDTH * w2;
    let cl = node.c_load + C_JUNCTION_PER_WIDTH * (w3 + w_p3);

    // Macromodel: +gm1 → n1, +gm2 → n2, −gm3 → out; Cm1 out→n1,
    // Cm2 out→n2 (nested Miller).
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let n1 = ckt.node("n1");
    let n2 = ckt.node("n2");
    let nout = ckt.node("out");
    ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
    ckt.vccs(Circuit::GND, n1, vin, Circuit::GND, gm1);
    ckt.resistor(n1, Circuit::GND, r1.max(1.0));
    ckt.capacitor(n1, Circuit::GND, c1);
    ckt.vccs(Circuit::GND, n2, n1, Circuit::GND, gm2);
    ckt.resistor(n2, Circuit::GND, r2.max(1.0));
    ckt.capacitor(n2, Circuit::GND, c2);
    ckt.vccs(nout, Circuit::GND, n2, Circuit::GND, gm3); // inverting
    ckt.resistor(nout, Circuit::GND, r3.max(1.0));
    ckt.capacitor(nout, Circuit::GND, cl);
    ckt.capacitor(n1, nout, cm1);
    ckt.capacitor(n2, nout, cm2);

    opamp_ac(&ckt, nout, 1.1 * (ib1 + ib2 + ib3) * 1e6)
}

fn expert(node: &TechNode) -> Vec<f64> {
    // Calibrated competent manual designs:
    // 180 nm: I ≈ 419 µA, gain 118 dB, PM 74°, GBW 25 MHz.
    // 40 nm:  I ≈ 231 µA, gain 81 dB, PM 82°, GBW 37 MHz.
    match node.name {
        "40nm" => vec![
            0.406, 0.726, 0.976, 0.723, 0.454, 0.263, 0.601, 0.912, 0.323,
        ],
        _ => vec![0.662, 0.827, 0.628, 0.7, 0.78, 0.895, 0.809, 0.996, 0.503],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opamp2::{M_GAIN, M_ITOTAL, M_PM};
    use crate::problem::SizingProblem;

    #[test]
    fn midpoint_metrics_are_sane() {
        let p = opamp3(TechNode::n180());
        let m = p.evaluate(&vec![0.5; p.dim()]);
        assert!(m.get(M_GAIN) > 40.0 && m.get(M_GAIN) < 180.0, "{m}");
        assert!(m.get(M_ITOTAL) > 5.0 && m.get(M_ITOTAL) < 2000.0, "{m}");
    }

    #[test]
    fn three_stage_beats_two_stage_gain() {
        let x2 = vec![0.5; 8];
        let x3 = vec![0.5; 9];
        let g2 = crate::opamp2(TechNode::n180()).evaluate(&x2).get(1);
        let g3 = opamp3(TechNode::n180()).evaluate(&x3).get(M_GAIN);
        assert!(
            g3 > g2 + 10.0,
            "an extra gain stage must add gain: {g2} vs {g3}"
        );
    }

    #[test]
    fn dimensionality_differs_from_two_stage() {
        let p3 = opamp3(TechNode::n180());
        let p2 = crate::opamp2(TechNode::n180());
        assert_ne!(p3.dim(), p2.dim());
    }

    #[test]
    fn nested_miller_stabilises() {
        // Without Miller caps (tiny cm1/cm2) a 3-stage amp should have worse
        // phase margin than with proper compensation.
        let p = opamp3(TechNode::n180());
        let mut uncomp = vec![0.5; 9];
        uncomp[4] = 0.0;
        uncomp[5] = 0.0;
        let mut comp = vec![0.5; 9];
        comp[4] = 0.7;
        comp[5] = 0.4;
        let pm_u = p.evaluate(&uncomp).get(M_PM);
        let pm_c = p.evaluate(&comp).get(M_PM);
        assert!(pm_c > pm_u, "compensation must help PM: {pm_u} vs {pm_c}");
    }

    #[test]
    fn expert_design_is_feasible() {
        let p = opamp3(TechNode::n180());
        let m = p.evaluate(&p.expert_design());
        assert!(m.feasible(p.specs()), "expert got {m}");
    }

    #[test]
    fn deterministic() {
        let p = opamp3(TechNode::n40());
        let x = vec![0.3; 9];
        assert_eq!(p.evaluate(&x), p.evaluate(&x));
    }
}
