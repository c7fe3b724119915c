use crate::opamp2::{opamp_ac, opamp_failed, opamp_specs, OPAMP_METRICS};
use crate::problem::{Metrics, Testbench, VarSpec};
use crate::tech::TechNode;
use kato_mna::Circuit;

/// Single-stage telescopic-cascode OTA.
///
/// An NMOS differential pair stacked directly under NMOS cascodes, loaded
/// by a cascoded PMOS mirror: five devices in one vertical stack. The
/// topology buys the highest gain-per-ampere of the registry's amplifier
/// family (both stacks are cascoded and the signal current never leaves
/// its branch), but every device's overdrive eats supply headroom — at the
/// 1.1 V 40 nm node the stack barely fits, so the feasible region is
/// dramatically smaller than at 180 nm. That strong node dependence is what
/// makes the telescopic a stress test for cross-technology transfer.
///
/// Evaluation: operating points → small-signal macromodel → MNA AC sweep,
/// as in [`crate::opamp2()`].
///
/// Design variables (all mapped from the unit cube):
///
/// | # | name      | scale | meaning                          |
/// |---|-----------|-------|----------------------------------|
/// | 0 | `l1`      | lin   | channel length (whole stack)     |
/// | 1 | `w_in`    | log   | input-pair width                 |
/// | 2 | `w_cas`   | log   | NMOS cascode width               |
/// | 3 | `w_pcas`  | log   | PMOS load/cascode width          |
/// | 4 | `ib_tail` | log   | tail current                     |
///
/// Specification: minimise `I_total` subject to `PM > 60°`,
/// `GBW > 20 MHz`, `Gain > 70 dB` (55 dB at 40 nm, where the stack's
/// headroom makes the nominal 70 dB unreachable at realistic currents).
#[must_use]
pub(crate) fn telescopic(node: TechNode) -> Testbench {
    let w_lo = 5.0 * node.l_min;
    let w_hi = 1000.0 * node.l_min;
    let gain_bound = if node.name == "40nm" { 55.0 } else { 70.0 };
    Testbench {
        family: "telescopic",
        vars: vec![
            VarSpec::lin("l1_m", node.l_min, node.l_max),
            VarSpec::logarithmic("w_in_m", w_lo, w_hi),
            VarSpec::logarithmic("w_cas_m", w_lo, w_hi),
            VarSpec::logarithmic("w_pcas_m", w_lo, w_hi),
            VarSpec::logarithmic("ib_tail_a", 5e-6, 5e-4),
        ],
        metric_names: &OPAMP_METRICS,
        specs: opamp_specs(gain_bound, 20.0),
        expert,
        simulate,
        node,
    }
}

fn simulate(node: &TechNode, p: &[f64]) -> Metrics {
    let (l1, w_in, w_cas, w_pcas, ib_tail) = (p[0], p[1], p[2], p[3], p[4]);
    let vdd = node.vdd;
    let id = ib_tail / 2.0;

    // --- Operating points (one branch, five-device stack) ------------
    let vds_mid = vdd / 5.0;
    let vgs_in = node.vgs_for_id(&node.nmos, w_in, l1, vds_mid, id);
    let (_, gm_in, gds_in) = node.mos_iv(&node.nmos, w_in, l1, vgs_in, vds_mid);

    let vgs_c = node.vgs_for_id(&node.nmos, w_cas, l1, vds_mid, id);
    let (_, gm_c, gds_c) = node.mos_iv(&node.nmos, w_cas, l1, vgs_c, vds_mid);

    let vgs_p = node.vgs_for_id(&node.pmos, w_pcas, l1, vds_mid, id);
    let (_, gm_p, gds_p) = node.mos_iv(&node.pmos, w_pcas, l1, vgs_p, vds_mid);

    // --- Output resistance: cascode boost on both stacks -------------
    let ro_down = (gm_c / gds_c) * (1.0 / gds_in);
    let ro_up = (gm_p / gds_p) * (1.0 / gds_p);
    let mut rout = ro_down * ro_up / (ro_down + ro_up);

    // --- Headroom: the whole stack must fit under VDD ----------------
    let vov_in = (vgs_in - node.nmos.vth).max(0.05);
    let vov_c = (vgs_c - node.nmos.vth).max(0.05);
    let vov_p = (vgs_p - node.pmos.vth).max(0.05);
    // Tail (0.2) + input + cascode + two PMOS devices + output swing
    // margin. This is the telescopic's defining constraint.
    let margin = vdd - (0.2 + vov_in + vov_c + 2.0 * vov_p + 0.2);
    if margin < 0.0 {
        rout *= (10.0 * margin).exp();
    }

    // --- Parasitics ---------------------------------------------------
    let cgs_c = 2.0 / 3.0 * w_cas * l1 * node.nmos.cox + 0.3e-9 * w_cas;
    let c_mid = cgs_c + 0.5e-9 * w_in;
    let cl = node.c_load + 0.5e-9 * (w_cas + w_pcas);

    // --- Small-signal macromodel to MNA -------------------------------
    // Input gm into the cascode source node (impedance ≈ 1/gm_c), then
    // the cascode relays the current into the output.
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let nm = ckt.node("mid");
    let nout = ckt.node("out");
    ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
    ckt.vccs(Circuit::GND, nm, vin, Circuit::GND, gm_in);
    ckt.resistor(nm, Circuit::GND, (1.0 / gm_c).max(1.0));
    ckt.capacitor(nm, Circuit::GND, c_mid);
    ckt.vccs(Circuit::GND, nout, nm, Circuit::GND, gm_c);
    ckt.resistor(nout, Circuit::GND, rout.max(1.0));
    ckt.capacitor(nout, Circuit::GND, cl);

    let Some((gain_db, gbw_mhz, pm_deg)) = opamp_ac(&ckt, nout) else {
        return opamp_failed();
    };
    // Both branches run off the single tail: no extra legs.
    let i_total_ua = 1.1 * ib_tail * 1e6;

    Metrics::new(vec![i_total_ua, gain_db, pm_deg, gbw_mhz])
}

fn expert(node: &TechNode) -> Vec<f64> {
    // Calibrated competent manual designs (feasible with margin;
    // found by random search + local refinement).
    //
    // 180 nm: I ≈ 87 µA, gain 86 dB, PM 89°, GBW 24 MHz.
    // 40 nm:  I ≈ 87 µA, gain 56 dB, PM 90°, GBW 26 MHz.
    match node.name {
        "40nm" => vec![0.20, 0.90, 0.40, 0.70, 0.60],
        _ => vec![0.10, 0.80, 0.50, 0.80, 0.60],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opamp2::{M_GAIN, M_ITOTAL};
    use crate::problem::SizingProblem;

    #[test]
    fn midpoint_metrics_are_sane() {
        let p = telescopic(TechNode::n180());
        let m = p.evaluate(&vec![0.5; p.dim()]);
        assert!(m.get(M_GAIN) > 40.0 && m.get(M_GAIN) < 150.0, "{m}");
        assert!(m.get(M_ITOTAL) > 5.0 && m.get(M_ITOTAL) < 1000.0, "{m}");
    }

    #[test]
    fn beats_folded_cascode_gain_per_current_at_180nm() {
        // Same midpoint sizing intent: the telescopic re-uses its branch
        // current end to end, the folded cascode pays for extra legs.
        let t = telescopic(TechNode::n180());
        let f = crate::folded_cascode::folded_cascode(TechNode::n180());
        let mt = t.evaluate(&vec![0.5; t.dim()]);
        let mf = f.evaluate(&vec![0.5; f.dim()]);
        let eff_t = mt.get(M_GAIN) / mt.get(M_ITOTAL);
        let eff_f = mf.get(1) / mf.get(0);
        assert!(
            eff_t > eff_f,
            "telescopic must win gain/µA: {eff_t} vs {eff_f}"
        );
    }

    #[test]
    fn headroom_collapse_hits_40nm_harder() {
        // The same mid-range design loses far more gain to the stack's
        // headroom at 1.1 V than at 1.8 V — the node dependence that
        // motivates transfer.
        let x = vec![0.5; 5];
        let g180 = telescopic(TechNode::n180()).evaluate(&x).get(1);
        let g40 = telescopic(TechNode::n40()).evaluate(&x).get(1);
        assert!(
            g180 > g40 + 10.0,
            "stack must struggle at 1.1 V: {g180} vs {g40}"
        );
    }

    #[test]
    fn longer_channel_more_gain() {
        // Wide devices keep overdrives low so the headroom collapse stays
        // out of the way of the ro ∝ L trend.
        let p = telescopic(TechNode::n180());
        let mut short = vec![0.5, 0.8, 0.8, 0.8, 0.5];
        let mut long = short.clone();
        short[0] = 0.05;
        long[0] = 0.8;
        let g_s = p.evaluate(&short).get(M_GAIN);
        let g_l = p.evaluate(&long).get(M_GAIN);
        assert!(g_l > g_s + 3.0, "cascode ro ∝ L: {g_s} vs {g_l}");
    }

    #[test]
    fn expert_design_is_feasible() {
        for node in [TechNode::n180(), TechNode::n40()] {
            let p = telescopic(node);
            let m = p.evaluate(&p.expert_design());
            assert!(m.feasible(p.specs()), "{} expert got {m}", p.name());
        }
    }

    #[test]
    fn deterministic() {
        let p = telescopic(TechNode::n40());
        let x = vec![0.3, 0.6, 0.4, 0.7, 0.5];
        assert_eq!(p.evaluate(&x), p.evaluate(&x));
    }
}
