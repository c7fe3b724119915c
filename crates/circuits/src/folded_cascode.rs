use crate::opamp2::{opamp_ac, opamp_failed, opamp_specs, OPAMP_METRICS};
use crate::problem::{Metrics, Testbench, VarSpec};
use crate::tech::TechNode;
use kato_mna::Circuit;

/// Single-stage folded-cascode OTA — the first of the registry's extended
/// circuit family (GCN-RL and the transformer-LUT OTA sizers validate on
/// this topology; the KATO paper itself stops at the two/three-stage
/// Miller amplifiers).
///
/// A PMOS differential pair injects its signal current into the folding
/// nodes, where NMOS cascodes relay it into a fully cascoded PMOS mirror
/// load. One high-impedance node (the output) sets the dominant pole, the
/// low-impedance folding node (`≈ 1/gm` of the cascode) contributes the
/// first non-dominant pole — so the amplifier is intrinsically stable and
/// its sizing problem trades gain (cascode output resistance) against
/// bandwidth and current, a qualitatively different landscape from the
/// Miller op-amps that makes it a useful cross-topology transfer target.
///
/// The evaluation pipeline is the same operating-point → small-signal
/// macromodel → MNA AC sweep used by [`crate::opamp2()`].
///
/// Design variables (all mapped from the unit cube):
///
/// | # | name      | scale | meaning                               |
/// |---|-----------|-------|---------------------------------------|
/// | 0 | `l1`      | lin   | input/cascode channel length          |
/// | 1 | `w_in`    | log   | input-pair width                      |
/// | 2 | `w_cas`   | log   | NMOS cascode width                    |
/// | 3 | `w_mir`   | log   | PMOS mirror/cascode width             |
/// | 4 | `ib_tail` | log   | input-pair tail current               |
/// | 5 | `ib_fold` | log   | folding-branch current (per branch)   |
///
/// Specification: minimise `I_total` subject to `PM > 60°`,
/// `GBW > 20 MHz`, `Gain > 60 dB` (50 dB at 40 nm).
#[must_use]
pub(crate) fn folded_cascode(node: TechNode) -> Testbench {
    let w_lo = 5.0 * node.l_min;
    let w_hi = 1000.0 * node.l_min;
    let gain_bound = if node.name == "40nm" { 50.0 } else { 60.0 };
    Testbench {
        family: "folded_cascode",
        vars: vec![
            VarSpec::lin("l1_m", node.l_min, node.l_max),
            VarSpec::logarithmic("w_in_m", w_lo, w_hi),
            VarSpec::logarithmic("w_cas_m", w_lo, w_hi),
            VarSpec::logarithmic("w_mir_m", w_lo, w_hi),
            VarSpec::logarithmic("ib_tail_a", 5e-6, 5e-4),
            VarSpec::logarithmic("ib_fold_a", 1e-5, 1e-3),
        ],
        metric_names: &OPAMP_METRICS,
        specs: opamp_specs(gain_bound, 20.0),
        expert,
        simulate,
        node,
    }
}

fn simulate(node: &TechNode, p: &[f64]) -> Metrics {
    let (l1, w_in, w_cas, w_mir, ib_tail, ib_fold) = (p[0], p[1], p[2], p[3], p[4], p[5]);
    let vdd = node.vdd;

    // The bottom current sources sink `ib_fold` per branch; the input
    // pair injects `ib_tail/2` into each folding node, so the cascode
    // carries the difference. A starved cascode (tail current ≥ fold
    // current) has no branch left to relay the signal — simulator
    // failure, like the real circuit losing its output branch.
    let id_in = ib_tail / 2.0;
    let id_c = ib_fold - id_in;
    if id_c < 0.05 * ib_fold {
        return opamp_failed();
    }

    // --- Operating points -------------------------------------------
    let vds_mid = vdd / 3.0;
    let vgs_in = node.vgs_for_id(&node.pmos, w_in, l1, vds_mid, id_in);
    let (_, gm_in, gds_in) = node.mos_iv(&node.pmos, w_in, l1, vgs_in, vds_mid);

    let vgs_c = node.vgs_for_id(&node.nmos, w_cas, l1, vds_mid, id_c);
    let (_, gm_c, gds_c) = node.mos_iv(&node.nmos, w_cas, l1, vgs_c, vds_mid);

    // Bottom NMOS current source sized for V_ov ≈ 0.2 V at `ib_fold`.
    let wl_src = 2.0 * node.nmos.n_sub * ib_fold / (node.nmos.kp * 0.04);
    let w_src = (wl_src * l1).max(l1);
    let vgs_src = node.vgs_for_id(&node.nmos, w_src, l1, vds_mid, ib_fold);
    let (_, _, gds_src) = node.mos_iv(&node.nmos, w_src, l1, vgs_src, vds_mid);

    // Cascoded PMOS mirror load, both devices `w_mir`, carrying `id_c`.
    let vgs_mp = node.vgs_for_id(&node.pmos, w_mir, l1, vds_mid, id_c);
    let (_, gm_mp, gds_mp) = node.mos_iv(&node.pmos, w_mir, l1, vgs_mp, vds_mid);

    // --- Output resistance: cascode boost on both stacks -------------
    let ro_down = (gm_c / gds_c) * (1.0 / (gds_src + gds_in));
    let ro_up = (gm_mp / gds_mp) * (1.0 / gds_mp);
    let mut rout = ro_down * ro_up / (ro_down + ro_up);

    // --- Headroom feasibility (soft gain collapse) -------------------
    let vov_in = (vgs_in - node.pmos.vth).max(0.05);
    let vov_c = (vgs_c - node.nmos.vth).max(0.05);
    let vov_mp = (vgs_mp - node.pmos.vth).max(0.05);
    // Output swing path: bottom source (0.2) + cascode + both mirror
    // devices must stay saturated around the output common mode.
    let margin = vdd - (0.2 + vov_c + 2.0 * vov_mp + 0.15);
    if margin < 0.0 {
        rout *= (10.0 * margin).exp();
    }
    let margin_in = vdd - (0.2 + vov_in + 0.25);
    if margin_in < 0.0 {
        rout *= (10.0 * margin_in).exp();
    }

    // --- Parasitics ---------------------------------------------------
    let cgs_c = 2.0 / 3.0 * w_cas * l1 * node.nmos.cox + 0.3e-9 * w_cas;
    let c_fold = cgs_c + 0.5e-9 * (w_in + w_src);
    let cl = node.c_load + 0.5e-9 * (w_cas + w_mir);

    // --- Small-signal macromodel to MNA -------------------------------
    // vin → gm_in into the folding node (impedance ≈ 1/gm_c, cap
    // c_fold); the cascode relays the current into the output node.
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let nf = ckt.node("fold");
    let nout = ckt.node("out");
    ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
    ckt.vccs(Circuit::GND, nf, vin, Circuit::GND, gm_in);
    ckt.resistor(nf, Circuit::GND, (1.0 / gm_c).max(1.0));
    ckt.capacitor(nf, Circuit::GND, c_fold);
    ckt.vccs(Circuit::GND, nout, nf, Circuit::GND, gm_c);
    ckt.resistor(nout, Circuit::GND, rout.max(1.0));
    ckt.capacitor(nout, Circuit::GND, cl);

    let Some((gain_db, gbw_mhz, pm_deg)) = opamp_ac(&ckt, nout) else {
        return opamp_failed();
    };
    // Supply current: tail + the two mirror legs (each `id_c`), i.e.
    // `2·ib_fold` total, with the usual 10 % bias-tree overhead.
    let i_total_ua = 1.1 * 2.0 * ib_fold * 1e6;

    Metrics::new(vec![i_total_ua, gain_db, pm_deg, gbw_mhz])
}

fn expert(node: &TechNode) -> Vec<f64> {
    // Calibrated competent manual designs (feasible with margin, well
    // above the achievable current optimum; found by random search +
    // local refinement).
    //
    // 180 nm: I ≈ 220 µA, gain 87 dB, PM 87°, GBW 24 MHz.
    // 40 nm:  I ≈ 175 µA, gain 53 dB, PM 89°, GBW 23 MHz.
    match node.name {
        "40nm" => vec![0.40, 0.85, 0.90, 0.25, 0.65, 0.45],
        _ => vec![0.30, 0.90, 0.30, 0.90, 0.70, 0.50],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opamp2::{M_GAIN, M_GBW, M_ITOTAL, M_PM};
    use crate::problem::SizingProblem;

    #[test]
    fn midpoint_metrics_are_sane() {
        let p = folded_cascode(TechNode::n180());
        let m = p.evaluate(&vec![0.5; p.dim()]);
        assert!(m.get(M_GAIN) > 30.0 && m.get(M_GAIN) < 130.0, "{m}");
        assert!(m.get(M_ITOTAL) > 5.0 && m.get(M_ITOTAL) < 3000.0, "{m}");
        assert!(m.get(M_PM) > 0.0 && m.get(M_PM) < 180.0, "{m}");
        assert!(m.get(M_GBW) > 0.01, "{m}");
    }

    #[test]
    fn single_stage_has_high_phase_margin() {
        // One high-impedance node: the midpoint design must be far more
        // stable than a two-stage amp without compensation.
        let p = folded_cascode(TechNode::n180());
        let m = p.evaluate(&vec![0.5; p.dim()]);
        assert!(m.get(M_PM) > 60.0, "folded cascode should be stable: {m}");
    }

    #[test]
    fn starved_fold_branch_fails() {
        let p = folded_cascode(TechNode::n180());
        // Max tail current, min fold current → cascode starved.
        let m = p.evaluate(&[0.5, 0.5, 0.5, 0.5, 1.0, 0.0]);
        assert_eq!(m, opamp_failed());
    }

    #[test]
    fn more_tail_current_more_gbw() {
        let p = folded_cascode(TechNode::n180());
        let mut lo = vec![0.5; 6];
        let mut hi = vec![0.5; 6];
        lo[4] = 0.2;
        hi[4] = 0.6;
        let g_lo = p.evaluate(&lo).get(M_GBW);
        let g_hi = p.evaluate(&hi).get(M_GBW);
        assert!(g_hi > g_lo, "gm_in ∝ √Ib raises GBW: {g_lo} vs {g_hi}");
    }

    #[test]
    fn longer_channel_more_gain() {
        // Wide devices keep every overdrive low, so lengthening the
        // channel buys cascode output resistance without tripping the
        // headroom collapse.
        let p = folded_cascode(TechNode::n180());
        let mut short = vec![0.5, 0.8, 0.8, 0.8, 0.5, 0.5];
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
            let p = folded_cascode(node);
            let m = p.evaluate(&p.expert_design());
            assert!(m.feasible(p.specs()), "{} expert got {m}", p.name());
        }
    }

    #[test]
    fn deterministic() {
        let p = folded_cascode(TechNode::n40());
        let x = vec![0.3, 0.6, 0.4, 0.7, 0.5, 0.6];
        assert_eq!(p.evaluate(&x), p.evaluate(&x));
    }

    #[test]
    fn name_embeds_node() {
        assert_eq!(
            folded_cascode(TechNode::n180()).name(),
            "folded_cascode_180nm"
        );
    }
}
