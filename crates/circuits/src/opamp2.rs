use crate::problem::{Goal, Metrics, Spec, SpecKind, Testbench, VarSpec};
use crate::tech::{collapse, source_width, TechNode, C_JUNCTION_PER_WIDTH};
use kato_mna::{phase_margin_deg, unity_gain_freq, AcSweep, Circuit, NodeId};
use std::sync::LazyLock;

/// Miller-compensated two-stage operational amplifier (paper Fig. 3a).
///
/// Stage 1 is a PMOS differential pair with an NMOS current-mirror load;
/// stage 2 is an NMOS common-source driver with a PMOS current-source load.
/// Frequency compensation uses a Miller capacitor `Cc` with a series nulling
/// resistor `Rz`.
///
/// The evaluation pipeline mirrors a SPICE testbench:
///
/// 1. every device's operating point (`gm`, `gds`) is computed from the
///    technology card's EKV model at the bias implied by the design vector;
/// 2. supply-headroom violations collapse the stage output resistances
///    (soft "device left saturation" failure, like the real circuit);
/// 3. the small-signal macromodel (VCCS + R + C, Miller network, load) is
///    handed to the MNA simulator for an AC sweep;
/// 4. Gain / GBW / PM are extracted from the Bode data.
///
/// Design variables (all mapped from the unit cube):
///
/// | # | name     | scale | meaning                                |
/// |---|----------|-------|----------------------------------------|
/// | 0 | `l1`     | lin   | first-stage channel length             |
/// | 1 | `w_in`   | log   | input-pair width                       |
/// | 2 | `w_load` | log   | mirror-load width                      |
/// | 3 | `w2`     | log   | second-stage driver width              |
/// | 4 | `cc`     | log   | Miller capacitor                       |
/// | 5 | `rz`     | log   | nulling resistor                       |
/// | 6 | `ib1`    | log   | first-stage tail current               |
/// | 7 | `ib2`    | log   | second-stage bias current              |
///
/// Specification (after paper Eq. 15): minimise `I_total` subject to
/// `PM > 60°`, `GBW > 40 MHz` (Eq. 15 states 4 MHz), `Gain > 60 dB` (the
/// gain bound drops to 50 dB at 40 nm, Table 2).
#[must_use]
pub fn opamp2(node: TechNode) -> Testbench {
    let w_lo = 5.0 * node.l_min;
    let w_hi = 1000.0 * node.l_min;
    let gain_bound = if node.name == "40nm" { 50.0 } else { 60.0 };
    Testbench {
        family: "opamp2",
        vars: vec![
            VarSpec::lin("l1_m", node.l_min, node.l_max),
            VarSpec::logarithmic("w_in_m", w_lo, w_hi),
            VarSpec::logarithmic("w_load_m", w_lo, w_hi),
            VarSpec::logarithmic("w2_m", 2.0 * w_lo, 4.0 * w_hi),
            VarSpec::logarithmic("cc_f", 0.5e-12, 10e-12),
            VarSpec::logarithmic("rz_ohm", 100.0, 5e4),
            VarSpec::logarithmic("ib1_a", 5e-6, 5e-4),
            VarSpec::logarithmic("ib2_a", 1e-5, 1e-3),
        ],
        metric_names: &OPAMP_METRICS,
        specs: opamp_specs(gain_bound, 40.0),
        expert,
        simulate,
        node,
    }
}

/// Metric names of the op-amp family, in evaluation order.
pub(crate) const OPAMP_METRICS: [&str; 4] = ["i_total_ua", "gain_db", "pm_deg", "gbw_mhz"];
/// Indices into [`OPAMP_METRICS`].
pub(crate) const M_ITOTAL: usize = 0;
pub(crate) const M_GAIN: usize = 1;
pub(crate) const M_PM: usize = 2;
pub(crate) const M_GBW: usize = 3;

/// The op-amp family's spec table: minimise `I_total` subject to
/// `gain ≥ gain_db`, `PM ≥ 60°` and `GBW ≥ gbw_mhz`.
pub(crate) fn opamp_specs(gain_db: f64, gbw_mhz: f64) -> Vec<Spec> {
    vec![
        Spec {
            metric: M_ITOTAL,
            kind: SpecKind::Objective(Goal::Minimize),
        },
        Spec {
            metric: M_GAIN,
            kind: SpecKind::GreaterEq(gain_db),
        },
        Spec {
            metric: M_PM,
            kind: SpecKind::GreaterEq(60.0),
        },
        Spec {
            metric: M_GBW,
            kind: SpecKind::GreaterEq(gbw_mhz),
        },
    ]
}

/// Penalised op-amp metrics for designs that break the simulator.
pub(crate) fn opamp_failed() -> Metrics {
    Metrics::new(vec![1e4, 0.0, 0.0, 1e-3])
}

fn simulate(node: &TechNode, p: &[f64]) -> Metrics {
    let (l1, w_in, w_load, w2, cc, rz, ib1, ib2) = (p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]);
    let vdd = node.vdd;
    let l2 = 2.0 * node.l_min;

    // --- Stage 1 operating point -----------------------------------
    let id1 = ib1 / 2.0;
    let vds1 = vdd / 3.0;
    let (vgs_in, gm1, gds_in) = node.bias(&node.pmos, w_in, l1, vds1, id1);
    let (vgs_ld, _, gds_ld) = node.bias(&node.nmos, w_load, l1, vds1, id1);

    // --- Stage 2 operating point ------------------------------------
    let vds2 = vdd / 2.0;
    let (vgs2, gm2, gds2) = node.bias(&node.nmos, w2, l2, vds2, ib2);
    // PMOS current-source load.
    let w_p2 = source_width(&node.pmos, ib2, l2);
    let (_, _, gds_p2) = node.bias(&node.pmos, w_p2, l2, vds2, ib2);

    // --- Headroom feasibility (soft gain collapse) -------------------
    let vov_in = (vgs_in - node.pmos.vth).max(0.05);
    let vov_tail = 0.20;
    let r1 = collapse(
        1.0 / (gds_in + gds_ld),
        vdd - (vov_tail + vov_in + vgs_ld + 0.10),
    );
    let vov2 = (vgs2 - node.nmos.vth).max(0.05);
    let r2 = collapse(1.0 / (gds2 + gds_p2), vdd - (vov2 + 0.2 + 0.15));

    // --- Parasitics ---------------------------------------------------
    let c1 = node.nmos.cgs(w2, l2) + C_JUNCTION_PER_WIDTH * (w_in + w_load);
    let cl = node.c_load + C_JUNCTION_PER_WIDTH * (w2 + w_p2);

    // --- Small-signal macromodel to MNA -------------------------------
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let n1 = ckt.node("n1");
    let nout = ckt.node("out");
    let nc = ckt.node("nc");
    ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
    // Stage 1 (non-inverting into n1 for measurement convenience).
    ckt.vccs(Circuit::GND, n1, vin, Circuit::GND, gm1);
    ckt.resistor(n1, Circuit::GND, r1.max(1.0));
    ckt.capacitor(n1, Circuit::GND, c1);
    // Stage 2 (inverting).
    ckt.vccs(nout, Circuit::GND, n1, Circuit::GND, gm2);
    ckt.resistor(nout, Circuit::GND, r2.max(1.0));
    ckt.capacitor(nout, Circuit::GND, cl);
    // Miller compensation Cc + Rz between n1 and out.
    ckt.capacitor(n1, nc, cc);
    ckt.resistor(nc, nout, rz);

    opamp_ac(&ckt, nout, 1.1 * (ib1 + ib2) * 1e6)
}

fn expert(node: &TechNode) -> Vec<f64> {
    // Calibrated competent manual designs (feasible with margin,
    // noticeably above the achievable current optimum — mirroring the
    // expert rows of paper Tables 1–2).
    //
    // 180 nm: I ≈ 186 µA, gain 70 dB, PM 84°, GBW 80 MHz.
    // 40 nm:  I ≈ 256 µA, gain 59 dB, PM 86°, GBW 152 MHz.
    match node.name {
        "40nm" => vec![0.709, 0.857, 0.995, 0.989, 0.383, 0.578, 0.548, 0.615],
        _ => vec![0.387, 0.364, 0.322, 0.142, 0.771, 1.0, 0.33, 0.582],
    }
}

/// The op-amp family's 10 Hz–20 GHz, 280-point AC grid, built once per
/// process.
static AC_SWEEP: LazyLock<AcSweep> = LazyLock::new(|| AcSweep::log(10.0, 20e9, 280));

/// The op-amp family's metrics at supply current `i_total_ua`, read from
/// the AC response at `out` over a 10 Hz–20 GHz, 280-point sweep, with
/// the unity-gain frequency defaulting to `1e-3` MHz and the phase margin
/// to `0.0`° when undefined. [`opamp_failed`] when the AC analysis fails
/// at a point it reads.
pub(crate) fn opamp_ac(ckt: &Circuit, out: NodeId, i_total_ua: f64) -> Metrics {
    let read = || {
        let mut bode = ckt.ac_response(out, &AC_SWEEP).ok()?;
        let gain_db = bode.dc_gain_db().ok()?;
        let gbw_mhz = unity_gain_freq(&mut bode).ok()?.map_or(1e-3, |f| f / 1e6);
        let pm_deg = phase_margin_deg(&mut bode).ok()?.unwrap_or(0.0);
        Some(Metrics::new(vec![i_total_ua, gain_db, pm_deg, gbw_mhz]))
    };
    read().unwrap_or_else(opamp_failed)
}

/// The single-stage cascode OTA macromodel of the telescopic and the
/// folded cascode: the input pair's `gm_in` drives the cascode's source
/// node (`1/gm_c` and `c_mid` to ground), and the cascode relays that
/// current into the output (`rout` and `cl` to ground).
pub(crate) fn cascode_ota(
    gm_in: f64,
    gm_c: f64,
    c_mid: f64,
    rout: f64,
    cl: f64,
    i_total_ua: f64,
) -> Metrics {
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
    opamp_ac(&ckt, nout, i_total_ua)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SizingProblem;

    fn mid(problem: &Testbench) -> Metrics {
        problem.evaluate(&vec![0.5; problem.dim()])
    }

    #[test]
    fn midpoint_design_produces_sane_metrics() {
        let p = opamp2(TechNode::n180());
        let m = mid(&p);
        let gain = m.get(M_GAIN);
        let pm = m.get(M_PM);
        let gbw = m.get(M_GBW);
        let i = m.get(M_ITOTAL);
        assert!(gain > 20.0 && gain < 130.0, "gain {gain}");
        assert!(pm > -90.0 && pm < 180.0, "pm {pm}");
        assert!(gbw > 0.01 && gbw < 10_000.0, "gbw {gbw}");
        assert!(i > 10.0 && i < 3000.0, "i {i}");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = opamp2(TechNode::n180());
        let x = vec![0.3, 0.7, 0.2, 0.8, 0.5, 0.4, 0.6, 0.1];
        assert_eq!(p.evaluate(&x), p.evaluate(&x));
    }

    #[test]
    fn more_current_more_gbw() {
        let p = opamp2(TechNode::n180());
        let mut lo = vec![0.5; 8];
        let mut hi = vec![0.5; 8];
        lo[6] = 0.2; // small ib1
        hi[6] = 0.9; // large ib1
        let gbw_lo = p.evaluate(&lo).get(M_GBW);
        let gbw_hi = p.evaluate(&hi).get(M_GBW);
        assert!(
            gbw_hi > gbw_lo,
            "gm1 ∝ √Ib1 must raise GBW: {gbw_lo} vs {gbw_hi}"
        );
    }

    #[test]
    fn longer_channel_more_gain() {
        let p = opamp2(TechNode::n180());
        let mut short = vec![0.5; 8];
        let mut long = vec![0.5; 8];
        short[0] = 0.05;
        long[0] = 0.95;
        let g_short = p.evaluate(&short).get(M_GAIN);
        let g_long = p.evaluate(&long).get(M_GAIN);
        assert!(
            g_long > g_short + 3.0,
            "λ ∝ 1/L must raise gain: {g_short} vs {g_long}"
        );
    }

    #[test]
    fn bigger_cc_lower_gbw() {
        let p = opamp2(TechNode::n180());
        let mut small = vec![0.5; 8];
        let mut big = vec![0.5; 8];
        small[4] = 0.1;
        big[4] = 0.9;
        let g_small = p.evaluate(&small).get(M_GBW);
        let g_big = p.evaluate(&big).get(M_GBW);
        assert!(g_small > g_big, "GBW ≈ gm1/Cc: {g_small} vs {g_big}");
    }

    #[test]
    fn node_40nm_has_less_gain_than_180nm() {
        let x = vec![0.5; 8];
        let g180 = opamp2(TechNode::n180()).evaluate(&x).get(M_GAIN);
        let g40 = opamp2(TechNode::n40()).evaluate(&x).get(M_GAIN);
        assert!(
            g180 > g40,
            "short-channel node must have less intrinsic gain: {g180} vs {g40}"
        );
    }

    #[test]
    fn expert_design_is_feasible() {
        let p = opamp2(TechNode::n180());
        let m = p.evaluate(&p.expert_design());
        assert!(
            m.feasible(p.specs()),
            "expert design must meet spec, got {m}"
        );
    }

    #[test]
    fn name_embeds_node() {
        assert_eq!(opamp2(TechNode::n180()).name(), "opamp2_180nm");
        assert_eq!(opamp2(TechNode::n40()).name(), "opamp2_40nm");
    }

    #[test]
    #[should_panic(expected = "design vector length mismatch")]
    fn wrong_dim_panics() {
        let p = opamp2(TechNode::n180());
        let _ = p.evaluate(&[0.5; 3]);
    }
}
