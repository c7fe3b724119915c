use crate::problem::{Goal, Metrics, Spec, SpecKind, Testbench, VarSpec};
use crate::tech::TechNode;

/// MOS varactor sizing (gm/ID-flow device-level problem).
///
/// An NMOS gate capacitance used as a voltage-tuned capacitor: sweeping
/// the gate from 0 V to `VDD` moves `Cgg` from its depletion floor to the
/// full oxide capacitance, and the ratio of those two is the oscillator
/// designer's tuning range. Like [`crate::switch()`] this is LUT-native —
/// every metric is a direct device-backend query (the gostpy
/// `varactor_sizing` flow evaluated against precomputed C–V tables), no
/// simulator in the loop.
///
/// The tension: tuning ratio improves with gate area (the bias-independent
/// overlap capacitance dilutes it), but the distributed channel resistance
/// grows as `L²` for a fixed capacitance, collapsing the quality factor.
///
/// Design variables (mapped from the unit cube):
///
/// | # | name  | scale | meaning        |
/// |---|-------|-------|----------------|
/// | 0 | `w_m` | log   | gate width     |
/// | 1 | `l_m` | lin   | gate length    |
///
/// Specification: maximise the C_max/C_min tuning ratio subject to
/// `C_max ≥` bound (the tank needs enough capacitance) and `Q ≥` bound at
/// 1 GHz.
#[must_use]
pub fn varactor(node: TechNode) -> Testbench {
    let (cmax_bound, q_bound) = if node.name == "40nm" {
        (50.0, 30.0)
    } else {
        (100.0, 20.0)
    };
    Testbench {
        family: "varactor",
        vars: vec![
            VarSpec::logarithmic("w_m", 5.0 * node.l_min, 2000.0 * node.l_min),
            VarSpec::lin("l_m", node.l_min, node.l_max),
        ],
        metric_names: &["tune_ratio", "cmax_ff", "q_1ghz", "area_um2"],
        specs: vec![
            Spec {
                metric: M_TUNE,
                kind: SpecKind::Objective(Goal::Maximize),
            },
            Spec {
                metric: M_CMAX,
                kind: SpecKind::GreaterEq(cmax_bound),
            },
            Spec {
                metric: M_Q,
                kind: SpecKind::GreaterEq(q_bound),
            },
        ],
        expert,
        simulate,
        node,
    }
}

pub(crate) const M_TUNE: usize = 0;
pub(crate) const M_CMAX: usize = 1;
pub(crate) const M_Q: usize = 2;
// Report-only (no spec references it), so the index only matters to tests.
#[cfg(test)]
pub(crate) const M_AREA: usize = 3;

/// Q is quoted at this frequency, Hz.
const F_Q: f64 = 1e9;
/// Drain probe voltage for the channel-resistance measurement, V.
const VDS_PROBE: f64 = 0.05;

fn simulate(node: &TechNode, p: &[f64]) -> Metrics {
    let (w, l) = (p[0], p[1]);
    let cmax = node.mos_cgg(&node.nmos, w, l, node.vdd);
    let cmin = node.mos_cgg(&node.nmos, w, l, 0.0);
    let tune_ratio = cmax / cmin;
    // Distributed gate resistance of an on channel ≈ Ron/12.
    let (i_on, _, _) = node.mos_iv(&node.nmos, w, l, node.vdd, VDS_PROBE);
    let q = if i_on > 0.0 {
        let r_gate = VDS_PROBE / i_on / 12.0;
        1.0 / (2.0 * std::f64::consts::PI * F_Q * r_gate * cmax)
    } else {
        0.0
    };
    Metrics::new(vec![tune_ratio, cmax * 1e15, q, w * l * 1e12])
}

fn expert(node: &TechNode) -> Vec<f64> {
    // Mid-length gate big enough for the C_max bound with ~25% margin.
    match node.name {
        "40nm" => vec![0.68, 0.60],
        _ => vec![0.45, 0.55],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SizingProblem;
    use crate::tech::Backend;

    #[test]
    fn longer_gate_better_ratio_worse_q() {
        let p = varactor(TechNode::n180());
        let short = p.evaluate(&[0.6, 0.1]);
        let long = p.evaluate(&[0.6, 0.9]);
        assert!(long.get(M_TUNE) > short.get(M_TUNE), "{long} vs {short}");
        assert!(long.get(M_Q) < short.get(M_Q), "{long} vs {short}");
    }

    #[test]
    fn tuning_ratio_is_physical() {
        let p = varactor(TechNode::n180());
        for x in [[0.2, 0.2], [0.5, 0.5], [0.9, 0.9]] {
            let m = p.evaluate(&x);
            assert!(
                m.get(M_TUNE) > 1.0 && m.get(M_TUNE) < 3.0,
                "C ratio must sit between 1 and the depletion-floor limit: {m}"
            );
            assert!(m.get(M_AREA) > 0.0, "area must be positive: {m}");
        }
    }

    #[test]
    fn expert_design_is_feasible_on_both_backends() {
        for node in [TechNode::n180(), TechNode::n40()] {
            for backend in [Backend::SquareLaw, Backend::Lut] {
                let p = varactor(node.clone().with_backend(backend));
                let m = p.evaluate(&p.expert_design());
                assert!(
                    m.feasible(p.specs()),
                    "{} expert on {:?} got {m}",
                    p.name(),
                    backend
                );
            }
        }
    }
}
