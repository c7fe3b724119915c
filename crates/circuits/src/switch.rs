use crate::problem::{Goal, Metrics, Spec, SpecKind, Testbench, VarSpec};
use crate::tech::TechNode;

/// Analog transmission-switch sizing (gm/ID-flow device-level problem).
///
/// Sizes a single NMOS pass switch against the two quantities a switch
/// designer actually trades: on-resistance (settling) and gate capacitance
/// (clock load / charge injection). There is no AC macromodel here — every
/// metric comes straight from the device backend, which makes the problem
/// *LUT-native*: the registry builds it on the gm/ID table backend by
/// default, mirroring how industrial switch-sizing flows (e.g. gostpy's
/// `switch_sizing`) sweep precomputed device tables instead of invoking a
/// simulator.
///
/// Operating point: gate driven to `VDD`, drain at a 50 mV probe (deep
/// triode, the bias a sampling switch actually sees at settling).
///
/// Design variables (mapped from the unit cube):
///
/// | # | name  | scale | meaning        |
/// |---|-------|-------|----------------|
/// | 0 | `w_m` | log   | switch width   |
/// | 1 | `l_m` | lin   | channel length |
///
/// Specification: minimise area subject to `Ron ≤` bound and `Cgg ≤`
/// bound (bounds per node; the 40 nm switch is faster, so it gets the
/// tighter capacitance budget).
#[must_use]
pub fn switch(node: TechNode) -> Testbench {
    let (ron_bound, cgg_bound) = if node.name == "40nm" {
        (100.0, 20.0)
    } else {
        (150.0, 50.0)
    };
    Testbench {
        family: "switch",
        vars: vec![
            VarSpec::logarithmic("w_m", 5.0 * node.l_min, 2000.0 * node.l_min),
            VarSpec::lin("l_m", node.l_min, node.l_max),
        ],
        metric_names: &["area_um2", "ron_ohm", "cgg_ff"],
        specs: vec![
            Spec {
                metric: M_AREA,
                kind: SpecKind::Objective(Goal::Minimize),
            },
            Spec {
                metric: M_RON,
                kind: SpecKind::LessEq(ron_bound),
            },
            Spec {
                metric: M_CGG,
                kind: SpecKind::LessEq(cgg_bound),
            },
        ],
        expert,
        simulate,
        node,
    }
}

pub(crate) const M_AREA: usize = 0;
pub(crate) const M_RON: usize = 1;
pub(crate) const M_CGG: usize = 2;

/// Drain probe voltage for the on-resistance measurement, V.
const VDS_PROBE: f64 = 0.05;

fn simulate(node: &TechNode, p: &[f64]) -> Metrics {
    let (w, l) = (p[0], p[1]);
    // Deep-triode on-resistance with the gate at the rail.
    let (i_on, _, _) = node.mos_iv(&node.nmos, w, l, node.vdd, VDS_PROBE);
    let ron_ohm = if i_on > 0.0 { VDS_PROBE / i_on } else { 1e12 };
    let cgg_ff = node.mos_cgg(&node.nmos, w, l, node.vdd) * 1e15;
    let area_um2 = w * l * 1e12;
    Metrics::new(vec![area_um2, ron_ohm, cgg_ff])
}

fn expert(node: &TechNode) -> Vec<f64> {
    // Near-minimum length, width set for Ron at roughly half the bound.
    match node.name {
        "40nm" => vec![0.55, 0.0],
        _ => vec![0.45, 0.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SizingProblem;
    use crate::tech::Backend;

    #[test]
    fn wider_switch_lower_ron_higher_cgg() {
        let p = switch(TechNode::n180());
        let narrow = p.evaluate(&[0.3, 0.0]);
        let wide = p.evaluate(&[0.8, 0.0]);
        assert!(wide.get(M_RON) < narrow.get(M_RON));
        assert!(wide.get(M_CGG) > narrow.get(M_CGG));
    }

    #[test]
    fn expert_design_is_feasible_on_both_backends() {
        for node in [TechNode::n180(), TechNode::n40()] {
            for backend in [Backend::SquareLaw, Backend::Lut] {
                let p = switch(node.clone().with_backend(backend));
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
