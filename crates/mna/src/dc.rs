use crate::netlist::{diode_iv, mos_iv, Circuit, Element, ElementHandle, MosType, NodeId};
use crate::MnaError;
use kato_linalg::{Lu, Matrix};

/// Maximum Newton iterations per gmin level.
const MAX_ITER: usize = 150;
/// Absolute node-voltage convergence tolerance, V.
const V_TOL: f64 = 1e-9;
/// Maximum node-voltage update per iteration (damping), V.
const MAX_STEP: f64 = 0.3;
/// KCL residual convergence tolerance, A. Newton also terminates when the
/// residual falls below this — essential for stiff feedback loops whose
/// near-singular Jacobian turns a machine-epsilon residual into noisy
/// voltage updates.
const I_TOL: f64 = 1e-12;
/// Final minimum conductance from every node to ground, S (SPICE GMIN).
const GMIN: f64 = 1e-12;

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// Node voltages indexed by raw node id (ground included as entry 0).
    voltages: Vec<f64>,
    /// Voltage-source branch currents, in voltage-source insertion order.
    branch_currents: Vec<f64>,
}

impl DcSolution {
    /// Voltage at `node`, V.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// All node voltages (index 0 is ground).
    #[must_use]
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Current through a voltage source (positive flowing from its `p`
    /// terminal through the source to `n`), or `None` if the handle is not a
    /// voltage source.
    #[must_use]
    pub fn branch_current(&self, circuit: &Circuit, source: ElementHandle) -> Option<f64> {
        circuit
            .branch_index(source)
            .map(|k| self.branch_currents[k])
    }
}

impl Circuit {
    /// Computes the DC operating point from an all-zero initial guess.
    ///
    /// Uses gmin stepping: Newton is first run with a large conductance to
    /// ground on every node (an easy, almost-linear problem), then the
    /// conductance is reduced decade by decade down to the final gmin,
    /// warm starting each level from the previous solution.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::DcNoConvergence`] if Newton fails at every gmin
    /// level, or [`MnaError::SingularSystem`] for structurally singular
    /// circuits (floating nodes).
    pub(crate) fn dc(&self) -> Result<DcSolution, MnaError> {
        self.solve_dc(None)
    }

    /// Computes the DC operating point from the node-voltage guess
    /// `initial` (indexed like [`DcSolution::voltages`], ground first).
    /// Newton is tried at the final gmin directly from the guess before
    /// falling back to gmin stepping from it.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::DcNoConvergence`] if Newton fails at every gmin
    /// level, or [`MnaError::SingularSystem`] for structurally singular
    /// circuits (floating nodes).
    pub fn dc_from(&self, initial: &[f64]) -> Result<DcSolution, MnaError> {
        self.solve_dc(Some(initial))
    }

    fn solve_dc(&self, initial: Option<&[f64]>) -> Result<DcSolution, MnaError> {
        let n_nodes = self.node_count() - 1; // exclude ground
        let n_branch = self.branch_count();
        let dim = n_nodes + n_branch;
        if dim == 0 {
            return Ok(DcSolution {
                voltages: vec![0.0],
                branch_currents: Vec::new(),
            });
        }

        let mut x = vec![0.0; dim];
        if let Some(init) = initial {
            for (i, v) in init.iter().take(n_nodes + 1).enumerate() {
                if i > 0 {
                    x[i - 1] = *v;
                }
            }
        }

        if !self.is_nonlinear() {
            // One undamped Newton step solves a linear circuit exactly; the
            // second iteration certifies convergence.
            let x_final = self.newton_loop(&mut x, GMIN, 3, false)?;
            return Ok(self.pack_solution(x_final, n_nodes));
        }

        // Warm-start fast path: with a supplied initial guess, try Newton at
        // the target gmin directly before resorting to stepping.
        if initial.is_some() {
            let mut x_fast = x.clone();
            if let Ok(xf) = self.newton_loop(&mut x_fast, GMIN, MAX_ITER, true) {
                return Ok(self.pack_solution(xf, n_nodes));
            }
        }

        // gmin stepping: 1e-2 → GMIN, decade steps.
        let mut gmin_levels = Vec::new();
        let mut g = 1e-2;
        while g > GMIN * 1.001 {
            gmin_levels.push(g);
            g *= 0.1;
        }
        gmin_levels.push(GMIN);

        let mut last_err = MnaError::DcNoConvergence {
            iterations: 0,
            residual: f64::INFINITY,
        };
        let mut converged_any = false;
        for &gmin in &gmin_levels {
            match self.newton_loop(&mut x, gmin, MAX_ITER, true) {
                Ok(xf) => {
                    x = xf;
                    converged_any = true;
                }
                Err(e) => {
                    last_err = e;
                    converged_any = false;
                }
            }
        }
        if !converged_any {
            return Err(last_err);
        }
        Ok(self.pack_solution(x, n_nodes))
    }

    fn pack_solution(&self, x: Vec<f64>, n_nodes: usize) -> DcSolution {
        let mut voltages = vec![0.0; n_nodes + 1];
        voltages[1..(n_nodes + 1)].copy_from_slice(&x[..n_nodes]);
        DcSolution {
            voltages,
            branch_currents: x[n_nodes..].to_vec(),
        }
    }

    /// Runs Newton iterations at one gmin level; returns the solution.
    fn newton_loop(
        &self,
        x0: &mut [f64],
        gmin: f64,
        max_iter: usize,
        damp: bool,
    ) -> Result<Vec<f64>, MnaError> {
        let n_nodes = self.node_count() - 1;
        let dim = x0.len();
        let mut x = x0.to_vec();
        let mut residual_norm = f64::INFINITY;
        let mut perm = Vec::new();
        for iter in 0..max_iter {
            let (jac, f) = self.assemble(&x, gmin, n_nodes);
            residual_norm = f.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            if iter > 0 && residual_norm < I_TOL {
                x0.copy_from_slice(&x);
                return Ok(x);
            }
            let lu = Lu::new(dim, jac.into_vec(), std::mem::take(&mut perm))
                .map_err(|_| MnaError::SingularSystem { freq_hz: 0.0 })?;
            let neg_f: Vec<f64> = f.iter().map(|v| -v).collect();
            let mut dx = lu.solve(&neg_f);
            perm = lu.into_buffers().1;
            // Damping: cap the node-voltage update.
            let max_dv = dx[..n_nodes].iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            if damp && max_dv > MAX_STEP {
                let scale = MAX_STEP / max_dv;
                for d in dx.iter_mut() {
                    *d *= scale;
                }
            }
            for i in 0..dim {
                x[i] += dx[i];
            }
            let conv = dx[..n_nodes].iter().all(|d| d.abs() < V_TOL);
            if conv && iter > 0 {
                x0.copy_from_slice(&x);
                return Ok(x);
            }
        }
        Err(MnaError::DcNoConvergence {
            iterations: max_iter,
            residual: residual_norm,
        })
    }

    /// Assembles the Newton Jacobian and KCL residual at state `x`.
    fn assemble(&self, x: &[f64], gmin: f64, n_nodes: usize) -> (Matrix, Vec<f64>) {
        let dim = x.len();
        let mut jac = Matrix::zeros(dim, dim);
        let mut f = vec![0.0; dim];
        let temp = self.temperature();

        // Node voltage accessor: ground is fixed at 0 and excluded.
        let v = |node: NodeId| -> f64 {
            if node.is_ground() {
                0.0
            } else {
                x[node.index() - 1]
            }
        };
        // Row/column mapper: None for ground.
        let idx = |node: NodeId| -> Option<usize> {
            if node.is_ground() {
                None
            } else {
                Some(node.index() - 1)
            }
        };

        // gmin from every node to ground.
        for i in 0..n_nodes {
            jac[(i, i)] += gmin;
            f[i] += gmin * x[i];
        }

        let mut branch = n_nodes; // next branch row
        for e in self.elements() {
            match e {
                Element::Resistor { a, b, ohms, tc1 } => {
                    let r = ohms * (1.0 + tc1 * (temp - Circuit::TNOM));
                    let g = 1.0 / r.max(1e-3);
                    let ia = idx(*a);
                    let ib = idx(*b);
                    let i_elem = g * (v(*a) - v(*b));
                    if let Some(i) = ia {
                        f[i] += i_elem;
                        jac[(i, i)] += g;
                        if let Some(j) = ib {
                            jac[(i, j)] -= g;
                        }
                    }
                    if let Some(i) = ib {
                        f[i] -= i_elem;
                        jac[(i, i)] += g;
                        if let Some(j) = ia {
                            jac[(i, j)] -= g;
                        }
                    }
                }
                Element::Capacitor { .. } => { /* open at DC */ }
                Element::Vsource { p, n, dc, .. } => {
                    let br = branch;
                    branch += 1;
                    let ip = idx(*p);
                    let in_ = idx(*n);
                    // KCL contributions of the branch current.
                    if let Some(i) = ip {
                        f[i] += x[br];
                        jac[(i, br)] += 1.0;
                    }
                    if let Some(i) = in_ {
                        f[i] -= x[br];
                        jac[(i, br)] -= 1.0;
                    }
                    // Branch equation v_p − v_n = dc.
                    f[br] = v(*p) - v(*n) - dc;
                    if let Some(j) = ip {
                        jac[(br, j)] += 1.0;
                    }
                    if let Some(j) = in_ {
                        jac[(br, j)] -= 1.0;
                    }
                }
                Element::Isource { p, n, dc } => {
                    if let Some(i) = idx(*p) {
                        f[i] += dc;
                    }
                    if let Some(i) = idx(*n) {
                        f[i] -= dc;
                    }
                }
                Element::Vccs { p, n, cp, cn, gm } => {
                    let i_elem = gm * (v(*cp) - v(*cn));
                    for (out, sign) in [(idx(*p), 1.0), (idx(*n), -1.0)] {
                        if let Some(i) = out {
                            f[i] += sign * i_elem;
                            if let Some(j) = idx(*cp) {
                                jac[(i, j)] += sign * gm;
                            }
                            if let Some(j) = idx(*cn) {
                                jac[(i, j)] -= sign * gm;
                            }
                        }
                    }
                }
                Element::Diode { p, n, model } => {
                    let vd = v(*p) - v(*n);
                    let (id, gd) = diode_iv(model, vd, temp);
                    for (out, sign) in [(idx(*p), 1.0), (idx(*n), -1.0)] {
                        if let Some(i) = out {
                            f[i] += sign * id;
                            if let Some(j) = idx(*p) {
                                jac[(i, j)] += sign * gd;
                            }
                            if let Some(j) = idx(*n) {
                                jac[(i, j)] -= sign * gd;
                            }
                        }
                    }
                }
                Element::Mos {
                    d,
                    g,
                    s,
                    mos_type,
                    model,
                    w,
                    l,
                } => {
                    // Map to the device polarity frame.
                    let (vgs, vds) = match mos_type {
                        MosType::Nmos => (v(*g) - v(*s), v(*d) - v(*s)),
                        MosType::Pmos => (v(*s) - v(*g), v(*s) - v(*d)),
                    };
                    let (id, gm, gds) = mos_iv(model, *w, *l, vgs, vds, temp);
                    match mos_type {
                        MosType::Nmos => {
                            // Current id flows d→s inside the device.
                            for (node, sign) in [(idx(*d), 1.0), (idx(*s), -1.0)] {
                                if let Some(i) = node {
                                    f[i] += sign * id;
                                    if let Some(j) = idx(*g) {
                                        jac[(i, j)] += sign * gm;
                                    }
                                    if let Some(j) = idx(*d) {
                                        jac[(i, j)] += sign * gds;
                                    }
                                    if let Some(j) = idx(*s) {
                                        jac[(i, j)] += sign * (-gm - gds);
                                    }
                                }
                            }
                        }
                        MosType::Pmos => {
                            // Current id flows s→d inside the device.
                            for (node, sign) in [(idx(*s), 1.0), (idx(*d), -1.0)] {
                                if let Some(i) = node {
                                    f[i] += sign * id;
                                    if let Some(j) = idx(*s) {
                                        jac[(i, j)] += sign * (gm + gds);
                                    }
                                    if let Some(j) = idx(*g) {
                                        jac[(i, j)] -= sign * gm;
                                    }
                                    if let Some(j) = idx(*d) {
                                        jac[(i, j)] -= sign * gds;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        (jac, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::DiodeModel;

    #[test]
    fn voltage_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource(vin, Circuit::GND, 10.0);
        ckt.resistor(vin, mid, 1_000.0);
        ckt.resistor(mid, Circuit::GND, 3_000.0);
        let sol = ckt.dc().unwrap();
        assert!((sol.voltage(mid) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn vsource_branch_current() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let vs = ckt.vsource(a, Circuit::GND, 5.0);
        ckt.resistor(a, Circuit::GND, 1_000.0);
        let sol = ckt.dc().unwrap();
        // 5 V across 1 kΩ → 5 mA drawn from the source. With the SPICE
        // convention the branch current (p→n through the source) is −5 mA.
        let i = sol.branch_current(&ckt, vs).unwrap();
        assert!((i + 5e-3).abs() < 1e-9, "i = {i}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        // 1 mA pulled from ground into node a (p=gnd: current leaves gnd).
        ckt.isource(Circuit::GND, a, 1e-3);
        ckt.resistor(a, Circuit::GND, 2_000.0);
        let sol = ckt.dc().unwrap();
        assert!((sol.voltage(a) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn vccs_amplifier() {
        // gm = 1 mS driving 10 kΩ: gain −10 for input 0.1 V.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource(vin, Circuit::GND, 0.1);
        ckt.vccs(vout, Circuit::GND, vin, Circuit::GND, 1e-3);
        ckt.resistor(vout, Circuit::GND, 10_000.0);
        let sol = ckt.dc().unwrap();
        assert!((sol.voltage(vout) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn diode_forward_drop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.vsource(a, Circuit::GND, 3.0);
        ckt.resistor(a, d, 10_000.0);
        ckt.diode(d, Circuit::GND, DiodeModel::silicon());
        let sol = ckt.dc().unwrap();
        let vd = sol.voltage(d);
        assert!(vd > 0.5 && vd < 0.8, "diode drop {vd}");
        // KCL: resistor current equals diode current.
        let ir = (3.0 - vd) / 10_000.0;
        let (idio, _) = diode_iv(&DiodeModel::silicon(), vd, 27.0);
        assert!((ir - idio).abs() / ir < 1e-6);
    }

    #[test]
    fn diode_stack_converges_from_zero() {
        // Two series diodes — a classic damping test.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let m = ckt.node("m");
        ckt.vsource(a, Circuit::GND, 2.0);
        ckt.resistor(a, m, 1_000.0);
        let k = ckt.node("k");
        ckt.diode(m, k, DiodeModel::silicon());
        ckt.diode(k, Circuit::GND, DiodeModel::silicon());
        let sol = ckt.dc().unwrap();
        assert!(sol.voltage(m) > 1.0 && sol.voltage(m) < 1.7);
    }

    #[test]
    fn nmos_common_source_bias() {
        use crate::netlist::{MosModel, MosType};
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let drain = ckt.node("d");
        ckt.vsource(vdd, Circuit::GND, 1.8);
        ckt.vsource(gate, Circuit::GND, 0.9);
        ckt.resistor(vdd, drain, 10_000.0);
        ckt.mos(
            MosType::Nmos,
            drain,
            gate,
            Circuit::GND,
            MosModel::generic(),
            20e-6,
            1e-6,
        );
        let sol = ckt.dc().unwrap();
        let vd = sol.voltage(drain);
        // Device should pull the drain well below VDD but not to ground.
        assert!(vd > 0.05 && vd < 1.7, "drain voltage {vd}");
    }

    #[test]
    fn pmos_mirror_polarity() {
        use crate::netlist::{MosModel, MosType};
        // Diode-connected PMOS from VDD biased by a current sink: gate-source
        // voltage should settle near −(Vth + overdrive) relative to VDD.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.vsource(vdd, Circuit::GND, 1.8);
        ckt.mos(MosType::Pmos, d, d, vdd, MosModel::generic(), 20e-6, 1e-6);
        ckt.isource(d, Circuit::GND, 50e-6); // pull 50 µA down
        let sol = ckt.dc().unwrap();
        let vsg = 1.8 - sol.voltage(d);
        assert!(vsg > 0.4 && vsg < 1.4, "Vsg {vsg}");
    }

    #[test]
    fn empty_circuit_is_ok() {
        let ckt = Circuit::new();
        let sol = ckt.dc().unwrap();
        assert_eq!(sol.voltages(), &[0.0]);
    }

    #[test]
    fn floating_node_reports_singular_or_converges_via_gmin() {
        // A node connected only via a capacitor is floating at DC; gmin keeps
        // the matrix solvable and parks it at 0 V.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GND, 1.0);
        ckt.capacitor(a, b, 1e-12);
        let sol = ckt.dc().unwrap();
        assert!(sol.voltage(b).abs() < 1e-6);
    }

    #[test]
    fn temperature_affects_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.isource(Circuit::GND, a, 1e-3);
        ckt.resistor_tc(a, Circuit::GND, 1_000.0, 1e-3);
        let v27 = ckt.dc().unwrap().voltage(a);
        ckt.set_temperature(127.0);
        let v127 = ckt.dc().unwrap().voltage(a);
        assert!((v27 - 1.0).abs() < 1e-6);
        assert!((v127 - 1.1).abs() < 1e-6);
    }
}
