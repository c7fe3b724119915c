//! Pluggable DC device-model backends: closed-form square law and gm/ID LUT.
//!
//! The sizing testbenches in `kato-circuits` compute stage operating points
//! from a handful of device-level queries: drain current / transconductance /
//! output conductance at a bias point, total gate capacitance, and the
//! inverse problem "what `vgs` carries a target `id`". [`DeviceModel`]
//! abstracts those queries so the physics behind them can be swapped:
//!
//! * [`SquareLaw`] evaluates the closed-form EKV interpolation model
//!   (`mos_iv`) directly — the reference model the LUT is sampled from.
//! * [`DeviceLut`] is a gm/ID-style lookup table: dense `(L, vgs, vds)`
//!   grids of `(id, gm, gds)` (plus an `(L, vgs)` grid of `cgg`, which is
//!   `vds`-independent in this model), generated **from the closed-form
//!   model** on first use — deterministic and offline, no simulator in the
//!   loop — then trilinearly interpolated at evaluation time. The inverse
//!   query walks the monotone `vgs` axis of the grid instead of running a
//!   60-iteration bisection with a transcendental drain-current evaluation
//!   per step, which is what makes operating-point inversion cheap.
//!
//! All stored values are per *reference width* [`DeviceLut::W_REF`]: in this
//! model `id`, `gm`, `gds` and `cgg` are exactly linear in `w`, so one grid
//! serves every width by scaling with `w / W_REF`.
//!
//! Tables are cached process-wide by [`lut_for`], keyed on the exact bit
//! patterns of the model parameters, temperature and length range — two
//! corners of the same tech node get distinct tables.

use crate::netlist::{mos_iv, MosBias};
use crate::{Circuit, MosModel};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Boltzmann constant over elementary charge, V/K.
const K_OVER_Q: f64 = 8.617_333_262e-5;

/// Upper edge of the `vgs` search bracket / LUT axis, V.
pub(crate) const VGS_MAX: f64 = 3.0;

/// Upper edge of the LUT `vds` axis, V (covers every supported supply).
const VDS_MAX: f64 = 2.0;

/// Gate-overlap capacitance per unit width, F/m. A fixed, bias-independent
/// fringe/overlap term so `cgg` never falls to the (unphysical) bare
/// depletion floor at `vgs = 0` — this is what gives MOS varactors a finite
/// C_min and makes the tuning ratio geometry-dependent.
pub(crate) const C_OV_PER_WIDTH: f64 = 0.3e-9;

/// Fraction of `W·L·Cox` still present in depletion (series gate–depletion
/// capacitance); the remaining `1 − CGG_DEPLETION_FRACTION` turns on with
/// inversion charge.
const CGG_DEPLETION_FRACTION: f64 = 0.35;

/// Total gate capacitance `Cgg` of a MOSFET at gate bias `vgs`, in F.
///
/// Smooth moderate-inversion interpolation consistent with the `mos_iv`
/// charge model: the intrinsic part transitions from
/// `CGG_DEPLETION_FRACTION·W·L·Cox` in depletion to the full `W·L·Cox`
/// in strong inversion through the same logistic the current model uses,
/// plus a bias-independent overlap term proportional to `w`. Monotone
/// non-decreasing in `vgs` and exactly linear in `w`.
#[must_use]
pub(crate) fn mos_cgg(model: &MosModel, w: f64, l: f64, vgs: f64, temp_c: f64) -> f64 {
    let t = temp_c + 273.15;
    let vt = K_OVER_Q * t;
    let vth = model.vth + model.vth_tc * (temp_c - Circuit::TNOM);
    let uf = (vgs - vth) / (2.0 * model.n_sub * vt);
    let sig = if uf > 35.0 {
        1.0
    } else if uf < -35.0 {
        0.0
    } else {
        1.0 / (1.0 + (-uf).exp())
    };
    let intrinsic =
        w * l * model.cox * (CGG_DEPLETION_FRACTION + (1.0 - CGG_DEPLETION_FRACTION) * sig);
    intrinsic + C_OV_PER_WIDTH * w
}

/// A target drain current that cannot be reached anywhere inside the `vgs`
/// search bracket `[0, VGS_MAX]` of an operating-point inversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceError {
    /// `id_target` exceeds the current at the top of the bracket.
    TargetAboveRange {
        /// The requested drain current, A.
        id_target: f64,
        /// The maximum achievable drain current at `vgs = VGS_MAX`, A.
        id_max: f64,
    },
    /// `id_target` is below the leakage current at `vgs = 0`.
    TargetBelowRange {
        /// The requested drain current, A.
        id_target: f64,
        /// The minimum drain current at `vgs = 0`, A.
        id_min: f64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::TargetAboveRange { id_target, id_max } => write!(
                f,
                "id target {id_target:.3e} A unreachable: device carries at most {id_max:.3e} A \
                 at vgs = {VGS_MAX} V"
            ),
            DeviceError::TargetBelowRange { id_target, id_min } => write!(
                f,
                "id target {id_target:.3e} A unreachable: device leaks {id_min:.3e} A \
                 already at vgs = 0 V"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// DC device-model backend: the queries a sizing testbench makes of a
/// MOSFET, abstracted over the physics that answers them.
///
/// A backend is constructed per `(model card, temperature)` pair — both are
/// baked in, so query signatures carry geometry and bias only. Every query
/// is one device at one bias point; a testbench sweeping a population calls
/// it once per design. To add a backend: implement this trait and give
/// `kato_circuits::Backend` a variant routing to it.
pub trait DeviceModel: Send + Sync {
    /// Short stable backend name (`"square_law"`, `"lut"`).
    fn backend_name(&self) -> &'static str;

    /// `(id, gm, gds)` at bias `(vgs, vds)` for a `(w, l)` device.
    fn iv(&self, w: f64, l: f64, vgs: f64, vds: f64) -> (f64, f64, f64);

    /// Total gate capacitance at gate bias `vgs`, F.
    fn cgg(&self, w: f64, l: f64, vgs: f64) -> f64;

    /// The `vgs` at which the device carries `id_target` at drain bias
    /// `vds`, or a [`DeviceError`] when no `vgs` in `[0, VGS_MAX]` does.
    fn try_vgs_for_id(&self, w: f64, l: f64, vds: f64, id_target: f64) -> Result<f64, DeviceError>;

    /// Infallible [`DeviceModel::try_vgs_for_id`]: clamps to the bracket
    /// edge (`VGS_MAX` when the target is too high, `0.0` when it is below
    /// leakage) instead of erroring.
    fn vgs_for_id(&self, w: f64, l: f64, vds: f64, id_target: f64) -> f64 {
        match self.try_vgs_for_id(w, l, vds, id_target) {
            Ok(vgs) => vgs,
            Err(DeviceError::TargetAboveRange { .. }) => VGS_MAX,
            Err(DeviceError::TargetBelowRange { .. }) => 0.0,
        }
    }
}

/// The closed-form EKV interpolation backend (`mos_iv` evaluated
/// directly). Its operating-point inversion bisects on the drain current
/// alone, with the `vgs`-independent terms of the model computed once per
/// query, and returns the same bits as bisecting over whole `mos_iv` calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquareLaw {
    /// Device model card.
    pub(crate) model: MosModel,
    /// Evaluation temperature, °C.
    pub(crate) temp_c: f64,
}

impl SquareLaw {
    /// A square-law backend for `model` at `temp_c` °C.
    #[must_use]
    pub fn new(model: MosModel, temp_c: f64) -> Self {
        SquareLaw { model, temp_c }
    }
}

impl DeviceModel for SquareLaw {
    fn backend_name(&self) -> &'static str {
        "square_law"
    }

    fn iv(&self, w: f64, l: f64, vgs: f64, vds: f64) -> (f64, f64, f64) {
        mos_iv(&self.model, w, l, vgs, vds, self.temp_c)
    }

    fn cgg(&self, w: f64, l: f64, vgs: f64) -> f64 {
        mos_cgg(&self.model, w, l, vgs, self.temp_c)
    }

    /// Bisection on `[0, VGS_MAX]`, at most 60 iterations, stopping once
    /// the bracket is two adjacent floats. The bracket is checked
    /// first: an unreachable target reports a clean [`DeviceError`]
    /// instead of silently returning a bracket edge.
    ///
    /// Every step reads the drain current only, from one `MosBias`
    /// prepared for `(w, l, vds)`: the same bits as `self.iv(..).0`,
    /// without the `vgs`-independent terms and the partials per step.
    fn try_vgs_for_id(&self, w: f64, l: f64, vds: f64, id_target: f64) -> Result<f64, DeviceError> {
        let bias = MosBias::new(&self.model, w, l, vds, self.temp_c);
        let id_max = bias.id(VGS_MAX);
        if id_max < id_target {
            return Err(DeviceError::TargetAboveRange { id_target, id_max });
        }
        let id_min = bias.id(0.0);
        if id_min > id_target {
            return Err(DeviceError::TargetBelowRange { id_target, id_min });
        }
        let (mut lo, mut hi) = (0.0_f64, VGS_MAX);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            // Once `lo` and `hi` are adjacent floats, `mid` rounds onto one
            // of them, and the step cannot move it: `id(hi) < id_target`
            // is false (checked above for `VGS_MAX`, and the reason `hi`
            // was set otherwise), `id(lo) < id_target` is true (`lo` only
            // moves on it, and `lo == 0` cannot meet `mid` within 60
            // halvings of `VGS_MAX`). The state is then fixed for every
            // later step, so stopping here returns the same bits.
            if mid == lo || mid == hi {
                break;
            }
            if bias.id(mid) < id_target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

/// One uniform LUT axis: `n` knots spanning `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Axis {
    min: f64,
    max: f64,
    n: usize,
}

impl Axis {
    fn new(min: f64, max: f64, n: usize) -> Self {
        debug_assert!(n >= 2 && max > min);
        Axis { min, max, n }
    }

    fn step(&self) -> f64 {
        (self.max - self.min) / (self.n - 1) as f64
    }

    /// Coordinate of knot `i` — the exact value the grid was sampled at.
    fn knot(&self, i: usize) -> f64 {
        self.min + self.step() * i as f64
    }

    /// Lower knot index and fractional offset for coordinate `x`, clamped
    /// to the axis range. The fraction is computed against the *knot*
    /// coordinates, so `x == knot(i)` yields an exact 0.0 (and the lerp
    /// form `(1−t)·a + t·b` then reproduces grid values bitwise).
    fn locate(&self, x: f64) -> (usize, f64) {
        let t = (x - self.min) / self.step();
        let i = (t.floor().max(0.0) as usize).min(self.n - 2);
        let (a, b) = (self.knot(i), self.knot(i + 1));
        let frac = ((x - a) / (b - a)).clamp(0.0, 1.0);
        (i, frac)
    }
}

/// Endpoint-exact linear interpolation: `t = 0` returns `a` bitwise,
/// `t = 1` returns `b` bitwise.
fn lerp(a: f64, b: f64, t: f64) -> f64 {
    (1.0 - t) * a + t * b
}

/// gm/ID lookup-table backend: dense grids over `(L, vgs, vds)` sampled
/// from the closed-form model at a reference width `W_REF`, trilinearly
/// interpolated and scaled by `w / W_REF` at query time.
#[derive(Clone)]
pub struct DeviceLut {
    temp_c: f64,
    l_axis: Axis,
    vgs_axis: Axis,
    vds_axis: Axis,
    /// Flattened `(il, ivgs, ivds)` grid of `[id, gm, gds]` triples at
    /// `W_REF`, index `(il * n_vgs + ivgs) * n_vds + ivds`. Interleaved so
    /// one bias probe reads three adjacent values instead of touching
    /// three separate megabyte-scale arrays.
    ivg: Vec<[f64; 3]>,
    /// `cgg` is `vds`-independent in this model: one `(il, ivgs)` grid,
    /// index `il * n_vgs + ivgs`.
    cgg: Vec<f64>,
}

impl fmt::Debug for DeviceLut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceLut")
            .field("temp_c", &self.temp_c)
            .field("l_axis", &self.l_axis)
            .field("vgs_axis", &self.vgs_axis)
            .field("vds_axis", &self.vds_axis)
            .finish_non_exhaustive()
    }
}

impl DeviceLut {
    /// Reference width the grids are sampled at; queries scale by
    /// `w / W_REF` (exact — the model is linear in `w`).
    pub(crate) const W_REF: f64 = 1e-6;

    /// Knots along the device-length axis. The axis is linearly spaced but
    /// `id ∝ 1/L` (and `gds ∝ 1/L²`), so the short-channel end needs a fine
    /// pitch: 48 knots keeps the worst first-cell interpolation error of
    /// `1/L` under 1% across an 11× length range.
    pub(crate) const N_L: usize = 48;
    /// Knots along the `vgs` axis (`[0, VGS_MAX]`, dyadic 15.625 mV step —
    /// fine enough that piecewise-linear interpolation of the exponential
    /// near-threshold region stays within a few percent).
    pub(crate) const N_VGS: usize = 193;
    /// Knots along the `vds` axis (`[0, VDS_MAX]`, dyadic 62.5 mV step).
    pub(crate) const N_VDS: usize = 33;

    /// Builds the table for `model` at `temp_c` °C with the length axis
    /// spanning `[l_min, l_max]`. Deterministic: every stored value is one
    /// `mos_iv` / [`mos_cgg`] call at a knot, so builds are reproducible
    /// bit-for-bit and need no simulator or fitting step.
    #[must_use]
    pub(crate) fn build(model: &MosModel, temp_c: f64, l_min: f64, l_max: f64) -> Self {
        let l_axis = Axis::new(l_min, l_max, Self::N_L);
        let vgs_axis = Axis::new(0.0, VGS_MAX, Self::N_VGS);
        let vds_axis = Axis::new(0.0, VDS_MAX, Self::N_VDS);
        let n3 = Self::N_L * Self::N_VGS * Self::N_VDS;
        let mut ivg = Vec::with_capacity(n3);
        let mut cgg = Vec::with_capacity(Self::N_L * Self::N_VGS);
        for il in 0..Self::N_L {
            let l = l_axis.knot(il);
            for ivgs in 0..Self::N_VGS {
                let vgs = vgs_axis.knot(ivgs);
                cgg.push(mos_cgg(model, Self::W_REF, l, vgs, temp_c));
                for ivds in 0..Self::N_VDS {
                    let vds = vds_axis.knot(ivds);
                    let (i, g, go) = mos_iv(model, Self::W_REF, l, vgs, vds, temp_c);
                    ivg.push([i, g, go]);
                }
            }
        }
        DeviceLut {
            temp_c,
            l_axis,
            vgs_axis,
            vds_axis,
            ivg,
            cgg,
        }
    }

    fn at(&self, il: usize, ivgs: usize, ivds: usize) -> [f64; 3] {
        self.ivg[(il * Self::N_VGS + ivgs) * Self::N_VDS + ivds]
    }

    /// Per-reference-width drain current at `vgs` knot `k`, bilinearly
    /// interpolated in the (already located) `l` / `vds` coordinates.
    fn id_at_knot(&self, il: usize, tl: f64, iv: usize, tv: f64, k: usize) -> f64 {
        let corner = |dl: usize, dv: usize| self.at(il + dl, k, iv + dv)[0];
        let edge = |dv: usize| lerp(corner(0, dv), corner(1, dv), tl);
        lerp(edge(0), edge(1), tv)
    }
}

impl DeviceModel for DeviceLut {
    fn backend_name(&self) -> &'static str {
        "lut"
    }

    fn iv(&self, w: f64, l: f64, vgs: f64, vds: f64) -> (f64, f64, f64) {
        let (il, tl) = self.l_axis.locate(l);
        let (ig, tg) = self.vgs_axis.locate(vgs);
        let (iv, tv) = self.vds_axis.locate(vds);
        // One indexed load per cell corner (each corner's `[id, gm, gds]`
        // is adjacent in memory), then the endpoint-exact lerp chain per
        // component — bitwise identical to interpolating three grids.
        let c: [[[[f64; 3]; 2]; 2]; 2] = std::array::from_fn(|dl| {
            std::array::from_fn(|dg| std::array::from_fn(|dv| self.at(il + dl, ig + dg, iv + dv)))
        });
        let comp = |k: usize| {
            let edge = |dg: usize, dv: usize| lerp(c[0][dg][dv][k], c[1][dg][dv][k], tl);
            let face = |dv: usize| lerp(edge(0, dv), edge(1, dv), tg);
            lerp(face(0), face(1), tv)
        };
        let scale = w / Self::W_REF;
        let id = comp(0) * scale;
        let gm = comp(1) * scale;
        // Re-apply the model's conductance floor: stored values honour it
        // at W_REF, but scaling by w < W_REF could drop below it.
        let gds = (comp(2) * scale).max(1e-12);
        (id, gm, gds)
    }

    fn cgg(&self, w: f64, l: f64, vgs: f64) -> f64 {
        let (il, tl) = self.l_axis.locate(l);
        let (ig, tg) = self.vgs_axis.locate(vgs);
        let corner = |dl: usize, dg: usize| self.cgg[(il + dl) * Self::N_VGS + ig + dg];
        let edge = |dg: usize| lerp(corner(0, dg), corner(1, dg), tl);
        lerp(edge(0), edge(1), tg) * (w / Self::W_REF)
    }

    /// Grid inversion instead of bisection: at fixed `(l, vds)` the
    /// interpolated `id(vgs)` is piecewise-linear through the `vgs` knots
    /// and monotone (the generating model is monotone in `vgs`), so the
    /// inverse is a binary search over knots plus one exact linear solve —
    /// ~7 four-load probes instead of 60 transcendental model calls.
    fn try_vgs_for_id(&self, w: f64, l: f64, vds: f64, id_target: f64) -> Result<f64, DeviceError> {
        let (il, tl) = self.l_axis.locate(l);
        let (iv, tv) = self.vds_axis.locate(vds);
        let scale = w / Self::W_REF;
        let target = id_target / scale;
        let last = Self::N_VGS - 1;
        let id_max = self.id_at_knot(il, tl, iv, tv, last);
        if id_max < target {
            return Err(DeviceError::TargetAboveRange {
                id_target,
                id_max: id_max * scale,
            });
        }
        let id_min = self.id_at_knot(il, tl, iv, tv, 0);
        if id_min > target {
            return Err(DeviceError::TargetBelowRange {
                id_target,
                id_min: id_min * scale,
            });
        }
        // Smallest knot k with id(k) >= target (exists: id(last) >= target).
        let (mut lo, mut hi) = (0usize, last);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.id_at_knot(il, tl, iv, tv, mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (a, b) = (
            self.id_at_knot(il, tl, iv, tv, lo),
            self.id_at_knot(il, tl, iv, tv, hi),
        );
        let t = if b > a {
            ((target - a) / (b - a)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Ok(lerp(self.vgs_axis.knot(lo), self.vgs_axis.knot(hi), t))
    }
}

/// Process-wide [`DeviceLut`] cache keyed on the exact bit patterns of the
/// model card, temperature and length range. First call per key builds the
/// table (a few ms of closed-form sampling); later calls clone an `Arc`.
pub fn lut_for(model: &MosModel, temp_c: f64, l_min: f64, l_max: f64) -> Arc<DeviceLut> {
    type Key = [u64; 9];
    static CACHE: OnceLock<Mutex<HashMap<Key, Arc<DeviceLut>>>> = OnceLock::new();
    let key: Key = [
        model.kp.to_bits(),
        model.vth.to_bits(),
        model.lambda_l.to_bits(),
        model.n_sub.to_bits(),
        model.cox.to_bits(),
        model.vth_tc.to_bits(),
        temp_c.to_bits(),
        l_min.to_bits(),
        l_max.to_bits(),
    ];
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("device LUT cache poisoned").get(&key) {
        return Arc::clone(hit);
    }
    // Build outside the lock: a corner sweep's first batch may request
    // several distinct tables at once and builds are independent.
    let built = Arc::new(DeviceLut::build(model, temp_c, l_min, l_max));
    Arc::clone(
        cache
            .lock()
            .expect("device LUT cache poisoned")
            .entry(key)
            .or_insert(built),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const L_MIN: f64 = 0.18e-6;
    const L_MAX: f64 = 2.0e-6;
    const TEMP: f64 = 27.0;

    /// One shared table (process-wide cache) so 256 proptest cases pay for
    /// a single build.
    fn lut() -> Arc<DeviceLut> {
        lut_for(&MosModel::generic(), TEMP, L_MIN, L_MAX)
    }

    #[test]
    fn backends_report_stable_names() {
        let sq = SquareLaw::new(MosModel::generic(), TEMP);
        assert_eq!(sq.backend_name(), "square_law");
        assert_eq!(lut().backend_name(), "lut");
    }

    #[test]
    fn lut_cache_returns_the_same_table() {
        let a = lut();
        let b = lut();
        assert!(Arc::ptr_eq(&a, &b), "same key must hit the cache");
    }

    proptest! {
        /// At every grid knot the LUT reproduces the closed-form model
        /// bitwise for `w = W_REF`: `locate` yields an exact 0/1 fraction
        /// at knot coordinates, the lerp form is endpoint-exact, and the
        /// `w / W_REF` scale is exactly 1.0.
        #[test]
        fn prop_lut_is_bitwise_exact_at_grid_knots(
            il in 0usize..DeviceLut::N_L,
            ig in 0usize..DeviceLut::N_VGS,
            iv in 0usize..DeviceLut::N_VDS,
        ) {
            let lut = lut();
            let w = DeviceLut::W_REF;
            let l = lut.l_axis.knot(il);
            let vgs = lut.vgs_axis.knot(ig);
            let vds = lut.vds_axis.knot(iv);
            let exact = mos_iv(&MosModel::generic(), w, l, vgs, vds, TEMP);
            prop_assert_eq!(lut.iv(w, l, vgs, vds), exact);
            prop_assert_eq!(
                lut.cgg(w, l, vgs),
                mos_cgg(&MosModel::generic(), w, l, vgs, TEMP)
            );
        }

        /// Between knots the LUT tracks the closed form within the stated
        /// tolerance — `id`/`gm` to 5%, `gds` to 8%, `cgg` to 2% (each
        /// plus a tiny absolute floor for near-zero values) — for any
        /// width, any in-range length, and any saturated bias point:
        /// `vds ≥ 0.25 V` past the triode/saturation knee. The knee is
        /// excluded because `gds` there swings exponentially over ~2·Vt,
        /// narrower than the `vds` grid pitch; deep triode is excluded
        /// because its cells interpolate through `id = 0` and are only
        /// accurate in strong inversion (the switch Ron probe regime).
        #[test]
        fn prop_lut_tracks_closed_form_between_knots(
            w_um in 0.5..50.0f64,
            l in L_MIN..L_MAX,
            vgs in 0.0..VGS_MAX,
            vds in 0.25..VDS_MAX,
        ) {
            let lut = lut();
            let model = MosModel::generic();
            let vth_eff = model.vth + model.vth_tc * (TEMP - Circuit::TNOM);
            if model.n_sub * vds < (vgs - vth_eff) + 0.5 {
                // Knee or triode: outside the stated-accuracy region.
                return;
            }
            let w = w_um * 1e-6;
            let (id, gm, gds) = lut.iv(w, l, vgs, vds);
            let reference = mos_iv(&model, w, l, vgs, vds, TEMP);
            let close = |got: f64, want: f64, rel: f64, abs: f64| {
                (got - want).abs() <= rel * want.abs() + abs
            };
            prop_assert!(close(id, reference.0, 0.05, 1e-9), "id {:e} vs {:e}", id, reference.0);
            prop_assert!(close(gm, reference.1, 0.05, 1e-9), "gm {:e} vs {:e}", gm, reference.1);
            prop_assert!(close(gds, reference.2, 0.08, 1e-9), "gds {:e} vs {:e}", gds, reference.2);
            let cgg = lut.cgg(w, l, vgs);
            let cgg_ref = mos_cgg(&model, w, l, vgs, TEMP);
            prop_assert!(close(cgg, cgg_ref, 0.02, 1e-18), "cgg {:e} vs {:e}", cgg, cgg_ref);
        }

        /// The stored `id` grid is monotone non-decreasing along the `vgs`
        /// axis at every `(l, vds)` knot pair — the invariant the LUT's
        /// binary-search inversion relies on.
        #[test]
        fn prop_lut_id_monotone_in_vgs_on_grid(
            il in 0usize..DeviceLut::N_L,
            iv in 0usize..DeviceLut::N_VDS,
        ) {
            let lut = lut();
            for ig in 1..DeviceLut::N_VGS {
                let lo = lut.at(il, ig - 1, iv)[0];
                let hi = lut.at(il, ig, iv)[0];
                prop_assert!(
                    hi >= lo,
                    "id not monotone at il={} iv={} ig={}: {:e} > {:e}",
                    il, iv, ig, lo, hi
                );
            }
        }

        /// Grid inversion is self-consistent: asking for the `vgs` that
        /// carries the current the LUT itself reports at a random bias
        /// lands back on that current to fp precision.
        #[test]
        fn prop_lut_vgs_inversion_roundtrip(
            w_um in 0.5..50.0f64,
            l in L_MIN..L_MAX,
            vgs in 0.1..VGS_MAX,
            vds in 0.05..VDS_MAX,
        ) {
            let lut = lut();
            let w = w_um * 1e-6;
            let (id, _, _) = lut.iv(w, l, vgs, vds);
            if id <= 1e-15 {
                // Degenerate leakage-floor currents are not worth inverting.
                return;
            }
            let back = lut.try_vgs_for_id(w, l, vds, id);
            prop_assert!(back.is_ok(), "in-range target rejected: {:?}", back);
            let (id_back, _, _) = lut.iv(w, l, back.unwrap(), vds);
            prop_assert!(
                (id_back - id).abs() <= 1e-6 * id.abs(),
                "roundtrip {:e} vs {:e}", id_back, id
            );
        }
    }
}
