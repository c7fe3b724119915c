#![warn(missing_docs)]

//! Modified-nodal-analysis (MNA) circuit simulator.
//!
//! The KATO paper evaluates candidate transistor sizings with a commercial
//! SPICE and foundry PDKs. Neither is available here, so this crate is the
//! from-scratch substitute: a compact analog simulator that provides exactly
//! the analyses the sizing loop observes:
//!
//! * **Nonlinear DC operating point** — Newton–Raphson with gmin stepping
//!   and voltage-update damping, over exponential diodes, square-law MOSFETs
//!   and linear elements.
//! * **Small-signal AC sweep** — complex-valued MNA solve `(G + jωC)·v = b`
//!   across a log frequency grid, for gain / GBW / phase-margin / PSRR
//!   extraction. [`AcResponse`] solves a frequency only when a measurement
//!   first reads it, so a measurement costs the points it needs. The
//!   unity-gain and phase-margin scans find those points with an estimate
//!   of `H(jω)` from a `k × k` system (`k`, the rows a capacitor touches,
//!   is 2 for `ldo`'s open loop), left once the rows `C` never touches are
//!   eliminated. They solve exactly only the first point, the crossing's
//!   bracket and what the estimate cannot decide, and every number they
//!   return is an exactly solved point's, so each equals the full sweep's
//!   bit for bit.
//! * **Temperature sweeps** — DC re-solves with temperature-dependent device
//!   models, used for bandgap temperature-coefficient measurement.
//!
//! The element set covers what the paper's three benchmark
//! circuits need: R, C, independent V/I sources, VCCS (for behavioural
//! small-signal macromodels), diodes (BJT diode-connected stand-ins) and
//! MOSFETs.
//!
//! # Example — RC low-pass corner frequency
//!
//! ```
//! use kato_mna::{psrr_db, AcSweep, Circuit};
//!
//! # fn main() -> Result<(), kato_mna::MnaError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
//! ckt.resistor(vin, vout, 1_000.0);
//! ckt.capacitor(vout, Circuit::GND, 1e-6);
//! let sweep = AcSweep::log(10.0, 10_000.0, 61);
//! let mut response = ckt.ac_response(vout, &sweep)?;
//! // f_c = 1/(2πRC) ≈ 159 Hz: the input is attenuated 3 dB there. Only
//! // the two grid points around f_c are solved.
//! let rejection_at_fc = psrr_db(&mut response, 159.15)?;
//! assert!((rejection_at_fc - 3.01).abs() < 0.1);
//! # Ok(())
//! # }
//! ```

mod ac;
mod dc;
mod device;
mod error;
mod guide;
mod measure;
mod netlist;
#[cfg(test)]
mod oracle;

pub use ac::{AcResponse, AcSweep};
pub use dc::DcSolution;
pub use device::{lut_for, DeviceError, DeviceLut, DeviceModel, SquareLaw};
pub use error::MnaError;
pub use measure::{phase_margin_deg, psrr_db, unity_gain_freq};
pub use netlist::{Circuit, DiodeModel, ElementHandle, MosModel, MosType, NodeId};
