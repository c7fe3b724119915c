//! Bode-plot measurements used by the sizing loop: unity-gain frequency,
//! phase margin and power-supply rejection.
//!
//! Each one reads an [`AcResponse`] and so solves only the points it needs.
//! The unity-gain and phase-margin scans ask the response's guide, a cheap
//! estimate of `H(jω)`, which points those are:
//!
//! * the unity-gain scan skips every point whose estimated gain is above
//!   0 dB by a margin, and solves exactly the first point, any point the
//!   estimate cannot decide, and the two points that bracket the 0 dB
//!   crossing;
//! * the phase unwrap takes each bracketing point's ±360° count from the
//!   estimated phase chain, anchored at the exactly solved point 0, while
//!   every step of the chain stays a margin clear of ±180°, and unwraps
//!   exactly from where it does not;
//! * the PSRR solves the two points that bracket its frequency.
//!
//! On an `ldo`-shaped open loop a phase margin solves 3 points exactly and
//! estimates 121. Every number a measurement returns (the bracketing
//! magnitudes and phases, the phase at point 0, the DC gain, the PSRR) is
//! an exactly solved point's, so each equals the full sweep's bit for bit.
//! Without a guide (every row holds a capacitor, the dynamic block is
//! large, or the eliminated block is near singular) and after one is
//! dropped, the scans solve the prefix up to the crossing, as the full
//! sweep does.

use crate::ac::interp_log_f;
use crate::{AcResponse, MnaError};

/// Runs `measure`, and runs it again when its reads dropped the response's
/// guide: a guide that disagreed with an exactly solved point no longer
/// vouches for the points it let the scan skip.
fn vouched<'a, T>(
    bode: &mut AcResponse<'a>,
    measure: impl Fn(&mut AcResponse<'a>) -> Result<T, MnaError>,
) -> Result<T, MnaError> {
    let dropped = bode.guide_dropped();
    let value = measure(bode)?;
    if bode.guide_dropped() == dropped {
        Ok(value)
    } else {
        measure(bode)
    }
}

/// Frequency (Hz) at which the magnitude crosses 0 dB, found by scanning the
/// sweep and interpolating in log-frequency. `None` if the response never
/// crosses unity inside the swept range (e.g. the amplifier never reaches
/// 0 dB, or starts below it).
///
/// # Errors
///
/// Returns [`MnaError::SingularSystem`] if a point it solves is singular.
pub fn unity_gain_freq(bode: &mut AcResponse<'_>) -> Result<Option<f64>, MnaError> {
    vouched(bode, |bode| {
        let freqs = bode.freqs();
        if bode.mag_db(0)? <= 0.0 {
            return Ok(None);
        }
        for i in 1..freqs.len() {
            if bode.clears_unity(i) {
                continue;
            }
            let m1 = bode.mag_db(i)?;
            if m1 <= 0.0 {
                // Interpolate between i-1 and i in log-f.
                let m0 = bode.mag_db(i - 1)?;
                let t = m0 / (m0 - m1);
                let lf = freqs[i - 1].ln() + t * (freqs[i].ln() - freqs[i - 1].ln());
                return Ok(Some(lf.exp()));
            }
        }
        Ok(None)
    })
}

/// Phase margin in degrees: `180° + (∠H(f_unity) − ∠H(f_min))`.
///
/// The phase is referenced to the lowest swept frequency so the result is
/// insensitive to the stimulus polarity (an inverting path whose phase starts
/// at ±180° is handled identically to a non-inverting one). `None` when
/// there is no unity-gain crossing in the sweep.
///
/// # Errors
///
/// Returns [`MnaError::SingularSystem`] if a point it solves is singular.
pub fn phase_margin_deg(bode: &mut AcResponse<'_>) -> Result<Option<f64>, MnaError> {
    vouched(bode, |bode| {
        let Some(fu) = unity_gain_freq(bode)? else {
            return Ok(None);
        };
        let lag = interp_log_f(bode.freqs(), fu, |i| bode.phase_deg(i))? - bode.phase_deg(0)?;
        Ok(Some(180.0 + lag))
    })
}

/// Power-supply rejection ratio in dB at `f_hz`, from a response whose
/// stimulus is a unit AC source on the supply and whose output is the
/// regulated/reference node: `PSRR = −|v_out/v_supply|` in dB, so larger is
/// better and 0 dB means the ripple passes straight through.
///
/// `f_hz` is clamped to the swept range by the underlying interpolation.
///
/// # Errors
///
/// Returns [`MnaError::SingularSystem`] if a point it solves is singular.
pub fn psrr_db(bode: &mut AcResponse<'_>, f_hz: f64) -> Result<f64, MnaError> {
    Ok(-interp_log_f(bode.freqs(), f_hz, |i| bode.mag_db(i))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcSweep, Circuit};

    /// Single-pole integrator-like stage: A0 = 1000 (60 dB), fp = 1 kHz.
    /// Unity-gain at ≈ A0·fp = 1 MHz, phase margin ≈ 90°.
    fn single_pole_amp() -> (Circuit, crate::NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.vccs(Circuit::GND, vout, vin, Circuit::GND, 1e-3); // non-inverting
        ckt.resistor(vout, Circuit::GND, 1e6); // A0 = 1000
        let c = 1.0 / (2.0 * std::f64::consts::PI * 1e6 * 1e3); // fp = 1 kHz
        ckt.capacitor(vout, Circuit::GND, c);
        (ckt, vout)
    }

    #[test]
    fn unity_gain_of_single_pole_amp() {
        let (ckt, vout) = single_pole_amp();
        let sweep = AcSweep::log(10.0, 1e8, 241);
        let mut bode = ckt.ac_response(vout, &sweep).unwrap();
        let fu = unity_gain_freq(&mut bode).unwrap().unwrap();
        assert!(
            (fu - 1e6).abs() / 1e6 < 0.02,
            "unity-gain frequency {fu:.3e}"
        );
    }

    #[test]
    fn phase_margin_of_single_pole_is_90() {
        let (ckt, vout) = single_pole_amp();
        let sweep = AcSweep::log(10.0, 1e8, 241);
        let mut bode = ckt.ac_response(vout, &sweep).unwrap();
        let pm = phase_margin_deg(&mut bode).unwrap().unwrap();
        assert!((pm - 90.0).abs() < 2.0, "phase margin {pm}");
    }

    #[test]
    fn two_pole_amp_has_lower_margin() {
        let (mut ckt, _) = single_pole_amp();
        // Second pole at 1 MHz via an RC follower stage driven by vout.
        let vout = ckt.node("out");
        let v2 = ckt.node("out2");
        ckt.vccs(Circuit::GND, v2, vout, Circuit::GND, 1e-3);
        ckt.resistor(v2, Circuit::GND, 1e3); // unity buffer stage
        let c2 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e6); // fp2 = 1 MHz
        ckt.capacitor(v2, Circuit::GND, c2);
        let sweep = AcSweep::log(10.0, 1e8, 241);
        let mut bode = ckt.ac_response(v2, &sweep).unwrap();
        let pm = phase_margin_deg(&mut bode).unwrap().unwrap();
        // Second pole at the unity crossing: PM ≈ 45°.
        assert!(pm > 20.0 && pm < 60.0, "phase margin {pm}");
    }

    #[test]
    fn psrr_of_rc_supply_filter() {
        // Supply ripple through an RC low-pass (fc ≈ 159 Hz): at 10 Hz the
        // ripple passes (PSRR ≈ 0 dB), two decades above fc it is attenuated
        // ~40 dB.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        ckt.vsource_ac(vdd, Circuit::GND, 1.8, 1.0);
        ckt.resistor(vdd, out, 1e3);
        ckt.capacitor(out, Circuit::GND, 1e-6);
        let sweep = AcSweep::log(1.0, 1e6, 121);
        let mut bode = ckt.ac_response(out, &sweep).unwrap();
        let lo = psrr_db(&mut bode, 10.0).unwrap();
        assert!(lo.abs() < 1.0, "{lo}");
        let hi = psrr_db(&mut bode, 15_915.0).unwrap();
        assert!((hi - 40.0).abs() < 1.5, "psrr two decades up: {hi}");
    }

    #[test]
    fn no_crossing_returns_none() {
        // Flat 0.5x attenuator never crosses unity.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.resistor(vin, vout, 1e3);
        ckt.resistor(vout, Circuit::GND, 1e3);
        let sweep = AcSweep::log(1.0, 1e3, 31);
        let mut bode = ckt.ac_response(vout, &sweep).unwrap();
        assert!(unity_gain_freq(&mut bode).unwrap().is_none());
        assert!(phase_margin_deg(&mut bode).unwrap().is_none());
    }

    #[test]
    fn inverting_stimulus_gives_same_margin() {
        // Same single-pole amp but with the VCCS polarity flipped: the phase
        // starts at 180° instead of 0°, the margin must not change.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GND, 0.0, 1.0);
        ckt.vccs(vout, Circuit::GND, vin, Circuit::GND, 1e-3); // inverting
        ckt.resistor(vout, Circuit::GND, 1e6);
        let c = 1.0 / (2.0 * std::f64::consts::PI * 1e6 * 1e3);
        ckt.capacitor(vout, Circuit::GND, c);
        let sweep = AcSweep::log(10.0, 1e8, 241);
        let mut bode = ckt.ac_response(vout, &sweep).unwrap();
        let pm = phase_margin_deg(&mut bode).unwrap().unwrap();
        assert!((pm - 90.0).abs() < 2.0, "phase margin {pm}");
    }
}
