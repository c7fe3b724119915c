use std::error::Error;
use std::fmt;

/// Errors produced by circuit simulation: a DC operating point that Newton
/// cannot reach, or an MNA system that is singular (DC or AC).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MnaError {
    /// Newton iteration failed to converge even with gmin stepping.
    DcNoConvergence {
        /// Number of Newton iterations attempted at the final gmin level.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// The MNA system was singular, at DC or at some AC frequency
    /// (typically a floating node or a loop of voltage sources).
    SingularSystem {
        /// Frequency in Hz at which the solve failed (`0.0` for DC).
        freq_hz: f64,
    },
}

impl fmt::Display for MnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnaError::DcNoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "dc analysis did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            MnaError::SingularSystem { freq_hz } => {
                write!(f, "singular MNA system at {freq_hz} Hz (floating node?)")
            }
        }
    }
}

impl Error for MnaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cause() {
        let e = MnaError::DcNoConvergence {
            iterations: 100,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("100"));
        let e = MnaError::SingularSystem { freq_hz: 1e3 };
        assert!(e.to_string().contains("singular"));
    }

    /// Two voltage sources in parallel that disagree make the MNA system
    /// singular: DC reports it at 0 Hz, an AC sweep at its first frequency.
    #[test]
    fn parallel_voltage_sources_are_a_singular_system() {
        use crate::{AcSweep, Circuit};
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource_ac(a, Circuit::GND, 1.0, 1.0);
        ckt.vsource(a, Circuit::GND, 2.0);
        ckt.resistor(a, Circuit::GND, 1_000.0);
        assert_eq!(
            ckt.dc().unwrap_err(),
            MnaError::SingularSystem { freq_hz: 0.0 }
        );
        let sweep = AcSweep::log(10.0, 1e6, 11);
        assert_eq!(
            ckt.ac_transfer(a, &sweep).unwrap_err(),
            MnaError::SingularSystem {
                freq_hz: sweep.freqs()[0]
            }
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MnaError>();
    }
}
