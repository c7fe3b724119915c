use std::fmt;

/// Process corner of a technology card's device models.
///
/// Corners shift every MOS model of a [`crate::TechNode`] the way foundry
/// corner cards do: the fast corner has lower thresholds and stronger
/// transconductance, the slow corner the opposite. The shifts are applied
/// multiplicatively/additively by `TechNode::at_corner`, so a
/// single nominal card yields the whole corner family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Process {
    /// Typical/typical — the nominal card, unshifted.
    Tt,
    /// Fast/fast — `Vth` −40 mV, `KP` +15 %.
    Ff,
    /// Slow/slow — `Vth` +40 mV, `KP` −15 %.
    Ss,
}

impl Process {
    /// Multiplicative shift applied to every `KP` at this corner.
    #[must_use]
    pub(crate) fn kp_scale(self) -> f64 {
        match self {
            Process::Tt => 1.0,
            Process::Ff => 1.15,
            Process::Ss => 0.85,
        }
    }

    /// Additive shift applied to every `Vth` at this corner, volts.
    #[must_use]
    pub(crate) fn vth_shift(self) -> f64 {
        match self {
            Process::Tt => 0.0,
            Process::Ff => -0.04,
            Process::Ss => 0.04,
        }
    }

    /// Canonical lower-case name ("tt", "ff", "ss").
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Process::Tt => "tt",
            Process::Ff => "ff",
            Process::Ss => "ss",
        }
    }

    /// Parses a process name (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input when it is not one of `tt`/`ff`/`ss`.
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "tt" => Ok(Process::Tt),
            "ff" => Ok(Process::Ff),
            "ss" => Ok(Process::Ss),
            other => Err(format!("unknown process corner '{other}' (tt/ff/ss)")),
        }
    }
}

/// One PVT corner: a process shift plus an ambient temperature.
///
/// Corner names follow the `<process>_<temp>c` convention used by the CLI
/// and the scenario registry: `tt_27c`, `ss_125c`, `ff_m40c` (the `m`
/// prefix spells a negative temperature, since `-` is awkward in file
/// names and shell arguments; a literal `-40` is also accepted on parse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Process shift applied to the device models.
    pub(crate) process: Process,
    /// Ambient temperature, °C.
    pub(crate) temp_c: f64,
}

impl Corner {
    /// The nominal corner: TT, 27 °C.
    #[must_use]
    pub fn tt() -> Self {
        Corner {
            process: Process::Tt,
            temp_c: 27.0,
        }
    }

    /// A corner at an explicit process and temperature.
    #[must_use]
    pub(crate) fn new(process: Process, temp_c: f64) -> Self {
        Corner { process, temp_c }
    }

    /// Canonical name, e.g. `tt_27c`, `ff_m40c`, `ss_125c`.
    #[must_use]
    pub fn name(&self) -> String {
        let t = self.temp_c.round() as i64;
        if t < 0 {
            format!("{}_m{}c", self.process.name(), -t)
        } else {
            format!("{}_{}c", self.process.name(), t)
        }
    }

    /// Parses a corner name.
    ///
    /// Accepts the canonical `<process>_<temp>c` form (`ss_125c`,
    /// `ff_m40c`, `ff_-40c`) and a bare process (`tt`), which implies
    /// 27 °C.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed component.
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        let s = s.to_ascii_lowercase();
        let Some((proc_part, temp_part)) = s.split_once('_') else {
            return Ok(Corner::new(Process::parse(&s)?, 27.0));
        };
        let process = Process::parse(proc_part)?;
        let t = temp_part.trim_end_matches('c');
        let t = if let Some(neg) = t.strip_prefix('m') {
            format!("-{neg}")
        } else {
            t.to_string()
        };
        let temp_c: f64 = t
            .parse()
            .map_err(|_| format!("unparsable corner temperature '{temp_part}' in '{s}'"))?;
        if !(-60.0..=200.0).contains(&temp_c) {
            return Err(format!("corner temperature {temp_c} °C out of range"));
        }
        Ok(Corner::new(process, temp_c))
    }

    /// The standard sweep registered for most scenarios: TT at room plus
    /// the four aggressive PVT combinations (fast-cold, fast-hot,
    /// slow-cold, slow-hot).
    #[must_use]
    pub fn standard_sweep() -> Vec<Corner> {
        vec![
            Corner::new(Process::Tt, 27.0),
            Corner::new(Process::Ff, -40.0),
            Corner::new(Process::Ff, 125.0),
            Corner::new(Process::Ss, -40.0),
            Corner::new(Process::Ss, 125.0),
        ]
    }

    /// Process-only sweep (all at 27 °C ambient) for testbenches whose
    /// evaluation already sweeps temperature internally (the bandgap).
    #[must_use]
    pub(crate) fn process_sweep() -> Vec<Corner> {
        vec![
            Corner::new(Process::Tt, 27.0),
            Corner::new(Process::Ff, 27.0),
            Corner::new(Process::Ss, 27.0),
        ]
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_names_round_trip() {
        for c in Corner::standard_sweep() {
            let parsed = Corner::parse(&c.name()).unwrap();
            assert_eq!(parsed, c, "round trip of {}", c.name());
        }
    }

    #[test]
    fn bare_process_implies_room_temperature() {
        let c = Corner::parse("ff").unwrap();
        assert_eq!(c.process, Process::Ff);
        assert!((c.temp_c - 27.0).abs() < 1e-12);
    }

    #[test]
    fn negative_temperature_spellings() {
        assert_eq!(Corner::parse("ss_m40c").unwrap().temp_c, -40.0);
        assert_eq!(Corner::parse("ss_-40c").unwrap().temp_c, -40.0);
        assert_eq!(Corner::parse("ss_m40c").unwrap().name(), "ss_m40c");
    }

    #[test]
    fn malformed_corners_are_rejected() {
        assert!(Corner::parse("sf_27c").is_err());
        assert!(Corner::parse("tt_abc").is_err());
        assert!(Corner::parse("tt_999c").is_err());
    }

    #[test]
    fn process_shifts_are_directionally_correct() {
        assert!(Process::Ff.kp_scale() > 1.0 && Process::Ff.vth_shift() < 0.0);
        assert!(Process::Ss.kp_scale() < 1.0 && Process::Ss.vth_shift() > 0.0);
        assert_eq!(Process::Tt.kp_scale(), 1.0);
        assert_eq!(Process::Tt.vth_shift(), 0.0);
    }
}
